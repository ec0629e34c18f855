//! Property-based tests of the core invariants (proptest).
//!
//! * ChunkedTable behaves like a model map under arbitrary
//!   insert/delete/overwrite sequences.
//! * The three B+-tree flavours agree with `BTreeMap` under arbitrary
//!   insert/remove/lookup/range sequences.
//! * Dictionary encoding is a bijection.
//! * JIT-compiled pipelines equal interpreted pipelines on arbitrary
//!   generated plans and data.
//! * A crash at ANY flush point during an MVTO commit recovers to exactly
//!   the pre- or post-transaction state.
//! * Zone-map pruning and the clean-chunk fast path never change scan
//!   results, under arbitrary interleavings of committed/aborted updates.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use pmemgraph::gjit::{run_plan_ctx, JitEngine, Mode};
use pmemgraph::gquery::plan::RelEnd;
use pmemgraph::gquery::{execute_collect, CmpOp, ExecCtx, Op, PPar, Plan, Pred, Proj};
use pmemgraph::graphcore::{DbOptions, Dir, GraphDb, PropOwner, Value};
use pmemgraph::gstore::{BPlusTree, ChunkedTable, Dictionary, IndexKind, NodeRecord, PVal};
use pmemgraph::gtxn::{TableTag, TxnManager};
use pmemgraph::pmem::{CrashPolicy, Pool};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// ChunkedTable vs model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TableOp {
    Insert(u64),
    Delete(usize),
    Overwrite(usize, u64),
}

fn table_ops() -> impl Strategy<Value = Vec<TableOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..1_000_000).prop_map(TableOp::Insert),
            (0usize..64).prop_map(TableOp::Delete),
            ((0usize..64), (0u64..1_000_000)).prop_map(|(i, v)| TableOp::Overwrite(i, v)),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunked_table_matches_model(ops in table_ops()) {
        let pool = Arc::new(Pool::volatile(64 << 20).unwrap());
        let table: ChunkedTable<NodeRecord> = ChunkedTable::create(pool).unwrap();
        let mut model: HashMap<u64, u64> = HashMap::new(); // id -> label value
        let mut live: Vec<u64> = Vec::new();

        for op in ops {
            match op {
                TableOp::Insert(v) => {
                    let id = table.insert(&NodeRecord::new(v as u32)).unwrap();
                    prop_assert!(!model.contains_key(&id), "fresh id must be unused");
                    model.insert(id, v);
                    live.push(id);
                }
                TableOp::Delete(i) if !live.is_empty() => {
                    let id = live.remove(i % live.len());
                    table.delete(id);
                    model.remove(&id);
                }
                TableOp::Overwrite(i, v) if !live.is_empty() => {
                    let id = live[i % live.len()];
                    let mut rec = table.get(id);
                    rec.label = v as u32;
                    table.write(id, &rec);
                    model.insert(id, v);
                }
                _ => {}
            }
        }
        prop_assert_eq!(table.live_count(), model.len());
        let mut seen = 0;
        table.for_each_live(|id, rec| {
            assert_eq!(rec.label as u64, *model.get(&id).expect("live id in model") & 0xFFFF_FFFF);
            seen += 1;
        });
        prop_assert_eq!(seen, model.len());
    }
}

// ---------------------------------------------------------------------
// B+-tree vs BTreeMap
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u64, u64),
    Remove(usize),
    Lookup(u64),
    Range(u64, u64),
}

fn tree_ops() -> impl Strategy<Value = Vec<TreeOp>> {
    prop::collection::vec(
        prop_oneof![
            ((0u64..512), (0u64..1000)).prop_map(|(k, v)| TreeOp::Insert(k, v)),
            (0usize..64).prop_map(TreeOp::Remove),
            (0u64..512).prop_map(TreeOp::Lookup),
            ((0u64..512), (0u64..512)).prop_map(|(a, b)| TreeOp::Range(a.min(b), a.max(b))),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn btree_all_kinds_match_model(ops in tree_ops()) {
        let pool = Arc::new(Pool::volatile(256 << 20).unwrap());
        let trees = [
            BPlusTree::create(IndexKind::Volatile, None).unwrap(),
            BPlusTree::create(IndexKind::Persistent, Some(pool.clone())).unwrap(),
            BPlusTree::create(IndexKind::Hybrid, Some(pool.clone())).unwrap(),
        ];
        let mut model: BTreeMap<(u64, u64), ()> = BTreeMap::new();
        let mut entries: Vec<(u64, u64)> = Vec::new();

        for op in ops {
            match op {
                TreeOp::Insert(k, v)
                    if model.insert((k, v), ()).is_none() => {
                        for t in &trees {
                            t.insert(k, v).unwrap();
                        }
                        entries.push((k, v));
                    }
                TreeOp::Remove(i) if !entries.is_empty() => {
                    let (k, v) = entries.remove(i % entries.len());
                    model.remove(&(k, v));
                    for t in &trees {
                        prop_assert!(t.remove(k, v), "remove present entry");
                    }
                }
                TreeOp::Lookup(k) => {
                    let mut expect: Vec<u64> = model
                        .range((k, 0)..=(k, u64::MAX))
                        .map(|((_, v), _)| *v)
                        .collect();
                    expect.sort_unstable();
                    for t in &trees {
                        let mut got = t.lookup(k);
                        got.sort_unstable();
                        prop_assert_eq!(&got, &expect, "kind {:?} key {}", t.kind(), k);
                    }
                }
                TreeOp::Range(lo, hi) => {
                    let expect: Vec<(u64, u64)> = model
                        .range((lo, 0)..=(hi, u64::MAX))
                        .map(|(&kv, _)| kv)
                        .collect();
                    for t in &trees {
                        let mut got = Vec::new();
                        t.range(lo, hi, |k, v| got.push((k, v)));
                        // Key-sorted; values within a key unspecified.
                        let mut g = got.clone();
                        g.sort_unstable();
                        let mut e = expect.clone();
                        e.sort_unstable();
                        prop_assert_eq!(g, e, "kind {:?} range {}..={}", t.kind(), lo, hi);
                    }
                }
                _ => {}
            }
        }
        for t in &trees {
            prop_assert_eq!(t.count_entries(), model.len());
        }
    }
}

// ---------------------------------------------------------------------
// Dictionary bijectivity
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dictionary_is_bijective(strings in prop::collection::vec("[a-zA-Z0-9 _-]{0,40}", 1..200)) {
        let pool = Arc::new(Pool::volatile(128 << 20).unwrap());
        let dict = Dictionary::create(pool).unwrap();
        let mut seen: HashMap<String, u32> = HashMap::new();
        for s in &strings {
            let code = dict.get_or_insert(s).unwrap();
            if let Some(&prev) = seen.get(s) {
                prop_assert_eq!(code, prev, "same string, same code");
            } else {
                prop_assert!(!seen.values().any(|&c| c == code), "codes unique");
                seen.insert(s.clone(), code);
            }
        }
        for (s, &code) in &seen {
            let resolved = dict.string_of(code);
            prop_assert_eq!(resolved.as_deref(), Some(s.as_str()));
            prop_assert_eq!(dict.code_of(s), Some(code));
        }
    }
}

// ---------------------------------------------------------------------
// JIT vs interpreter on arbitrary plans
// ---------------------------------------------------------------------

fn small_graph(seed: u64) -> (GraphDb, u32, u32, u32, u32) {
    let db = GraphDb::create(DbOptions::dram(256 << 20)).unwrap();
    let label = db.intern("N").unwrap();
    let rel = db.intern("E").unwrap();
    let ka = db.intern("a").unwrap();
    let kb = db.intern("b").unwrap();
    let mut tx = db.begin();
    let mut x = seed | 1;
    let n = 80;
    let ids: Vec<u64> = (0..n)
        .map(|i| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            tx.create_node(
                "N",
                &[
                    ("a", Value::Int((x >> 33) as i64 % 50)),
                    ("b", Value::Int(i as i64)),
                ],
            )
            .unwrap()
        })
        .collect();
    for i in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (x >> 33) as usize % n;
        if j != i {
            tx.create_rel(ids[i], "E", ids[j], &[]).unwrap();
        }
    }
    tx.commit().unwrap();
    (db, label, rel, ka, kb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn jit_equals_interpreter(
        seed in 1u64..1_000_000,
        cmp_idx in 0usize..6,
        threshold in 0i64..50,
        hops in 0usize..3,
        key_pick in proptest::bool::ANY,
    ) {
        let (db, label, rel, ka, kb) = small_graph(seed);
        let cmp = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][cmp_idx];
        let key = if key_pick { ka } else { kb };
        let mut ops = vec![
            Op::NodeScan { label: Some(label) },
            Op::Filter(Pred::Prop {
                col: 0,
                key,
                op: cmp,
                value: PPar::Const(PVal::Int(threshold)),
            }),
        ];
        let mut col = 0;
        for h in 0..hops {
            let dir = if h % 2 == 0 { Dir::Out } else { Dir::In };
            ops.push(Op::ForeachRel { col, dir, label: Some(rel) });
            ops.push(Op::GetNode {
                col: col + 1,
                end: if dir == Dir::Out { RelEnd::Dst } else { RelEnd::Src },
            });
            col += 2;
        }
        ops.push(Op::Project(vec![
            Proj::Prop { col, key: kb },
            Proj::Id { col },
        ]));
        let plan = Plan::new(ops, 0);

        let mut tx = db.begin();
        let interp = execute_collect(&plan, &mut tx, &[]).unwrap();
        drop(tx);
        let engine = Arc::new(JitEngine::new());
        let mut tx = db.begin();
        let jit =
            run_plan_ctx(&plan, &mut tx, &mut ExecCtx::new(&[]), &Mode::Jit(&engine)).unwrap();
        prop_assert_eq!(jit, interp);
    }
}

// ---------------------------------------------------------------------
// Crash sweep: MVTO commit is atomic at every flush point
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mvto_commit_atomic_under_random_crashes(
        crash_at in 0i64..60,
        torn_seed in 0u64..10_000,
        n_updates in 1usize..4,
    ) {
        let pool = Arc::new(Pool::volatile(64 << 20).unwrap().with_crash_tracking());
        let mgr = TxnManager::create(pool.clone()).unwrap();
        let nodes: ChunkedTable<NodeRecord> = ChunkedTable::create(pool.clone()).unwrap();
        let rels: ChunkedTable<pmemgraph::gstore::RelRecord> =
            ChunkedTable::create(pool.clone()).unwrap();
        let props: ChunkedTable<pmemgraph::gstore::PropRecord> =
            ChunkedTable::create(pool.clone()).unwrap();
        let nroot = nodes.root_off();

        let mut t0 = mgr.begin();
        let ids: Vec<u64> = (0..n_updates)
            .map(|i| mgr.insert(&mut t0, TableTag::Node, &nodes, NodeRecord::new(i as u32)).unwrap())
            .collect();
        mgr.commit(t0, &nodes, &rels, &props).unwrap();

        let mut t1 = mgr.begin();
        for &id in &ids {
            mgr.update(&mut t1, TableTag::Node, &nodes, id, |n| n.label += 100).unwrap();
        }
        pool.inject_crash_after_flushes(crash_at);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mgr.commit(t1, &nodes, &rels, &props)
        }));
        pool.clear_crash_injection();
        if outcome.is_ok() {
            return Ok(()); // commit completed before the crash point
        }
        pool.simulate_crash(CrashPolicy::Torn(torn_seed)).unwrap();
        pool.recover().unwrap();
        let nodes2: ChunkedTable<NodeRecord> = ChunkedTable::open(pool.clone(), nroot).unwrap();
        let mgr2 = TxnManager::open(pool.clone(), mgr.ts_slot());
        mgr2.recover_table(&nodes2);

        let labels: Vec<u32> = ids.iter().map(|&id| nodes2.get(id).label).collect();
        let all_old = labels.iter().enumerate().all(|(i, &l)| l == i as u32);
        let all_new = labels.iter().enumerate().all(|(i, &l)| l == i as u32 + 100);
        prop_assert!(all_old || all_new, "torn commit: {labels:?}");
        for &id in &ids {
            prop_assert_eq!(nodes2.get(id).txn_id, 0, "stale lock");
        }
    }
}

// ---------------------------------------------------------------------
// Read acceleration: pruned scans equal the unpruned interpreter
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Zone-map pruning and the clean-chunk fast path are pure
    /// accelerations: under randomly interleaved committed and aborted
    /// updates (which dirty chunks, widen zones and grow version chains),
    /// a selective scan with acceleration on — sequential and parallel —
    /// returns exactly what the unaccelerated interpreter returns.
    #[test]
    fn read_accel_never_changes_scan_results(
        seed in 1u64..1_000_000,
        ops in prop::collection::vec(
            ((0usize..512), (0i64..300), proptest::bool::ANY),
            1..40,
        ),
        lo in 0i64..280,
        width in 1i64..60,
    ) {
        let db = GraphDb::create(DbOptions::dram(256 << 20)).unwrap();
        // Registered index key => zone maps are maintained for (N, a).
        db.create_index("N", "a", IndexKind::Volatile).unwrap();
        let mut x = seed | 1;
        let mut tx = db.begin();
        let ids: Vec<u64> = (0..512usize)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                // Clustered base value (tight zones, so pruning actually
                // fires) plus a little seeded jitter.
                let v = (i as i64) / 2 + ((x >> 33) as i64 % 8);
                tx.create_node("N", &[("a", Value::Int(v))]).unwrap()
            })
            .collect();
        tx.commit().unwrap();

        for (i, val, commit) in ops {
            let mut tx = db.begin();
            tx.set_prop(PropOwner::Node(ids[i % ids.len()]), "a", Value::Int(val))
                .unwrap();
            if commit {
                tx.commit().unwrap();
            } else {
                tx.abort();
            }
        }

        let label = db.intern("N").unwrap();
        let key = db.intern("a").unwrap();
        let plan = Plan::new(
            vec![
                Op::NodeScan { label: Some(label) },
                Op::Filter(Pred::Prop {
                    col: 0,
                    key,
                    op: CmpOp::Ge,
                    value: PPar::Const(PVal::Int(lo)),
                }),
                Op::Filter(Pred::Prop {
                    col: 0,
                    key,
                    op: CmpOp::Le,
                    value: PPar::Const(PVal::Int(lo + width)),
                }),
                Op::Project(vec![Proj::Prop { col: 0, key }, Proj::Id { col: 0 }]),
            ],
            0,
        );

        db.set_read_accel(false);
        let mut rtx = db.begin();
        let unpruned = execute_collect(&plan, &mut rtx, &[]).unwrap();
        drop(rtx);

        db.set_read_accel(true);
        let mut rtx = db.begin();
        let pruned = execute_collect(&plan, &mut rtx, &[]).unwrap();
        prop_assert_eq!(&pruned, &unpruned, "sequential pruned scan diverged");
        for threads in [2usize, 4] {
            let mode = Mode::Parallel(threads);
            let par = run_plan_ctx(&plan, &mut rtx, &mut ExecCtx::new(&[]), &mode).unwrap();
            prop_assert_eq!(&par, &unpruned, "parallel({}) pruned scan diverged", threads);
        }
    }
}

// ---------------------------------------------------------------------
// Pool-level durability: whatever was persisted survives any crash policy;
// unflushed words are old-or-new, never torn.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn persisted_writes_survive_crashes(
        ops in prop::collection::vec(
            ((0u64..64), any::<u64>(), any::<bool>()),
            1..60
        ),
        policy in 0usize..3,
        seed in any::<u64>(),
    ) {
        let pool = Pool::volatile(8 << 20).unwrap().with_crash_tracking();
        let base = pool.alloc(64 * 8).unwrap();
        assert_eq!(base % 64, 0, "test assumes line-aligned region");
        // Model: word -> (last persisted value, last written value). A
        // persist flushes the whole 64-byte cache line, so all 8 words of
        // the line become durable at their currently-written values — the
        // same line granularity the clwb emulation implements.
        let mut model: Vec<(u64, u64)> = vec![(0, 0); 64];
        for (slot, val, persist) in ops {
            let off = base + slot * 8;
            pool.write_u64(off, val);
            model[slot as usize].1 = val;
            if persist {
                pool.persist(off, 8);
                let line_start = (slot as usize / 8) * 8;
                for m in model[line_start..line_start + 8].iter_mut() {
                    m.0 = m.1;
                }
            }
        }
        let policy = match policy {
            0 => CrashPolicy::DropUnflushed,
            1 => CrashPolicy::KeepAll,
            _ => CrashPolicy::Torn(seed),
        };
        pool.simulate_crash(policy).unwrap();
        for (slot, &(persisted, written)) in model.iter().enumerate() {
            let now = pool.read_u64(base + slot as u64 * 8);
            prop_assert!(
                now == persisted || now == written,
                "slot {slot}: {now} is neither persisted {persisted} nor written {written}"
            );
            if matches!(policy, CrashPolicy::KeepAll) {
                prop_assert_eq!(now, written);
            }
        }
    }
}
