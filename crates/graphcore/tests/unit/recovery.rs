//! Unit tests of the open-time recovery scan (`GraphDb::recovery_scan`),
//! compiled into the crate (`db.rs` mounts this file) so they can set the
//! worker count. The reference below is deliberately naive: one full pass
//! over the tables per concern, written against the storage layer only.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gstore::chunked::CHUNK_CAP;
use gstore::{ChunkedTable, IndexKind, NodeRecord, PVal, PropRecord, RelRecord, NIL};
use pmem::{CrashPolicy, DeviceProfile, Pool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{DbOptions, GraphDb, GraphRoot};
use crate::{PropOwner, Value};

fn tmpfile(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("graphcore-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Everything recovery decides or rebuilds, in comparable form.
#[derive(Debug, Default, PartialEq, Eq)]
struct Recovered {
    reclaimed: (usize, usize),
    cleared_locks: usize,
    /// Live records after reclamation.
    counts: (usize, usize),
    /// chunk → label bitset, chunks without a committed record omitted.
    node_labels: BTreeMap<usize, u64>,
    rel_labels: BTreeMap<usize, u64>,
    /// (key, chunk) → (min, max) index key, empty zones omitted.
    zones: BTreeMap<(u32, usize), (u64, u64)>,
}

/// The reference: count the fixes in one pass per table, gather label bits
/// in another, and walk every node's property chain once *per key*.
fn reference(path: &Path, keys: &[u32]) -> Recovered {
    let pool = Arc::new(Pool::open(path, DeviceProfile::dram()).unwrap());
    let root: GraphRoot = pool.read(pool.root::<GraphRoot>());
    let nodes: ChunkedTable<NodeRecord> = ChunkedTable::open(pool.clone(), root.node_root).unwrap();
    let rels: ChunkedTable<RelRecord> = ChunkedTable::open(pool.clone(), root.rel_root).unwrap();
    let props: ChunkedTable<PropRecord> = ChunkedTable::open(pool.clone(), root.prop_root).unwrap();
    let uncommitted = |txn_id: u64, bts: u64| txn_id != 0 && bts == txn_id;
    let mut out = Recovered::default();

    for id in nodes.live_ids() {
        let n = nodes.get(id);
        if uncommitted(n.txn_id, n.bts) {
            out.reclaimed.0 += 1;
        } else if n.txn_id != 0 {
            out.cleared_locks += 1;
        }
    }
    for id in rels.live_ids() {
        let r = rels.get(id);
        if uncommitted(r.txn_id, r.bts) {
            out.reclaimed.1 += 1;
        } else if r.txn_id != 0 {
            out.cleared_locks += 1;
        }
    }
    out.counts = (
        nodes.live_count() - out.reclaimed.0,
        rels.live_count() - out.reclaimed.1,
    );
    for id in nodes.live_ids() {
        let n = nodes.get(id);
        if !uncommitted(n.txn_id, n.bts) {
            *out.node_labels.entry(id as usize / CHUNK_CAP).or_default() |= 1 << (n.label & 63);
        }
    }
    for id in rels.live_ids() {
        let r = rels.get(id);
        if !uncommitted(r.txn_id, r.bts) {
            *out.rel_labels.entry(id as usize / CHUNK_CAP).or_default() |= 1 << (r.label & 63);
        }
    }
    for &key in keys {
        for id in nodes.live_ids() {
            let n = nodes.get(id);
            if uncommitted(n.txn_id, n.bts) {
                continue;
            }
            let mut head = n.props;
            'chain: while head != NIL {
                let batch = props.get(head);
                for slot in batch.slots {
                    if slot.key == key {
                        if let Some(pv) = PVal::decode(slot.tag, slot.val) {
                            let zone = out
                                .zones
                                .entry((key, id as usize / CHUNK_CAP))
                                .or_insert((u64::MAX, 0));
                            zone.0 = zone.0.min(pv.index_key());
                            zone.1 = zone.1.max(pv.index_key());
                        }
                        break 'chain;
                    }
                }
                head = batch.next;
            }
        }
    }
    out
}

/// The same facts read back from an opened database, the zone bounds by
/// bisection through the only question the zone maps answer.
fn observed(db: &GraphDb, keys: &[u32]) -> Recovered {
    let report = *db.recovery_report();
    let mut out = Recovered {
        reclaimed: report.reclaimed,
        cleared_locks: report.cleared_locks,
        counts: (db.node_count(), db.rel_count()),
        ..Recovered::default()
    };
    db.nodes()
        .for_each_live(|id, n| assert_eq!(n.txn_id, 0, "node {id} still locked"));
    db.rels()
        .for_each_live(|id, r| assert_eq!(r.txn_id, 0, "rel {id} still locked"));
    let accel = db.accel();
    let bits =
        |may: &dyn Fn(u32) -> bool| (0..64).filter(|&l| may(l)).fold(0, |b, l| b | 1u64 << l);
    for chunk in 0..db.nodes().chunk_count() {
        let b = bits(&|l| accel.node_chunk_may_match_label(chunk, l));
        if b != 0 {
            out.node_labels.insert(chunk, b);
        }
        for &key in keys {
            if !accel.node_chunk_may_overlap(key, chunk, 0, u64::MAX) {
                continue;
            }
            // Smallest `hi` with [0, hi] overlapping = min; largest `lo`
            // with [lo, MAX] overlapping = max.
            let (mut lo, mut hi) = (0u64, u64::MAX);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if accel.node_chunk_may_overlap(key, chunk, 0, mid) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            let min = lo;
            let (mut lo, mut hi) = (0u64, u64::MAX);
            while lo < hi {
                let mid = lo + (hi - lo).div_ceil(2);
                if accel.node_chunk_may_overlap(key, chunk, mid, u64::MAX) {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            out.zones.insert((key, chunk), (min, lo));
        }
    }
    for chunk in 0..db.rels().chunk_count() {
        let b = bits(&|l| accel.rel_chunk_may_match_label(chunk, l));
        if b != 0 {
            out.rel_labels.insert(chunk, b);
        }
    }
    out
}

/// Nodes with `label` and `key` in `[lo, hi]`, scanning only the chunks the
/// zone maps admit (`prune`) or all of them.
fn scan(db: &GraphDb, label: u32, key: u32, lo: i64, hi: i64, prune: bool) -> Vec<u64> {
    let tx = db.begin();
    let (klo, khi) = (PVal::Int(lo).index_key(), PVal::Int(hi).index_key());
    let mut hits = Vec::new();
    for chunk in 0..db.nodes().chunk_count() {
        if prune
            && !(db.accel().node_chunk_may_match_label(chunk, label)
                && db.accel().node_chunk_may_overlap(key, chunk, klo, khi))
        {
            continue;
        }
        db.nodes().for_each_live_id(chunk, &mut |id| {
            let Some(n) = tx.node(id).unwrap() else {
                return;
            };
            let in_range = matches!(
                tx.prop_pval(PropOwner::Node(id), key).unwrap(),
                Some(PVal::Int(v)) if (lo..=hi).contains(&v)
            );
            if n.label == label && in_range {
                hits.push(id);
            }
        });
    }
    hits
}

/// Committed, aborted and (left open) in-flight transactions over nodes,
/// relationships and properties on the indexed keys `k1`, `k2`.
fn workload(db: &GraphDb, rng: &mut StdRng) {
    db.create_index("A", "k1", IndexKind::Hybrid).unwrap();
    db.create_index("B", "k1", IndexKind::Persistent).unwrap();
    db.create_index("A", "k2", IndexKind::Volatile).unwrap();
    let labels = ["A", "B", "C"];
    let mut nodes: Vec<u64> = Vec::new();
    let mut rels: Vec<u64> = Vec::new();
    for round in 0..90 {
        let in_flight = round >= 84;
        let mut tx = db.begin();
        let (mut new_nodes, mut new_rels) = (Vec::new(), Vec::new());
        for _ in 0..rng.random_range(2..14) {
            let value = Value::Int(rng.random_range(0..1000));
            // Errors (a deleted endpoint, a record another in-flight
            // transaction holds) just skip the operation.
            match rng.random_range(0..10) {
                0..=4 => {
                    let mut props = vec![("k1", value), ("x", Value::Int(1)), ("y", Value::Int(2))];
                    if rng.random_range(0..2) == 0 {
                        props.push(("k2", Value::Int(rng.random_range(0..50))));
                    }
                    new_nodes.extend(tx.create_node(labels[rng.random_range(0..3)], &props).ok());
                }
                5..=6 if nodes.len() >= 2 => {
                    let a = nodes[rng.random_range(0..nodes.len())];
                    let b = nodes[rng.random_range(0..nodes.len())];
                    let label = ["R", "S"][rng.random_range(0..2)];
                    new_rels.extend(tx.create_rel(a, label, b, &[("w", value)]).ok());
                }
                7 if !nodes.is_empty() => {
                    let n = nodes[rng.random_range(0..nodes.len())];
                    let key = ["k1", "k2"][rng.random_range(0..2)];
                    let _ = tx.set_prop(PropOwner::Node(n), key, value);
                }
                8 if !rels.is_empty() => {
                    let _ = tx.delete_rel(rels.swap_remove(rng.random_range(0..rels.len())));
                }
                9 if !nodes.is_empty() && !in_flight => {
                    let _ = tx.detach_delete_node(nodes[rng.random_range(0..nodes.len())]);
                }
                _ => {}
            }
        }
        if in_flight {
            std::mem::forget(tx); // still open when the power fails
        } else if rng.random_range(0..4) == 0 {
            tx.abort();
        } else {
            tx.commit().unwrap();
            nodes.extend(new_nodes);
            rels.extend(new_rels);
            db.reclaim_deleted();
        }
    }
}

#[test]
fn fused_scan_matches_naive_reference_after_crashes() {
    let many = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    let (mut reclaimed, mut cleared) = (0, 0);
    for (i, policy) in [
        CrashPolicy::DropUnflushed,
        CrashPolicy::Torn(7),
        CrashPolicy::Torn(8),
        CrashPolicy::KeepAll,
    ]
    .into_iter()
    .enumerate()
    {
        let base = tmpfile(&format!("crash-{i}"));
        let db = GraphDb::create(
            DbOptions::pmem(&base, 24 << 20)
                .profile(DeviceProfile::dram())
                .crash_tracking(true),
        )
        .unwrap();
        workload(&db, &mut StdRng::seed_from_u64(40 + i as u64));
        let keys = [
            db.dict().code_of("k1").unwrap(),
            db.dict().code_of("k2").unwrap(),
        ];
        let label_a = db.dict().code_of("A").unwrap();
        db.pool().simulate_crash(policy).unwrap();
        std::mem::forget(db); // power failure: no clean shutdown

        // The same post-crash image three times: every open repairs its own.
        let copies: Vec<PathBuf> = (0..3).map(|c| tmpfile(&format!("crash-{i}-{c}"))).collect();
        for copy in &copies {
            std::fs::copy(&base, copy).unwrap();
        }
        let expected = reference(&copies[0], &keys);
        reclaimed += expected.reclaimed.0 + expected.reclaimed.1;
        cleared += expected.cleared_locks;

        let mut scans = Vec::new();
        for (copy, workers) in [(&copies[1], 1), (&copies[2], many)] {
            let db = GraphDb::open_with_workers(copy, DeviceProfile::dram(), &|_| false, workers)
                .unwrap();
            assert_eq!(db.recovery_report().workers, workers);
            assert_eq!(
                observed(&db, &keys),
                expected,
                "{policy:?}, {workers} worker(s)"
            );
            let mut hits = Vec::new();
            for (key, lo, hi) in [(keys[0], 100, 300), (keys[0], 990, 2000), (keys[1], 0, 9)] {
                let pruned = scan(&db, label_a, key, lo, hi, true);
                assert_eq!(
                    pruned,
                    scan(&db, label_a, key, lo, hi, false),
                    "pruning lost rows"
                );
                hits.push(pruned);
            }
            // The reopened indexes answer like the scans.
            let tx = db.begin();
            let mut by_index = tx.lookup_nodes("A", "k2", &Value::Int(7)).unwrap();
            by_index.sort_unstable();
            assert_eq!(by_index, scan(&db, label_a, keys[1], 7, 7, false));
            drop(tx);
            scans.push(hits);
        }
        assert_eq!(scans[0], scans[1], "worker count changed scan results");
        for p in copies.iter().chain([&base]) {
            let _ = std::fs::remove_file(p);
        }
    }
    assert!(
        reclaimed > 0 && cleared > 0,
        "workload left nothing to recover"
    );
}

/// Nodes over four labels, two property batches each, `k` indexes on the
/// one key `id`, closed cleanly. Returns the pool path.
fn indexed_fixture(name: &str, k: usize) -> PathBuf {
    let path = tmpfile(name);
    let db =
        GraphDb::create(DbOptions::pmem(&path, 48 << 20).profile(DeviceProfile::dram())).unwrap();
    let labels = ["L0", "L1", "L2", "L3"];
    let mut tx = db.begin();
    for i in 0..4000i64 {
        let props = [
            ("id", Value::Int(i)),
            ("a", Value::Int(1)),
            ("b", Value::Int(2)),
            ("c", Value::Int(3)),
        ];
        tx.create_node(labels[i as usize % 4], &props).unwrap();
    }
    tx.commit().unwrap();
    for label in &labels[..k] {
        db.create_index(label, "id", IndexKind::Hybrid).unwrap();
    }
    path
}

#[test]
fn open_reads_each_record_once_however_many_indexes_share_a_key() {
    let touches = |k: usize| {
        let path = indexed_fixture(&format!("touches-{k}"), k);
        let db = GraphDb::open(&path, DeviceProfile::dram()).unwrap();
        let touches = db.pool().stats().snapshot().read_touches;
        let budget = db.node_count()
            + db.rel_count()
            + db.props().live_count()
            + db.nodes().chunk_count()
            + db.rels().chunk_count()
            + db.props().chunk_count();
        assert_eq!(db.index_defs().len(), k);
        drop(db);
        let _ = std::fs::remove_file(&path);
        (touches, budget as u64)
    };
    let (one, budget) = touches(1);
    let (four, _) = touches(4);
    assert!(
        four as f64 <= 1.3 * budget as f64,
        "open with 4 indexes on one key: {four} read touches, budget 1.3 x {budget}"
    );
    // One zone prefill, not one per index: three more indexes add only
    // their own leaf chains to the bill.
    assert!(
        four as f64 <= 1.1 * one as f64,
        "{four} read touches with 4 indexes vs {one} with 1"
    );
}
