//! Integration tests for the OLAP lane: snapshot consistency against the
//! interpreted transactional scan and crash consistency of the tiered
//! durability ladder. (Kernel equivalence lives with the kernels, in
//! `crates/ganalytics/tests/kernels.rs`.)

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use pmemgraph::ganalytics::{CsrSnapshot, SnapshotSpec};
use pmemgraph::graphcore::{DbOptions, GraphDb, PropOwner, Value};
use pmemgraph::gstore::PVal;
use pmemgraph::gtxn::SyncMode;
use pmemgraph::pmem::{CrashPolicy, DeviceProfile};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn tmpfile(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pmemgraph-analytics-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_file(&p);
    p
}

// ---------------------------------------------------------------------
// 1. Snapshot consistency: CsrSnapshot at read timestamp T must match the
//    interpreted transactional scan at T, after any interleaving of
//    committed and aborted writer transactions.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    AddNode(u8),
    AddRel(u8, u8),
    SetProp(u8, i64),
    DelNode(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..2).prop_map(Op::AddNode),
        3 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::AddRel(a, b)),
        2 => (any::<u8>(), -50i64..50).prop_map(|(a, v)| Op::SetProp(a, v)),
        1 => any::<u8>().prop_map(Op::DelNode),
    ]
}

fn pick(pool: &[u64], idx: u8) -> Option<u64> {
    if pool.is_empty() {
        None
    } else {
        Some(pool[idx as usize % pool.len()])
    }
}

/// The naive interpreted reference at the snapshot's own read timestamp:
/// visible nodes in id order, visible edges whose endpoints are both
/// visible, and the `v` property per node.
fn interpreted_reference(
    db: &GraphDb,
    txn: &pmemgraph::graphcore::GraphTxn<'_>,
    key: u32,
) -> (Vec<u64>, Vec<(u64, u64)>, Vec<PVal>) {
    let mut ids = Vec::new();
    db.nodes().for_each_live(|id, _| ids.push(id));
    ids.sort_unstable();
    let mut nodes = Vec::new();
    for id in ids {
        if txn.node(id).unwrap().is_some() {
            nodes.push(id);
        }
    }
    let visible: BTreeSet<u64> = nodes.iter().copied().collect();
    let mut rel_ids = Vec::new();
    db.rels().for_each_live(|id, _| rel_ids.push(id));
    let mut edges = Vec::new();
    for rid in rel_ids {
        if let Some(rel) = txn.rel(rid).unwrap() {
            if visible.contains(&rel.src) && visible.contains(&rel.dst) {
                edges.push((rel.src, rel.dst));
            }
        }
    }
    edges.sort_unstable();
    let props = nodes
        .iter()
        .map(|&id| {
            txn.prop_pval(PropOwner::Node(id), key)
                .unwrap()
                .unwrap_or(PVal::Null)
        })
        .collect();
    (nodes, edges, props)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn snapshot_matches_interpreted_scan_at_same_timestamp(
        script in proptest::collection::vec(
            (proptest::collection::vec(op_strategy(), 1..6), any::<bool>()),
            1..10,
        )
    ) {
        let db = GraphDb::create(DbOptions::dram(64 << 20)).unwrap();
        let mut pool: Vec<u64> = Vec::new();

        for (ops, commit) in &script {
            let mut tx = db.begin();
            let mut local_new: Vec<u64> = Vec::new();
            let mut local_del: Vec<u64> = Vec::new();
            for op in ops {
                // Ops may legitimately fail (e.g. deleting twice); failed
                // ops just don't change state.
                let reachable: Vec<u64> = pool
                    .iter()
                    .chain(local_new.iter())
                    .copied()
                    .filter(|id| !local_del.contains(id))
                    .collect();
                match op {
                    Op::AddNode(l) => {
                        let label = if *l == 0 { "A" } else { "B" };
                        if let Ok(id) = tx.create_node(label, &[]) {
                            local_new.push(id);
                        }
                    }
                    Op::AddRel(a, b) => {
                        if let (Some(s), Some(d)) = (pick(&reachable, *a), pick(&reachable, *b)) {
                            let _ = tx.create_rel(s, "E", d, &[]);
                        }
                    }
                    Op::SetProp(a, v) => {
                        if let Some(id) = pick(&reachable, *a) {
                            let _ = tx.set_prop(PropOwner::Node(id), "v", Value::Int(*v));
                        }
                    }
                    Op::DelNode(a) => {
                        if let Some(id) = pick(&reachable, *a) {
                            if tx.delete_node(id).is_ok() {
                                local_del.push(id);
                            }
                        }
                    }
                }
            }
            // An un-committed tx rolls back when dropped here.
            if *commit && tx.commit().is_ok() {
                pool.retain(|id| !local_del.contains(id));
                pool.extend(local_new.iter().filter(|id| !local_del.contains(*id)));
            }
        }

        // All writers are finished; snapshot and interpret at ONE timestamp.
        let key = db.intern("v").unwrap();
        let txn = db.begin();
        let spec = SnapshotSpec { node_props: vec![key], ..Default::default() };
        let snap = CsrSnapshot::build_at(&txn, spec).unwrap();
        let (ref_nodes, ref_edges, ref_props) = interpreted_reference(&db, &txn, key);

        prop_assert_eq!(snap.nodes(), &ref_nodes[..]);
        let mut snap_edges: Vec<(u64, u64)> = Vec::new();
        for u in 0..snap.node_count() as u32 {
            for &v in snap.out(u) {
                snap_edges.push((snap.node_id(u), snap.node_id(v)));
            }
        }
        snap_edges.sort_unstable();
        prop_assert_eq!(snap_edges, ref_edges);
        let col = snap.prop_col(key).expect("requested column must exist");
        prop_assert_eq!(col, &ref_props[..]);
    }
}

// ---------------------------------------------------------------------
// 1b. Refresh ≡ build: a snapshot carried forward through the topology
//     journal equals a fresh build in the same read transaction, after
//     every step of a script of interleaved writers — committed and
//     aborted, inserting and deleting nodes and relationships, reusing
//     freed slots — for an unfiltered and a label-filtered spec.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Act {
    // Each names a writer slot first; a write on a closed slot opens it.
    AddNode(u8, bool),
    AddRel(u8, u8, u8, bool),
    DelRel(u8, u8),
    DelNode(u8, u8, bool),
    /// Commit (three times in four) or abort the writer.
    End(u8, u8),
}

fn act_strategy() -> impl Strategy<Value = Act> {
    let slot = 0u8..3;
    prop_oneof![
        4 => (slot.clone(), any::<bool>()).prop_map(|(s, l)| Act::AddNode(s, l)),
        5 => (slot.clone(), any::<u8>(), any::<u8>(), any::<bool>())
            .prop_map(|(s, a, b, l)| Act::AddRel(s, a, b, l)),
        2 => (slot.clone(), any::<u8>()).prop_map(|(s, a)| Act::DelRel(s, a)),
        2 => (slot.clone(), any::<u8>(), any::<bool>()).prop_map(|(s, a, d)| Act::DelNode(s, a, d)),
        4 => (slot, any::<u8>()).prop_map(|(s, c)| Act::End(s, c)),
    ]
}

/// Same arrays, bit-identical kernel output.
fn assert_same_snapshot(a: &CsrSnapshot, b: &CsrSnapshot) -> Result<(), TestCaseError> {
    use pmemgraph::ganalytics::algo;
    prop_assert_eq!(a.nodes(), b.nodes());
    for u in 0..a.node_count() as u32 {
        prop_assert_eq!(a.out(u), b.out(u));
        prop_assert_eq!(a.inc(u), b.inc(u));
    }
    let ctx = pmemgraph::gquery::ExecCtx::new(&[]);
    let bits = |s: &CsrSnapshot| -> Vec<u64> {
        let rank = algo::pagerank(s, 4, 0.85, 1, &ctx).unwrap();
        rank.iter().map(|r| r.to_bits()).collect()
    };
    prop_assert_eq!(bits(a), bits(b));
    for &src in a.nodes().iter().take(2) {
        prop_assert_eq!(algo::bfs(a, src, 1, &ctx).unwrap(), algo::bfs(b, src, 1, &ctx).unwrap());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    #[test]
    fn refreshed_snapshot_equals_fresh_build_after_every_step(
        // A step is a run of writer actions and whether (and in which slot
        // order) the writers still open at its end commit before the check.
        script in proptest::collection::vec(
            (proptest::collection::vec(act_strategy(), 1..10), 0u8..4),
            1..14,
        )
    ) {
        let db = GraphDb::create(DbOptions::dram(64 << 20)).unwrap();
        let specs = [
            SnapshotSpec::default(),
            SnapshotSpec {
                node_label: Some(db.intern("A").unwrap()),
                rel_label: Some(db.intern("E").unwrap()),
                node_props: vec![],
            },
        ];
        let mut bases: Vec<CsrSnapshot> =
            specs.iter().map(|s| CsrSnapshot::build(&db, s.clone()).unwrap()).collect();
        let mut writers: Vec<Option<pmemgraph::graphcore::GraphTxn<'_>>> = vec![None, None, None];
        let (mut refreshed, mut rebuilt) = (0, 0);

        for (step, settle) in &script {
            for act in step {
                let slot = match act {
                    Act::AddNode(s, _) | Act::AddRel(s, ..) | Act::DelRel(s, _)
                    | Act::DelNode(s, ..) | Act::End(s, _) => *s as usize,
                };
                if let Act::End(_, coin) = act {
                    match writers[slot].take() {
                        Some(tx) if coin % 4 != 0 => drop(tx.commit()),
                        Some(tx) => tx.abort(),
                        None => {}
                    }
                    continue;
                }
                let tx = writers[slot].get_or_insert_with(|| db.begin());
                // What this writer can see: ids come from the tables, so
                // deleted slots that were reused come back as new nodes.
                let mut nodes = Vec::new();
                db.nodes().for_each_live(|id, _| nodes.push(id));
                nodes.retain(|&id| matches!(tx.node(id), Ok(Some(_))));
                let mut rels = Vec::new();
                db.rels().for_each_live(|id, _| rels.push(id));
                rels.retain(|&id| matches!(tx.rel(id), Ok(Some(_))));
                let done = match act {
                    Act::End(..) => unreachable!(),
                    Act::AddNode(_, l) => tx.create_node(if *l { "A" } else { "B" }, &[]).map(drop),
                    Act::AddRel(_, a, b, l) => match (pick(&nodes, *a), pick(&nodes, *b)) {
                        (Some(s), Some(d)) => {
                            tx.create_rel(s, if *l { "E" } else { "F" }, d, &[]).map(drop)
                        }
                        _ => Ok(()),
                    },
                    Act::DelRel(_, a) => pick(&rels, *a).map_or(Ok(()), |r| tx.delete_rel(r)),
                    Act::DelNode(_, a, detach) => pick(&nodes, *a).map_or(Ok(()), |n| {
                        match if *detach { tx.detach_delete_node(n) } else { tx.delete_node(n) } {
                            // Refused, nothing written: the writer goes on.
                            Err(pmemgraph::graphcore::GraphError::NodeHasRelationships(_)) => Ok(()),
                            other => other,
                        }
                    }),
                };
                // A failed write (an MVTO conflict with another writer or
                // with a snapshot's chunk barrier) may have been applied
                // in part; like any client, the writer aborts.
                if done.is_err() {
                    writers[slot].take().unwrap().abort();
                }
            }

            if *settle > 0 {
                let mut open: Vec<_> = writers.iter_mut().filter_map(Option::take).collect();
                if *settle > 1 {
                    open.reverse();
                }
                open.into_iter().for_each(|tx| drop(tx.commit()));
            }

            // After every step: refresh and build at ONE timestamp.
            let txn = db.begin();
            for (spec, base) in specs.iter().zip(bases.iter_mut()) {
                let fresh = CsrSnapshot::build_at(&txn, spec.clone());
                let next = base.refresh_at(&txn);
                match (fresh, next) {
                    (Ok(fresh), Ok(next)) => {
                        assert_same_snapshot(&next, &fresh)?;
                        if next.stats().refreshed { refreshed += 1 } else { rebuilt += 1 }
                        *base = next;
                    }
                    // An open older writer holds a record the scan needs:
                    // the build aborts retryably, and so does the refresh
                    // (its chunk claim failed, so it *is* that build).
                    (Err(_), Err(_)) => rebuilt += 1,
                    (fresh, next) => prop_assert!(
                        false,
                        "build {:?} but refresh {:?}", fresh.map(drop), next.map(drop)
                    ),
                }
            }
        }
        // Every writer left open aborts here; the journal never hears of it.
        drop(writers);
        prop_assert!(refreshed + rebuilt > 0);
    }
}

// ---------------------------------------------------------------------
// 2. Crash consistency of the durability ladder: `every=N` and
//    `checkpoint` may lose the un-checkpointed tail, but recovery is
//    always a clean prefix and the engine stays usable.
// ---------------------------------------------------------------------

fn ladder_crash_round(
    mode: SyncMode,
    tag: &str,
    crash_at: i64,
    policy: CrashPolicy,
) {
    const TXNS: u64 = 12;
    const CKPT_EVERY: u64 = 4;
    let path = tmpfile(&format!("ladder-{tag}-{crash_at}"));
    let db = GraphDb::create(
        DbOptions::pmem(&path, 96 << 20)
            .profile(DeviceProfile::dram())
            .crash_tracking(true),
    )
    .unwrap();
    db.set_group_commit(false);
    db.set_sync_mode(mode).unwrap();

    let committed = AtomicU64::new(0);
    let checkpointed = AtomicU64::new(0);
    db.pool().inject_crash_after_flushes(crash_at);
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for i in 0..TXNS {
            let mut tx = db.begin();
            tx.create_node("Item", &[("seq", Value::Int(i as i64))])
                .unwrap();
            tx.commit().unwrap();
            committed.store(i + 1, Ordering::SeqCst);
            if (i + 1) % CKPT_EVERY == 0 {
                db.checkpoint().unwrap();
                checkpointed.store(i + 1, Ordering::SeqCst);
            }
        }
    }));
    db.pool().clear_crash_injection();
    db.pool().simulate_crash(policy).unwrap();
    let committed = committed.load(Ordering::SeqCst);
    let checkpointed = checkpointed.load(Ordering::SeqCst);
    std::mem::forget(db); // power failure: no clean shutdown

    // Restart and verify: recovered markers are a clean prefix bounded by
    // [last completed checkpoint, commits at crash time].
    let db = GraphDb::open(&path, DeviceProfile::dram()).unwrap();
    let tx = db.begin();
    let mut ids = Vec::new();
    db.nodes().for_each_live(|id, _| ids.push(id));
    let mut markers = BTreeSet::new();
    for id in ids {
        if tx.node(id).unwrap().is_some() {
            let seq = tx
                .prop(PropOwner::Node(id), "seq")
                .unwrap()
                .and_then(|v| v.as_int())
                .expect("every Item carries seq");
            markers.insert(seq as u64);
        }
    }
    let recovered = markers.len() as u64;
    let expect: BTreeSet<u64> = (0..recovered).collect();
    assert_eq!(
        markers, expect,
        "{tag} crash_at={crash_at}: recovered set must be a prefix"
    );
    assert!(
        recovered >= checkpointed,
        "{tag} crash_at={crash_at}: checkpointed data lost ({recovered} < {checkpointed})"
    );
    assert!(
        recovered <= committed,
        "{tag} crash_at={crash_at}: phantom commits ({recovered} > {committed})"
    );
    drop(tx);

    // The engine is fully usable after recovery.
    let mut tx = db.begin();
    let n = tx.create_node("Post", &[("seq", Value::Int(999))]).unwrap();
    tx.commit().unwrap();
    let tx = db.begin();
    assert!(tx.node(n).unwrap().is_some());
    drop(tx);
    drop(db);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_n_mode_recovers_a_clean_prefix_after_crash() {
    for crash_at in (0..72).step_by(8) {
        ladder_crash_round(
            SyncMode::EveryN(3),
            "every3",
            crash_at,
            CrashPolicy::DropUnflushed,
        );
        ladder_crash_round(SyncMode::EveryN(3), "every3-torn", crash_at, CrashPolicy::Torn(7));
    }
}

#[test]
fn checkpoint_only_mode_recovers_a_clean_prefix_after_crash() {
    for crash_at in (0..72).step_by(8) {
        ladder_crash_round(
            SyncMode::CheckpointOnly,
            "ckpt",
            crash_at,
            CrashPolicy::DropUnflushed,
        );
        ladder_crash_round(
            SyncMode::CheckpointOnly,
            "ckpt-torn",
            crash_at,
            CrashPolicy::Torn(42),
        );
    }
}
