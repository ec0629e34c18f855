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
