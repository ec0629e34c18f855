//! Engine-level integration tests: the full GraphDb API.

use graphcore::{DbOptions, Dir, GraphDb, GraphError, PropOwner, Value};
use gstore::IndexKind;

fn db() -> GraphDb {
    GraphDb::create(DbOptions::dram(256 << 20)).unwrap()
}

fn tmpfile(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("graphcore-{}-{}", std::process::id(), name));
    p
}

#[test]
fn create_and_read_node_with_props() {
    let db = db();
    let mut tx = db.begin();
    let id = tx
        .create_node(
            "Person",
            &[
                ("firstName", Value::from("Ada")),
                ("born", Value::Int(1815)),
                ("rating", Value::Double(9.5)),
                ("active", Value::Bool(true)),
            ],
        )
        .unwrap();
    tx.commit().unwrap();

    let tx = db.begin();
    assert_eq!(tx.node_label(id).unwrap().as_deref(), Some("Person"));
    assert_eq!(
        tx.prop(PropOwner::Node(id), "firstName").unwrap(),
        Some(Value::Str("Ada".into()))
    );
    assert_eq!(
        tx.prop(PropOwner::Node(id), "born").unwrap(),
        Some(Value::Int(1815))
    );
    assert_eq!(tx.prop(PropOwner::Node(id), "missing").unwrap(), None);
    let mut all = tx.props(PropOwner::Node(id)).unwrap();
    all.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(all.len(), 4);
}

#[test]
fn many_props_chain_across_batches() {
    let db = db();
    let mut tx = db.begin();
    let props: Vec<(String, Value)> = (0..10)
        .map(|i| (format!("k{i}"), Value::Int(i)))
        .collect();
    let props_ref: Vec<(&str, Value)> = props.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    let id = tx.create_node("N", &props_ref).unwrap();
    tx.commit().unwrap();

    let tx = db.begin();
    for i in 0..10 {
        assert_eq!(
            tx.prop(PropOwner::Node(id), &format!("k{i}")).unwrap(),
            Some(Value::Int(i)),
            "k{i}"
        );
    }
    assert_eq!(tx.props(PropOwner::Node(id)).unwrap().len(), 10);
}

#[test]
fn relationships_and_traversal() {
    let db = db();
    let mut tx = db.begin();
    let a = tx.create_node("Person", &[("name", "a".into())]).unwrap();
    let b = tx.create_node("Person", &[("name", "b".into())]).unwrap();
    let c = tx.create_node("Person", &[("name", "c".into())]).unwrap();
    let ab = tx
        .create_rel(a, "KNOWS", b, &[("since", Value::Int(2020))])
        .unwrap();
    let ac = tx.create_rel(a, "KNOWS", c, &[]).unwrap();
    let ba = tx.create_rel(b, "LIKES", a, &[]).unwrap();
    tx.commit().unwrap();

    let tx = db.begin();
    let out = tx.rels_of(a, Dir::Out, None).unwrap();
    let out_ids: Vec<_> = out.iter().map(|(id, _)| *id).collect();
    assert_eq!(out_ids, vec![ac, ab], "head insertion: newest first");
    let inc = tx.rels_of(a, Dir::In, None).unwrap();
    assert_eq!(inc[0].0, ba);
    assert_eq!(tx.degree(a, Dir::Out).unwrap(), 2);
    assert_eq!(tx.degree(a, Dir::In).unwrap(), 1);
    assert_eq!(
        tx.prop(PropOwner::Rel(ab), "since").unwrap(),
        Some(Value::Int(2020))
    );

    // Label-filtered traversal.
    let knows = db.dict().code_of("KNOWS").unwrap();
    let filtered = tx.rels_of(a, Dir::Out, Some(knows)).unwrap();
    assert_eq!(filtered.len(), 2);
    let likes = db.dict().code_of("LIKES").unwrap();
    assert!(tx.rels_of(a, Dir::Out, Some(likes)).unwrap().is_empty());
}

#[test]
fn create_rel_to_missing_node_fails() {
    let db = db();
    let mut tx = db.begin();
    let a = tx.create_node("N", &[]).unwrap();
    let err = tx.create_rel(a, "R", 999, &[]).unwrap_err();
    assert!(matches!(err, GraphError::NodeNotFound(999)));
}

#[test]
fn set_prop_versions_are_snapshot_stable() {
    let db = db();
    let mut tx = db.begin();
    let id = tx.create_node("N", &[("v", Value::Int(1))]).unwrap();
    tx.commit().unwrap();

    let old = db.begin(); // snapshot before the update

    let mut tx = db.begin();
    tx.set_prop(PropOwner::Node(id), "v", Value::Int(2)).unwrap();
    tx.commit().unwrap();

    // The old snapshot still sees v=1 through the old version's chain.
    assert_eq!(
        old.prop(PropOwner::Node(id), "v").unwrap(),
        Some(Value::Int(1))
    );
    drop(old);

    let tx = db.begin();
    assert_eq!(
        tx.prop(PropOwner::Node(id), "v").unwrap(),
        Some(Value::Int(2))
    );
}

#[test]
fn delete_rel_unlinks_from_both_chains() {
    let db = db();
    let mut tx = db.begin();
    let a = tx.create_node("N", &[]).unwrap();
    let b = tx.create_node("N", &[]).unwrap();
    let r1 = tx.create_rel(a, "R", b, &[]).unwrap();
    let r2 = tx.create_rel(a, "R", b, &[]).unwrap();
    let r3 = tx.create_rel(a, "R", b, &[]).unwrap();
    tx.commit().unwrap();

    // Delete the middle one (chain head order: r3, r2, r1).
    let mut tx = db.begin();
    tx.delete_rel(r2).unwrap();
    tx.commit().unwrap();

    let tx = db.begin();
    let out: Vec<_> = tx
        .rels_of(a, Dir::Out, None)
        .unwrap()
        .iter()
        .map(|(id, _)| *id)
        .collect();
    assert_eq!(out, vec![r3, r1]);
    let inc: Vec<_> = tx
        .rels_of(b, Dir::In, None)
        .unwrap()
        .iter()
        .map(|(id, _)| *id)
        .collect();
    assert_eq!(inc, vec![r3, r1]);
    assert!(tx.rel(r2).unwrap().is_none());
}

#[test]
fn delete_node_requires_detach() {
    let db = db();
    let mut tx = db.begin();
    let a = tx.create_node("N", &[]).unwrap();
    let b = tx.create_node("N", &[]).unwrap();
    tx.create_rel(a, "R", b, &[]).unwrap();
    tx.commit().unwrap();

    let mut tx = db.begin();
    let err = tx.delete_node(a).unwrap_err();
    assert!(matches!(err, GraphError::NodeHasRelationships(_)));
    drop(tx);

    let mut tx = db.begin();
    tx.detach_delete_node(a).unwrap();
    tx.commit().unwrap();

    let tx = db.begin();
    assert!(tx.node(a).unwrap().is_none());
    assert!(tx.node(b).unwrap().is_some());
    assert_eq!(tx.degree(b, Dir::In).unwrap(), 0);
}

#[test]
fn abort_leaves_no_trace() {
    let db = db();
    let mut tx = db.begin();
    let a = tx.create_node("N", &[("k", Value::Int(1))]).unwrap();
    tx.commit().unwrap();
    let before_nodes = db.node_count();
    let before_props = db.props().live_count();

    let mut tx = db.begin();
    let b = tx.create_node("N", &[("k", Value::Int(2))]).unwrap();
    tx.create_rel(a, "R", b, &[("p", Value::Int(3))]).unwrap();
    tx.set_prop(PropOwner::Node(a), "k", Value::Int(9)).unwrap();
    tx.abort();

    assert_eq!(db.node_count(), before_nodes);
    assert_eq!(db.rel_count(), 0);
    assert_eq!(
        db.props().live_count(),
        before_props,
        "aborted property chains must be reclaimed"
    );
    let tx = db.begin();
    assert_eq!(
        tx.prop(PropOwner::Node(a), "k").unwrap(),
        Some(Value::Int(1))
    );
}

#[test]
fn drop_without_commit_aborts() {
    let db = db();
    {
        let mut tx = db.begin();
        tx.create_node("N", &[]).unwrap();
        // dropped here
    }
    assert_eq!(db.node_count(), 0);
}

#[test]
fn index_lookup_all_kinds() {
    for kind in [IndexKind::Volatile, IndexKind::Persistent, IndexKind::Hybrid] {
        let db = db();
        let mut tx = db.begin();
        let mut ids = Vec::new();
        for i in 0..500i64 {
            ids.push(
                tx.create_node("Person", &[("pid", Value::Int(i)), ("x", Value::Int(i % 7))])
                    .unwrap(),
            );
        }
        tx.commit().unwrap();

        db.create_index("Person", "pid", kind).unwrap();

        let tx = db.begin();
        let hits = tx
            .lookup_nodes("Person", "pid", &Value::Int(123))
            .unwrap();
        assert_eq!(hits, vec![ids[123]], "kind={kind:?}");

        // Index tracks later inserts.
        drop(tx);
        let mut tx = db.begin();
        let new = tx
            .create_node("Person", &[("pid", Value::Int(1000))])
            .unwrap();
        tx.commit().unwrap();
        let tx = db.begin();
        assert_eq!(
            tx.lookup_nodes("Person", "pid", &Value::Int(1000)).unwrap(),
            vec![new]
        );

        // ...updates...
        drop(tx);
        let mut tx = db.begin();
        tx.set_prop(PropOwner::Node(new), "pid", Value::Int(2000))
            .unwrap();
        tx.commit().unwrap();
        let tx = db.begin();
        assert!(tx
            .lookup_nodes("Person", "pid", &Value::Int(1000))
            .unwrap()
            .is_empty());
        assert_eq!(
            tx.lookup_nodes("Person", "pid", &Value::Int(2000)).unwrap(),
            vec![new]
        );

        // ...and deletes.
        drop(tx);
        let mut tx = db.begin();
        tx.detach_delete_node(new).unwrap();
        tx.commit().unwrap();
        let tx = db.begin();
        assert!(tx
            .lookup_nodes("Person", "pid", &Value::Int(2000))
            .unwrap()
            .is_empty());
    }
}

#[test]
fn duplicate_index_rejected() {
    let db = db();
    db.create_index("Person", "pid", IndexKind::Volatile).unwrap();
    assert!(matches!(
        db.create_index("Person", "pid", IndexKind::Volatile),
        Err(GraphError::IndexExists { .. })
    ));
}

#[test]
fn lookup_without_index_falls_back_to_scan() {
    let db = db();
    let mut tx = db.begin();
    let id = tx
        .create_node("City", &[("name", Value::from("Ilmenau"))])
        .unwrap();
    tx.create_node("City", &[("name", Value::from("Berlin"))])
        .unwrap();
    tx.commit().unwrap();

    let tx = db.begin();
    assert_eq!(
        tx.lookup_nodes("City", "name", &Value::from("Ilmenau"))
            .unwrap(),
        vec![id]
    );
    assert!(tx
        .lookup_nodes("City", "name", &Value::from("Nowhere"))
        .unwrap()
        .is_empty());
}

#[test]
fn persistent_db_full_recovery_cycle() {
    let path = tmpfile("full-recovery");
    let _ = std::fs::remove_file(&path);
    let (a, b, rel);
    {
        let db = GraphDb::create(
            DbOptions::pmem(&path, 256 << 20).profile(pmem::DeviceProfile::dram()),
        )
        .unwrap();
        let mut tx = db.begin();
        a = tx
            .create_node("Person", &[("name", Value::from("alice")), ("pid", Value::Int(1))])
            .unwrap();
        b = tx
            .create_node("Person", &[("name", Value::from("bob")), ("pid", Value::Int(2))])
            .unwrap();
        rel = tx
            .create_rel(a, "KNOWS", b, &[("since", Value::Int(2021))])
            .unwrap();
        tx.commit().unwrap();
        db.create_index("Person", "pid", IndexKind::Hybrid).unwrap();
    }
    {
        let db = GraphDb::open(&path, pmem::DeviceProfile::dram()).unwrap();
        let tx = db.begin();
        assert_eq!(tx.node_label(a).unwrap().as_deref(), Some("Person"));
        assert_eq!(
            tx.prop(PropOwner::Node(a), "name").unwrap(),
            Some(Value::Str("alice".into()))
        );
        assert_eq!(
            tx.prop(PropOwner::Rel(rel), "since").unwrap(),
            Some(Value::Int(2021))
        );
        let out = tx.rels_of(a, Dir::Out, None).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.dst, b);
        // Hybrid index reopened and functional.
        assert_eq!(
            tx.lookup_nodes("Person", "pid", &Value::Int(2)).unwrap(),
            vec![b]
        );
        drop(tx);

        // Writes continue after reopen.
        let mut tx = db.begin();
        let c = tx
            .create_node("Person", &[("pid", Value::Int(3))])
            .unwrap();
        tx.create_rel(b, "KNOWS", c, &[]).unwrap();
        tx.commit().unwrap();
        let tx = db.begin();
        assert_eq!(
            tx.lookup_nodes("Person", "pid", &Value::Int(3)).unwrap(),
            vec![c]
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn crash_before_commit_recovers_clean() {
    let path = tmpfile("crash-clean");
    let _ = std::fs::remove_file(&path);
    let a;
    {
        let db = GraphDb::create(
            DbOptions::pmem(&path, 256 << 20)
                .profile(pmem::DeviceProfile::dram())
                .crash_tracking(true),
        )
        .unwrap();
        let mut tx = db.begin();
        a = tx
            .create_node("Person", &[("name", Value::from("committed"))])
            .unwrap();
        tx.commit().unwrap();

        // Start a transaction, do work, then "crash" without committing.
        let mut tx = db.begin();
        let _b = tx.create_node("Person", &[("name", Value::from("lost"))]).unwrap();
        tx.create_rel(a, "KNOWS", _b, &[]).unwrap();
        std::mem::forget(tx); // locks remain, commit never happens
        db.pool().simulate_crash(pmem::CrashPolicy::DropUnflushed).unwrap();
        // DB object is now stale; drop it without clean shutdown.
        std::mem::forget(db);
    }
    {
        let db = GraphDb::open(&path, pmem::DeviceProfile::dram()).unwrap();
        let tx = db.begin();
        assert!(tx.node(a).unwrap().is_some());
        assert_eq!(
            tx.prop(PropOwner::Node(a), "name").unwrap(),
            Some(Value::Str("committed".into()))
        );
        // The uncommitted node and relationship are gone.
        assert_eq!(db.node_count(), 1);
        assert_eq!(db.rel_count(), 0);
        assert_eq!(tx.degree(a, Dir::Out).unwrap(), 0);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn deleted_slots_are_reclaimed_after_horizon() {
    let db = db();
    let mut tx = db.begin();
    let a = tx.create_node("N", &[]).unwrap();
    let b = tx.create_node("N", &[]).unwrap();
    let r = tx.create_rel(a, "R", b, &[]).unwrap();
    tx.commit().unwrap();

    let mut tx = db.begin();
    tx.delete_rel(r).unwrap();
    tx.commit().unwrap();

    // A fresh commit advances the horizon past the delete.
    let mut tx = db.begin();
    tx.create_node("N", &[]).unwrap();
    tx.commit().unwrap();
    db.reclaim_deleted();
    assert!(!db.rels().is_live(r), "tombstoned slot must be recycled");
}

#[test]
fn concurrent_transactions_on_disjoint_nodes() {
    let db = std::sync::Arc::new(db());
    let mut setup = db.begin();
    let ids: Vec<_> = (0..8)
        .map(|i| setup.create_node("N", &[("v", Value::Int(i))]).unwrap())
        .collect();
    setup.commit().unwrap();

    let handles: Vec<_> = ids
        .chunks(2)
        .map(|chunk| {
            let db = db.clone();
            let chunk = chunk.to_vec();
            std::thread::spawn(move || {
                for round in 0..50 {
                    let mut tx = db.begin();
                    let mut ok = true;
                    for &id in &chunk {
                        if tx
                            .set_prop(PropOwner::Node(id), "v", Value::Int(round))
                            .is_err()
                        {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        tx.commit().unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let tx = db.begin();
    for &id in &ids {
        assert_eq!(
            tx.prop(PropOwner::Node(id), "v").unwrap(),
            Some(Value::Int(49))
        );
    }
}

#[test]
fn vacuum_reclaims_orphaned_prop_chains() {
    let db = db();
    let mut tx = db.begin();
    let a = tx.create_node("N", &[("k", Value::Int(1)), ("j", Value::Int(2))]).unwrap();
    tx.commit().unwrap();
    let live_before = db.props().live_count();

    // Simulate a leak: a crashed transaction's owner was reclaimed but its
    // chain records kept their slots. We fabricate one by inserting an
    // orphan chain directly.
    let orphan = db
        .props()
        .insert(&gstore::PropRecord::new(9999))
        .unwrap();
    assert!(db.props().is_live(orphan));

    // Vacuum refuses while a transaction is active...
    let guard = db.begin();
    assert_eq!(db.vacuum_props(), 0);
    drop(guard);

    // ...and reclaims exactly the orphan when quiesced.
    assert_eq!(db.vacuum_props(), 1);
    assert!(!db.props().is_live(orphan));
    assert_eq!(db.props().live_count(), live_before);

    // Reachable chains are untouched.
    let tx = db.begin();
    assert_eq!(tx.prop(PropOwner::Node(a), "k").unwrap(), Some(Value::Int(1)));
    assert_eq!(tx.prop(PropOwner::Node(a), "j").unwrap(), Some(Value::Int(2)));
}

#[test]
fn vacuum_racing_writers_keeps_every_acknowledged_property() {
    // Writers keep beginning transactions that allocate property chains
    // while another thread vacuums in a loop. The vacuum finds the engine
    // momentarily idle, starts marking, and a writer links a new chain
    // behind the scan; deleting that chain as "unreachable" would lose an
    // acknowledged write. The table keeps growing, so later scans are long
    // and almost every one of them is overtaken by a writer.
    use std::sync::atomic::{AtomicBool, Ordering};
    const WRITERS: i64 = 2;
    const PER_WRITER: i64 = 3_000;
    let db = db();
    let done = AtomicBool::new(false);
    let (ids, vacuum_runs) = std::thread::scope(|s| {
        let vacuum = s.spawn(|| {
            let mut runs = 0u64;
            while !done.load(Ordering::Acquire) {
                db.vacuum_props();
                runs += 1;
            }
            runs
        });
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let db = &db;
                s.spawn(move || {
                    (0..PER_WRITER)
                        .map(|i| {
                            let v = w * PER_WRITER + i;
                            let mut tx = db.begin();
                            let id = tx
                                .create_node(
                                    "N",
                                    &[
                                        ("a", Value::Int(v)),
                                        ("b", Value::Int(v + 1)),
                                        ("c", Value::Int(v + 2)),
                                        ("d", Value::Int(v + 3)),
                                        ("e", Value::Int(v + 4)),
                                    ],
                                )
                                .unwrap();
                            tx.commit().unwrap();
                            (id, v)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let ids: Vec<(u64, i64)> = writers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        done.store(true, Ordering::Release);
        (ids, vacuum.join().unwrap())
    });
    assert!(vacuum_runs > 0);
    let tx = db.begin();
    for (id, v) in ids {
        for (k, key) in ["a", "b", "c", "d", "e"].into_iter().enumerate() {
            assert_eq!(
                tx.prop(PropOwner::Node(id), key).unwrap(),
                Some(Value::Int(v + k as i64)),
                "node {id} lost property {key}"
            );
        }
    }
}
