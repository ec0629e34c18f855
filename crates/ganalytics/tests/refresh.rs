//! A refreshed [`CsrSnapshot`] — merged from its predecessor and the
//! topology journal — against a fresh build at the same timestamp: when
//! the refresh applies, when it must fall back, and under live writers.

use std::sync::atomic::{AtomicBool, Ordering};

use ganalytics::{algo, CsrSnapshot, SnapshotCache, SnapshotSpec};
use gquery::ExecCtx;
use graphcore::{DbOptions, GraphDb, GraphError, NodeId};

fn db_with_ring(n: usize) -> (GraphDb, Vec<NodeId>) {
    let db = GraphDb::create(DbOptions::dram(64 << 20)).unwrap();
    let mut tx = db.begin();
    let ids: Vec<NodeId> = (0..n).map(|_| tx.create_node("N", &[]).unwrap()).collect();
    for i in 0..n {
        tx.create_rel(ids[i], "E", ids[(i + 1) % n], &[]).unwrap();
    }
    tx.commit().unwrap();
    (db, ids)
}

/// Same arrays, bit-identical kernel output.
fn assert_same(a: &CsrSnapshot, b: &CsrSnapshot) {
    assert_eq!(a.nodes(), b.nodes());
    for u in 0..a.node_count() as u32 {
        assert_eq!(a.out(u), b.out(u), "out({u})");
        assert_eq!(a.inc(u), b.inc(u), "inc({u})");
    }
    let ctx = ExecCtx::new(&[]);
    let bits = |s: &CsrSnapshot| -> Vec<u64> {
        let rank = algo::pagerank(s, 5, 0.85, 1, &ctx).unwrap();
        rank.iter().map(|r| r.to_bits()).collect()
    };
    assert_eq!(bits(a), bits(b), "pagerank differs");
    if let Some(&src) = a.nodes().first() {
        assert_eq!(
            algo::bfs(a, src, 1, &ctx).unwrap(),
            algo::bfs(b, src, 1, &ctx).unwrap()
        );
    }
}

/// `cache`'s snapshot for `spec` equals a build from scratch.
fn assert_current(cache: &SnapshotCache, db: &GraphDb, spec: &SnapshotSpec) -> bool {
    let snap = cache.get_or_build(db, spec).unwrap();
    assert_same(&snap, &CsrSnapshot::build(db, spec.clone()).unwrap());
    snap.stats().refreshed
}

#[test]
fn no_journal_growth_before_the_first_build() {
    let (db, ids) = db_with_ring(4);
    let journal = db.mgr().topology_journal();
    assert!(!journal.armed() && journal.is_empty());
    CsrSnapshot::build(&db, SnapshotSpec::default()).unwrap();
    assert!(journal.armed() && journal.is_empty());
    let mut tx = db.begin();
    tx.create_rel(ids[0], "E", ids[2], &[]).unwrap();
    tx.commit().unwrap();
    assert_eq!(journal.len(), 1);
}

#[test]
fn refresh_follows_inserts_deletes_and_slot_reuse() {
    let (db, ids) = db_with_ring(6);
    let cache = SnapshotCache::new();
    let spec = SnapshotSpec::default();
    assert!(!assert_current(&cache, &db, &spec), "the first call builds");

    // Inserts: a node in the middle of nowhere, an edge, a parallel edge.
    let mut tx = db.begin();
    let extra = tx.create_node("N", &[]).unwrap();
    tx.create_rel(extra, "E", ids[0], &[]).unwrap();
    tx.create_rel(ids[0], "E", ids[1], &[]).unwrap();
    tx.commit().unwrap();
    assert!(assert_current(&cache, &db, &spec));

    // Deletes: one of the parallel edges, then a node with all its edges.
    let mut tx = db.begin();
    let (rid, _) = tx.rels_of(ids[0], graphcore::Dir::Out, None).unwrap()[0];
    tx.delete_rel(rid).unwrap();
    tx.detach_delete_node(ids[3]).unwrap();
    tx.commit().unwrap();
    assert!(assert_current(&cache, &db, &spec));

    // Slot reuse: the freed id comes back as a different node.
    let mut tx = db.begin();
    let reborn = tx.create_node("N", &[]).unwrap();
    tx.create_rel(reborn, "E", ids[5], &[]).unwrap();
    tx.commit().unwrap();
    assert_eq!(reborn, ids[3], "the test wants the slot reused");
    assert!(assert_current(&cache, &db, &spec));

    // An aborted writer leaves no trace; a property write changes nothing.
    let mut tx = db.begin();
    tx.create_node("N", &[]).unwrap();
    tx.abort();
    let mut tx = db.begin();
    tx.set_prop(graphcore::PropOwner::Node(ids[0]), "v", graphcore::Value::Int(1))
        .unwrap();
    tx.commit().unwrap();
    assert!(assert_current(&cache, &db, &spec));
    assert_eq!((cache.refreshes(), cache.fallbacks()), (4, 0));
}

#[test]
fn two_specs_refresh_independently_from_one_journal() {
    let db = GraphDb::create(DbOptions::dram(64 << 20)).unwrap();
    let mut tx = db.begin();
    let a: Vec<NodeId> = (0..3).map(|_| tx.create_node("A", &[]).unwrap()).collect();
    let b = tx.create_node("B", &[]).unwrap();
    tx.create_rel(a[0], "E", a[1], &[]).unwrap();
    tx.create_rel(a[1], "F", b, &[]).unwrap();
    tx.commit().unwrap();
    let all = SnapshotSpec::default();
    let only = SnapshotSpec {
        node_label: Some(db.intern("A").unwrap()),
        rel_label: Some(db.intern("E").unwrap()),
        node_props: vec![],
    };
    let cache = SnapshotCache::new();
    assert_current(&cache, &db, &all);
    assert_current(&cache, &db, &only);

    // One commit; `all` catches up now, `only` two commits later.
    let mut tx = db.begin();
    let c = tx.create_node("B", &[]).unwrap();
    tx.create_rel(a[2], "E", a[0], &[]).unwrap();
    tx.create_rel(a[2], "E", c, &[]).unwrap();
    tx.commit().unwrap();
    assert!(assert_current(&cache, &db, &all));
    let mut tx = db.begin();
    tx.detach_delete_node(c).unwrap();
    tx.create_rel(a[0], "F", a[2], &[]).unwrap();
    tx.commit().unwrap();
    assert!(assert_current(&cache, &db, &only));
    assert!(assert_current(&cache, &db, &all));
    let filtered = cache.get_if_current(&db, &only).unwrap();
    assert_eq!((filtered.node_count(), filtered.edge_count()), (3, 2));

    // An id changes sides of the filter inside one refresh window: `b`
    // (label B, outside) goes, its slot comes back as an A node with the
    // same edge. The removal must not cancel the addition — membership is
    // judged when each change happens.
    let mut tx = db.begin();
    tx.create_rel(a[0], "E", b, &[]).unwrap();
    tx.commit().unwrap();
    assert!(assert_current(&cache, &db, &only));
    let mut tx = db.begin();
    tx.detach_delete_node(b).unwrap();
    tx.commit().unwrap();
    let mut tx = db.begin();
    let reborn = tx.create_node("A", &[]).unwrap();
    tx.create_rel(a[0], "E", reborn, &[]).unwrap();
    tx.commit().unwrap();
    assert_eq!(reborn, b, "the test wants the slot reused");
    assert!(assert_current(&cache, &db, &only));
    let filtered = cache.get_if_current(&db, &only).unwrap();
    assert_eq!((filtered.node_count(), filtered.edge_count()), (4, 3));
}

#[test]
fn ring_overflow_falls_back_to_a_full_build() {
    let (db, ids) = db_with_ring(3);
    let cache = SnapshotCache::new();
    let spec = SnapshotSpec::default();
    cache.get_or_build(&db, &spec).unwrap();
    // More commits than the ring holds (every write commit is one entry).
    for i in 0..4200 {
        let mut tx = db.begin();
        tx.create_rel(ids[i % 3], "E", ids[(i + 1) % 3], &[]).unwrap();
        tx.commit().unwrap();
    }
    assert!(!assert_current(&cache, &db, &spec), "the ring dropped what the snapshot needs");
    assert_eq!((cache.refreshes(), cache.fallbacks()), (0, 1));
    // The rebuilt snapshot is a base again.
    let mut tx = db.begin();
    tx.create_node("N", &[]).unwrap();
    tx.commit().unwrap();
    assert!(assert_current(&cache, &db, &spec));
    // Property columns are not journaled: such a spec always rebuilds.
    let with_col = SnapshotSpec { node_props: vec![db.intern("v").unwrap()], ..spec };
    cache.get_or_build(&db, &with_col).unwrap();
    let mut tx = db.begin();
    tx.create_node("N", &[]).unwrap();
    tx.commit().unwrap();
    assert!(!cache.get_or_build(&db, &with_col).unwrap().stats().refreshed);
}

#[test]
fn an_in_flight_older_writer_forces_the_build_path() {
    let (db, ids) = db_with_ring(3);
    let cache = SnapshotCache::new();
    let spec = SnapshotSpec::default();
    cache.get_or_build(&db, &spec).unwrap();
    let mut tx = db.begin();
    tx.create_node("N", &[]).unwrap();
    tx.commit().unwrap(); // the cached snapshot is stale now

    // A writer older than the refresh holds a write intent: the chunk
    // claim fails, the refresh becomes a build, and the build aborts
    // retryably — `snapshot_aborts_retryably_under_live_inserts`, reached
    // through the cache.
    let mut w = db.begin();
    let n = w.create_node("N", &[]).unwrap();
    w.create_rel(n, "E", ids[0], &[]).unwrap();
    match cache.get_or_build(&db, &spec) {
        Err(GraphError::Txn(t)) => assert!(t.is_retryable(), "{t:?}"),
        Err(other) => panic!("expected a retryable txn error, got {other:?}"),
        Ok(_) => panic!("must abort while an older writer is live"),
    }
    w.commit().unwrap();
    // `w` is older than the failed attempt but not than the cached base.
    assert!(assert_current(&cache, &db, &spec));

    // A writer that began before a refresh and only *inserts* afterwards is
    // not stopped by the chunk barrier; the next refresh must notice it
    // committed behind the snapshot's back and rebuild.
    let mut late = db.begin();
    let mut tx = db.begin();
    tx.create_node("N", &[]).unwrap();
    tx.commit().unwrap();
    assert!(assert_current(&cache, &db, &spec));
    let a = late.create_node("N", &[]).unwrap();
    let b = late.create_node("N", &[]).unwrap();
    late.create_rel(a, "E", b, &[]).unwrap();
    late.commit().unwrap();
    assert!(!assert_current(&cache, &db, &spec), "a late writer is rebuilt, not merged");
    assert_eq!(cache.fallbacks(), 2);
}

/// Two writers commit inserts while a reader loops `get_or_build`: what it
/// sees only grows, and once the writers are done it equals a fresh build.
#[test]
fn concurrent_writers_never_shrink_or_corrupt_the_cached_snapshot() {
    let (db, ids) = db_with_ring(64);
    let cache = SnapshotCache::new();
    let spec = SnapshotSpec::default();
    cache.get_or_build(&db, &spec).unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..2usize)
            .map(|w| {
                let (db, ids) = (&db, &ids);
                s.spawn(move || {
                    let mut committed = 0;
                    for i in 0..400 {
                        let mut tx = db.begin();
                        let ok = tx.create_node("N", &[]).and_then(|n| {
                            tx.create_rel(n, "E", ids[(2 * i + w) % ids.len()], &[])
                        });
                        // A conflict with the reader's chunk barrier (or
                        // the other writer) aborts; the loop moves on.
                        if ok.is_ok() && tx.commit().is_ok() {
                            committed += 1;
                        }
                        std::thread::yield_now();
                    }
                    committed
                })
            })
            .collect();
        let reader = s.spawn(|| {
            let (mut nodes, mut edges) = (0, 0);
            while !done.load(Ordering::Acquire) {
                // A build racing a writer aborts retryably, as ever.
                match cache.get_or_build(&db, &spec) {
                    Ok(snap) => {
                        assert!(snap.node_count() >= nodes && snap.edge_count() >= edges);
                        (nodes, edges) = (snap.node_count(), snap.edge_count());
                    }
                    Err(_) => std::thread::yield_now(),
                }
            }
        });
        let committed: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
        done.store(true, Ordering::Release);
        reader.join().unwrap();
        assert!(committed > 0);
        let snap = cache.get_or_build(&db, &spec).unwrap();
        assert_eq!(snap.node_count(), 64 + committed);
        assert_eq!(snap.edge_count(), 64 + committed);
    });
    assert_current(&cache, &db, &spec);
    // Quiescent again: at the latest the second commit from here is merged
    // (the first may still meet a late writer from the run above).
    let refreshes = cache.refreshes();
    for _ in 0..2 {
        let mut tx = db.begin();
        tx.create_node("N", &[]).unwrap();
        tx.commit().unwrap();
        assert_current(&cache, &db, &spec);
    }
    assert!(cache.refreshes() > refreshes, "fallbacks: {}", cache.fallbacks());
}
