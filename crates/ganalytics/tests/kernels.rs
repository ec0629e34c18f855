//! The kernels over a [`CsrSnapshot`]: known answers on a small graph,
//! snapshot stability under concurrent updates (the HTAP claim), and
//! equivalence — PageRank bit for bit — with a brute-force reference that
//! reads the graph edge by edge through a transaction at the snapshot's
//! own timestamp, on the small graph and on the SNB fixture.

use std::collections::BTreeSet;

use ganalytics::{algo, CsrSnapshot, SnapshotSpec};
use gquery::ExecCtx;
use graphcore::{DbOptions, Dir, GraphDb, GraphTxn, NodeId, Value};
use ldbc::{generate, SnbParams};

/// The brute-force reference: plain adjacency lists (dense index = rank in
/// ascending id order) and the textbook sequential form of each kernel.
struct Reference {
    nodes: Vec<NodeId>,
    out: Vec<Vec<usize>>,
    inc: Vec<Vec<usize>>,
}

impl Reference {
    fn read(txn: &GraphTxn<'_>, spec: &SnapshotSpec) -> Reference {
        let mut nodes = Vec::new();
        txn.db().nodes().for_each_live(|id, _| nodes.push(id));
        nodes.sort_unstable();
        nodes.retain(|&id| {
            let rec = txn.node(id).unwrap();
            rec.is_some_and(|n| spec.node_label.is_none_or(|l| n.label == l))
        });
        let mut out = vec![Vec::new(); nodes.len()];
        let mut inc = vec![Vec::new(); nodes.len()];
        for (u, &id) in nodes.iter().enumerate() {
            txn.for_each_rel(id, Dir::Out, spec.rel_label, |_, rel| {
                if let Ok(v) = nodes.binary_search(&rel.dst) {
                    out[u].push(v);
                    inc[v].push(u); // ascending u: the kernel's gather order
                }
            })
            .unwrap();
        }
        Reference { nodes, out, inc }
    }

    fn pagerank(&self, iters: usize, damping: f64) -> Vec<f64> {
        let n = self.nodes.len();
        let mut rank = vec![1.0 / n as f64; n];
        for _ in 0..iters {
            let pull = |v: usize| {
                let gathered = self.inc[v]
                    .iter()
                    .fold(0.0, |sum, &u| sum + rank[u] / self.out[u].len() as f64);
                (1.0 - damping) / n as f64 + damping * gathered
            };
            rank = (0..n).map(pull).collect();
        }
        rank
    }

    /// Relax `label[v] = min(label[v], f(label[u]))` over every edge u→v (and
    /// v→u if `both_ways`) to a fixed point.
    fn relax(&self, mut label: Vec<u32>, both_ways: bool, f: impl Fn(u32) -> u32) -> Vec<u32> {
        let mut changed = true;
        while changed {
            changed = false;
            for u in 0..label.len() {
                for &v in &self.out[u] {
                    for (a, b) in [(u, v), (v, u)].into_iter().take(1 + both_ways as usize) {
                        if label[a] != algo::UNREACHED && f(label[a]) < label[b] {
                            label[b] = f(label[a]);
                            changed = true;
                        }
                    }
                }
            }
        }
        label
    }

    fn bfs(&self, source: NodeId) -> Vec<u32> {
        let mut depth = vec![algo::UNREACHED; self.nodes.len()];
        if let Ok(s) = self.nodes.binary_search(&source) {
            depth[s] = 0;
        }
        self.relax(depth, false, |d| d + 1)
    }

    fn wcc(&self) -> Vec<u32> {
        self.relax((0..self.nodes.len() as u32).collect(), true, |l| l)
    }

    fn triangles(&self) -> u64 {
        let n = self.nodes.len();
        let linked: BTreeSet<(usize, usize)> = (0..n)
            .flat_map(|u| self.out[u].iter().flat_map(move |&v| [(u, v), (v, u)]))
            .collect();
        let near = |u: usize| linked.range((u, u + 1)..(u + 1, 0)).map(|&(_, v)| v);
        (0..n)
            .flat_map(|u| near(u).flat_map(move |v| near(v).map(move |w| (u, w))))
            .filter(|uw| linked.contains(uw))
            .count() as u64
    }
}

/// Every kernel, at 1 and 4 workers, against the reference at `txn`'s timestamp.
fn assert_kernels_match_reference(txn: &GraphTxn<'_>, spec: SnapshotSpec) {
    let reference = Reference::read(txn, &spec);
    let snap = CsrSnapshot::build_at(txn, spec).unwrap();
    assert_eq!(snap.nodes(), &reference.nodes[..]);
    let ctx = ExecCtx::new(&[]);
    let pagerank = reference.pagerank(15, 0.85);
    for workers in [1, 4] {
        let got = algo::pagerank(&snap, 15, 0.85, workers, &ctx).unwrap();
        assert_eq!(got.len(), pagerank.len());
        for (i, (g, r)) in got.iter().zip(&pagerank).enumerate() {
            assert_eq!(
                g.to_bits(),
                r.to_bits(),
                "pagerank bit mismatch at {i}: {g} vs {r}"
            );
        }
        for source in [
            reference.nodes[0],
            *reference.nodes.last().unwrap(),
            u64::MAX,
        ] {
            assert_eq!(
                algo::bfs(&snap, source, workers, &ctx).unwrap(),
                reference.bfs(source)
            );
        }
        assert_eq!(algo::wcc(&snap, workers, &ctx).unwrap(), reference.wcc());
        assert_eq!(
            algo::triangles(&snap, workers, &ctx).unwrap(),
            reference.triangles()
        );
    }
}

fn db() -> GraphDb {
    GraphDb::create(DbOptions::dram(256 << 20)).unwrap()
}

/// Build a small known graph:
///
/// ```text
/// 0 -> 1 -> 2 -> 0      (triangle)
/// 2 -> 3 -> 4           (tail)
/// 5 -> 6                (separate component)
/// 7                     (isolated)
/// ```
fn known_graph(db: &GraphDb) -> Vec<u64> {
    let mut tx = db.begin();
    let ids: Vec<u64> = (0..8)
        .map(|i| tx.create_node("V", &[("i", Value::Int(i))]).unwrap())
        .collect();
    for (s, d) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 6)] {
        tx.create_rel(ids[s], "E", ids[d], &[]).unwrap();
    }
    tx.commit().unwrap();
    ids
}

fn whole(db: &GraphDb) -> CsrSnapshot {
    CsrSnapshot::build(db, SnapshotSpec::default()).unwrap()
}

#[test]
fn snapshot_counts() {
    let db = db();
    let ids = known_graph(&db);
    let snap = whole(&db);
    assert_eq!(snap.node_count(), 8);
    assert_eq!(snap.edge_count(), 6);
    let i2 = snap.index_of(ids[2]).unwrap();
    assert_eq!(snap.out(i2).len(), 2); // -> 0, -> 3
    assert_eq!(snap.inc(i2).len(), 1); // <- 1
}

#[test]
fn bfs_depths() {
    let db = db();
    let ids = known_graph(&db);
    let snap = whole(&db);
    let depth = algo::bfs(&snap, ids[0], 2, &ExecCtx::new(&[])).unwrap();
    let at = |i: usize| depth[snap.index_of(ids[i]).unwrap() as usize];
    assert_eq!([at(0), at(1), at(2), at(3), at(4)], [0, 1, 2, 3, 4]);
    assert_eq!(at(5), algo::UNREACHED, "other component unreachable");
    assert_eq!(at(7), algo::UNREACHED);
}

#[test]
fn connected_components_counts() {
    let db = db();
    let ids = known_graph(&db);
    let snap = whole(&db);
    let comp = algo::wcc(&snap, 2, &ExecCtx::new(&[])).unwrap();
    let reps: BTreeSet<u32> = comp.iter().copied().collect();
    assert_eq!(reps.len(), 3, "three weakly-connected components");
    let of = |i: usize| comp[snap.index_of(ids[i]).unwrap() as usize];
    for i in 1..=4 {
        assert_eq!(of(i), of(0));
    }
    assert_ne!(of(5), of(0));
}

#[test]
fn triangle_count() {
    let db = db();
    let ids = known_graph(&db);
    assert_eq!(
        algo::triangles(&whole(&db), 2, &ExecCtx::new(&[])).unwrap(),
        1
    );
    // A reverse edge, a parallel edge and a self-loop add no triangle.
    let mut tx = db.begin();
    for (s, d) in [(1, 0), (0, 1), (2, 2)] {
        tx.create_rel(ids[s], "E", ids[d], &[]).unwrap();
    }
    tx.commit().unwrap();
    assert_eq!(
        algo::triangles(&whole(&db), 2, &ExecCtx::new(&[])).unwrap(),
        1
    );
}

#[test]
fn pagerank_ranks_hubs() {
    let db = db();
    let mut tx = db.begin();
    // Star: many nodes point at a hub.
    let hub = tx.create_node("V", &[]).unwrap();
    let spokes: Vec<u64> = (0..20).map(|_| tx.create_node("V", &[]).unwrap()).collect();
    for &s in &spokes {
        tx.create_rel(s, "E", hub, &[]).unwrap();
    }
    tx.commit().unwrap();

    let snap = whole(&db);
    let pr = algo::pagerank(&snap, 30, 0.85, 2, &ExecCtx::new(&[])).unwrap();
    let rank = |id: u64| pr[snap.index_of(id).unwrap() as usize];
    for &s in &spokes {
        assert!(rank(hub) > rank(s) * 5.0);
    }
}

#[test]
fn label_filtered_snapshot() {
    let db = db();
    let mut tx = db.begin();
    let a = tx.create_node("A", &[]).unwrap();
    let b = tx.create_node("A", &[]).unwrap();
    let c = tx.create_node("B", &[]).unwrap();
    tx.create_rel(a, "X", b, &[]).unwrap();
    tx.create_rel(a, "Y", b, &[]).unwrap();
    tx.create_rel(a, "X", c, &[]).unwrap();
    tx.commit().unwrap();

    let spec = SnapshotSpec {
        node_label: db.dict().code_of("A"),
        rel_label: db.dict().code_of("X"),
        node_props: Vec::new(),
    };
    let snap = CsrSnapshot::build(&db, spec).unwrap();
    assert_eq!(snap.node_count(), 2, "only A-labelled nodes");
    assert_eq!(snap.edge_count(), 1, "only X edges between A nodes");
}

#[test]
fn snapshot_stability_under_concurrent_updates() {
    // The HTAP story: a snapshot built at timestamp S must not see
    // transactions that commit after S — even while they stream in.
    let db = db();
    let ids = known_graph(&db);

    let analytic_txn = db.begin();

    // OLTP continues: add edges and nodes after the analytics snapshot.
    let mut tx = db.begin();
    let n = tx.create_node("V", &[]).unwrap();
    tx.create_rel(ids[7], "E", n, &[]).unwrap();
    tx.create_rel(ids[4], "E", ids[0], &[]).unwrap();
    tx.commit().unwrap();

    let snap = CsrSnapshot::build_at(&analytic_txn, SnapshotSpec::default()).unwrap();
    assert_eq!(snap.node_count(), 8, "new node invisible to the snapshot");
    assert_eq!(snap.edge_count(), 6, "new edges invisible to the snapshot");

    // A fresh snapshot sees everything.
    let fresh = whole(&db);
    assert_eq!(fresh.node_count(), 9);
    assert_eq!(fresh.edge_count(), 8);
}

#[test]
fn kernels_match_reference_on_known_graph() {
    let db = db();
    known_graph(&db);
    assert_kernels_match_reference(&db.begin(), SnapshotSpec::default());
}

#[test]
fn kernels_match_interpreted_reference_on_snb_fixture() {
    let snb = generate(&SnbParams::tiny(7), DbOptions::dram(1 << 30)).unwrap();
    let txn = snb.db.begin();
    assert_kernels_match_reference(&txn, SnapshotSpec::default());
    // Person/KNOWS sub-graph: same dense ordering, same structure.
    let friends = SnapshotSpec {
        node_label: Some(snb.db.dict().code_of("Person").expect("Person label")),
        rel_label: Some(snb.db.dict().code_of("KNOWS").expect("KNOWS label")),
        node_props: Vec::new(),
    };
    let snap = CsrSnapshot::build_at(&txn, friends.clone()).unwrap();
    assert_eq!(snap.node_count(), snb.data.person_ids.len());
    assert_kernels_match_reference(&txn, friends);
}
