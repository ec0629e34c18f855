//! Differential test: the full gmatch stack (parse → resolve → plan →
//! execute) against the brute-force reference matcher, over random small
//! graphs, across all four execution backends and both shard layouts.
//!
//! Row order is unspecified on both sides, so results are compared as
//! sorted multisets of decoded values. `limit` is deliberately absent
//! from the pattern pool (which rows survive a limit is order-dependent).

use std::sync::Arc;

use gjit::JitEngine;
use gmatch::{
    execute_match_sharded, parse, plan, reference_rows, Backend, DictResolver, PatternGraph,
    PlanChoice, RefGraph, ShardStats,
};
use gquery::{ExecCtx, QueryError};
use graphcore::{ShardOptions, ShardedDb, Value};
use gstore::PVal;
use proptest::prelude::*;

/// Patterns exercised against every random graph. All are connected (the
/// planner rejects cartesian products) and name only the labels/keys the
/// fixture interns: node labels L0/L1, edge labels E0/E1, property v.
const PATTERNS: &[&str] = &[
    "match (a) return a",
    "match (a:L0) return a, a.v",
    "match (a {v = ?0})-[:E0]->(b) return a, b",
    "match (a:L0)-[:E0*1..2]->(b:L1) return a, b",
    "match (a)-[:E0]->(b)-[:E1]->(c) where c.v > 1 return a, c.v",
    "match (a)-[:E0]->(b), (a)-[:E1]->(c) return b, c",
    "match (a)-[:E0]->(b), (b)-[:E0]->(a) return a, b",
    "match (a) where a.v >= ?0 count",
];

/// A random graph description: nodes are `(label 0|1, optional v)`, edges
/// are `(src, dst, label 0|1)` with endpoints taken modulo node count.
#[derive(Debug, Clone)]
struct Fixture {
    nodes: Vec<(u8, Option<i64>)>,
    edges: Vec<(u8, u8, u8)>,
    param: i64,
}

fn fixture_strategy() -> impl Strategy<Value = Fixture> {
    (
        prop::collection::vec((0u8..2, prop::option::of(0i64..5)), 3..8),
        prop::collection::vec((0u8..8, 0u8..8, 0u8..2), 0..14),
        0i64..5,
    )
        .prop_map(|(nodes, edges, param)| Fixture {
            nodes,
            edges,
            param,
        })
}

/// Build the fixture into a fresh `shards`-pool database and the mirror
/// reference graph (global ids, interned codes).
fn build(fx: &Fixture, shards: usize) -> (ShardedDb, RefGraph) {
    let db = ShardedDb::create(ShardOptions::dram(32 << 20).shards(shards)).unwrap();
    // Intern every name the patterns may reference up front, so
    // resolution succeeds even on graphs that never use a label.
    let l = [db.intern("L0").unwrap(), db.intern("L1").unwrap()];
    let e = [db.intern("E0").unwrap(), db.intern("E1").unwrap()];
    let v = db.intern("v").unwrap();

    let mut rg = RefGraph::default();
    let mut tx = db.begin();
    let mut ids = Vec::with_capacity(fx.nodes.len());
    for (i, (label, val)) in fx.nodes.iter().enumerate() {
        let name = if *label == 0 { "L0" } else { "L1" };
        let props: Vec<(&str, Value)> = match val {
            Some(x) => vec![("v", Value::Int(*x))],
            None => vec![],
        };
        let gid = tx.create_node_on(i % shards, name, &props).unwrap();
        let rprops: Vec<(u32, PVal)> = val.iter().map(|x| (v, PVal::Int(*x))).collect();
        rg.add_node(gid, l[*label as usize], &rprops);
        ids.push(gid);
    }
    for (s, d, label) in &fx.edges {
        let (src, dst) = (
            ids[*s as usize % ids.len()],
            ids[*d as usize % ids.len()],
        );
        let name = if *label == 0 { "E0" } else { "E1" };
        tx.create_rel(src, name, dst, &[]).unwrap();
        rg.add_edge(src, dst, e[*label as usize]);
    }
    tx.commit().unwrap();
    (db, rg)
}

/// Canonical sortable encoding of one result row.
fn canon_vals(row: &[PVal]) -> String {
    row.iter()
        .map(|p| format!("{p:?}"))
        .collect::<Vec<_>>()
        .join("|")
}

fn canon_slots(row: &[gquery::Slot]) -> String {
    row.iter()
        .map(|s| format!("{:?}", s.as_pval().unwrap_or(PVal::Null)))
        .collect::<Vec<_>>()
        .join("|")
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_matches_reference_on_random_graphs(fx in fixture_strategy()) {
        let params = [PVal::Int(fx.param)];
        for shards in [1usize, 4] {
            let (db, rg) = build(&fx, shards);
            let engine = Arc::new(JitEngine::new());
            let stats = ShardStats(&db);
            let resolver = DictResolver(db.shard(0).dict());
            for q in PATTERNS {
                let pg = PatternGraph::resolve(&parse(q).unwrap(), &resolver).unwrap();
                let mp = plan(&pg, &stats, &params, None, PlanChoice::Best).unwrap();
                let expect = sorted(
                    reference_rows(&pg, &rg, &params)
                        .iter()
                        .map(|r| canon_vals(r))
                        .collect(),
                );
                let backends = [
                    ("interp", Backend::Interp),
                    ("parallel", Backend::Parallel(2)),
                    ("jit", Backend::Jit(&engine)),
                    ("adaptive", Backend::Adaptive(&engine, 2)),
                ];
                for (name, backend) in backends {
                    let rows = execute_match_sharded(&mp, &db, backend, &mut ExecCtx::new(&params))
                        .unwrap_or_else(|err| {
                            panic!("{q} failed on {name}/{shards} shard(s): {err:?}")
                        });
                    let got = sorted(rows.iter().map(|r| canon_slots(r)).collect());
                    prop_assert_eq!(
                        &got, &expect,
                        "pattern {} diverged on backend {} with {} shard(s)",
                        q, name, shards
                    );
                }
            }
        }
    }
}

/// The sharded walk is bounded and cancellable like the unsharded one: on
/// a 4-shard database an already-elapsed deadline and a raised cancel flag
/// surface as typed errors under every backend, for a head-only pattern
/// and for one with expansions.
#[test]
fn sharded_match_observes_deadline_and_cancellation() {
    let fx = Fixture {
        nodes: (0..8).map(|i| (i % 2, Some(i as i64 % 5))).collect(),
        edges: (0..12).map(|i| (i, i * 3 + 1, i % 2)).collect(),
        param: 0,
    };
    let (db, rg) = build(&fx, 4);
    let params = [PVal::Int(fx.param)];
    let engine = Arc::new(JitEngine::new());
    let resolver = DictResolver(db.shard(0).dict());
    let cancelled = std::sync::atomic::AtomicBool::new(true);
    for q in ["match (a:L0) return a, a.v", "match (a:L0)-[:E0*1..2]->(b:L1) return a, b"] {
        let pg = PatternGraph::resolve(&parse(q).unwrap(), &resolver).unwrap();
        let mp = plan(&pg, &ShardStats(&db), &params, None, PlanChoice::Best).unwrap();
        for backend in [
            Backend::Interp,
            Backend::Parallel(2),
            Backend::Jit(&engine),
            Backend::Adaptive(&engine, 2),
        ] {
            let mut late = ExecCtx::new(&params).with_deadline(std::time::Instant::now());
            assert!(matches!(
                execute_match_sharded(&mp, &db, backend, &mut late),
                Err(QueryError::DeadlineExceeded)
            ));
            let mut stopped = ExecCtx::new(&params).with_cancel(&cancelled);
            assert!(matches!(
                execute_match_sharded(&mp, &db, backend, &mut stopped),
                Err(QueryError::Cancelled)
            ));
            // Unbounded, it still answers — and the context holds the account.
            let mut ctx = ExecCtx::new(&params);
            let rows = execute_match_sharded(&mp, &db, backend, &mut ctx).unwrap();
            assert_eq!(rows.len(), reference_rows(&pg, &rg, &params).len(), "{q}");
            assert_eq!(ctx.profile.rows, rows.len() as u64);
            assert!(!ctx.profile.expansions.is_empty());
        }
    }
}

/// A pattern reads one snapshot: a variable-length edge plans one pipeline
/// per fixed length, and all of them run on the reader (one per shard)
/// that the match opened — the union is never of several timestamps.
#[test]
fn a_multi_pipeline_match_opens_one_reader_per_shard() {
    let fx = Fixture {
        nodes: (0..8).map(|i| (i % 2, Some(i as i64 % 5))).collect(),
        edges: (0..12).map(|i| (i, i * 3 + 1, 0)).collect(),
        param: 0,
    };
    for shards in [1usize, 4] {
        let (db, rg) = build(&fx, shards);
        let resolver = DictResolver(db.shard(0).dict());
        let q = "match (a:L0)-[:E0*1..3]->(b) return a, b";
        let pg = PatternGraph::resolve(&parse(q).unwrap(), &resolver).unwrap();
        let mp = plan(&pg, &ShardStats(&db), &[], None, PlanChoice::Best).unwrap();
        assert_eq!(mp.pipelines.len(), 3, "one pipeline per fixed length");
        let begun = || -> u64 {
            let of = |s: &std::sync::Arc<graphcore::GraphDb>| {
                s.mgr().stats().begun.load(std::sync::atomic::Ordering::Relaxed)
            };
            db.shards().iter().map(of).sum()
        };
        let before = begun();
        let rows = execute_match_sharded(&mp, &db, Backend::Interp, &mut ExecCtx::new(&[])).unwrap();
        assert_eq!(begun() - before, shards as u64, "{shards} shard(s)");
        assert_eq!(rows.len(), reference_rows(&pg, &rg, &[]).len());
    }
}

/// A filter and a projection that read across a shard boundary: `a`, `b`
/// and `c` live on three different pools at four shards (round-robin
/// placement), and the row that reaches the `c.v` filter was started on
/// `a`'s. Same rows at both shard counts, under every backend.
#[test]
fn a_filter_spanning_a_shard_boundary_agrees_at_both_shard_counts() {
    let fx = Fixture {
        nodes: vec![(0, Some(1)), (1, Some(2)), (1, Some(3)), (1, Some(0))],
        edges: vec![(0, 1, 0), (1, 2, 1), (1, 3, 1)],
        param: 0,
    };
    let q = "match (a:L0)-[:E0]->(b)-[:E1]->(c:L1) where a.v = 1 and c.v > 1 return a.v, c, c.v";
    let engine = Arc::new(JitEngine::new());
    for shards in [1usize, 4] {
        let (db, rg) = build(&fx, shards);
        let resolver = DictResolver(db.shard(0).dict());
        let pg = PatternGraph::resolve(&parse(q).unwrap(), &resolver).unwrap();
        let mp = plan(&pg, &ShardStats(&db), &[], None, PlanChoice::Best).unwrap();
        let expect = sorted(reference_rows(&pg, &rg, &[]).iter().map(|r| canon_vals(r)).collect());
        assert_eq!(expect.len(), 1, "only c = node 2 passes");
        for backend in [
            Backend::Interp,
            Backend::Parallel(2),
            Backend::Jit(&engine),
            Backend::Adaptive(&engine, 2),
        ] {
            let rows = execute_match_sharded(&mp, &db, backend, &mut ExecCtx::new(&[])).unwrap();
            let got = sorted(rows.iter().map(|r| canon_slots(r)).collect());
            assert_eq!(got, expect, "{shards} shard(s)");
        }
    }
}
