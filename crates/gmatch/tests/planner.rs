//! Planner unit tests on a skewed fixture: access-path choice driven by
//! index presence and zone-map selectivity, the forced-worst arm, and
//! the PGO per-segment feedback loop.

use gjit::PgoTable;
use gmatch::{
    execute_match, parse, plan, Backend, DbStats, DictResolver, PatternGraph, PlanChoice,
    StatsSource,
};
use graphcore::{DbOptions, GraphDb, Value};
use gstore::{IndexKind, PVal};

/// 1024 Person nodes with *sequential* ids (so the 64-record zone-map
/// chunks carry tight, disjoint id ranges — the skew the cost model
/// reads) plus a `knows` ring with modest fan-out. `id` is indexed,
/// `age` is not.
fn fixture() -> GraphDb {
    let db = GraphDb::create(DbOptions::dram(96 << 20)).unwrap();
    let mut tx = db.begin();
    let mut people = Vec::new();
    for i in 0..1024i64 {
        let p = tx
            .create_node(
                "Person",
                &[("id", Value::Int(i)), ("age", Value::Int(i % 90))],
            )
            .unwrap();
        people.push(p);
    }
    for i in 0..people.len() {
        let a = people[i];
        tx.create_rel(a, "knows", people[(i + 1) % people.len()], &[])
            .unwrap();
        tx.create_rel(a, "knows", people[(i + 7) % people.len()], &[])
            .unwrap();
    }
    tx.commit().unwrap();
    db.create_index("Person", "id", IndexKind::Volatile).unwrap();
    db
}

fn resolve(db: &GraphDb, q: &str) -> PatternGraph {
    PatternGraph::resolve(&parse(q).unwrap(), &DictResolver(db.dict())).unwrap()
}

#[test]
fn selective_equality_picks_the_index_probe() {
    let db = fixture();
    let pg = resolve(&db, "match (a:Person {id = ?0})-[:knows]->(b) return b");
    let params = [PVal::Int(17)];
    let stats = DbStats(&db);

    let best = plan(&pg, &stats, &params, None, PlanChoice::Best).unwrap();
    assert!(
        best.summary.contains("index_eq"),
        "selective point predicate should pick the B+-tree probe: {}",
        best.summary
    );

    let worst = plan(&pg, &stats, &params, None, PlanChoice::Worst).unwrap();
    assert!(
        worst.summary.contains("scan("),
        "forced-worst arm should pick the full scan: {}",
        worst.summary
    );
    assert!(
        worst.est_cost >= best.est_cost,
        "worst ({}) must not be cheaper than best ({})",
        worst.est_cost,
        best.est_cost
    );
}

/// What the cost model is for, in rows rather than in wall-clock: on the
/// anchored multi-hop patterns the chosen plan returns the forced-worst
/// plan's rows while pulling fewer binding rows through its segments.
#[test]
fn best_plan_touches_fewer_rows_than_worst() {
    let db = fixture();
    let stats = DbStats(&db);
    let params = [PVal::Int(512)];
    for q in [
        "match (a:Person {id = ?0})-[:knows]->(b:Person)-[:knows]->(c:Person) return c",
        "match (a:Person {id = ?0})-[:knows]->(b:Person)-[:knows]->(c:Person)-[:knows]->(d:Person) return d",
    ] {
        let pg = resolve(&db, q);
        let run = |choice| {
            let mp = plan(&pg, &stats, &params, None, choice).unwrap();
            let (mut rows, profile) = execute_match(&mp, &db, Backend::Interp, &params).unwrap();
            rows.sort_by_key(|r| r[0].val);
            let rows_in: u64 = profile.expansions.iter().map(|(_, rows_in, _)| rows_in).sum();
            (rows, rows_in)
        };
        let (best_rows, best_in) = run(PlanChoice::Best);
        let (worst_rows, worst_in) = run(PlanChoice::Worst);
        assert!(!best_rows.is_empty(), "{q}");
        assert_eq!(best_rows, worst_rows, "{q}: both plans must return the same rows");
        assert!(best_in < worst_in, "{q}: best pulled {best_in} rows, worst {worst_in}");
    }
}

#[test]
fn unindexed_predicate_falls_back_to_pruned_scan() {
    let db = fixture();
    let pg = resolve(&db, "match (a:Person {age = ?0})-[:knows]->(b) return b");
    let best = plan(&pg, &DbStats(&db), &[PVal::Int(30)], None, PlanChoice::Best).unwrap();
    assert!(
        best.summary.contains("scan("),
        "no index over (Person, age): {}",
        best.summary
    );
}

#[test]
fn zone_maps_report_skewed_survival() {
    // The stats the planner prices with: sequential ids mean a tight id
    // range survives almost nowhere, while a full-range predicate
    // survives everywhere. (Registered by create_index on `id`.)
    let db = fixture();
    let stats = DbStats(&db);
    let id = db.dict().code_of("id").unwrap();
    let lo = PVal::Int(0).index_key();
    let narrow = stats.node_survival(&[], &[(id, lo, PVal::Int(31).index_key())]);
    let full = stats.node_survival(&[], &[(id, lo, PVal::Int(1_000_000).index_key())]);
    assert!(
        narrow < 0.2,
        "a 32-id window should prune most chunks, survival={narrow}"
    );
    assert!(full > 0.9, "an all-id window prunes nothing, survival={full}");
}

#[test]
fn zone_map_selectivity_drives_the_cost_estimate() {
    let db = fixture();
    let stats = DbStats(&db);
    // Same shape, different constants: a narrow ordered predicate over
    // clustered (zone-tracked) ids must be priced cheaper than an
    // all-pass one.
    let narrow = resolve(&db, "match (a:Person {id < 32}) return a");
    let wide = resolve(&db, "match (a:Person {id < 1000000}) return a");
    let c_narrow = plan(&narrow, &stats, &[], None, PlanChoice::Best).unwrap().est_cost;
    let c_wide = plan(&wide, &stats, &[], None, PlanChoice::Best).unwrap().est_cost;
    assert!(
        c_narrow < c_wide,
        "narrow {c_narrow} should be cheaper than wide {c_wide}"
    );
}

#[test]
fn variable_length_edges_enumerate_fixed_length_pipelines() {
    let db = fixture();
    let pg = resolve(&db, "match (a:Person {id = ?0})-[:knows*1..3]->(b) return b");
    let mp = plan(&pg, &DbStats(&db), &[PVal::Int(3)], None, PlanChoice::Best).unwrap();
    assert_eq!(mp.pipelines.len(), 3, "one pipeline per fixed length");
    for p in &mp.pipelines {
        assert!(p.segments.len() >= 2, "head + expansion");
        assert_eq!(p.segments[1].access, "expand");
    }
}

#[test]
fn observed_segment_selectivity_reprices_on_replan() {
    let db = fixture();
    let pg = resolve(&db, "match (a:Person {id = ?0})-[:knows]->(b) return b");
    let params = [PVal::Int(17)];
    let stats = DbStats(&db);

    let pgo = PgoTable::new();
    let base = plan(&pg, &stats, &params, Some(&pgo), PlanChoice::Best).unwrap();

    // Feed back a catastrophic observed fan-out on every pipeline's
    // expansion segment: 100 binding rows in, 50_000 out.
    for p in &base.pipelines {
        pgo.record_segment(p.plan.fingerprint(), 1, 100, 50_000);
    }
    let repriced = plan(&pg, &stats, &params, Some(&pgo), PlanChoice::Best).unwrap();
    assert!(
        repriced.est_cost > base.est_cost,
        "observed 500x fan-out must reprice the plan upward: {} -> {}",
        base.est_cost,
        repriced.est_cost
    );
}
