//! Correctness anchor for the gmatch planner: the IS3 pattern ("friends
//! of a person"), planned by the cost-based planner from a Cypher-lite
//! pattern, must return the same rows as the handwritten fixed plan.
//!
//! The fixed plan also projects the KNOWS edge's `creationDate` and
//! orders by it; the pattern language projects node properties only and
//! leaves order unspecified, so the comparison covers the friend columns
//! (id, firstName, lastName) as sorted multisets.

use gmatch::{execute_match, parse, plan, Backend, DbStats, DictResolver, PatternGraph, PlanChoice};
use graphcore::DbOptions;
use gstore::PVal;

#[test]
fn gmatch_planned_is3_matches_fixed_plan() {
    let snb = ldbc::generate(&ldbc::SnbParams::tiny(7), DbOptions::dram(96 << 20)).unwrap();
    let spec = ldbc::SrQuery::Is3.spec(&snb.codes);

    let ast = parse(
        "match (a:Person {id = ?0})-[:KNOWS]->(f:Person) return f.id, f.firstName, f.lastName",
    )
    .unwrap();
    let pg = PatternGraph::resolve(&ast, &DictResolver(snb.db.dict())).unwrap();
    let stats = DbStats(&snb.db);

    let mut nonempty = 0usize;
    for &person in snb.data.person_ids.iter().take(12) {
        let params = [PVal::Int(person)];

        let fixed = ldbc::run_spec(&snb.db, &spec, &params, &ldbc::Mode::Interp).unwrap();
        let mut want: Vec<String> = fixed
            .iter()
            .map(|r| format!("{:?}|{:?}|{:?}", r[0].as_pval(), r[1].as_pval(), r[2].as_pval()))
            .collect();
        want.sort();

        let mp = plan(&pg, &stats, &params, None, PlanChoice::Best).unwrap();
        // The planner must land on the same access path the handwritten
        // plan hardcodes: the B+-tree point probe on (Person, id).
        assert!(
            mp.summary.contains("index_eq"),
            "expected the index probe for a selective point predicate: {}",
            mp.summary
        );
        let (rows, _) = execute_match(&mp, &snb.db, Backend::Interp, &params).unwrap();
        let mut got: Vec<String> = rows
            .iter()
            .map(|r| format!("{:?}|{:?}|{:?}", r[0].as_pval(), r[1].as_pval(), r[2].as_pval()))
            .collect();
        got.sort();

        assert_eq!(got, want, "IS3 divergence for person {person}");
        nonempty += usize::from(!want.is_empty());
    }
    assert!(nonempty > 0, "fixture must exercise at least one friend list");
}

#[test]
fn match_execution_observes_deadline_and_cancellation() {
    use gquery::{ExecCtx, QueryError};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let snb = ldbc::generate(&ldbc::SnbParams::tiny(7), DbOptions::dram(96 << 20)).unwrap();
    let ast = parse("match (a:Person {id = ?0})-[:KNOWS*1..2]->(f:Person) return f.id").unwrap();
    let pg = PatternGraph::resolve(&ast, &DictResolver(snb.db.dict())).unwrap();
    let params = [PVal::Int(snb.data.person_ids[0])];
    let mp = plan(&pg, &DbStats(&snb.db), &params, None, PlanChoice::Best).unwrap();
    let engine = Arc::new(gjit::JitEngine::new());
    let cancelled = AtomicBool::new(true);
    for backend in [
        Backend::Interp,
        Backend::Parallel(2),
        Backend::Jit(&engine),
        Backend::Adaptive(&engine, 2),
    ] {
        let mut late = ExecCtx::new(&params).with_deadline(std::time::Instant::now());
        assert!(matches!(
            gmatch::execute_match_ctx(&mp, &snb.db, backend, &mut late),
            Err(QueryError::DeadlineExceeded)
        ));
        let mut stopped = ExecCtx::new(&params).with_cancel(&cancelled);
        assert!(matches!(
            gmatch::execute_match_ctx(&mp, &snb.db, backend, &mut stopped),
            Err(QueryError::Cancelled)
        ));
        // The no-deadline form still answers.
        assert!(!execute_match(&mp, &snb.db, backend, &params).unwrap().0.is_empty());
    }
}
