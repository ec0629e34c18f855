//! Workload correctness: every SR query agrees across all four execution
//! modes; every IU query commits its intended effect.

use std::sync::Arc;

use gjit::JitEngine;
use graphcore::{DbOptions, PropOwner, Value};
use gstore::PVal;
use ldbc::{generate, run_spec, run_spec_txn, IuQuery, Mode, SnbParams, SrQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn snb() -> ldbc::SnbDb {
    generate(&SnbParams::tiny(1234), DbOptions::dram(512 << 20)).unwrap()
}

#[test]
fn every_sr_query_returns_and_modes_agree() {
    let snb = snb();
    let engine = Arc::new(JitEngine::new());
    let engine_arc = Arc::new(JitEngine::new());
    let mut rng = StdRng::seed_from_u64(99);

    for q in SrQuery::ALL {
        let spec = q.spec(&snb.codes);
        // Several parameter draws so each query exercises variety.
        for round in 0..5 {
            let params = q.params(&snb, &mut rng);
            let base = run_spec(&snb.db, &spec, &params, &Mode::Interp).unwrap();
            for (mode, name) in [
                (Mode::Parallel(4), "parallel"),
                (Mode::Jit(&engine), "jit"),
                (Mode::Adaptive(&engine_arc, 4), "adaptive"),
            ] {
                let rows = run_spec(&snb.db, &spec, &params, &mode).unwrap();
                assert_eq!(
                    rows,
                    base,
                    "query {} round {round} mode {name} diverged",
                    q.name()
                );
            }
        }
    }
}

#[test]
fn is1_returns_profile_fields() {
    let snb = snb();
    let spec = SrQuery::Is1.spec(&snb.codes);
    let rows = run_spec(&snb.db, &spec, &[PVal::Int(0)], &Mode::Interp).unwrap();
    assert_eq!(rows.len(), 1, "person 0 has exactly one city");
    let row = &rows[0];
    assert_eq!(row.len(), 8);
    // firstName is a string value slot, city id an int.
    assert!(matches!(row[0].as_pval(), Some(PVal::Str(_))));
    assert!(matches!(row[5].as_pval(), Some(PVal::Int(_))));
}

#[test]
fn is2_is_sorted_desc_and_limited() {
    let snb = snb();
    let spec = SrQuery::Is2Post.spec(&snb.codes);
    // Find a person with posts: try everyone.
    let mut found = false;
    for pid in &snb.data.person_ids {
        let rows = run_spec(&snb.db, &spec, &[PVal::Int(*pid)], &Mode::Interp).unwrap();
        if rows.is_empty() {
            continue;
        }
        found = true;
        assert!(rows.len() <= 10);
        let dates: Vec<i64> = rows
            .iter()
            .map(|r| match r[2].as_pval() {
                Some(PVal::Date(d)) => d,
                other => panic!("not a date: {other:?}"),
            })
            .collect();
        for w in dates.windows(2) {
            assert!(w[0] >= w[1], "must be newest-first: {dates:?}");
        }
    }
    assert!(found, "at least one person must have posts");
}

#[test]
fn is3_returns_friends_of_known_person() {
    let snb = snb();
    let spec = SrQuery::Is3.spec(&snb.codes);
    let mut any = 0;
    for pid in snb.data.person_ids.iter().take(20) {
        let rows = run_spec(&snb.db, &spec, &[PVal::Int(*pid)], &Mode::Interp).unwrap();
        any += rows.len();
        for r in &rows {
            assert!(matches!(r[0].as_pval(), Some(PVal::Int(_))), "friend id");
        }
    }
    assert!(any > 0, "tiny graph must have friendships");
}

#[test]
fn is4_post_and_cmt_variants_hit_correct_label() {
    let snb = snb();
    let post_spec = SrQuery::Is4Post.spec(&snb.codes);
    let cmt_spec = SrQuery::Is4Cmt.spec(&snb.codes);
    let post_id = snb.data.post_ids[0];
    let cmt_id = snb.data.comment_ids[0];
    assert_eq!(
        run_spec(&snb.db, &post_spec, &[PVal::Int(post_id)], &Mode::Interp)
            .unwrap()
            .len(),
        1
    );
    assert_eq!(
        run_spec(&snb.db, &cmt_spec, &[PVal::Int(cmt_id)], &Mode::Interp)
            .unwrap()
            .len(),
        1
    );
    // Cross-label lookup yields nothing unless ids collide (post ids and
    // comment ids share one sequence, so they never collide).
    assert!(run_spec(&snb.db, &post_spec, &[PVal::Int(cmt_id)], &Mode::Interp)
        .unwrap()
        .is_empty());
}

#[test]
fn is6_cmt_resolves_root_post_forum() {
    let snb = snb();
    let spec = SrQuery::Is6Cmt.spec(&snb.codes);
    let cmt = snb.data.comment_ids[0];
    let rows = run_spec(&snb.db, &spec, &[PVal::Int(cmt)], &Mode::Interp).unwrap();
    assert_eq!(rows.len(), 1, "comment's root post has exactly one forum");
    // Forum title present.
    assert!(matches!(rows[0][1].as_pval(), Some(PVal::Str(_))));
}

#[test]
fn is7_knows_flag_is_boolean() {
    let snb = snb();
    let spec = SrQuery::Is7Post.spec(&snb.codes);
    let mut seen = 0;
    for post in snb.data.post_ids.iter().take(30) {
        let rows = run_spec(&snb.db, &spec, &[PVal::Int(*post)], &Mode::Interp).unwrap();
        for r in rows {
            assert!(matches!(r[6].as_pval(), Some(PVal::Bool(_))));
            seen += 1;
        }
    }
    assert!(seen > 0, "some posts must have replies");
}

#[test]
fn every_iu_commits_and_is_observable() {
    let snb = snb();
    let mut rng = StdRng::seed_from_u64(7);
    for q in IuQuery::ALL {
        let spec = q.spec(&snb.codes);
        let params = q.params(&snb, &mut rng);
        let rows = run_spec(&snb.db, &spec, &params, &Mode::Interp).unwrap();
        assert_eq!(rows.len(), 1, "IU{} must touch exactly one binding", q.name());
    }

    // IU1: the new person exists with its properties and city link.
    let tx = snb.db.begin();
    let new_person = tx
        .lookup_nodes("Person", "id", &Value::Int(snb.data.person_ids.len() as i64))
        .unwrap();
    assert_eq!(new_person.len(), 1, "IU1 person must exist");
    assert_eq!(
        tx.prop(PropOwner::Node(new_person[0]), "firstName").unwrap(),
        Some(Value::Str("Newy".into()))
    );
    assert_eq!(tx.degree(new_person[0], graphcore::Dir::Out).unwrap(), 1);
}

#[test]
fn iu_queries_work_via_jit_mode() {
    let snb = snb();
    let engine = Arc::new(JitEngine::new());
    let mut rng = StdRng::seed_from_u64(11);
    for q in IuQuery::ALL {
        let spec = q.spec(&snb.codes);
        let params = q.params(&snb, &mut rng);
        let rows = run_spec(&snb.db, &spec, &params, &Mode::Jit(&engine)).unwrap();
        assert_eq!(rows.len(), 1, "IU{} via JIT", q.name());
    }
    // Each distinct IU shape compiled exactly once.
    assert_eq!(
        engine.stats().compiles.load(std::sync::atomic::Ordering::Relaxed),
        8
    );
}

#[test]
fn iu7_reply_is_traversable_from_post() {
    let snb = snb();
    let mut rng = StdRng::seed_from_u64(5);
    let spec = IuQuery::Iu7.spec(&snb.codes);
    let params = IuQuery::Iu7.params(&snb, &mut rng);
    let new_comment_id = match params[3] {
        PVal::Int(i) => i,
        _ => unreachable!(),
    };
    run_spec(&snb.db, &spec, &params, &Mode::Interp).unwrap();

    // The reply must be reachable via IS7 on its parent post.
    let post_id = match params[0] {
        PVal::Int(i) => i,
        _ => unreachable!(),
    };
    let is7 = SrQuery::Is7Post.spec(&snb.codes);
    let rows = run_spec(&snb.db, &is7, &[PVal::Int(post_id)], &Mode::Interp).unwrap();
    let ids: Vec<i64> = rows
        .iter()
        .filter_map(|r| match r[0].as_pval() {
            Some(PVal::Int(i)) => Some(i),
            _ => None,
        })
        .collect();
    assert!(
        ids.contains(&new_comment_id),
        "new reply {new_comment_id} must appear in IS7 of post {post_id}: {ids:?}"
    );
}

#[test]
fn execution_and_commit_can_be_separated() {
    // The Fig. 6 measurement pattern: run_spec_txn then commit.
    let snb = snb();
    let mut rng = StdRng::seed_from_u64(3);
    let spec = IuQuery::Iu2.spec(&snb.codes);
    let params = IuQuery::Iu2.params(&snb, &mut rng);
    let mut txn = snb.db.begin();
    let rows = run_spec_txn(&spec, &mut txn, &params, &Mode::Interp).unwrap();
    assert_eq!(rows.len(), 1);
    txn.commit().unwrap();
}

#[test]
fn sr_queries_work_without_indexes_scan_fallback() {
    let snb = generate(
        &SnbParams::tiny(1234).without_indexes(),
        DbOptions::dram(512 << 20),
    )
    .unwrap();
    let spec = SrQuery::Is1.spec(&snb.codes);
    let rows = run_spec(&snb.db, &spec, &[PVal::Int(0)], &Mode::Interp).unwrap();
    assert_eq!(rows.len(), 1, "scan fallback must find person 0");
}

#[test]
fn workload_runs_under_pmem_latency_model() {
    // Sanity: the latency-injecting PMem profile changes timing only,
    // never results.
    let mut path = std::env::temp_dir();
    path.push(format!("ldbc-pmem-profile-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let pm = generate(
        &SnbParams::tiny(1234),
        DbOptions::pmem(&path, 512 << 20), // full pmem() latency profile
    )
    .unwrap();
    let dr = snb(); // same seed on DRAM
    let mut rng = StdRng::seed_from_u64(4242);
    for q in [SrQuery::Is1, SrQuery::Is3, SrQuery::Is7Post] {
        for _ in 0..3 {
            let params = q.params(&dr, &mut rng);
            let a = run_spec(&pm.db, &q.spec(&pm.codes), &params, &Mode::Interp).unwrap();
            let b = run_spec(&dr.db, &q.spec(&dr.codes), &params, &Mode::Interp).unwrap();
            assert_eq!(a.len(), b.len(), "{}", q.name());
        }
    }
    let mut rng2 = StdRng::seed_from_u64(5);
    let spec = IuQuery::Iu8.spec(&pm.codes);
    let params = IuQuery::Iu8.params(&pm, &mut rng2);
    assert_eq!(run_spec(&pm.db, &spec, &params, &Mode::Interp).unwrap().len(), 1);
    drop(pm);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn reopen_rebuilds_catalogs_and_serves_queries() {
    let mut path = std::env::temp_dir();
    path.push(format!("ldbc-reopen-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (persons, posts, comments);
    {
        let snb = generate(
            &SnbParams::tiny(77),
            DbOptions::pmem(&path, 512 << 20).profile(pmem::DeviceProfile::dram()),
        )
        .unwrap();
        persons = snb.data.person_ids.clone();
        posts = snb.data.post_ids.clone();
        comments = snb.data.comment_ids.clone();
    }
    {
        let snb = ldbc::reopen(&path, pmem::DeviceProfile::dram()).unwrap();
        assert_eq!(snb.data.person_ids, persons);
        let mut p = snb.data.post_ids.clone();
        p.sort_unstable();
        let mut p0 = posts.clone();
        p0.sort_unstable();
        assert_eq!(p, p0);
        assert_eq!(snb.data.comment_ids.len(), comments.len());

        // Queries run on the reopened instance; fresh ids don't collide.
        let mut rng = StdRng::seed_from_u64(42);
        let spec = SrQuery::Is1.spec(&snb.codes);
        let params = SrQuery::Is1.params(&snb, &mut rng);
        assert_eq!(run_spec(&snb.db, &spec, &params, &Mode::Interp).unwrap().len(), 1);
        let iu = IuQuery::Iu6.spec(&snb.codes);
        let params = IuQuery::Iu6.params(&snb, &mut rng);
        assert_eq!(run_spec(&snb.db, &iu, &params, &Mode::Interp).unwrap().len(), 1);
        let fresh = snb.data.fresh_message_id();
        assert!(!snb.data.post_ids.contains(&(fresh - 1)) || fresh - 1 > *snb.data.post_ids.last().unwrap_or(&-1));
    }
    let _ = std::fs::remove_file(&path);
}
