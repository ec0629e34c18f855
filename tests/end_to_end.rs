//! Whole-system integration: generate → query (all modes) → update →
//! crash → recover → re-query, on a persistent PMem-emulated pool.

use pmemgraph::gjit::JitEngine;
use pmemgraph::graphcore::{DbOptions, GraphDb, PropOwner, Value};
use pmemgraph::gstore::PVal;
use pmemgraph::ldbc::{self, generate, IuQuery, Mode, SnbParams, SrQuery};
use pmemgraph::pmem::{CrashPolicy, DeviceProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn tmpfile(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pmemgraph-e2e-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn full_lifecycle_on_persistent_pool() {
    let path = tmpfile("lifecycle");

    // Phase 1: generate on a persistent pool (no injected latency to keep
    // the test fast), run reads and updates, then simulate a crash.
    let snapshot_checks: Vec<(SrQuery, Vec<PVal>, usize)>;
    {
        let snb = generate(
            &SnbParams::tiny(2024),
            DbOptions::pmem(&path, 512 << 20)
                .profile(DeviceProfile::dram())
                .crash_tracking(true),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(77);

        // Record expected results for a few queries.
        snapshot_checks = SrQuery::ALL
            .iter()
            .map(|&q| {
                let params = q.params(&snb, &mut rng);
                let rows = ldbc::run_spec(
                    &snb.db,
                    &q.spec(&snb.codes),
                    &params,
                    &Mode::Interp,
                )
                .unwrap();
                (q, params, rows.len())
            })
            .collect();

        // Commit some updates.
        for q in IuQuery::ALL {
            let params = q.params(&snb, &mut rng);
            ldbc::run_spec(&snb.db, &q.spec(&snb.codes), &params, &Mode::Interp).unwrap();
        }

        // Start an update that will never commit, then crash.
        let person0 = {
            let tx = snb.db.begin();
            tx.lookup_nodes("Person", "id", &Value::Int(0)).unwrap()[0]
        };
        let mut tx = snb.db.begin();
        tx.set_prop(PropOwner::Node(person0), "firstName", Value::from("GONE"))
            .unwrap();
        std::mem::forget(tx);
        snb.db
            .pool()
            .simulate_crash(CrashPolicy::DropUnflushed)
            .unwrap();
        std::mem::forget(snb.db);
    }

    // Phase 2: reopen, verify recovery and re-run the recorded queries.
    {
        let db = GraphDb::open(&path, DeviceProfile::dram()).unwrap();
        let codes = ldbc::SnbCodes::resolve(&db).unwrap();

        // The aborted update vanished.
        let tx = db.begin();
        let person0 = tx.lookup_nodes("Person", "id", &Value::Int(0)).unwrap()[0];
        let name = tx.prop(PropOwner::Node(person0), "firstName").unwrap();
        assert_ne!(name, Some(Value::Str("GONE".into())));
        drop(tx);

        // Read queries still answer; committed IU effects are durable
        // (e.g. the IU1 person exists).
        for (q, params, expected) in &snapshot_checks {
            let rows =
                ldbc::run_spec(&db, &q.spec(&codes), params, &Mode::Interp).unwrap();
            // Updates may have added replies/likes, so IS7-style queries can
            // only grow; everything else must match exactly.
            assert!(
                rows.len() >= *expected,
                "{}: {} < {expected}",
                q.name(),
                rows.len()
            );
        }
        let tx = db.begin();
        let new_person = tx.lookup_nodes("Person", "id", &Value::Int(60)).unwrap();
        assert_eq!(new_person.len(), 1, "IU1 person survives the crash");
        drop(tx);

        // Phase 3: the reopened database accepts new work in every mode.
        let engine = Arc::new(JitEngine::new());
        let engine_arc = Arc::new(JitEngine::new());
        let spec = SrQuery::Is1.spec(&codes);
        let base = ldbc::run_spec(&db, &spec, &[PVal::Int(3)], &Mode::Interp).unwrap();
        for mode in [
            Mode::Parallel(2),
            Mode::Jit(&engine),
            Mode::Adaptive(&engine_arc, 2),
        ] {
            assert_eq!(
                ldbc::run_spec(&db, &spec, &[PVal::Int(3)], &mode).unwrap(),
                base
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn pmem_and_dram_configurations_agree() {
    // The same seed must produce semantically identical graphs on both
    // devices, and every query must return identical row counts.
    let path = tmpfile("agree");
    let dram = generate(&SnbParams::tiny(5), DbOptions::dram(512 << 20)).unwrap();
    let pmem = generate(
        &SnbParams::tiny(5),
        DbOptions::pmem(&path, 512 << 20).profile(DeviceProfile::dram()),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    for q in SrQuery::ALL {
        for _ in 0..3 {
            let params = q.params(&dram, &mut rng);
            let a = ldbc::run_spec(&dram.db, &q.spec(&dram.codes), &params, &Mode::Interp)
                .unwrap();
            let b = ldbc::run_spec(&pmem.db, &q.spec(&pmem.codes), &params, &Mode::Interp)
                .unwrap();
            assert_eq!(a.len(), b.len(), "query {}", q.name());
        }
    }
    drop(pmem);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn scan_variant_equals_indexed_results() {
    // The Fig. 5 "-s" configuration (scans) must compute the same answers
    // as the indexed configuration.
    let snb = generate(&SnbParams::tiny(9), DbOptions::dram(512 << 20)).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    for q in SrQuery::ALL {
        let spec = q.spec(&snb.codes);
        let scan = spec.scan_variant();
        for _ in 0..3 {
            let params = q.params(&snb, &mut rng);
            let a = ldbc::run_spec(&snb.db, &spec, &params, &Mode::Interp).unwrap();
            let b = ldbc::run_spec(&snb.db, &scan, &params, &Mode::Interp).unwrap();
            assert_eq!(a, b, "query {}", q.name());
        }
    }
}
