//! Whole-engine recovery time — the paper's "near-instant recovery
//! guarantees" claim (§8). Measures `GraphDb::open` on the emulated PMem
//! device for increasing data sizes, hybrid vs volatile secondary indexes,
//! and the hybrid open's phases: pool/undo log, table scan, index reopening.
//!
//! ```sh
//! [SCALE=tiny ASSERT_RECOVERY=1] cargo run --release -p bench --bin recovery_times
//! ```

use bench::*;
use graphcore::{DbOptions, GraphDb};
use gstore::IndexKind;
use ldbc::{generate, SnbParams};
use pmem::DeviceProfile;

fn main() {
    let tiny = scale_name() == "tiny";
    let sizes: &[usize] = if tiny { &[60] } else { &[100, 500, 2000] };
    println!("# Engine recovery time vs data size (persistent pool, PMem profile)");
    println!(
        "{:>8} {:>8} {:>8} {:>13} {:>9} {:>9} {:>9} {:>15}",
        "persons", "nodes", "rels", "open(hybrid)", "pool/log", "scan", "indexes", "open(volatile)"
    );
    let mut phases = [graphcore::RecoveryReport::default(); 2];
    for &persons in sizes {
        let mut cells = Vec::new();
        let mut shape = (0, 0);
        for kind in [IndexKind::Hybrid, IndexKind::Volatile] {
            let path = tmpfile(&format!("recovery-{persons}-{kind:?}"));
            let mut params = SnbParams::small(persons as u64);
            params.persons = persons;
            params.index_kind = Some(kind);
            {
                let snb = generate(
                    &params,
                    DbOptions::pmem(&path, 2 << 30).profile(DeviceProfile::dram()),
                )
                .expect("generate");
                shape = (snb.db.node_count(), snb.db.rel_count());
                // Clean close.
            }
            let (t, db) = time_once(|| GraphDb::open(&path, DeviceProfile::pmem()).expect("open"));
            // Sanity: the reopened database answers immediately.
            assert_eq!(db.node_count(), shape.0);
            phases[cells.len()] = *db.recovery_report();
            cells.push(t);
            drop(db);
            let _ = std::fs::remove_file(&path);
        }
        println!(
            "{:>8} {:>8} {:>8} {:>13} {:>7.2}ms {:>7.2}ms {:>7.2}ms {:>15}",
            persons,
            shape.0,
            shape.1,
            fmt_dur(cells[0]),
            phases[0].pool_ms,
            phases[0].scan_ms,
            phases[0].index_ms,
            fmt_dur(cells[1])
        );
        // The index phase, not the total: a graph that fits the simulated CPU
        // cache is read from PMem once whichever phase gets to it first.
        let (hybrid, volatile) = (phases[0].index_ms, phases[1].index_ms);
        assert!(
            env_u64("ASSERT_RECOVERY", 0) == 0 || hybrid < volatile,
            "index reopen: hybrid {hybrid} ms, volatile {volatile} ms"
        );
    }
    println!("\n{} scan thread(s).", phases[0].workers);
    println!("Hybrid indexes rebuild only DRAM inner levels from persistent leaves; volatile");
    println!("indexes force a primary-data scan per index at open (the Fig. 8 recovery gap).");
}
