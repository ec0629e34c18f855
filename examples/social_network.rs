//! The paper's workload end to end: generate an LDBC-SNB-like social
//! network, then run the Interactive Short Read queries through all four
//! execution modes (AOT single-threaded, morsel-parallel, JIT, adaptive)
//! and an update mix, printing per-mode latencies.
//!
//! ```sh
//! cargo run --release --example social_network
//! ```

use std::sync::Arc;
use std::time::Instant;

use pmemgraph::gjit::JitEngine;
use pmemgraph::graphcore::DbOptions;
use pmemgraph::ldbc::{generate, run_spec, IuQuery, Mode, SnbParams, SrQuery};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("generating SNB-like social network...");
    let snb = generate(&SnbParams::small(42), DbOptions::dram(1 << 30))?;
    println!(
        "  {} persons, {} posts, {} comments, {} nodes, {} relationships",
        snb.data.person_ids.len(),
        snb.data.post_ids.len(),
        snb.data.comment_ids.len(),
        snb.db.node_count(),
        snb.db.rel_count()
    );

    let engine = Arc::new(JitEngine::new());
    let engine_arc = Arc::new(JitEngine::new());
    let mut rng = pmemgraph::ldbc::gen::SnbParams::small(42).seed; // seed base
    let mut next = move || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        rng
    };

    println!("\nInteractive Short Reads (avg of 10 runs each):");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "query", "AOT-1", "AOT-parallel", "JIT", "adaptive"
    );
    for q in SrQuery::ALL {
        let spec = q.spec(&snb.codes);
        let mut cells = Vec::new();
        for mode in [
            Mode::Interp,
            Mode::Parallel(4),
            Mode::Jit(&engine),
            Mode::Adaptive(&engine_arc, 4),
        ] {
            // Warm + measure.
            let mut rng2 = rand_like(next());
            let params = q.params(&snb, &mut rng2);
            run_spec(&snb.db, &spec, &params, &mode)?;
            let start = Instant::now();
            for _ in 0..10 {
                let params = q.params(&snb, &mut rng2);
                run_spec(&snb.db, &spec, &params, &mode)?;
            }
            cells.push(start.elapsed() / 10);
        }
        println!(
            "{:>8} {:>12?} {:>12?} {:>12?} {:>12?}",
            q.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
    }

    println!("\nInteractive Updates (AOT, avg of 10 runs incl. commit):");
    for q in IuQuery::ALL {
        let spec = q.spec(&snb.codes);
        let mut rng2 = rand_like(next());
        let start = Instant::now();
        for _ in 0..10 {
            let params = q.params(&snb, &mut rng2);
            run_spec(&snb.db, &spec, &params, &Mode::Interp)?;
        }
        println!("  IU{:<2} {:?}", q.name(), start.elapsed() / 10);
    }
    println!(
        "\nengine stats: {} commits, {} aborts, {} version-chain entries live",
        snb.db
            .mgr()
            .stats()
            .commits
            .load(std::sync::atomic::Ordering::Relaxed),
        snb.db
            .mgr()
            .stats()
            .aborts
            .load(std::sync::atomic::Ordering::Relaxed),
        snb.db.mgr().version_count()
    );
    Ok(())
}

fn rand_like(seed: u64) -> impl rand::Rng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}
