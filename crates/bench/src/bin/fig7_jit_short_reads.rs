//! Figure 7: SR queries under the JIT engine vs AOT interpretation,
//! single-threaded, without indexes (scan-shaped pipelines), on DRAM and
//! PMem. Compile time reported separately.

use std::sync::Arc;

use bench::*;
use gjit::JitEngine;
use ldbc::{Mode, SrQuery};

fn main() {
    let params = scale_params(7);
    let n = runs();
    println!("# Figure 7 reproduction — SR queries, JIT vs AOT (no indexes)");
    println!("# scale: {params:?}, runs: {n}");

    let dram = setup_dram(&params.clone().without_indexes());
    let pmem = setup_pmem("fig7-pmem", &params.clone().without_indexes());
    println!("# data: {}", describe(&dram));

    let mut rows = Vec::new();
    for q in SrQuery::ALL {
        let mut cells = Vec::new();
        let mut compile_total = std::time::Duration::ZERO;
        for snb in [&dram, &pmem] {
            let spec = q.spec(&snb.codes).scan_variant();
            let pstream = sr_param_stream(q, snb, n, 7);

            // AOT.
            ldbc::run_spec(&snb.db, &spec, &pstream[0], &Mode::Interp).unwrap();
            cells.push(time_avg(n, |i| {
                ldbc::run_spec(&snb.db, &spec, &pstream[i], &Mode::Interp).unwrap();
            }));

            // JIT: prime the cache (first call compiles), then measure hot
            // compiled execution.
            let engine = Arc::new(JitEngine::new());
            let mode = Mode::Jit(&engine);
            ldbc::run_spec(&snb.db, &spec, &pstream[0], &mode).unwrap();
            cells.push(time_avg(n, |i| {
                ldbc::run_spec(&snb.db, &spec, &pstream[i], &mode).unwrap();
            }));

            // Compile time for this plan shape (sum across steps).
            let fresh = JitEngine::new();
            for step in &spec.steps {
                compile_total += fresh
                    .compile_uncached(&step.plan)
                    .expect("compile")
                    .compile_time;
            }
        }
        cells.push(compile_total / 2); // averaged over the two devices
        rows.push((q.name().to_string(), cells));
    }
    print_table(
        "Fig. 7 — SR latency: AOT vs JIT (scan plans)",
        &["DRAM-AOT", "DRAM-JIT", "PMem-AOT", "PMem-JIT", "compile"],
        &rows,
    );
    println!("\nExpected shape: JIT-compiled code always beats the AOT interpreter;");
    println!("compile time is a few ms and amortises after one or two executions,");
    println!("most profitably on the complex traversals (7-post / 7-cmt).");
}
