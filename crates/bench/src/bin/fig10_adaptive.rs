//! Figure 10: adaptive execution (interpret morsels while compiling in the
//! background, then switch) vs multi-threaded AOT, on DRAM and PMem,
//! scan-shaped SR pipelines.

use std::sync::Arc;

use bench::*;
use gjit::JitEngine;
use ldbc::{Mode, SrQuery};

fn main() {
    let params = scale_params(10);
    let n = runs();
    let nthreads = threads();
    println!("# Figure 10 reproduction — adaptive vs multi-threaded AOT");
    println!("# scale: {params:?}, runs: {n}, threads: {nthreads}");

    let dram = setup_dram(&params.clone().without_indexes());
    let pmem = setup_pmem("fig10-pmem", &params.clone().without_indexes());
    println!("# data: {}", describe(&dram));

    let mut rows = Vec::new();
    let mut switch_info = Vec::new();
    for q in SrQuery::ALL {
        let mut cells = Vec::new();
        for snb in [&dram, &pmem] {
            let spec = q.spec(&snb.codes).scan_variant();
            let pstream = sr_param_stream(q, snb, n, 10);

            // Multi-threaded AOT.
            let mode = Mode::Parallel(nthreads);
            ldbc::run_spec(&snb.db, &spec, &pstream[0], &mode).unwrap();
            cells.push(time_avg(n, |i| {
                ldbc::run_spec(&snb.db, &spec, &pstream[i], &mode).unwrap();
            }));

            // Adaptive: a FRESH engine per run so every execution pays (and
            // hides) compilation, like a first-seen query.
            cells.push(time_avg(n, |i| {
                let engine = Arc::new(JitEngine::new());
                let mode = Mode::Adaptive(&engine, nthreads);
                ldbc::run_spec(&snb.db, &spec, &pstream[i], &mode).unwrap();
            }));

            // Adaptive with a warm code cache (steady state).
            let engine = Arc::new(JitEngine::new());
            let mode = Mode::Adaptive(&engine, nthreads);
            ldbc::run_spec(&snb.db, &spec, &pstream[0], &mode).unwrap();
            cells.push(time_avg(n, |i| {
                ldbc::run_spec(&snb.db, &spec, &pstream[i], &mode).unwrap();
            }));
        }
        // Record how the switch behaves on PMem (fresh engine).
        let spec = q.spec(&pmem.codes).scan_variant();
        if let Some(first) = spec.steps.first() {
            if matches!(first.plan.ops.first(), Some(gquery::Op::NodeScan { .. })) {
                let engine = Arc::new(JitEngine::new());
                let pstream = sr_param_stream(q, &pmem, 1, 1010);
                let mut txn = pmem.db.begin();
                let mut ctx = gquery::ExecCtx::new(&pstream[0]);
                let mode = Mode::Adaptive(&engine, nthreads);
                if ldbc::run_plan_ctx(&first.plan, &mut txn, &mut ctx, &mode).is_ok() {
                    switch_info.push(format!(
                        "{:>7}: {} interpreted + {} compiled morsels",
                        q.name(),
                        ctx.profile.interpreted_morsels,
                        ctx.profile.compiled_morsels
                    ));
                }
            }
        }
        rows.push((q.name().to_string(), cells));
    }
    print_table(
        "Fig. 10 — adaptive vs multi-threaded AOT (scan plans)",
        &[
            "DR-AOTp", "DR-adapt", "DR-warm", "PM-AOTp", "PM-adapt", "PM-warm",
        ],
        &rows,
    );
    println!("\nSwitch behaviour on PMem (fresh engine, one run):");
    for line in switch_info {
        println!("  {line}");
    }
    println!(
        "\nNote: this host exposes {} hardware thread(s); with a single core the",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    println!("background compilation of the fresh-engine 'adapt' column cannot be");
    println!("hidden behind interpretation — the 'warm' column isolates the");
    println!("post-switch benefit the paper attributes to adaptive execution.");
    println!("\nExpected shape: adaptive is at worst on par with multi-threaded AOT");
    println!("and wins as soon as compilation finishes mid-scan; PMem benefits most");
    println!("(higher access latency leaves more time to hide compilation), and the");
    println!("complex queries (7-post/7-cmt) gain the most from compiled code.");
}
