//! Figure 9: IU queries under the JIT engine — cold (first run, compile
//! included) vs hot (code cache hit) vs AOT, with index support, on DRAM
//! and PMem.

use std::sync::Arc;

use bench::*;
use gjit::JitEngine;
use ldbc::{IuQuery, Mode};

fn main() {
    let params = scale_params(9);
    let n = runs();
    println!("# Figure 9 reproduction — IU queries, JIT cold/hot vs AOT");
    println!("# scale: {params:?}, runs: {n}");

    let dram = setup_dram(&params);
    let pmem = setup_pmem("fig9-pmem", &params);
    println!("# data: {}", describe(&dram));

    let mut rows = Vec::new();
    for q in IuQuery::ALL {
        let mut cells = Vec::new();
        for snb in [&dram, &pmem] {
            let spec = q.spec(&snb.codes);
            let pstream = iu_param_stream(q, snb, n + 2, 9);

            // AOT.
            ldbc::run_spec(&snb.db, &spec, &pstream[n], &Mode::Interp).unwrap();
            cells.push(time_avg(n, |i| {
                ldbc::run_spec(&snb.db, &spec, &pstream[i], &Mode::Interp).unwrap();
            }));

            // JIT cold: fresh engine, first run pays compilation.
            let engine = Arc::new(JitEngine::new());
            let (cold, _) = time_once(|| {
                ldbc::run_spec(&snb.db, &spec, &pstream[n + 1], &Mode::Jit(&engine)).unwrap()
            });
            cells.push(cold);

            // JIT hot: code cache hits only.
            let pstream2 = iu_param_stream(q, snb, n, 99);
            cells.push(time_avg(n, |i| {
                ldbc::run_spec(&snb.db, &spec, &pstream2[i], &Mode::Jit(&engine)).unwrap();
            }));
        }
        rows.push((q.name().to_string(), cells));
    }
    print_table(
        "Fig. 9 — IU latency: AOT vs JIT cold vs JIT hot",
        &[
            "DR-AOT", "DR-cold", "DR-hot", "PM-AOT", "PM-cold", "PM-hot",
        ],
        &rows,
    );
    println!("\nExpected shape: compilation dominates these short indexed updates,");
    println!("so JIT-cold is far slower than AOT; with a hot code cache JIT matches");
    println!("or beats AOT — 'not always the best option to generate code at");
    println!("runtime' (§7.5), which is what the adaptive mode addresses.");
}
