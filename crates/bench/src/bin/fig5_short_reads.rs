//! Figure 5: Interactive Short Read latency across configurations.
//!
//! Series: DRAM-s / DRAM-p / DRAM-i, PMem-s / PMem-p / PMem-i, DISK-i.
//! `-s` = single-threaded without indexes (full scans), `-p` =
//! morsel-parallel without indexes, `-i` = indexed execution. Hot runs,
//! averaged over RUNS invocations with distinct input ids — the paper's
//! methodology (§7.3).

use bench::*;
use gdisk::SsdProfile;
use ldbc::{Mode, SrQuery};

fn main() {
    let params = scale_params(5);
    let n = runs();
    let nthreads = threads();
    println!("# Figure 5 reproduction — SR queries, hot runs");
    println!("# scale: {params:?}");

    let dram_noidx = setup_dram(&params.clone().without_indexes());
    let pmem_noidx = setup_pmem("fig5-pmem-noidx", &params.clone().without_indexes());
    let dram_idx = setup_dram(&params);
    let pmem_idx = setup_pmem("fig5-pmem-idx", &params);
    let disk = load_disk(&dram_idx, "fig5-disk", SsdProfile::nvme(), 2048);
    println!("# data: {}", describe(&dram_idx));
    println!("# threads for -p: {nthreads}, runs: {n}");

    let mut rows = Vec::new();
    for q in SrQuery::ALL {
        let scan_spec = q.spec(&dram_noidx.codes).scan_variant();
        let idx_spec = q.spec(&dram_idx.codes);
        let pstream = sr_param_stream(q, &dram_idx, n, 5);

        let mut cells = Vec::new();
        // DRAM-s / DRAM-p (scan variants on the index-less database).
        for mode in [Mode::Interp, Mode::Parallel(nthreads)] {
            ldbc::run_spec(&dram_noidx.db, &scan_spec, &pstream[0], &mode).unwrap();
            cells.push(time_avg(n, |i| {
                ldbc::run_spec(&dram_noidx.db, &scan_spec, &pstream[i], &mode).unwrap();
            }));
        }
        // DRAM-i.
        ldbc::run_spec(&dram_idx.db, &idx_spec, &pstream[0], &Mode::Interp).unwrap();
        cells.push(time_avg(n, |i| {
            ldbc::run_spec(&dram_idx.db, &idx_spec, &pstream[i], &Mode::Interp).unwrap();
        }));
        // PMem-s / PMem-p.
        for mode in [Mode::Interp, Mode::Parallel(nthreads)] {
            ldbc::run_spec(&pmem_noidx.db, &scan_spec, &pstream[0], &mode).unwrap();
            cells.push(time_avg(n, |i| {
                ldbc::run_spec(&pmem_noidx.db, &scan_spec, &pstream[i], &mode).unwrap();
            }));
        }
        // PMem-i.
        ldbc::run_spec(&pmem_idx.db, &idx_spec, &pstream[0], &Mode::Interp).unwrap();
        cells.push(time_avg(n, |i| {
            ldbc::run_spec(&pmem_idx.db, &idx_spec, &pstream[i], &Mode::Interp).unwrap();
        }));
        // DISK-i (hot buffer pool).
        disk_sr(&disk.graph, q, &pstream[0]);
        cells.push(time_avg(n, |i| {
            disk_sr(&disk.graph, q, &pstream[i]);
        }));

        rows.push((q.name().to_string(), cells));
    }
    print_table(
        "Fig. 5 — SR query latency (avg per query)",
        &["DRAM-s", "DRAM-p", "DRAM-i", "PMem-s", "PMem-p", "PMem-i", "DISK-i"],
        &rows,
    );
    println!("\nExpected shape: -i beats -s and -p by orders of magnitude (indexes");
    println!("matter more than parallelism for lookups); PMem within a small factor");
    println!("of DRAM; DISK-i slowest of the indexed configurations.");
}
