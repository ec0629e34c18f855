//! Figure 6: Interactive Update latency (execution + commit), hot and
//! cold, for PMem / DRAM / DISK with index support.

use bench::*;
use gdisk::SsdProfile;
use ldbc::{IuQuery, Mode};

fn main() {
    let params = scale_params(6);
    let n = runs();
    println!("# Figure 6 reproduction — IU queries (execute + commit)");
    println!("# scale: {params:?}, runs: {n}");

    let dram = setup_dram(&params);
    let pmem = setup_pmem("fig6-pmem", &params);
    let disk = load_disk(&dram, "fig6-disk", SsdProfile::nvme(), 2048);
    println!("# data: {}", describe(&dram));

    let mut hot_rows = Vec::new();
    let mut cold_rows = Vec::new();
    for q in IuQuery::ALL {
        let mut hot = Vec::new();
        let mut cold = Vec::new();

        // PMem and DRAM: separate execute and commit timings.
        for snb in [&pmem, &dram] {
            let spec = q.spec(&snb.codes);
            let pstream = iu_param_stream(q, snb, n + 1, 6);

            // Cold: first run with an evicted CPU-cache model.
            snb.db.pool().evict_cpu_cache();
            let (cold_exec, _) = time_once(|| {
                let mut txn = snb.db.begin();
                ldbc::run_spec_txn(&spec, &mut txn, &pstream[n], &Mode::Interp).unwrap();
                txn.commit().unwrap();
            });
            cold.push(cold_exec);

            // Hot: averaged execute and commit.
            let mut exec_total = std::time::Duration::ZERO;
            let mut commit_total = std::time::Duration::ZERO;
            for ps in pstream.iter().take(n) {
                let mut txn = snb.db.begin();
                let (e, _) = time_once(|| {
                    ldbc::run_spec_txn(&spec, &mut txn, ps, &Mode::Interp).unwrap()
                });
                let (c, _) = time_once(|| txn.commit().unwrap());
                exec_total += e;
                commit_total += c;
            }
            hot.push(exec_total / n as u32);
            hot.push(commit_total / n as u32);
        }

        // DISK: total (execute+commit through the WAL), hot and cold.
        let pstream = iu_param_stream(q, &dram, n + 1, 66);
        disk.graph.drop_caches();
        let (disk_cold, _) = time_once(|| disk_iu(&disk.graph, q, &pstream[n]));
        cold.push(disk_cold);
        disk_iu(&disk.graph, q, &pstream[0]);
        #[allow(clippy::needless_range_loop)]
        hot.push(time_avg(n, |i| {
            disk_iu(&disk.graph, q, &pstream[i]);
        }));

        hot_rows.push((q.name().to_string(), hot));
        cold_rows.push((q.name().to_string(), cold));
    }

    print_table(
        "Fig. 6a — IU hot runs",
        &["PM-exec", "PM-commit", "DR-exec", "DR-commit", "DISK-tot"],
        &hot_rows,
    );
    print_table(
        "Fig. 6b — IU cold (first) runs, total",
        &["PMem", "DRAM", "DISK"],
        &cold_rows,
    );
    println!("\nExpected shape: PMem within a small factor of DRAM for execution;");
    println!("commit costs dominated by the undo-log persist on PMem; DISK an order");
    println!("of magnitude slower even hot (WAL fsync + page write-back).");
}
