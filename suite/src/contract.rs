//! The part of `BENCHMARK.json` the binary must agree with: which
//! metrics the `bench` command prints, under which names and units.

use gserver::json::obj;
use gserver::Json;

use crate::report::WorkloadResult;
use crate::world::{err, Result};

/// Which code generator produced the numbers: the stand-in's version
/// string says it is one (see README, "Stand-ins"), the published crate's
/// is a bare version number.
pub fn jit_backend() -> String {
    format!("cranelift-codegen {}", cranelift_codegen::VERSION)
}

/// `end_to_end` of `BENCHMARK.json`: `(name, unit)`. Every workload
/// reports every one; `p50_us` is its primary request class's. `p99_us`
/// is printed by `run` but not listed: its ten-seed spread reaches 54 %
/// on this host (BASELINE.md), and the contract rejects a metric whose
/// spread exceeds a bound it caps at 25 %.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_rps", "1/s"),
    ("p50_us", "us"),
    ("in_limit_share", "share"),
    ("setup_s", "s"),
    ("recovery_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// `per_layer` of `BENCHMARK.json`: `(name, unit)`, in file order.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("ldbc.generate_s", "s"),
    ("suite.trace_overhead_share", "share"),
    ("suite.gen_late_p99_us", "us"),
    ("suite.replay_self_us", "us"),
    ("gserver.ping_rtt_us", "us"),
    ("gserver.wire_overhead_us", "us"),
    ("gserver.queue_p50_us", "us"),
    ("gserver.queue_p99_us", "us"),
    ("gserver.parse_us", "us"),
    ("gserver.resolve_us", "us"),
    ("gserver.serialize_us", "us"),
    ("gserver.rows_per_response", "1/req"),
    ("gserver.epoll_waits_per_req", "1/req"),
    ("gserver.reactor_wakeups_per_req", "1/req"),
    ("gserver.read_pauses", "count"),
    ("gserver.busy_share", "share"),
    ("gserver.max_rate_ok_rps", "1/s"),
    ("gmatch.plan_us", "us"),
    ("gmatch.exec_us", "us"),
    ("gmatch.rows_in_per_row_out", "ratio"),
    ("gquery.exec_interp_us", "us"),
    ("gquery.morsels_per_req", "1/req"),
    ("gquery.chunks_pruned_share", "share"),
    ("gquery.fast_path_share", "share"),
    ("gquery.residual_rows_per_req", "1/req"),
    ("gjit.compile_p50_us", "us"),
    ("gjit.compile_p99_us", "us"),
    ("gjit.expr_compile_us", "us"),
    ("gjit.exec_compiled_us", "us"),
    ("gjit.speedup_vs_interp", "ratio"),
    ("gjit.compiled_morsel_share", "share"),
    ("gjit.cache_hit_share", "share"),
    ("gjit.compiles", "count"),
    ("gjit.evictions", "count"),
    ("gjit.fallback_share", "share"),
    ("graphcore.begin_us", "us"),
    ("graphcore.index_lookup_us", "us"),
    ("graphcore.open_ms", "ms"),
    ("gstore.dict_lookup_us", "us"),
    ("gtxn.commit_us", "us"),
    ("gtxn.commit_2w_us", "us"),
    ("gtxn.group_size", "txn"),
    ("gtxn.conflict_share", "share"),
    ("pmem.fences_per_txn", "1/txn"),
    ("pmem.lines_per_txn", "1/txn"),
    ("pmem.blocks_per_txn", "1/txn"),
    ("pmem.allocs_per_txn", "1/txn"),
    ("pmem.write_bytes_per_txn", "B/txn"),
    ("pmem.pool_bytes_per_txn", "B/txn"),
    ("pmem.read_bytes_per_req", "B/req"),
    ("pmem.flush_line_ns", "ns"),
    ("pmem.fence_ns", "ns"),
    ("pmem.alloc_ns", "ns"),
    ("pmem.read_line_ns", "ns"),
    ("pmem.model_share", "share"),
    ("ganalytics.snapshot_build_ms", "ms"),
    ("ganalytics.snapshot_reuse_share", "share"),
    ("ganalytics.pagerank_ms", "ms"),
    ("ganalytics.bfs_ms", "ms"),
];

/// The `bench` command's last stdout line: `correct`, `attempted`,
/// `failed` and the metrics `BENCHMARK.json` lists for this kind of run.
pub fn result_line(result: &WorkloadResult, traced: bool) -> Result<Json> {
    let wanted: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let Some(m) = result.metric(name) else {
            return err(format!("the run did not produce {name}"));
        };
        if m.unit != *unit {
            return err(format!(
                "{name} is in {}, BENCHMARK.json says {unit}",
                m.unit
            ));
        }
        metrics.push((
            (*name).to_string(),
            obj(vec![
                ("value", Json::Float(m.value)),
                ("unit", Json::Str((*unit).into())),
            ]),
        ));
    }
    Ok(obj(vec![
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Int(result.attempted as i64)),
        ("failed", Json::Int(result.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;

    fn benchmark_json() -> Json {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Json::parse(std::fs::read_to_string(path).unwrap().trim()).unwrap()
    }

    fn named<'a>(doc: &'a Json, key: &str) -> Vec<(&'a str, Option<&'a str>)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|e| {
                (
                    e.get("name").and_then(Json::as_str).unwrap(),
                    e.get("unit").and_then(Json::as_str),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_bench_prints() {
        let doc = benchmark_json();
        let expect = |table: &[(&'static str, &'static str)]| -> Vec<(&str, Option<&str>)> {
            table.iter().map(|(n, u)| (*n, Some(*u))).collect()
        };
        assert_eq!(named(&doc, "end_to_end"), expect(&END_TO_END));
        assert_eq!(named(&doc, "per_layer"), expect(&PER_LAYER));
        let workloads: Vec<&str> = named(&doc, "workloads").into_iter().map(|w| w.0).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        for (entry, w) in doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(Workload::ALL)
        {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why()));
        }
        // One metric must be the set-up time, in seconds, lower is better.
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn benchmark_json_bounds_match_what_compare_applies() {
        let doc = benchmark_json();
        for e in doc.get("end_to_end").and_then(Json::as_array).unwrap() {
            let name = e.get("name").and_then(Json::as_str).unwrap();
            let ours = crate::report::bound_of(name).unwrap();
            assert_eq!(
                e.get("bound").and_then(Json::as_f64),
                Some(ours.bound),
                "{name}"
            );
            let better = e.get("better").and_then(Json::as_str).unwrap();
            assert_eq!(better == "higher", ours.higher_is_better, "{name}");
            assert!(ours.bound <= 0.25 && !ours.absolute);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metric =
            |name: &str, unit: &'static str| crate::report::Metric::new(name, 1.5, unit, 1);
        let result = WorkloadResult {
            workload: "point_read",
            attempted: 10,
            failed: 0,
            problems: Vec::new(),
            checked: 0,
            end_to_end: END_TO_END.iter().map(|(n, u)| metric(n, u)).collect(),
            per_layer: PER_LAYER.iter().map(|(n, u)| metric(n, u)).collect(),
            notes: Vec::new(),
        };
        for (traced, table_len) in [(false, END_TO_END.len()), (true, PER_LAYER.len())] {
            let line = result_line(&result, traced).unwrap();
            let Json::Obj(fields) = &line else {
                panic!("not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("no metrics")
            };
            assert_eq!(metrics.len(), table_len);
            assert!(!line.to_string().contains('\n'));
        }
        // A missing metric is an error, not a silent omission.
        let mut short = result.clone();
        short.end_to_end.pop();
        assert!(result_line(&short, false).is_err());
    }
}
