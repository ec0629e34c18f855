//! gserver ⇄ gobs bridge: one [`Registry`] per server instance, holding
//! every counter the engine already maintains as *fn-metrics* (closures
//! that read the authoritative atomic at snapshot time — no counter is
//! double-maintained) plus the server-owned request-latency histogram.
//!
//! The `STATS` verb, the `METRICS` verb and the standalone exporter all
//! read from snapshots of this registry (merged with [`gobs::global`],
//! which carries the span histograms recorded inside `gtxn`/`gjit`/
//! `gquery`), so every surface reports the same numbers.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use gjit::JitEngine;
use gobs::{Histogram, Registry, SlowLog};
use graphcore::shard::ShardedDb;
use graphcore::GraphDb;
use ldbc::SnbDb;

use crate::server::{ServerConfig, ServerStats};
use crate::session::SessionTable;

/// Register the per-shard metric families: one labeled series
/// (`shard="i"`) per shard for the commit/abort/conflict counters, the
/// pool's flush/fence tallies and the live node/relationship gauges. The
/// default single-pool server registers its one database as shard `0`, so
/// dashboards see the same families at every shard count;
/// a sharded deployment calls [`register_sharded_db`] instead.
pub fn register_shard_series(reg: &Registry, shards: &[Arc<GraphDb>]) {
    for (i, db) in shards.iter().enumerate() {
        let labels = format!("shard=\"{i}\"");
        macro_rules! stxn {
            ($name:expr, $help:expr, $field:ident) => {{
                let d = db.clone();
                reg.fn_counter_labeled($name, &labels, $help, move || {
                    d.mgr().stats().$field.load(Ordering::Relaxed)
                });
            }};
        }
        stxn!("pmemgraph_shard_txn_commits_total", "transactions committed, per shard", commits);
        stxn!("pmemgraph_shard_txn_aborts_total", "transactions aborted, per shard", aborts);
        stxn!("pmemgraph_shard_txn_conflicts_total", "write-write conflicts, per shard", conflicts);
        macro_rules! spm {
            ($name:expr, $help:expr, $field:ident) => {{
                let d = db.clone();
                reg.fn_counter_labeled($name, &labels, $help, move || {
                    d.pool().stats().snapshot().$field
                });
            }};
        }
        spm!("pmemgraph_shard_pmem_fences_total", "persist fences, per shard pool", fences);
        spm!(
            "pmemgraph_shard_pmem_lines_flushed_total",
            "cache lines flushed, per shard pool",
            lines_flushed
        );
        spm!(
            "pmemgraph_shard_pmem_write_bytes_total",
            "bytes written, per shard pool",
            write_bytes
        );
        {
            let d = db.clone();
            reg.fn_gauge_labeled("pmemgraph_shard_nodes", &labels, "live nodes, per shard", move || {
                d.node_count() as i64
            });
        }
        {
            let d = db.clone();
            reg.fn_gauge_labeled("pmemgraph_shard_rels", &labels, "live relationship records, per shard", move || {
                d.rel_count() as i64
            });
        }
    }
}

/// Register every shard of a [`ShardedDb`] plus the router's cross-shard
/// epoch-commit counter.
pub fn register_sharded_db(reg: &Registry, db: &Arc<ShardedDb>) {
    register_shard_series(reg, db.shards());
    let d = db.clone();
    reg.fn_counter(
        "pmemgraph_cross_shard_commits_total",
        "transactions committed through the two-phase epoch protocol",
        move || d.cross_commits(),
    );
}

/// Build the per-server registry. Closures capture `Arc` clones of the
/// stat-owning structures (never the server's `Shared`, which owns the
/// registry — that would leak a reference cycle). Returns the registry,
/// the request-latency histogram the dispatch loop records into, and the
/// pipeline-depth histogram the framing layer records into.
pub fn build_registry(
    stats: &Arc<ServerStats>,
    sessions: &Arc<SessionTable>,
    snb: &Arc<SnbDb>,
    engine: &Arc<JitEngine>,
    config: &ServerConfig,
    slowlog: &Arc<SlowLog>,
) -> (Registry, Histogram, Histogram) {
    let reg = Registry::new();

    // Server / exec counters: authoritative cells in `ServerStats`.
    macro_rules! srv {
        ($name:expr, $help:expr, $field:ident) => {{
            let s = stats.clone();
            reg.fn_counter($name, $help, move || s.$field.load(Ordering::Relaxed));
        }};
    }
    srv!("pmemgraph_server_requests_total", "request frames received", requests);
    srv!("pmemgraph_server_admitted_total", "executions admitted by the worker pool", admitted);
    srv!("pmemgraph_server_rejected_total", "executions rejected with SERVER_BUSY", rejected);
    srv!("pmemgraph_server_errors_total", "requests answered with an error", errors);
    srv!("pmemgraph_server_deadline_misses_total", "requests past their deadline", deadline_misses);
    srv!("pmemgraph_server_sessions_opened_total", "sessions accepted", sessions_opened);
    srv!("pmemgraph_server_sessions_expired_total", "sessions killed by idle timeout", sessions_expired);
    srv!(
        "pmemgraph_server_disconnect_rollbacks_total",
        "open transactions rolled back on disconnect",
        disconnect_rollbacks
    );
    srv!("pmemgraph_server_maintenance_runs_total", "maintenance ticks", maintenance_runs);
    srv!("pmemgraph_server_reclaimed_slots_total", "deleted slots reclaimed past the MVTO horizon", reclaimed_slots);
    srv!("pmemgraph_server_vacuumed_props_total", "superseded property versions vacuumed", vacuumed_props);
    srv!("pmemgraph_exec_interpreted_morsels_total", "morsels run by the AOT interpreter", interpreted_morsels);
    srv!("pmemgraph_exec_compiled_morsels_total", "morsels run as JIT-compiled code", compiled_morsels);
    srv!("pmemgraph_exec_chunks_pruned_total", "chunks skipped by zone-map pushdown", chunks_pruned);
    srv!(
        "pmemgraph_exec_fast_path_morsels_total",
        "morsels scanned via the MVTO single-version fast path",
        fast_path_morsels
    );
    srv!(
        "pmemgraph_exec_residual_rows_interp_total",
        "residual-filter rows evaluated by the AST interpreter",
        residual_rows_interp
    );
    srv!(
        "pmemgraph_exec_residual_rows_compiled_total",
        "residual-filter rows evaluated by compiled expressions",
        residual_rows_compiled
    );
    {
        // Combined family kept for existing dashboards; the split series
        // above are the authoritative cells.
        let s = stats.clone();
        reg.fn_counter(
            "pmemgraph_exec_residual_rows_total",
            "rows evaluated by residual filters after pruning",
            move || {
                s.residual_rows_interp.load(Ordering::Relaxed)
                    + s.residual_rows_compiled.load(Ordering::Relaxed)
            },
        );
    }
    srv!("pmemgraph_exec_fallback_total", "requests whose profile recorded a fallback", fallback_total);

    // Network front-end series (both modes maintain open_conns and
    // accepts_failed; the lane/backpressure counters move only under
    // PMEMGRAPH_NET_MODE=evented, summed over lanes).
    srv!(
        "pmemgraph_server_accepts_failed_total",
        "accept() failures retried with bounded backoff (EMFILE/ECONNABORTED etc.)",
        accepts_failed
    );
    srv!(
        "pmemgraph_server_reactor_wakeups_total",
        "eventfd nudges delivered to a parked lane",
        reactor_wakeups
    );
    srv!(
        "pmemgraph_server_epoll_waits_total",
        "epoll_wait calls made by the lanes",
        epoll_waits
    );
    srv!(
        "pmemgraph_server_read_pauses_total",
        "connections paused for backpressure (pipeline cap or global inflight watermark)",
        read_pauses
    );
    srv!(
        "pmemgraph_server_lane_requests_total",
        "requests answered by the lane that read them (cannot-block rule)",
        lane_requests
    );
    srv!(
        "pmemgraph_server_lane_moves_total",
        "connections moved to lane 0 because a request needed a net worker",
        lane_moves
    );
    {
        let lanes = match config.net_mode {
            crate::server::NetMode::Evented => config.lane_count() as i64,
            crate::server::NetMode::Threaded => 0,
        };
        reg.fn_gauge("pmemgraph_server_lanes", "evented lanes (epoll threads); 0 under thread-per-connection", move || lanes);
    }
    {
        let s = stats.clone();
        reg.fn_gauge("pmemgraph_server_open_conns", "connections currently open", move || {
            s.open_conns.load(Ordering::Relaxed) as i64
        });
    }
    {
        let s = stats.clone();
        reg.fn_gauge(
            "pmemgraph_server_net_inflight",
            "decoded requests not yet answered (evented mode)",
            move || s.net_inflight.load(Ordering::Relaxed) as i64,
        );
    }
    {
        let evented = (config.net_mode == crate::server::NetMode::Evented) as i64;
        reg.fn_gauge(
            "pmemgraph_server_net_evented",
            "1 when the epoll front end is serving, 0 under thread-per-connection",
            move || evented,
        );
    }

    // MVTO transaction counters: authoritative cells in the txn manager.
    macro_rules! txn {
        ($name:expr, $help:expr, $field:ident) => {{
            let db = snb.clone();
            reg.fn_counter($name, $help, move || {
                db.db.mgr().stats().$field.load(Ordering::Relaxed)
            });
        }};
    }
    txn!("pmemgraph_txn_begun_total", "transactions begun", begun);
    txn!("pmemgraph_txn_commits_total", "transactions committed", commits);
    txn!("pmemgraph_txn_aborts_total", "transactions aborted", aborts);
    txn!("pmemgraph_txn_conflicts_total", "write-write conflicts detected", conflicts);
    txn!("pmemgraph_txn_gc_pruned_total", "versions pruned by MVTO GC", gc_pruned);

    // JIT engine counters and code-cache gauges.
    macro_rules! jit {
        ($name:expr, $help:expr, $field:ident) => {{
            let e = engine.clone();
            reg.fn_counter($name, $help, move || e.stats().$field.load(Ordering::Relaxed));
        }};
    }
    jit!("pmemgraph_jit_compiles_total", "plans compiled by Cranelift", compiles);
    jit!("pmemgraph_jit_cache_hits_total", "code-cache hits", cache_hits);
    jit!("pmemgraph_jit_evictions_total", "code-cache LRU evictions", evictions);
    {
        let e = engine.clone();
        reg.fn_gauge("pmemgraph_jit_code_cache_entries", "compiled pipelines and expressions resident in the code cache", move || {
            e.code_cache_len() as i64
        });
    }
    {
        let e = engine.clone();
        reg.fn_gauge("pmemgraph_jit_code_cache_capacity", "code-cache capacity", move || {
            e.code_cache_capacity() as i64
        });
    }
    {
        let e = engine.clone();
        reg.fn_gauge(
            "pmemgraph_jit_expr_cache_entries",
            "compiled residual expressions resident in memory",
            move || e.expr_cache_len() as i64,
        );
    }
    {
        let e = engine.clone();
        reg.fn_gauge(
            "pmemgraph_jit_disk_cache_entries",
            "code objects held in the on-disk code cache",
            move || e.disk_cache_len() as i64,
        );
    }
    {
        let e = engine.clone();
        reg.fn_gauge(
            "pmemgraph_jit_cache_bytes",
            "bytes of compiled code in the on-disk cache (bounded by PMEMGRAPH_CODE_CACHE_BYTES)",
            move || e.disk_cache_bytes().min(i64::MAX as u64) as i64,
        );
    }

    // PMem pool counters (flush/fence/allocator/group-commit).
    macro_rules! pm {
        ($name:expr, $help:expr, $field:ident) => {{
            let db = snb.clone();
            reg.fn_counter($name, $help, move || {
                db.db.pool().stats().snapshot().$field
            });
        }};
    }
    pm!("pmemgraph_pmem_lines_flushed_total", "cache lines flushed (CLWB-equivalent)", lines_flushed);
    pm!("pmemgraph_pmem_fences_total", "persist fences (SFENCE-equivalent)", fences);
    pm!("pmemgraph_pmem_blocks_flushed_total", "coalesced block flushes", blocks_flushed);
    pm!("pmemgraph_pmem_write_bytes_total", "bytes written to the pool", write_bytes);
    pm!("pmemgraph_pmem_read_bytes_total", "bytes read from the pool", read_bytes);
    pm!("pmemgraph_pmem_allocs_total", "pool allocations", allocs);
    pm!("pmemgraph_pmem_arena_refills_total", "sharded-arena refills from the global pool", arena_refills);
    pm!("pmemgraph_pmem_commit_groups_total", "group-commit batches applied", commit_groups);
    pm!("pmemgraph_pmem_grouped_txns_total", "transactions riding group-commit batches", grouped_txns);

    // Level gauges.
    {
        let s = sessions.clone();
        reg.fn_gauge("pmemgraph_server_sessions_active", "live sessions", move || {
            s.active_count() as i64
        });
    }
    {
        let s = sessions.clone();
        reg.fn_gauge("pmemgraph_server_sessions_in_txn", "sessions holding an open transaction", move || {
            s.in_txn_count() as i64
        });
    }
    {
        let workers = config.workers as i64;
        reg.fn_gauge("pmemgraph_server_workers", "execution slots (admission semaphore size)", move || workers);
    }
    {
        let threads = config.exec_threads as i64;
        reg.fn_gauge("pmemgraph_server_exec_threads", "morsel threads per adaptive execution", move || threads);
    }
    {
        let db = snb.clone();
        reg.fn_gauge("pmemgraph_graph_nodes", "live nodes", move || db.db.node_count() as i64);
    }
    {
        let db = snb.clone();
        reg.fn_gauge("pmemgraph_graph_rels", "live relationships", move || db.db.rel_count() as i64);
    }

    // Slow-query log health.
    {
        let l = slowlog.clone();
        reg.fn_gauge("pmemgraph_slowlog_entries", "slow-query entries currently held", move || {
            l.len() as i64
        });
    }
    {
        let l = slowlog.clone();
        reg.fn_counter("pmemgraph_slowlog_dropped_total", "slow-query entries evicted by the ring bound", move || {
            l.dropped()
        });
    }
    {
        let l = slowlog.clone();
        reg.fn_gauge("pmemgraph_slowlog_threshold_us", "active slow-query threshold (µs; i64::MAX = disabled)", move || {
            l.threshold_us().min(i64::MAX as u64) as i64
        });
    }

    // Per-shard families: the single-pool server is shard 0, so the
    // labeled series exist at every shard count.
    register_shard_series(&reg, std::slice::from_ref(&snb.db));

    let request_us = reg.histogram(
        "pmemgraph_server_request_us",
        "end-to-end execute-request latency (resolve, admission, execution, serialization)",
    );
    // Unit-less log₂ histogram: each observation is the number of requests
    // in flight on a connection when one more is decoded.
    let pipeline_depth = reg.histogram(
        "pmemgraph_server_pipeline_depth",
        "per-connection in-flight requests observed at decode time (count, not µs)",
    );
    (reg, request_us, pipeline_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gobs::Snapshot;
    use graphcore::shard::ShardOptions;

    #[test]
    fn sharded_registration_exposes_labeled_series() {
        let db = Arc::new(ShardedDb::create(ShardOptions::dram(48 << 20).shards(4)).unwrap());
        let mut tx = db.begin();
        let ids: Vec<_> = (0..4).map(|_| tx.create_node("N", &[]).unwrap()).collect();
        tx.create_rel(ids[0], "E", ids[1], &[]).unwrap();
        tx.commit().unwrap();

        let reg = Registry::new();
        register_sharded_db(&reg, &db);
        let snap = Snapshot::collect(&[&reg]);
        for i in 0..4 {
            let labels = format!("shard=\"{i}\"");
            assert_eq!(
                snap.value_labeled("pmemgraph_shard_nodes", &labels),
                Some(1),
                "round-robin put one node on shard {i}"
            );
            assert!(snap.value_labeled("pmemgraph_shard_txn_commits_total", &labels).is_some());
        }
        assert_eq!(snap.sum("pmemgraph_shard_nodes"), Some(4));
        assert_eq!(
            snap.value("pmemgraph_cross_shard_commits_total"),
            Some(1),
            "the multi-shard txn committed via the epoch protocol"
        );
        // The labeled families render as grammatically valid exposition.
        let text = gobs::render(&snap);
        gobs::validate_exposition(&text).expect("valid exposition");
        assert!(text.contains("pmemgraph_shard_nodes{shard=\"3\"} 1"));
    }

    #[test]
    fn single_db_registers_as_shard_zero() {
        let db = Arc::new(
            graphcore::GraphDb::create(graphcore::DbOptions::dram(48 << 20)).unwrap(),
        );
        let mut tx = db.begin();
        tx.create_node("N", &[]).unwrap();
        tx.commit().unwrap();
        let reg = Registry::new();
        register_shard_series(&reg, std::slice::from_ref(&db));
        let snap = Snapshot::collect(&[&reg]);
        assert_eq!(snap.value_labeled("pmemgraph_shard_nodes", "shard=\"0\""), Some(1));
        assert_eq!(snap.value_labeled("pmemgraph_shard_rels", "shard=\"0\""), Some(0));
    }
}
