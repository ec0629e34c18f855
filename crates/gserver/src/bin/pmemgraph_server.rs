//! `pmemgraph-server` — stand-alone query server over a generated SNB
//! graph.
//!
//! Configuration is environment-driven (container-friendly):
//!
//! | variable          | default          | meaning                          |
//! |-------------------|------------------|----------------------------------|
//! | `ADDR`            | `127.0.0.1:7687` | bind address (`:0` = ephemeral)  |
//! | `SCALE`           | `small`          | `tiny` \| `small` \| `bench`     |
//! | `SEED`            | `42`             | data-generator seed              |
//! | `PMEM_PATH`       | *(unset = DRAM)* | file-backed persistent pool      |
//! | `POOL_MB`         | `1024`           | pool size in MiB                 |
//! | `WORKERS`         | `4`              | execution slots                  |
//! | `MAX_SESSIONS`    | `PMEMGRAPH_MAX_CONNS` (1024) | concurrent connections |
//! | `IDLE_TIMEOUT_MS` | `60000`          | session idle kill                |
//! | `DEADLINE_MS`     | `5000`           | default per-request deadline     |
//! | `EXEC_THREADS`    | `2`              | morsel threads per query         |
//! | `ALLOW_SHUTDOWN`  | `0`              | honour the remote `shutdown` op  |
//! | `DEBUG_OPS`       | `0`              | honour the `sleep` debug op      |
//!
//! Network front end and observability (read by `ServerConfig::default()`):
//!
//! | variable                   | default     | meaning                            |
//! |----------------------------|-------------|------------------------------------|
//! | `PMEMGRAPH_NET_MODE`       | `evented`   | `evented` (epoll lanes + net workers) \| `threaded` (thread per connection) |
//! | `PMEMGRAPH_MAX_CONNS`      | `1024`      | connection limit (`MAX_SESSIONS` overrides) |
//! | `PMEMGRAPH_PIPELINE_DEPTH` | `32`        | per-connection in-flight request cap |
//! | `PMEMGRAPH_NET_WORKERS`    | `0` (auto)  | evented request-execution threads; caps the lane count |
//! | `PMEMGRAPH_METRICS_ADDR`   | *(unset)*   | standalone Prometheus scrape port  |
//! | `PMEMGRAPH_SLOW_QUERY_US`  | *(disabled)*| slow-query capture threshold in µs |
//!
//! Prints `listening on <addr>` once ready (plus `metrics on <addr>` when
//! an exporter is configured); exits cleanly after a remote `shutdown`
//! (when enabled).

use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

use gjit::JitEngine;
use graphcore::DbOptions;
use gserver::{serve, ServerConfig};
use ldbc::SnbParams;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn env_flag(key: &str) -> bool {
    matches!(
        std::env::var(key).as_deref(),
        Ok("1") | Ok("true") | Ok("yes")
    )
}

fn main() {
    let seed = env_u64("SEED", 42);
    let params = match std::env::var("SCALE").as_deref() {
        Ok("tiny") => SnbParams::tiny(seed),
        Ok("bench") => SnbParams::bench(seed),
        _ => SnbParams::small(seed),
    };
    let pool_bytes = (env_u64("POOL_MB", 1024) as usize) << 20;
    let opts = match std::env::var("PMEM_PATH") {
        Ok(path) => DbOptions::pmem(&path, pool_bytes),
        Err(_) => DbOptions::dram(pool_bytes),
    };

    eprintln!("generating SNB graph ({} persons)...", params.persons);
    let snb = Arc::new(ldbc::generate(&params, opts).expect("generate graph"));
    eprintln!(
        "loaded: {} nodes, {} rels",
        snb.db.node_count(),
        snb.db.rel_count()
    );
    let engine = Arc::new(JitEngine::new());
    // A file-backed pool implies a stable home for the on-disk code cache
    // ({PMEM_PATH}.jitcache): compiled pipelines and residual predicates
    // survive restart alongside the graph itself.
    if let Ok(path) = std::env::var("PMEM_PATH") {
        engine.attach_disk_cache(std::path::Path::new(&path));
    }

    let config = ServerConfig {
        addr: std::env::var("ADDR").unwrap_or_else(|_| "127.0.0.1:7687".into()),
        workers: env_u64("WORKERS", 4) as usize,
        max_sessions: env_u64("MAX_SESSIONS", gconfig::max_conns()) as usize,
        idle_timeout: Duration::from_millis(env_u64("IDLE_TIMEOUT_MS", 60_000)),
        default_deadline: Duration::from_millis(env_u64("DEADLINE_MS", 5_000)),
        exec_threads: env_u64("EXEC_THREADS", 2) as usize,
        allow_remote_shutdown: env_flag("ALLOW_SHUTDOWN"),
        enable_debug_ops: env_flag("DEBUG_OPS"),
        ..ServerConfig::default()
    };

    let handle = serve(snb, engine, config).expect("bind server");
    println!(
        "listening on {} (net mode: {})",
        handle.local_addr(),
        handle.net_mode().as_str()
    );
    if let Some(maddr) = handle.metrics_addr() {
        println!("metrics on {maddr}");
    }
    std::io::stdout().flush().ok();

    handle.wait();
    println!("clean shutdown");
}
