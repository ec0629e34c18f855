//! The fixed configuration. These are constants, not knobs: a result is
//! comparable with another only if both were produced under them, and
//! every one of them is written into the result's `meta`.

use std::time::Duration;

use gserver::{NetMode, ServerConfig};

/// Pool file size. Bench-scale data uses ~40 MiB of it; the rest is room
/// for the `update` workload's inserts. Only the used prefix is copied.
pub const POOL_BYTES: usize = 256 << 20;

/// Seed of the generated graph. A constant, not `--seed`: the generator's
/// node and relationship counts move several percent with its seed, and
/// scan cost moves with them, which put a seed-to-seed spread on the
/// scan workloads wider than any bound. `--seed` drives everything a
/// client sends: request kinds, parameters, arrival times, the sample
/// whose answers are checked.
pub const DATA_SEED: u64 = 1;

/// Client connections, one generator thread each (`nproc` is 2).
pub const CONNECTIONS: usize = 2;

/// The measured window is cut into this many equal slices;
/// `throughput_rps` and `*_p99_us` are medians of per-slice values.
pub const SLICES: usize = 5;

/// Set-ups per run. The first `SETUPS - 1` are torn down again; the
/// window runs on the last. `setup_s` is their median.
pub const SETUPS: usize = 3;

/// `GraphDb::open` calls on the post-run pool; `recovery_ms` is their median.
pub const RECOVERY_OPENS: usize = 5;

/// Times every prepared statement is executed per connection in the
/// (untimed-for-latency, timed-for-`setup_s`) warm-up. A request count,
/// not a duration, so `setup_s` moves when warm-up work does.
pub const WARMUP_ROUNDS: usize = 8;

/// Requests per class whose wire answer is compared with the oracle's.
pub const CHECKED_PER_CLASS: usize = 256;

/// A retryable error (`TXN_CONFLICT`, `SERVER_BUSY`) is re-sent this many
/// times before the request counts as failed. MVTO aborts a reader that
/// meets a write lock; a 70 ms snapshot build meets one now and then.
pub const MAX_RETRIES: u8 = 5;

/// Pause before the `attempt`-th re-send: 2, 4, … 10 ms. Re-sent at once,
/// a scan's morsel workers can keep both cores from the very writer whose
/// lock they ran into; six conflicts in a row within 9 ms were observed.
pub fn retry_backoff(attempt: u8) -> Duration {
    Duration::from_millis(2 * u64::from(attempt))
}

/// `mixed_open`: offered rate over both connections, requests per second.
pub const OPEN_RATE_RPS: f64 = 600.0;
/// `mixed_open` traffic mix: every block of 200 requests of a connection
/// holds exactly this many of each class (85 % / 12 % / 2.5 % / 0.5 %), in
/// a seeded order. Exact counts, because the 0.5 % are ~100 ms each: drawn
/// independently, their number per window would vary by a fifth and the
/// tail metrics with it.
pub const MIX_BLOCK: [(Class, usize); 4] = [
    (Class::Read, 170),
    (Class::Write, 24),
    (Class::Scan, 5),
    (Class::Analytics, 1),
];

/// `gserver.max_rate_ok_rps` ladder, requests per second.
pub const LADDER_RPS: [f64; 4] = [300.0, 600.0, 1200.0, 2400.0];

/// Default `--seconds` of `run` and `trace`: the issue's 20 s window.
/// `BENCHMARK.json` runs 12 s so that the driver's 114 runs fit its cap.
pub const FULL_WINDOW_S: u64 = 20;
/// `--quick`: a smoke run whose numbers are not comparable with anything.
pub const QUICK_WINDOW_S: u64 = 3;

/// Request classes. The discriminant indexes per-class arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Class {
    Read = 0,
    Write = 1,
    Scan = 2,
    Analytics = 3,
}

pub const CLASSES: [Class; 4] = [Class::Read, Class::Write, Class::Scan, Class::Analytics];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Write => "write",
            Class::Scan => "scan",
            Class::Analytics => "analytics",
        }
    }

    /// Latency limit behind `in_limit_share` / `miss_share`: a request
    /// answered later than this (from its due time on an open loop, from
    /// its send time on a closed one) missed.
    pub fn limit(self) -> Duration {
        Duration::from_millis(match self {
            Class::Read => 10,
            Class::Write => 20,
            Class::Scan => 100,
            Class::Analytics => 1000,
        })
    }
}

/// Data scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `SnbParams::bench`: 2 000 persons, ~20 k nodes, ~108 k relationships.
    Bench,
    /// `SnbParams::tiny`: `--quick` and unit tests only.
    Tiny,
}

impl Scale {
    pub fn params(self) -> ldbc::SnbParams {
        match self {
            Scale::Bench => ldbc::SnbParams::bench(DATA_SEED),
            Scale::Tiny => ldbc::SnbParams::tiny(DATA_SEED),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Bench => "SnbParams::bench(DATA_SEED)",
            Scale::Tiny => "SnbParams::tiny(DATA_SEED)",
        }
    }
}

/// The server under test. Everything not named keeps `Default`, which
/// reads `PMEMGRAPH_*`; `main` clears those first, so defaults are the
/// built-in ones.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        net_workers: 2,
        exec_threads: 2,
        net_mode: NetMode::Evented,
        pipeline_depth: 32,
        slow_query_us: u64::MAX,
        metrics_addr: None,
        maintenance_interval: std::time::Duration::from_secs(3600),
        ..ServerConfig::default()
    }
}

/// Remove every `PMEMGRAPH_*` variable so `gconfig` reports defaults.
/// Call before any thread is started.
pub fn clear_knob_env() {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PMEMGRAPH_"))
        .collect();
    for name in names {
        std::env::remove_var(name);
    }
}
