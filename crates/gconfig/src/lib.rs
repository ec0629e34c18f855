//! gconfig — the one home for every `PMEMGRAPH_*` environment knob.
//!
//! Before this crate, each subsystem parsed its own environment variables
//! with its own (mostly-but-not-quite identical) conventions:
//! `gtxn::commitpipe` read `PMEMGRAPH_GROUP_COMMIT`/`PMEMGRAPH_GROUP_WAIT_US`
//! and `gserver` read `PMEMGRAPH_METRICS_ADDR` and `PMEMGRAPH_SLOW_QUERY_US`.
//! Nothing enumerated them, so discovering the effective configuration of
//! a running server meant reading each source file. This crate collects the
//! parsing in one place and pairs it with a machine-readable registry
//! ([`KNOBS`], [`effective`]) that the server's `CONFIG` verb and the
//! suite's `meta` blocks dump verbatim.
//!
//! A knob is here because an operator needs it. Ablation switches (read
//! acceleration, allocation arenas) are not knobs: they are runtime setters
//! on the object they switch (`GraphDb::set_read_accel`,
//! `Pool::set_alloc_arenas`), default on.
//!
//! Conventions (unchanged from the scattered parsers):
//!
//! * boolean knobs are **on unless** the value is `0`, `false`, `off` or
//!   `no` (after trimming);
//! * numeric knobs fall back to their default on parse failure;
//! * knobs are read at use-site time, not cached — tests and benches that
//!   mutate the environment between database instances keep working.
//!
//! Layering: this crate depends on nothing, so everything from `pmem` up
//! can depend on it.

/// Value shape of one knob, for documentation and `CONFIG` rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobKind {
    /// On/off switch (`0`/`false`/`off`/`no` disable).
    Bool,
    /// Unsigned integer.
    U64,
    /// Free-form string (e.g. a socket address).
    Str,
}

/// One documented environment knob.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// Full environment-variable name.
    pub name: &'static str,
    pub kind: KnobKind,
    /// Rendered default (what an unset variable means).
    pub default: &'static str,
    /// One-line description for docs and the `CONFIG` verb.
    pub help: &'static str,
}

/// Every `PMEMGRAPH_*` knob the engine reads, in one table. README's knob
/// table and the server's `CONFIG` verb are both generated from this.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "PMEMGRAPH_GROUP_COMMIT",
        kind: KnobKind::Bool,
        default: "on",
        help: "group concurrent commits into one undo-log transaction (4 fences per group)",
    },
    Knob {
        name: "PMEMGRAPH_GROUP_WAIT_US",
        kind: KnobKind::U64,
        default: "3",
        help: "group-commit leader straggler wait bound in microseconds",
    },
    Knob {
        name: "PMEMGRAPH_SYNC_MODE",
        kind: KnobKind::Str,
        default: "per_txn",
        help: "durability ladder: per_txn | every=N (fence every N commits) | checkpoint (explicit CHECKPOINT only)",
    },
    Knob {
        name: "PMEMGRAPH_SLOW_QUERY_US",
        kind: KnobKind::U64,
        default: "disabled",
        help: "slow-query log threshold in microseconds (unset = never log)",
    },
    Knob {
        name: "PMEMGRAPH_METRICS_ADDR",
        kind: KnobKind::Str,
        default: "disabled",
        help: "standalone Prometheus exporter listen address (unset = no exporter)",
    },
    Knob {
        name: "PMEMGRAPH_CODE_CACHE_BYTES",
        kind: KnobKind::U64,
        default: "16777216",
        help: "LRU bound, in code bytes, of the on-disk compiled-code cache ({base}.jitcache)",
    },
    Knob {
        name: "PMEMGRAPH_NET_MODE",
        kind: KnobKind::Str,
        default: "evented",
        help: "network front end: evented (epoll reactor + fixed net-worker pool) | threaded (thread per connection; the fallback on non-Linux)",
    },
    Knob {
        name: "PMEMGRAPH_MAX_CONNS",
        kind: KnobKind::U64,
        default: "1024",
        help: "maximum concurrent connections (session-table bound; further connects get SERVER_BUSY)",
    },
    Knob {
        name: "PMEMGRAPH_PIPELINE_DEPTH",
        kind: KnobKind::U64,
        default: "32",
        help: "per-connection in-flight request cap; past it the reactor pauses the socket's read interest instead of erroring",
    },
    Knob {
        name: "PMEMGRAPH_NET_WORKERS",
        kind: KnobKind::U64,
        default: "0",
        help: "evented-mode request-processing threads (0 = auto: max(workers, 4)); also caps the lane count: min(this, cores) epoll lanes",
    },
];

/// Parse a boolean knob: on unless set to `0`/`false`/`off`/`no`. An unset
/// variable yields `default`.
pub fn flag(name: &str, default: bool) -> bool {
    match std::env::var(name) {
        Ok(v) => !matches!(v.trim(), "0" | "false" | "off" | "no"),
        Err(_) => default,
    }
}

/// Parse an unsigned-integer knob; unset or unparsable yields `default`.
pub fn u64_knob(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(default)
}

/// Read a string knob verbatim (empty counts as unset).
pub fn str_knob(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|s| !s.is_empty())
}

// ----------------------------------------------------------------------
// Typed accessors — the use-sites in pmem/gtxn/graphcore/gserver call
// these instead of re-implementing the parse.
// ----------------------------------------------------------------------

/// `PMEMGRAPH_GROUP_COMMIT` (default on).
pub fn group_commit() -> bool {
    flag("PMEMGRAPH_GROUP_COMMIT", true)
}

/// `PMEMGRAPH_GROUP_WAIT_US` (default 3 µs).
pub fn group_wait_us() -> u64 {
    u64_knob("PMEMGRAPH_GROUP_WAIT_US", 3)
}

/// `PMEMGRAPH_SYNC_MODE` raw value (default `per_txn`). Parsing into the
/// typed `SyncMode` lives in `gtxn` — this crate stays string-only so it
/// depends on nothing.
pub fn sync_mode() -> String {
    std::env::var("PMEMGRAPH_SYNC_MODE").unwrap_or_else(|_| "per_txn".into())
}

/// `PMEMGRAPH_SLOW_QUERY_US`: threshold in µs, `u64::MAX` (never) unset.
pub fn slow_query_us() -> u64 {
    u64_knob("PMEMGRAPH_SLOW_QUERY_US", u64::MAX)
}

/// `PMEMGRAPH_METRICS_ADDR`: exporter listen address, if configured.
pub fn metrics_addr() -> Option<String> {
    str_knob("PMEMGRAPH_METRICS_ADDR")
}

/// `PMEMGRAPH_CODE_CACHE_BYTES` (default 16 MiB): LRU bound of the
/// on-disk compiled-code cache, in code bytes.
pub fn code_cache_bytes() -> u64 {
    u64_knob("PMEMGRAPH_CODE_CACHE_BYTES", 16 << 20)
}

/// `PMEMGRAPH_NET_MODE` raw value (default `evented`). Parsing into the
/// typed mode enum lives in `gserver`.
pub fn net_mode() -> String {
    std::env::var("PMEMGRAPH_NET_MODE").unwrap_or_else(|_| "evented".into())
}

/// `PMEMGRAPH_MAX_CONNS` (default 1024): concurrent-connection bound.
/// Values below 1 are clamped to 1.
pub fn max_conns() -> u64 {
    u64_knob("PMEMGRAPH_MAX_CONNS", 1024).max(1)
}

/// `PMEMGRAPH_PIPELINE_DEPTH` (default 32): per-connection in-flight
/// request cap before read interest is paused. Clamped to at least 1.
pub fn pipeline_depth() -> u64 {
    u64_knob("PMEMGRAPH_PIPELINE_DEPTH", 32).max(1)
}

/// `PMEMGRAPH_NET_WORKERS` (default 0 = auto): evented-mode
/// request-processing threads; the lane count is capped by it.
pub fn net_workers() -> u64 {
    u64_knob("PMEMGRAPH_NET_WORKERS", 0)
}

/// One knob's effective state: `(name, value, is_default, help)`.
#[derive(Debug, Clone)]
pub struct Effective {
    pub name: &'static str,
    /// Rendered effective value (set value, or the rendered default).
    pub value: String,
    /// True if the variable is unset (the default applies).
    pub is_default: bool,
    pub help: &'static str,
}

/// Snapshot the effective value of every registered knob from the current
/// environment. This is what the server's `CONFIG` verb and the suite's
/// `meta` blocks serialize.
pub fn effective() -> Vec<Effective> {
    KNOBS
        .iter()
        .map(|k| {
            let set = std::env::var(k.name).ok().filter(|s| !s.is_empty());
            let is_default = set.is_none();
            let value = match (&set, k.kind) {
                (Some(v), KnobKind::Bool) => {
                    if matches!(v.trim(), "0" | "false" | "off" | "no") {
                        "off".into()
                    } else {
                        "on".into()
                    }
                }
                (Some(v), _) => v.clone(),
                (None, _) => k.default.into(),
            };
            Effective {
                name: k.name,
                value,
                is_default,
                help: k.help,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var tests mutate process state; keep them in one test so cargo's
    // parallel test runner cannot interleave them.
    #[test]
    fn parsing_and_effective_snapshot() {
        let name = "PMEMGRAPH_GCONFIG_TEST_FLAG";
        std::env::remove_var(name);
        assert!(flag(name, true));
        assert!(!flag(name, false));
        for off in ["0", "false", "off", "no", " off "] {
            std::env::set_var(name, off);
            assert!(!flag(name, true), "{off:?} must disable");
        }
        std::env::set_var(name, "1");
        assert!(flag(name, false));
        std::env::remove_var(name);

        std::env::remove_var("PMEMGRAPH_GCONFIG_TEST_NUM");
        assert_eq!(u64_knob("PMEMGRAPH_GCONFIG_TEST_NUM", 7), 7);
        std::env::set_var("PMEMGRAPH_GCONFIG_TEST_NUM", "41");
        assert_eq!(u64_knob("PMEMGRAPH_GCONFIG_TEST_NUM", 7), 41);
        std::env::set_var("PMEMGRAPH_GCONFIG_TEST_NUM", "nope");
        assert_eq!(u64_knob("PMEMGRAPH_GCONFIG_TEST_NUM", 7), 7);
        std::env::remove_var("PMEMGRAPH_GCONFIG_TEST_NUM");

        // Every registered knob renders an effective value.
        let eff = effective();
        assert_eq!(KNOBS.len(), 10, "a new knob needs an operator who sets it");
        assert_eq!(eff.len(), KNOBS.len());
        assert!(eff.iter().any(|e| e.name == "PMEMGRAPH_SYNC_MODE"));
        for e in &eff {
            assert!(!e.value.is_empty());
            assert!(!e.help.is_empty());
        }
    }

    #[test]
    fn sync_mode_defaults_to_per_txn() {
        // Only sound if no outer harness set it; guard accordingly.
        if std::env::var("PMEMGRAPH_SYNC_MODE").is_err() {
            assert_eq!(sync_mode(), "per_txn");
        }
    }
}
