//! Analytics metrics and spans, registered lazily in the process-global
//! [`gobs`] registry (same discipline as `gtxn::obs`: counters are always
//! on, span histograms cost one relaxed load until spans are enabled).

use gobs::{Counter, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

fn counter(
    cell: &'static OnceLock<Counter>,
    name: &'static str,
    help: &'static str,
) -> &'static Counter {
    cell.get_or_init(|| gobs::global().counter(name, help))
}

/// Snapshots built from scratch.
pub fn snapshot_build() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    counter(
        &C,
        "pmemgraph_analytics_snapshot_builds_total",
        "CSR snapshots materialized from the chunk store",
    )
}

/// Cache hits: a snapshot served without rebuilding.
pub fn snapshot_reuse() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    counter(
        &C,
        "pmemgraph_analytics_snapshot_reuses_total",
        "CSR snapshots reused from cache (epoch still current)",
    )
}

/// One snapshot merged from its predecessor and `changes` journal changes.
pub fn snapshot_refresh(changes: u64) {
    static N: OnceLock<Counter> = OnceLock::new();
    static CHANGES: OnceLock<Counter> = OnceLock::new();
    counter(
        &N,
        "pmemgraph_analytics_snapshot_refresh_total",
        "CSR snapshots refreshed from the topology journal instead of rebuilt",
    )
    .inc();
    counter(
        &CHANGES,
        "pmemgraph_analytics_snapshot_refresh_changes_total",
        "topology changes applied by CSR snapshot refreshes",
    )
    .add(changes);
}

/// Why a refresh fell back to a full build.
#[derive(Debug, Clone, Copy)]
pub enum Fallback {
    /// A chunk carried a write intent: a transaction was mid-commit.
    DirtyChunk,
    /// The journal no longer (or never) held a change the snapshot needs.
    JournalOverflow,
    /// A transaction older than the snapshot committed after it was taken.
    LateWriter,
    /// The spec materialises property columns, which are not journaled.
    Props,
}

/// One refresh that fell back to a full build.
pub fn refresh_fallback(reason: Fallback) {
    const REASONS: [&str; 4] = ["dirty_chunk", "journal_overflow", "late_writer", "props"];
    static COUNTS: [AtomicU64; 4] = [const { AtomicU64::new(0) }; 4];
    static REGISTERED: OnceLock<()> = OnceLock::new();
    REGISTERED.get_or_init(|| {
        for (i, reason) in REASONS.iter().enumerate() {
            gobs::global().fn_counter_labeled(
                "pmemgraph_analytics_snapshot_refresh_fallback_total",
                &format!("reason=\"{reason}\""),
                "CSR snapshot refreshes that fell back to a full build",
                move || COUNTS[i].load(Ordering::Relaxed),
            );
        }
    });
    COUNTS[reason as usize].fetch_add(1, Ordering::Relaxed);
}

/// Chunks bulk-copied through the single-version fast path.
pub fn fast_chunks(n: u64) {
    static C: OnceLock<Counter> = OnceLock::new();
    counter(
        &C,
        "pmemgraph_analytics_snapshot_fast_chunks_total",
        "chunks copied into CSR snapshots via the single-version fast path",
    )
    .add(n);
}

/// Chunks that needed full per-record MVTO reads (version-chain walks).
pub fn slow_chunks(n: u64) {
    static C: OnceLock<Counter> = OnceLock::new();
    counter(
        &C,
        "pmemgraph_analytics_snapshot_slow_chunks_total",
        "chunks copied into CSR snapshots via full MVTO reads (dirty chunks)",
    )
    .add(n);
}

fn observe(
    cell: &'static OnceLock<Histogram>,
    name: &'static str,
    help: &'static str,
    span: Option<Instant>,
) {
    if span.is_some() {
        cell.get_or_init(|| gobs::global().histogram(name, help))
            .observe_span(span);
    }
}

/// One CSR snapshot build, end to end.
pub fn build_span(span: Option<Instant>) {
    static H: OnceLock<Histogram> = OnceLock::new();
    observe(
        &H,
        "pmemgraph_analytics_snapshot_build_us",
        "CSR snapshot build: node/edge collection, sort, property columns",
        span,
    );
}

/// One algorithm run over a snapshot (labelled by kernel).
pub fn algo_span(kernel: &str, span: Option<Instant>) {
    static BFS: OnceLock<Histogram> = OnceLock::new();
    static PR: OnceLock<Histogram> = OnceLock::new();
    static WCC: OnceLock<Histogram> = OnceLock::new();
    match kernel {
        "bfs" => observe(
            &BFS,
            "pmemgraph_analytics_bfs_us",
            "BFS runs over a CSR snapshot",
            span,
        ),
        "pagerank" => observe(
            &PR,
            "pmemgraph_analytics_pagerank_us",
            "PageRank runs over a CSR snapshot",
            span,
        ),
        "wcc" => observe(
            &WCC,
            "pmemgraph_analytics_wcc_us",
            "weakly-connected-components runs over a CSR snapshot",
            span,
        ),
        _ => {}
    }
}
