//! Transaction-path span histograms, registered lazily in the
//! process-global [`gobs`] registry.
//!
//! Sites pair [`gobs::span_start`] (one relaxed load when spans are
//! disabled — the default for embedded/benchmark use) with
//! `Histogram::observe_span`, so the hot commit path pays nothing until a
//! metrics consumer (the query server or the standalone exporter) enables
//! spans.

use gobs::Histogram;
use std::sync::OnceLock;
use std::time::Instant;

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

/// Transaction begin: timestamp allocation + active-set insert (+ the
/// occasional high-water-mark persist).
pub fn begin(span: Option<Instant>) {
    static H: OnceLock<Histogram> = OnceLock::new();
    observe(
        &H,
        "pmemgraph_txn_begin_us",
        "transaction begin: timestamp allocation and active-set registration",
        span,
    );
}

/// MVTO write validation: the CAS write-lock acquire plus the rts /
/// chunk-read_ts checks in `lock_for_write`.
pub fn validate(span: Option<Instant>) {
    static H: OnceLock<Histogram> = OnceLock::new();
    observe(
        &H,
        "pmemgraph_txn_validate_us",
        "MVTO write validation: write-lock CAS and read-timestamp checks",
        span,
    );
}

/// Whole writer commit: history move, staging, durable persist, GC.
pub fn commit(span: Option<Instant>) {
    static H: OnceLock<Histogram> = OnceLock::new();
    observe(
        &H,
        "pmemgraph_txn_commit_us",
        "writer commit end-to-end: version staging, durable persist, chain GC",
        span,
    );
}

/// The durability wait inside commit: from batch handoff to the
/// group-commit pipeline until the log truncation makes it durable.
pub fn persist(span: Option<Instant>) {
    static H: OnceLock<Histogram> = OnceLock::new();
    observe(
        &H,
        "pmemgraph_txn_persist_us",
        "durability wait: group-commit handoff until log truncation",
        span,
    );
}

/// One group-commit application: the leader's strict (4 fences) or
/// deferred (2) commit of a drained group — `pmem::txlog`'s phase table.
pub fn group_apply(span: Option<Instant>) {
    static H: OnceLock<Histogram> = OnceLock::new();
    observe(
        &H,
        "pmemgraph_txn_group_apply_us",
        "group-commit leader applying one drained batch group (4-fence budget)",
        span,
    );
}
