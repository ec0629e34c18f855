//! Push-based graph-algebra query engine (paper §6.1) — the AOT execution
//! mode.
//!
//! Queries are linear operator pipelines over [`Slot`] rows, pushed from an
//! access path (`NodeScan`, `RelScan`, `IndexScan`, `IndexRangeScan`,
//! `NodeById`, `Once`) through traversal ([`Op::ForeachRel`],
//! [`Op::GetNode`]), filter, projection and update operators. Pipeline
//! breakers (`OrderBy`, `Limit`, `Count`) buffer between pipeline segments,
//! exactly the structure the JIT compiler in `gjit` turns into one
//! machine-code function per segment.
//!
//! Parallel execution follows the paper's morsel-driven approach (§6.1,
//! Leis et al.) and lives in [`sched`]: one scheduler with pluggable
//! [`sched::MorselSource`]s (node chunks, relationship chunks, index-range
//! batches) and a swappable task function, consumed by the parallel
//! interpreter, the adaptive JIT driver and the query server alike. An
//! [`sched::ExecCtx`] threads parameters, deadline, cancellation and a
//! per-query [`sched::ExecProfile`] through every mode.

pub mod exec;
pub mod plan;
pub mod pushdown;
pub mod sched;

pub use exec::{
    eval_pred, eval_proj, execute, execute_collect, execute_prebuffered, QueryError, RecordSource,
};
pub use plan::{
    pred_fingerprint, split_first_segment, CmpOp, Op, PPar, Plan, Pred, Proj, RelEnd, Row, Slot,
    SlotTag,
};
pub use pushdown::Pushdown;
pub use sched::{
    execute_collect_ctx, execute_morsels, morsel_eligible, parallel_for, CompiledPred,
    CompiledTask, ExecCtx, ExecMode, ExecProfile, ExprSlot, FallbackReason, MorselSource, TaskSlot,
};
