//! The unified morsel scheduler — one execution loop for every mode.
//!
//! The paper's central mechanism (§6.1–6.2, Fig. 3) is a single
//! morsel-driven pipeline whose *task function* is swapped between the AOT
//! interpreter and JIT-compiled code. This module is that pipeline:
//!
//! * a [`MorselSource`] splits the first pipeline segment's access path
//!   into morsels — node-table chunks, relationship-table chunks, or
//!   batches of index-range candidates;
//! * a [`TaskSlot`] holds the pipeline task. Workers run the interpreter
//!   until a compiled task is published into the slot (a single atomic
//!   publication — the paper's "redirects the static task function to the
//!   compiled function"), after which every subsequent morsel runs machine
//!   code;
//! * an [`ExecCtx`] threads parameters, a deadline, a cancellation flag
//!   and an [`ExecProfile`] through every executor, so callers observe
//!   morsel counts per mode, per-segment timings and fallback reasons
//!   instead of silent mode switches.
//!
//! [`execute_morsels`] has one caller, `gjit::run_plan_ctx` — the one
//! place a plan meets a mode (DESIGN.md §6) — which decides *whether* the
//! scheduler drives a plan ([`morsel_eligible`]) and which task function
//! the slot starts with; every driver above it (LDBC specs, pattern
//! heads, the query server) enters there, and none owns a morsel loop or
//! breaker-splitting logic of its own.
//!
//! Determinism: morsel `m`'s rows land in buffer `m` and buffers merge in
//! morsel order, so parallel, adaptive and sequential runs of the same
//! read-only plan produce identical row orders (chunk order for table
//! scans, key/candidate order for index ranges).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use graphcore::{GraphDb, GraphTxn};
use gstore::PVal;
use parking_lot::Mutex;

use crate::exec::{self, QueryError};
use crate::plan::{Op, Plan, Row, Slot};
use crate::pushdown::Pushdown;

/// Morsel-loop span histograms, registered lazily in the process-global
/// [`gobs`] registry. Observation is gated on [`gobs::spans_enabled`], so
/// embedded/benchmark use (no exporter attached) pays one relaxed load.
mod obs {
    use gobs::Histogram;
    use std::sync::OnceLock;
    use std::time::Duration;

    fn hist(
        cell: &'static OnceLock<Histogram>,
        name: &'static str,
        help: &'static str,
    ) -> &'static Histogram {
        cell.get_or_init(|| gobs::global().histogram(name, help))
    }

    pub fn morsel_head(d: Duration) {
        static H: OnceLock<Histogram> = OnceLock::new();
        hist(
            &H,
            "pmemgraph_exec_morsel_head_us",
            "wall-clock of the parallel morsel loop over the first pipeline segment",
        )
        .observe_duration(d);
    }

    pub fn tail(d: Duration) {
        static H: OnceLock<Histogram> = OnceLock::new();
        hist(
            &H,
            "pmemgraph_exec_tail_us",
            "wall-clock of the sequential breaker tail after the morsel loop",
        )
        .observe_duration(d);
    }

    pub fn interp(d: Duration) {
        static H: OnceLock<Histogram> = OnceLock::new();
        hist(
            &H,
            "pmemgraph_exec_interp_us",
            "wall-clock of sequential interpreted execution (Interp mode and fallbacks)",
        )
        .observe_duration(d);
    }
}

/// Which executor drove a query — the four configurations of the paper's
/// evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    Interp,
    Parallel,
    Jit,
    Adaptive,
}

impl ExecMode {
    pub fn as_str(&self) -> &'static str {
        match self {
            ExecMode::Interp => "interp",
            ExecMode::Parallel => "parallel",
            ExecMode::Jit => "jit",
            ExecMode::Adaptive => "adaptive",
        }
    }
}

/// Why a plan could not run through the morsel scheduler (or could not be
/// compiled) and fell back to a slower path. Recorded in the profile
/// instead of being dropped silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// Update pipelines run single-threaded in the caller's transaction
    /// (an MVTO write transaction cannot be shared across workers).
    UpdatePlan,
    /// The first segment's access path has no morsel source (e.g. `Once`,
    /// `NodeById`, point `IndexScan`).
    AccessPath,
    /// The code generator rejected the plan; morsels stayed interpreted.
    JitUnsupported,
}

impl FallbackReason {
    pub fn as_str(&self) -> &'static str {
        match self {
            FallbackReason::UpdatePlan => "update-plan",
            FallbackReason::AccessPath => "access-path",
            FallbackReason::JitUnsupported => "jit-unsupported",
        }
    }
}

/// Per-query execution profile: what actually ran, where the time went,
/// and why any fallback happened. Aggregated across feed-chain steps with
/// [`ExecProfile::absorb`]; surfaced through the query server's response
/// metadata and `STATS`.
#[derive(Debug, Clone, Default)]
pub struct ExecProfile {
    /// Driving mode (first one recorded wins when steps are absorbed).
    pub mode: Option<ExecMode>,
    /// Total morsels scheduled (a sequential run counts as one).
    pub morsels: u64,
    /// Morsels that ran through the AOT interpreter.
    pub interpreted_morsels: u64,
    /// Morsels that ran through JIT-compiled code.
    pub compiled_morsels: u64,
    /// Rows produced (after breakers).
    pub rows: u64,
    /// Chunks skipped by zone-map predicate pushdown before any row was
    /// materialized.
    pub chunks_pruned: u64,
    /// Morsels that claimed the MVTO single-version fast path (clean
    /// chunks read straight from record bytes).
    pub fast_path_morsels: u64,
    /// Rows materialized from surviving chunks and handed to a residual
    /// pipeline that walked the predicate AST per row (the per-row
    /// filtering pushdown could not elide, and no compiled expression was
    /// available yet).
    pub residual_rows_interp: u64,
    /// Rows whose residual filters ran through a compiled expression from
    /// the `gjit::expr` tier instead of the AST walker.
    pub residual_rows_compiled: u64,
    /// Per-segment wall-clock timings, in execution order.
    pub segments: Vec<(&'static str, Duration)>,
    /// Pattern-pipeline segment stats, in execution order: segment
    /// description, binding rows entering, binding rows surviving. Filled
    /// by the gmatch executor (the scan head counts the node table as its
    /// input), empty for single-segment plans.
    pub expansions: Vec<(String, u64, u64)>,
    /// First fallback hit, if any.
    pub fallback: Option<FallbackReason>,
}

impl ExecProfile {
    /// Record a fallback; the first reason sticks.
    pub fn note_fallback(&mut self, reason: FallbackReason) {
        self.fallback.get_or_insert(reason);
    }

    /// Combined residual row count (interpreted + compiled) — the quantity
    /// the old `residual_rows` field reported before the expression tier
    /// split it.
    pub fn residual_rows(&self) -> u64 {
        self.residual_rows_interp + self.residual_rows_compiled
    }

    /// Fold another step's profile into this one.
    pub fn absorb(&mut self, other: ExecProfile) {
        if self.mode.is_none() {
            self.mode = other.mode;
        }
        self.morsels += other.morsels;
        self.interpreted_morsels += other.interpreted_morsels;
        self.compiled_morsels += other.compiled_morsels;
        self.rows += other.rows;
        self.chunks_pruned += other.chunks_pruned;
        self.fast_path_morsels += other.fast_path_morsels;
        self.residual_rows_interp += other.residual_rows_interp;
        self.residual_rows_compiled += other.residual_rows_compiled;
        self.segments.extend(other.segments);
        self.expansions.extend(other.expansions);
        if self.fallback.is_none() {
            self.fallback = other.fallback;
        }
    }
}

/// Execution context threaded through every mode: parameters, deadline,
/// cancellation, pacing (test knob) and the accumulating profile.
pub struct ExecCtx<'a> {
    pub params: &'a [PVal],
    /// Hard deadline; expiry surfaces as [`QueryError::DeadlineExceeded`].
    pub deadline: Option<Instant>,
    /// Cooperative cancellation; raised flag surfaces as
    /// [`QueryError::Cancelled`].
    pub cancel: Option<&'a AtomicBool>,
    /// Injected delay before each *interpreted* morsel. A test/benchmark
    /// knob that emulates slow media so the compile-vs-interpret race has
    /// a controllable outcome (pairs with `JitEngine::set_compile_delay`).
    pub morsel_pace: Option<Duration>,
    /// Slot a compiled residual expression may be published into (by
    /// `gjit::attach_residual_expr`), mirroring the [`TaskSlot`] switch
    /// protocol at predicate granularity. The expression must correspond
    /// to the leading `Filter` run of the plan this context executes.
    pub residual_expr: Option<Arc<ExprSlot>>,
    pub profile: ExecProfile,
}

impl<'a> ExecCtx<'a> {
    pub fn new(params: &'a [PVal]) -> ExecCtx<'a> {
        ExecCtx {
            params,
            deadline: None,
            cancel: None,
            morsel_pace: None,
            residual_expr: None,
            profile: ExecProfile::default(),
        }
    }

    pub fn with_residual_expr(mut self, slot: Arc<ExprSlot>) -> Self {
        self.residual_expr = Some(slot);
        self
    }

    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    pub fn with_cancel(mut self, flag: &'a AtomicBool) -> Self {
        self.cancel = Some(flag);
        self
    }

    pub fn with_morsel_pace(mut self, pace: Duration) -> Self {
        self.morsel_pace = Some(pace);
        self
    }

    /// Run `f` under a child context over `params`: same deadline,
    /// cancellation flag and pace, and the profile moves in and back out —
    /// so one request's context reaches every feed-chain step (whose
    /// parameter vector grows per step) with its bounds intact, and keeps
    /// the account of a step that fails.
    pub fn with_params<'p, T>(
        &mut self,
        params: &'p [PVal],
        f: impl FnOnce(&mut ExecCtx<'p>) -> T,
    ) -> T
    where
        'a: 'p,
    {
        let mut child = ExecCtx {
            params,
            deadline: self.deadline,
            cancel: self.cancel,
            morsel_pace: self.morsel_pace,
            residual_expr: None,
            profile: std::mem::take(&mut self.profile),
        };
        let out = f(&mut child);
        self.profile = child.profile;
        out
    }

    /// Fail fast if the query was cancelled or its deadline elapsed.
    pub fn check_interrupt(&self) -> Result<(), QueryError> {
        self.interrupt().check()
    }

    fn interrupt(&self) -> Interrupt<'a> {
        Interrupt {
            deadline: self.deadline,
            cancel: self.cancel,
        }
    }
}

/// The copyable interrupt controls, shared by value with worker threads so
/// they can check without borrowing the (mutably held) context.
#[derive(Clone, Copy)]
struct Interrupt<'a> {
    deadline: Option<Instant>,
    cancel: Option<&'a AtomicBool>,
}

impl Interrupt<'_> {
    fn check(&self) -> Result<(), QueryError> {
        if let Some(flag) = self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(QueryError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(QueryError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

/// A parallelisable access path, split into morsels. Implementations
/// exist for node-table chunks, relationship-table chunks, and batches of
/// index-range candidates.
pub trait MorselSource: Send + Sync {
    /// How many morsels this source splits into.
    fn morsel_count(&self) -> usize;

    /// Run `rest` (the pipeline after the access path) interpreted over
    /// morsel `morsel`, pushing rows to `sink`. A compiled residual
    /// expression in `expr` replaces the leading `Filter` run of `rest`
    /// for sources that feed single-entity rows (table chunk scans);
    /// other sources ignore it.
    fn run_interpreted(
        &self,
        morsel: usize,
        rest: &[Op],
        txn: &mut GraphTxn<'_>,
        params: &[PVal],
        expr: Option<&CompiledPred>,
        sink: &mut dyn FnMut(&[Slot]) -> Result<(), QueryError>,
    ) -> Result<(), QueryError>;

    /// The `[c0, c1)` chunk range a compiled task covers for this morsel,
    /// or `None` when compiled code cannot address this source (the morsel
    /// then always interprets).
    fn compiled_range(&self, morsel: usize) -> Option<(u64, u64)>;

    /// Read-acceleration stats accumulated across interpreted morsels:
    /// `(fast-path morsels, residual rows through the interpreted filter
    /// walker, residual rows through a compiled expression)`. Sources
    /// without per-morsel instrumentation report zeros.
    fn drain_stats(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }

    /// Access-path name for profiles and diagnostics.
    fn kind(&self) -> &'static str;
}

/// Index-range candidates per morsel. Matches the table chunk capacity so
/// range and scan morsels have comparable granularity.
const RANGE_BATCH: usize = 64;

struct NodeChunks {
    label: Option<u32>,
    /// Surviving chunk indexes after zone-map pruning, in chunk order (so
    /// morsel-order merging still reproduces the sequential row order).
    chunks: Vec<usize>,
    fast: AtomicU64,
    residual_interp: AtomicU64,
    residual_compiled: AtomicU64,
}

impl MorselSource for NodeChunks {
    fn morsel_count(&self) -> usize {
        self.chunks.len()
    }

    fn run_interpreted(
        &self,
        morsel: usize,
        rest: &[Op],
        txn: &mut GraphTxn<'_>,
        params: &[PVal],
        expr: Option<&CompiledPred>,
        sink: &mut dyn FnMut(&[Slot]) -> Result<(), QueryError>,
    ) -> Result<(), QueryError> {
        let (fast, rows, compiled) =
            exec::scan_node_chunk(self.chunks[morsel], self.label, rest, txn, params, expr, sink)?;
        if fast {
            self.fast.fetch_add(1, Ordering::Relaxed);
        }
        if compiled {
            self.residual_compiled.fetch_add(rows, Ordering::Relaxed);
        } else {
            self.residual_interp.fetch_add(rows, Ordering::Relaxed);
        }
        Ok(())
    }

    fn compiled_range(&self, morsel: usize) -> Option<(u64, u64)> {
        let c = self.chunks[morsel] as u64;
        Some((c, c + 1))
    }

    fn drain_stats(&self) -> (u64, u64, u64) {
        (
            self.fast.load(Ordering::Relaxed),
            self.residual_interp.load(Ordering::Relaxed),
            self.residual_compiled.load(Ordering::Relaxed),
        )
    }

    fn kind(&self) -> &'static str {
        "node-chunks"
    }
}

struct RelChunks {
    label: Option<u32>,
    chunks: Vec<usize>,
    fast: AtomicU64,
    residual_interp: AtomicU64,
    residual_compiled: AtomicU64,
}

impl MorselSource for RelChunks {
    fn morsel_count(&self) -> usize {
        self.chunks.len()
    }

    fn run_interpreted(
        &self,
        morsel: usize,
        rest: &[Op],
        txn: &mut GraphTxn<'_>,
        params: &[PVal],
        expr: Option<&CompiledPred>,
        sink: &mut dyn FnMut(&[Slot]) -> Result<(), QueryError>,
    ) -> Result<(), QueryError> {
        let (fast, rows, compiled) =
            exec::scan_rel_chunk(self.chunks[morsel], self.label, rest, txn, params, expr, sink)?;
        if fast {
            self.fast.fetch_add(1, Ordering::Relaxed);
        }
        if compiled {
            self.residual_compiled.fetch_add(rows, Ordering::Relaxed);
        } else {
            self.residual_interp.fetch_add(rows, Ordering::Relaxed);
        }
        Ok(())
    }

    fn compiled_range(&self, morsel: usize) -> Option<(u64, u64)> {
        let c = self.chunks[morsel] as u64;
        Some((c, c + 1))
    }

    fn drain_stats(&self) -> (u64, u64, u64) {
        (
            self.fast.load(Ordering::Relaxed),
            self.residual_interp.load(Ordering::Relaxed),
            self.residual_compiled.load(Ordering::Relaxed),
        )
    }

    fn kind(&self) -> &'static str {
        "rel-chunks"
    }
}

struct IndexRange {
    label: u32,
    key: u32,
    lo: u64,
    hi: u64,
    /// Candidate ids pre-partitioned in deterministic (key or id) order.
    batches: Vec<Vec<u64>>,
}

impl MorselSource for IndexRange {
    fn morsel_count(&self) -> usize {
        self.batches.len()
    }

    fn run_interpreted(
        &self,
        morsel: usize,
        rest: &[Op],
        txn: &mut GraphTxn<'_>,
        params: &[PVal],
        _expr: Option<&CompiledPred>,
        sink: &mut dyn FnMut(&[Slot]) -> Result<(), QueryError>,
    ) -> Result<(), QueryError> {
        // Compiled residual expressions never apply to index-range
        // morsels: the candidate re-check is not a plan `Filter`, so
        // there is no leading filter run for the expression to replace.
        for &id in &self.batches[morsel] {
            exec::push_range_candidate(
                id, self.label, self.key, self.lo, self.hi, rest, txn, params, sink,
            )?;
        }
        Ok(())
    }

    fn compiled_range(&self, _morsel: usize) -> Option<(u64, u64)> {
        // Compiled pipelines address table chunks, not candidate batches;
        // range morsels always interpret (recorded as `jit-unsupported`
        // by the adaptive driver).
        None
    }

    fn kind(&self) -> &'static str {
        "index-range"
    }
}

/// Build the morsel source for a first pipeline segment, or `None` if its
/// access path cannot be morsel-split. Table-scan sources are built from
/// the chunks *surviving* zone-map predicate pushdown; the second element
/// is the number of chunks pruned before any row was materialized.
fn source_for(
    seg: &[Op],
    db: &GraphDb,
    snapshot: &GraphTxn<'_>,
    params: &[PVal],
) -> Option<(Box<dyn MorselSource>, u64)> {
    match seg.first()? {
        Op::NodeScan { label } => {
            let pd = Pushdown::extract(seg, params);
            let (chunks, pruned) =
                pd.surviving_node_chunks(db.accel(), db.nodes().chunk_count());
            Some((
                Box::new(NodeChunks {
                    label: *label,
                    chunks,
                    fast: AtomicU64::new(0),
                    residual_interp: AtomicU64::new(0),
                    residual_compiled: AtomicU64::new(0),
                }),
                pruned,
            ))
        }
        Op::RelScan { label } => {
            let pd = Pushdown::extract(seg, params);
            let (chunks, pruned) = pd.surviving_rel_chunks(db.accel(), db.rels().chunk_count());
            Some((
                Box::new(RelChunks {
                    label: *label,
                    chunks,
                    fast: AtomicU64::new(0),
                    residual_interp: AtomicU64::new(0),
                    residual_compiled: AtomicU64::new(0),
                }),
                pruned,
            ))
        }
        Op::IndexRangeScan { label, key, lo, hi } => {
            let lo = lo.resolve(params).index_key();
            let hi = hi.resolve(params).index_key();
            let ids = exec::range_candidates(snapshot, *label, *key, lo, hi);
            let batches = ids.chunks(RANGE_BATCH).map(<[u64]>::to_vec).collect();
            Some((
                Box::new(IndexRange {
                    label: *label,
                    key: *key,
                    lo,
                    hi,
                    batches,
                }),
                0,
            ))
        }
        _ => None,
    }
}

/// True if the plan can run through the morsel scheduler: a read-only plan
/// whose first segment starts with a morsel-splittable access path.
pub fn morsel_eligible(plan: &Plan) -> bool {
    !plan.is_update()
        && matches!(
            plan.split_first_segment().0.first(),
            Some(Op::NodeScan { .. } | Op::RelScan { .. } | Op::IndexRangeScan { .. })
        )
}

/// The pipeline task body for one morsel when compiled code is available:
/// runs the compiled first segment over a chunk range and returns its
/// rows. Published by `gjit` (as a closure over its `CompiledQuery`) so
/// this crate stays independent of the JIT backend.
pub type CompiledTask =
    Box<dyn Fn(&mut GraphTxn<'_>, &[PVal], u64, u64) -> Result<Vec<Row>, QueryError> + Send + Sync>;

/// The swappable task-function slot of the adaptive scheduler (Fig. 3).
/// Starts empty (morsels interpret); a background compiler publishes
/// either a compiled task or a permanent failure exactly once. Workers
/// observe the publication on their next morsel pull.
#[derive(Default)]
pub struct TaskSlot {
    cell: OnceLock<Option<CompiledTask>>,
}

impl TaskSlot {
    pub fn new() -> TaskSlot {
        TaskSlot::default()
    }

    /// Publish the compiled task (first publication wins).
    pub fn publish(&self, task: CompiledTask) {
        let _ = self.cell.set(Some(task));
    }

    /// Record that compilation failed; morsels keep interpreting.
    pub fn publish_failure(&self) {
        let _ = self.cell.set(None);
    }

    /// The compiled task, if one has been published.
    pub fn get(&self) -> Option<&CompiledTask> {
        self.cell.get().and_then(Option::as_ref)
    }

    /// True once a compiled task is available.
    pub fn is_compiled(&self) -> bool {
        self.get().is_some()
    }

    /// True if compilation finished with a failure.
    pub fn compile_failed(&self) -> bool {
        matches!(self.cell.get(), Some(None))
    }
}

/// A compiled residual predicate: one native `fn(row) -> bool` standing in
/// for the leading `Filter` run of a residual pipeline. Published by
/// `gjit::expr` (as a closure over its `CompiledExpr`) so this crate stays
/// independent of the JIT backend — same layering as [`CompiledTask`].
pub type CompiledPred =
    Box<dyn Fn(&mut GraphTxn<'_>, &[PVal], &[Slot]) -> Result<bool, QueryError> + Send + Sync>;

/// The [`TaskSlot`] switch protocol at predicate granularity: starts empty
/// (residual filters walk the AST), a background compiler publishes a
/// compiled expression or a permanent failure exactly once, and scans
/// observe the publication on their next chunk. Shared via `Arc` across
/// worker threads and across per-shard executions, so a plan compiled once
/// serves every shard's scan.
#[derive(Default)]
pub struct ExprSlot {
    cell: OnceLock<Option<CompiledPred>>,
}

impl ExprSlot {
    pub fn new() -> ExprSlot {
        ExprSlot::default()
    }

    /// Publish the compiled expression (first publication wins).
    pub fn publish(&self, pred: CompiledPred) {
        let _ = self.cell.set(Some(pred));
    }

    /// Record that expression compilation failed; filters keep walking
    /// the AST.
    pub fn publish_failure(&self) {
        let _ = self.cell.set(None);
    }

    /// The compiled expression, if one has been published.
    pub fn get(&self) -> Option<&CompiledPred> {
        self.cell.get().and_then(Option::as_ref)
    }

    /// True once a compiled expression is available.
    pub fn is_compiled(&self) -> bool {
        self.get().is_some()
    }

    /// True if compilation finished with a failure.
    pub fn compile_failed(&self) -> bool {
        matches!(self.cell.get(), Some(None))
    }
}

/// Execute a read-only plan through the morsel scheduler.
///
/// `threads` workers — the calling thread and `threads − 1` spawned ones,
/// never more than there are morsels — pull morsel indexes from a shared
/// counter; each morsel runs the compiled task if `task` has published one
/// (and the source is chunk-addressable), the interpreter otherwise. Per-morsel row buffers
/// merge in morsel order, then the tail (breakers onward) runs
/// sequentially on a snapshot reader.
///
/// The caller has already chosen this driver ([`morsel_eligible`]); a plan
/// it cannot drive is an error, not a fallback: update plans (morsel
/// workers share a read snapshot, never a write transaction) and access
/// paths without a morsel source.
pub fn execute_morsels(
    plan: &Plan,
    db: &GraphDb,
    snapshot: &GraphTxn<'_>,
    ctx: &mut ExecCtx<'_>,
    threads: usize,
    task: Option<&TaskSlot>,
) -> Result<Vec<Row>, QueryError> {
    if plan.is_update() {
        return Err(QueryError::BadPlan("morsel execution is read-only".into()));
    }
    ctx.check_interrupt()?;
    let (seg, tail) = plan.split_first_segment();
    let Some((source, pruned)) = source_for(seg, db, snapshot, ctx.params) else {
        return Err(QueryError::BadPlan(
            "access path has no morsel source".into(),
        ));
    };
    ctx.profile.chunks_pruned += pruned;
    let source = &*source;
    let rest = &seg[1..];
    let morsels = source.morsel_count();
    let params = ctx.params;
    let interrupt = ctx.interrupt();
    let pace = ctx.morsel_pace;
    let expr_slot = ctx.residual_expr.clone();
    let expr_slot = expr_slot.as_deref();

    let head_start = Instant::now();
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Vec<Row>>> = (0..morsels).map(|_| Mutex::new(Vec::new())).collect();
    let failure: Mutex<Option<QueryError>> = Mutex::new(None);
    let abort = AtomicBool::new(false);
    let interp_count = AtomicU64::new(0);
    let jit_count = AtomicU64::new(0);

    let workers = threads.max(1).min(morsels.max(1));
    let work = || {
        let mut txn = db.reader_at(snapshot.id());
        loop {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            let m = next.fetch_add(1, Ordering::Relaxed);
            if m >= morsels {
                break;
            }
            if let Err(e) = interrupt.check() {
                *failure.lock() = Some(e);
                abort.store(true, Ordering::Relaxed);
                break;
            }
            // The adaptive switch: whichever task function is
            // published *now* runs this morsel.
            let compiled = task
                .and_then(TaskSlot::get)
                .and_then(|f| source.compiled_range(m).map(|r| (f, r)));
            let outcome = match compiled {
                Some((run, (c0, c1))) => {
                    jit_count.fetch_add(1, Ordering::Relaxed);
                    run(&mut txn, params, c0, c1)
                }
                None => {
                    interp_count.fetch_add(1, Ordering::Relaxed);
                    if let Some(p) = pace {
                        std::thread::sleep(p);
                    }
                    let mut rows: Vec<Row> = Vec::new();
                    let res = {
                        // Like the task slot above: whichever
                        // compiled expression is published *now*
                        // filters this morsel's residual rows.
                        let expr = expr_slot.and_then(ExprSlot::get);
                        let mut sink = |row: &[Slot]| -> Result<(), QueryError> {
                            rows.push(row.to_vec());
                            Ok(())
                        };
                        source.run_interpreted(m, rest, &mut txn, params, expr, &mut sink)
                    };
                    res.map(|()| rows)
                }
            };
            match outcome {
                Ok(rows) => *results[m].lock() = rows,
                Err(e) => {
                    *failure.lock() = Some(e);
                    abort.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
    };
    // The calling thread is worker 0: a one-morsel plan (or one worker)
    // spawns nothing, and `workers` threads never cost `workers` spawns.
    std::thread::scope(|scope| {
        for _ in 1..workers {
            #[cfg(test)]
            tests::SPAWNED.with(|n| n.set(n.get() + 1));
            scope.spawn(work);
        }
        work();
    });
    if let Some(e) = failure.into_inner() {
        return Err(e);
    }

    ctx.profile.morsels += morsels as u64;
    ctx.profile.interpreted_morsels += interp_count.into_inner();
    ctx.profile.compiled_morsels += jit_count.into_inner();
    let (fast, resid_interp, resid_compiled) = source.drain_stats();
    ctx.profile.fast_path_morsels += fast;
    ctx.profile.residual_rows_interp += resid_interp;
    ctx.profile.residual_rows_compiled += resid_compiled;
    let head_elapsed = gobs::saturating_elapsed(head_start);
    if gobs::spans_enabled() {
        obs::morsel_head(head_elapsed);
    }
    ctx.profile.segments.push((source.kind(), head_elapsed));

    let merged: Vec<Row> = results.into_iter().flat_map(Mutex::into_inner).collect();
    let out = if tail.is_empty() {
        merged
    } else {
        ctx.check_interrupt()?;
        let tail_start = Instant::now();
        let mut reader = db.reader_at(snapshot.id());
        let mut out = Vec::new();
        {
            let mut sink = |row: &[Slot]| -> Result<(), QueryError> {
                out.push(row.to_vec());
                Ok(())
            };
            exec::execute_prebuffered(tail, &mut reader, params, merged, &mut sink)?;
        }
        let tail_elapsed = gobs::saturating_elapsed(tail_start);
        if gobs::spans_enabled() {
            obs::tail(tail_elapsed);
        }
        ctx.profile.segments.push(("tail", tail_elapsed));
        out
    };
    ctx.profile.rows += out.len() as u64;
    ctx.check_interrupt()?;
    Ok(out)
}

/// The bare morsel loop, for jobs that are not query plans (the
/// `ganalytics` graph kernels): `workers` threads pull morsel indexes
/// `0..morsels` from a shared counter and run `f` on each. Honours the
/// context's deadline/cancellation between morsels — the first error
/// raises an abort flag, stops all workers, and is returned. `f` runs on
/// scoped worker threads, so it can borrow from the caller's stack (flat
/// rank/frontier arrays, the CSR itself).
///
/// Unlike [`execute_morsels`] there is no per-morsel result buffer: jobs
/// write into disjoint (or atomic) slices they own, which is what keeps
/// the inner loops SIMD-friendly.
pub fn parallel_for<F>(
    workers: usize,
    morsels: usize,
    ctx: &ExecCtx<'_>,
    f: F,
) -> Result<(), QueryError>
where
    F: Fn(usize) -> Result<(), QueryError> + Sync,
{
    ctx.check_interrupt()?;
    if morsels == 0 {
        return Ok(());
    }
    let interrupt = ctx.interrupt();
    let next = AtomicUsize::new(0);
    let failure: Mutex<Option<QueryError>> = Mutex::new(None);
    let abort = AtomicBool::new(false);
    let workers = workers.max(1).min(morsels);
    if workers == 1 {
        // Inline fast path: no thread spawn for tiny jobs.
        for m in 0..morsels {
            interrupt.check()?;
            f(m)?;
        }
        return Ok(());
    }
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let m = next.fetch_add(1, Ordering::Relaxed);
                if m >= morsels {
                    break;
                }
                let r = interrupt.check().and_then(|()| f(m));
                if let Err(e) = r {
                    let mut slot = failure.lock();
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                    abort.store(true, Ordering::Relaxed);
                    break;
                }
            });
        }
    });
    match failure.into_inner() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Sequential interpretation under an [`ExecCtx`]: the `Interp` mode and
/// the shared fallback for non-morsel plans. Checks the interrupt controls
/// between result batches, counts the run as one interpreted morsel, and
/// reports a result that arrived after the deadline as missed.
pub fn execute_collect_ctx(
    plan: &Plan,
    txn: &mut GraphTxn<'_>,
    ctx: &mut ExecCtx<'_>,
) -> Result<Vec<Row>, QueryError> {
    assert!(
        ctx.params.len() >= plan.n_params,
        "plan expects {} params, got {}",
        plan.n_params,
        ctx.params.len()
    );
    ctx.check_interrupt()?;
    let start = Instant::now();
    let interrupt = ctx.interrupt();
    let expr_slot = ctx.residual_expr.clone();
    let mut hook = exec::ResidualHook::new(expr_slot.as_deref());
    let mut rows: Vec<Row> = Vec::new();
    {
        let mut sink = |row: &[Slot]| -> Result<(), QueryError> {
            rows.push(row.to_vec());
            if rows.len().is_multiple_of(512) {
                interrupt.check()?;
            }
            Ok(())
        };
        exec::exec_segments(&plan.ops, txn, ctx.params, None, &mut hook, &mut sink)?;
    }
    ctx.profile.morsels += 1;
    ctx.profile.interpreted_morsels += 1;
    ctx.profile.residual_rows_interp += hook.interp_rows;
    ctx.profile.residual_rows_compiled += hook.compiled_rows;
    let elapsed = gobs::saturating_elapsed(start);
    if gobs::spans_enabled() {
        obs::interp(elapsed);
    }
    ctx.profile.segments.push(("interp", elapsed));
    ctx.profile.rows += rows.len() as u64;
    ctx.check_interrupt()?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{DbOptions, Value};
    use std::cell::Cell;
    use std::thread::ThreadId;

    thread_local! {
        /// Workers `execute_morsels` spawned from this thread (the spawn
        /// happens on the calling thread, so concurrent tests do not mix).
        pub(super) static SPAWNED: Cell<usize> = const { Cell::new(0) };
    }

    fn spawned_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = SPAWNED.with(Cell::get);
        let out = f();
        (out, SPAWNED.with(Cell::get) - before)
    }

    /// Four chunks of `Person`; the only `City` sits in the last one, so a
    /// `City` scan prunes to one morsel and a `Person` scan keeps four.
    fn fixture() -> (GraphDb, Plan, Plan) {
        let db = GraphDb::create(DbOptions::dram(64 << 20)).unwrap();
        db.set_read_accel(true);
        let mut tx = db.begin();
        for i in 0..200i64 {
            tx.create_node("Person", &[("pid", Value::Int(i))]).unwrap();
        }
        tx.create_node("City", &[("pid", Value::Int(-1))]).unwrap();
        tx.commit().unwrap();
        assert_eq!(db.nodes().chunk_count(), 4);
        let scan = |label: &str| {
            let label = Some(db.intern(label).unwrap());
            Plan::new(vec![Op::NodeScan { label }], 0)
        };
        let (city, person) = (scan("City"), scan("Person"));
        (db, city, person)
    }

    fn interpreted(db: &GraphDb, plan: &Plan) -> Vec<Row> {
        execute_collect_ctx(plan, &mut db.begin(), &mut ExecCtx::new(&[])).unwrap()
    }

    /// A stand-in for compiled code: interprets the chunk range and notes
    /// the thread every call ran on.
    fn noting_task(plan: &Plan, ran_on: Arc<Mutex<Vec<ThreadId>>>) -> TaskSlot {
        let Op::NodeScan { label } = plan.ops[0] else {
            panic!("node scans only")
        };
        let slot = TaskSlot::new();
        slot.publish(Box::new(move |txn, params, c0, c1| {
            ran_on.lock().push(std::thread::current().id());
            let mut rows: Vec<Row> = Vec::new();
            for chunk in c0..c1 {
                let mut sink = |row: &[Slot]| -> Result<(), QueryError> {
                    rows.push(row.to_vec());
                    Ok(())
                };
                exec::scan_node_chunk(chunk as usize, label, &[], txn, params, None, &mut sink)?;
            }
            Ok(rows)
        }));
        slot
    }

    #[test]
    fn a_one_morsel_plan_runs_on_the_calling_thread_and_spawns_nothing() {
        let (db, city, person) = fixture();
        let snapshot = db.begin();
        let me = std::thread::current().id();

        // `Parallel(2)`: no task slot, the morsel interprets.
        let mut ctx = ExecCtx::new(&[]);
        let (rows, spawned) =
            spawned_by(|| execute_morsels(&city, &db, &snapshot, &mut ctx, 2, None).unwrap());
        assert_eq!(rows, interpreted(&db, &city));
        assert_eq!(rows.len(), 1);
        assert_eq!((ctx.profile.morsels, ctx.profile.chunks_pruned), (1, 3));
        assert_eq!(ctx.profile.interpreted_morsels, 1);
        assert_eq!(spawned, 0, "one morsel needs no second thread");

        // `Adaptive(_, 2)` with the code cache warm: the task is in the
        // slot before the first morsel is pulled.
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let task = noting_task(&city, ran_on.clone());
        let mut ctx = ExecCtx::new(&[]);
        let (rows, spawned) = spawned_by(|| {
            execute_morsels(&city, &db, &snapshot, &mut ctx, 2, Some(&task)).unwrap()
        });
        assert_eq!(rows, interpreted(&db, &city));
        assert_eq!((ctx.profile.morsels, ctx.profile.compiled_morsels), (1, 1));
        assert_eq!(spawned, 0);
        assert_eq!(*ran_on.lock(), [me], "the caller is worker 0");

        // Four morsels on two workers: the caller plus one spawned thread.
        let mut ctx = ExecCtx::new(&[]);
        let (rows, spawned) =
            spawned_by(|| execute_morsels(&person, &db, &snapshot, &mut ctx, 2, None).unwrap());
        assert_eq!(rows, interpreted(&db, &person));
        assert_eq!(ctx.profile.morsels, 4);
        assert_eq!(spawned, 1);
    }

    #[test]
    fn a_deadline_hit_by_worker_0_fails_the_query_like_any_worker() {
        let (db, _, person) = fixture();
        let snapshot = db.begin();
        let deadline = Instant::now() + Duration::from_millis(100);
        // Every morsel outlasts the deadline, so whichever worker pulls a
        // second one — the caller among them — finds it expired.
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let inner = noting_task(&person, ran_on.clone());
        let task = TaskSlot::new();
        task.publish(Box::new(move |txn, params, c0, c1| {
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
            inner.get().expect("published")(txn, params, c0, c1)
        }));
        let mut ctx = ExecCtx::new(&[]).with_deadline(deadline);
        let (result, spawned) =
            spawned_by(|| execute_morsels(&person, &db, &snapshot, &mut ctx, 2, Some(&task)));
        assert!(
            matches!(result, Err(QueryError::DeadlineExceeded)),
            "{result:?}"
        );
        assert_eq!(spawned, 1);
        let ran = ran_on.lock().len();
        assert!(ran <= 2, "{ran} of 4 morsels ran past the deadline");
    }
}
