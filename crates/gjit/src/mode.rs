//! The one execution entry point: [`run_plan_ctx`] is where a plan meets a
//! [`Mode`], and nowhere else (DESIGN.md §6).
//!
//! The paper's adaptive execution (§6.2, Fig. 3) has *one* task function
//! whose target is redirected from interpreted to compiled code. Here that
//! is one decision, written once as a table of two independent choices:
//!
//! | driver ↓ / code → | interpreted | compiled | interpreted until the `TaskSlot` is published |
//! |---|---|---|---|
//! | single-threaded | `Interp`; `Parallel(n)` fallen back | `Jit`; `Adaptive(e, n)` fallen back | — |
//! | morsel scheduler | `Parallel(n)` | — | `Adaptive(e, n)` |
//!
//! * *driver* — a mode that asks for `n` workers gets the morsel
//!   scheduler ([`gquery::execute_morsels`]) unless the plan updates (an
//!   MVTO write transaction cannot be shared across workers, and own
//!   writes must stay visible) or its access path has no morsel source;
//!   either way the reason lands in the profile's `fallback`.
//! * *code* — a mode without an engine interprets; with one, the
//!   single-threaded driver runs the compiled segment
//!   ([`CompiledQuery::collect`](crate::CompiledQuery::collect)) and the
//!   scheduler starts interpreting while a background thread compiles:
//!   as soon as the compiled task is published into the shared
//!   [`TaskSlot`] (a single atomic publication — the paper's "redirects
//!   the static task function to the compiled function"), the next morsel
//!   pulled from the pool executes machine code instead, so compilation
//!   time and PMem latency hide behind useful interpretation work.
//!
//! The `ExecMode` mark, the fallback reason, the arming of the residual
//! expression tier ([`crate::expr`]) and its PGO record all happen at this
//! one site.

use std::sync::Arc;

use gquery::plan::Row;
use gquery::{
    execute_collect_ctx, execute_morsels, morsel_eligible, ExecCtx, ExecMode, FallbackReason,
    Plan, QueryError, TaskSlot,
};
use graphcore::GraphTxn;
use gstore::PVal;

use crate::engine::{default_engine, CompiledQuery, JitEngine};
use crate::expr::with_residual_expr;

/// Execution mode — the four configurations of the paper's evaluation.
#[derive(Clone, Copy)]
pub enum Mode<'e> {
    /// Single-threaded AOT interpretation (PMem-s / DRAM-s, AOT).
    Interp,
    /// Morsel-driven parallel AOT (PMem-p / DRAM-p).
    Parallel(usize),
    /// JIT-compiled execution (§6.2), single-threaded.
    Jit(&'e Arc<JitEngine>),
    /// Adaptive morsel-driven execution with background compilation.
    Adaptive(&'e Arc<JitEngine>, usize),
}

impl<'e> Mode<'e> {
    /// The engine the caller handed in, if the mode carries one.
    pub fn engine(&self) -> Option<&'e Arc<JitEngine>> {
        match self {
            Mode::Jit(e) | Mode::Adaptive(e, _) => Some(e),
            Mode::Interp | Mode::Parallel(_) => None,
        }
    }
}

/// Run one plan in the given mode under `ctx`: every mode honours the
/// context's deadline and cancellation flag, and the context's profile
/// records what actually ran — including the reason whenever a plan falls
/// back from its mode's driver (see the module's table). Wherever rows may
/// be interpreted, the residual filters of read-only scan plans go through
/// the adaptive expression tier ([`crate::expr`]) — the AOT modes on the
/// process-wide engine, so hot residual filters reach machine code without
/// the plans themselves being JIT-compiled; compiled pipelines need no
/// arming because their codegen compiles filters inline.
pub fn run_plan_ctx(
    plan: &Plan,
    txn: &mut GraphTxn<'_>,
    ctx: &mut ExecCtx<'_>,
    mode: &Mode<'_>,
) -> Result<Vec<Row>, QueryError> {
    let (mark, workers) = match *mode {
        Mode::Interp => (ExecMode::Interp, None),
        Mode::Parallel(n) => (ExecMode::Parallel, Some(n)),
        Mode::Jit(_) => (ExecMode::Jit, None),
        Mode::Adaptive(_, n) => (ExecMode::Adaptive, Some(n)),
    };
    ctx.profile.mode.get_or_insert(mark);
    let engine = mode.engine();

    // Driver: the scheduler only for a mode that asked for workers and a
    // plan it can split.
    let workers = match workers {
        Some(_) if plan.is_update() => {
            ctx.profile.note_fallback(FallbackReason::UpdatePlan);
            None
        }
        Some(_) if !morsel_eligible(plan) => {
            ctx.profile.note_fallback(FallbackReason::AccessPath);
            None
        }
        w => w,
    };

    // Code, per driver.
    match (workers, engine) {
        (None, Some(engine)) => {
            ctx.check_interrupt()?;
            engine.get_or_compile(plan)?.collect(plan, txn, ctx)
        }
        (None, None) => with_residual_expr(default_engine(), plan, ctx, |ctx| {
            execute_collect_ctx(plan, txn, ctx)
        }),
        (Some(n), None) => with_residual_expr(default_engine(), plan, ctx, |ctx| {
            execute_morsels(plan, txn.db(), txn, ctx, n, None)
        }),
        (Some(n), Some(engine)) => with_residual_expr(engine, plan, ctx, |ctx| {
            switching_morsels(engine, plan, txn, ctx, n)
        }),
    }
}

/// The scheduler with a swappable task: morsels interpret until the
/// background compiler publishes the compiled task into the slot (or a
/// permanent failure, recorded as `jit-unsupported`; every morsel then
/// interprets). Cached code costs nothing, so it is published before the
/// first morsel is pulled and no compiler thread starts — the same
/// probe-first rule the expression tier arms with.
fn switching_morsels(
    engine: &Arc<JitEngine>,
    plan: &Plan,
    snapshot: &GraphTxn<'_>,
    ctx: &mut ExecCtx<'_>,
    workers: usize,
) -> Result<Vec<Row>, QueryError> {
    let task = TaskSlot::new();
    let publish = |cq: CompiledQuery| {
        task.publish(Box::new(
            move |txn: &mut GraphTxn<'_>, params: &[PVal], c0: u64, c1: u64| {
                cq.run_range(txn, params, c0, c1)
            },
        ))
    };
    let cached = engine.probe_pipeline(plan);
    let rows = std::thread::scope(|scope| {
        match cached {
            Some(cq) => publish(cq),
            None => {
                scope.spawn(|| {
                    let switch_span = gobs::span_start();
                    match engine.get_or_compile(plan) {
                        Ok(cq) => publish(cq),
                        Err(_) => task.publish_failure(),
                    }
                    crate::obs::adaptive_switch(switch_span);
                });
            }
        }
        execute_morsels(plan, snapshot.db(), snapshot, ctx, workers, Some(&task))
    })?;
    if task.compile_failed() {
        ctx.profile.note_fallback(FallbackReason::JitUnsupported);
    }
    Ok(rows)
}
