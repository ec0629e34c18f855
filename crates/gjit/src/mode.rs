//! The four execution modes of the paper's evaluation and the one
//! dispatch every driver (LDBC specs, pattern heads, the server) runs
//! plans through.

use std::sync::Arc;

use gquery::plan::Row;
use gquery::{
    execute_collect_ctx, execute_parallel_ctx, morsel_eligible, ExecCtx, ExecMode,
    FallbackReason, Plan, QueryError,
};
use graphcore::GraphTxn;

use crate::adaptive::{default_engine, execute_adaptive_ctx, with_residual_expr};
use crate::engine::{execute_jit_ctx, JitEngine};

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
/// back from its mode's fast path. Update plans and plans without a
/// morsel-splittable access path stay single-threaded (JIT or
/// interpreted); morsel-eligible read plans (node-scan, rel-scan,
/// index-range heads) go through the shared morsel scheduler. In every
/// mode the residual filters of scan plans go through the adaptive
/// expression tier ([`crate::expr`]) — the AOT modes on the process-wide
/// engine, so hot residual filters reach machine code without the plans
/// themselves being JIT-compiled; the `Jit` mode needs no attach because
/// its pipeline codegen compiles filters inline.
pub fn run_plan_ctx(
    plan: &Plan,
    txn: &mut GraphTxn<'_>,
    ctx: &mut ExecCtx<'_>,
    mode: &Mode<'_>,
) -> Result<Vec<Row>, QueryError> {
    match *mode {
        Mode::Interp => {
            ctx.profile.mode.get_or_insert(ExecMode::Interp);
            if plan.is_update() {
                execute_collect_ctx(plan, txn, ctx)
            } else {
                with_residual_expr(default_engine(), plan, ctx, |ctx| {
                    execute_collect_ctx(plan, txn, ctx)
                })
            }
        }
        Mode::Parallel(n) => {
            ctx.profile.mode.get_or_insert(ExecMode::Parallel);
            if plan.is_update() {
                // Updates run single-threaded in the caller's write
                // transaction (own writes must stay visible).
                ctx.profile.note_fallback(FallbackReason::UpdatePlan);
                execute_collect_ctx(plan, txn, ctx)
            } else if !morsel_eligible(plan) {
                ctx.profile.note_fallback(FallbackReason::AccessPath);
                with_residual_expr(default_engine(), plan, ctx, |ctx| {
                    execute_collect_ctx(plan, txn, ctx)
                })
            } else {
                let db = txn.db();
                with_residual_expr(default_engine(), plan, ctx, |ctx| {
                    execute_parallel_ctx(plan, db, txn, ctx, n)
                })
            }
        }
        Mode::Jit(engine) => execute_jit_ctx(engine, plan, txn, ctx),
        Mode::Adaptive(engine, n) => {
            ctx.profile.mode.get_or_insert(ExecMode::Adaptive);
            if plan.is_update() {
                ctx.profile.note_fallback(FallbackReason::UpdatePlan);
                execute_jit_ctx(engine, plan, txn, ctx)
            } else if morsel_eligible(plan) {
                let db = txn.db();
                Ok(execute_adaptive_ctx(engine, plan, db, txn, ctx, n)?.rows)
            } else {
                ctx.profile.note_fallback(FallbackReason::AccessPath);
                execute_jit_ctx(engine, plan, txn, ctx)
            }
        }
    }
}
