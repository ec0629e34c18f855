//! Adaptive query execution (paper §6.2 "Adaptive Execution", Fig. 3) — a
//! thin client of the unified morsel scheduler in `gquery::sched`.
//!
//! Execution always starts in interpretation mode: scheduler workers pull
//! morsels and run the AOT pipeline on them. Meanwhile a background thread
//! compiles the plan; as soon as the compiled task is published into the
//! shared [`TaskSlot`] (a single atomic publication — the paper's
//! "redirects the static task function to the compiled function"), the
//! next morsel pulled from the pool executes machine code instead.
//! Compilation time and PMem latency are hidden behind useful
//! interpretation work.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use gquery::plan::Row;
use gquery::{
    execute_collect_ctx, execute_morsels, morsel_eligible, pred_fingerprint, CompiledPred,
    ExecCtx, ExecMode, ExecProfile, ExprSlot, FallbackReason, Op, Plan, Pred, QueryError,
    TaskSlot,
};
use graphcore::{GraphDb, GraphTxn};
use gstore::PVal;

use crate::engine::{run_compiled_range, JitEngine};
use crate::expr::{expr_key, params_hash, CompiledExpr, ExprSource};
use crate::pgo::ExprTier;

/// The process-wide engine used by embedded callers (the LDBC driver's
/// interpreted/parallel modes) that have no engine of their own. Lazily
/// created; the server builds and owns its engine explicitly instead.
pub fn default_engine() -> &'static Arc<JitEngine> {
    static ENGINE: OnceLock<Arc<JitEngine>> = OnceLock::new();
    ENGINE.get_or_init(|| Arc::new(JitEngine::new()))
}

/// Wrap a compiled expression as the scheduler's boxed residual callback.
fn expr_task(ce: CompiledExpr) -> CompiledPred {
    Box::new(move |txn: &mut GraphTxn<'_>, params: &[PVal], row| ce.eval(txn, params, row))
}

/// The residual conjunction the expression tier would compile for `plan`:
/// the leading `Op::Filter` run after the first segment's scan access
/// path, folded left-associatively (the same order the interpreter
/// applies the filters in).
fn residual_conjunction(plan: &Plan) -> Option<(ExprSource, Pred)> {
    let (seg, _) = plan.split_first_segment();
    let (first, rest) = seg.split_first()?;
    let src = match first {
        Op::NodeScan { .. } => ExprSource::Node,
        Op::RelScan { .. } => ExprSource::Rel,
        _ => return None,
    };
    let mut filters = rest
        .iter()
        .take_while(|op| matches!(op, Op::Filter(_)))
        .map(|op| match op {
            Op::Filter(p) => p,
            _ => unreachable!(),
        });
    let mut pred = filters.next()?.clone();
    for f in filters {
        pred = Pred::And(Box::new(pred), Box::new(f.clone()));
    }
    Some((src, pred))
}

/// Arm the expression tier for one execution of `plan` under `ctx`.
///
/// Probes the engine's code cache (memory, then disk) for code
/// matching the plan's residual conjunction — a hit is published into the
/// context's [`ExprSlot`] immediately, so even the first morsel runs
/// compiled (this is what makes a warm reopen zero-compile: cached code
/// costs nothing, so it is used regardless of the PGO tier). On a miss
/// the PGO ladder decides: cold plans keep interpreting; plans past the
/// tier-1 threshold compile on a detached background thread and switch
/// mid-run through the slot, exactly like the pipeline tier's
/// [`TaskSlot`] protocol; plans past tier 2 recompile with the current
/// parameters inlined.
///
/// Returns the fingerprint of the PGO profile to feed
/// ([`crate::PgoTable::record`]) once the run finishes, whenever the plan
/// *has* a compilable residual (even while still interpreting). The
/// caller must clear `ctx.residual_expr` once the execution finishes —
/// the slot is specific to this plan. [`crate::run_plan_ctx`] does both.
pub fn attach_residual_expr(
    engine: &Arc<JitEngine>,
    plan: &Plan,
    ctx: &mut ExecCtx<'_>,
) -> Option<u64> {
    if !crate::expr::supported() {
        return None;
    }
    let (src, pred) = residual_conjunction(plan)?;
    let fp = plan.fingerprint();
    let pred_fp = pred_fingerprint(&pred);
    let generic_key = expr_key(src, pred_fp, ExprTier::Generic, 0);
    let inlined_key = expr_key(src, pred_fp, ExprTier::Inlined, params_hash(ctx.params));

    // Cached code is free: probe the more specific (parameter-inlined)
    // variant first, then the generic one, before consulting the tier.
    if let Some(ce) = engine
        .probe_expr(inlined_key)
        .or_else(|| engine.probe_expr(generic_key))
    {
        let slot = Arc::new(ExprSlot::new());
        slot.publish(expr_task(ce));
        ctx.residual_expr = Some(slot);
        return Some(fp);
    }

    let tier = engine.expr_tier(fp);
    if tier == ExprTier::Interpret {
        // Too cold to pay for compilation; keep profiling.
        return Some(fp);
    }
    let (key, inline_params) = match tier {
        ExprTier::Inlined => (inlined_key, Some(ctx.params.to_vec())),
        _ => (generic_key, None),
    };
    let slot = Arc::new(ExprSlot::new());
    ctx.residual_expr = Some(slot.clone());
    let engine = engine.clone();
    // Detached: the slot is shared through the Arc, so the switch happens
    // mid-run if the execution is still going, and the cache is warm for
    // the next run either way.
    std::thread::spawn(move || {
        let switch_span = gobs::span_start();
        match engine.get_or_compile_expr(key, src, &pred, inline_params.as_deref()) {
            Ok(ce) => slot.publish(expr_task(ce)),
            Err(_) => slot.publish_failure(),
        }
        crate::obs::adaptive_switch(switch_span);
    });
    Some(fp)
}

/// Run `f` with the expression tier armed for `plan`: probe/compile the
/// residual predicate, clear the slot when done, and feed the plan's PGO
/// profile with the residual rows the run evaluated.
pub(crate) fn with_residual_expr<T>(
    engine: &Arc<JitEngine>,
    plan: &Plan,
    ctx: &mut ExecCtx<'_>,
    f: impl FnOnce(&mut ExecCtx<'_>) -> T,
) -> T {
    let profile_fp = attach_residual_expr(engine, plan, ctx);
    let before = ctx.profile.residual_rows();
    let start = Instant::now();
    let out = f(ctx);
    ctx.residual_expr = None;
    if let Some(fp) = profile_fp {
        let rows = ctx.profile.residual_rows().saturating_sub(before);
        engine.pgo().record(fp, rows, start.elapsed());
    }
    out
}

/// Outcome of an adaptive execution, including how many morsels ran in
/// each mode (the observable "switch point").
#[derive(Debug)]
pub struct AdaptiveReport {
    pub rows: Vec<Row>,
    pub interpreted_morsels: usize,
    pub compiled_morsels: usize,
    /// True if compilation finished during the run (or was already cached).
    pub switched: bool,
    /// The full execution profile (morsel counts, per-segment timings,
    /// fallback reason if the plan could not be compiled or morsel-split).
    pub profile: ExecProfile,
}

/// Execute a read-only plan adaptively across `nthreads` workers. Plans
/// without a morsel-splittable access path run fully interpreted (the
/// paper: short queries finish before compilation, executing entirely as
/// AOT code).
pub fn execute_adaptive(
    engine: &Arc<JitEngine>,
    plan: &Plan,
    db: &GraphDb,
    snapshot: &GraphTxn<'_>,
    params: &[PVal],
    nthreads: usize,
) -> Result<AdaptiveReport, QueryError> {
    let mut ctx = ExecCtx::new(params);
    execute_adaptive_ctx(engine, plan, db, snapshot, &mut ctx, nthreads)
}

/// [`execute_adaptive`] with an explicit [`ExecCtx`]: honours the
/// context's deadline and cancellation flag and accumulates into its
/// profile. The report's morsel counts cover this call only, even when the
/// context already carries earlier steps.
pub fn execute_adaptive_ctx(
    engine: &Arc<JitEngine>,
    plan: &Plan,
    db: &GraphDb,
    snapshot: &GraphTxn<'_>,
    ctx: &mut ExecCtx<'_>,
    nthreads: usize,
) -> Result<AdaptiveReport, QueryError> {
    if plan.is_update() {
        return Err(QueryError::BadPlan("adaptive execution is read-only".into()));
    }
    ctx.profile.mode.get_or_insert(ExecMode::Adaptive);
    // Residual filters of interpreted morsels run through the compiled
    // predicate once (if) it is published.
    with_residual_expr(engine, plan, ctx, |ctx| adaptive_run(engine, plan, db, snapshot, ctx, nthreads))
}

fn adaptive_run(
    engine: &Arc<JitEngine>,
    plan: &Plan,
    db: &GraphDb,
    snapshot: &GraphTxn<'_>,
    ctx: &mut ExecCtx<'_>,
    nthreads: usize,
) -> Result<AdaptiveReport, QueryError> {
    let interp_before = ctx.profile.interpreted_morsels;
    let jit_before = ctx.profile.compiled_morsels;

    if !morsel_eligible(plan) {
        // Non-morsel access path: a single short task — interpretation
        // wins the compile race by construction, so don't start one.
        ctx.profile.note_fallback(FallbackReason::AccessPath);
        let mut reader = db.reader_at(snapshot.id());
        let rows = execute_collect_ctx(plan, &mut reader, ctx)?;
        return Ok(AdaptiveReport {
            rows,
            interpreted_morsels: (ctx.profile.interpreted_morsels - interp_before) as usize,
            compiled_morsels: 0,
            switched: false,
            profile: ctx.profile.clone(),
        });
    }

    // The swappable task slot: empty (interpret) until the background
    // compiler publishes the compiled task or a permanent failure.
    let task = Arc::new(TaskSlot::new());
    let scheduled = std::thread::scope(|scope| {
        {
            let engine = engine.clone();
            let task = task.clone();
            let plan = plan.clone();
            scope.spawn(move || {
                let switch_span = gobs::span_start();
                match engine.get_or_compile(&plan) {
                    Ok(cq) => task.publish(Box::new(
                        move |txn: &mut GraphTxn<'_>, params: &[PVal], c0: u64, c1: u64| {
                            run_compiled_range(&cq, txn, params, c0, c1)
                        },
                    )),
                    Err(_) => task.publish_failure(),
                }
                crate::obs::adaptive_switch(switch_span);
            });
        }
        execute_morsels(plan, db, snapshot, ctx, nthreads, Some(&task))
    })?;

    if task.compile_failed() {
        ctx.profile.note_fallback(FallbackReason::JitUnsupported);
    }
    let rows = match scheduled {
        Some(rows) => rows,
        // Unreachable given the eligibility check above, but stay safe.
        None => {
            let mut reader = db.reader_at(snapshot.id());
            execute_collect_ctx(plan, &mut reader, ctx)?
        }
    };
    Ok(AdaptiveReport {
        rows,
        interpreted_morsels: (ctx.profile.interpreted_morsels - interp_before) as usize,
        compiled_morsels: (ctx.profile.compiled_morsels - jit_before) as usize,
        switched: task.is_compiled(),
        profile: ctx.profile.clone(),
    })
}
