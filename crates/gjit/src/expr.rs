//! Residual-expression compilation: one `fn(row) -> bool` per predicate.
//!
//! `Pushdown` hoists leading `Op::Filter` conjuncts onto the access path;
//! the interpreter then walks the predicate AST once per scanned row. This
//! module lowers that residual conjunction to native code so the morsel
//! loop calls a single compiled function instead — paper §6.2 applied to
//! expressions rather than whole pipelines.
//!
//! A residual expression is the code generator's one predicate emitter
//! ([`crate::codegen`]) run over a one-column row, so it shares the
//! pipelines' ABI, code object and caches. Semantics mirror
//! `gquery::eval_pred` (the differential proptest in
//! `tests/expr_differential.rs` holds the two to row-for-row agreement),
//! with the divergences the emitter documents: hoisted property fetches
//! and helper errors can surface where the interpreter's short-circuit
//! would have skipped them (either way the row errors; only *which* of
//! several errors wins can differ), and `Eq`/`Ne` compare the raw
//! `(tag, payload)` encoding, exactly like the interpreter's `PVal`
//! equality except for `f64` edge cases (`NaN != NaN` and `-0.0 == 0.0`
//! hold interpreted but not compiled). Plans over floating-point equality
//! keep interpreting — the planner never emits them today, and the
//! differential test generators exclude them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use graphcore::GraphTxn;
use gquery::plan::Pred;
use gquery::{pred_fingerprint, CompiledPred, ExecCtx, ExprSlot, Op, Plan, QueryError, Slot};
use gstore::hash::fnv1a;
use gstore::PVal;

use crate::codegen::{compile_expr, Code};
use crate::engine::{JitEngine, JitError};
use crate::pgo::ExprTier;
use crate::runtime::{helper_table, RtCtx};

/// ABI of a compiled expression: `(ctx, helper_table, row) -> status`,
/// where status is 1 (row passes), 0 (row fails) or -1 (error in
/// `RtCtx::error`). `row` points at the access path's single-slot row.
type ExprFn =
    unsafe extern "C" fn(*mut RtCtx<'static, 'static>, *const usize, *const Slot) -> i64;

/// Whether this build can compile and execute generated code. Gated to
/// x86_64: the raw-bytes mmap path skips the instruction-cache flush that
/// aarch64 would require. Everywhere else every plan interprets.
pub fn supported() -> bool {
    cfg!(target_arch = "x86_64")
}

/// What the residual expression's single input column holds — determines
/// the owner tag passed to property/label helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprSource {
    /// Row comes from `NodeScan`: column 0 is a node id.
    Node,
    /// Row comes from `RelScan`: column 0 is a relationship id.
    Rel,
}

/// Fingerprint of an execution's parameter vector, for keying
/// parameter-inlined (tier [`ExprTier::Inlined`]) code.
pub fn params_hash(params: &[PVal]) -> u64 {
    let mut bytes = Vec::with_capacity(params.len() * 9);
    for p in params {
        let (t, v) = p.encode();
        bytes.push(t);
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Cache key of one compiled expression: predicate shape
/// ([`gquery::pred_fingerprint`]) + source kind + tier (+ parameter hash
/// for inlined code). Used for both the in-memory and the on-disk cache.
pub fn expr_key(src: ExprSource, pred_fp: u64, tier: ExprTier, param_hash: u64) -> u64 {
    let mut bytes = [0u8; 18];
    bytes[0] = match src {
        ExprSource::Node => 1,
        ExprSource::Rel => 2,
    };
    bytes[1] = tier as u8;
    bytes[2..10].copy_from_slice(&pred_fp.to_le_bytes());
    bytes[10..18].copy_from_slice(&param_hash.to_le_bytes());
    fnv1a(&bytes)
}

/// One compiled residual predicate. Cheap to clone (the code is shared);
/// `eval` is `&self` and thread-safe (each call builds its own `RtCtx`).
#[derive(Clone)]
pub struct CompiledExpr(pub(crate) Arc<Code>);

impl CompiledExpr {
    /// Compile `pred` for rows from `src`. With `inline_params` set
    /// (tier [`ExprTier::Inlined`]), `PPar::Param` holes are folded to the
    /// given constants — the PGO recompilation step for hot plans.
    pub fn compile(
        src: ExprSource,
        pred: &Pred,
        inline_params: Option<&[PVal]>,
    ) -> Result<CompiledExpr, JitError> {
        Ok(CompiledExpr(Arc::new(compile_expr(src, pred, inline_params)?)))
    }

    /// Reconstitute from cached code bytes (the disk-cache hit path — no
    /// Cranelift work, just an executable mapping).
    pub fn from_bytes(code: &[u8]) -> Result<CompiledExpr, JitError> {
        Ok(CompiledExpr(Arc::new(Code::map(code.to_vec(), Duration::ZERO)?)))
    }

    /// The relocation-free machine code, as stored in the disk cache.
    pub fn code_bytes(&self) -> &[u8] {
        self.0.bytes()
    }

    /// Wall-clock compile latency (zero for [`CompiledExpr::from_bytes`]).
    pub fn compile_time(&self) -> Duration {
        self.0.compile_time()
    }

    /// Evaluate on one row. `row[0]` must match the `ExprSource` the
    /// expression was compiled for; `params` must be the execution's
    /// parameter vector (for inlined code it is only read on the error
    /// path, but passing the real one keeps the contract uniform).
    pub fn eval(
        &self,
        txn: &mut GraphTxn<'_>,
        params: &[PVal],
        row: &[Slot],
    ) -> Result<bool, QueryError> {
        if row.is_empty() {
            return Err(QueryError::BadPlan("compiled expression needs a one-column row".into()));
        }
        let mut ctx = RtCtx::new(txn, params);
        // SAFETY: `self.0` maps a function `compile_expr` generated with the
        // `ExprFn` signature (the kind in every cache key keeps pipeline
        // code out) and stays mapped while `self` is borrowed; the code
        // reads `row[0]` only, checked present above. Same lifetime erasure as
        // `CompiledQuery::run`: the helpers only use the context for the
        // duration of this call.
        let rc = unsafe {
            let entry: ExprFn = std::mem::transmute(self.0.entry());
            entry(
                (&mut ctx as *mut RtCtx<'_, '_>).cast::<RtCtx<'static, 'static>>(),
                helper_table().as_ptr(),
                row.as_ptr(),
            )
        };
        if rc < 0 || ctx.error.is_some() {
            return Err(ctx
                .error
                .take()
                .unwrap_or_else(|| QueryError::Jit("compiled expression failed".into())));
        }
        Ok(rc == 1)
    }
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
/// [`gquery::TaskSlot`] protocol; plans past tier 2 recompile with the
/// current parameters inlined.
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
    if !supported() {
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
/// profile with the residual rows the run evaluated. Update plans are
/// never armed.
pub(crate) fn with_residual_expr<T>(
    engine: &Arc<JitEngine>,
    plan: &Plan,
    ctx: &mut ExecCtx<'_>,
    f: impl FnOnce(&mut ExecCtx<'_>) -> T,
) -> T {
    let profile_fp = if plan.is_update() {
        None
    } else {
        attach_residual_expr(engine, plan, ctx)
    };
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
