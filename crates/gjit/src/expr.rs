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
use std::time::Duration;

use graphcore::GraphTxn;
use gquery::plan::Pred;
use gquery::{QueryError, Slot};
use gstore::hash::fnv1a;
use gstore::PVal;

use crate::codegen::{compile_expr, Code};
use crate::engine::JitError;
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
