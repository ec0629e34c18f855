//! Just-in-time query compilation (paper §6.2).
//!
//! Graph-algebra pipelines are compiled to native machine code with
//! Cranelift (standing in for the paper's LLVM 11 — see DESIGN.md). The
//! compiled function fuses the whole pipeline segment into one loop nest
//! that keeps tuple elements in registers/stack slots, and *reuses
//! AOT-compiled database code* — record access, MVTO visibility,
//! property lookup — through a small `extern "C"` runtime ABI, exactly the
//! strategy the paper describes ("reusing AOT-compiled code, e.g., access
//! methods to nodes or methods for transaction processing").
//!
//! * [`runtime`] — the `rt_*` helper functions, the process-local helper
//!   table generated code calls them through, and the [`runtime::RtCtx`]
//!   execution context handed to generated code.
//! * [`codegen`] — the one code generator: every operator contributes an
//!   entry/consume region, consume branches into the next operator's
//!   entry, forming one inlined pipeline function (§6.2, Fig. 4); a
//!   residual expression is its predicate emitter over a one-column row.
//!   All output is relocation-free [`codegen::Code`].
//! * [`engine`] — [`JitEngine`]: compilation and the one code cache — an
//!   in-memory LRU over the `{base}.jitcache` sidecar ([`diskcache`]), so
//!   repeated queries skip compilation across restarts (§6.2 "JIT
//!   Compilation") — and [`CompiledQuery`], a compiled first segment with
//!   its one runner ([`CompiledQuery::collect`]).
//! * [`expr`] — the expression tier (DESIGN.md §14): residual filter
//!   predicates compiled on their own, armed per execution
//!   ([`attach_residual_expr`]) and tiered by per-plan profiles
//!   ([`pgo`]): interpret → compile → recompile with parameters inlined.
//! * [`mode`] — [`Mode`] and [`run_plan_ctx`], the one execution entry
//!   point (DESIGN.md §6): driver (single-threaded | morsel scheduler) ×
//!   code (interpreted | compiled | interpreted until the task slot is
//!   published — §6.2 "Adaptive Execution", Fig. 3) is decided there and
//!   nowhere else.

pub mod codegen;
pub mod diskcache;
pub mod engine;
pub mod expr;
pub mod mode;
mod obs;
pub mod pgo;
pub mod runtime;

pub use codegen::Code;
pub use diskcache::DiskCache;
pub use engine::{
    default_engine, CodeKey, CodeKind, CompiledQuery, JitEngine, JitError,
    DEFAULT_CODE_CACHE_CAP,
};
pub use expr::{attach_residual_expr, expr_key, params_hash, CompiledExpr, ExprSource};
pub use mode::{run_plan_ctx, Mode};
pub use pgo::{ExprTier, PgoTable, PlanCounters, SegmentCounters};
