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
//!   Compilation") — and the single-threaded JIT driver
//!   [`engine::execute_jit`].
//! * [`adaptive`] — morsel-driven adaptive execution (§6.2 "Adaptive
//!   Execution", Fig. 3): interpretation starts immediately, a background
//!   thread compiles, and the task function is atomically redirected to the
//!   compiled code as soon as it is ready.
//! * [`expr`] — the expression tier (DESIGN.md §14): residual filter
//!   predicates compiled on their own and tiered by per-plan profiles
//!   ([`pgo`]): interpret → compile → recompile with parameters inlined.
//! * [`mode`] — [`Mode`] and [`run_plan_ctx`], the one dispatch over the
//!   four execution modes.

pub mod adaptive;
pub mod codegen;
pub mod diskcache;
pub mod engine;
pub mod expr;
pub mod mode;
mod obs;
pub mod pgo;
pub mod runtime;

pub use adaptive::{
    attach_residual_expr, default_engine, execute_adaptive, execute_adaptive_ctx, AdaptiveReport,
};
pub use codegen::Code;
pub use diskcache::DiskCache;
pub use engine::{
    execute_jit, execute_jit_ctx, run_compiled_range, CodeKey, CodeKind, CompiledQuery,
    JitEngine, JitError, DEFAULT_CODE_CACHE_CAP,
};
pub use mode::{run_plan_ctx, Mode};
pub use expr::{expr_key, params_hash, CompiledExpr, ExprSource};
pub use pgo::{ExprTier, PgoTable, PlanCounters, SegmentCounters};
