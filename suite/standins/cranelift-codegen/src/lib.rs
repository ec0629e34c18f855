//! Offline stand-in for `cranelift-codegen`.
//!
//! The container the benchmark builds in has no crate registry, so the
//! published Cranelift cannot be fetched; `suite/Cargo.toml` patches the
//! five `cranelift-*` crates to the stand-ins in this directory. They
//! keep `crates/gjit` compiling unchanged and make it emit and run real
//! machine code, through:
//!
//! * [`ir`] — the instruction subset `gjit::codegen` and `gjit::expr`
//!   build (integer constants and arithmetic, compares, `select`, stack
//!   slots, loads, direct and indirect calls, `jump`/`brif` with block
//!   arguments, `return`);
//! * [`x64`] — a **baseline** x86-64 System V emitter: every SSA value
//!   lives in its own frame slot, each instruction loads its operands
//!   into scratch registers and stores its result. No register
//!   allocation, no instruction selection beyond one template per
//!   opcode, no optimisation passes.
//!
//! So compile times are far below Cranelift's and generated code is
//! slower than Cranelift's; both are properties of this stand-in, and a
//! benchmark number that depends on them says so in its metadata.

pub mod control;
pub mod ir;
pub mod isa;
pub mod settings;
pub mod x64;

use std::fmt;

/// Identifies the stand-in in benchmark metadata.
pub const VERSION: &str = "0.133.999 (suite stand-in: baseline x86-64, no register allocation)";

/// A compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// The function uses something the baseline emitter has no template for.
    Unsupported(String),
    /// The function is malformed (dangling block, missing terminator, …).
    Verifier(String),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Unsupported(m) => write!(f, "unsupported: {m}"),
            CodegenError::Verifier(m) => write!(f, "verifier: {m}"),
        }
    }
}

impl std::error::Error for CodegenError {}

pub type CodegenResult<T> = Result<T, CodegenError>;

/// What `Context::compile` returns on failure (the published type also
/// borrows the function; callers here only `Debug`-print it).
#[derive(Debug)]
pub struct CompileError {
    pub inner: CodegenError,
}

/// A relocation the emitted code would need before it can run elsewhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reloc {
    /// Byte offset of the 8-byte absolute address in the code.
    pub offset: u32,
    pub target: ir::FuncRef,
}

/// Emitted bytes plus their relocations.
#[derive(Debug, Default)]
pub struct MachBuffer {
    data: Vec<u8>,
    relocs: Vec<Reloc>,
}

impl MachBuffer {
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    pub fn relocs(&self) -> &[Reloc] {
        &self.relocs
    }
}

/// The result of compiling one function.
#[derive(Debug, Default)]
pub struct CompiledCode {
    pub buffer: MachBuffer,
}

impl CompiledCode {
    pub fn code_buffer(&self) -> &[u8] {
        self.buffer.data()
    }
}

/// One function being compiled, and its result once compiled.
#[derive(Default)]
pub struct Context {
    pub func: ir::Function,
    compiled: Option<CompiledCode>,
}

impl Context {
    pub fn new() -> Context {
        Context::default()
    }

    pub fn for_function(func: ir::Function) -> Context {
        Context {
            func,
            compiled: None,
        }
    }

    pub fn clear(&mut self) {
        *self = Context::default();
    }

    /// Compile with no way to resolve direct calls: each one becomes a
    /// relocation (position-independent callers check there are none).
    pub fn compile(
        &mut self,
        isa: &dyn isa::TargetIsa,
        _ctrl: &mut control::ControlPlane,
    ) -> Result<&CompiledCode, CompileError> {
        self.compile_with(isa, &|_| None)
    }

    /// Compile, resolving each direct callee's absolute address through
    /// `resolve` (the JIT module's symbol table).
    pub fn compile_with(
        &mut self,
        _isa: &dyn isa::TargetIsa,
        resolve: &dyn Fn(ir::FuncRef) -> Option<usize>,
    ) -> Result<&CompiledCode, CompileError> {
        let (data, relocs) =
            x64::emit(&self.func, resolve).map_err(|inner| CompileError { inner })?;
        Ok(self.compiled.insert(CompiledCode {
            buffer: MachBuffer { data, relocs },
        }))
    }

    pub fn compiled_code(&self) -> Option<&CompiledCode> {
        self.compiled.as_ref()
    }
}
