//! Offline stand-in for `cranelift-module`: function declarations,
//! linkage, and the [`Module`] trait `cranelift-jit` implements.

use std::fmt;

use cranelift_codegen::ir::{FuncRef, Function, Signature};
use cranelift_codegen::isa::{TargetFrontendConfig, TargetIsa};
use cranelift_codegen::{CodegenError, Context};

/// A function declared in a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(u32);

impl FuncId {
    pub fn from_u32(n: u32) -> FuncId {
        FuncId(n)
    }

    pub fn as_u32(self) -> u32 {
        self.0
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Defined outside the module (a registered symbol).
    Import,
    Local,
    /// Defined in the module and visible outside it.
    Export,
}

#[derive(Debug)]
pub enum ModuleError {
    Undeclared(String),
    IncompatibleDeclaration(String),
    DuplicateDefinition(String),
    InvalidImportDefinition(String),
    Compilation(CodegenError),
    Allocation(std::io::Error),
}

impl fmt::Display for ModuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleError::Undeclared(n) => write!(f, "undeclared identifier: {n}"),
            ModuleError::IncompatibleDeclaration(n) => {
                write!(f, "incompatible declaration of identifier: {n}")
            }
            ModuleError::DuplicateDefinition(n) => write!(f, "duplicate definition of: {n}"),
            ModuleError::InvalidImportDefinition(n) => {
                write!(f, "invalid to define identifier declared as an import: {n}")
            }
            ModuleError::Compilation(e) => write!(f, "compilation error: {e}"),
            ModuleError::Allocation(e) => write!(f, "allocation error: {e}"),
        }
    }
}

impl std::error::Error for ModuleError {}

pub type ModuleResult<T> = Result<T, ModuleError>;

/// Runtime-library calls the published code generator may emit; this one emits none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibCall {}

pub fn default_libcall_names() -> Box<dyn Fn(LibCall) -> String + Send + Sync> {
    Box::new(|call| match call {})
}

pub trait Module {
    fn isa(&self) -> &dyn TargetIsa;

    fn target_config(&self) -> TargetFrontendConfig {
        self.isa().frontend_config()
    }

    fn make_signature(&self) -> Signature {
        Signature::new(self.isa().default_call_conv())
    }

    fn make_context(&self) -> Context {
        Context::new()
    }

    fn clear_context(&self, ctx: &mut Context) {
        ctx.clear();
    }

    fn declare_function(
        &mut self,
        name: &str,
        linkage: Linkage,
        signature: &Signature,
    ) -> ModuleResult<FuncId>;

    /// Import the declared function `id` into `func` so it can be called.
    fn declare_func_in_func(&mut self, id: FuncId, func: &mut Function) -> FuncRef;

    fn define_function(&mut self, id: FuncId, ctx: &mut Context) -> ModuleResult<()>;
}
