//! Target description: x86-64 System V only.

use std::sync::Arc;

use crate::ir::{types, Type};
use crate::settings::Flags;
use crate::CodegenResult;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallConv {
    SystemV,
}

#[derive(Debug, Clone, Copy)]
pub struct TargetFrontendConfig {
    pub default_call_conv: CallConv,
}

impl TargetFrontendConfig {
    pub fn pointer_type(&self) -> Type {
        types::I64
    }
}

pub trait TargetIsa: Send + Sync {
    fn name(&self) -> &'static str;

    fn default_call_conv(&self) -> CallConv;

    fn frontend_config(&self) -> TargetFrontendConfig {
        TargetFrontendConfig {
            default_call_conv: self.default_call_conv(),
        }
    }

    fn pointer_type(&self) -> Type {
        types::I64
    }
}

pub type OwnedTargetIsa = Arc<dyn TargetIsa>;

struct X64;

impl TargetIsa for X64 {
    fn name(&self) -> &'static str {
        "x64"
    }

    fn default_call_conv(&self) -> CallConv {
        CallConv::SystemV
    }
}

/// ISA builder, as returned by `cranelift_native::builder`.
#[derive(Debug, Clone, Default)]
pub struct Builder;

impl Builder {
    pub fn finish(self, _flags: Flags) -> CodegenResult<OwnedTargetIsa> {
        Ok(Arc::new(X64))
    }
}
