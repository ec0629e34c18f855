//! Offline stand-in for `cranelift-native`.

use cranelift_codegen::isa;

/// An ISA builder for the host, which must be x86-64.
pub fn builder() -> Result<isa::Builder, &'static str> {
    if cfg!(target_arch = "x86_64") {
        Ok(isa::Builder)
    } else {
        Err("the stand-in code generator only targets x86-64")
    }
}
