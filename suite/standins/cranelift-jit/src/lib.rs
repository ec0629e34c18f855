//! Offline stand-in for `cranelift-jit`: a [`Module`] whose functions are
//! compiled by the baseline emitter and copied into executable memory.
//!
//! Imported symbols must be registered on the builder before functions
//! that call them are defined: their absolute addresses are written into
//! the code at definition time, so nothing is left to relocate.

use std::collections::HashMap;

use cranelift_codegen::ir::{ExtFuncData, FuncRef, Function, Signature, UserExternalName};
use cranelift_codegen::isa::{OwnedTargetIsa, TargetIsa};
use cranelift_codegen::Context;
use cranelift_module::{FuncId, LibCall, Linkage, Module, ModuleError, ModuleResult};
use memmap2::{Mmap, MmapMut};

pub struct JITBuilder {
    isa: OwnedTargetIsa,
    symbols: HashMap<String, usize>,
}

impl JITBuilder {
    pub fn with_isa(
        isa: OwnedTargetIsa,
        _libcall_names: Box<dyn Fn(LibCall) -> String + Send + Sync>,
    ) -> JITBuilder {
        JITBuilder {
            isa,
            symbols: HashMap::new(),
        }
    }

    /// Register the address of an importable symbol.
    pub fn symbol(&mut self, name: impl Into<String>, ptr: *const u8) -> &mut JITBuilder {
        self.symbols.insert(name.into(), ptr as usize);
        self
    }
}

struct Declared {
    name: String,
    linkage: Linkage,
    signature: Signature,
    /// Compiled but not yet executable.
    pending: Option<Vec<u8>>,
    /// Index into `JITModule::code` once finalized.
    finalized: Option<usize>,
}

pub struct JITModule {
    isa: OwnedTargetIsa,
    symbols: HashMap<String, usize>,
    functions: Vec<Declared>,
    code: Vec<Mmap>,
}

impl JITModule {
    pub fn new(builder: JITBuilder) -> JITModule {
        JITModule {
            isa: builder.isa,
            symbols: builder.symbols,
            functions: Vec::new(),
            code: Vec::new(),
        }
    }

    /// Make every defined function executable.
    pub fn finalize_definitions(&mut self) -> ModuleResult<()> {
        for f in &mut self.functions {
            let Some(bytes) = f.pending.take() else {
                continue;
            };
            let mut map = MmapMut::map_anon(bytes.len()).map_err(ModuleError::Allocation)?;
            map[..bytes.len()].copy_from_slice(&bytes);
            self.code
                .push(map.make_exec().map_err(ModuleError::Allocation)?);
            f.finalized = Some(self.code.len() - 1);
        }
        Ok(())
    }

    /// Entry point of a finalized function.
    ///
    /// Panics if `id` was not defined and finalized, as the published crate does.
    pub fn get_finalized_function(&self, id: FuncId) -> *const u8 {
        let f = &self.functions[id.as_u32() as usize];
        let idx = f
            .finalized
            .unwrap_or_else(|| panic!("function {} is not finalized", f.name));
        self.code[idx].as_ptr()
    }

    /// Unmap all code.
    ///
    /// # Safety
    ///
    /// No pointer obtained from [`JITModule::get_finalized_function`] may
    /// be called afterwards.
    pub unsafe fn free_memory(mut self) {
        self.code.clear();
    }
}

impl Drop for JITModule {
    /// Like the published crate, a module dropped without `free_memory`
    /// leaks its code, so function pointers handed out stay valid.
    fn drop(&mut self) {
        for map in self.code.drain(..) {
            std::mem::forget(map);
        }
    }
}

impl Module for JITModule {
    fn isa(&self) -> &dyn TargetIsa {
        &*self.isa
    }

    fn declare_function(
        &mut self,
        name: &str,
        linkage: Linkage,
        signature: &Signature,
    ) -> ModuleResult<FuncId> {
        if let Some(i) = self.functions.iter().position(|f| f.name == name) {
            let f = &self.functions[i];
            if f.signature != *signature || f.linkage != linkage {
                return Err(ModuleError::IncompatibleDeclaration(name.into()));
            }
            return Ok(FuncId::from_u32(i as u32));
        }
        self.functions.push(Declared {
            name: name.into(),
            linkage,
            signature: signature.clone(),
            pending: None,
            finalized: None,
        });
        Ok(FuncId::from_u32((self.functions.len() - 1) as u32))
    }

    fn declare_func_in_func(&mut self, id: FuncId, func: &mut Function) -> FuncRef {
        let signature =
            func.import_signature(self.functions[id.as_u32() as usize].signature.clone());
        func.import_function(ExtFuncData {
            name: UserExternalName {
                namespace: 0,
                index: id.as_u32(),
            },
            signature,
        })
    }

    fn define_function(&mut self, id: FuncId, ctx: &mut Context) -> ModuleResult<()> {
        let decl = &self.functions[id.as_u32() as usize];
        if decl.linkage == Linkage::Import {
            return Err(ModuleError::InvalidImportDefinition(decl.name.clone()));
        }
        if decl.pending.is_some() || decl.finalized.is_some() {
            return Err(ModuleError::DuplicateDefinition(decl.name.clone()));
        }
        // Absolute address of every callee the function imported, by FuncRef.
        let callees: Vec<(&str, Option<usize>)> = ctx
            .func
            .ext_funcs()
            .iter()
            .map(|ext| match self.functions.get(ext.name.index as usize) {
                Some(callee) => (
                    callee.name.as_str(),
                    self.symbols.get(&callee.name).copied(),
                ),
                None => ("<undeclared function id>", None),
            })
            .collect();
        let resolve = |f: FuncRef| callees.get(f.index()).and_then(|c| c.1);
        let compiled = ctx
            .compile_with(&*self.isa, &resolve)
            .map_err(|e| ModuleError::Compilation(e.inner))?;
        if let Some(reloc) = compiled.buffer.relocs().first() {
            let name = callees.get(reloc.target.index()).map_or("?", |c| c.0);
            return Err(ModuleError::Undeclared(name.into()));
        }
        let bytes = compiled.code_buffer().to_vec();
        self.functions[id.as_u32() as usize].pending = Some(bytes);
        Ok(())
    }
}
