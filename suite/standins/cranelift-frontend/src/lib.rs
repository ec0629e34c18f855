//! Offline stand-in for `cranelift-frontend`: [`FunctionBuilder`] with
//! the methods `crates/gjit` calls. Callers already pass values between
//! blocks as explicit block parameters, so there is no `Variable`
//! machinery and sealing is a no-op.

use cranelift_codegen::ir::{
    Block, Function, Inst, InstBuilder, InstructionData, ResultType, SigRef, Signature, StackSlot,
    StackSlotData, Type, Value,
};

/// Scratch state reused across functions by the published builder; empty here.
#[derive(Debug, Default)]
pub struct FunctionBuilderContext;

impl FunctionBuilderContext {
    pub fn new() -> FunctionBuilderContext {
        FunctionBuilderContext
    }
}

pub struct FunctionBuilder<'a> {
    pub func: &'a mut Function,
    position: Option<Block>,
}

impl<'a> FunctionBuilder<'a> {
    pub fn new(
        func: &'a mut Function,
        _ctx: &'a mut FunctionBuilderContext,
    ) -> FunctionBuilder<'a> {
        FunctionBuilder {
            func,
            position: None,
        }
    }

    pub fn create_block(&mut self) -> Block {
        self.func.make_block()
    }

    /// Make `block` the insertion point, placing it next in emission order.
    pub fn switch_to_block(&mut self, block: Block) {
        self.func.ensure_in_layout(block);
        self.position = Some(block);
    }

    pub fn current_block(&self) -> Option<Block> {
        self.position
    }

    pub fn seal_block(&mut self, _block: Block) {}

    pub fn seal_all_blocks(&mut self) {}

    pub fn append_block_param(&mut self, block: Block, ty: Type) -> Value {
        self.func.append_block_param(block, ty)
    }

    pub fn append_block_params_for_function_params(&mut self, block: Block) {
        let tys: Vec<Type> = self
            .func
            .signature
            .params
            .iter()
            .map(|p| p.value_type)
            .collect();
        for ty in tys {
            self.func.append_block_param(block, ty);
        }
    }

    pub fn block_params(&self, block: Block) -> &[Value] {
        self.func.block_params(block)
    }

    pub fn inst_results(&self, inst: Inst) -> &[Value] {
        self.func.inst_results(inst)
    }

    pub fn create_sized_stack_slot(&mut self, data: StackSlotData) -> StackSlot {
        self.func.create_sized_stack_slot(data)
    }

    pub fn import_signature(&mut self, sig: Signature) -> SigRef {
        self.func.import_signature(sig)
    }

    /// An instruction builder appending at the insertion point.
    pub fn ins<'short>(&'short mut self) -> FuncInstBuilder<'short, 'a> {
        let block = self
            .position
            .expect("switch_to_block before inserting instructions");
        FuncInstBuilder {
            builder: self,
            block,
        }
    }

    pub fn finalize(self) {}
}

pub struct FuncInstBuilder<'short, 'long: 'short> {
    builder: &'short mut FunctionBuilder<'long>,
    block: Block,
}

impl InstBuilder for FuncInstBuilder<'_, '_> {
    fn build(self, data: InstructionData, result: ResultType) -> (Inst, Option<Value>) {
        let func = &mut *self.builder.func;
        let first_return = |sig: &Signature| sig.returns.first().map(|r| r.value_type);
        let ty = match result {
            ResultType::None => None,
            ResultType::Is(ty) => Some(ty),
            ResultType::Of(v) => Some(func.value_type(v)),
            ResultType::OfCall(f) => first_return(func.signature_of(func.ext_func(f).signature)),
            ResultType::OfSig(s) => first_return(func.signature_of(s)),
        };
        func.append_inst(self.block, data, ty)
    }
}
