//! The intermediate representation: entity handles, instruction data, a
//! function body, and the [`InstBuilder`] trait whose methods append
//! instructions. Method names and argument orders follow the published
//! crate for the subset implemented, so `crates/gjit` compiles against
//! either.

use std::fmt;

use crate::isa::CallConv;

macro_rules! entity {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(u32);

        impl $name {
            pub fn from_u32(n: u32) -> $name {
                $name(n)
            }

            pub fn as_u32(self) -> u32 {
                self.0
            }

            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(self, f)
            }
        }
    };
}

entity!(
    /// An SSA value: a block parameter or an instruction result.
    Value,
    "v"
);
entity!(
    /// A basic block.
    Block,
    "block"
);
entity!(
    /// An instruction.
    Inst,
    "inst"
);
entity!(
    /// An explicit stack slot.
    StackSlot,
    "ss"
);
entity!(
    /// A callee imported into a function.
    FuncRef,
    "fn"
);
entity!(
    /// A signature imported into a function (for indirect calls).
    SigRef,
    "sig"
);

/// An integer type, identified by its width.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Type(u8);

impl Type {
    pub fn bytes(self) -> u32 {
        u32::from(self.0)
    }

    pub fn bits(self) -> u32 {
        self.bytes() * 8
    }
}

impl fmt::Debug for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.bits())
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

pub mod types {
    use super::Type;

    pub const I8: Type = Type(1);
    pub const I16: Type = Type(2);
    pub const I32: Type = Type(4);
    pub const I64: Type = Type(8);
}

pub mod condcodes {
    /// Integer comparison conditions.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum IntCC {
        Equal,
        NotEqual,
        SignedLessThan,
        SignedGreaterThanOrEqual,
        SignedGreaterThan,
        SignedLessThanOrEqual,
        UnsignedLessThan,
        UnsignedGreaterThanOrEqual,
        UnsignedGreaterThan,
        UnsignedLessThanOrEqual,
    }

    impl IntCC {
        /// Signed conditions need sign-extended operands.
        pub fn is_signed(self) -> bool {
            matches!(
                self,
                IntCC::SignedLessThan
                    | IntCC::SignedGreaterThanOrEqual
                    | IntCC::SignedGreaterThan
                    | IntCC::SignedLessThanOrEqual
            )
        }
    }
}

use condcodes::IntCC;

/// A 64-bit immediate. Only `From<i64>`, as in the published crate, so an
/// untyped literal argument infers to `i64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Imm64(i64);

impl From<i64> for Imm64 {
    fn from(v: i64) -> Imm64 {
        Imm64(v)
    }
}

impl Imm64 {
    pub fn bits(self) -> i64 {
        self.0
    }
}

/// A 32-bit address offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Offset32(i32);

impl From<i32> for Offset32 {
    fn from(v: i32) -> Offset32 {
        Offset32(v)
    }
}

impl Offset32 {
    pub fn bits(self) -> i32 {
        self.0
    }
}

/// Memory-access flags; the emitter treats every access alike.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemFlags;

impl MemFlags {
    pub fn new() -> MemFlags {
        MemFlags
    }

    pub fn trusted() -> MemFlags {
        MemFlags
    }
}

/// One parameter or return value of a signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbiParam {
    pub value_type: Type,
}

impl AbiParam {
    pub fn new(value_type: Type) -> AbiParam {
        AbiParam { value_type }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    pub params: Vec<AbiParam>,
    pub returns: Vec<AbiParam>,
    pub call_conv: CallConv,
}

impl Signature {
    pub fn new(call_conv: CallConv) -> Signature {
        Signature {
            params: Vec::new(),
            returns: Vec::new(),
            call_conv,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackSlotKind {
    ExplicitSlot,
}

#[derive(Debug, Clone, Copy)]
pub struct StackSlotData {
    pub kind: StackSlotKind,
    pub size: u32,
    pub align_shift: u8,
}

impl StackSlotData {
    pub fn new(kind: StackSlotKind, size: u32, align_shift: u8) -> StackSlotData {
        StackSlotData {
            kind,
            size,
            align_shift,
        }
    }
}

/// A `(namespace, index)` name; modules use `(0, FuncId)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct UserExternalName {
    pub namespace: u32,
    pub index: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct UserFuncName(pub UserExternalName);

impl UserFuncName {
    pub fn user(namespace: u32, index: u32) -> UserFuncName {
        UserFuncName(UserExternalName { namespace, index })
    }
}

/// A callee imported into a function: who it is and how to call it.
#[derive(Debug, Clone)]
pub struct ExtFuncData {
    pub name: UserExternalName,
    pub signature: SigRef,
}

/// A jump argument. Only values, as nothing here passes anything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockArg {
    Value(Value),
}

impl From<Value> for BlockArg {
    fn from(v: Value) -> BlockArg {
        BlockArg::Value(v)
    }
}

/// A branch target with the values bound to its parameters.
#[derive(Debug, Clone)]
pub struct BlockCall {
    pub block: Block,
    pub args: Vec<Value>,
}

impl BlockCall {
    fn new(block: Block, args: &[BlockArg]) -> BlockCall {
        BlockCall {
            block,
            args: args.iter().map(|BlockArg::Value(v)| *v).collect(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Iadd,
    Imul,
    Band,
    Bor,
    Bxor,
    Ishl,
}

/// The right-hand operand of a binary instruction.
#[derive(Debug, Clone, Copy)]
pub enum Operand {
    Value(Value),
    Imm(i64),
}

#[derive(Debug, Clone)]
pub enum InstructionData {
    Iconst {
        imm: i64,
    },
    Binary {
        op: BinaryOp,
        lhs: Value,
        rhs: Operand,
    },
    Ctz {
        arg: Value,
    },
    Icmp {
        cc: IntCC,
        lhs: Value,
        rhs: Operand,
    },
    Select {
        cond: Value,
        then: Value,
        otherwise: Value,
    },
    Uextend {
        arg: Value,
    },
    Load {
        addr: Value,
        offset: i32,
    },
    StackLoad {
        slot: StackSlot,
        offset: i32,
    },
    StackStore {
        arg: Value,
        slot: StackSlot,
        offset: i32,
    },
    StackAddr {
        slot: StackSlot,
        offset: i32,
    },
    Call {
        func: FuncRef,
        args: Vec<Value>,
    },
    CallIndirect {
        sig: SigRef,
        callee: Value,
        args: Vec<Value>,
    },
    Jump {
        dest: BlockCall,
    },
    Brif {
        cond: Value,
        then: BlockCall,
        otherwise: BlockCall,
    },
    Return {
        args: Vec<Value>,
    },
}

impl InstructionData {
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            InstructionData::Jump { .. }
                | InstructionData::Brif { .. }
                | InstructionData::Return { .. }
        )
    }
}

/// An instruction and its (at most one) result.
#[derive(Debug, Clone)]
pub struct InstNode {
    pub data: InstructionData,
    pub result: Option<Value>,
}

#[derive(Debug, Clone, Default)]
pub struct BlockData {
    pub params: Vec<Value>,
    pub insts: Vec<Inst>,
    /// Already placed in the emission order.
    in_layout: bool,
}

/// A function body under construction or ready to compile.
#[derive(Debug, Clone)]
pub struct Function {
    pub name: UserFuncName,
    pub signature: Signature,
    pub(crate) value_types: Vec<Type>,
    pub(crate) blocks: Vec<BlockData>,
    /// Blocks in emission order (the order they were first switched to).
    pub(crate) layout: Vec<Block>,
    pub(crate) insts: Vec<InstNode>,
    pub(crate) stack_slots: Vec<StackSlotData>,
    pub(crate) ext_funcs: Vec<ExtFuncData>,
    pub(crate) signatures: Vec<Signature>,
}

impl Default for Function {
    fn default() -> Function {
        Function::new()
    }
}

impl Function {
    pub fn new() -> Function {
        Function::with_name_signature(UserFuncName::default(), Signature::new(CallConv::SystemV))
    }

    pub fn with_name_signature(name: UserFuncName, signature: Signature) -> Function {
        Function {
            name,
            signature,
            value_types: Vec::new(),
            blocks: Vec::new(),
            layout: Vec::new(),
            insts: Vec::new(),
            stack_slots: Vec::new(),
            ext_funcs: Vec::new(),
            signatures: Vec::new(),
        }
    }

    pub fn value_type(&self, v: Value) -> Type {
        self.value_types[v.index()]
    }

    pub fn make_value(&mut self, ty: Type) -> Value {
        self.value_types.push(ty);
        Value((self.value_types.len() - 1) as u32)
    }

    pub fn make_block(&mut self) -> Block {
        self.blocks.push(BlockData::default());
        Block((self.blocks.len() - 1) as u32)
    }

    pub fn append_block_param(&mut self, block: Block, ty: Type) -> Value {
        let v = self.make_value(ty);
        self.blocks[block.index()].params.push(v);
        v
    }

    pub fn block_params(&self, block: Block) -> &[Value] {
        &self.blocks[block.index()].params
    }

    /// Put `block` at the end of the emission order unless already placed.
    pub fn ensure_in_layout(&mut self, block: Block) {
        let data = &mut self.blocks[block.index()];
        if !std::mem::replace(&mut data.in_layout, true) {
            self.layout.push(block);
        }
    }

    /// Append an instruction to `block`; `result` is its result type.
    pub fn append_inst(
        &mut self,
        block: Block,
        data: InstructionData,
        result: Option<Type>,
    ) -> (Inst, Option<Value>) {
        let result = result.map(|ty| self.make_value(ty));
        self.insts.push(InstNode { data, result });
        let inst = Inst((self.insts.len() - 1) as u32);
        self.blocks[block.index()].insts.push(inst);
        (inst, result)
    }

    pub fn inst_results(&self, inst: Inst) -> &[Value] {
        self.insts[inst.index()].result.as_slice()
    }

    pub fn create_sized_stack_slot(&mut self, data: StackSlotData) -> StackSlot {
        self.stack_slots.push(data);
        StackSlot((self.stack_slots.len() - 1) as u32)
    }

    pub fn import_signature(&mut self, sig: Signature) -> SigRef {
        self.signatures.push(sig);
        SigRef((self.signatures.len() - 1) as u32)
    }

    pub fn import_function(&mut self, data: ExtFuncData) -> FuncRef {
        self.ext_funcs.push(data);
        FuncRef((self.ext_funcs.len() - 1) as u32)
    }

    pub fn signature_of(&self, s: SigRef) -> &Signature {
        &self.signatures[s.index()]
    }

    pub fn ext_funcs(&self) -> &[ExtFuncData] {
        &self.ext_funcs
    }

    pub fn ext_func(&self, f: FuncRef) -> &ExtFuncData {
        &self.ext_funcs[f.index()]
    }
}

/// How an instruction's result type is determined.
#[derive(Debug, Clone, Copy)]
pub enum ResultType {
    None,
    Is(Type),
    /// Same type as this operand.
    Of(Value),
    /// First return type of this callee's signature (none if it returns nothing).
    OfCall(FuncRef),
    OfSig(SigRef),
}

/// Appends instructions at an insertion point. Implementors provide
/// [`InstBuilder::build`]; every instruction method is defined on top.
pub trait InstBuilder: Sized {
    fn build(self, data: InstructionData, result: ResultType) -> (Inst, Option<Value>);

    fn iconst(self, ty: Type, imm: impl Into<Imm64>) -> Value {
        // Keep narrow constants zero-extended, like every other narrow value.
        let raw = imm.into().bits();
        let imm = if ty.bits() < 64 {
            raw & ((1i64 << ty.bits()) - 1)
        } else {
            raw
        };
        value(self.build(InstructionData::Iconst { imm }, ResultType::Is(ty)))
    }

    fn iadd(self, x: Value, y: Value) -> Value {
        binary(self, BinaryOp::Iadd, x, Operand::Value(y))
    }

    fn iadd_imm(self, x: Value, y: impl Into<Imm64>) -> Value {
        binary(self, BinaryOp::Iadd, x, Operand::Imm(y.into().bits()))
    }

    fn imul(self, x: Value, y: Value) -> Value {
        binary(self, BinaryOp::Imul, x, Operand::Value(y))
    }

    fn imul_imm(self, x: Value, y: impl Into<Imm64>) -> Value {
        binary(self, BinaryOp::Imul, x, Operand::Imm(y.into().bits()))
    }

    fn band(self, x: Value, y: Value) -> Value {
        binary(self, BinaryOp::Band, x, Operand::Value(y))
    }

    fn band_imm(self, x: Value, y: impl Into<Imm64>) -> Value {
        binary(self, BinaryOp::Band, x, Operand::Imm(y.into().bits()))
    }

    fn bor(self, x: Value, y: Value) -> Value {
        binary(self, BinaryOp::Bor, x, Operand::Value(y))
    }

    fn bor_imm(self, x: Value, y: impl Into<Imm64>) -> Value {
        binary(self, BinaryOp::Bor, x, Operand::Imm(y.into().bits()))
    }

    fn bxor(self, x: Value, y: Value) -> Value {
        binary(self, BinaryOp::Bxor, x, Operand::Value(y))
    }

    fn bxor_imm(self, x: Value, y: impl Into<Imm64>) -> Value {
        binary(self, BinaryOp::Bxor, x, Operand::Imm(y.into().bits()))
    }

    fn ishl_imm(self, x: Value, y: impl Into<Imm64>) -> Value {
        binary(self, BinaryOp::Ishl, x, Operand::Imm(y.into().bits()))
    }

    fn ctz(self, x: Value) -> Value {
        value(self.build(InstructionData::Ctz { arg: x }, ResultType::Of(x)))
    }

    fn icmp(self, cc: IntCC, x: Value, y: Value) -> Value {
        let data = InstructionData::Icmp {
            cc,
            lhs: x,
            rhs: Operand::Value(y),
        };
        value(self.build(data, ResultType::Is(types::I8)))
    }

    fn icmp_imm(self, cc: IntCC, x: Value, y: impl Into<Imm64>) -> Value {
        let data = InstructionData::Icmp {
            cc,
            lhs: x,
            rhs: Operand::Imm(y.into().bits()),
        };
        value(self.build(data, ResultType::Is(types::I8)))
    }

    fn select(self, c: Value, x: Value, y: Value) -> Value {
        let data = InstructionData::Select {
            cond: c,
            then: x,
            otherwise: y,
        };
        value(self.build(data, ResultType::Of(x)))
    }

    fn uextend(self, ty: Type, x: Value) -> Value {
        value(self.build(InstructionData::Uextend { arg: x }, ResultType::Is(ty)))
    }

    fn load(self, ty: Type, _flags: MemFlags, p: Value, offset: impl Into<Offset32>) -> Value {
        let data = InstructionData::Load {
            addr: p,
            offset: offset.into().bits(),
        };
        value(self.build(data, ResultType::Is(ty)))
    }

    fn stack_load(self, ty: Type, ss: StackSlot, offset: impl Into<Offset32>) -> Value {
        let data = InstructionData::StackLoad {
            slot: ss,
            offset: offset.into().bits(),
        };
        value(self.build(data, ResultType::Is(ty)))
    }

    fn stack_store(self, x: Value, ss: StackSlot, offset: impl Into<Offset32>) -> Inst {
        let data = InstructionData::StackStore {
            arg: x,
            slot: ss,
            offset: offset.into().bits(),
        };
        self.build(data, ResultType::None).0
    }

    fn stack_addr(self, ty: Type, ss: StackSlot, offset: impl Into<Offset32>) -> Value {
        let data = InstructionData::StackAddr {
            slot: ss,
            offset: offset.into().bits(),
        };
        value(self.build(data, ResultType::Is(ty)))
    }

    fn call(self, func: FuncRef, args: &[Value]) -> Inst {
        let data = InstructionData::Call {
            func,
            args: args.to_vec(),
        };
        self.build(data, ResultType::OfCall(func)).0
    }

    fn call_indirect(self, sig: SigRef, callee: Value, args: &[Value]) -> Inst {
        let data = InstructionData::CallIndirect {
            sig,
            callee,
            args: args.to_vec(),
        };
        self.build(data, ResultType::OfSig(sig)).0
    }

    fn jump(self, block: Block, args: &[BlockArg]) -> Inst {
        let data = InstructionData::Jump {
            dest: BlockCall::new(block, args),
        };
        self.build(data, ResultType::None).0
    }

    fn brif(
        self,
        c: Value,
        block_then: Block,
        args_then: &[BlockArg],
        block_else: Block,
        args_else: &[BlockArg],
    ) -> Inst {
        let data = InstructionData::Brif {
            cond: c,
            then: BlockCall::new(block_then, args_then),
            otherwise: BlockCall::new(block_else, args_else),
        };
        self.build(data, ResultType::None).0
    }

    fn return_(self, rvals: &[Value]) -> Inst {
        let data = InstructionData::Return {
            args: rvals.to_vec(),
        };
        self.build(data, ResultType::None).0
    }
}

fn value(built: (Inst, Option<Value>)) -> Value {
    built.1.expect("instruction was built with a result type")
}

fn binary<B: InstBuilder>(b: B, op: BinaryOp, lhs: Value, rhs: Operand) -> Value {
    value(b.build(
        InstructionData::Binary { op, lhs, rhs },
        ResultType::Of(lhs),
    ))
}
