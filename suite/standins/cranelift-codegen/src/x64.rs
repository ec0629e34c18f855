//! Baseline x86-64 (System V) emitter.
//!
//! Frame: `push rbp; mov rbp, rsp; sub rsp, FRAME`. Every SSA value has
//! an 8-byte home at `[rbp - 8*(i+1)]`; explicit stack slots sit below
//! the value area. `FRAME` is a multiple of 16 and nothing else moves
//! `rsp`, so every call site is 16-byte aligned as the ABI requires.
//!
//! Each instruction loads its operands from their homes into `rax`/`rcx`,
//! computes into `rax`, and stores `rax` to the result's home. Values
//! narrower than 64 bits are kept zero-extended in their home, which is
//! why signed compares are only accepted on `i64`.
//!
//! Block arguments are passed by loading all of them into scratch
//! registers first and then storing them to the target's parameter
//! homes, so a jump that permutes its own block's parameters is correct.

use crate::ir::condcodes::IntCC;
use crate::ir::{
    BinaryOp, Block, BlockCall, FuncRef, Function, InstructionData, Operand, StackSlot, Value,
};
use crate::{CodegenError, CodegenResult, Reloc};

/// Register numbers as encoded in ModRM/REX.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Reg(u8);

const RAX: Reg = Reg(0);
const RCX: Reg = Reg(1);
const RDX: Reg = Reg(2);
const RSI: Reg = Reg(6);
const RDI: Reg = Reg(7);
const R8: Reg = Reg(8);
const R9: Reg = Reg(9);
const R10: Reg = Reg(10);
const R11: Reg = Reg(11);

/// System V integer argument registers, in order.
const ARG_REGS: [Reg; 6] = [RDI, RSI, RDX, RCX, R8, R9];
/// Caller-saved scratch registers used to stage block arguments.
const STAGE_REGS: [Reg; 9] = [RAX, RCX, RDX, RSI, RDI, R8, R9, R10, R11];

struct Emitter<'f> {
    func: &'f Function,
    code: Vec<u8>,
    relocs: Vec<Reloc>,
    /// Code offset of each block, once emitted.
    block_offsets: Vec<Option<u32>>,
    /// `(offset of rel32 field, target block)` to patch at the end.
    fixups: Vec<(usize, Block)>,
    /// rbp-relative offset of the lowest byte of each stack slot.
    slot_base: Vec<i32>,
}

fn unsupported<T>(msg: impl Into<String>) -> CodegenResult<T> {
    Err(CodegenError::Unsupported(msg.into()))
}

/// rbp-relative home of a value.
fn home(v: Value) -> i32 {
    -8 * (v.index() as i32 + 1)
}

impl Emitter<'_> {
    fn byte(&mut self, b: u8) {
        self.code.push(b);
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.code.extend_from_slice(bs);
    }

    fn imm32(&mut self, v: i32) {
        self.bytes(&v.to_le_bytes());
    }

    /// REX prefix for a reg/rm pair where rm is not extended (rbp or rax
    /// based addressing, or a low register operand).
    fn rex(&mut self, w: bool, reg: Reg, rm: Reg) {
        let b = 0x40 | (u8::from(w) << 3) | ((reg.0 >> 3) << 2) | (rm.0 >> 3);
        if b != 0x40 {
            self.byte(b);
        }
    }

    /// ModRM + disp32 for `[base + disp]`, base being rbp or rax/rcx.
    fn modrm_mem(&mut self, reg: Reg, base: Reg, disp: i32) {
        debug_assert!(base.0 & 7 != 4, "rsp/r12 base needs a SIB byte");
        self.byte(0x80 | ((reg.0 & 7) << 3) | (base.0 & 7));
        self.imm32(disp);
    }

    fn modrm_reg(&mut self, reg: Reg, rm: Reg) {
        self.byte(0xC0 | ((reg.0 & 7) << 3) | (rm.0 & 7));
    }

    /// `mov reg, [rbp + disp]` (64-bit).
    fn load_rbp(&mut self, reg: Reg, disp: i32) {
        self.rex(true, reg, Reg(5));
        self.byte(0x8B);
        self.modrm_mem(reg, Reg(5), disp);
    }

    /// `mov [rbp + disp], reg` (64-bit).
    fn store_rbp(&mut self, disp: i32, reg: Reg) {
        self.rex(true, reg, Reg(5));
        self.byte(0x89);
        self.modrm_mem(reg, Reg(5), disp);
    }

    fn load_value(&mut self, reg: Reg, v: Value) {
        self.load_rbp(reg, home(v));
    }

    fn store_value(&mut self, v: Value, reg: Reg) {
        self.store_rbp(home(v), reg);
    }

    /// `mov reg, imm` choosing the shortest encoding that keeps the value.
    fn mov_imm(&mut self, reg: Reg, imm: i64) {
        if let Ok(small) = u32::try_from(imm) {
            // mov r32, imm32 zero-extends.
            self.rex(false, Reg(0), reg);
            self.byte(0xB8 | (reg.0 & 7));
            self.bytes(&small.to_le_bytes());
        } else if let Ok(small) = i32::try_from(imm) {
            // mov r/m64, imm32 sign-extends.
            self.rex(true, Reg(0), reg);
            self.byte(0xC7);
            self.modrm_reg(Reg(0), reg);
            self.imm32(small);
        } else {
            self.rex(true, Reg(0), reg);
            self.byte(0xB8 | (reg.0 & 7));
            self.bytes(&imm.to_le_bytes());
        }
    }

    /// Load the right-hand operand into `reg`.
    fn load_operand(&mut self, reg: Reg, op: Operand) {
        match op {
            Operand::Value(v) => self.load_value(reg, v),
            Operand::Imm(i) => self.mov_imm(reg, i),
        }
    }

    /// Re-establish the zero-extension invariant for a `bits`-wide result in rax.
    fn normalize_rax(&mut self, bits: u32) -> CodegenResult<()> {
        match bits {
            64 => {}
            32 => self.bytes(&[0x89, 0xC0]),       // mov eax, eax
            16 => self.bytes(&[0x0F, 0xB7, 0xC0]), // movzx eax, ax
            8 => self.bytes(&[0x0F, 0xB6, 0xC0]),  // movzx eax, al
            other => return unsupported(format!("{other}-bit integers")),
        }
        Ok(())
    }

    /// `lea rax, [rbp + disp]`.
    fn lea_rax_rbp(&mut self, disp: i32) {
        self.bytes(&[0x48, 0x8D]);
        self.modrm_mem(RAX, Reg(5), disp);
    }

    fn slot_disp(&self, slot: StackSlot, offset: i32) -> CodegenResult<i32> {
        let base = self.slot_base.get(slot.index()).ok_or_else(|| {
            CodegenError::Verifier(format!("{slot} is not a stack slot of this function"))
        })?;
        let size = self.func.stack_slots[slot.index()].size as i32;
        if offset < 0 || offset >= size.max(1) {
            return Err(CodegenError::Verifier(format!(
                "offset {offset} is outside {slot} ({size} bytes)"
            )));
        }
        Ok(base + offset)
    }

    /// Load `bits` from `[base + disp]` into rax, zero-extended.
    fn load_mem_rax(&mut self, bits: u32, base: Reg, disp: i32) -> CodegenResult<()> {
        match bits {
            64 => {
                self.byte(0x48);
                self.byte(0x8B);
            }
            32 => self.byte(0x8B),
            16 => self.bytes(&[0x0F, 0xB7]),
            8 => self.bytes(&[0x0F, 0xB6]),
            other => return unsupported(format!("{other}-bit load")),
        }
        self.modrm_mem(RAX, base, disp);
        Ok(())
    }

    /// Store the low `bits` of rax to `[rbp + disp]`.
    fn store_mem_rax(&mut self, bits: u32, disp: i32) -> CodegenResult<()> {
        match bits {
            64 => self.bytes(&[0x48, 0x89]),
            32 => self.byte(0x89),
            16 => self.bytes(&[0x66, 0x89]),
            8 => self.byte(0x88),
            other => return unsupported(format!("{other}-bit store")),
        }
        self.modrm_mem(RAX, Reg(5), disp);
        Ok(())
    }

    fn jmp(&mut self, target: Block) {
        self.byte(0xE9);
        self.fixups.push((self.code.len(), target));
        self.imm32(0);
    }

    /// `jz rel32` to a not-yet-known local position; returns the field to patch.
    fn jz_forward(&mut self) -> usize {
        self.bytes(&[0x0F, 0x84]);
        let at = self.code.len();
        self.imm32(0);
        at
    }

    fn patch_forward(&mut self, field: usize) {
        let rel = (self.code.len() - (field + 4)) as i32;
        self.code[field..field + 4].copy_from_slice(&rel.to_le_bytes());
    }

    /// Bind `call.args` to the parameters of `call.block`.
    fn pass_block_args(&mut self, call: &BlockCall) -> CodegenResult<()> {
        let params = self
            .func
            .blocks
            .get(call.block.index())
            .map(|b| b.params.as_slice())
            .ok_or_else(|| CodegenError::Verifier(format!("jump to unknown {}", call.block)))?;
        if params.len() != call.args.len() {
            return Err(CodegenError::Verifier(format!(
                "{} takes {} parameter(s), jump passes {}",
                call.block,
                params.len(),
                call.args.len()
            )));
        }
        if call.args.len() > STAGE_REGS.len() {
            return unsupported(format!("more than {} block arguments", STAGE_REGS.len()));
        }
        for (reg, arg) in STAGE_REGS.iter().zip(&call.args) {
            self.load_value(*reg, *arg);
        }
        for (reg, param) in STAGE_REGS.iter().zip(params) {
            self.store_value(*param, *reg);
        }
        Ok(())
    }

    /// Jump to `call.block` unless it is what the code falls into next.
    fn branch_to(&mut self, call: &BlockCall, next: Option<Block>) -> CodegenResult<()> {
        self.pass_block_args(call)?;
        if next != Some(call.block) {
            self.jmp(call.block);
        }
        Ok(())
    }

    fn call_args(&mut self, args: &[Value]) -> CodegenResult<()> {
        if args.len() > ARG_REGS.len() {
            return unsupported(format!("call with {} arguments", args.len()));
        }
        for (reg, arg) in ARG_REGS.iter().zip(args) {
            self.load_value(*reg, *arg);
        }
        Ok(())
    }

    fn emit_inst(
        &mut self,
        data: &InstructionData,
        result: Option<Value>,
        next_block: Option<Block>,
        resolve: &dyn Fn(FuncRef) -> Option<usize>,
    ) -> CodegenResult<()> {
        let result_bits = result.map(|r| self.func.value_type(r).bits());
        match data {
            InstructionData::Iconst { imm } => self.mov_imm(RAX, *imm),
            InstructionData::Binary { op, lhs, rhs } => {
                self.load_value(RAX, *lhs);
                if let (BinaryOp::Ishl, Operand::Imm(n)) = (op, rhs) {
                    // shl rax, imm8
                    self.bytes(&[0x48, 0xC1, 0xE0, (*n & 63) as u8]);
                } else {
                    self.load_operand(RCX, *rhs);
                    match op {
                        BinaryOp::Iadd => self.bytes(&[0x48, 0x01, 0xC8]), // add rax, rcx
                        BinaryOp::Band => self.bytes(&[0x48, 0x21, 0xC8]), // and rax, rcx
                        BinaryOp::Bor => self.bytes(&[0x48, 0x09, 0xC8]),  // or rax, rcx
                        BinaryOp::Bxor => self.bytes(&[0x48, 0x31, 0xC8]), // xor rax, rcx
                        BinaryOp::Imul => self.bytes(&[0x48, 0x0F, 0xAF, 0xC1]), // imul rax, rcx
                        BinaryOp::Ishl => self.bytes(&[0x48, 0xD3, 0xE0]), // shl rax, cl
                    }
                }
                self.normalize_rax(result_bits.unwrap_or(64))?;
            }
            InstructionData::Ctz { arg } => {
                let bits = self.func.value_type(*arg).bits();
                self.load_value(RAX, *arg);
                self.mov_imm(RCX, i64::from(bits));
                self.bytes(&[0x48, 0x0F, 0xBC, 0xC0]); // bsf rax, rax (ZF set on zero input)
                self.bytes(&[0x48, 0x0F, 0x44, 0xC1]); // cmovz rax, rcx
            }
            InstructionData::Icmp { cc, lhs, rhs } => {
                if cc.is_signed() && self.func.value_type(*lhs).bits() != 64 {
                    return unsupported("signed compare of a value narrower than 64 bits");
                }
                self.load_value(RAX, *lhs);
                self.load_operand(RCX, *rhs);
                self.bytes(&[0x48, 0x39, 0xC8]); // cmp rax, rcx
                let setcc = match cc {
                    IntCC::Equal => 0x94,
                    IntCC::NotEqual => 0x95,
                    IntCC::SignedLessThan => 0x9C,
                    IntCC::SignedGreaterThanOrEqual => 0x9D,
                    IntCC::SignedGreaterThan => 0x9F,
                    IntCC::SignedLessThanOrEqual => 0x9E,
                    IntCC::UnsignedLessThan => 0x92,
                    IntCC::UnsignedGreaterThanOrEqual => 0x93,
                    IntCC::UnsignedGreaterThan => 0x97,
                    IntCC::UnsignedLessThanOrEqual => 0x96,
                };
                self.bytes(&[0x0F, setcc, 0xC0]); // setcc al
                self.bytes(&[0x0F, 0xB6, 0xC0]); // movzx eax, al
            }
            InstructionData::Select {
                cond,
                then,
                otherwise,
            } => {
                self.load_value(RDX, *cond);
                self.load_value(RAX, *then);
                self.load_value(RCX, *otherwise);
                self.bytes(&[0x48, 0x85, 0xD2]); // test rdx, rdx
                self.bytes(&[0x48, 0x0F, 0x44, 0xC1]); // cmovz rax, rcx
            }
            // Narrow values are already zero-extended in their homes.
            InstructionData::Uextend { arg } => self.load_value(RAX, *arg),
            InstructionData::Load { addr, offset } => {
                self.load_value(RCX, *addr);
                self.load_mem_rax(result_bits.unwrap_or(64), RCX, *offset)?;
            }
            InstructionData::StackLoad { slot, offset } => {
                let disp = self.slot_disp(*slot, *offset)?;
                self.load_mem_rax(result_bits.unwrap_or(64), Reg(5), disp)?;
            }
            InstructionData::StackStore { arg, slot, offset } => {
                let disp = self.slot_disp(*slot, *offset)?;
                self.load_value(RAX, *arg);
                self.store_mem_rax(self.func.value_type(*arg).bits(), disp)?;
            }
            InstructionData::StackAddr { slot, offset } => {
                let disp = self.slot_disp(*slot, *offset)?;
                self.lea_rax_rbp(disp);
            }
            InstructionData::Call { func, args } => {
                self.call_args(args)?;
                // mov rax, imm64 (always the long form, so a relocation
                // has a fixed 8-byte field to point at); call rax
                self.bytes(&[0x48, 0xB8]);
                let field = self.code.len() as u32;
                match resolve(*func) {
                    Some(addr) => self.bytes(&(addr as u64).to_le_bytes()),
                    None => {
                        self.relocs.push(Reloc {
                            offset: field,
                            target: *func,
                        });
                        self.bytes(&[0; 8]);
                    }
                }
                self.bytes(&[0xFF, 0xD0]);
            }
            InstructionData::CallIndirect { callee, args, .. } => {
                self.call_args(args)?;
                self.load_value(RAX, *callee);
                self.bytes(&[0xFF, 0xD0]); // call rax
            }
            InstructionData::Jump { dest } => self.branch_to(dest, next_block)?,
            InstructionData::Brif {
                cond,
                then,
                otherwise,
            } => {
                self.load_value(RAX, *cond);
                self.bytes(&[0x48, 0x85, 0xC0]); // test rax, rax
                let to_else = self.jz_forward();
                self.branch_to(then, None)?;
                self.patch_forward(to_else);
                self.branch_to(otherwise, next_block)?;
            }
            InstructionData::Return { args } => {
                match args.as_slice() {
                    [] => {}
                    [v] => self.load_value(RAX, *v),
                    _ => return unsupported("multiple return values"),
                }
                self.bytes(&[0xC9, 0xC3]); // leave; ret
            }
        }
        if let Some(r) = result {
            self.store_value(r, RAX);
        }
        Ok(())
    }
}

/// Compile `func` to machine code. `resolve` gives the absolute address
/// of a direct callee; a callee it cannot resolve becomes a relocation.
pub fn emit(
    func: &Function,
    resolve: &dyn Fn(FuncRef) -> Option<usize>,
) -> CodegenResult<(Vec<u8>, Vec<Reloc>)> {
    let entry = *func
        .layout
        .first()
        .ok_or_else(|| CodegenError::Verifier("function has no blocks".into()))?;
    let entry_params = func.block_params(entry);
    if entry_params.len() != func.signature.params.len() {
        return Err(CodegenError::Verifier(
            "entry block parameters do not match the signature".into(),
        ));
    }
    if entry_params.len() > ARG_REGS.len() {
        return unsupported(format!("{} function parameters", entry_params.len()));
    }

    // Frame layout: value homes, then explicit slots, rounded to 16.
    let mut depth = 8 * func.value_types.len() as i64;
    let mut slot_base = Vec::with_capacity(func.stack_slots.len());
    for slot in &func.stack_slots {
        // rbp is 16-byte aligned, so that is the strongest alignment on offer.
        let align = 1i64 << slot.align_shift.clamp(3, 4);
        depth += i64::from(slot.size.max(8));
        depth = (depth + align - 1) / align * align;
        slot_base.push(-depth);
    }
    let frame = (depth + 15) / 16 * 16;
    let frame = i32::try_from(frame)
        .map_err(|_| CodegenError::Unsupported("stack frame larger than 2 GiB".into()))?;
    let slot_base = slot_base.into_iter().map(|d| d as i32).collect();

    let mut e = Emitter {
        func,
        code: Vec::with_capacity(64 + 24 * func.insts.len()),
        relocs: Vec::new(),
        block_offsets: vec![None; func.blocks.len()],
        fixups: Vec::new(),
        slot_base,
    };

    e.bytes(&[0x55, 0x48, 0x89, 0xE5]); // push rbp; mov rbp, rsp
    e.bytes(&[0x48, 0x81, 0xEC]); // sub rsp, imm32
    e.imm32(frame);
    for (reg, param) in ARG_REGS.iter().zip(entry_params) {
        e.store_value(*param, *reg);
    }

    for (pos, &block) in func.layout.iter().enumerate() {
        e.block_offsets[block.index()] = Some(e.code.len() as u32);
        let next_block = func.layout.get(pos + 1).copied();
        let insts = &func.blocks[block.index()].insts;
        let Some((last, body)) = insts.split_last() else {
            return Err(CodegenError::Verifier(format!("{block} is empty")));
        };
        for inst in body {
            let node = &func.insts[inst.index()];
            if node.data.is_terminator() {
                return Err(CodegenError::Verifier(format!(
                    "{block} has a terminator before its end"
                )));
            }
            e.emit_inst(&node.data, node.result, None, resolve)?;
        }
        let node = &func.insts[last.index()];
        if !node.data.is_terminator() {
            return Err(CodegenError::Verifier(format!(
                "{block} does not end in a terminator"
            )));
        }
        e.emit_inst(&node.data, node.result, next_block, resolve)?;
    }

    for (field, target) in std::mem::take(&mut e.fixups) {
        let dest = e.block_offsets[target.index()].ok_or_else(|| {
            CodegenError::Verifier(format!("branch to {target}, which was never filled in"))
        })?;
        let rel = i64::from(dest) - (field as i64 + 4);
        let rel = i32::try_from(rel)
            .map_err(|_| CodegenError::Unsupported("function larger than 2 GiB".into()))?;
        e.code[field..field + 4].copy_from_slice(&rel.to_le_bytes());
    }
    Ok((e.code, e.relocs))
}
