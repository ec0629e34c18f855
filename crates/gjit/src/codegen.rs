//! Operator-at-a-time Cranelift code generation (paper §6.2, Fig. 4).
//!
//! Each operator contributes a region of basic blocks; an operator's
//! *consume* point branches straight into the next operator's *entry*, so
//! the whole pipeline becomes one function whose tuple elements live in SSA
//! values (registers) and small stack slots — no interpreter dispatch, no
//! row materialisation between operators. Pipeline breakers are *not*
//! compiled: the plan is cut at the first breaker and the tail runs through
//! the AOT engine over the compiled segment's output (the paper's pipeline
//! = one function; breakers bound pipelines there too).
//!
//! Generated code follows the requirements the paper lists for reliable IR:
//! (1) stack allocation only (record buffers and row arrays are fixed-size
//! stack slots sized at compile time), (2) initialisation at the function
//! entry, (3) full type information at compile time (column kinds are
//! tracked statically), (4) compatibility with the AOT engine (identical
//! runtime helpers and row format).
//!
//! This is the only code generator: a residual expression
//! ([`crate::expr`]) is `Gen::emit_filter` over a one-column row. All
//! output is **relocation-free**, so the raw bytes can be written to the
//! on-disk code cache ([`crate::diskcache`]) and re-mapped after a restart
//! without a linker:
//!
//! * every runtime-helper call is indirect through the helper *table*
//!   (`runtime::helper_table`) passed as the second function
//!   argument — the code embeds table **indices**, never helper addresses;
//! * all state lives in stack slots; there are no global-value or
//!   constant-pool references (the generator emits only integer ops,
//!   `brif`/`jump`, stack slots, loads and indirect calls).
//!
//! After `Context::compile` the relocation list must be empty; any future
//! construct that breaks position independence fails compilation loudly
//! ([`JitError::Unsupported`]) instead of producing bytes that are wrong
//! after reload.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cranelift_codegen::control::ControlPlane;
use cranelift_codegen::ir::condcodes::IntCC;
use cranelift_codegen::ir::{
    self, types, AbiParam, Block, InstBuilder, MemFlags, SigRef, Signature, StackSlot,
    StackSlotData, StackSlotKind, Type, Value,
};
use cranelift_codegen::isa::CallConv;
use cranelift_codegen::settings::{self, Configurable};
use cranelift_codegen::Context;
use cranelift_frontend::{FunctionBuilder, FunctionBuilderContext};
use memmap2::{Mmap, MmapMut};

use gquery::plan::{CmpOp, Op, PPar, Pred, Proj, RelEnd};
use graphcore::Dir;
use gstore::{PVal, NIL};

use crate::engine::JitError;
use crate::expr::{supported, ExprSource};
use crate::runtime::{offsets, Helper};

/// Relocation-free machine code plus an executable mapping of it: the one
/// code object both tiers produce, cache and persist. The bytes hold no
/// absolute address (every `rt_*` call goes through the helper table the
/// caller passes in), so a copy of them mapped anywhere, in any later
/// process with the same [`crate::diskcache::engine_key`], runs the same.
pub struct Code {
    bytes: Vec<u8>,
    map: Mmap,
    compile_time: Duration,
}

impl Code {
    /// Map `bytes` executable. `compile_time` is zero for code that came
    /// from the disk cache.
    pub(crate) fn map(bytes: Vec<u8>, compile_time: Duration) -> Result<Code, JitError> {
        if !supported() {
            return Err(JitError::Unsupported("compiled code requires x86_64".into()));
        }
        let mut map = MmapMut::map_anon(bytes.len().max(1))
            .map_err(|e| JitError::Backend(format!("mmap: {e}")))?;
        map[..bytes.len()].copy_from_slice(&bytes);
        let map = map
            .make_exec()
            .map_err(|e| JitError::Backend(format!("mprotect: {e}")))?;
        Ok(Code {
            bytes,
            map,
            compile_time,
        })
    }

    /// The machine code, as stored in the disk cache.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Wall-clock compile latency (zero for code loaded from bytes).
    pub fn compile_time(&self) -> Duration {
        self.compile_time
    }

    pub(crate) fn entry(&self) -> *const u8 {
        self.map.as_ptr()
    }
}

/// Static column kind, tracked alongside the SSA row (requirement (3):
/// type information at compile time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColKind {
    Node,
    Rel,
    /// Property value; SSA pair is (slot tag, payload).
    Val,
}

/// One column: its static kind plus the SSA values (slot tag, payload).
#[derive(Clone, Copy)]
struct Col {
    kind: ColKind,
    tag: Value,
    val: Value,
}

type RowVals = Vec<Col>;

/// Slot tags of value columns: 8 + the `PVal` tag (Int = 1, Bool = 3).
const SLOT_INT: i64 = 9;
const SLOT_BOOL: i64 = 11;

/// Compile the pipeline segment `ops` into
/// `fn(ctx: *mut RtCtx, helpers: *const usize, chunk_lo: u64, chunk_hi: u64) -> i64`
/// (0 = ok, -1 = error in `RtCtx::error`). For scan access paths the chunk
/// range selects the morsel; other access paths run once, ignoring it.
pub(crate) fn compile_pipeline(ops: &[Op]) -> Result<Code, JitError> {
    build(2, None, |g, args| {
        g.emit_access_path(ops, args[0], args[1])?;
        Ok(g.iconst(0))
    })
}

/// Compile `pred` over the one-column row of a `src` scan into
/// `fn(ctx: *mut RtCtx, helpers: *const usize, row: *const Slot) -> i64`
/// (1 = row passes, 0 = row fails, -1 = error in `RtCtx::error`). With
/// `inline_params` set, `PPar::Param` holes fold to those constants.
pub(crate) fn compile_expr(
    src: ExprSource,
    pred: &Pred,
    inline_params: Option<&[PVal]>,
) -> Result<Code, JitError> {
    build(1, inline_params, |g, args| {
        // Slot layout: {tag: u8, pad[7], val: u64} — the id is at +8.
        let id = g.b.ins().load(types::I64, MemFlags::trusted(), args[0], 8);
        let kind = match src {
            ExprSource::Node => ColKind::Node,
            ExprSource::Rel => ColKind::Rel,
        };
        let row = vec![g.entity(kind, id)];
        let truth = g.emit_filter(pred, &row)?;
        Ok(g.b.ins().uextend(types::I64, truth))
    })
}

/// Build, compile and map one function `(ctx, helpers, extra…) -> i64`.
/// `body` emits the function's work from the `n_extra` trailing arguments
/// (all I64: x86_64, the one supported target, has 64-bit pointers) and
/// returns the value to return on the success path; the error path, taken
/// through [`Gen::check_status`], returns -1.
fn build<'p>(
    n_extra: usize,
    inline_params: Option<&'p [PVal]>,
    body: impl FnOnce(&mut Gen<'p, '_>, &[Value]) -> Result<Value, JitError>,
) -> Result<Code, JitError> {
    if !supported() {
        return Err(JitError::Unsupported("code generation requires x86_64".into()));
    }
    let start = Instant::now();
    let mut flags = settings::builder();
    flags
        .set("opt_level", "speed")
        .map_err(|e| JitError::Backend(e.to_string()))?;
    let isa = cranelift_native::builder()
        .map_err(|e| JitError::Backend(e.to_string()))?
        .finish(settings::Flags::new(flags))
        .map_err(|e| JitError::Backend(e.to_string()))?;
    let call_conv = isa.default_call_conv();
    let ptr_ty = isa.frontend_config().pointer_type();

    let mut sig = Signature::new(call_conv);
    sig.params.push(AbiParam::new(ptr_ty)); // ctx
    sig.params.push(AbiParam::new(ptr_ty)); // helper table
    for _ in 0..n_extra {
        sig.params.push(AbiParam::new(types::I64));
    }
    sig.returns.push(AbiParam::new(types::I64));

    let mut func = ir::Function::with_name_signature(ir::UserFuncName::user(0, 0), sig);
    let mut fb_ctx = FunctionBuilderContext::new();
    {
        let mut b = FunctionBuilder::new(&mut func, &mut fb_ctx);
        let entry = b.create_block();
        b.append_block_params_for_function_params(entry);
        b.switch_to_block(entry);
        b.seal_block(entry);
        let args = b.block_params(entry).to_vec();
        let exit_err = b.create_block();

        let mut g = Gen {
            b,
            ptr_ty,
            call_conv,
            ctx: args[0],
            helpers: args[1],
            sigs: HashMap::new(),
            exit_err,
            next_index_buf: 0,
            inline_params,
            hoisted: HashMap::new(),
        };
        let ret = body(&mut g, &args[2..])?;
        g.b.ins().return_(&[ret]);

        g.b.switch_to_block(exit_err);
        g.b.seal_block(exit_err);
        let minus1 = g.iconst(-1);
        g.b.ins().return_(&[minus1]);

        g.b.finalize();
    }

    let mut cctx = Context::for_function(func);
    let compiled = cctx
        .compile(&*isa, &mut ControlPlane::default())
        .map_err(|e| JitError::Backend(format!("{e:?}")))?;
    if !compiled.buffer.relocs().is_empty() {
        // Would be wrong in any other mapping, such as one reloaded from
        // the disk cache: refuse rather than run it.
        return Err(JitError::Unsupported(
            "generated code required relocations".into(),
        ));
    }
    Code::map(compiled.code_buffer().to_vec(), start.elapsed())
}

/// Count `Pred::Prop` mentions per (column, key).
fn count_prop_keys(p: &Pred, counts: &mut HashMap<(usize, u32), usize>) {
    match p {
        Pred::Prop { col, key, .. } => *counts.entry((*col, *key)).or_insert(0) += 1,
        Pred::And(l, r) | Pred::Or(l, r) => {
            count_prop_keys(l, counts);
            count_prop_keys(r, counts);
        }
        Pred::Not(x) => count_prop_keys(x, counts),
        _ => {}
    }
}

struct Gen<'p, 'b> {
    b: FunctionBuilder<'b>,
    ptr_ty: Type,
    call_conv: CallConv,
    ctx: Value,
    helpers: Value,
    /// Imported signatures for indirect helper calls, keyed by arity.
    sigs: HashMap<usize, SigRef>,
    exit_err: Block,
    /// Allocates a distinct runtime scratch buffer per index operator.
    next_index_buf: usize,
    /// Parameter values to fold into the code as constants, if any.
    inline_params: Option<&'p [PVal]>,
    /// Property fetches hoisted to the start of the filter being emitted:
    /// (column, key) → 24-byte slot {tag @0, val @8, status @16}.
    hoisted: HashMap<(usize, u32), StackSlot>,
}

impl<'p, 'b> Gen<'p, 'b> {
    /// Call a runtime helper through its helper-table slot: the code
    /// embeds only the slot index, never the helper's address.
    fn call(&mut self, helper: Helper, args: &[Value]) -> Value {
        let sig = match self.sigs.get(&args.len()) {
            Some(&s) => s,
            None => {
                let mut sig = Signature::new(self.call_conv);
                for _ in 0..args.len() {
                    sig.params.push(AbiParam::new(types::I64));
                }
                sig.returns.push(AbiParam::new(types::I64));
                let s = self.b.import_signature(sig);
                self.sigs.insert(args.len(), s);
                s
            }
        };
        let fp = self.b.ins().load(
            self.ptr_ty,
            MemFlags::trusted(),
            self.helpers,
            (helper as usize * 8) as i32,
        );
        let inst = self.b.ins().call_indirect(sig, fp, args);
        self.b.inst_results(inst)[0]
    }

    fn iconst(&mut self, v: i64) -> Value {
        self.b.ins().iconst(types::I64, v)
    }

    fn slot(&mut self, size: u32) -> StackSlot {
        self.b.create_sized_stack_slot(StackSlotData::new(
            StackSlotKind::ExplicitSlot,
            size.div_ceil(8) * 8,
            3,
        ))
    }

    fn slot_addr(&mut self, slot: StackSlot) -> Value {
        self.b.ins().stack_addr(self.ptr_ty, slot, 0)
    }

    /// Branch to `exit_err` if `status < 0`.
    fn check_status(&mut self, status: Value) {
        let neg = self
            .b
            .ins()
            .icmp_imm(IntCC::SignedLessThan, status, 0);
        let cont = self.b.create_block();
        self.b.ins().brif(neg, self.exit_err, &[], cont, &[]);
        self.b.switch_to_block(cont);
        self.b.seal_block(cont);
    }

    /// Branch to `exit_err` if `id` is `NIL` (the helper recorded why).
    fn check_not_nil(&mut self, id: Value) {
        let nil = self.iconst(NIL as i64);
        let is_nil = self.b.ins().icmp(IntCC::Equal, id, nil);
        let cont = self.b.create_block();
        self.b.ins().brif(is_nil, self.exit_err, &[], cont, &[]);
        self.b.switch_to_block(cont);
        self.b.seal_block(cont);
    }

    /// The compile-time value of `p`, if it has one (constants always;
    /// parameters only when inlining).
    fn const_ppar(&self, p: &PPar) -> Result<Option<PVal>, JitError> {
        match p {
            PPar::Const(pv) => Ok(Some(*pv)),
            PPar::Param(i) => match self.inline_params {
                Some(ps) => ps.get(*i).copied().map(Some).ok_or_else(|| {
                    JitError::Unsupported(format!("parameter {i} out of range"))
                }),
                None => Ok(None),
            },
        }
    }

    /// Resolve a plan literal/parameter into SSA (pval_tag, payload).
    fn resolve_ppar(&mut self, p: &PPar) -> Result<(Value, Value), JitError> {
        if let Some(pv) = self.const_ppar(p)? {
            let (t, v) = pv.encode();
            let tv = self.iconst(t as i64);
            let vv = self.iconst(v as i64);
            return Ok((tv, vv));
        }
        let PPar::Param(i) = p else { unreachable!() };
        let s = self.slot(16);
        let addr_t = self.slot_addr(s);
        let addr_v = self.b.ins().iadd_imm(addr_t, 8);
        let idx = self.iconst(*i as i64);
        let st = self.call(Helper::Param, &[self.ctx, idx, addr_t, addr_v]);
        self.check_status(st);
        let t = self.b.ins().stack_load(types::I64, s, 0);
        let v = self.b.ins().stack_load(types::I64, s, 8);
        Ok((t, v))
    }

    /// Owner tag for the property/label helpers: 1 = node, 2 = rel.
    fn owner_tag(&mut self, c: &Col, what: &str) -> Result<Value, JitError> {
        match c.kind {
            ColKind::Node => Ok(self.iconst(1)),
            ColKind::Rel => Ok(self.iconst(2)),
            ColKind::Val => Err(JitError::Unsupported(format!("{what} on value column"))),
        }
    }

    /// A node or relationship column holding `id` (slot tag 1 or 2).
    fn entity(&mut self, kind: ColKind, id: Value) -> Col {
        debug_assert!(kind != ColKind::Val);
        let tag = self.iconst(if kind == ColKind::Node { 1 } else { 2 });
        Col { kind, tag, val: id }
    }

    /// A property-value column with a constant slot tag.
    fn value(&mut self, slot_tag: i64, val: Value) -> Col {
        let tag = self.iconst(slot_tag);
        Col {
            kind: ColKind::Val,
            tag,
            val,
        }
    }

    /// Fetch property `key` of entity column `c` into a fresh 24-byte slot
    /// {tag @0, val @8, spare @16}; returns `rt_prop`'s status (1 found,
    /// 0 missing) and the slot.
    fn emit_prop_fetch(
        &mut self,
        c: &Col,
        key: u32,
        what: &str,
    ) -> Result<(Value, StackSlot), JitError> {
        let owner = self.owner_tag(c, what)?;
        let k = self.iconst(key as i64);
        let s = self.slot(24);
        let pt_addr = self.slot_addr(s);
        let pv_addr = self.b.ins().iadd_imm(pt_addr, 8);
        let st = self.call(Helper::Prop, &[self.ctx, owner, c.val, k, pt_addr, pv_addr]);
        self.check_status(st);
        Ok((st, s))
    }

    // ------------------------------------------------------------------
    // Access paths
    // ------------------------------------------------------------------

    fn emit_access_path(&mut self, ops: &[Op], c0: Value, c1: Value) -> Result<(), JitError> {
        let (first, rest) = ops
            .split_first()
            .ok_or_else(|| JitError::Unsupported("empty pipeline".into()))?;
        match first {
            Op::Once => {
                self.emit_pipeline(rest, &Vec::new())?;
                Ok(())
            }
            Op::NodeScan { label } => self.emit_scan(rest, *label, true, c0, c1),
            Op::RelScan { label } => self.emit_scan(rest, *label, false, c0, c1),
            Op::IndexScan { label, key, value } => {
                self.emit_index_scan(rest, &Vec::new(), *label, *key, value)
            }
            Op::NodeById { id } => {
                let (t, v) = self.resolve_ppar(id)?;
                // Must be an Int id (tag 1); otherwise emit nothing.
                let is_int = self.b.ins().icmp_imm(IntCC::Equal, t, 1);
                let ok_blk = self.b.create_block();
                let done = self.b.create_block();
                self.b.ins().brif(is_int, ok_blk, &[], done, &[]);
                self.b.switch_to_block(ok_blk);
                self.b.seal_block(ok_blk);
                let rec = self.slot(offsets::NODE_REC_SIZE);
                let addr = self.slot_addr(rec);
                let st = self.call(Helper::NodeVisible, &[self.ctx, v, addr]);
                self.check_status(st);
                let vis = self.b.ins().icmp_imm(IntCC::Equal, st, 1);
                let row_blk = self.b.create_block();
                self.b.ins().brif(vis, row_blk, &[], done, &[]);
                self.b.switch_to_block(row_blk);
                self.b.seal_block(row_blk);
                let row = vec![self.entity(ColKind::Node, v)];
                self.emit_pipeline(rest, &row)?;
                self.b.ins().jump(done, &[]);
                self.b.switch_to_block(done);
                self.b.seal_block(done);
                Ok(())
            }
            other => Err(JitError::Unsupported(format!(
                "operator {other:?} cannot start a compiled pipeline"
            ))),
        }
    }

    /// Chunked bitmap scan over nodes or relationships, bounded by the
    /// morsel range `[c0, c1)`.
    fn emit_scan(
        &mut self,
        rest: &[Op],
        label: Option<u32>,
        nodes: bool,
        c0: Value,
        c1: Value,
    ) -> Result<(), JitError> {
        let rec_size = if nodes {
            offsets::NODE_REC_SIZE
        } else {
            offsets::REL_REC_SIZE
        };
        let rec = self.slot(rec_size);

        let chunk_hdr = self.b.create_block();
        self.b.append_block_param(chunk_hdr, types::I64); // c
        let chunk_body = self.b.create_block();
        let bit_hdr = self.b.create_block();
        self.b.append_block_param(bit_hdr, types::I64); // bitmap
        self.b.append_block_param(bit_hdr, types::I64); // c (carried)
        let bit_body = self.b.create_block();
        let after = self.b.create_block();

        self.b.ins().jump(chunk_hdr, &[c0.into()]);

        // chunk_hdr(c): c < c1 ? body : after
        self.b.switch_to_block(chunk_hdr);
        let c = self.b.block_params(chunk_hdr)[0];
        let in_range = self.b.ins().icmp(IntCC::UnsignedLessThan, c, c1);
        self.b.ins().brif(in_range, chunk_body, &[], after, &[]);

        // chunk_body: bm = bitmap(c); jump bit_hdr(bm, c)
        self.b.switch_to_block(chunk_body);
        self.b.seal_block(chunk_body);
        let bm0 = self.call(
            if nodes { Helper::NodeBitmap } else { Helper::RelBitmap },
            &[self.ctx, c],
        );
        self.b.ins().jump(bit_hdr, &[bm0.into(), c.into()]);

        // bit_hdr(bm, c): bm != 0 ? bit_body : next chunk
        self.b.switch_to_block(bit_hdr);
        let bm = self.b.block_params(bit_hdr)[0];
        let cc = self.b.block_params(bit_hdr)[1];
        let nonzero = self.b.ins().icmp_imm(IntCC::NotEqual, bm, 0);
        let chunk_next = self.b.create_block();
        self.b.ins().brif(nonzero, bit_body, &[], chunk_next, &[]);

        // chunk_next: c+1 -> chunk_hdr
        self.b.switch_to_block(chunk_next);
        self.b.seal_block(chunk_next);
        let c_next = self.b.ins().iadd_imm(cc, 1);
        self.b.ins().jump(chunk_hdr, &[c_next.into()]);
        self.b.seal_block(chunk_hdr);

        // bit_body: slot = ctz(bm); id = c*64+slot; bm' = bm & (bm-1)
        self.b.switch_to_block(bit_body);
        self.b.seal_block(bit_body);
        let tz = self.b.ins().ctz(bm);
        let base = self.b.ins().imul_imm(cc, 64);
        let id = self.b.ins().iadd(base, tz);
        let bm_dec = self.b.ins().iadd_imm(bm, -1);
        let bm_next = self.b.ins().band(bm, bm_dec);

        let addr = self.slot_addr(rec);
        // Scan loops enumerate occupancy bitmaps, so the liveness re-check
        // inside the generic read is specialised away.
        let st = self.call(
            if nodes {
                Helper::NodeVisibleScan
            } else {
                Helper::RelVisibleScan
            },
            &[self.ctx, id, addr],
        );
        self.check_status(st);
        let visible = self.b.ins().icmp_imm(IntCC::Equal, st, 1);
        let vis_blk = self.b.create_block();
        let skip = self.b.create_block();
        self.b.ins().brif(visible, vis_blk, &[], skip, &[]);

        self.b.switch_to_block(vis_blk);
        self.b.seal_block(vis_blk);
        // Inline label filter on the record in the stack slot.
        if let Some(l) = label {
            let lbl = self.b.ins().stack_load(
                types::I32,
                rec,
                if nodes {
                    offsets::NODE_LABEL
                } else {
                    offsets::REL_LABEL
                },
            );
            let want = self.b.ins().iconst(types::I32, l as i64);
            let eq = self.b.ins().icmp(IntCC::Equal, lbl, want);
            let pass = self.b.create_block();
            self.b.ins().brif(eq, pass, &[], skip, &[]);
            self.b.switch_to_block(pass);
            self.b.seal_block(pass);
        }
        let row = vec![self.entity(if nodes { ColKind::Node } else { ColKind::Rel }, id)];
        self.emit_pipeline(rest, &row)?;
        self.b.ins().jump(skip, &[]);

        // skip: continue bit loop
        self.b.switch_to_block(skip);
        self.b.seal_block(skip);
        self.b.ins().jump(bit_hdr, &[bm_next.into(), cc.into()]);
        self.b.seal_block(bit_hdr);

        self.b.switch_to_block(after);
        self.b.seal_block(after);
        Ok(())
    }

    fn emit_index_scan(
        &mut self,
        rest: &[Op],
        base: &RowVals,
        label: u32,
        key: u32,
        value: &PPar,
    ) -> Result<(), JitError> {
        let buf_idx = self.next_index_buf;
        self.next_index_buf += 1;
        let (vt, vv) = self.resolve_ppar(value)?;
        let bufv = self.iconst(buf_idx as i64);
        let lbl = self.iconst(label as i64);
        let k = self.iconst(key as i64);
        let n = self.call(Helper::IndexLookup, &[self.ctx, bufv, lbl, k, vt, vv]);
        self.check_status(n);

        let rec = self.slot(offsets::NODE_REC_SIZE);
        let hdr = self.b.create_block();
        self.b.append_block_param(hdr, types::I64); // i
        let body = self.b.create_block();
        let after = self.b.create_block();
        let skip = self.b.create_block();

        let zero = self.iconst(0);
        self.b.ins().jump(hdr, &[zero.into()]);

        self.b.switch_to_block(hdr);
        let i = self.b.block_params(hdr)[0];
        let in_range = self.b.ins().icmp(IntCC::SignedLessThan, i, n);
        self.b.ins().brif(in_range, body, &[], after, &[]);

        self.b.switch_to_block(body);
        self.b.seal_block(body);
        let id = self.call(Helper::IndexGet, &[self.ctx, bufv, i]);
        let addr = self.slot_addr(rec);
        let st = self.call(Helper::NodeVisible, &[self.ctx, id, addr]);
        self.check_status(st);
        let visible = self.b.ins().icmp_imm(IntCC::Equal, st, 1);
        let vis_blk = self.b.create_block();
        self.b.ins().brif(visible, vis_blk, &[], skip, &[]);

        self.b.switch_to_block(vis_blk);
        self.b.seal_block(vis_blk);
        // Label check.
        let l = self.b.ins().stack_load(types::I32, rec, offsets::NODE_LABEL);
        let want = self.b.ins().iconst(types::I32, label as i64);
        let leq = self.b.ins().icmp(IntCC::Equal, l, want);
        let lbl_ok = self.b.create_block();
        self.b.ins().brif(leq, lbl_ok, &[], skip, &[]);
        self.b.switch_to_block(lbl_ok);
        self.b.seal_block(lbl_ok);

        // Property re-check (indexes are secondary): rt_prop == (vt, vv).
        let node = self.entity(ColKind::Node, id);
        let (pst, pslot) = self.emit_prop_fetch(&node, key, "index re-check")?;
        let found = self.b.ins().icmp_imm(IntCC::Equal, pst, 1);
        let found_blk = self.b.create_block();
        self.b.ins().brif(found, found_blk, &[], skip, &[]);
        self.b.switch_to_block(found_blk);
        self.b.seal_block(found_blk);
        let pt = self.b.ins().stack_load(types::I64, pslot, 0);
        let pvv = self.b.ins().stack_load(types::I64, pslot, 8);
        let te = self.b.ins().icmp(IntCC::Equal, pt, vt);
        let ve = self.b.ins().icmp(IntCC::Equal, pvv, vv);
        let both = self.b.ins().band(te, ve);
        let match_blk = self.b.create_block();
        self.b.ins().brif(both, match_blk, &[], skip, &[]);
        self.b.switch_to_block(match_blk);
        self.b.seal_block(match_blk);

        let mut row = base.clone();
        row.push(node);
        self.emit_pipeline(rest, &row)?;
        self.b.ins().jump(skip, &[]);

        self.b.switch_to_block(skip);
        self.b.seal_block(skip);
        let i_next = self.b.ins().iadd_imm(i, 1);
        self.b.ins().jump(hdr, &[i_next.into()]);
        self.b.seal_block(hdr);

        self.b.switch_to_block(after);
        self.b.seal_block(after);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Pipeline body
    // ------------------------------------------------------------------

    /// Emit the rest of the pipeline for one row. On return the builder is
    /// positioned where control continues after the row is fully handled.
    fn emit_pipeline(&mut self, ops: &[Op], row: &RowVals) -> Result<(), JitError> {
        let Some((op, rest)) = ops.split_first() else {
            return self.emit_emit(row);
        };
        match op {
            Op::Filter(pred) => {
                let cond = self.emit_filter(pred, row)?;
                let pass = self.b.create_block();
                let merge = self.b.create_block();
                self.b.ins().brif(cond, pass, &[], merge, &[]);
                self.b.switch_to_block(pass);
                self.b.seal_block(pass);
                self.emit_pipeline(rest, row)?;
                self.b.ins().jump(merge, &[]);
                self.b.switch_to_block(merge);
                self.b.seal_block(merge);
                Ok(())
            }
            Op::ForeachRel { col, dir, label } => self.emit_foreach(rest, row, *col, *dir, *label),
            Op::IndexProbe { label, key, value } => {
                self.emit_index_scan(rest, row, *label, *key, value)
            }
            Op::GetNode { col, end } => {
                let relv = self.col(row, *col)?;
                let (endc, anchor) = match end {
                    RelEnd::Src => (0, self.iconst(0)),
                    RelEnd::Dst => (1, self.iconst(0)),
                    RelEnd::Other(c) => (2, self.col(row, *c)?.val),
                };
                let endv = self.iconst(endc);
                let node = self.call(Helper::RelEnd, &[self.ctx, relv.val, endv, anchor]);
                self.check_not_nil(node);
                let mut next = row.clone();
                next.push(self.entity(ColKind::Node, node));
                self.emit_pipeline(rest, &next)
            }
            Op::Project(projs) => {
                let mut next = Vec::with_capacity(projs.len());
                for p in projs {
                    next.push(self.emit_proj(p, row)?);
                }
                self.emit_pipeline(rest, &next)
            }
            Op::CreateNode { label, props } => {
                let kv = self.emit_props_array(props)?;
                let lbl = self.iconst(*label as i64);
                let n = self.iconst(props.len() as i64);
                let addr = self.slot_addr(kv);
                let id = self.call(Helper::CreateNode, &[self.ctx, lbl, addr, n]);
                self.check_not_nil(id);
                let mut next = row.clone();
                next.push(self.entity(ColKind::Node, id));
                self.emit_pipeline(rest, &next)
            }
            Op::CreateRel {
                src_col,
                dst_col,
                label,
                props,
            } => {
                let src = self.col(row, *src_col)?.val;
                let dst = self.col(row, *dst_col)?.val;
                let kv = self.emit_props_array(props)?;
                let lbl = self.iconst(*label as i64);
                let n = self.iconst(props.len() as i64);
                let addr = self.slot_addr(kv);
                let id = self.call(Helper::CreateRel, &[self.ctx, src, dst, lbl, addr, n]);
                self.check_not_nil(id);
                let mut next = row.clone();
                next.push(self.entity(ColKind::Rel, id));
                self.emit_pipeline(rest, &next)
            }
            Op::SetProp { col, key, value } => {
                let c = *self.col(row, *col)?;
                let owner_tag = self.owner_tag(&c, "SetProp")?;
                let (vt, vv) = self.resolve_ppar(value)?;
                let k = self.iconst(*key as i64);
                let st = self.call(Helper::SetProp, &[self.ctx, owner_tag, c.val, k, vt, vv]);
                self.check_status(st);
                self.emit_pipeline(rest, row)
            }
            other => Err(JitError::Unsupported(format!(
                "operator {other:?} in compiled pipeline"
            ))),
        }
    }

    fn emit_foreach(
        &mut self,
        rest: &[Op],
        row: &RowVals,
        col: usize,
        dir: Dir,
        label: Option<u32>,
    ) -> Result<(), JitError> {
        let node = self.col(row, col)?;
        let dirv = self.iconst(match dir {
            Dir::Out => 0,
            Dir::In => 1,
        });
        let first = self.call(Helper::FirstRel, &[self.ctx, node.val, dirv]);
        let rec = self.slot(offsets::REL_REC_SIZE);

        let hdr = self.b.create_block();
        self.b.append_block_param(hdr, types::I64); // cur
        let body = self.b.create_block();
        let after = self.b.create_block();

        self.b.ins().jump(hdr, &[first.into()]);

        self.b.switch_to_block(hdr);
        let cur = self.b.block_params(hdr)[0];
        let nil = self.iconst(NIL as i64);
        let at_end = self.b.ins().icmp(IntCC::Equal, cur, nil);
        self.b.ins().brif(at_end, after, &[], body, &[]);

        self.b.switch_to_block(body);
        self.b.seal_block(body);
        let addr = self.slot_addr(rec);
        let st = self.call(Helper::RelVisible, &[self.ctx, cur, addr]);
        self.check_status(st);
        let visible = self.b.ins().icmp_imm(IntCC::Equal, st, 1);
        let vis_blk = self.b.create_block();
        let invis_blk = self.b.create_block();
        self.b.ins().brif(visible, vis_blk, &[], invis_blk, &[]);

        // Invisible: follow the raw link.
        self.b.switch_to_block(invis_blk);
        self.b.seal_block(invis_blk);
        let raw_next = self.call(Helper::RelRawNext, &[self.ctx, cur, dirv]);
        self.b.ins().jump(hdr, &[raw_next.into()]);

        // Visible: load next pointer, apply label filter, run continuation.
        self.b.switch_to_block(vis_blk);
        self.b.seal_block(vis_blk);
        let next_off = match dir {
            Dir::Out => offsets::REL_NEXT_SRC,
            Dir::In => offsets::REL_NEXT_DST,
        };
        let next = self.b.ins().stack_load(types::I64, rec, next_off);
        let cont = self.b.create_block();
        self.b.append_block_param(cont, types::I64); // carried next
        if let Some(l) = label {
            let lbl = self.b.ins().stack_load(types::I32, rec, offsets::REL_LABEL);
            let want = self.b.ins().iconst(types::I32, l as i64);
            let eq = self.b.ins().icmp(IntCC::Equal, lbl, want);
            let pass = self.b.create_block();
            self.b.ins().brif(eq, pass, &[], cont, &[next.into()]);
            self.b.switch_to_block(pass);
            self.b.seal_block(pass);
        }
        let mut nrow = row.clone();
        nrow.push(self.entity(ColKind::Rel, cur));
        self.emit_pipeline(rest, &nrow)?;
        self.b.ins().jump(cont, &[next.into()]);

        self.b.switch_to_block(cont);
        self.b.seal_block(cont);
        let carried = self.b.block_params(cont)[0];
        self.b.ins().jump(hdr, &[carried.into()]);
        self.b.seal_block(hdr);

        self.b.switch_to_block(after);
        self.b.seal_block(after);
        Ok(())
    }

    fn emit_emit(&mut self, row: &RowVals) -> Result<(), JitError> {
        let n = row.len().max(1);
        let slot = self.slot((n * 16) as u32);
        for (i, c) in row.iter().enumerate() {
            // Slot layout: {tag: u8, pad[7], val: u64}. Writing the tag as a
            // full u64 zeroes the padding.
            let tag_masked = self.b.ins().band_imm(c.tag, 0xFF);
            self.b
                .ins()
                .stack_store(tag_masked, slot, (i * 16) as i32);
            self.b.ins().stack_store(c.val, slot, (i * 16 + 8) as i32);
        }
        let addr = self.slot_addr(slot);
        let len = self.iconst(row.len() as i64);
        let st = self.call(Helper::Emit, &[self.ctx, addr, len]);
        self.check_status(st);
        Ok(())
    }

    fn emit_props_array(&mut self, props: &[(u32, PPar)]) -> Result<StackSlot, JitError> {
        let slot = self.slot((props.len().max(1) * 16) as u32);
        for (i, (key, value)) in props.iter().enumerate() {
            let (t, v) = self.resolve_ppar(value)?;
            // PropKV: {key: u32 @0, tag: u8 @4, pad, val: u64 @8}; bytes 0-3
            // = key, byte 4 = tag when stored little-endian as one u64.
            let t_shifted = self.b.ins().ishl_imm(t, 32);
            let keyv = self.iconst(*key as i64);
            let packed = self.b.ins().bor(keyv, t_shifted);
            self.b.ins().stack_store(packed, slot, (i * 16) as i32);
            self.b.ins().stack_store(v, slot, (i * 16 + 8) as i32);
        }
        Ok(slot)
    }

    fn col<'r>(&mut self, row: &'r RowVals, i: usize) -> Result<&'r Col, JitError> {
        row.get(i)
            .ok_or_else(|| JitError::Unsupported(format!("column {i} out of range")))
    }

    // ------------------------------------------------------------------
    // Predicates & projections
    // ------------------------------------------------------------------

    /// Emit one filter predicate over `row`. Property fetches for a
    /// (column, key) mentioned more than once are hoisted in front of the
    /// predicate — one `rt_prop` call per row instead of one per mention,
    /// the big win on `Or`-chains over one property — so a fetch error can
    /// surface even where short-circuit evaluation would have skipped that
    /// mention. Either way the row errors.
    fn emit_filter(&mut self, pred: &Pred, row: &RowVals) -> Result<Value, JitError> {
        let mut counts = HashMap::new();
        count_prop_keys(pred, &mut counts);
        let mut hoist: Vec<(usize, u32)> = counts
            .into_iter()
            .filter(|&(_, n)| n >= 2)
            .map(|(k, _)| k)
            .collect();
        hoist.sort_unstable();
        for (col, key) in hoist {
            let c = *self.col(row, col)?;
            let (st, s) = self.emit_prop_fetch(&c, key, "Prop pred")?;
            self.b.ins().stack_store(st, s, 16);
            self.hoisted.insert((col, key), s);
        }
        let truth = self.emit_pred(pred, row);
        self.hoisted.clear();
        truth
    }

    /// Emit predicate evaluation; returns an I8 truth value. Short-circuit
    /// semantics match the interpreter.
    fn emit_pred(&mut self, pred: &Pred, row: &RowVals) -> Result<Value, JitError> {
        match pred {
            Pred::Prop {
                col,
                key,
                op,
                value,
            } => {
                let c = *self.col(row, *col)?;
                let (st, pslot) = match self.hoisted.get(&(*col, *key)) {
                    Some(&s) => (self.b.ins().stack_load(types::I64, s, 16), s),
                    None => self.emit_prop_fetch(&c, *key, "Prop pred")?,
                };
                let found = self.b.ins().icmp_imm(IntCC::Equal, st, 1);

                let res = self.b.create_block();
                self.b.append_block_param(res, types::I8);
                let eval = self.b.create_block();
                let f = self.b.ins().iconst(types::I8, 0);
                self.b.ins().brif(found, eval, &[], res, &[f.into()]);

                self.b.switch_to_block(eval);
                self.b.seal_block(eval);
                let at = self.b.ins().stack_load(types::I64, pslot, 0);
                let av = self.b.ins().stack_load(types::I64, pslot, 8);
                let truth = match op {
                    CmpOp::Eq | CmpOp::Ne => {
                        let (et, ev) = self.resolve_ppar(value)?;
                        let te = self.b.ins().icmp(IntCC::Equal, at, et);
                        let ve = self.b.ins().icmp(IntCC::Equal, av, ev);
                        let both = self.b.ins().band(te, ve);
                        if *op == CmpOp::Eq {
                            both
                        } else {
                            self.b.ins().bxor_imm(both, 1)
                        }
                    }
                    ordered => {
                        let ka = self.call(Helper::Ikey, &[at, av]);
                        // A compile-time-known expected value folds its
                        // order-preserving key to a constant.
                        let kb = match self.const_ppar(value)? {
                            Some(pv) => self.iconst(pv.index_key() as i64),
                            None => {
                                let (et, ev) = self.resolve_ppar(value)?;
                                self.call(Helper::Ikey, &[et, ev])
                            }
                        };
                        let cc = match ordered {
                            CmpOp::Lt => IntCC::UnsignedLessThan,
                            CmpOp::Le => IntCC::UnsignedLessThanOrEqual,
                            CmpOp::Gt => IntCC::UnsignedGreaterThan,
                            CmpOp::Ge => IntCC::UnsignedGreaterThanOrEqual,
                            _ => unreachable!(),
                        };
                        self.b.ins().icmp(cc, ka, kb)
                    }
                };
                self.b.ins().jump(res, &[truth.into()]);
                self.b.switch_to_block(res);
                self.b.seal_block(res);
                Ok(self.b.block_params(res)[0])
            }
            Pred::LabelIs { col, label } => {
                let c = *self.col(row, *col)?;
                let owner_tag = self.owner_tag(&c, "LabelIs")?;
                let l = self.call(Helper::Label, &[self.ctx, owner_tag, c.val]);
                // -1 (invisible/error) never equals a label code; a stashed
                // error is surfaced by the caller after the function returns.
                Ok(self.b.ins().icmp_imm(IntCC::Equal, l, *label as i64))
            }
            Pred::ColEq { a, b } | Pred::ColNe { a, b } => {
                let ca = *self.col(row, *a)?;
                let cb = *self.col(row, *b)?;
                let te = self.b.ins().icmp(IntCC::Equal, ca.tag, cb.tag);
                let ve = self.b.ins().icmp(IntCC::Equal, ca.val, cb.val);
                let both = self.b.ins().band(te, ve);
                Ok(if matches!(pred, Pred::ColEq { .. }) {
                    both
                } else {
                    self.b.ins().bxor_imm(both, 1)
                })
            }
            Pred::Connected { a, b, label } => {
                let ca = self.col(row, *a)?.val;
                let cb = self.col(row, *b)?.val;
                let l = self.iconst(*label as i64);
                let r = self.call(Helper::Connected, &[self.ctx, ca, cb, l]);
                self.check_status(r);
                Ok(self.b.ins().icmp_imm(IntCC::Equal, r, 1))
            }
            Pred::And(l, r) | Pred::Or(l, r) => {
                // Short circuit: `And` is decided by a false left side,
                // `Or` by a true one; otherwise the right side decides.
                let is_or = matches!(pred, Pred::Or(..));
                let res = self.b.create_block();
                self.b.append_block_param(res, types::I8);
                let lv = self.emit_pred(l, row)?;
                let rhs = self.b.create_block();
                let decided = self.b.ins().iconst(types::I8, is_or as i64);
                if is_or {
                    self.b.ins().brif(lv, res, &[decided.into()], rhs, &[]);
                } else {
                    self.b.ins().brif(lv, rhs, &[], res, &[decided.into()]);
                }
                self.b.switch_to_block(rhs);
                self.b.seal_block(rhs);
                let rv = self.emit_pred(r, row)?;
                self.b.ins().jump(res, &[rv.into()]);
                self.b.switch_to_block(res);
                self.b.seal_block(res);
                Ok(self.b.block_params(res)[0])
            }
            Pred::Not(x) => {
                let v = self.emit_pred(x, row)?;
                Ok(self.b.ins().bxor_imm(v, 1))
            }
        }
    }

    fn emit_proj(&mut self, proj: &Proj, row: &RowVals) -> Result<Col, JitError> {
        match proj {
            Proj::Col(c) => Ok(*self.col(row, *c)?),
            Proj::Prop { col, key } => {
                let c = *self.col(row, *col)?;
                let (st, pslot) = self.emit_prop_fetch(&c, *key, "Prop proj")?;
                let found = self.b.ins().icmp_imm(IntCC::Equal, st, 1);
                // tag = found ? (8 + pval_tag) : 0; val = found ? payload : 0.
                let pt = self.b.ins().stack_load(types::I64, pslot, 0);
                let pv = self.b.ins().stack_load(types::I64, pslot, 8);
                let slot_tag = self.b.ins().iadd_imm(pt, 8);
                let zero = self.iconst(0);
                let tag = self.b.ins().select(found, slot_tag, zero);
                let val = self.b.ins().select(found, pv, zero);
                Ok(Col {
                    kind: ColKind::Val,
                    tag,
                    val,
                })
            }
            Proj::Label { col } => {
                let c = *self.col(row, *col)?;
                let owner_tag = self.owner_tag(&c, "Label proj")?;
                let l = self.call(Helper::Label, &[self.ctx, owner_tag, c.val]);
                Ok(self.value(SLOT_INT, l))
            }
            Proj::Id { col } => {
                let c = *self.col(row, *col)?;
                Ok(self.value(SLOT_INT, c.val))
            }
            Proj::ConnectedFlag { a, b, label } => {
                let ca = self.col(row, *a)?.val;
                let cb = self.col(row, *b)?.val;
                let l = self.iconst(*label as i64);
                let r = self.call(Helper::Connected, &[self.ctx, ca, cb, l]);
                self.check_status(r);
                Ok(self.value(SLOT_BOOL, r))
            }
        }
    }
}
