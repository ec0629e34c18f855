//! The runtime ABI: AOT-compiled helpers callable from generated code.
//!
//! Generated pipelines do their own control flow (scan loops, bitmap
//! iteration, traversal loops, predicate branches) but call back into these
//! helpers for everything the paper also delegates to AOT code: MVTO
//! visibility checks, property access, index lookups and transactional
//! updates. All helpers follow one convention:
//!
//! * `ctx` is a `*mut RtCtx` passed through unchanged;
//! * a negative return value signals an error whose payload was stored in
//!   `RtCtx::error` — generated code branches to its exit block;
//! * records are written into caller-provided stack slots so field loads
//!   happen inline in generated code (registers, no re-dispatch).
//!
//! The helpers take raw pointers by design — they form the C ABI between
//! generated machine code and the engine. They are only ever invoked from
//! code emitted by [`crate::codegen`], which always passes a live `RtCtx`
//! and stack-slot addresses of the right size.
#![allow(clippy::not_unsafe_ptr_arg_deref)]

use std::sync::OnceLock;

use graphcore::{Dir, GraphTxn, PropOwner};
use gquery::{QueryError, Slot};
use gstore::{NodeRecord, PVal, RelRecord, NIL};

/// Byte offsets of record fields used by generated field loads.
pub mod offsets {
    use gstore::{NodeRecord, RelRecord};

    pub const NODE_LABEL: i32 = std::mem::offset_of!(NodeRecord, label) as i32;
    pub const NODE_FIRST_OUT: i32 = std::mem::offset_of!(NodeRecord, first_out) as i32;
    pub const NODE_FIRST_IN: i32 = std::mem::offset_of!(NodeRecord, first_in) as i32;
    pub const REL_LABEL: i32 = std::mem::offset_of!(RelRecord, label) as i32;
    pub const REL_SRC: i32 = std::mem::offset_of!(RelRecord, src) as i32;
    pub const REL_DST: i32 = std::mem::offset_of!(RelRecord, dst) as i32;
    pub const REL_NEXT_SRC: i32 = std::mem::offset_of!(RelRecord, next_src) as i32;
    pub const REL_NEXT_DST: i32 = std::mem::offset_of!(RelRecord, next_dst) as i32;

    /// Stack-slot sizes for record buffers (rounded up to 8).
    pub const NODE_REC_SIZE: u32 = std::mem::size_of::<NodeRecord>() as u32;
    pub const REL_REC_SIZE: u32 = std::mem::size_of::<RelRecord>() as u32;
}

/// Execution context handed to compiled code. One per (thread, execution).
pub struct RtCtx<'a, 'db> {
    pub txn: &'a mut GraphTxn<'db>,
    pub params: &'a [PVal],
    /// Output rows of the compiled pipeline segment.
    pub out: Vec<Vec<Slot>>,
    /// First error raised by a helper (aborts the generated loop).
    pub error: Option<QueryError>,
    /// Scratch buffers filled by `rt_index_lookup`, one per index operator
    /// in the compiled plan (so nested probes cannot clobber an outer
    /// scan's candidate list).
    index_buf: Vec<Vec<u64>>,
}

impl<'a, 'db> RtCtx<'a, 'db> {
    pub fn new(txn: &'a mut GraphTxn<'db>, params: &'a [PVal]) -> Self {
        RtCtx {
            txn,
            params,
            out: Vec::new(),
            error: None,
            index_buf: Vec::new(),
        }
    }

    fn fail(&mut self, e: impl Into<QueryError>) -> i64 {
        if self.error.is_none() {
            self.error = Some(e.into());
        }
        -1
    }
}

/// Property key/value as laid out by generated code for create/set helpers.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct PropKV {
    pub key: u32,
    pub tag: u8,
    pub _pad: [u8; 3],
    pub val: u64,
}

unsafe fn ctx<'c>(p: *mut RtCtx<'static, 'static>) -> &'c mut RtCtx<'static, 'static> {
    &mut *p
}

// ---------------------------------------------------------------------
// Scan access
// ---------------------------------------------------------------------

pub extern "C" fn rt_node_bitmap(c: *mut RtCtx<'static, 'static>, ci: u64) -> u64 {
    let c = unsafe { ctx(c) };
    c.txn.db().nodes().chunk_bitmap(ci as usize)
}

pub extern "C" fn rt_rel_bitmap(c: *mut RtCtx<'static, 'static>, ci: u64) -> u64 {
    let c = unsafe { ctx(c) };
    c.txn.db().rels().chunk_bitmap(ci as usize)
}

// ---------------------------------------------------------------------
// Visibility (MVTO reads — transaction-processing code reused by the JIT)
// ---------------------------------------------------------------------

/// Scan-specialised visibility read: the generated bitmap loop already
/// proved the slot live, so the liveness re-check is skipped (§6.2 —
/// compiled code specialises the access path per query context).
pub extern "C" fn rt_node_visible_scan(
    c: *mut RtCtx<'static, 'static>,
    id: u64,
    out: *mut NodeRecord,
) -> i64 {
    let c = unsafe { ctx(c) };
    let db = c.txn.db();
    match db
        .mgr()
        .read_enumerated(c.txn.raw(), gtxn::TableTag::Node, db.nodes(), id)
    {
        Ok(Some(rec)) => {
            unsafe { out.write(rec) };
            1
        }
        Ok(None) => 0,
        Err(e) => c.fail(graphcore::GraphError::Txn(e)),
    }
}

/// Scan-specialised relationship visibility read (see
/// [`rt_node_visible_scan`]).
pub extern "C" fn rt_rel_visible_scan(
    c: *mut RtCtx<'static, 'static>,
    id: u64,
    out: *mut RelRecord,
) -> i64 {
    let c = unsafe { ctx(c) };
    let db = c.txn.db();
    match db
        .mgr()
        .read_enumerated(c.txn.raw(), gtxn::TableTag::Rel, db.rels(), id)
    {
        Ok(Some(rec)) => {
            unsafe { out.write(rec) };
            1
        }
        Ok(None) => 0,
        Err(e) => c.fail(graphcore::GraphError::Txn(e)),
    }
}

/// Read the node version visible to the context's transaction into `out`.
/// Returns 1 (visible), 0 (invisible), -1 (error).
pub extern "C" fn rt_node_visible(
    c: *mut RtCtx<'static, 'static>,
    id: u64,
    out: *mut NodeRecord,
) -> i64 {
    let c = unsafe { ctx(c) };
    match c.txn.node(id) {
        Ok(Some(rec)) => {
            unsafe { out.write(rec) };
            1
        }
        Ok(None) => 0,
        Err(e) => c.fail(e),
    }
}

/// Read the relationship version visible to the transaction into `out`.
pub extern "C" fn rt_rel_visible(
    c: *mut RtCtx<'static, 'static>,
    id: u64,
    out: *mut RelRecord,
) -> i64 {
    let c = unsafe { ctx(c) };
    match c.txn.rel(id) {
        Ok(Some(rec)) => {
            unsafe { out.write(rec) };
            1
        }
        Ok(None) => 0,
        Err(e) => c.fail(e),
    }
}

/// Raw successor link of a relationship record (used to keep walking an
/// adjacency chain across snapshot-invisible entries). dir: 0 = out(next_src),
/// 1 = in(next_dst).
pub extern "C" fn rt_rel_raw_next(c: *mut RtCtx<'static, 'static>, id: u64, dir: u64) -> u64 {
    let c = unsafe { ctx(c) };
    let raw = c.txn.db().rels().get(id);
    if dir == 0 {
        raw.next_src
    } else {
        raw.next_dst
    }
}

/// First relationship of a node in a direction; `NIL` when the node is
/// invisible. dir: 0 = out, 1 = in.
pub extern "C" fn rt_first_rel(c: *mut RtCtx<'static, 'static>, node: u64, dir: u64) -> u64 {
    let c = unsafe { ctx(c) };
    match c.txn.node(node) {
        Ok(Some(n)) => {
            if dir == 0 {
                n.first_out
            } else {
                n.first_in
            }
        }
        Ok(None) => NIL,
        Err(e) => {
            c.fail(e);
            NIL
        }
    }
}

/// Endpoint of a relationship. end: 0 = src, 1 = dst, 2 = other-than-anchor.
/// Returns `NIL` on invisible/error (error recorded).
pub extern "C" fn rt_rel_end(
    c: *mut RtCtx<'static, 'static>,
    rel: u64,
    end: u64,
    anchor: u64,
) -> u64 {
    let c = unsafe { ctx(c) };
    match c.txn.rel(rel) {
        Ok(Some(r)) => match end {
            0 => r.src,
            1 => r.dst,
            _ => {
                if r.src == anchor {
                    r.dst
                } else {
                    r.src
                }
            }
        },
        Ok(None) => {
            c.fail(graphcore::GraphError::RelNotFound(rel));
            NIL
        }
        Err(e) => {
            c.fail(e);
            NIL
        }
    }
}

/// Label of an entity (tag 1 = node, 2 = rel). Returns the label code or
/// -1 on error/invisible.
pub extern "C" fn rt_label(c: *mut RtCtx<'static, 'static>, tag: u64, id: u64) -> i64 {
    let c = unsafe { ctx(c) };
    let r = if tag == 1 {
        c.txn.node(id).map(|o| o.map(|n| n.label))
    } else {
        c.txn.rel(id).map(|o| o.map(|r| r.label))
    };
    match r {
        Ok(Some(l)) => l as i64,
        Ok(None) => -1,
        Err(e) => c.fail(e),
    }
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

/// Fetch property `key` of entity (`tag` 1 = node, 2 = rel). On success the
/// PVal encoding is written through the out pointers. Returns 1 found,
/// 0 missing, -1 error.
pub extern "C" fn rt_prop(
    c: *mut RtCtx<'static, 'static>,
    tag: u64,
    id: u64,
    key: u64,
    out_tag: *mut u64,
    out_val: *mut u64,
) -> i64 {
    let c = unsafe { ctx(c) };
    let owner = if tag == 1 {
        PropOwner::Node(id)
    } else {
        PropOwner::Rel(id)
    };
    match c.txn.prop_pval(owner, key as u32) {
        Ok(Some(p)) => {
            let (t, v) = p.encode();
            unsafe {
                out_tag.write(t as u64);
                out_val.write(v);
            }
            1
        }
        Ok(None) => 0,
        Err(e) => c.fail(e),
    }
}

/// Order-preserving u64 key of an encoded PVal (pure; no context).
pub extern "C" fn rt_ikey(tag: u64, val: u64) -> u64 {
    PVal::decode(tag as u8, val).map_or(0, |p| p.index_key())
}

/// Fetch parameter `i` of the execution into out pointers (PVal encoding).
pub extern "C" fn rt_param(
    c: *mut RtCtx<'static, 'static>,
    i: u64,
    out_tag: *mut u64,
    out_val: *mut u64,
) -> i64 {
    let c = unsafe { ctx(c) };
    match c.params.get(i as usize) {
        Some(p) => {
            let (t, v) = p.encode();
            unsafe {
                out_tag.write(t as u64);
                out_val.write(v);
            }
            0
        }
        None => c.fail(QueryError::BadPlan(format!("parameter {i} missing"))),
    }
}

/// True (1) if nodes `a` and `b` are connected by a relationship with
/// `label` in either direction.
pub extern "C" fn rt_connected(
    c: *mut RtCtx<'static, 'static>,
    a: u64,
    b: u64,
    label: u64,
) -> i64 {
    let c = unsafe { ctx(c) };
    // Stream both adjacency lists with early exit (no materialized Vec —
    // same contract as the interpreter's `Connected` evaluation).
    let check = || -> Result<bool, graphcore::GraphError> {
        if c.txn.any_rel(a, Dir::Out, Some(label as u32), |_, r| r.dst == b)? {
            return Ok(true);
        }
        c.txn.any_rel(a, Dir::In, Some(label as u32), |_, r| r.src == b)
    };
    match check() {
        Ok(v) => v as i64,
        Err(e) => c.fail(e),
    }
}

// ---------------------------------------------------------------------
// Index access
// ---------------------------------------------------------------------

/// Look up index candidates for `(:label {key} = value)` into the context
/// scratch buffer. Returns the candidate count or -1.
pub extern "C" fn rt_index_lookup(
    c: *mut RtCtx<'static, 'static>,
    buf: u64,
    label: u64,
    key: u64,
    vtag: u64,
    vval: u64,
) -> i64 {
    let c = unsafe { ctx(c) };
    let Some(pv) = PVal::decode(vtag as u8, vval) else {
        return c.fail(QueryError::BadPlan("bad value encoding".into()));
    };
    let buf = buf as usize;
    if c.index_buf.len() <= buf {
        c.index_buf.resize_with(buf + 1, Vec::new);
    }
    if let Some(tree) = c.txn.db().index_for(label as u32, key as u32) {
        c.index_buf[buf] = tree.lookup(pv.index_key());
    } else {
        let nodes = c.txn.db().nodes();
        let mut ids = Vec::new();
        for ci in 0..nodes.chunk_count() {
            nodes.for_each_live_id(ci, &mut |id| ids.push(id));
        }
        c.index_buf[buf] = ids;
    }
    c.index_buf[buf].len() as i64
}

/// The `i`-th candidate of scratch buffer `buf`.
pub extern "C" fn rt_index_get(c: *mut RtCtx<'static, 'static>, buf: u64, i: u64) -> u64 {
    let c = unsafe { ctx(c) };
    c.index_buf[buf as usize][i as usize]
}

// ---------------------------------------------------------------------
// Row emission
// ---------------------------------------------------------------------

/// Emit one result row (array of `Slot`). Returns 0, or -1 to stop.
pub extern "C" fn rt_emit(c: *mut RtCtx<'static, 'static>, slots: *const Slot, len: u64) -> i64 {
    let c = unsafe { ctx(c) };
    let row = unsafe { std::slice::from_raw_parts(slots, len as usize) };
    c.out.push(row.to_vec());
    0
}

// ---------------------------------------------------------------------
// Updates (IU pipelines)
// ---------------------------------------------------------------------

/// The `n`-element [`PropKV`] array generated code built on its stack.
///
/// # Safety
/// `props` must point at `n` initialised `PropKV`s.
unsafe fn decode_props(props: *const PropKV, n: u64) -> Vec<(u32, PVal)> {
    std::slice::from_raw_parts(props, n as usize)
        .iter()
        .filter_map(|kv| PVal::decode(kv.tag, kv.val).map(|p| (kv.key, p)))
        .collect()
}

/// Create a node with `n` properties. Returns the node id or `NIL` on error.
pub extern "C" fn rt_create_node(
    c: *mut RtCtx<'static, 'static>,
    label: u64,
    props: *const PropKV,
    n: u64,
) -> u64 {
    let c = unsafe { ctx(c) };
    let resolved = unsafe { decode_props(props, n) };
    match c.txn.create_node_coded(label as u32, &resolved) {
        Ok(id) => id,
        Err(e) => {
            c.fail(e);
            NIL
        }
    }
}

/// Create a relationship. Returns the rel id or `NIL` on error.
pub extern "C" fn rt_create_rel(
    c: *mut RtCtx<'static, 'static>,
    src: u64,
    dst: u64,
    label: u64,
    props: *const PropKV,
    n: u64,
) -> u64 {
    let c = unsafe { ctx(c) };
    let resolved = unsafe { decode_props(props, n) };
    match c.txn.create_rel_coded(src, label as u32, dst, &resolved) {
        Ok(id) => id,
        Err(e) => {
            c.fail(e);
            NIL
        }
    }
}

/// Set a property on an entity (tag 1 = node, 2 = rel). 0 ok, -1 error.
pub extern "C" fn rt_set_prop(
    c: *mut RtCtx<'static, 'static>,
    tag: u64,
    id: u64,
    key: u64,
    vtag: u64,
    vval: u64,
) -> i64 {
    let c = unsafe { ctx(c) };
    let Some(pv) = PVal::decode(vtag as u8, vval) else {
        return c.fail(QueryError::BadPlan("bad value encoding".into()));
    };
    let owner = if tag == 1 {
        PropOwner::Node(id)
    } else {
        PropOwner::Rel(id)
    };
    match c.txn.set_prop_coded(owner, key as u32, pv) {
        Ok(()) => 0,
        Err(e) => c.fail(e),
    }
}

/// Declares [`Helper`] — the slot of each helper in the table generated
/// code calls through — and [`helper_table`] from one list, so the indices
/// the code bakes in and the table's order cannot drift apart. The order
/// is part of what [`abi_layout`] fingerprints (through the count) and of
/// `diskcache::FORMAT_VERSION`: reorder or insert only with a bump.
macro_rules! helpers {
    ($($slot:ident => $f:ident,)*) => {
        #[derive(Clone, Copy)]
        pub(crate) enum Helper {
            $($slot,)*
        }

        pub(crate) const HELPER_COUNT: usize = [$(Helper::$slot),*].len();

        /// The process-local table of helper entry points, in [`Helper`]
        /// order, passed to every compiled function. Calling through it is
        /// what keeps generated code free of absolute addresses, and so
        /// relocation-free.
        pub(crate) fn helper_table() -> &'static [usize; HELPER_COUNT] {
            static TABLE: OnceLock<[usize; HELPER_COUNT]> = OnceLock::new();
            TABLE.get_or_init(|| [$($f as *const u8 as usize),*])
        }
    };
}

helpers! {
    NodeBitmap => rt_node_bitmap,
    RelBitmap => rt_rel_bitmap,
    NodeVisible => rt_node_visible,
    RelVisible => rt_rel_visible,
    NodeVisibleScan => rt_node_visible_scan,
    RelVisibleScan => rt_rel_visible_scan,
    RelRawNext => rt_rel_raw_next,
    FirstRel => rt_first_rel,
    RelEnd => rt_rel_end,
    Label => rt_label,
    Prop => rt_prop,
    Ikey => rt_ikey,
    Param => rt_param,
    Connected => rt_connected,
    IndexLookup => rt_index_lookup,
    IndexGet => rt_index_get,
    Emit => rt_emit,
    CreateNode => rt_create_node,
    CreateRel => rt_create_rel,
    SetProp => rt_set_prop,
}

/// Every layout constant generated code bakes in. The disk cache hashes
/// this into its engine key, so code compiled against another record,
/// row-slot or helper-table layout is never loaded.
pub(crate) fn abi_layout() -> [u64; 17] {
    use std::mem::{offset_of, size_of};
    [
        offsets::NODE_LABEL as u64,
        offsets::NODE_FIRST_OUT as u64,
        offsets::NODE_FIRST_IN as u64,
        offsets::REL_LABEL as u64,
        offsets::REL_SRC as u64,
        offsets::REL_DST as u64,
        offsets::REL_NEXT_SRC as u64,
        offsets::REL_NEXT_DST as u64,
        offsets::NODE_REC_SIZE as u64,
        offsets::REL_REC_SIZE as u64,
        size_of::<Slot>() as u64,
        offset_of!(Slot, val) as u64,
        size_of::<PropKV>() as u64,
        offset_of!(PropKV, key) as u64,
        offset_of!(PropKV, tag) as u64,
        offset_of!(PropKV, val) as u64,
        HELPER_COUNT as u64,
    ]
}
