//! The push-based interpreter — the engine's AOT execution mode (§6.1).
//!
//! Every operator is ahead-of-time-compiled Rust; the interpreter walks the
//! plan per row, pushing tuples from each operator to its successor as
//! nested calls, exactly the cascade the paper describes for interpretation
//! mode. Pipeline breakers split the plan into segments with buffers in
//! between.

use std::fmt;

use graphcore::{Dir, GraphError, GraphTxn, PropOwner};
use gstore::PVal;
use gtxn::TableTag;

use crate::plan::{split_first_segment, CmpOp, Op, Plan, Pred, Proj, RelEnd, Row, Slot};
use crate::pushdown::Pushdown;
use crate::sched::{CompiledPred, ExprSlot};

/// Errors during query execution.
#[derive(Debug)]
pub enum QueryError {
    /// Engine/transaction error (conflicts abort the query's transaction).
    Graph(GraphError),
    /// The plan is structurally invalid for the interpreter.
    BadPlan(String),
    /// JIT compilation or compiled execution failed (converted from
    /// `gjit::JitError` so servers can match on it structurally).
    Jit(String),
    /// The execution context's deadline elapsed mid-query. Maps to the
    /// retryable `DEADLINE_EXCEEDED` protocol error.
    DeadlineExceeded,
    /// The execution context's cancellation flag was raised.
    Cancelled,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Graph(e) => write!(f, "query failed: {e}"),
            QueryError::BadPlan(m) => write!(f, "bad plan: {m}"),
            QueryError::Jit(m) => write!(f, "jit error: {m}"),
            QueryError::DeadlineExceeded => write!(f, "deadline elapsed during execution"),
            QueryError::Cancelled => write!(f, "query cancelled"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<GraphError> for QueryError {
    fn from(e: GraphError) -> Self {
        QueryError::Graph(e)
    }
}

type Sink<'s> = &'s mut dyn FnMut(&[Slot]) -> Result<(), QueryError>;

/// Execute a plan in the given transaction, pushing result rows to `sink`.
/// Returns the number of emitted rows.
pub fn execute(
    plan: &Plan,
    txn: &mut GraphTxn<'_>,
    params: &[PVal],
    mut sink: impl FnMut(&[Slot]),
) -> Result<u64, QueryError> {
    assert!(
        params.len() >= plan.n_params,
        "plan expects {} params, got {}",
        plan.n_params,
        params.len()
    );
    let mut count = 0u64;
    let mut wrapped = |row: &[Slot]| -> Result<(), QueryError> {
        count += 1;
        sink(row);
        Ok(())
    };
    let mut hook = ResidualHook::new(None);
    exec_segments(&plan.ops, txn, params, None, &mut hook, &mut wrapped)?;
    Ok(count)
}

/// Execute and collect all rows.
pub fn execute_collect(
    plan: &Plan,
    txn: &mut GraphTxn<'_>,
    params: &[PVal],
) -> Result<Vec<Row>, QueryError> {
    let mut rows = Vec::new();
    execute(plan, txn, params, |r| rows.push(r.to_vec()))?;
    Ok(rows)
}

/// Run the remaining operators (typically breakers and post-breaker
/// segments) over pre-buffered rows. Used by the morsel scheduler's tail,
/// by the compiled-segment runner in `gjit` (machine code for the first
/// pipeline segment, its output handed back here) and by `gmatch`'s
/// expansion segments.
pub fn execute_prebuffered(
    ops: &[Op],
    txn: &mut GraphTxn<'_>,
    params: &[PVal],
    rows: Vec<Row>,
    sink: &mut dyn FnMut(&[Slot]) -> Result<(), QueryError>,
) -> Result<(), QueryError> {
    let mut hook = ResidualHook::new(None);
    exec_segments(ops, txn, params, Some(rows), &mut hook, sink)
}

/// The sequential executor's view of the expression-compilation tier
/// (see `gjit::expr`): an optional slot a compiled residual predicate may
/// be published into mid-run, plus counters for how many scan rows went
/// through the interpreted vs compiled residual pipeline. The slot is
/// re-resolved per chunk, so the interpret → compiled switch lands the
/// same way it does in the morsel scheduler.
pub(crate) struct ResidualHook<'h> {
    pub slot: Option<&'h ExprSlot>,
    pub interp_rows: u64,
    pub compiled_rows: u64,
}

impl<'h> ResidualHook<'h> {
    pub fn new(slot: Option<&'h ExprSlot>) -> Self {
        ResidualHook {
            slot,
            interp_rows: 0,
            compiled_rows: 0,
        }
    }
}

/// Execute operator list split at pipeline breakers. `input` is `None` for
/// the first segment (which must start with an access path) and the
/// buffered rows afterwards. `hook` is how `sched::execute_collect_ctx`
/// hands Interp-mode queries a compiled residual filter and reads back the
/// interp/compiled row split.
pub(crate) fn exec_segments(
    ops: &[Op],
    txn: &mut GraphTxn<'_>,
    params: &[PVal],
    input: Option<Vec<Row>>,
    hook: &mut ResidualHook<'_>,
    sink: Sink<'_>,
) -> Result<(), QueryError> {
    let (pipe, tail) = split_first_segment(ops);
    match tail.split_first() {
        None => exec_pipeline(pipe, txn, params, input, hook, sink),
        Some((breaker, rest)) => {
            let mut buf: Vec<Row> = Vec::new();
            {
                let mut collect = |row: &[Slot]| -> Result<(), QueryError> {
                    buf.push(row.to_vec());
                    Ok(())
                };
                exec_pipeline(pipe, txn, params, input, hook, &mut collect)?;
            }
            let buf = apply_breaker(breaker, buf, txn)?;
            // Only the first segment has an access path; later segments
            // replay buffered rows, where the compiled residual expression
            // (anchored to the leading scan's filters) no longer applies.
            let mut tail_hook = ResidualHook::new(None);
            exec_segments(rest, txn, params, Some(buf), &mut tail_hook, sink)
        }
    }
}

fn apply_breaker(
    op: &Op,
    mut buf: Vec<Row>,
    txn: &mut GraphTxn<'_>,
) -> Result<Vec<Row>, QueryError> {
    match op {
        Op::OrderBy { key, desc } => {
            let mut keyed: Vec<(u64, Row)> = buf
                .into_iter()
                .map(|row| {
                    let k = eval_proj(key, &row, txn)?;
                    Ok((sort_key(&k), row))
                })
                .collect::<Result<_, QueryError>>()?;
            keyed.sort_by_key(|(k, _)| *k);
            if *desc {
                keyed.reverse();
            }
            Ok(keyed.into_iter().map(|(_, r)| r).collect())
        }
        Op::Limit(n) => {
            buf.truncate(*n);
            Ok(buf)
        }
        Op::Count => Ok(vec![vec![Slot::val(PVal::Int(buf.len() as i64))]]),
        Op::Distinct => {
            let mut seen = std::collections::HashSet::new();
            buf.retain(|row| {
                let key: Vec<(u8, u64)> = row.iter().map(|s| (s.tag, s.val)).collect();
                seen.insert(key)
            });
            Ok(buf)
        }
        _ => unreachable!("not a breaker"),
    }
}

/// Stable total order for sort keys: nulls first, then entities by id,
/// then values by order-preserving encoding.
fn sort_key(s: &Slot) -> u64 {
    match s.as_pval() {
        Some(p) => p.index_key(),
        None => s.val,
    }
}

fn exec_pipeline(
    ops: &[Op],
    txn: &mut GraphTxn<'_>,
    params: &[PVal],
    input: Option<Vec<Row>>,
    hook: &mut ResidualHook<'_>,
    sink: Sink<'_>,
) -> Result<(), QueryError> {
    match input {
        Some(rows) => {
            for row in rows {
                push(ops, txn, params, &row, sink)?;
            }
            Ok(())
        }
        None => {
            if ops.is_empty() {
                return Err(QueryError::BadPlan("empty pipeline".into()));
            }
            exec_access_path(ops, txn, params, hook, sink)
        }
    }
}

/// Run the access-path operator (first in the pipeline) and push rows
/// through the rest.
fn exec_access_path(
    ops: &[Op],
    txn: &mut GraphTxn<'_>,
    params: &[PVal],
    hook: &mut ResidualHook<'_>,
    sink: Sink<'_>,
) -> Result<(), QueryError> {
    let rest = &ops[1..];
    match &ops[0] {
        Op::Once => push(rest, txn, params, &[], sink),
        Op::NodeScan { label } => {
            // Chunk pruning via zone maps; the residual predicate still
            // runs per row inside the pipeline, so results are identical
            // with acceleration on or off.
            let pd = Pushdown::extract(ops, params);
            let survives = pd.node_pruner(txn.db().accel());
            let chunks = txn.db().nodes().chunk_count();
            for ci in 0..chunks {
                if !survives(ci) {
                    continue;
                }
                // Re-resolved per chunk: a compiled expression published
                // mid-scan takes over for the remaining chunks.
                let expr = hook.slot.and_then(ExprSlot::get);
                let (_, rows, compiled) =
                    scan_node_chunk(ci, *label, rest, txn, params, expr, sink)?;
                if compiled {
                    hook.compiled_rows += rows;
                } else {
                    hook.interp_rows += rows;
                }
            }
            Ok(())
        }
        Op::RelScan { label } => {
            let pd = Pushdown::extract(ops, params);
            let survives = pd.rel_pruner(txn.db().accel());
            let chunks = txn.db().rels().chunk_count();
            for ci in 0..chunks {
                if !survives(ci) {
                    continue;
                }
                let expr = hook.slot.and_then(ExprSlot::get);
                let (_, rows, compiled) =
                    scan_rel_chunk(ci, *label, rest, txn, params, expr, sink)?;
                if compiled {
                    hook.compiled_rows += rows;
                } else {
                    hook.interp_rows += rows;
                }
            }
            Ok(())
        }
        Op::IndexRangeScan { label, key, lo, hi } => {
            let lo = lo.resolve(params).index_key();
            let hi = hi.resolve(params).index_key();
            for id in range_candidates(txn, *label, *key, lo, hi) {
                push_range_candidate(id, *label, *key, lo, hi, rest, txn, params, sink)?;
            }
            Ok(())
        }
        Op::IndexScan { label, key, value } => {
            let pv = value.resolve(params);
            let ids = index_candidates(txn, *label, *key, pv)?;
            for id in ids {
                if let Some(n) = txn.node(id)? {
                    if n.label == *label
                        && txn.prop_pval(PropOwner::Node(id), *key)? == Some(pv)
                    {
                        push(rest, txn, params, &[Slot::node(id)], sink)?;
                    }
                }
            }
            Ok(())
        }
        Op::NodeById { id } => {
            let pv = id.resolve(params);
            let PVal::Int(raw) = pv else {
                return Err(QueryError::BadPlan("NodeById expects an Int id".into()));
            };
            if raw >= 0
                && txn.node(raw as u64)?.is_some() {
                    push(rest, txn, params, &[Slot::node(raw as u64)], sink)?;
                }
            Ok(())
        }
        other => Err(QueryError::BadPlan(format!(
            "operator {other:?} cannot start a pipeline"
        ))),
    }
}

/// Split the leading run of `Op::Filter`s off a residual pipeline — the
/// exact conjuncts a compiled residual expression stands in for (the
/// attach side folds the same run into one `Pred::And` chain, so both
/// agree on how many operators the compiled function replaces).
fn split_leading_filters(rest: &[Op]) -> (usize, &[Op]) {
    let nf = rest
        .iter()
        .take_while(|op| matches!(op, Op::Filter(_)))
        .count();
    (nf, &rest[nf..])
}

/// Morsel entry point: run the pipeline on one node-table chunk (used by
/// the morsel scheduler in [`crate::sched`]). Tries to claim the MVTO
/// single-version fast path for the chunk first; clean chunks are read
/// straight from record bytes, dirty ones through the full version-chain
/// protocol. When `expr` is present and the residual pipeline opens with
/// filters, the compiled expression replaces that leading filter run.
/// Returns `(fast path claimed, rows handed to the residual pipeline,
/// compiled expression used)`.
pub(crate) fn scan_node_chunk(
    chunk: usize,
    label: Option<u32>,
    rest: &[Op],
    txn: &mut GraphTxn<'_>,
    params: &[PVal],
    expr: Option<&CompiledPred>,
    sink: Sink<'_>,
) -> Result<(bool, u64, bool), QueryError> {
    let fast = txn.try_fast_chunk(TableTag::Node, chunk);
    let (nf, after) = split_leading_filters(rest);
    let expr = if nf > 0 { expr } else { None };
    let mut ids = Vec::with_capacity(64);
    txn.db().nodes().for_each_live_id(chunk, &mut |id| ids.push(id));
    let mut rows = 0u64;
    for id in ids {
        let n = if fast { txn.node_fast(id)? } else { txn.node(id)? };
        if let Some(n) = n {
            if label.is_none_or(|l| n.label == l) {
                rows += 1;
                let row = [Slot::node(id)];
                match expr {
                    Some(e) => {
                        if e(txn, params, &row)? {
                            push(after, txn, params, &row, sink)?;
                        }
                    }
                    None => push(rest, txn, params, &row, sink)?,
                }
            }
        }
    }
    Ok((fast, rows, expr.is_some()))
}

/// Morsel entry point: run the pipeline on one relationship-table chunk
/// (same fast-path and compiled-expression contract as
/// [`scan_node_chunk`]).
pub(crate) fn scan_rel_chunk(
    chunk: usize,
    label: Option<u32>,
    rest: &[Op],
    txn: &mut GraphTxn<'_>,
    params: &[PVal],
    expr: Option<&CompiledPred>,
    sink: Sink<'_>,
) -> Result<(bool, u64, bool), QueryError> {
    let fast = txn.try_fast_chunk(TableTag::Rel, chunk);
    let (nf, after) = split_leading_filters(rest);
    let expr = if nf > 0 { expr } else { None };
    let mut ids = Vec::with_capacity(64);
    txn.db().rels().for_each_live_id(chunk, &mut |id| ids.push(id));
    let mut rows = 0u64;
    for id in ids {
        let r = if fast { txn.rel_fast(id)? } else { txn.rel(id)? };
        if let Some(r) = r {
            if label.is_none_or(|l| r.label == l) {
                rows += 1;
                let row = [Slot::rel(id)];
                match expr {
                    Some(e) => {
                        if e(txn, params, &row)? {
                            push(after, txn, params, &row, sink)?;
                        }
                    }
                    None => push(rest, txn, params, &row, sink)?,
                }
            }
        }
    }
    Ok((fast, rows, expr.is_some()))
}

/// Candidate node ids for an `IndexRangeScan` with resolved key bounds, in
/// deterministic order: key order from the B+-tree, or id order from the
/// whole-table fallback when no index exists. Candidates are raw (caller
/// re-checks visibility, label, and the actual property value) — the same
/// contract as [`index_candidates`]. Both the sequential interpreter and
/// the morsel scheduler build their work lists here, so parallel batches
/// concatenate to exactly the sequential order.
pub(crate) fn range_candidates(
    txn: &GraphTxn<'_>,
    label: u32,
    key: u32,
    lo: u64,
    hi: u64,
) -> Vec<u64> {
    if lo > hi {
        return Vec::new();
    }
    if let Some(ids) = txn.db().index_range(label, key, lo, hi) {
        return ids;
    }
    let mut out = Vec::new();
    let nodes = txn.db().nodes();
    for ci in 0..nodes.chunk_count() {
        nodes.for_each_live_id(ci, &mut |id| out.push(id));
    }
    out
}

/// Re-check one range candidate (visibility, label, key within bounds) and
/// push it through the pipeline — shared by the sequential path and the
/// index-range morsel source.
#[allow(clippy::too_many_arguments)]
pub(crate) fn push_range_candidate(
    id: u64,
    label: u32,
    key: u32,
    lo: u64,
    hi: u64,
    rest: &[Op],
    txn: &mut GraphTxn<'_>,
    params: &[PVal],
    sink: Sink<'_>,
) -> Result<(), QueryError> {
    let Some(n) = txn.node(id)? else {
        return Ok(());
    };
    if n.label != label {
        return Ok(());
    }
    let Some(pv) = txn.prop_pval(PropOwner::Node(id), key)? else {
        return Ok(());
    };
    let k = pv.index_key();
    if k >= lo && k <= hi {
        push(rest, txn, params, &[Slot::node(id)], sink)?;
    }
    Ok(())
}

fn index_candidates(
    txn: &GraphTxn<'_>,
    label: u32,
    key: u32,
    pv: PVal,
) -> Result<Vec<u64>, QueryError> {
    if let Some(tree) = txn.db().index_for(label, key) {
        Ok(tree.lookup(pv.index_key()))
    } else {
        // No index: scan fallback (candidates filtered by the caller).
        let mut out = Vec::new();
        let nodes = txn.db().nodes();
        for ci in 0..nodes.chunk_count() {
            nodes.for_each_live_id(ci, &mut |id| out.push(id));
        }
        Ok(out)
    }
}

/// Push one row through the (non-breaker) operator chain.
pub(crate) fn push(
    ops: &[Op],
    txn: &mut GraphTxn<'_>,
    params: &[PVal],
    row: &[Slot],
    sink: Sink<'_>,
) -> Result<(), QueryError> {
    let Some((op, rest)) = ops.split_first() else {
        return sink(row);
    };
    match op {
        Op::ForeachRel { col, dir, label } => {
            let node = entity(row, *col, "ForeachRel")?;
            // Collect first: the traversal borrows txn immutably while the
            // continuation may need it mutably (update pipelines).
            let rels = txn.rels_of(node, *dir, *label)?;
            for (rid, _) in rels {
                let mut next = row.to_vec();
                next.push(Slot::rel(rid));
                push(rest, txn, params, &next, sink)?;
            }
            Ok(())
        }
        Op::GetNode { col, end } => {
            let rid = row
                .get(*col)
                .and_then(Slot::as_rel)
                .ok_or_else(|| QueryError::BadPlan(format!("column {col} is not a rel")))?;
            let r = txn.rel(rid)?.ok_or(GraphError::RelNotFound(rid))?;
            let node = match end {
                RelEnd::Src => r.src,
                RelEnd::Dst => r.dst,
                RelEnd::Other(c) => {
                    let anchor = entity(row, *c, "GetNode::Other")?;
                    if r.src == anchor {
                        r.dst
                    } else {
                        r.src
                    }
                }
            };
            let mut next = row.to_vec();
            next.push(Slot::node(node));
            push(rest, txn, params, &next, sink)
        }
        Op::IndexProbe { label, key, value } => {
            let pv = value.resolve(params);
            let ids = index_candidates(txn, *label, *key, pv)?;
            for id in ids {
                if let Some(n) = txn.node(id)? {
                    if n.label == *label
                        && txn.prop_pval(PropOwner::Node(id), *key)? == Some(pv)
                    {
                        let mut next = row.to_vec();
                        next.push(Slot::node(id));
                        push(rest, txn, params, &next, sink)?;
                    }
                }
            }
            Ok(())
        }
        Op::Filter(pred) => {
            if eval_pred(pred, row, txn, params)? {
                push(rest, txn, params, row, sink)
            } else {
                Ok(())
            }
        }
        Op::Project(projs) => {
            let mut next = Vec::with_capacity(projs.len());
            for p in projs {
                next.push(eval_proj(p, row, txn)?);
            }
            push(rest, txn, params, &next, sink)
        }
        Op::CreateNode { label, props } => {
            let resolved: Vec<(u32, PVal)> =
                props.iter().map(|(k, v)| (*k, v.resolve(params))).collect();
            let id = txn.create_node_coded(*label, &resolved)?;
            let mut next = row.to_vec();
            next.push(Slot::node(id));
            push(rest, txn, params, &next, sink)
        }
        Op::CreateRel {
            src_col,
            dst_col,
            label,
            props,
        } => {
            let src = entity(row, *src_col, "CreateRel.src")?;
            let dst = entity(row, *dst_col, "CreateRel.dst")?;
            let resolved: Vec<(u32, PVal)> =
                props.iter().map(|(k, v)| (*k, v.resolve(params))).collect();
            let id = txn.create_rel_coded(src, *label, dst, &resolved)?;
            let mut next = row.to_vec();
            next.push(Slot::rel(id));
            push(rest, txn, params, &next, sink)
        }
        Op::SetProp { col, key, value } => {
            let owner = owner_of(row, *col)?;
            txn.set_prop_coded(owner, *key, value.resolve(params))?;
            push(rest, txn, params, row, sink)
        }
        other => Err(QueryError::BadPlan(format!(
            "operator {other:?} not valid mid-pipeline"
        ))),
    }
}

fn entity(row: &[Slot], col: usize, what: &str) -> Result<u64, QueryError> {
    row.get(col)
        .and_then(Slot::as_node)
        .ok_or_else(|| QueryError::BadPlan(format!("{what}: column {col} is not a node")))
}

fn owner_of(row: &[Slot], col: usize) -> Result<PropOwner, QueryError> {
    let slot = row
        .get(col)
        .ok_or_else(|| QueryError::BadPlan(format!("column {col} out of range")))?;
    if let Some(id) = slot.as_node() {
        Ok(PropOwner::Node(id))
    } else if let Some(id) = slot.as_rel() {
        Ok(PropOwner::Rel(id))
    } else {
        Err(QueryError::BadPlan(format!(
            "column {col} is not an entity"
        )))
    }
}

/// Where the evaluators read the record behind an entity column. The ids
/// in a row are the source's own: shard-local for a [`GraphTxn`], global
/// for `gmatch`'s router view over one reader per shard.
pub trait RecordSource {
    /// Property `key` of the entity, `None` if it is not set.
    fn prop_of(&self, owner: PropOwner, key: u32) -> Result<Option<PVal>, QueryError>;
    /// Label of the entity, `None` if it is not visible to this reader.
    fn label_of(&self, owner: PropOwner) -> Result<Option<u32>, QueryError>;
    /// Whether a `label` edge joins nodes `a` and `b`, in either direction.
    fn connected(&self, a: u64, b: u64, label: u32) -> Result<bool, QueryError>;
}

impl RecordSource for GraphTxn<'_> {
    fn prop_of(&self, owner: PropOwner, key: u32) -> Result<Option<PVal>, QueryError> {
        Ok(self.prop_pval(owner, key)?)
    }

    fn label_of(&self, owner: PropOwner) -> Result<Option<u32>, QueryError> {
        Ok(match owner {
            PropOwner::Node(id) => self.node(id)?.map(|n| n.label),
            PropOwner::Rel(id) => self.rel(id)?.map(|r| r.label),
        })
    }

    fn connected(&self, a: u64, b: u64, label: u32) -> Result<bool, QueryError> {
        // Stream the adjacency lists with early exit — probing one edge must
        // not materialize a hub node's full neighbourhood.
        Ok(self.any_rel(a, Dir::Out, Some(label), |_, r| r.dst == b)?
            || self.any_rel(a, Dir::In, Some(label), |_, r| r.src == b)?)
    }
}

/// Evaluate a predicate on a row. Public because the expression-
/// compilation tier (`gjit::expr`) and its differential tests use this as
/// the semantic reference for compiled predicates.
pub fn eval_pred<S: RecordSource>(
    pred: &Pred,
    row: &[Slot],
    src: &S,
    params: &[PVal],
) -> Result<bool, QueryError> {
    Ok(match pred {
        Pred::Prop {
            col,
            key,
            op,
            value,
        } => match src.prop_of(owner_of(row, *col)?, *key)? {
            Some(actual) => {
                let expect = value.resolve(params);
                if *op == CmpOp::Eq {
                    actual == expect
                } else if *op == CmpOp::Ne {
                    actual != expect
                } else {
                    op.eval_u64(actual.index_key(), expect.index_key())
                }
            }
            None => false,
        },
        Pred::LabelIs { col, label } => src.label_of(owner_of(row, *col)?)? == Some(*label),
        Pred::ColEq { a, b } => same_slot(row, *a, *b)?,
        Pred::ColNe { a, b } => !same_slot(row, *a, *b)?,
        Pred::Connected { a, b, label } => connected(row, *a, *b, *label, src)?,
        Pred::And(l, r) => eval_pred(l, row, src, params)? && eval_pred(r, row, src, params)?,
        Pred::Or(l, r) => eval_pred(l, row, src, params)? || eval_pred(r, row, src, params)?,
        Pred::Not(x) => !eval_pred(x, row, src, params)?,
    })
}

fn same_slot(row: &[Slot], a: usize, b: usize) -> Result<bool, QueryError> {
    let sa = row.get(a).ok_or_else(|| bad_col(a))?;
    let sb = row.get(b).ok_or_else(|| bad_col(b))?;
    Ok(sa.tag == sb.tag && sa.val == sb.val)
}

fn connected<S: RecordSource>(
    row: &[Slot],
    a: usize,
    b: usize,
    label: u32,
    src: &S,
) -> Result<bool, QueryError> {
    src.connected(
        entity(row, a, "Connected.a")?,
        entity(row, b, "Connected.b")?,
        label,
    )
}

fn bad_col(col: usize) -> QueryError {
    QueryError::BadPlan(format!("column {col} out of range"))
}

/// Evaluate a projection expression on a row.
pub fn eval_proj<S: RecordSource>(
    proj: &Proj,
    row: &[Slot],
    src: &S,
) -> Result<Slot, QueryError> {
    Ok(match proj {
        Proj::Col(c) => *row.get(*c).ok_or_else(|| bad_col(*c))?,
        Proj::Prop { col, key } => match src.prop_of(owner_of(row, *col)?, *key)? {
            Some(p) => Slot::val(p),
            None => Slot::NULL,
        },
        Proj::Label { col } => {
            let owner = owner_of(row, *col)?;
            let label = src.label_of(owner)?.ok_or(match owner {
                PropOwner::Node(id) => GraphError::NodeNotFound(id),
                PropOwner::Rel(id) => GraphError::RelNotFound(id),
            })?;
            Slot::val(PVal::Int(label as i64))
        }
        Proj::Id { col } => {
            let slot = row.get(*col).ok_or_else(|| bad_col(*col))?;
            Slot::val(PVal::Int(slot.val as i64))
        }
        Proj::ConnectedFlag { a, b, label } => {
            Slot::val(PVal::Bool(connected(row, *a, *b, *label, src)?))
        }
    })
}
