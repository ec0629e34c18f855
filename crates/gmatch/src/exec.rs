//! Pattern execution: scan heads through the four execution modes,
//! expansion segments over binding tables, per-segment PGO feedback.
//!
//! A [`MatchPlan`]'s pipelines run one after another; the result is their
//! union (then `LIMIT`, then `COUNT`). Each pipeline splits at its
//! segment boundaries:
//!
//! * **Head** — the access-path segment (scan or index probe plus its
//!   residual filters) is a plain [`Plan`], so it runs through whichever
//!   backend the caller picked — [`gjit::run_plan_ctx`], the dispatch
//!   ad-hoc queries use, which also arms the §14 expression tier for the
//!   head's residual conjunction.
//! * **Expansions** — each later segment walks adjacency over the binding
//!   table ([`gquery::execute_prebuffered`]) and then applies the
//!   segment's trailing filters. The node-local part of that filter
//!   conjunction (label + property predicates on the freshly bound
//!   column) is *rebased to column 0* and routed through the expression
//!   tier — compiled residual code only reads the scanned column, so the
//!   executor hands it a one-column view of the binding row. Join filters
//!   (`ColEq` from closing edges) stay interpreted.
//!
//! Every segment records `(rows_in, rows_out)` into the engine's PGO
//! table ([`gjit::PgoTable::record_segment`]); the planner prefers those
//! observed selectivities over zone-map estimates on replan. The same
//! numbers surface in [`ExecProfile::expansions`] for `EXPLAIN`-style
//! introspection and the slow log.
//!
//! [`execute_match_sharded`] fans the head out across every pool of a
//! [`ShardedDb`] (local ids are rewritten to global ids as rows leave a
//! shard) and walks expansions through the §13 router: a stored endpoint
//! is resolved with [`ShardedDb::endpoint_global`], so `REMOTE`
//! half-edges land on the owning shard and mirror in-halves are never
//! double-walked (out-walks only read out-lists, in-walks only in-lists).

use std::sync::Arc;
use std::time::Instant;

use gjit::{expr_key, params_hash, run_plan_ctx, ExprSource, ExprTier, JitEngine};
use gquery::{
    eval_pred, eval_proj, execute_prebuffered, pred_fingerprint, ExecCtx, ExecProfile, Op, Plan,
    Pred, Proj, QueryError, RecordSource, RelEnd, Row, Slot,
};
use gstore::hash::fnv1a;
use gstore::PVal;
use graphcore::{GraphDb, GraphTxn, PropOwner, ShardedDb};

use crate::planner::{MatchPlan, Pipeline};

/// How pipeline heads execute: the four execution modes every plan runs
/// under. Expansion segments always run in-process over the binding
/// table; the backend decides how the (potentially large) head scan is
/// driven and whether compiled expressions apply to expansion filters.
pub use gjit::Mode as Backend;

/// Ladder fingerprint of one pipeline segment: the expression tier keys
/// its promotion decisions per (pipeline shape, segment index).
fn segment_fp(plan_fp: u64, segment: usize) -> u64 {
    let mut bytes = [0u8; 12];
    bytes[..8].copy_from_slice(&plan_fp.to_le_bytes());
    bytes[8..].copy_from_slice(&(segment as u32).to_le_bytes());
    fnv1a(&bytes)
}

/// Execute a planned pattern against one database, with no deadline.
/// Returns the result rows (after `LIMIT`/`COUNT`) and the merged
/// execution profile.
pub fn execute_match(
    mplan: &MatchPlan,
    db: &GraphDb,
    backend: Backend<'_>,
    params: &[PVal],
) -> Result<(Vec<Row>, ExecProfile), QueryError> {
    let mut ctx = ExecCtx::new(params);
    let rows = execute_match_ctx(mplan, db, backend, &mut ctx)?;
    Ok((rows, ctx.profile))
}

/// [`execute_match`] under the caller's [`ExecCtx`]: heads honour its
/// deadline and cancellation flag inside the scan (per morsel), expansion
/// segments check it per segment and per batch of walked rows, and the
/// profile accumulates into `ctx.profile`. One MVTO reader serves every
/// pipeline: the union a multi-pipeline pattern returns is of one snapshot.
pub fn execute_match_ctx(
    mplan: &MatchPlan,
    db: &GraphDb,
    backend: Backend<'_>,
    ctx: &mut ExecCtx<'_>,
) -> Result<Vec<Row>, QueryError> {
    let mut out: Vec<Row> = Vec::new();
    let node_total = db.node_count() as u64;
    let mut txn = db.begin();
    for pipe in &mplan.pipelines {
        out.extend(run_pipeline(pipe, &mut txn, node_total, backend, ctx)?);
        if mplan.limit.is_some_and(|l| out.len() >= l) {
            break;
        }
    }
    Ok(finish(out, mplan, &mut ctx.profile))
}

fn finish(mut rows: Vec<Row>, mplan: &MatchPlan, profile: &mut ExecProfile) -> Vec<Row> {
    if let Some(l) = mplan.limit {
        rows.truncate(l);
    }
    if mplan.count {
        rows = vec![vec![Slot::val(PVal::Int(rows.len() as i64))]];
    }
    profile.rows = rows.len() as u64;
    rows
}

fn run_pipeline(
    pipe: &Pipeline,
    txn: &mut GraphTxn<'_>,
    node_total: u64,
    backend: Backend<'_>,
    ctx: &mut ExecCtx<'_>,
) -> Result<Vec<Row>, QueryError> {
    let fp = pipe.plan.fingerprint();
    let params = ctx.params;
    let head = &pipe.segments[0];
    let head_plan = Plan::new(pipe.plan.ops[head.ops.clone()].to_vec(), pipe.plan.n_params);

    let mut rows = run_plan_ctx(&head_plan, txn, ctx, &backend)?;

    if let Some(engine) = backend.engine() {
        engine.pgo().record_segment(fp, 0, node_total, rows.len() as u64);
    }
    ctx.profile
        .expansions
        .push((head.desc.clone(), node_total, rows.len() as u64));

    for (i, seg) in pipe.segments.iter().enumerate().skip(1) {
        ctx.check_interrupt()?;
        let ops = &pipe.plan.ops[seg.ops.clone()];
        let (walk, filters, project) = split_segment(ops)?;
        let rows_in = rows.len() as u64;

        let mut walked: Vec<Row> = Vec::new();
        execute_prebuffered(walk, txn, params, std::mem::take(&mut rows), &mut |r| {
            walked.push(r.to_vec());
            check_every(ctx, walked.len())
        })?;

        rows = apply_segment_filters(
            &filters,
            walked,
            txn,
            backend.engine(),
            segment_fp(fp, i),
            ctx,
        )?;

        let rows_out = rows.len() as u64;
        if let Some(engine) = backend.engine() {
            engine.pgo().record_segment(fp, i as u32, rows_in, rows_out);
        }
        ctx.profile
            .expansions
            .push((seg.desc.clone(), rows_in, rows_out));

        if let Some(projs) = project {
            let mut projected = Vec::with_capacity(rows.len());
            let ops = [Op::Project(projs.clone())];
            execute_prebuffered(&ops, txn, params, std::mem::take(&mut rows), &mut |r| {
                projected.push(r.to_vec());
                Ok(())
            })?;
            rows = projected;
        }
    }
    Ok(rows)
}

/// Rows an expansion handles between two looks at the clock.
const INTERRUPT_EVERY: usize = 1024;

/// The context's deadline/cancel check, once per [`INTERRUPT_EVERY`] rows.
fn check_every(ctx: &ExecCtx<'_>, n: usize) -> Result<(), QueryError> {
    if n % INTERRUPT_EVERY == 0 {
        ctx.check_interrupt()?;
    }
    Ok(())
}

/// Split one lowered segment into its adjacency walk, its trailing
/// filter run, and (last segment only) the final projection.
fn split_segment<'p>(
    ops: &'p [Op],
) -> Result<(&'p [Op], Vec<&'p Pred>, Option<&'p Vec<Proj>>), QueryError> {
    let mut end = ops.len();
    let project = match ops.last() {
        Some(Op::Project(p)) => {
            end -= 1;
            Some(p)
        }
        _ => None,
    };
    let mut start = end;
    while start > 0 && matches!(ops[start - 1], Op::Filter(_)) {
        start -= 1;
    }
    let filters = ops[start..end]
        .iter()
        .map(|op| match op {
            Op::Filter(p) => Ok(p),
            other => Err(QueryError::BadPlan(format!(
                "unexpected {other:?} in segment filter run"
            ))),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((&ops[..start], filters, project))
}

/// Apply a segment's trailing filters to the walked binding rows.
///
/// The label/property conjunction over the segment's newly bound node
/// column is rebased to column 0 and offered to the expression tier
/// (compiled code reads only the scanned column); each row is then
/// evaluated against a one-column view `[row[col]]`. Anything else —
/// `ColEq` join filters, or conjuncts spanning multiple columns — walks
/// the predicate AST on the full row.
fn apply_segment_filters(
    filters: &[&Pred],
    walked: Vec<Row>,
    txn: &mut GraphTxn<'_>,
    engine: Option<&Arc<JitEngine>>,
    seg_fp: u64,
    ctx: &mut ExecCtx<'_>,
) -> Result<Vec<Row>, QueryError> {
    if filters.is_empty() {
        return Ok(walked);
    }
    let params = ctx.params;

    // Partition: single-column node conjunction vs everything else.
    let mut node_col: Option<usize> = None;
    let mut node_preds: Vec<&Pred> = Vec::new();
    let mut rest: Vec<&Pred> = Vec::new();
    for p in filters {
        let col = match p {
            Pred::Prop { col, .. } | Pred::LabelIs { col, .. } => Some(*col),
            _ => None,
        };
        match col {
            Some(c) if node_col.is_none() || node_col == Some(c) => {
                node_col = Some(c);
                node_preds.push(p);
            }
            _ => rest.push(p),
        }
    }

    // Compiled path for the node conjunction, when an engine is present
    // and the PGO ladder (or a cache hit) admits it.
    let compiled = match (engine, node_col) {
        (Some(engine), Some(_)) => {
            let rebased = rebase_conjunction(&node_preds);
            compiled_filter(engine, seg_fp, &rebased, params)
        }
        _ => None,
    };

    let mut kept = Vec::with_capacity(walked.len());
    let start = Instant::now();
    let rows_before = ctx.profile.residual_rows();
    for (n, row) in walked.into_iter().enumerate() {
        check_every(ctx, n + 1)?;
        let profile = &mut ctx.profile;
        let mut ok = true;
        if let Some(col) = node_col {
            match &compiled {
                Some(ce) => {
                    let view = [*row
                        .get(col)
                        .ok_or_else(|| QueryError::BadPlan(format!("column {col} out of range")))?];
                    ok = ce.eval(txn, params, &view)?;
                    profile.residual_rows_compiled += 1;
                }
                None => {
                    for p in &node_preds {
                        if !eval_pred(p, &row, txn, params)? {
                            ok = false;
                            break;
                        }
                    }
                    profile.residual_rows_interp += 1;
                }
            }
        }
        if ok {
            for p in &rest {
                if !eval_pred(p, &row, txn, params)? {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            kept.push(row);
        }
    }
    if let (Some(engine), Some(_)) = (engine, node_col) {
        // Drive the segment's tier ladder with the rows it evaluated.
        engine
            .pgo()
            .record(seg_fp, ctx.profile.residual_rows() - rows_before, start.elapsed());
    }
    Ok(kept)
}

/// Rewrite a single-column conjunction so every predicate reads column 0
/// — the only column the expression tier compiles — for evaluation
/// against a one-column row view.
fn rebase_conjunction(preds: &[&Pred]) -> Pred {
    let mut rebased = preds.iter().map(|p| match p {
        Pred::Prop {
            key, op, value, ..
        } => Pred::Prop {
            col: 0,
            key: *key,
            op: *op,
            value: *value,
        },
        Pred::LabelIs { label, .. } => Pred::LabelIs { col: 0, label: *label },
        other => (*other).clone(),
    });
    let first = rebased.next().expect("non-empty conjunction");
    rebased.fold(first, |acc, p| Pred::And(Box::new(acc), Box::new(p)))
}

/// Probe/compile the expression tier for a segment's rebased node
/// conjunction. Mirrors `gjit::attach_residual_expr`'s key scheme but
/// compiles synchronously — expansion filters run over an already
/// materialized binding table, so there is no scan to overlap with.
fn compiled_filter(
    engine: &Arc<JitEngine>,
    seg_fp: u64,
    pred: &Pred,
    params: &[PVal],
) -> Option<gjit::CompiledExpr> {
    if !gjit::expr::supported() {
        return None;
    }
    let pred_fp = pred_fingerprint(pred);
    let generic_key = expr_key(ExprSource::Node, pred_fp, ExprTier::Generic, 0);
    let inlined_key = expr_key(ExprSource::Node, pred_fp, ExprTier::Inlined, params_hash(params));
    if let Some(ce) = engine
        .probe_expr(inlined_key)
        .or_else(|| engine.probe_expr(generic_key))
    {
        return Some(ce);
    }
    match engine.expr_tier(seg_fp) {
        ExprTier::Interpret => None,
        ExprTier::Generic => engine
            .get_or_compile_expr(generic_key, ExprSource::Node, pred, None)
            .ok(),
        ExprTier::Inlined => engine
            .get_or_compile_expr(inlined_key, ExprSource::Node, pred, Some(params))
            .ok(),
    }
}

// ---------------------------------------------------------------------
// Sharded execution
// ---------------------------------------------------------------------

/// Execute a planned pattern against a sharded database under the
/// caller's [`ExecCtx`], bounded and cancellable like
/// [`execute_match_ctx`]. The head plan fans out to every shard (rows
/// leave each shard with ids rewritten to global ids); expansions walk
/// adjacency through the router, resolving `REMOTE` half-edges to their
/// owning shard. One MVTO reader per shard serves the whole pattern.
pub fn execute_match_sharded(
    mplan: &MatchPlan,
    db: &ShardedDb,
    backend: Backend<'_>,
    ctx: &mut ExecCtx<'_>,
) -> Result<Vec<Row>, QueryError> {
    if db.shard_count() == 1 {
        // gid == lid: the unsharded executor is exact (and keeps the
        // morsel scheduler + expression tier on their fast paths).
        return execute_match_ctx(mplan, db.shard(0), backend, ctx);
    }
    let mut out: Vec<Row> = Vec::new();
    let mut txns: Vec<GraphTxn<'_>> = db.shards().iter().map(|s| s.begin()).collect();
    for pipe in &mplan.pipelines {
        out.extend(run_pipeline_sharded(pipe, db, &mut txns, backend, ctx)?);
        if mplan.limit.is_some_and(|l| out.len() >= l) {
            break;
        }
    }
    Ok(finish(out, mplan, &mut ctx.profile))
}

fn run_pipeline_sharded(
    pipe: &Pipeline,
    db: &ShardedDb,
    txns: &mut [GraphTxn<'_>],
    backend: Backend<'_>,
    ctx: &mut ExecCtx<'_>,
) -> Result<Vec<Row>, QueryError> {
    let params = ctx.params;
    let fp = pipe.plan.fingerprint();
    let router = db.router();
    let head = &pipe.segments[0];
    let head_ops_full = &pipe.plan.ops[head.ops.clone()];
    // Projection must see global ids; peel it off the head (single-
    // segment pipelines) and evaluate it through the router at the end.
    let (head_ops, mut pending_project) = match head_ops_full.last() {
        Some(Op::Project(p)) => (&head_ops_full[..head_ops_full.len() - 1], Some(p)),
        _ => (head_ops_full, None),
    };
    let head_plan = Plan::new(head_ops.to_vec(), pipe.plan.n_params);

    let mut rows: Vec<Row> = Vec::new();
    let mut node_total = 0u64;
    for s in 0..db.shard_count() {
        node_total += db.shard(s).node_count() as u64;
        let shard_rows = run_plan_ctx(&head_plan, &mut txns[s], ctx, &backend)?;
        for mut r in shard_rows {
            for slot in r.iter_mut() {
                if let Some(lid) = slot.as_node() {
                    *slot = Slot::node(router.global_of(s, lid));
                } else if let Some(lid) = slot.as_rel() {
                    *slot = Slot::rel(router.global_of(s, lid));
                }
            }
            rows.push(r);
        }
    }
    if let Some(engine) = backend.engine() {
        engine.pgo().record_segment(fp, 0, node_total, rows.len() as u64);
    }
    ctx.profile
        .expansions
        .push((head.desc.clone(), node_total, rows.len() as u64));

    // Past the head every read goes through the router.
    let readers = ShardReaders { db, txns };
    for (i, seg) in pipe.segments.iter().enumerate().skip(1) {
        ctx.check_interrupt()?;
        let ops = &pipe.plan.ops[seg.ops.clone()];
        let rows_in = rows.len() as u64;
        let mut j = 0;
        while j < ops.len() {
            match &ops[j] {
                Op::ForeachRel { col, dir, label } => {
                    // Fused with the GetNode that names the landing end —
                    // the walker needs the record to resolve REMOTE.
                    let end = match ops.get(j + 1) {
                        Some(Op::GetNode { end, .. }) => *end,
                        other => {
                            return Err(QueryError::BadPlan(format!(
                                "sharded walk: ForeachRel not followed by GetNode ({other:?})"
                            )))
                        }
                    };
                    let mut next = Vec::new();
                    for r in &rows {
                        let gid = r
                            .get(*col)
                            .and_then(Slot::as_node)
                            .ok_or_else(|| bad_node_col(*col))?;
                        let s = router.shard_of(gid);
                        let lid = router.local_of(gid);
                        for (rid, rec) in readers.txns[s].rels_of(lid, *dir, *label)? {
                            let raw = match end {
                                RelEnd::Dst => rec.dst,
                                RelEnd::Src => rec.src,
                                RelEnd::Other(_) => {
                                    return Err(QueryError::BadPlan(
                                        "sharded walk: RelEnd::Other unsupported".into(),
                                    ))
                                }
                            };
                            let mut nr = r.clone();
                            nr.push(Slot::rel(router.global_of(s, rid)));
                            nr.push(Slot::node(db.endpoint_global(s, raw)));
                            next.push(nr);
                            check_every(ctx, next.len())?;
                        }
                    }
                    rows = next;
                    j += 2;
                }
                Op::Filter(p) => {
                    let mut kept = Vec::with_capacity(rows.len());
                    for (n, r) in std::mem::take(&mut rows).into_iter().enumerate() {
                        check_every(ctx, n + 1)?;
                        if matches!(p, Pred::Prop { .. } | Pred::LabelIs { .. }) {
                            ctx.profile.residual_rows_interp += 1;
                        }
                        if eval_pred(p, &r, &readers, params)? {
                            kept.push(r);
                        }
                    }
                    rows = kept;
                    j += 1;
                }
                Op::Project(p) => {
                    pending_project = Some(p);
                    j += 1;
                }
                other => {
                    return Err(QueryError::BadPlan(format!(
                        "operator {other:?} not supported in sharded match segments"
                    )))
                }
            }
        }
        let rows_out = rows.len() as u64;
        if let Some(engine) = backend.engine() {
            engine.pgo().record_segment(fp, i as u32, rows_in, rows_out);
        }
        ctx.profile
            .expansions
            .push((seg.desc.clone(), rows_in, rows_out));
    }

    if let Some(projs) = pending_project {
        let mut projected = Vec::with_capacity(rows.len());
        for r in &rows {
            let mut pr = Vec::with_capacity(projs.len());
            for p in projs {
                pr.push(eval_proj(p, r, &readers)?);
            }
            projected.push(pr);
        }
        rows = projected;
    }
    Ok(rows)
}

fn bad_node_col(col: usize) -> QueryError {
    QueryError::BadPlan(format!("column {col} is not a node"))
}

/// The router's view of a sharded read: one MVTO reader per shard,
/// addressed by global id (ids project as their global form — the one the
/// client handed in and gets back).
struct ShardReaders<'a, 'db> {
    db: &'a ShardedDb,
    txns: &'a [GraphTxn<'db>],
}

impl<'db> ShardReaders<'_, 'db> {
    /// The owning shard's reader and the entity's local id there.
    fn route(&self, owner: PropOwner) -> (&GraphTxn<'db>, PropOwner) {
        let r = self.db.router();
        match owner {
            PropOwner::Node(gid) => (&self.txns[r.shard_of(gid)], PropOwner::Node(r.local_of(gid))),
            PropOwner::Rel(gid) => (&self.txns[r.shard_of(gid)], PropOwner::Rel(r.local_of(gid))),
        }
    }
}

impl RecordSource for ShardReaders<'_, '_> {
    fn prop_of(&self, owner: PropOwner, key: u32) -> Result<Option<PVal>, QueryError> {
        let (txn, local) = self.route(owner);
        txn.prop_of(local, key)
    }

    fn label_of(&self, owner: PropOwner) -> Result<Option<u32>, QueryError> {
        let (txn, local) = self.route(owner);
        txn.label_of(local)
    }

    fn connected(&self, _a: u64, _b: u64, _label: u32) -> Result<bool, QueryError> {
        Err(QueryError::BadPlan(
            "Connected unsupported in sharded match".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{GraphError, ShardOptions, Value};

    /// The router view and a plain shard reader are one evaluator: at shard
    /// counts 1 and 4 a filter whose columns live on different pools gives
    /// the same verdict, and projecting the label of an entity the reader
    /// cannot see is `NodeNotFound` of the id the row carried — from both.
    #[test]
    fn record_sources_agree_across_shards_and_on_a_vanished_entity() {
        for shards in [1usize, 4] {
            let db = ShardedDb::create(ShardOptions::dram(32 << 20).shards(shards)).unwrap();
            let mut tx = db.begin();
            let a = tx.create_node_on(0, "L", &[("v", Value::Int(1))]).unwrap();
            let b = tx.create_node_on(1 % shards, "L", &[("v", Value::Int(7))]).unwrap();
            let gone = tx.create_node_on(2 % shards, "L", &[]).unwrap();
            tx.commit().unwrap();
            let router = db.router();
            let mut tx = db.shard(router.shard_of(gone)).begin();
            tx.delete_node(router.local_of(gone)).unwrap();
            tx.commit().unwrap();

            let v = db.intern("v").unwrap();
            let prop = |col, op, n| Pred::Prop { col, key: v, op, value: gquery::PPar::Const(PVal::Int(n)) };
            let spanning = Pred::And(
                Box::new(prop(0, gquery::CmpOp::Lt, 5)),
                Box::new(prop(1, gquery::CmpOp::Eq, 7)),
            );
            let txns: Vec<GraphTxn<'_>> = db.shards().iter().map(|s| s.begin()).collect();
            let routed = ShardReaders { db: &db, txns: &txns };
            let row = [Slot::node(a), Slot::node(b)];
            let missing = |r: Result<Slot, QueryError>| match r {
                Err(QueryError::Graph(GraphError::NodeNotFound(id))) => id,
                other => panic!("expected NodeNotFound, got {other:?}"),
            };
            assert!(eval_pred(&spanning, &row, &routed, &[]).unwrap());
            assert!(!eval_pred(&spanning, &[row[1], row[0]], &routed, &[]).unwrap());
            assert_eq!(missing(eval_proj(&Proj::Label { col: 0 }, &[Slot::node(gone)], &routed)), gone);
            if shards == 1 {
                assert!(eval_pred(&spanning, &row, &txns[0], &[]).unwrap());
                assert_eq!(missing(eval_proj(&Proj::Label { col: 0 }, &[Slot::node(gone)], &txns[0])), gone);
            }
        }
    }
}
