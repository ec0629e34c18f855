//! Cost-based pattern planning: expansion ordering, access-path choice,
//! and lowering onto the [`gquery::Plan`] operator language.
//!
//! A connected [`PatternGraph`] admits many join orders and, for its
//! start node, several access paths: a B+-tree point probe
//! ([`Op::IndexScan`]) when an equality predicate hits an index, a
//! B+-tree range probe ([`Op::IndexRangeScan`]) for ordered predicates,
//! or a zone-map pruned chunk scan ([`Op::NodeScan`] + pushdown). The
//! planner enumerates one greedy expansion order per candidate start
//! node, lowers each candidate into physical pipelines (one per
//! fixed-length assignment of the variable-length edges), prices every
//! pipeline with the cost model, and keeps the cheapest candidate —
//! or the most expensive under [`PlanChoice::Worst`], which is the
//! forced-bad-plan arm the planner tests compare the chosen plan with.
//!
//! The cost model combines three signal sources:
//!
//! * **counts** — node/relationship table sizes from the stats source;
//! * **zone maps** — chunk-survival fractions for the sargable conjuncts
//!   of each pattern node, the same pruning the executor will perform;
//! * **PGO** — once a pipeline shape has run, observed per-segment
//!   selectivity from [`gjit::PgoTable::segment_selectivity`] replaces
//!   the static estimate on replan, so mis-estimates self-correct.
//!
//! Lowered pipelines are plain [`Plan`]s: the morsel scheduler, JIT
//! code cache, predicate pushdown and the expression tier all apply
//! unchanged. Residual predicates are kept on every segment even when an
//! access path over-approximates them (index keys are order-preserving
//! but not injective across value types), so a chosen access path never
//! changes which rows qualify — only how much work finding them costs.

use std::ops::Range;

use gjit::PgoTable;
use gquery::{CmpOp, Op, PPar, Plan, Pred, Proj, RelEnd};
use gstore::hash::fnv1a;
use gstore::PVal;
use graphcore::Dir;

use crate::parse::{err, MatchError};
use crate::pattern::{PatternGraph, PropPred, RetItem};
use crate::stats::StatsSource;

/// Records per chunk (zone-map grain): an equality conjunct inside a
/// surviving chunk is expected to keep ~1/64 of its rows.
const CHUNK: f64 = 64.0;
/// Assumed row survival of an ordered conjunct inside surviving chunks.
const ORD_REFINE: f64 = 1.0 / 3.0;
/// Cost of one B+-tree descent, in row-visit units.
const INDEX_PROBE: f64 = 16.0;
/// Cap on fixed-length pipelines one pattern may enumerate.
const MAX_PIPELINES: usize = 32;

/// Pick the cheapest or the most expensive candidate plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanChoice {
    Best,
    /// Deliberately worst order + access paths (bench baseline arm).
    Worst,
}

/// One physical pipeline segment: a contiguous operator range of the
/// pipeline plan, with its cost-model estimates.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Operator range into the owning [`Pipeline::plan`].
    pub ops: Range<usize>,
    /// Human-readable description for the slow log, e.g.
    /// `index_eq(a,key=4)` or `expand(a->b,rel=7,hops=2)`.
    pub desc: String,
    /// Access-path class: `index_eq`, `index_range`, `scan`, `expand`,
    /// `close`.
    pub access: &'static str,
    /// Static selectivity estimate (`rows_out / rows_in`; head segments
    /// are relative to the node count). May exceed 1 for expansions.
    pub sel: f64,
    /// Work term: absolute row-visits for head segments, per-input-row
    /// visits for expansions.
    pub work: f64,
    /// Estimated rows leaving this segment (filled by the cost pass,
    /// PGO-corrected when observations exist).
    pub est_rows: f64,
}

/// One lowered fixed-length pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    pub plan: Plan,
    /// Segment 0 is the scan head; segments 1.. are expansions.
    pub segments: Vec<Segment>,
    /// Estimated total row-visits (filled by the cost pass).
    pub est_cost: f64,
}

/// The chosen physical plan for one pattern.
#[derive(Debug, Clone)]
pub struct MatchPlan {
    /// One pipeline per fixed-length assignment of variable-length edges;
    /// results are the union, in pipeline order.
    pub pipelines: Vec<Pipeline>,
    pub limit: Option<usize>,
    pub count: bool,
    pub n_params: usize,
    /// Total estimated cost across pipelines.
    pub est_cost: f64,
    /// One-line plan summary (start node, access path, expansion order)
    /// for the slow log.
    pub summary: String,
    /// Shape hash over all pipeline fingerprints.
    pub fingerprint: u64,
}

/// Plan a pattern: enumerate candidate orders, lower, price, choose.
/// `params` must bind every `?N` the pattern references — the planner
/// prices zone-map survival against the *actual* parameter values, which
/// is why patterns are replanned per request — not for free: planning an
/// anchored pattern costs about what executing it does (`gmatch.plan_us`).
pub fn plan(
    pg: &PatternGraph,
    stats: &dyn StatsSource,
    params: &[PVal],
    pgo: Option<&PgoTable>,
    choice: PlanChoice,
) -> Result<MatchPlan, MatchError> {
    if pg.nodes.is_empty() {
        return err("empty pattern");
    }
    if !pg.is_connected() {
        return err("disconnected pattern: every node must be reachable through pattern edges");
    }
    if params.len() < pg.n_params {
        return Err(MatchError(format!(
            "pattern references {} parameter(s), {} given",
            pg.n_params,
            params.len()
        )));
    }
    let combos: usize = pg
        .edges
        .iter()
        .map(|e| (e.max_hops - e.min_hops + 1) as usize)
        .product();
    if combos > MAX_PIPELINES {
        return Err(MatchError(format!(
            "pattern enumerates {combos} fixed-length pipelines (cap {MAX_PIPELINES}); tighten *min..max bounds"
        )));
    }

    // Table counts and label survival are read here, once per edge, not
    // once per candidate start and pipeline that prices the edge.
    let degrees = Vec::from_iter(pg.edges.iter().map(|e| avg_degree(stats, e.label)));
    let mut best: Option<(f64, MatchPlan)> = None;
    for start in 0..pg.nodes.len() {
        let steps = greedy_order(pg, stats, &degrees, params, start);
        let candidate = lower_candidate(pg, stats, params, pgo, choice, start, &steps)?;
        let better = match &best {
            None => true,
            Some((cost, _)) => match choice {
                PlanChoice::Best => candidate.est_cost < *cost,
                PlanChoice::Worst => candidate.est_cost > *cost,
            },
        };
        if better {
            best = Some((candidate.est_cost, candidate));
        }
    }
    Ok(best.expect("at least one candidate").1)
}

/// One step of a candidate order.
#[derive(Debug, Clone, Copy)]
struct Step {
    edge: usize,
    /// Both endpoints already bound: the edge only filters.
    closing: bool,
    /// Walk direction: true ⇒ from the edge's `src` endpoint outward.
    from_src: bool,
    /// Average fan-out of the edge's label.
    deg: f64,
}

/// Greedy expansion order from `start`: closing edges as soon as both
/// endpoints bind (they only shrink the binding table), otherwise the
/// expansion with the smallest estimated fan-out × target selectivity.
fn greedy_order(
    pg: &PatternGraph,
    stats: &dyn StatsSource,
    degrees: &[f64],
    params: &[PVal],
    start: usize,
) -> Vec<Step> {
    let mut bound = vec![false; pg.nodes.len()];
    bound[start] = true;
    let mut done = vec![false; pg.edges.len()];
    let mut steps = Vec::with_capacity(pg.edges.len());
    loop {
        // Closing edges first, in pattern order.
        let mut progressed = false;
        for (i, e) in pg.edges.iter().enumerate() {
            if !done[i] && bound[e.src] && bound[e.dst] {
                done[i] = true;
                progressed = true;
                steps.push(Step {
                    edge: i,
                    closing: true,
                    from_src: true,
                    deg: degrees[i],
                });
            }
        }
        // Cheapest expansion next.
        let mut pick: Option<(f64, usize, bool)> = None;
        for (i, e) in pg.edges.iter().enumerate() {
            if done[i] {
                continue;
            }
            let (from_src, target) = match (bound[e.src], bound[e.dst]) {
                (true, false) => (true, e.dst),
                (false, true) => (false, e.src),
                _ => continue,
            };
            let hops = f64::from(e.min_hops + e.max_hops) / 2.0;
            let (sel, _, _) = node_sel(stats, pg, target, params);
            let score = degrees[i].powf(hops) * sel;
            if pick.map_or(true, |(s, _, _)| score < s) {
                pick = Some((score, i, from_src));
            }
        }
        match pick {
            Some((_, i, from_src)) => {
                done[i] = true;
                let e = &pg.edges[i];
                bound[if from_src { e.dst } else { e.src }] = true;
                steps.push(Step {
                    edge: i,
                    closing: false,
                    from_src,
                    deg: degrees[i],
                });
            }
            None if progressed => continue,
            None => break,
        }
    }
    steps
}

/// Lower one candidate into its pipelines, price them, and assemble a
/// [`MatchPlan`].
fn lower_candidate(
    pg: &PatternGraph,
    stats: &dyn StatsSource,
    params: &[PVal],
    pgo: Option<&PgoTable>,
    choice: PlanChoice,
    start: usize,
    steps: &[Step],
) -> Result<MatchPlan, MatchError> {
    let head = pick_head(pg, stats, params, choice, start);
    let mut assignments: Vec<Vec<u32>> = vec![vec![]];
    for e in &pg.edges {
        let mut next = Vec::new();
        for a in &assignments {
            for len in e.min_hops..=e.max_hops {
                let mut a = a.clone();
                a.push(len);
                next.push(a);
            }
        }
        assignments = next;
    }

    let mut pipelines = Vec::with_capacity(assignments.len());
    let mut total = 0.0;
    for lens in &assignments {
        let mut p = lower_pipeline(pg, stats, params, &head, start, steps, lens)?;
        price_pipeline(&mut p, stats, pgo);
        total += p.est_cost;
        pipelines.push(p);
    }

    let mut summary = format!("start={} {}", pg.nodes[start].name, head.desc);
    for s in steps {
        let e = &pg.edges[s.edge];
        let hops = if e.min_hops == e.max_hops {
            format!("{}", e.min_hops)
        } else {
            format!("{}..{}", e.min_hops, e.max_hops)
        };
        summary.push_str(&format!(
            " -> {}({}-[{}*{}]->{})",
            if s.closing { "close" } else { "expand" },
            pg.nodes[e.src].name,
            e.label.map_or_else(|| "*".into(), |l| l.to_string()),
            hops,
            pg.nodes[e.dst].name,
        ));
    }

    let mut fp_bytes = Vec::with_capacity(pipelines.len() * 8);
    for p in &pipelines {
        fp_bytes.extend_from_slice(&p.plan.fingerprint().to_le_bytes());
    }
    Ok(MatchPlan {
        pipelines,
        limit: pg.limit,
        count: pg.count,
        n_params: pg.n_params,
        est_cost: total,
        summary,
        fingerprint: fnv1a(&fp_bytes),
    })
}

/// A chosen head access path.
struct Head {
    ops: Vec<Op>,
    desc: String,
    access: &'static str,
    /// rows_out / node_count.
    sel: f64,
    /// Absolute row-visit cost of the access itself.
    work: f64,
}

/// Index-key range image of one sargable conjunct (the same rules as
/// `Pushdown::add_conjunct`); `None` when the conjunct can never hold.
fn range_of(p: &PropPred, params: &[PVal]) -> Option<Option<(u32, u64, u64)>> {
    let k = p.value.resolve(params).index_key();
    Some(match p.op {
        CmpOp::Eq => Some((p.key, k, k)),
        CmpOp::Le => Some((p.key, 0, k)),
        CmpOp::Ge => Some((p.key, k, u64::MAX)),
        CmpOp::Lt if k == 0 => return None,
        CmpOp::Lt => Some((p.key, 0, k - 1)),
        CmpOp::Gt if k == u64::MAX => return None,
        CmpOp::Gt => Some((p.key, k + 1, u64::MAX)),
        CmpOp::Ne => None,
    })
}

/// Zone-map + refinement selectivity of one pattern node's predicates:
/// `(row survival, chunk survival, provably-empty)`.
fn node_sel(
    pg_stats: &dyn StatsSource,
    pg: &PatternGraph,
    node: usize,
    params: &[PVal],
) -> (f64, f64, bool) {
    let n = &pg.nodes[node];
    let labels: Vec<u32> = n.label.into_iter().collect();
    let mut ranges = Vec::new();
    let mut refine = 1.0;
    for p in &n.preds {
        match range_of(p, params) {
            None => return (0.0, 0.0, true),
            Some(Some(r)) => ranges.push(r),
            Some(None) => {}
        }
        refine *= match p.op {
            CmpOp::Eq => 1.0 / CHUNK,
            CmpOp::Ne => 1.0,
            _ => ORD_REFINE,
        };
    }
    let survival = pg_stats.node_survival(&labels, &ranges);
    (survival * refine, survival, false)
}

/// Average fan-out of one relationship label.
fn avg_degree(stats: &dyn StatsSource, label: Option<u32>) -> f64 {
    let n = stats.node_count().max(1) as f64;
    stats.rel_count() as f64 * stats.rel_survival(label) / n
}

/// Enumerate viable head access paths for `start` and pick per `choice`.
fn pick_head(
    pg: &PatternGraph,
    stats: &dyn StatsSource,
    params: &[PVal],
    choice: PlanChoice,
    start: usize,
) -> Head {
    let s = &pg.nodes[start];
    let n = stats.node_count().max(1) as f64;
    let (sel, survival, never) = node_sel(stats, pg, start, params);
    let residual: Vec<Op> = s
        .preds
        .iter()
        .map(|p| {
            Op::Filter(Pred::Prop {
                col: 0,
                key: p.key,
                op: p.op,
                value: p.value,
            })
        })
        .collect();

    // Option 1: zone-map pruned chunk scan (always viable).
    let mut options = Vec::new();
    let mut scan_ops = vec![Op::NodeScan { label: s.label }];
    scan_ops.extend(residual.iter().cloned());
    options.push(Head {
        ops: scan_ops,
        desc: format!(
            "scan({},label={})",
            s.name,
            s.label.map_or_else(|| "*".into(), |l| l.to_string())
        ),
        access: "scan",
        sel: if never { 0.0 } else { sel },
        work: if never { 0.0 } else { n * survival },
    });

    // Options 2/3: B+-tree probes, when an index covers a predicate.
    if let Some(label) = s.label {
        for p in &s.preds {
            if never || !stats.has_index(label, p.key) {
                continue;
            }
            let (op, access) = match p.op {
                CmpOp::Eq => (
                    Op::IndexScan {
                        label,
                        key: p.key,
                        value: p.value,
                    },
                    "index_eq",
                ),
                CmpOp::Le | CmpOp::Lt => (
                    Op::IndexRangeScan {
                        label,
                        key: p.key,
                        lo: PPar::Const(PVal::Int(i64::MIN)),
                        hi: p.value,
                    },
                    "index_range",
                ),
                CmpOp::Ge | CmpOp::Gt => (
                    Op::IndexRangeScan {
                        label,
                        key: p.key,
                        lo: p.value,
                        hi: PPar::Const(PVal::Int(i64::MAX)),
                    },
                    "index_range",
                ),
                CmpOp::Ne => continue,
            };
            // The probe bounds the candidates; residuals keep exactness
            // (index keys are order-preserving, not injective).
            let probe_sel = if access == "index_eq" {
                (survival / CHUNK).min(1.0)
            } else {
                survival * ORD_REFINE
            };
            let mut ops = vec![op];
            ops.extend(residual.iter().cloned());
            options.push(Head {
                ops,
                desc: format!("{access}({},key={})", s.name, p.key),
                access,
                sel,
                work: INDEX_PROBE + n * probe_sel,
            });
        }
    }

    let idx = match choice {
        PlanChoice::Best => (0..options.len())
            .min_by(|&a, &b| options[a].work.total_cmp(&options[b].work))
            .unwrap(),
        PlanChoice::Worst => (0..options.len())
            .max_by(|&a, &b| options[a].work.total_cmp(&options[b].work))
            .unwrap(),
    };
    options.swap_remove(idx)
}

/// Lower one fixed-length pipeline for a candidate order.
fn lower_pipeline(
    pg: &PatternGraph,
    stats: &dyn StatsSource,
    params: &[PVal],
    head: &Head,
    start: usize,
    steps: &[Step],
    lens: &[u32],
) -> Result<Pipeline, MatchError> {
    let mut ops: Vec<Op> = head.ops.clone();
    let mut segments = vec![Segment {
        ops: 0..ops.len(),
        desc: head.desc.clone(),
        access: head.access,
        sel: head.sel,
        work: head.work,
        est_rows: 0.0,
    }];
    let mut col_of: Vec<Option<usize>> = vec![None; pg.nodes.len()];
    col_of[start] = Some(0);
    let mut next_col = 1usize;

    for step in steps {
        let e = &pg.edges[step.edge];
        let hops = lens[step.edge];
        let seg_start = ops.len();
        let deg = step.deg;
        let (from, to) = if step.from_src {
            (e.src, e.dst)
        } else {
            (e.dst, e.src)
        };
        let (dir, end) = if step.from_src {
            (Dir::Out, RelEnd::Dst)
        } else {
            (Dir::In, RelEnd::Src)
        };
        let mut cur = col_of[from].expect("walk origin is bound");
        let walk_hops = if step.closing { hops.saturating_sub(1) } else { hops };
        for _ in 0..walk_hops {
            ops.push(Op::ForeachRel {
                col: cur,
                dir,
                label: e.label,
            });
            ops.push(Op::GetNode {
                col: next_col,
                end,
            });
            cur = next_col + 1;
            next_col += 2;
        }
        let (sel, work);
        if step.closing {
            // Final hop lands on the already-bound endpoint.
            let target = col_of[to].expect("closing edge target is bound");
            ops.push(Op::ForeachRel {
                col: cur,
                dir,
                label: e.label,
            });
            ops.push(Op::GetNode {
                col: next_col,
                end,
            });
            let landed = next_col + 1;
            next_col += 2;
            ops.push(Op::Filter(Pred::ColEq { a: landed, b: target }));
            let n = stats.node_count().max(1) as f64;
            sel = deg.powi(hops as i32) / n;
            work = deg.powi(hops as i32);
        } else {
            // Target node's own constraints apply on the last hop.
            let t = &pg.nodes[to];
            if let Some(label) = t.label {
                ops.push(Op::Filter(Pred::LabelIs { col: cur, label }));
            }
            for p in &t.preds {
                ops.push(Op::Filter(Pred::Prop {
                    col: cur,
                    key: p.key,
                    op: p.op,
                    value: p.value,
                }));
            }
            col_of[to] = Some(cur);
            let (tsel, _, tnever) = node_sel(stats, pg, to, params);
            sel = if tnever { 0.0 } else { deg.powi(hops as i32) * tsel };
            work = deg.powi(hops as i32);
        }
        segments.push(Segment {
            ops: seg_start..ops.len(),
            desc: format!(
                "{}({}-[{}*{}]->{})",
                if step.closing { "close" } else { "expand" },
                pg.nodes[e.src].name,
                e.label.map_or_else(|| "*".into(), |l| l.to_string()),
                hops,
                pg.nodes[e.dst].name,
            ),
            access: if step.closing { "close" } else { "expand" },
            sel,
            work,
            est_rows: 0.0,
        });
    }

    // Final projection rides on the last segment.
    let mut projs = Vec::with_capacity(pg.returns.len());
    for r in &pg.returns {
        let proj = match r {
            RetItem::Id(i) => Proj::Id {
                col: col_of[*i]
                    .ok_or_else(|| MatchError(format!("node {} never bound", pg.nodes[*i].name)))?,
            },
            RetItem::Prop(i, key) => Proj::Prop {
                col: col_of[*i]
                    .ok_or_else(|| MatchError(format!("node {} never bound", pg.nodes[*i].name)))?,
                key: *key,
            },
        };
        projs.push(proj);
    }
    ops.push(Op::Project(projs));
    segments.last_mut().expect("head exists").ops.end = ops.len();

    Ok(Pipeline {
        plan: Plan::new(ops, pg.n_params),
        segments,
        est_cost: 0.0,
    })
}

/// The cost pass: walk the pipeline's segments, preferring observed PGO
/// selectivity over the static estimate, accumulating row-visit cost and
/// filling `est_rows`.
fn price_pipeline(p: &mut Pipeline, stats: &dyn StatsSource, pgo: Option<&PgoTable>) {
    let fp = p.plan.fingerprint();
    let mut rows = stats.node_count() as f64;
    let mut cost = 0.0;
    for (i, seg) in p.segments.iter_mut().enumerate() {
        let sel = pgo
            .and_then(|t| t.segment_selectivity(fp, i as u32))
            .unwrap_or(seg.sel);
        if i == 0 {
            cost += seg.work;
            rows = (rows * sel).max(0.0);
        } else {
            cost += rows * seg.work;
            rows *= sel;
        }
        seg.est_rows = rows;
    }
    p.est_cost = cost + rows;
}
