//! Predicate pushdown: turn a pipeline's sargable leading conjuncts into
//! chunk-grain pruning decisions against the DRAM zone maps.
//!
//! [`Pushdown::extract`] inspects the first pipeline segment — the scan's
//! own label plus every `Pred::LabelIs`/`Pred::Prop` conjunct on column 0
//! in the *leading* consecutive `Filter` operators — and compiles them
//! into label requirements and per-key index-key ranges. Morsel sources
//! and the sequential interpreter then ask, per chunk, whether any record
//! in the chunk could satisfy all of them ([`node_pruner`] /
//! [`rel_pruner`](Pushdown::rel_pruner), which consult the zone-map key
//! registry once per scan, not once per chunk); chunks that cannot are
//! skipped before a single row is materialized.
//!
//! The residual predicate is untouched: filters stay in the pipeline and
//! still run per row, so pushdown only ever removes work, never changes
//! which rows qualify. Pruning is conservative in exactly one direction —
//! a chunk survives unless the zone maps *prove* no record can match:
//!
//! * `Eq` prunes on the index-key image of the value (PVal equality
//!   implies index-key equality, so the range `[k, k]` over-approximates);
//! * ordered comparisons (`Lt`/`Le`/`Gt`/`Ge`) are evaluated on index
//!   keys by the interpreter itself, so their ranges are exact;
//! * `Lt 0` / `Gt u64::MAX` can never match ⇒ every chunk is pruned
//!   (`Pred::Prop` on a missing property is false, so no row survives);
//! * `Ne`, `Or`, `Not`, multi-column predicates are not sargable and
//!   remain residual-only.
//!
//! [`node_pruner`]: Pushdown::node_pruner

use std::sync::Arc;

use graphcore::accel::PropZones;
use graphcore::ReadAccel;
use gstore::PVal;

use crate::plan::{CmpOp, Op, Pred};

/// Sargable leading conjuncts of one pipeline segment, resolved against
/// the invocation's parameters.
#[derive(Debug, Default)]
pub struct Pushdown {
    /// Labels the column-0 entity must carry (scan label + `LabelIs`).
    pub labels: Vec<u32>,
    /// Per-key inclusive index-key ranges the column-0 node must satisfy.
    pub ranges: Vec<(u32, u64, u64)>,
    /// A leading conjunct can never be satisfied; every chunk is prunable.
    pub never: bool,
}

impl Pushdown {
    /// Extract the sargable leading conjuncts of a first pipeline segment
    /// (`seg[0]` is the access path; consecutive `Filter`s follow).
    pub fn extract(seg: &[Op], params: &[PVal]) -> Pushdown {
        let mut pd = Pushdown::default();
        if let Some(Op::NodeScan { label: Some(l) } | Op::RelScan { label: Some(l) }) = seg.first() {
            pd.labels.push(*l);
        }
        for op in &seg[1.min(seg.len())..] {
            let Op::Filter(pred) = op else { break };
            pd.add_conjunct(pred, params);
        }
        pd
    }

    fn add_conjunct(&mut self, pred: &Pred, params: &[PVal]) {
        match pred {
            Pred::And(l, r) => {
                self.add_conjunct(l, params);
                self.add_conjunct(r, params);
            }
            Pred::LabelIs { col: 0, label } => self.labels.push(*label),
            Pred::Prop {
                col: 0,
                key,
                op,
                value,
            } => {
                let k = value.resolve(params).index_key();
                match op {
                    CmpOp::Eq => self.ranges.push((*key, k, k)),
                    CmpOp::Le => self.ranges.push((*key, 0, k)),
                    CmpOp::Ge => self.ranges.push((*key, k, u64::MAX)),
                    CmpOp::Lt if k == 0 => self.never = true,
                    CmpOp::Lt => self.ranges.push((*key, 0, k - 1)),
                    CmpOp::Gt if k == u64::MAX => self.never = true,
                    CmpOp::Gt => self.ranges.push((*key, k + 1, u64::MAX)),
                    CmpOp::Ne => {}
                }
            }
            _ => {}
        }
    }

    /// True when nothing was pushed down (no chunk can ever be pruned).
    pub fn is_trivial(&self) -> bool {
        !self.never && self.labels.is_empty() && self.ranges.is_empty()
    }

    /// The per-chunk node test — may any record in the chunk satisfy every
    /// pushed-down conjunct? — resolved against `accel` once: the enabled
    /// flag is sampled and each range's zone map looked up in the key
    /// registry here, so the test itself only loads per-chunk cells.
    /// Always true while acceleration is disabled, so the on/off toggle
    /// yields byte-identical scan behaviour.
    pub fn node_pruner<'a>(&'a self, accel: &'a ReadAccel) -> impl Fn(usize) -> bool + 'a {
        let enabled = accel.enabled();
        // An unregistered key has no zones and prunes nothing.
        let zones = if enabled {
            self.ranges
                .iter()
                .filter_map(|&(key, lo, hi)| Some((accel.key_zones(key)?, lo, hi)))
                .collect()
        } else {
            Vec::new()
        };
        let has_label = move |chunk, label| accel.node_chunk_may_match_label(chunk, label);
        self.pruner(enabled, has_label, zones)
    }

    /// The per-chunk relationship test. Relationship properties carry no
    /// zone maps, so only the label bitset (and `never`) prune here.
    pub fn rel_pruner<'a>(&'a self, accel: &'a ReadAccel) -> impl Fn(usize) -> bool + 'a {
        let has_label = move |chunk, label| accel.rel_chunk_may_match_label(chunk, label);
        self.pruner(accel.enabled(), has_label, Vec::new())
    }

    fn pruner<'a>(
        &'a self,
        enabled: bool,
        has_label: impl Fn(usize, u32) -> bool + 'a,
        zones: Vec<(Arc<PropZones>, u64, u64)>,
    ) -> impl Fn(usize) -> bool + 'a {
        move |chunk| {
            !enabled
                || !self.never
                    && self.labels.iter().all(|&l| has_label(chunk, l))
                    && zones.iter().all(|(z, lo, hi)| z.may_overlap(chunk, *lo, *hi))
        }
    }

    /// Surviving node chunks in `0..chunk_count`, plus how many were
    /// pruned. The surviving list keeps chunk order, so pruned scans
    /// produce rows in the same order as unpruned ones.
    pub fn surviving_node_chunks(&self, accel: &ReadAccel, chunk_count: usize) -> (Vec<usize>, u64) {
        surviving(chunk_count, self.node_pruner(accel))
    }

    /// Surviving relationship chunks in `0..chunk_count`, plus the pruned
    /// count.
    pub fn surviving_rel_chunks(&self, accel: &ReadAccel, chunk_count: usize) -> (Vec<usize>, u64) {
        surviving(chunk_count, self.rel_pruner(accel))
    }
}

fn surviving(chunk_count: usize, keep: impl Fn(usize) -> bool) -> (Vec<usize>, u64) {
    let list: Vec<usize> = (0..chunk_count).filter(|&c| keep(c)).collect();
    let pruned = (chunk_count - list.len()) as u64;
    (list, pruned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PPar;

    fn ikey(v: i64) -> u64 {
        PVal::Int(v).index_key()
    }

    fn prop(op: CmpOp, v: i64) -> Op {
        Op::Filter(Pred::Prop {
            col: 0,
            key: 7,
            op,
            value: PPar::Const(PVal::Int(v)),
        })
    }

    #[test]
    fn extracts_scan_label_and_leading_conjuncts() {
        let seg = [
            Op::NodeScan { label: Some(3) },
            Op::Filter(Pred::And(
                Box::new(Pred::LabelIs { col: 0, label: 3 }),
                Box::new(Pred::Prop {
                    col: 0,
                    key: 7,
                    op: CmpOp::Le,
                    value: PPar::Param(0),
                }),
            )),
            prop(CmpOp::Ge, 10),
        ];
        let pd = Pushdown::extract(&seg, &[PVal::Int(99)]);
        assert_eq!(pd.labels, vec![3, 3]);
        assert_eq!(pd.ranges, vec![(7, 0, ikey(99)), (7, ikey(10), u64::MAX)]);
        assert!(!pd.never);
        assert!(!pd.is_trivial());
    }

    #[test]
    fn extraction_stops_at_first_non_filter() {
        let seg = [
            Op::NodeScan { label: None },
            Op::ForeachRel {
                col: 0,
                dir: graphcore::Dir::Out,
                label: None,
            },
            prop(CmpOp::Eq, 5),
        ];
        let pd = Pushdown::extract(&seg, &[]);
        assert!(pd.is_trivial());
    }

    #[test]
    fn non_sargable_predicates_stay_residual() {
        let seg = [
            Op::NodeScan { label: None },
            prop(CmpOp::Ne, 5),
            Op::Filter(Pred::Or(
                Box::new(Pred::LabelIs { col: 0, label: 1 }),
                Box::new(Pred::LabelIs { col: 0, label: 2 }),
            )),
            Op::Filter(Pred::LabelIs { col: 1, label: 1 }),
        ];
        let pd = Pushdown::extract(&seg, &[]);
        assert!(pd.is_trivial());
    }

    #[test]
    fn impossible_bounds_prune_everything() {
        let seg = [Op::NodeScan { label: None }, prop(CmpOp::Lt, i64::MIN)];
        let pd = Pushdown::extract(&seg, &[]);
        assert!(pd.never, "Lt over the smallest index key can never match");
        let accel = ReadAccel::default();
        accel.set_enabled(true);
        assert!(!pd.node_pruner(&accel)(0));
    }

    #[test]
    fn survival_consults_zone_maps() {
        let accel = ReadAccel::default();
        accel.set_enabled(true);
        // Chunk 0 holds label 1 with key 7 in [10, 20]; chunk 1 label 2.
        accel.register_key(7, &[]);
        accel.note_node_label(0, 1);
        accel.note_node_prop(7, 0, ikey(10));
        accel.note_node_prop(7, 0, ikey(20));
        accel.note_node_label(64, 2);

        let seg = [Op::NodeScan { label: Some(1) }, prop(CmpOp::Ge, 15)];
        let pd = Pushdown::extract(&seg, &[]);
        assert!(pd.node_pruner(&accel)(0));
        assert!(!pd.node_pruner(&accel)(1), "label 1 never in chunk 1");
        assert!(!pd.node_pruner(&accel)(2), "chunk never populated");

        let seg = [Op::NodeScan { label: Some(1) }, prop(CmpOp::Gt, 20)];
        let pd = Pushdown::extract(&seg, &[]);
        assert!(!pd.node_pruner(&accel)(0), "zone [10,20] disjoint");

        let (list, pruned) = Pushdown::extract(
            &[Op::NodeScan { label: Some(1) }],
            &[],
        )
        .surviving_node_chunks(&accel, 3);
        assert_eq!(list, vec![0]);
        assert_eq!(pruned, 2);
    }

    #[test]
    fn disabled_accel_never_prunes() {
        let accel = ReadAccel::default();
        let seg = [Op::NodeScan { label: Some(9) }, prop(CmpOp::Lt, i64::MIN)];
        let pd = Pushdown::extract(&seg, &[]);
        assert!(pd.node_pruner(&accel)(0));
        assert!(pd.rel_pruner(&accel)(0));
    }

    #[test]
    fn rel_survival_uses_label_bitset_only() {
        let accel = ReadAccel::default();
        accel.set_enabled(true);
        accel.note_rel_label(0, 4);
        let seg = [
            Op::RelScan { label: Some(4) },
            prop(CmpOp::Eq, 1), // rel props are not zone-tracked
        ];
        let pd = Pushdown::extract(&seg, &[]);
        assert!(pd.rel_pruner(&accel)(0));
        assert!(!pd.rel_pruner(&accel)(1));
    }
}
