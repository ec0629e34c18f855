//! Profile-guided tiering of residual expressions.
//!
//! Every plan fingerprint accumulates row/time counters as its residual
//! filter runs. The counters drive a three-tier ladder:
//!
//! * [`ExprTier::Interpret`] — cold plans walk the AST; compilation would
//!   cost more than it saves.
//! * [`ExprTier::Generic`] — past `tier1_rows` cumulative residual rows
//!   the predicate is compiled with `PPar::Param` holes resolved through
//!   `rt_param` at run time, so one function serves every parameter
//!   binding.
//! * [`ExprTier::Inlined`] — past `tier2_rows` the expression is
//!   *recompiled* with the current execution's parameters folded to
//!   constants (keyed by parameter hash), turning parameter loads into
//!   immediates — the PGO recompilation step.
//!
//! Counters are process-local (DRAM): a restart restarts the profile.
//! Warm restarts still skip compilation because the *code* survives in
//! the disk cache — [`crate::JitEngine`] probes caches before consulting
//! the tier, so the ladder only gates *new* compilation work.
//!
//! Per-plan row counters are mirrored into the gobs registry as
//! `pmemgraph_jit_plan_rows_total{plan="<fingerprint>"}`, capped at
//! [`MAX_PLAN_SERIES`] registered series so an ad-hoc workload cannot
//! blow up metric cardinality. The tables themselves are bounded too:
//! constants are part of a plan's fingerprint, so ad-hoc traffic mints a
//! new one per request, and each map keeps at most [`MAX_PROFILES`]
//! entries, dropping the coldest first so a hot plan keeps its tier.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Execution tier of one plan's residual expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ExprTier {
    /// Walk the predicate AST per row.
    Interpret = 0,
    /// Compiled, parameters resolved at run time.
    Generic = 1,
    /// Recompiled with parameters folded to constants.
    Inlined = 2,
}

/// Default tier-promotion thresholds (cumulative residual rows).
pub const DEFAULT_TIER1_ROWS: u64 = 4_096;
pub const DEFAULT_TIER2_ROWS: u64 = 262_144;

/// Cap on per-plan series registered with the gobs registry.
const MAX_PLAN_SERIES: usize = 64;

/// Bound on each profile map (and on the engine's failure memo): a few
/// profiles per code object the cache can hold — a profile outlives its
/// evicted code so a returning plan recompiles at once, but a plan seen
/// once must not cost memory forever.
pub(crate) const MAX_PROFILES: usize = 4 * crate::engine::DEFAULT_CODE_CACHE_CAP;

/// The profile for `key`, created on first sight; at the bound the coldest
/// existing profile (least `heat`) makes room first.
fn profile<K: Copy + Eq + Hash, V: Default>(
    map: &mut HashMap<K, Arc<V>>,
    key: K,
    heat: impl Fn(&V) -> u64,
) -> Arc<V> {
    if let Some(v) = map.get(&key) {
        return v.clone();
    }
    if map.len() >= MAX_PROFILES {
        let coldest = map.iter().min_by_key(|(_, v)| heat(v)).map(|(k, _)| *k);
        if let Some(k) = coldest {
            map.remove(&k);
        }
    }
    map.entry(key).or_default().clone()
}

/// Lifetime profile of one plan fingerprint's residual filter.
#[derive(Default)]
pub struct PlanCounters {
    /// Residual rows evaluated (interpreted or compiled).
    pub rows: AtomicU64,
    /// Wall-clock microseconds spent in runs of this plan.
    pub micros: AtomicU64,
    /// Number of recorded runs.
    pub runs: AtomicU64,
}

impl PlanCounters {
    /// Rows per second over the recorded lifetime (0 until time accrues).
    pub fn throughput(&self) -> u64 {
        let us = self.micros.load(Ordering::Relaxed);
        if us == 0 {
            return 0;
        }
        self.rows
            .load(Ordering::Relaxed)
            .saturating_mul(1_000_000)
            / us
    }
}

/// Lifetime profile of one pipeline segment of one plan: how many rows
/// entered the segment and how many survived it. The ratio is the
/// segment's *observed selectivity*, which the gmatch cost model prefers
/// over zone-map estimates on replan (the §14 feedback loop extended
/// from per-plan row counts to per-segment counters).
#[derive(Default)]
pub struct SegmentCounters {
    pub rows_in: AtomicU64,
    pub rows_out: AtomicU64,
    pub runs: AtomicU64,
}

impl SegmentCounters {
    /// Observed `rows_out / rows_in`, or `None` before any row has been
    /// seen (no evidence beats no evidence).
    pub fn selectivity(&self) -> Option<f64> {
        let rin = self.rows_in.load(Ordering::Relaxed);
        if rin == 0 {
            return None;
        }
        Some(self.rows_out.load(Ordering::Relaxed) as f64 / rin as f64)
    }
}

/// All per-plan profiles plus the tier thresholds.
pub struct PgoTable {
    plans: Mutex<HashMap<u64, Arc<PlanCounters>>>,
    segments: Mutex<HashMap<(u64, u32), Arc<SegmentCounters>>>,
    tier1_rows: AtomicU64,
    tier2_rows: AtomicU64,
    /// Number of plan fingerprints mirrored into gobs so far.
    series: AtomicU64,
    /// Number of (plan, segment) pairs mirrored into gobs so far.
    seg_series: AtomicU64,
}

impl Default for PgoTable {
    fn default() -> Self {
        PgoTable {
            plans: Mutex::new(HashMap::new()),
            segments: Mutex::new(HashMap::new()),
            tier1_rows: AtomicU64::new(DEFAULT_TIER1_ROWS),
            tier2_rows: AtomicU64::new(DEFAULT_TIER2_ROWS),
            series: AtomicU64::new(0),
            seg_series: AtomicU64::new(0),
        }
    }
}

impl PgoTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the promotion thresholds (tests and benches).
    pub fn set_thresholds(&self, tier1_rows: u64, tier2_rows: u64) {
        self.tier1_rows.store(tier1_rows, Ordering::Relaxed);
        self.tier2_rows.store(tier2_rows.max(tier1_rows), Ordering::Relaxed);
    }

    /// The counters for `plan_fp`, creating them on first sight (coldest
    /// = fewest residual rows, the quantity the tier is earned with).
    pub fn counters(&self, plan_fp: u64) -> Arc<PlanCounters> {
        let mut plans = self.plans.lock().unwrap();
        profile(&mut plans, plan_fp, |c| c.rows.load(Ordering::Relaxed))
    }

    /// Record one run: `rows` residual rows evaluated in `elapsed`. The
    /// first record of a fingerprint registers its gobs series
    /// (cardinality-capped at [`MAX_PLAN_SERIES`] fingerprints).
    pub fn record(&self, plan_fp: u64, rows: u64, elapsed: std::time::Duration) {
        let c = self.counters(plan_fp);
        let prior = c.rows.fetch_add(rows, Ordering::Relaxed);
        c.micros
            .fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
        c.runs.fetch_add(1, Ordering::Relaxed);
        if rows > 0
            && prior == 0
            && self.series.fetch_add(1, Ordering::Relaxed) < MAX_PLAN_SERIES as u64
        {
            crate::obs::plan_rows_series(plan_fp, c);
        }
    }

    /// The tier `plan_fp` has earned (a fingerprint never recorded has
    /// earned none, and asking does not create its profile).
    pub fn tier(&self, plan_fp: u64) -> ExprTier {
        let rows = self
            .plans
            .lock()
            .unwrap()
            .get(&plan_fp)
            .map_or(0, |c| c.rows.load(Ordering::Relaxed));
        if rows >= self.tier2_rows.load(Ordering::Relaxed) {
            ExprTier::Inlined
        } else if rows >= self.tier1_rows.load(Ordering::Relaxed) {
            ExprTier::Generic
        } else {
            ExprTier::Interpret
        }
    }

    /// The segment counters for `(plan_fp, segment)`, creating them on
    /// first sight (coldest = fewest rows seen entering).
    pub fn segment_counters(&self, plan_fp: u64, segment: u32) -> Arc<SegmentCounters> {
        let mut segs = self.segments.lock().unwrap();
        profile(&mut segs, (plan_fp, segment), |c| c.rows_in.load(Ordering::Relaxed))
    }

    /// Record one run of pipeline segment `segment` of plan `plan_fp`:
    /// `rows_in` binding rows entered, `rows_out` survived. First sight of
    /// a pair registers its gobs series
    /// `pmemgraph_jit_segment_rows_total{plan=,segment=}` (cardinality
    /// capped at [`MAX_PLAN_SERIES`] pairs).
    pub fn record_segment(&self, plan_fp: u64, segment: u32, rows_in: u64, rows_out: u64) {
        let c = self.segment_counters(plan_fp, segment);
        let prior = c.rows_in.fetch_add(rows_in, Ordering::Relaxed);
        c.rows_out.fetch_add(rows_out, Ordering::Relaxed);
        c.runs.fetch_add(1, Ordering::Relaxed);
        if rows_in > 0
            && prior == 0
            && self.seg_series.fetch_add(1, Ordering::Relaxed) < MAX_PLAN_SERIES as u64
        {
            crate::obs::segment_rows_series(plan_fp, segment, c);
        }
    }

    /// Observed selectivity of `(plan_fp, segment)`, if any rows have been
    /// recorded. This is what the gmatch planner asks for on replan.
    pub fn segment_selectivity(&self, plan_fp: u64, segment: u32) -> Option<f64> {
        let segs = self.segments.lock().unwrap();
        segs.get(&(plan_fp, segment))?.selectivity()
    }

    /// Snapshot `(plan fp, segment, rows_in, rows_out)` sorted by plan
    /// then segment — the STATS `pgo_segments` section.
    pub fn segment_snapshot(&self) -> Vec<(u64, u32, u64, u64)> {
        let segs = self.segments.lock().unwrap();
        let mut v: Vec<_> = segs
            .iter()
            .map(|(&(fp, s), c)| {
                (
                    fp,
                    s,
                    c.rows_in.load(Ordering::Relaxed),
                    c.rows_out.load(Ordering::Relaxed),
                )
            })
            .collect();
        v.sort();
        v
    }

    /// Snapshot `(fingerprint, rows, runs, rows/s)` per plan, sorted by
    /// rows descending — the STATS `pgo` section.
    pub fn snapshot(&self) -> Vec<(u64, u64, u64, u64)> {
        let plans = self.plans.lock().unwrap();
        let mut v: Vec<_> = plans
            .iter()
            .map(|(&fp, c)| {
                (
                    fp,
                    c.rows.load(Ordering::Relaxed),
                    c.runs.load(Ordering::Relaxed),
                    c.throughput(),
                )
            })
            .collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.1));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ladder_promotes_on_row_volume() {
        let t = PgoTable::new();
        t.set_thresholds(100, 1000);
        assert_eq!(t.tier(7), ExprTier::Interpret);
        t.record(7, 99, Duration::from_micros(10));
        assert_eq!(t.tier(7), ExprTier::Interpret);
        t.record(7, 1, Duration::from_micros(10));
        assert_eq!(t.tier(7), ExprTier::Generic);
        t.record(7, 900, Duration::from_micros(10));
        assert_eq!(t.tier(7), ExprTier::Inlined);
        // Other plans are unaffected.
        assert_eq!(t.tier(8), ExprTier::Interpret);
        let snap = t.snapshot();
        assert_eq!(snap[0].0, 7);
        assert_eq!(snap[0].1, 1000);
        assert_eq!(snap[0].2, 3);
    }

    #[test]
    fn segment_counters_expose_selectivity() {
        let t = PgoTable::new();
        assert_eq!(t.segment_selectivity(9, 0), None, "no evidence yet");
        t.record_segment(9, 0, 100, 25);
        t.record_segment(9, 0, 100, 35);
        let sel = t.segment_selectivity(9, 0).unwrap();
        assert!((sel - 0.3).abs() < 1e-9, "60/200 survived: {sel}");
        // Other segments and plans are independent.
        assert_eq!(t.segment_selectivity(9, 1), None);
        assert_eq!(t.segment_selectivity(8, 0), None);
        let snap = t.segment_snapshot();
        assert_eq!(snap, vec![(9, 0, 200, 60)]);
    }

    #[test]
    fn thresholds_keep_order() {
        let t = PgoTable::new();
        t.set_thresholds(500, 100); // tier2 clamped up to tier1
        let c = t.counters(1);
        c.rows.store(400, Ordering::Relaxed);
        assert_eq!(t.tier(1), ExprTier::Interpret);
    }
}
