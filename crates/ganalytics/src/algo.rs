//! Graph kernels over a [`CsrSnapshot`], scheduled as morsel jobs.
//!
//! Each kernel splits its per-iteration work into fixed-size morsels and
//! runs them through [`gquery::parallel_for`] — the same worker-pulls-
//! morsel loop the query scheduler uses, honouring the
//! [`ExecCtx`] deadline/cancellation between morsels. Inner loops are
//! flat passes over the CSR arrays (offset/target slices, dense `f64`/
//! `u32` vectors), the shape auto-vectorisers and prefetchers like.
//!
//! **Determinism.** Results are independent of worker count and morsel
//! interleaving:
//!
//! * BFS is level-synchronous; a node's depth is fixed by its level.
//! * PageRank is pull-based: node `v` gathers `rank[u]/outdeg[u]` over its
//!   sorted in-neighbour slice sequentially, so every float sum runs in a
//!   fixed order — output is bit-identical to a sequential pull over the
//!   same adjacency (the brute-force reference in `tests/kernels.rs`).
//! * WCC is min-label propagation to a fixed point; the fixed point (the
//!   minimum dense index of each component) is unique.
//! * Triangle counting sums integers.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use gquery::{parallel_for, ExecCtx, QueryError};
use graphcore::NodeId;
use parking_lot::Mutex;

use crate::obs;
use crate::snapshot::CsrSnapshot;

/// Nodes (or frontier entries) per morsel. Small enough to load-balance,
/// large enough that the scheduler counter is noise.
const MORSEL: usize = 2048;

/// Depth marker for unreached nodes.
pub const UNREACHED: u32 = u32::MAX;

/// Disjoint-write view over a mutable slice: morsel workers write
/// non-overlapping indexes without locking.
struct UnsafeSlice<'a, T> {
    ptr: *mut T,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}
unsafe impl<T: Send> Send for UnsafeSlice<'_, T> {}
unsafe impl<T: Send> Sync for UnsafeSlice<'_, T> {}
impl<'a, T> UnsafeSlice<'a, T> {
    fn new(s: &'a mut [T]) -> UnsafeSlice<'a, T> {
        UnsafeSlice {
            ptr: s.as_mut_ptr(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Safety: concurrent callers must write distinct indexes `i`.
    unsafe fn write(&self, i: usize, v: T) {
        *self.ptr.add(i) = v;
    }
}

#[inline]
fn morsel_bounds(m: usize, total: usize) -> (usize, usize) {
    let lo = m * MORSEL;
    (lo, (lo + MORSEL).min(total))
}

/// Level-synchronous frontier BFS from `source` along outgoing edges.
/// Returns the depth per dense index ([`UNREACHED`] where unreachable),
/// aligned with [`CsrSnapshot::nodes`]; an absent source reaches nothing.
pub fn bfs(
    snap: &CsrSnapshot,
    source: NodeId,
    workers: usize,
    ctx: &ExecCtx<'_>,
) -> Result<Vec<u32>, QueryError> {
    let span = gobs::span_start();
    let n = snap.node_count();
    let mut depth = vec![UNREACHED; n];
    let Some(s) = snap.index_of(source) else {
        return Ok(depth);
    };
    // One atomic claim bit per node: whoever sets it owns the depth write.
    let visited: Vec<AtomicU64> = (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
    visited[s as usize / 64].store(1 << (s % 64), Ordering::Relaxed);
    depth[s as usize] = 0;
    let mut frontier = vec![s];
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        let morsels = frontier.len().div_ceil(MORSEL);
        let next: Mutex<Vec<u32>> = Mutex::new(Vec::new());
        let depths = UnsafeSlice::new(&mut depth);
        let frontier_ref = &frontier;
        let visited_ref = &visited;
        parallel_for(workers, morsels, ctx, |m| {
            let (lo, hi) = morsel_bounds(m, frontier_ref.len());
            let mut local: Vec<u32> = Vec::new();
            for &u in &frontier_ref[lo..hi] {
                for &v in snap.out(u) {
                    let bit = 1u64 << (v % 64);
                    let prev =
                        visited_ref[v as usize / 64].fetch_or(bit, Ordering::Relaxed);
                    if prev & bit == 0 {
                        // Claim won: this worker alone writes depth[v].
                        unsafe { depths.write(v as usize, d) };
                        local.push(v);
                    }
                }
            }
            if !local.is_empty() {
                next.lock().append(&mut local);
            }
            Ok(())
        })?;
        frontier = next.into_inner();
    }
    obs::algo_span("bfs", span);
    Ok(depth)
}

/// Pull-based PageRank, `iters` synchronous iterations, **no dangling
/// redistribution**: `rank'[v] = (1-d)/n + d·Σ_{u→v} rank[u]/outdeg[u]`.
/// Returns scores aligned with [`CsrSnapshot::nodes`]; the fixed gather
/// order makes the float result exactly reproducible.
pub fn pagerank(
    snap: &CsrSnapshot,
    iters: usize,
    damping: f64,
    workers: usize,
    ctx: &ExecCtx<'_>,
) -> Result<Vec<f64>, QueryError> {
    let span = gobs::span_start();
    let n = snap.node_count();
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let base = (1.0 - damping) / n as f64;
    let morsels = n.div_ceil(MORSEL);
    for _ in 0..iters {
        let out = UnsafeSlice::new(&mut next);
        let rank_ref = &rank;
        parallel_for(workers, morsels, ctx, |m| {
            let (lo, hi) = morsel_bounds(m, n);
            for v in lo..hi {
                // Sequential gather over the sorted in-slice: the float
                // sum order is fixed, so the result is reproducible.
                let mut sum = 0.0f64;
                for &u in snap.inc(v as u32) {
                    sum += rank_ref[u as usize] / snap.out_deg(u) as f64;
                }
                unsafe { out.write(v, base + damping * sum) };
            }
            Ok(())
        })?;
        std::mem::swap(&mut rank, &mut next);
    }
    obs::algo_span("pagerank", span);
    Ok(rank)
}

/// Weakly connected components by min-label propagation over both edge
/// directions. Returns, per dense index, the minimum dense index of its
/// component.
pub fn wcc(
    snap: &CsrSnapshot,
    workers: usize,
    ctx: &ExecCtx<'_>,
) -> Result<Vec<u32>, QueryError> {
    let span = gobs::span_start();
    let n = snap.node_count();
    let labels: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let morsels = n.div_ceil(MORSEL);
    loop {
        let changed = AtomicBool::new(false);
        let labels_ref = &labels;
        let changed_ref = &changed;
        parallel_for(workers, morsels, ctx, |m| {
            let (lo, hi) = morsel_bounds(m, n);
            for u in lo..hi {
                let mut min = labels_ref[u].load(Ordering::Relaxed);
                for &v in snap.out(u as u32) {
                    min = min.min(labels_ref[v as usize].load(Ordering::Relaxed));
                }
                for &v in snap.inc(u as u32) {
                    min = min.min(labels_ref[v as usize].load(Ordering::Relaxed));
                }
                if min < labels_ref[u].load(Ordering::Relaxed) {
                    labels_ref[u].fetch_min(min, Ordering::Relaxed);
                    changed_ref.store(true, Ordering::Relaxed);
                }
            }
            Ok(())
        })?;
        if !changed.into_inner() {
            break;
        }
    }
    obs::algo_span("wcc", span);
    Ok(labels.into_iter().map(AtomicU32::into_inner).collect())
}

/// Triangle count treating edges as undirected; each triangle is counted
/// once, self-loops and parallel edges are ignored.
pub fn triangles(
    snap: &CsrSnapshot,
    workers: usize,
    ctx: &ExecCtx<'_>,
) -> Result<u64, QueryError> {
    let n = snap.node_count();
    let morsels = n.div_ceil(MORSEL);
    // Forward adjacency: per node, its distinct neighbours (either
    // direction) of higher dense index, ascending. A triangle u < v < w
    // is then found exactly once: w in fwd[u] ∩ fwd[v], for v in fwd[u].
    let mut fwd: Vec<Vec<u32>> = vec![Vec::new(); n];
    let lists = UnsafeSlice::new(&mut fwd);
    parallel_for(workers, morsels, ctx, |m| {
        let (lo, hi) = morsel_bounds(m, n);
        for u in lo..hi {
            let mut higher: Vec<u32> = snap
                .out(u as u32)
                .iter()
                .chain(snap.inc(u as u32))
                .copied()
                .filter(|&v| v as usize > u)
                .collect();
            higher.sort_unstable();
            higher.dedup();
            // SAFETY: morsels partition `0..n`, so `u` is written once.
            unsafe { lists.write(u, higher) };
        }
        Ok(())
    })?;
    let count = AtomicU64::new(0);
    let fwd = &fwd;
    parallel_for(workers, morsels, ctx, |m| {
        let (lo, hi) = morsel_bounds(m, n);
        let mut found = 0u64;
        for a in &fwd[lo..hi] {
            for &v in a {
                let b = &fwd[v as usize];
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            found += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
        }
        count.fetch_add(found, Ordering::Relaxed);
        Ok(())
    })?;
    Ok(count.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotSpec;
    use graphcore::{DbOptions, GraphDb};

    /// A two-component graph: a directed chain 0→1→2→3 with a shortcut
    /// 0→2, and an isolated pair 4→5.
    fn db_and_ids() -> (GraphDb, Vec<NodeId>) {
        let db = GraphDb::create(DbOptions::dram(64 << 20)).unwrap();
        let mut tx = db.begin();
        let ids: Vec<NodeId> = (0..6).map(|_| tx.create_node("N", &[]).unwrap()).collect();
        for (s, d) in [(0, 1), (1, 2), (2, 3), (0, 2), (4, 5)] {
            tx.create_rel(ids[s], "E", ids[d], &[]).unwrap();
        }
        tx.commit().unwrap();
        (db, ids)
    }

    #[test]
    fn deadline_interrupts_kernels() {
        let (db, ids) = db_and_ids();
        let snap = CsrSnapshot::build(&db, SnapshotSpec::default()).unwrap();
        let expired = ExecCtx::new(&[])
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        assert!(matches!(
            bfs(&snap, ids[0], 2, &expired),
            Err(QueryError::DeadlineExceeded)
        ));
        assert!(matches!(
            pagerank(&snap, 5, 0.85, 2, &expired),
            Err(QueryError::DeadlineExceeded)
        ));
        assert!(matches!(
            wcc(&snap, 2, &expired),
            Err(QueryError::DeadlineExceeded)
        ));
        assert!(matches!(
            triangles(&snap, 2, &expired),
            Err(QueryError::DeadlineExceeded)
        ));
    }

    #[test]
    fn empty_snapshot_is_fine() {
        let db = GraphDb::create(DbOptions::dram(64 << 20)).unwrap();
        let snap = CsrSnapshot::build(&db, SnapshotSpec::default()).unwrap();
        let ctx = ExecCtx::new(&[]);
        assert!(bfs(&snap, 0, 2, &ctx).unwrap().is_empty());
        assert!(pagerank(&snap, 5, 0.85, 2, &ctx).unwrap().is_empty());
        assert!(wcc(&snap, 2, &ctx).unwrap().is_empty());
        assert_eq!(triangles(&snap, 2, &ctx).unwrap(), 0);
    }
}
