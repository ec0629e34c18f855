//! Access statistics mirroring the paper's cost model.
//!
//! The paper's design goals repeatedly reference *flushed cache lines* (not
//! raw write counts) as the decisive cost metric (DG1) and 256-byte internal
//! blocks (C3/DG3). These counters let tests and the ablation benches verify
//! design decisions quantitatively, e.g. that keeping dirty versions in DRAM
//! reduces flushed lines per update transaction.
//!
//! # Atomic ordering discipline
//!
//! Every counter here is a pure statistic: nothing reads one to make a
//! control-flow decision, and no counter guards other memory. So all
//! accesses use `Ordering::Relaxed` — each `fetch_add` is atomic and no
//! increment is ever lost, but counters synchronise nothing and updates
//! to *different* counters may be observed in any order. A [`snapshot`]
//! taken while writers run is therefore *racy but monotone*: each field
//! is exact at some instant during the read and never decreases, but
//! cross-counter invariants (e.g. `fences <= lines_flushed`) can be
//! transiently off by in-flight transactions. Tests and benches that
//! assert exact deltas must quiesce writers first (they do: they join
//! worker threads before snapshotting). The same discipline applies to
//! every metric exported through `gobs` — see `gobs::registry`.
//!
//! [`snapshot`]: PoolStats::snapshot

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic counters for one pool. Cheap enough to leave always on.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Bytes read through modelled read paths.
    pub read_bytes: AtomicU64,
    /// Number of modelled read touches (one per record/region fetch).
    pub read_touches: AtomicU64,
    /// Bytes written through the pool API.
    pub write_bytes: AtomicU64,
    /// Cache lines flushed via `clwb` emulation.
    pub lines_flushed: AtomicU64,
    /// Store fences (`sfence` emulation).
    pub fences: AtomicU64,
    /// Distinct 256-byte device blocks touched by reads (C3 accounting).
    pub blocks_read: AtomicU64,
    /// Distinct 256-byte device blocks touched by flushes.
    pub blocks_flushed: AtomicU64,
    /// Persistent allocations served.
    pub allocs: AtomicU64,
    /// Blocks returned to a free list.
    pub frees: AtomicU64,
    /// Undo-log transactions committed.
    pub tx_commits: AtomicU64,
    /// Bytes snapshotted into the undo log.
    pub tx_snapshot_bytes: AtomicU64,
    /// Batched commit groups executed (one flush pass + log truncation per
    /// group; a group of one is an ungrouped commit).
    pub commit_groups: AtomicU64,
    /// Transactions that committed as part of a multi-transaction group.
    pub grouped_txns: AtomicU64,
    /// Arena slab refills from the global allocator.
    pub arena_refills: AtomicU64,
    /// Transactions that took the deferred commit point
    /// (`tx_apply_deferred`): undo entries fenced, data flush left to the
    /// next checkpoint.
    pub deferred_txns: AtomicU64,
    /// Checkpoint drains: deferred data flushed + undo log truncated.
    pub checkpoints: AtomicU64,
}

impl PoolStats {
    /// Zero all counters.
    pub fn reset(&self) {
        for c in [
            &self.read_bytes,
            &self.read_touches,
            &self.write_bytes,
            &self.lines_flushed,
            &self.fences,
            &self.blocks_read,
            &self.blocks_flushed,
            &self.allocs,
            &self.frees,
            &self.tx_commits,
            &self.tx_snapshot_bytes,
            &self.commit_groups,
            &self.grouped_txns,
            &self.arena_refills,
            &self.deferred_txns,
            &self.checkpoints,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshot all counters into a plain struct for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            read_touches: self.read_touches.load(Ordering::Relaxed),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
            lines_flushed: self.lines_flushed.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            blocks_read: self.blocks_read.load(Ordering::Relaxed),
            blocks_flushed: self.blocks_flushed.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            tx_commits: self.tx_commits.load(Ordering::Relaxed),
            tx_snapshot_bytes: self.tx_snapshot_bytes.load(Ordering::Relaxed),
            commit_groups: self.commit_groups.load(Ordering::Relaxed),
            grouped_txns: self.grouped_txns.load(Ordering::Relaxed),
            arena_refills: self.arena_refills.load(Ordering::Relaxed),
            deferred_txns: self.deferred_txns.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
        }
    }
}

/// Plain copy of [`PoolStats`] at one point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub read_bytes: u64,
    pub read_touches: u64,
    pub write_bytes: u64,
    pub lines_flushed: u64,
    pub fences: u64,
    pub blocks_read: u64,
    pub blocks_flushed: u64,
    pub allocs: u64,
    pub frees: u64,
    pub tx_commits: u64,
    pub tx_snapshot_bytes: u64,
    pub commit_groups: u64,
    pub grouped_txns: u64,
    pub arena_refills: u64,
    pub deferred_txns: u64,
    pub checkpoints: u64,
}

impl std::ops::Sub for StatsSnapshot {
    type Output = StatsSnapshot;

    fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            read_bytes: self.read_bytes - rhs.read_bytes,
            read_touches: self.read_touches - rhs.read_touches,
            write_bytes: self.write_bytes - rhs.write_bytes,
            lines_flushed: self.lines_flushed - rhs.lines_flushed,
            fences: self.fences - rhs.fences,
            blocks_read: self.blocks_read - rhs.blocks_read,
            blocks_flushed: self.blocks_flushed - rhs.blocks_flushed,
            allocs: self.allocs - rhs.allocs,
            frees: self.frees - rhs.frees,
            tx_commits: self.tx_commits - rhs.tx_commits,
            tx_snapshot_bytes: self.tx_snapshot_bytes - rhs.tx_snapshot_bytes,
            commit_groups: self.commit_groups - rhs.commit_groups,
            grouped_txns: self.grouped_txns - rhs.grouped_txns,
            arena_refills: self.arena_refills - rhs.arena_refills,
            deferred_txns: self.deferred_txns - rhs.deferred_txns,
            checkpoints: self.checkpoints - rhs.checkpoints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_zeroes_everything() {
        let s = PoolStats::default();
        s.lines_flushed.store(7, Ordering::Relaxed);
        s.allocs.store(3, Ordering::Relaxed);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn snapshot_delta() {
        let s = PoolStats::default();
        s.fences.store(2, Ordering::Relaxed);
        let a = s.snapshot();
        s.fences.store(5, Ordering::Relaxed);
        let b = s.snapshot();
        assert_eq!((b - a).fences, 3);
    }
}
