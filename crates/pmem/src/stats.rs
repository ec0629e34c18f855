//! Access statistics mirroring the paper's cost model.
//!
//! The paper's design goals repeatedly reference *flushed cache lines* (not
//! raw write counts) as the decisive cost metric (DG1) and 256-byte internal
//! blocks (C3/DG3). These counters let tests and the ablation benches verify
//! design decisions quantitatively, e.g. that keeping dirty versions in DRAM
//! reduces flushed lines per update transaction.
//!
//! # Striping
//!
//! A record read counts three things and a commit a dozen; with one set of
//! counters per pool every reader and writer thread did its atomic adds on
//! the same cache line, which made two scan workers slower than one
//! (DESIGN.md §17). So a pool keeps `STRIPES` copies of the counter
//! block, each on cache lines of its own; a thread counts in the stripe
//! its round-robin ordinal selects ([`PoolStats::local`]) and
//! [`PoolStats::snapshot`] sums the stripes. Threads that share a stripe
//! (more threads than stripes) still count exactly — the adds are atomic —
//! they only share a line again.
//!
//! # Atomic ordering discipline
//!
//! Every counter here is a pure statistic: nothing reads one to make a
//! control-flow decision, and no counter guards other memory. So all
//! accesses use `Ordering::Relaxed` — each `fetch_add` is atomic and no
//! increment is ever lost, but counters synchronise nothing and updates
//! to *different* counters (or stripes) may be observed in any order. A
//! [`snapshot`] taken while writers run is therefore *racy but monotone*:
//! each field lies between its value when the read began and its value
//! when it ended, and never decreases, but cross-counter invariants (e.g.
//! `fences <= lines_flushed`) can be transiently off by in-flight
//! transactions. Tests and benches that
//! assert exact deltas must quiesce writers first (they do: they join
//! worker threads before snapshotting). The same discipline applies to
//! every metric exported through `gobs` — see `gobs::registry`.
//!
//! [`snapshot`]: PoolStats::snapshot

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counter stripes per pool. A power of two comfortably above the number
/// of threads that are hot at once (lanes, net workers, morsel workers).
const STRIPES: usize = 16;

/// This thread's ordinal: handed out round-robin at first use, fixed for
/// the thread's lifetime. Callers reduce it modulo their shard count.
pub(crate) fn thread_ordinal() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ORDINAL: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

/// Declares the counter list once: the atomic [`Stripe`], the plain
/// [`StatsSnapshot`], and summing / zeroing / subtracting over all of it.
macro_rules! pool_counters {
    ($($(#[$doc:meta])* $name:ident,)+) => {
        /// One stripe of a pool's counters: written (almost always) by one
        /// thread, summed by [`PoolStats::snapshot`]. Aligned to a pair of
        /// cache lines so that neither a neighbouring stripe nor the
        /// adjacent-line prefetcher shares a line with it.
        #[derive(Debug, Default)]
        #[repr(align(128))]
        pub(crate) struct Stripe {
            $($(#[$doc])* pub(crate) $name: AtomicU64,)+
        }

        impl Stripe {
            fn add_to(&self, sum: &mut StatsSnapshot) {
                $(sum.$name += self.$name.load(Ordering::Relaxed);)+
            }

            fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)+
            }
        }

        /// Plain copy of [`PoolStats`] at one point in time: every counter
        /// summed over the stripes.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl std::ops::Sub for StatsSnapshot {
            type Output = StatsSnapshot;

            fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name - rhs.$name,)+
                }
            }
        }
    };
}

pool_counters! {
    /// Bytes read through modelled read paths.
    read_bytes,
    /// Number of modelled read touches (one per record/region fetch).
    read_touches,
    /// Bytes written through the pool API.
    write_bytes,
    /// Cache lines flushed via `clwb` emulation.
    lines_flushed,
    /// Store fences (`sfence` emulation).
    fences,
    /// Distinct 256-byte device blocks touched by reads (C3 accounting).
    blocks_read,
    /// Distinct 256-byte device blocks touched by flushes.
    blocks_flushed,
    /// Persistent allocations served.
    allocs,
    /// Blocks returned to a free list.
    frees,
    /// Undo-log transactions committed.
    tx_commits,
    /// Bytes snapshotted into the undo log.
    tx_snapshot_bytes,
    /// Batched commit groups executed (one flush pass + log truncation per
    /// group; a group of one is an ungrouped commit).
    commit_groups,
    /// Transactions that committed as part of a multi-transaction group.
    grouped_txns,
    /// Arena slab refills from the global allocator.
    arena_refills,
    /// Transactions that took the deferred commit point
    /// (`tx_apply_deferred`): undo entries fenced, data flush left to the
    /// next checkpoint.
    deferred_txns,
    /// Checkpoint drains: deferred data flushed + undo log truncated.
    checkpoints,
}

/// Striped atomic counters for one pool. Cheap enough to leave always on:
/// an increment is an uncontended atomic add on the calling thread's own
/// stripe.
#[derive(Debug, Default)]
pub struct PoolStats {
    stripes: [Stripe; STRIPES],
}

impl PoolStats {
    /// The calling thread's stripe — where it counts.
    #[inline]
    pub(crate) fn local(&self) -> &Stripe {
        &self.stripes[thread_ordinal() % STRIPES]
    }

    /// Zero all counters.
    pub fn reset(&self) {
        self.stripes.iter().for_each(Stripe::reset);
    }

    /// Sum all counters into a plain struct for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut sum = StatsSnapshot::default();
        for stripe in &self.stripes {
            stripe.add_to(&mut sum);
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_zeroes_everything() {
        let s = PoolStats::default();
        s.local().lines_flushed.store(7, Ordering::Relaxed);
        s.stripes[STRIPES - 1].allocs.store(3, Ordering::Relaxed);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn snapshot_delta() {
        let s = PoolStats::default();
        s.local().fences.store(2, Ordering::Relaxed);
        let a = s.snapshot();
        s.local().fences.store(5, Ordering::Relaxed);
        let b = s.snapshot();
        assert_eq!((b - a).fences, 3);
    }
}
