//! The topology journal: *what* the last commits changed.
//!
//! [`TxnManager::mutation_epoch`](crate::TxnManager::mutation_epoch) says
//! *that* something committed; this bounded DRAM ring says *what* — the
//! node and relationship inserts and deletes of each committed write
//! transaction, keyed by its timestamp. A materialised copy of the graph
//! at timestamp `R0` (the analytics CSR) becomes a copy at `R1` by
//! applying the entries with `R0 < ts < R1` in timestamp order instead of
//! re-reading the tables.
//!
//! Ordering rule: a commit appends its entry **before** it retires its
//! chunk write intents. A reader that finds every chunk clean after its
//! `begin` therefore finds the entry of every older transaction that will
//! ever commit against those chunks' records already in the ring.
//!
//! The ring is unarmed (and free for writers) until the first consumer
//! arms it; everything older than the arming point counts as dropped.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

/// Entries the ring retains.
const RING_ENTRIES: usize = 4096;
/// Changes the ring retains across all entries; also the most one
/// transaction may note before its entry counts as dropped.
const RING_CHANGES: usize = 1 << 16;

/// One committed change to the graph's shape. Ids are record ids, labels
/// dictionary codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoChange {
    NodeAdded { id: u64, label: u32 },
    NodeRemoved { id: u64 },
    EdgeAdded { src: u64, dst: u64, label: u32 },
    EdgeRemoved { src: u64, dst: u64, label: u32 },
}

/// Why the journal cannot carry a copy from `after_ts` forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalMiss {
    /// An entry newer than `after_ts` is gone: pushed out of the ring,
    /// over-sized, or committed before the journal was armed.
    Overflow,
    /// A transaction older than `after_ts` committed after the copy took
    /// its cut (`from_seq`); whether the copy saw it is unknowable.
    LateWriter,
}

#[derive(Default)]
struct Ring {
    /// `(timestamp, changes)` in arrival order.
    entries: VecDeque<(u64, Vec<TopoChange>)>,
    /// Arrival number of `entries[0]`.
    first_seq: u64,
    /// Sum of `changes.len()` over `entries`.
    changes: usize,
    /// Largest timestamp no longer (or never) held.
    dropped_max_ts: u64,
}

/// The bounded ring of committed topology changes. One per
/// [`TxnManager`](crate::TxnManager).
#[derive(Default)]
pub struct TopoJournal {
    armed: AtomicBool,
    ring: Mutex<Ring>,
}

impl TopoJournal {
    /// True once a consumer exists; until then writers note nothing.
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// Arm the journal (idempotent) and return the arrival number the next
    /// entry will get. `now_ts` — read *after* the flag is up (`SeqCst`,
    /// so a transaction that still saw it down began below that value) —
    /// is the next timestamp: whatever committed unjournaled, or began
    /// noting half-way, lies below it and counts as dropped.
    pub(crate) fn arm(&self, now_ts: impl FnOnce() -> u64) -> u64 {
        let mut ring = self.ring.lock();
        if !self.armed() {
            self.armed.store(true, Ordering::SeqCst);
            ring.dropped_max_ts = now_ts();
        }
        ring.first_seq + ring.entries.len() as u64
    }

    /// Append a committed transaction's changes (no-op while unarmed).
    pub(crate) fn append(&self, ts: u64, changes: Vec<TopoChange>) {
        if !self.armed() {
            return;
        }
        let mut ring = self.ring.lock();
        ring.changes += changes.len();
        ring.entries.push_back((ts, changes));
        while ring.entries.len() > RING_ENTRIES || ring.changes > RING_CHANGES {
            let (ts, dropped) = ring.entries.pop_front().expect("over a bound, so not empty");
            ring.first_seq += 1;
            ring.changes -= dropped.len();
            ring.dropped_max_ts = ring.dropped_max_ts.max(ts);
        }
    }

    /// True if a transaction with `noted` changes may note one more (a bulk
    /// transaction pins bounded memory; its entry is dropped on arrival).
    pub(crate) fn accepts(&self, noted: usize) -> bool {
        self.armed() && noted <= RING_CHANGES
    }

    /// Test hook: hold the ring. A committer parks in `append` until the
    /// guard drops, which makes "journaled before retired" observable.
    #[cfg(test)]
    pub(crate) fn hold(&self) -> impl Sized + '_ {
        self.ring.lock()
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().entries.len()
    }

    /// True if no entry is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The changes that carry a copy consistent at `after_ts`, whose cut
    /// of the journal was arrival number `from_seq`, forward to
    /// `before_ts`: every entry with `after_ts < ts < before_ts`, in
    /// **timestamp** order (the MVTO serialisation order — arrival order
    /// differs whenever an older transaction commits after a newer one).
    /// Also returns the arrival number of the next entry, the new cut.
    pub fn delta(
        &self,
        after_ts: u64,
        from_seq: u64,
        before_ts: u64,
    ) -> Result<(Vec<TopoChange>, u64), JournalMiss> {
        let ring = self.ring.lock();
        if !self.armed() || ring.dropped_max_ts > after_ts || ring.first_seq > from_seq {
            return Err(JournalMiss::Overflow);
        }
        let mut take: Vec<&(u64, Vec<TopoChange>)> = Vec::new();
        for (i, e) in ring.entries.iter().enumerate() {
            if e.0 > after_ts {
                if e.0 < before_ts {
                    take.push(e);
                }
            } else if ring.first_seq + i as u64 >= from_seq {
                return Err(JournalMiss::LateWriter);
            }
        }
        take.sort_unstable_by_key(|e| e.0);
        let changes = take.iter().flat_map(|e| e.1.iter().copied()).collect();
        Ok((changes, ring.first_seq + ring.entries.len() as u64))
    }
}
