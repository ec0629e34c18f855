//! Per-chunk DRAM write-tracking for the single-version scan fast path.
//!
//! The paper's premise (C1) is that PMem reads dominate scan cost, yet the
//! MVTO read path pays a version-chain probe and an `rts` CAS per record
//! even on tables that have never been updated. This module tracks, per
//! 64-record chunk, how many *in-flight* write intents currently touch the
//! chunk (`dirty`) plus the newest snapshot that scanned the chunk through
//! the fast path (`read_ts`). A chunk with `dirty == 0` is *clean*: every
//! record either is the latest committed version or carries enough
//! persistent state (`txn_id`/`bts`/`ets`) for a per-record fallback, so a
//! scan may consume record bytes directly.
//!
//! Soundness hinges on two rules (see DESIGN.md):
//!
//! * A fast scan publishes its snapshot id into `read_ts` **between** two
//!   `dirty == 0` checks (all `SeqCst`). A writer increments `dirty`
//!   *before* validating `read_ts`. In the sequentially-consistent total
//!   order either the reader's re-check observes the increment (the scan
//!   falls back to the full MVTO read) or the writer's validation observes
//!   the published `read_ts` (the writer aborts with `WriteConflict`,
//!   exactly as if the skipped per-record `rts` bumps had happened).
//! * `dirty` is balanced: +1 per acquired write lock and per insert,
//!   -1 at commit/abort once the record again satisfies the single-version
//!   invariant from every snapshot's perspective *or* carries a lock/`bts`
//!   that the per-record fast check rejects.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use gstore::AppendVec;

use crate::chain::TableTag;

/// Tracking cell for one table chunk.
#[derive(Default)]
pub(crate) struct ChunkMeta {
    /// In-flight write intents (acquired locks + uncommitted inserts).
    pub dirty: AtomicU64,
    /// Newest snapshot id that fast-scanned this chunk (monotone, the
    /// chunk-grain analogue of a record's `rts`).
    pub read_ts: AtomicU64,
}

/// DRAM-only chunk state for the node and relationship tables. Owned by
/// the [`TxnManager`](crate::TxnManager); rebuilt empty on open (after a
/// crash or restart no transaction is in flight, so every chunk is clean).
///
/// Each table's cells grow on demand; a chunk with no cell has never seen
/// a write intent since startup and counts as clean. Looking a cell up
/// takes no lock ([`AppendVec`]), so scans claiming chunks and writers
/// marking them never serialise on the directory.
#[derive(Default)]
pub struct ChunkState {
    enabled: AtomicBool,
    nodes: AppendVec<ChunkMeta>,
    rels: AppendVec<ChunkMeta>,
}

impl ChunkState {
    fn table(&self, tag: TableTag) -> &AppendVec<ChunkMeta> {
        match tag {
            TableTag::Node => &self.nodes,
            TableTag::Rel => &self.rels,
        }
    }

    /// Enable or disable the fast-scan protocol. Write tracking itself is
    /// always on (it is a handful of atomics per write); the flag only
    /// gates [`try_fast_chunk`](Self::try_fast_chunk), so toggling at
    /// runtime is safe.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// True if fast scans are enabled.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Try to claim the single-version fast path for scanning `chunk` at
    /// snapshot `reader_ts`: checks clean, publishes the snapshot id, and
    /// re-checks clean (see the module docs for the ordering argument).
    /// Returns false if the chunk has an in-flight writer or fast scans
    /// are disabled; the caller must then use the full MVTO read path.
    pub fn try_fast_chunk(&self, tag: TableTag, chunk: usize, reader_ts: u64) -> bool {
        if !self.enabled() {
            return false;
        }
        let meta = self.table(tag).get_or_extend(chunk, ChunkMeta::default);
        if meta.dirty.load(Ordering::SeqCst) != 0 {
            return false;
        }
        meta.read_ts.fetch_max(reader_ts, Ordering::SeqCst);
        meta.dirty.load(Ordering::SeqCst) == 0
    }

    /// Newest fast-scan snapshot over `chunk` (0 if never fast-scanned).
    pub fn chunk_read_ts(&self, tag: TableTag, chunk: usize) -> u64 {
        self.table(tag)
            .get(chunk)
            .map(|m| m.read_ts.load(Ordering::SeqCst))
            .unwrap_or(0)
    }

    /// Register a write intent on `chunk`. Returns the cell so the caller
    /// can validate `read_ts` after the increment.
    pub(crate) fn add_dirty(&self, tag: TableTag, chunk: usize) -> &ChunkMeta {
        let meta = self.table(tag).get_or_extend(chunk, ChunkMeta::default);
        meta.dirty.fetch_add(1, Ordering::SeqCst);
        meta
    }

    /// Retire one write intent on `chunk`.
    pub(crate) fn sub_dirty(&self, tag: TableTag, chunk: usize) {
        if let Some(meta) = self.table(tag).get(chunk) {
            // `fetch_update` with `checked_sub` guards against an unpaired
            // decrement ever wrapping the counter to u64::MAX (which would
            // disable the fast path for the chunk forever).
            let _ = meta
                .dirty
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1));
        }
    }

    /// Current dirty count (diagnostics/tests).
    pub fn dirty_count(&self, tag: TableTag, chunk: usize) -> u64 {
        self.table(tag)
            .get(chunk)
            .map(|m| m.dirty.load(Ordering::SeqCst))
            .unwrap_or(0)
    }
}
