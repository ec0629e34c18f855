//! The MVTO transaction manager (paper §5.1).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmem::Pool;

use gstore::chunked::CHUNK_CAP;
use gstore::{ChunkedTable, NodeRecord, PropRecord, RecId, RelRecord, Versioned, TS_INF};

use pmem::TxBatch;

use crate::chain::{ChainMap, ObjKey, TableTag, VersionEntry};
use crate::chunkstate::ChunkState;
use crate::commitpipe::CommitPipeline;
use crate::error::TxnError;
use crate::journal::{TopoChange, TopoJournal};

/// Timestamps are persisted in batches of this size so restart recovery can
/// continue with guaranteed-fresh ids after reading a single u64.
const TS_BATCH: u64 = 1024;
/// A full chain sweep runs every this many commits.
const GC_SWEEP_EVERY: u64 = 256;
/// Shards of the active-transaction set: timestamp bookkeeping must not
/// funnel every begin/finish through one mutex when writers scale out.
const ACTIVE_SHARDS: usize = 16;

/// Counters describing transaction-manager activity.
#[derive(Debug, Default)]
pub struct TxnStats {
    pub begun: AtomicU64,
    pub commits: AtomicU64,
    pub aborts: AtomicU64,
    pub conflicts: AtomicU64,
    pub gc_pruned: AtomicU64,
}

/// One write-set element.
#[derive(Debug, Clone, Copy)]
struct WriteRef {
    tag: TableTag,
    id: RecId,
    delete: bool,
}

/// An open transaction. Obtained from [`TxnManager::begin`]; must be passed
/// to [`TxnManager::commit`] or [`TxnManager::abort`] exactly once (dropping
/// a `Txn` without either leaks its locks — the engine facade enforces the
/// discipline with an RAII wrapper).
pub struct Txn {
    /// Transaction identifier = begin timestamp (§5.1).
    pub id: u64,
    writes: Vec<WriteRef>,
    inserts: Vec<(TableTag, RecId)>,
    /// Property records inserted by this transaction (freed on abort).
    prop_inserts: Vec<RecId>,
    /// Property chains superseded by this transaction's updates; become
    /// garbage at commit (freed once no snapshot can reach them).
    prop_obsolete: Vec<RecId>,
    /// Node / relationship inserts and deletes, in program order, for the
    /// topology journal (empty while the journal is unarmed).
    topology: Vec<TopoChange>,
    finished: bool,
}

impl Txn {
    /// True if the transaction performed no writes.
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty() && self.inserts.is_empty() && self.prop_inserts.is_empty()
    }

    /// Record a property batch inserted on behalf of this transaction.
    pub fn track_prop_insert(&mut self, id: RecId) {
        self.prop_inserts.push(id);
    }

    /// Record a property batch that this transaction's update supersedes.
    pub fn track_prop_obsolete(&mut self, id: RecId) {
        self.prop_obsolete.push(id);
    }
}

/// A write transaction carried past batch construction: produced by
/// [`TxnManager::prepare_commit`], consumed by
/// [`TxnManager::finish_commit`] once the batch has been made durable.
/// The staged versions are already in the batch and the write locks are
/// still held, so the bytes may be persisted by any mechanism — the
/// shard-local [`CommitPipeline`] or a cross-shard `pmem::commit_epoch`.
pub struct PendingCommit {
    txn: Txn,
    batch: TxBatch,
}

impl PendingCommit {
    /// The persist batch staged for this transaction. Borrow it to hand
    /// to [`pmem::Pool::tx_prepare_batches`] / `pmem::commit_epoch`.
    pub fn batch(&self) -> &TxBatch {
        &self.batch
    }

    /// Transaction id (= begin timestamp) of the pending transaction.
    pub fn txn_id(&self) -> u64 {
        self.txn.id
    }
}

/// Deferred frees of superseded property chains: reclaimed once the oldest
/// active transaction is newer than the committing transaction.
struct DeferredProps {
    ets: u64,
    ids: Vec<RecId>,
}

/// The MVTO transaction manager. One per graph database instance.
pub struct TxnManager {
    pool: Arc<Pool>,
    /// Pool offset of the persisted timestamp high-water mark.
    ts_slot: u64,
    /// The first timestamp this manager handed out (`next_ts` at creation).
    first_ts: u64,
    next_ts: AtomicU64,
    ts_hwm: AtomicU64,
    /// Active-transaction ids, sharded by `id % ACTIVE_SHARDS` so begin and
    /// finish on different ids rarely contend; the GC horizon is the min of
    /// the per-shard minima.
    active: Vec<Mutex<BTreeSet<u64>>>,
    chains: ChainMap,
    deferred_props: Mutex<Vec<DeferredProps>>,
    /// Per-chunk write tracking for the single-version scan fast path.
    chunk_state: ChunkState,
    /// Group-commit pipeline every writer commit routes through.
    pipeline: CommitPipeline,
    /// Bumped on every write-transaction commit. Snapshot caches (the
    /// analytics CSR) compare epochs to decide whether a materialized
    /// snapshot still reflects the latest committed state.
    mutation_epoch: AtomicU64,
    /// What those commits changed in the graph's shape (the epoch says
    /// *that* something committed, the journal says *what*).
    journal: TopoJournal,
    stats: TxnStats,
}

/// The chunk a record id lives in (64-record chunks, [`CHUNK_CAP`]).
#[inline]
fn chunk_of(id: RecId) -> usize {
    id as usize / CHUNK_CAP
}

impl TxnManager {
    /// Create a manager with a freshly allocated timestamp slot. Persist
    /// [`ts_slot`](Self::ts_slot) alongside the table roots to reopen.
    pub fn create(pool: Arc<Pool>) -> Result<TxnManager, TxnError> {
        let ts_slot = pool.alloc_zeroed(8)?;
        pool.write_u64(ts_slot, 1 + TS_BATCH);
        pool.persist(ts_slot, 8);
        Ok(TxnManager::with_slot(pool, ts_slot, 1, 1 + TS_BATCH))
    }

    /// Reopen from a persisted timestamp slot. All new timestamps start
    /// above the persisted high-water mark, so ids never repeat across
    /// restarts (committed `bts` values stay in the past).
    pub fn open(pool: Arc<Pool>, ts_slot: u64) -> TxnManager {
        let hwm = pool.read_u64(ts_slot);
        let next = hwm;
        let new_hwm = hwm + TS_BATCH;
        pool.write_u64(ts_slot, new_hwm);
        pool.persist(ts_slot, 8);
        TxnManager::with_slot(pool, ts_slot, next, new_hwm)
    }

    fn with_slot(pool: Arc<Pool>, ts_slot: u64, next: u64, hwm: u64) -> TxnManager {
        let pipeline = CommitPipeline::new(pool.clone());
        TxnManager {
            pool,
            ts_slot,
            first_ts: next,
            next_ts: AtomicU64::new(next),
            ts_hwm: AtomicU64::new(hwm),
            active: (0..ACTIVE_SHARDS).map(|_| Mutex::new(BTreeSet::new())).collect(),
            chains: ChainMap::new(),
            deferred_props: Mutex::new(Vec::new()),
            chunk_state: ChunkState::default(),
            pipeline,
            mutation_epoch: AtomicU64::new(0),
            journal: TopoJournal::default(),
            stats: TxnStats::default(),
        }
    }

    #[inline]
    fn active_shard(&self, id: u64) -> &Mutex<BTreeSet<u64>> {
        &self.active[(id % ACTIVE_SHARDS as u64) as usize]
    }

    /// Enable or disable group commit (commits stay flush-coalesced either
    /// way). Default follows `PMEMGRAPH_GROUP_COMMIT` (on).
    pub fn set_group_commit(&self, on: bool) {
        self.pipeline.set_enabled(on);
    }

    /// True if concurrent commits are grouped.
    pub fn group_commit(&self) -> bool {
        self.pipeline.enabled()
    }

    /// The group-commit pipeline (diagnostics).
    pub fn commit_pipeline(&self) -> &CommitPipeline {
        &self.pipeline
    }

    /// The active durability rung. Default follows `PMEMGRAPH_SYNC_MODE`.
    pub fn sync_mode(&self) -> crate::SyncMode {
        self.pipeline.sync_mode()
    }

    /// Switch durability rung at runtime; tightening checkpoints first.
    pub fn set_sync_mode(&self, mode: crate::SyncMode) -> Result<(), TxnError> {
        self.pipeline.set_sync_mode(mode)
    }

    /// Explicit durability point for the deferred rungs: flush all deferred
    /// data and truncate the accumulated undo log.
    pub fn checkpoint(&self) -> Result<(), TxnError> {
        self.pipeline.checkpoint()
    }

    /// Count of write-transaction commits since this manager was created.
    /// A snapshot built at epoch E is still current iff
    /// `mutation_epoch() == E`.
    pub fn mutation_epoch(&self) -> u64 {
        self.mutation_epoch.load(Ordering::Acquire)
    }

    /// The journal of committed topology changes.
    pub fn topology_journal(&self) -> &TopoJournal {
        &self.journal
    }

    /// Arm the topology journal (idempotent; writers note nothing before)
    /// and return its current cut. A copy of the graph that wants to be
    /// carried forward by [`TopoJournal::delta`] arms **before** the
    /// `begin` it is consistent at.
    pub fn arm_topology_journal(&self) -> u64 {
        self.journal.arm(|| self.next_ts.load(Ordering::SeqCst))
    }

    /// Note a topology change made by `txn`; journaled if it commits.
    #[inline]
    pub fn note_topology(&self, txn: &mut Txn, change: TopoChange) {
        if self.journal.accepts(txn.topology.len()) {
            txn.topology.push(change);
        }
    }

    /// Per-chunk write-tracking state (scan fast path).
    pub fn chunk_state(&self) -> &ChunkState {
        &self.chunk_state
    }

    /// Enable or disable the single-version scan fast path. Tracking stays
    /// on either way; only fast-path claims are gated.
    pub fn set_fast_scans(&self, on: bool) {
        self.chunk_state.set_enabled(on);
    }

    /// True if the scan fast path is enabled.
    pub fn fast_scans(&self) -> bool {
        self.chunk_state.enabled()
    }

    /// Claim the single-version fast path for one chunk at the given
    /// snapshot (see [`ChunkState::try_fast_chunk`]).
    pub fn try_fast_chunk(&self, tag: TableTag, chunk: usize, reader_ts: u64) -> bool {
        self.chunk_state.try_fast_chunk(tag, chunk, reader_ts)
    }

    /// Pool offset of the persisted timestamp high-water mark.
    pub fn ts_slot(&self) -> u64 {
        self.ts_slot
    }

    /// Activity counters.
    pub fn stats(&self) -> &TxnStats {
        &self.stats
    }

    /// Number of live version-chain entries (diagnostics).
    pub fn version_count(&self) -> usize {
        self.chains.version_count()
    }

    /// Begin a new transaction.
    pub fn begin(&self) -> Txn {
        let span = gobs::span_start();
        let id = self.next_ts.fetch_add(1, Ordering::SeqCst);
        // Persist the high-water mark in batches.
        if id + 1 >= self.ts_hwm.load(Ordering::Relaxed) {
            let new_hwm = id + 1 + TS_BATCH;
            self.ts_hwm.store(new_hwm, Ordering::Relaxed);
            self.pool.write_u64(self.ts_slot, new_hwm);
            self.pool.persist(self.ts_slot, 8);
        }
        self.active_shard(id).lock().insert(id);
        self.stats.begun.fetch_add(1, Ordering::Relaxed);
        crate::obs::begin(span);
        Txn {
            id,
            writes: Vec::new(),
            inserts: Vec::new(),
            prop_inserts: Vec::new(),
            prop_obsolete: Vec::new(),
            topology: Vec::new(),
            finished: false,
        }
    }

    /// Number of currently active transactions.
    pub fn active_count(&self) -> usize {
        self.active.iter().map(|s| s.lock().len()).sum()
    }

    /// `Some(stamp)` when no transaction is in flight anywhere between the
    /// timestamp fetch that opens [`begin`](Self::begin) and the counter
    /// bump that closes its commit or abort — a window wider than
    /// [`active_count`](Self::active_count) sees, which misses a
    /// transaction that holds an id but is not yet (or no longer) in the
    /// active set. Two equal stamps prove that no transaction began, ran
    /// or finished in between, without `begin` taking any lock for it:
    /// the stamp is the next timestamp, and every begun transaction has
    /// been counted finished (the `Release` bumps of `commits`/`aborts`
    /// pair with the `Acquire` loads here, so its stores are visible).
    pub fn quiescent_stamp(&self) -> Option<u64> {
        let next = self.next_ts.load(Ordering::SeqCst);
        let finished = self.stats.commits.load(Ordering::Acquire)
            + self.stats.aborts.load(Ordering::Acquire);
        (next - self.first_ts == finished).then_some(next)
    }

    /// The oldest still-active transaction id, or the next id to be handed
    /// out if nothing is active. Anything with `ets` at or below this is
    /// invisible to every current and future transaction (GC horizon).
    pub fn oldest_active_ts(&self) -> u64 {
        self.oldest_active()
    }

    /// A lightweight reader handle sharing an existing transaction's
    /// snapshot (same id). Used by the morsel-driven parallel executor so
    /// every worker sees one consistent snapshot. Marked finished: it can
    /// never commit or abort — lifecycle belongs to the parent.
    pub fn reader_at(&self, id: u64) -> Txn {
        Txn {
            id,
            writes: Vec::new(),
            inserts: Vec::new(),
            prop_inserts: Vec::new(),
            prop_obsolete: Vec::new(),
            topology: Vec::new(),
            finished: true,
        }
    }

    fn oldest_active(&self) -> u64 {
        // Same begin-window race as a single mutex: a transaction between
        // its `next_ts` fetch and the shard insert may be missed, which
        // only makes the horizon conservative for *it* (its id is newer
        // than anything the horizon guards).
        self.active
            .iter()
            .filter_map(|s| s.lock().first().copied())
            .min()
            .unwrap_or_else(|| self.next_ts.load(Ordering::SeqCst))
    }

    // ------------------------------------------------------------------
    // Read path (§5.1 "Read transaction")
    // ------------------------------------------------------------------

    /// Read the version of record `id` visible to `txn`. `Ok(None)` means
    /// the object does not exist in this snapshot (never created yet,
    /// deleted, or created by a newer transaction).
    pub fn read<R: Versioned>(
        &self,
        txn: &Txn,
        tag: TableTag,
        table: &ChunkedTable<R>,
        id: RecId,
    ) -> Result<Option<R>, TxnError> {
        if !table.is_live(id) {
            return Ok(None);
        }
        self.read_enumerated(txn, tag, table, id)
    }

    /// The specialised read used by compiled scan loops (§6.2): the caller
    /// enumerated the chunk occupancy bitmap, so the generic liveness
    /// re-check is compiled away. This is exactly the kind of
    /// per-query-context specialisation an interpreter's one-size-fits-all
    /// AOT operators cannot perform.
    pub fn read_enumerated<R: Versioned>(
        &self,
        txn: &Txn,
        tag: TableTag,
        table: &ChunkedTable<R>,
        id: RecId,
    ) -> Result<Option<R>, TxnError> {
        let rec = table.get(id);
        let key = ObjKey { tag, id };
        let lock = rec.txn_id();

        if lock == txn.id {
            // Own write: newest uncommitted version, or the inserted record.
            let own = self
                .chains
                .peek(key, |c| c.uncommitted.map(|e| (e.decode::<R>(), e.ets)))
                .flatten();
            if let Some((own, ets)) = own {
                if ets <= txn.id {
                    return Ok(None); // deleted by ourselves
                }
                return Ok(Some(own));
            }
            return Ok(Some(rec));
        }

        if rec.bts() <= txn.id {
            if lock != 0 {
                // Pending overwrite by another transaction whose outcome
                // affects this snapshot — the paper aborts the reader.
                // Distinguish an uncommitted *insert* by a newer txn: its
                // bts equals the lock owner's id; invisible to us, skip.
                if rec.bts() == lock && rec.bts() > txn.id {
                    return Ok(None);
                }
                self.stats.conflicts.fetch_add(1, Ordering::Relaxed);
                return Err(TxnError::Locked);
            }
            if rec.ets() <= txn.id {
                // Deleted before our snapshot; history is older still.
                return Ok(None);
            }
            // Latest committed version is ours: bump rts (unflushed CAS —
            // recoverable metadata; DESIGN.md §10 argues why a bump lost
            // to a crash is harmless, and `lost_rts_bump_after_crash_is_
            // harmless` exercises it).
            let off = table.record_off(id) + R::RTS_OFF as u64;
            let rts = self.pool.atomic_u64(off);
            let mut cur = rts.load(Ordering::Relaxed);
            while cur < txn.id {
                match rts.compare_exchange_weak(cur, txn.id, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => break,
                    Err(c) => cur = c,
                }
            }
            return Ok(Some(rec));
        }

        // bts > txn.id: the latest committed version is too new; search the
        // DRAM history chain for the version valid at our snapshot.
        // An uncommitted insert (bts == lock) is simply invisible.
        if rec.bts() == lock {
            return Ok(None);
        }
        let found = self.chains.peek(key, |c| {
            c.history
                .iter()
                .find(|v| v.bts <= txn.id && txn.id < v.ets)
                .map(|v| v.decode::<R>())
        });
        Ok(found.flatten())
    }

    /// The scan fast path for a chunk claimed via [`try_fast_chunk`]
    /// (§C1: skip the chain probe and the per-record `rts` CAS): a record
    /// that is unlocked, began at or before our snapshot and is not
    /// deleted *is* the visible version — use its bytes directly. Anything
    /// else (in-flight lock, newer version, tombstone) falls back to the
    /// full MVTO read for that record. Repeatable reads are preserved by
    /// the chunk-grain `read_ts` published by the claim, which
    /// [`lock_for_write`](Self::lock_for_write) validates like `rts`.
    pub fn read_fast<R: Versioned>(
        &self,
        txn: &Txn,
        tag: TableTag,
        table: &ChunkedTable<R>,
        id: RecId,
    ) -> Result<Option<R>, TxnError> {
        let rec = table.get(id);
        if rec.txn_id() == 0 && rec.bts() <= txn.id && rec.ets() == TS_INF {
            return Ok(Some(rec));
        }
        self.read_enumerated(txn, tag, table, id)
    }

    // ------------------------------------------------------------------
    // Write path (§5.1 "Write transaction")
    // ------------------------------------------------------------------

    fn lock_for_write<R: Versioned>(
        &self,
        txn: &Txn,
        tag: TableTag,
        table: &ChunkedTable<R>,
        id: RecId,
    ) -> Result<R, TxnError> {
        let span = gobs::span_start();
        let r = self.lock_for_write_inner(txn, tag, table, id);
        crate::obs::validate(span);
        r
    }

    fn lock_for_write_inner<R: Versioned>(
        &self,
        txn: &Txn,
        tag: TableTag,
        table: &ChunkedTable<R>,
        id: RecId,
    ) -> Result<R, TxnError> {
        let off = table.record_off(id) + R::TXN_ID_OFF as u64;
        if self.pool.compare_exchange_u64(off, 0, txn.id).is_err() {
            self.stats.conflicts.fetch_add(1, Ordering::Relaxed);
            return Err(TxnError::Locked);
        }
        // Re-read under the lock; validate MVTO write rules.
        let rec = table.get(id);
        if rec.bts() > txn.id || rec.ets() != TS_INF || rec.rts() > txn.id {
            // A newer version exists, the object is deleted, or a newer
            // transaction already read this version (id(T) < rts ⇒ abort).
            self.pool.atomic_store_u64(off, 0, Ordering::Release);
            self.stats.conflicts.fetch_add(1, Ordering::Relaxed);
            return Err(TxnError::WriteConflict);
        }
        // Mark the chunk dirty, then validate the chunk-grain read_ts: a
        // newer snapshot may have fast-scanned this chunk without bumping
        // per-record `rts` values. The increment happens *before* the load
        // so that (SeqCst total order) either we observe the reader's
        // published snapshot here, or the reader's clean re-check observes
        // our increment and takes the slow path.
        let meta = self.chunk_state.add_dirty(tag, chunk_of(id));
        if meta.read_ts.load(Ordering::SeqCst) > txn.id {
            self.chunk_state.sub_dirty(tag, chunk_of(id));
            self.pool.atomic_store_u64(off, 0, Ordering::Release);
            self.stats.conflicts.fetch_add(1, Ordering::Relaxed);
            return Err(TxnError::WriteConflict);
        }
        Ok(rec)
    }

    /// Insert a new record. It is written to PMem immediately (the paper:
    /// "If the transaction inserts a new object, this object is already
    /// stored in the persistent array, but still locked until the end of
    /// the transaction").
    pub fn insert<R: Versioned>(
        &self,
        txn: &mut Txn,
        tag: TableTag,
        table: &ChunkedTable<R>,
        mut rec: R,
    ) -> Result<RecId, TxnError> {
        if txn.finished {
            return Err(TxnError::Finished);
        }
        rec.set_txn_id(txn.id);
        rec.set_bts(txn.id);
        rec.set_ets(TS_INF);
        rec.set_rts(0);
        let id = table.insert(&rec)?;
        self.chunk_state.add_dirty(tag, chunk_of(id));
        txn.inserts.push((tag, id));
        Ok(id)
    }

    /// Update a record: lock it, then apply `f` to a copy that becomes the
    /// new uncommitted version in the DRAM dirty list (§5.2 — all writes of
    /// the transaction's lifetime happen at DRAM latency).
    pub fn update<R: Versioned>(
        &self,
        txn: &mut Txn,
        tag: TableTag,
        table: &ChunkedTable<R>,
        id: RecId,
        f: impl FnOnce(&mut R),
    ) -> Result<(), TxnError> {
        if txn.finished {
            return Err(TxnError::Finished);
        }
        let key = ObjKey { tag, id };
        let cur = table.get(id);
        if cur.txn_id() == txn.id {
            // Already locked by us: mutate the uncommitted version (or the
            // inserted record in place — it is invisible to others anyway).
            let mut f = Some(f);
            let had_chain = self.chains.with(key, |c| {
                if let Some(e) = &mut c.uncommitted {
                    let mut r: R = e.decode();
                    (f.take().expect("applied once"))(&mut r);
                    *e = VersionEntry::encode(&r, e.bts, e.ets, txn.id);
                    true
                } else {
                    false
                }
            });
            if !had_chain {
                let mut r = cur;
                (f.take().expect("applied once"))(&mut r);
                table.write(id, &r);
            }
            return Ok(());
        }
        let rec = self.lock_for_write(txn, tag, table, id)?;
        let mut new = rec;
        new.set_txn_id(txn.id);
        new.set_bts(txn.id);
        new.set_ets(TS_INF);
        new.set_rts(0);
        f(&mut new);
        self.chains.with(key, |c| {
            debug_assert!(c.uncommitted.is_none());
            c.uncommitted = Some(VersionEntry::encode(&new, txn.id, TS_INF, txn.id));
        });
        txn.writes.push(WriteRef {
            tag,
            id,
            delete: false,
        });
        Ok(())
    }

    /// Delete a record: lock it and stage a tombstone (commit sets the
    /// PMem version's `ets` to the transaction id, §5.1).
    pub fn delete<R: Versioned>(
        &self,
        txn: &mut Txn,
        tag: TableTag,
        table: &ChunkedTable<R>,
        id: RecId,
    ) -> Result<(), TxnError> {
        if txn.finished {
            return Err(TxnError::Finished);
        }
        let key = ObjKey { tag, id };
        let cur = table.get(id);
        if cur.txn_id() == txn.id {
            // Deleting our own insert or update: stage a tombstone entry.
            self.chains.with(key, |c| {
                let mut e = c
                    .uncommitted
                    .unwrap_or_else(|| VersionEntry::encode(&cur, cur.bts(), TS_INF, txn.id));
                e.ets = txn.id;
                c.uncommitted = Some(e);
            });
            if !txn.writes.iter().any(|w| w.tag == tag && w.id == id) {
                txn.writes.push(WriteRef {
                    tag,
                    id,
                    delete: true,
                });
            } else {
                for w in &mut txn.writes {
                    if w.tag == tag && w.id == id {
                        w.delete = true;
                    }
                }
            }
            return Ok(());
        }
        let rec = self.lock_for_write(txn, tag, table, id)?;
        self.chains.with(key, |c| {
            let mut e = VersionEntry::encode(&rec, rec.bts(), TS_INF, txn.id);
            e.ets = txn.id;
            c.uncommitted = Some(e);
        });
        txn.writes.push(WriteRef {
            tag,
            id,
            delete: true,
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Commit / abort (§5.1 "Commit")
    // ------------------------------------------------------------------

    /// Commit: persist every staged version atomically in one undo-log
    /// transaction, unlock inserts inside the same transaction, then prune
    /// version chains (transaction-level GC, §5.3).
    pub fn commit(
        &self,
        txn: Txn,
        nodes: &ChunkedTable<NodeRecord>,
        rels: &ChunkedTable<RelRecord>,
        props: &ChunkedTable<PropRecord>,
    ) -> Result<(), TxnError> {
        let span = gobs::span_start();
        let Some(pending) = self.prepare_commit(txn, nodes, rels, props)? else {
            return Ok(());
        };
        let PendingCommit { txn, batch } = pending;
        let persist_span = gobs::span_start();
        if let Err(e) = self.pipeline.commit(batch) {
            self.abort_prepared(txn, nodes, rels, props);
            return Err(e);
        }
        crate::obs::persist(persist_span);
        self.finish_committed(txn, props);
        crate::obs::commit(span);
        Ok(())
    }

    /// First half of [`commit`](Self::commit): build the persist batch but
    /// do not persist it. Returns `None` for read-only transactions (they
    /// are finished immediately; there is nothing to persist). The caller
    /// must either persist the batch — through the [`CommitPipeline`] or a
    /// cross-shard [`pmem::commit_epoch`] — and then call
    /// [`finish_commit`](Self::finish_commit), or, when the persist failed,
    /// hand it to [`abort_commit`](Self::abort_commit): a dropped
    /// `PendingCommit` keeps its locks and its place in the active set
    /// until recovery. This split lets a router commit several
    /// shards' batches under one atomic epoch while each shard's manager
    /// keeps ownership of its own version chains and GC.
    pub fn prepare_commit(
        &self,
        mut txn: Txn,
        nodes: &ChunkedTable<NodeRecord>,
        rels: &ChunkedTable<RelRecord>,
        props: &ChunkedTable<PropRecord>,
    ) -> Result<Option<PendingCommit>, TxnError> {
        if txn.finished {
            return Err(TxnError::Finished);
        }
        txn.finished = true;
        if txn.is_read_only() {
            self.finish(&txn, props);
            self.stats.commits.fetch_add(1, Ordering::Release);
            return Ok(None);
        }

        // Move the current committed versions into DRAM history *before*
        // overwriting PMem, so older snapshots stay readable (§5.2).
        for w in &txn.writes {
            let key = ObjKey { tag: w.tag, id: w.id };
            match w.tag {
                TableTag::Node => {
                    let cur = nodes.get(w.id);
                    let mut e = VersionEntry::encode(&cur, cur.bts(), txn.id, 0);
                    e.ets = txn.id;
                    self.chains.with(key, |c| c.history.insert(0, e));
                }
                TableTag::Rel => {
                    let cur = rels.get(w.id);
                    let mut e = VersionEntry::encode(&cur, cur.bts(), txn.id, 0);
                    e.ets = txn.id;
                    self.chains.with(key, |c| c.history.insert(0, e));
                }
            }
        }

        // Take the staged versions OUT of the chains before persisting:
        // the lock is released inside the atomic transaction below, so a
        // rival writer may acquire it and stage its own version into the
        // chain before this function returns — the chain slot must already
        // be free by then. (Readers still see the lock until the in-memory
        // unlock inside the transaction, so removing the entry early never
        // hides our writes from a visible snapshot.)
        let staged: Vec<Option<VersionEntry>> = txn
            .writes
            .iter()
            .map(|w| {
                let key = ObjKey { tag: w.tag, id: w.id };
                self.chains.with(key, |c| c.uncommitted.take())
            })
            .collect();

        // Atomic persist: stage every record overwrite and every
        // insert/update unlock into one TxBatch (DG4), then hand it to the
        // group-commit pipeline — concurrent committers' batches run as a
        // single undo-log transaction whose log truncation is the shared
        // commit point. Batches are disjoint (each touches only records
        // its transaction holds the write lock on), so merging them never
        // reorders conflicting stores.
        let txn_id = txn.id;
        let mut batch = TxBatch::new();
        for (w, entry) in txn.writes.iter().zip(&staged) {
            match w.tag {
                TableTag::Node => {
                    Self::stage_version::<NodeRecord>(&mut batch, entry, w.id, nodes, txn_id, w.delete);
                }
                TableTag::Rel => {
                    Self::stage_version::<RelRecord>(&mut batch, entry, w.id, rels, txn_id, w.delete);
                }
            }
        }
        for &(tag, id) in &txn.inserts {
            let off = match tag {
                TableTag::Node => nodes.record_off(id) + NodeRecord::TXN_ID_OFF as u64,
                TableTag::Rel => rels.record_off(id) + RelRecord::TXN_ID_OFF as u64,
            };
            batch.write_u64(off, 0);
        }
        Ok(Some(PendingCommit { txn, batch }))
    }

    /// Second half of [`commit`](Self::commit): run after the pending
    /// batch has been made durable by the caller. Releases write intents,
    /// finishes the transaction, and prunes version chains.
    pub fn finish_commit(&self, pending: PendingCommit, props: &ChunkedTable<PropRecord>) {
        self.finish_committed(pending.txn, props);
    }

    /// The other way out of a [`prepare_commit`](Self::prepare_commit): the
    /// persist failed with the pool untouched ([`PmemError::LogFull`], a
    /// poisoned pipeline), so the transaction aborts.
    ///
    /// [`PmemError::LogFull`]: pmem::PmemError::LogFull
    pub fn abort_commit(
        &self,
        pending: PendingCommit,
        nodes: &ChunkedTable<NodeRecord>,
        rels: &ChunkedTable<RelRecord>,
        props: &ChunkedTable<PropRecord>,
    ) {
        self.abort_prepared(pending.txn, nodes, rels, props);
    }

    /// Undo `prepare_commit` and run the ordinary abort. The write locks
    /// are still held, so the only trace the prepare left is the history
    /// entry it pushed per written record (the staged versions it took out
    /// of the chains are what abort discards anyway).
    fn abort_prepared(
        &self,
        mut txn: Txn,
        nodes: &ChunkedTable<NodeRecord>,
        rels: &ChunkedTable<RelRecord>,
        props: &ChunkedTable<PropRecord>,
    ) {
        for w in &txn.writes {
            let key = ObjKey { tag: w.tag, id: w.id };
            // By `ets`, not by position: a concurrent GC sweep may already
            // have pruned it.
            self.chains.with(key, |c| c.history.retain(|v| v.ets != txn.id));
        }
        txn.finished = false;
        self.abort(txn, nodes, rels, props);
    }

    fn finish_committed(&self, mut txn: Txn, props: &ChunkedTable<PropRecord>) {
        // Journal first: a reader that finds our chunks clean must find
        // our entry (see `journal`'s ordering rule).
        self.journal.append(txn.id, std::mem::take(&mut txn.topology));
        self.retire_write_intents(&txn);

        // Superseded property chains become garbage at our commit time.
        if !txn.prop_obsolete.is_empty() {
            self.deferred_props.lock().push(DeferredProps {
                ets: txn.id,
                ids: std::mem::take(&mut txn.prop_obsolete),
            });
        }

        self.finish(&txn, props);
        self.stats.commits.fetch_add(1, Ordering::Release);
        // Committed mutations invalidate materialized snapshots.
        self.mutation_epoch.fetch_add(1, Ordering::Release);

        // Transaction-level GC on the keys we touched.
        let oldest = self.oldest_active();
        let mut pruned = 0;
        for w in &txn.writes {
            pruned += self.chains.gc_key(ObjKey { tag: w.tag, id: w.id }, oldest);
        }
        if self.stats.commits.load(Ordering::Relaxed).is_multiple_of(GC_SWEEP_EVERY) {
            pruned += self.chains.gc_all(oldest);
        }
        self.stats.gc_pruned.fetch_add(pruned as u64, Ordering::Relaxed);
    }

    /// Retire the chunk write intents registered by this transaction's
    /// lock acquisitions and inserts — called once per transaction, after
    /// the records are unlocked (commit) or rolled back (abort). Exactly
    /// one increment happened per acquired lock and per insert; a
    /// `WriteRef` covering one of the transaction's own inserts (a
    /// deleted own insert) took no extra lock, so it is skipped.
    fn retire_write_intents(&self, txn: &Txn) {
        for w in &txn.writes {
            if txn.inserts.iter().any(|&(t, i)| t == w.tag && i == w.id) {
                continue;
            }
            self.chunk_state.sub_dirty(w.tag, chunk_of(w.id));
        }
        for &(tag, id) in &txn.inserts {
            self.chunk_state.sub_dirty(tag, chunk_of(id));
        }
    }

    fn stage_version<R: Versioned>(
        batch: &mut TxBatch,
        staged: &Option<VersionEntry>,
        id: RecId,
        table: &ChunkedTable<R>,
        txn_id: u64,
        delete: bool,
    ) {
        let off = table.record_off(id);
        if delete {
            // Tombstone: the current version's ets is set to id(T); the
            // record itself stays for older readers until GC frees the slot.
            batch.write_u64(off + R::ETS_OFF as u64, txn_id);
            batch.write_u64(off + R::TXN_ID_OFF as u64, 0);
        } else {
            let mut new: R = staged
                .as_ref()
                .map(|e| e.decode::<R>())
                .expect("staged version present at commit");
            // Write the body while the record still reads as locked, then
            // release the lock with a separate 8-byte store — concurrent
            // readers never observe a half-written record claiming to be
            // unlocked. Both stores live in the same batch (applied in
            // order inside one undo-log transaction), so crash atomicity
            // is unaffected.
            new.set_txn_id(txn_id);
            new.set_bts(txn_id);
            new.set_ets(TS_INF);
            new.set_rts(0);
            let bytes = unsafe {
                std::slice::from_raw_parts(&new as *const R as *const u8, std::mem::size_of::<R>())
            };
            batch.write_bytes(off, bytes);
            batch.write_u64(off + R::TXN_ID_OFF as u64, 0);
        }
    }

    /// Abort: discard staged versions, unlock, and recycle slots of
    /// records inserted by this transaction (bitmap clear — DG5).
    pub fn abort(
        &self,
        mut txn: Txn,
        nodes: &ChunkedTable<NodeRecord>,
        rels: &ChunkedTable<RelRecord>,
        props: &ChunkedTable<PropRecord>,
    ) {
        if txn.finished {
            return;
        }
        txn.finished = true;
        for w in &txn.writes {
            let key = ObjKey { tag: w.tag, id: w.id };
            self.chains.with(key, |c| c.uncommitted = None);
            let off = match w.tag {
                TableTag::Node => nodes.record_off(w.id) + NodeRecord::TXN_ID_OFF as u64,
                TableTag::Rel => rels.record_off(w.id) + RelRecord::TXN_ID_OFF as u64,
            };
            self.pool.atomic_store_u64(off, 0, Ordering::Release);
            self.pool.persist(off, 8);
        }
        for &(tag, id) in &txn.inserts {
            match tag {
                TableTag::Node => nodes.delete(id),
                TableTag::Rel => rels.delete(id),
            }
        }
        for &id in &txn.prop_inserts {
            props.delete(id);
        }
        self.retire_write_intents(&txn);
        self.active_shard(txn.id).lock().remove(&txn.id);
        self.stats.aborts.fetch_add(1, Ordering::Release);
    }

    fn finish(&self, txn: &Txn, props: &ChunkedTable<PropRecord>) {
        self.active_shard(txn.id).lock().remove(&txn.id);
        // Reclaim superseded property chains that no snapshot can reach.
        let oldest = self.oldest_active();
        let mut deferred = self.deferred_props.lock();
        let mut i = 0;
        while i < deferred.len() {
            if deferred[i].ets <= oldest {
                for &id in &deferred[i].ids {
                    props.delete(id);
                }
                deferred.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Crash recovery of one table on its own (after pool recovery, on a
    /// fresh manager): classify every live record and apply the fixes.
    /// Returns the reclaimed inserts. The engine classifies inside its own
    /// open-time scan and calls [`apply_recovery`](Self::apply_recovery).
    pub fn recover_table<R: Versioned>(&self, table: &ChunkedTable<R>) -> usize {
        let mut fixes = Vec::new();
        table.for_each_live(|id, rec| fixes.extend(RecoveryFix::of(rec).map(|fix| (id, fix))));
        self.apply_recovery(table, &fixes)
    }

    /// Apply the fixes a recovery scan collected, after it (no bitmap
    /// changes under a scan): returns the number of slots freed.
    pub fn apply_recovery<R: Versioned>(
        &self,
        table: &ChunkedTable<R>,
        fixes: &[(RecId, RecoveryFix)],
    ) -> usize {
        let mut reclaimed = 0;
        for &(id, fix) in fixes {
            match fix {
                RecoveryFix::ReclaimInsert => {
                    table.delete(id);
                    reclaimed += 1;
                }
                RecoveryFix::ClearLock => {
                    let off = table.record_off(id) + R::TXN_ID_OFF as u64;
                    self.pool.atomic_store_u64(off, 0, Ordering::Release);
                    self.pool.persist(off, 8);
                }
            }
        }
        reclaimed
    }
}

/// What crash recovery owes one live record whose write lock is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryFix {
    /// An insert that never committed: free its slot.
    ReclaimInsert,
    /// A committed record locked by a transaction that died: clear the lock.
    ClearLock,
}

impl RecoveryFix {
    /// The stale-lock rule: an unlocked record needs nothing; a record
    /// whose `bts` equals its `txn_id` was inserted by the lock owner and
    /// never committed; any other lock is left over from a dead writer.
    #[inline]
    pub fn of<R: Versioned>(rec: &R) -> Option<RecoveryFix> {
        match rec.txn_id() {
            0 => None,
            owner if rec.bts() == owner => Some(RecoveryFix::ReclaimInsert),
            _ => Some(RecoveryFix::ClearLock),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixture {
        pool: Arc<Pool>,
        mgr: TxnManager,
        nodes: ChunkedTable<NodeRecord>,
        rels: ChunkedTable<RelRecord>,
        props: ChunkedTable<PropRecord>,
    }

    fn fixture() -> Fixture {
        fixture_on(Arc::new(Pool::volatile(64 << 20).unwrap()))
    }

    fn fixture_on(pool: Arc<Pool>) -> Fixture {
        let mgr = TxnManager::create(pool.clone()).unwrap();
        let nodes = ChunkedTable::create(pool.clone()).unwrap();
        let rels = ChunkedTable::create(pool.clone()).unwrap();
        let props = ChunkedTable::create(pool.clone()).unwrap();
        Fixture {
            pool,
            mgr,
            nodes,
            rels,
            props,
        }
    }

    impl Fixture {
        fn commit(&self, txn: Txn) -> Result<(), TxnError> {
            self.mgr.commit(txn, &self.nodes, &self.rels, &self.props)
        }
        fn abort(&self, txn: Txn) {
            self.mgr.abort(txn, &self.nodes, &self.rels, &self.props)
        }
    }

    #[test]
    fn insert_visible_after_commit_only() {
        let f = fixture();
        let mut t1 = f.mgr.begin();
        let id = f
            .mgr
            .insert(&mut t1, TableTag::Node, &f.nodes, NodeRecord::new(1))
            .unwrap();

        // A concurrent newer reader hits the uncommitted insert's lock: if
        // t1 commits, the record becomes visible at t2's snapshot, so the
        // outcome is speculative and MVTO aborts the reader (§5.1).
        let t2 = f.mgr.begin();
        let err = f.mgr.read(&t2, TableTag::Node, &f.nodes, id).unwrap_err();
        assert!(matches!(err, TxnError::Locked));
        f.abort(t2);

        f.commit(t1).unwrap();
        let t3 = f.mgr.begin();
        let n = f.mgr.read(&t3, TableTag::Node, &f.nodes, id).unwrap();
        assert_eq!(n.unwrap().label, 1);
        f.commit(t3).unwrap();
    }

    #[test]
    fn read_own_insert_and_update() {
        let f = fixture();
        let mut t = f.mgr.begin();
        let id = f
            .mgr
            .insert(&mut t, TableTag::Node, &f.nodes, NodeRecord::new(1))
            .unwrap();
        let n = f.mgr.read(&t, TableTag::Node, &f.nodes, id).unwrap().unwrap();
        assert_eq!(n.label, 1);
        f.mgr
            .update(&mut t, TableTag::Node, &f.nodes, id, |n| n.label = 2)
            .unwrap();
        let n = f.mgr.read(&t, TableTag::Node, &f.nodes, id).unwrap().unwrap();
        assert_eq!(n.label, 2, "read-your-own-writes");
        f.commit(t).unwrap();
    }

    #[test]
    fn snapshot_isolation_old_reader_sees_old_version() {
        let f = fixture();
        // Commit v1.
        let mut t1 = f.mgr.begin();
        let id = f
            .mgr
            .insert(&mut t1, TableTag::Node, &f.nodes, NodeRecord::new(10))
            .unwrap();
        f.commit(t1).unwrap();

        // Old reader begins before the update commits.
        let told = f.mgr.begin();

        // Updater commits v2.
        let mut t2 = f.mgr.begin();
        f.mgr
            .update(&mut t2, TableTag::Node, &f.nodes, id, |n| n.label = 20)
            .unwrap();
        f.commit(t2).unwrap();

        // The old reader must still see v1 from the DRAM history chain.
        let n = f.mgr.read(&told, TableTag::Node, &f.nodes, id).unwrap();
        assert_eq!(n.unwrap().label, 10, "snapshot must be stable");
        f.commit(told).unwrap();

        // A new reader sees v2.
        let tnew = f.mgr.begin();
        let n = f.mgr.read(&tnew, TableTag::Node, &f.nodes, id).unwrap();
        assert_eq!(n.unwrap().label, 20);
        f.commit(tnew).unwrap();
    }

    #[test]
    fn write_write_conflict_aborts_second_writer() {
        let f = fixture();
        let mut t0 = f.mgr.begin();
        let id = f
            .mgr
            .insert(&mut t0, TableTag::Node, &f.nodes, NodeRecord::new(1))
            .unwrap();
        f.commit(t0).unwrap();

        let mut t1 = f.mgr.begin();
        let mut t2 = f.mgr.begin();
        f.mgr
            .update(&mut t1, TableTag::Node, &f.nodes, id, |n| n.label = 2)
            .unwrap();
        let err = f
            .mgr
            .update(&mut t2, TableTag::Node, &f.nodes, id, |n| n.label = 3)
            .unwrap_err();
        assert!(matches!(err, TxnError::Locked));
        f.abort(t2);
        f.commit(t1).unwrap();
    }

    #[test]
    fn write_after_newer_read_conflicts() {
        let f = fixture();
        let mut t0 = f.mgr.begin();
        let id = f
            .mgr
            .insert(&mut t0, TableTag::Node, &f.nodes, NodeRecord::new(1))
            .unwrap();
        f.commit(t0).unwrap();

        let mut told = f.mgr.begin(); // older writer
        let tnew = f.mgr.begin(); // newer reader
        assert!(f
            .mgr
            .read(&tnew, TableTag::Node, &f.nodes, id)
            .unwrap()
            .is_some());
        // told writes a version that tnew should have seen ⇒ abort told.
        let err = f
            .mgr
            .update(&mut told, TableTag::Node, &f.nodes, id, |n| n.label = 9)
            .unwrap_err();
        assert!(matches!(err, TxnError::WriteConflict));
        f.abort(told);
        f.commit(tnew).unwrap();
    }

    #[test]
    fn aborted_insert_recycles_slot() {
        let f = fixture();
        let mut t = f.mgr.begin();
        let id = f
            .mgr
            .insert(&mut t, TableTag::Node, &f.nodes, NodeRecord::new(1))
            .unwrap();
        f.abort(t);
        assert!(!f.nodes.is_live(id));
        // Slot reused by the next insert (DG5).
        let mut t2 = f.mgr.begin();
        let id2 = f
            .mgr
            .insert(&mut t2, TableTag::Node, &f.nodes, NodeRecord::new(2))
            .unwrap();
        assert_eq!(id2, id);
        f.commit(t2).unwrap();
    }

    #[test]
    fn aborted_update_leaves_committed_version() {
        let f = fixture();
        let mut t0 = f.mgr.begin();
        let id = f
            .mgr
            .insert(&mut t0, TableTag::Node, &f.nodes, NodeRecord::new(7))
            .unwrap();
        f.commit(t0).unwrap();

        let mut t1 = f.mgr.begin();
        f.mgr
            .update(&mut t1, TableTag::Node, &f.nodes, id, |n| n.label = 8)
            .unwrap();
        f.abort(t1);

        let t2 = f.mgr.begin();
        let n = f.mgr.read(&t2, TableTag::Node, &f.nodes, id).unwrap();
        assert_eq!(n.unwrap().label, 7);
        f.commit(t2).unwrap();
        assert_eq!(f.mgr.stats().aborts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn delete_hides_record_from_newer_snapshots() {
        let f = fixture();
        let mut t0 = f.mgr.begin();
        let id = f
            .mgr
            .insert(&mut t0, TableTag::Node, &f.nodes, NodeRecord::new(1))
            .unwrap();
        f.commit(t0).unwrap();

        let told = f.mgr.begin();

        let mut t1 = f.mgr.begin();
        f.mgr.delete(&mut t1, TableTag::Node, &f.nodes, id).unwrap();
        // Read-your-own-delete.
        assert!(f
            .mgr
            .read(&t1, TableTag::Node, &f.nodes, id)
            .unwrap()
            .is_none());
        f.commit(t1).unwrap();

        // Old snapshot still sees the record (PMem tombstone has
        // ets = t1.id > told.id).
        let n = f.mgr.read(&told, TableTag::Node, &f.nodes, id).unwrap();
        assert!(n.is_some());
        f.commit(told).unwrap();

        let tnew = f.mgr.begin();
        assert!(f
            .mgr
            .read(&tnew, TableTag::Node, &f.nodes, id)
            .unwrap()
            .is_none());
        f.commit(tnew).unwrap();
    }

    #[test]
    fn update_after_delete_conflicts() {
        let f = fixture();
        let mut t0 = f.mgr.begin();
        let id = f
            .mgr
            .insert(&mut t0, TableTag::Node, &f.nodes, NodeRecord::new(1))
            .unwrap();
        f.commit(t0).unwrap();
        let mut t1 = f.mgr.begin();
        f.mgr.delete(&mut t1, TableTag::Node, &f.nodes, id).unwrap();
        f.commit(t1).unwrap();

        let mut t2 = f.mgr.begin();
        let err = f
            .mgr
            .update(&mut t2, TableTag::Node, &f.nodes, id, |n| n.label = 5)
            .unwrap_err();
        assert!(matches!(err, TxnError::WriteConflict));
        f.abort(t2);
    }

    #[test]
    fn gc_prunes_history_when_no_old_readers() {
        let f = fixture();
        let mut t0 = f.mgr.begin();
        let id = f
            .mgr
            .insert(&mut t0, TableTag::Node, &f.nodes, NodeRecord::new(0))
            .unwrap();
        f.commit(t0).unwrap();
        for i in 1..10u32 {
            let mut t = f.mgr.begin();
            f.mgr
                .update(&mut t, TableTag::Node, &f.nodes, id, |n| n.label = i)
                .unwrap();
            f.commit(t).unwrap();
        }
        // No active transactions: every superseded version is prunable and
        // per-commit GC already ran.
        assert_eq!(f.mgr.version_count(), 0, "history must be GC'd");
        assert!(f.mgr.stats().gc_pruned.load(Ordering::Relaxed) >= 9);
    }

    #[test]
    fn multi_object_commit_is_atomic_under_crash() {
        let mut path = std::env::temp_dir();
        path.push(format!("gtxn-crash-{}", std::process::id()));
        for crash_at in (0..40).step_by(3) {
            let _ = std::fs::remove_file(&path);
            let pool = Arc::new(
                Pool::create(&path, 64 << 20, pmem::DeviceProfile::dram())
                    .unwrap()
                    .with_crash_tracking(),
            );
            let mgr = TxnManager::create(pool.clone()).unwrap();
            let nodes: ChunkedTable<NodeRecord> = ChunkedTable::create(pool.clone()).unwrap();
            let rels: ChunkedTable<RelRecord> = ChunkedTable::create(pool.clone()).unwrap();
            let props: ChunkedTable<PropRecord> = ChunkedTable::create(pool.clone()).unwrap();
            let nroot = nodes.root_off();

            let mut t0 = mgr.begin();
            let a = mgr.insert(&mut t0, TableTag::Node, &nodes, NodeRecord::new(1)).unwrap();
            let b = mgr.insert(&mut t0, TableTag::Node, &nodes, NodeRecord::new(2)).unwrap();
            mgr.commit(t0, &nodes, &rels, &props).unwrap();

            // A transaction that updates both records, with a crash injected
            // somewhere in its commit sequence.
            let mut t1 = mgr.begin();
            mgr.update(&mut t1, TableTag::Node, &nodes, a, |n| n.label = 11).unwrap();
            mgr.update(&mut t1, TableTag::Node, &nodes, b, |n| n.label = 22).unwrap();
            pool.inject_crash_after_flushes(crash_at);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                mgr.commit(t1, &nodes, &rels, &props)
            }));
            pool.clear_crash_injection();

            pool.simulate_crash(pmem::CrashPolicy::DropUnflushed).unwrap();
            pool.recover().unwrap();
            let nodes2: ChunkedTable<NodeRecord> = ChunkedTable::open(pool.clone(), nroot).unwrap();
            let mgr2 = TxnManager::open(pool.clone(), mgr.ts_slot());
            mgr2.recover_table(&nodes2);

            let ra = nodes2.get(a);
            let rb = nodes2.get(b);
            let old = ra.label == 1 && rb.label == 2;
            let new = ra.label == 11 && rb.label == 22;
            assert!(
                old || new,
                "crash_at={crash_at}: torn commit (a={}, b={}, outcome_ok={})",
                ra.label,
                rb.label,
                outcome.is_ok()
            );
            assert_eq!(ra.txn_id, 0, "locks must be clear after recovery");
            assert_eq!(rb.txn_id, 0);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_recovery_reclaims_uncommitted_inserts() {
        let pool = Arc::new(Pool::volatile(64 << 20).unwrap().with_crash_tracking());
        let mgr = TxnManager::create(pool.clone()).unwrap();
        let nodes: ChunkedTable<NodeRecord> = ChunkedTable::create(pool.clone()).unwrap();
        let nroot = nodes.root_off();

        let mut t = mgr.begin();
        mgr.insert(&mut t, TableTag::Node, &nodes, NodeRecord::new(1)).unwrap();
        // Simulate crash before commit; the insert bytes and bitmap were
        // persisted by the table, but the lock (txn_id = t.id) marks it
        // uncommitted.
        std::mem::forget(t);
        pool.simulate_crash(pmem::CrashPolicy::KeepAll).unwrap();
        pool.recover().unwrap();

        let nodes2: ChunkedTable<NodeRecord> = ChunkedTable::open(pool.clone(), nroot).unwrap();
        let mgr2 = TxnManager::open(pool.clone(), mgr.ts_slot());
        let reclaimed = mgr2.recover_table(&nodes2);
        assert_eq!(reclaimed, 1);
        assert_eq!(nodes2.live_count(), 0);
    }

    #[test]
    fn timestamps_monotonic_across_reopen() {
        let f = fixture();
        let t1 = f.mgr.begin();
        let id1 = t1.id;
        f.commit(t1).unwrap();
        let mgr2 = TxnManager::open(f.pool.clone(), f.mgr.ts_slot());
        let t2 = mgr2.begin();
        assert!(t2.id > id1, "ids must never repeat: {} <= {}", t2.id, id1);
        mgr2.commit(t2, &f.nodes, &f.rels, &f.props).unwrap();
    }

    #[test]
    fn concurrent_disjoint_commits_succeed() {
        let f = fixture();
        let mut ids = Vec::new();
        let mut t0 = f.mgr.begin();
        for i in 0..64 {
            ids.push(
                f.mgr
                    .insert(&mut t0, TableTag::Node, &f.nodes, NodeRecord::new(i))
                    .unwrap(),
            );
        }
        f.commit(t0).unwrap();

        let mgr = Arc::new(f.mgr);
        let nodes = Arc::new(f.nodes);
        let rels = Arc::new(f.rels);
        let props = Arc::new(f.props);
        let handles: Vec<_> = (0..4u64)
            .map(|tid| {
                let (mgr, nodes, rels, props) =
                    (mgr.clone(), nodes.clone(), rels.clone(), props.clone());
                let ids = ids.clone();
                std::thread::spawn(move || {
                    let mut committed = 0;
                    for round in 0..20 {
                        let mut t = mgr.begin();
                        let id = ids[((tid * 16) + round % 16) as usize];
                        match mgr.update(&mut t, TableTag::Node, &nodes, id, |n| {
                            n.label = (tid * 1000 + round) as u32
                        }) {
                            Ok(()) => {
                                mgr.commit(t, &nodes, &rels, &props).unwrap();
                                committed += 1;
                            }
                            Err(_) => mgr.abort(t, &nodes, &rels, &props),
                        }
                    }
                    committed
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 80, "disjoint updates must all commit");
        // All locks released.
        nodes.for_each_live(|_, n| assert_eq!(n.txn_id, 0));
    }

    #[test]
    fn hot_record_transfer_invariant_under_contention() {
        // Regression test for the commit/stage race: the commit used to
        // release the record lock inside the atomic persist but remove its
        // staged chain entry only afterwards, letting a rival writer stage
        // a version that the first committer then destroyed. Hammer a tiny
        // hot set with transfers and check conservation.
        let f = fixture();
        let hot = 8usize;
        let mut t0 = f.mgr.begin();
        let ids: Vec<u64> = (0..hot)
            .map(|_| {
                f.mgr
                    .insert(&mut t0, TableTag::Node, &f.nodes, NodeRecord::new(100))
                    .unwrap()
            })
            .collect();
        f.commit(t0).unwrap();

        let mgr = Arc::new(f.mgr);
        let nodes = Arc::new(f.nodes);
        let rels = Arc::new(f.rels);
        let props = Arc::new(f.props);
        std::thread::scope(|scope| {
            for tid in 0..4u64 {
                let (mgr, nodes, rels, props) =
                    (mgr.clone(), nodes.clone(), rels.clone(), props.clone());
                let ids = ids.clone();
                scope.spawn(move || {
                    let mut x = tid.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                    let mut rng = move || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x
                    };
                    for _ in 0..3000 {
                        let a = ids[(rng() as usize) % ids.len()];
                        let b = ids[(rng() as usize) % ids.len()];
                        if a == b {
                            continue;
                        }
                        let mut t = mgr.begin();
                        let move_one = |t: &mut Txn| -> Result<(), TxnError> {
                            let va = mgr
                                .read(t, TableTag::Node, &nodes, a)?
                                .expect("hot node")
                                .label;
                            let vb = mgr
                                .read(t, TableTag::Node, &nodes, b)?
                                .expect("hot node")
                                .label;
                            mgr.update(t, TableTag::Node, &nodes, a, |n| {
                                n.label = va.wrapping_sub(1)
                            })?;
                            mgr.update(t, TableTag::Node, &nodes, b, |n| {
                                n.label = vb.wrapping_add(1)
                            })?;
                            Ok(())
                        };
                        match move_one(&mut t) {
                            Ok(()) => mgr.commit(t, &nodes, &rels, &props).unwrap(),
                            Err(_) => mgr.abort(t, &nodes, &rels, &props),
                        }
                    }
                });
            }
        });
        let total: u32 = ids
            .iter()
            .map(|&id| nodes.get(id).label)
            .fold(0u32, |acc, v| acc.wrapping_add(v));
        assert_eq!(total, (100 * hot) as u32, "conservation violated");
        nodes.for_each_live(|_, n| assert_eq!(n.txn_id, 0, "dangling lock"));
    }

    #[test]
    fn chunk_dirty_counters_balance_across_commit_and_abort() {
        let f = fixture();
        f.mgr.set_fast_scans(true);
        let cs = f.mgr.chunk_state();

        // Insert, update-own-insert, delete-own-insert: one intent total
        // (the self-locked paths take no extra lock).
        let mut t = f.mgr.begin();
        let id = f
            .mgr
            .insert(&mut t, TableTag::Node, &f.nodes, NodeRecord::new(1))
            .unwrap();
        assert_eq!(cs.dirty_count(TableTag::Node, 0), 1);
        f.mgr
            .update(&mut t, TableTag::Node, &f.nodes, id, |n| n.label = 2)
            .unwrap();
        assert_eq!(cs.dirty_count(TableTag::Node, 0), 1);
        f.mgr.delete(&mut t, TableTag::Node, &f.nodes, id).unwrap();
        assert_eq!(cs.dirty_count(TableTag::Node, 0), 1);
        f.commit(t).unwrap();
        assert_eq!(cs.dirty_count(TableTag::Node, 0), 0);

        // Update of a committed record, then abort.
        let mut t0 = f.mgr.begin();
        let id = f
            .mgr
            .insert(&mut t0, TableTag::Node, &f.nodes, NodeRecord::new(1))
            .unwrap();
        f.commit(t0).unwrap();
        let mut t1 = f.mgr.begin();
        f.mgr
            .update(&mut t1, TableTag::Node, &f.nodes, id, |n| n.label = 5)
            .unwrap();
        assert_eq!(cs.dirty_count(TableTag::Node, 0), 1);
        assert!(
            !f.mgr.try_fast_chunk(TableTag::Node, 0, t1.id + 1),
            "a dirty chunk must never grant the fast path"
        );
        f.abort(t1);
        assert_eq!(cs.dirty_count(TableTag::Node, 0), 0);

        // Update then delete of the same record: one lock, one intent.
        let mut t2 = f.mgr.begin();
        f.mgr
            .update(&mut t2, TableTag::Node, &f.nodes, id, |n| n.label = 6)
            .unwrap();
        f.mgr.delete(&mut t2, TableTag::Node, &f.nodes, id).unwrap();
        assert_eq!(cs.dirty_count(TableTag::Node, 0), 1);
        f.commit(t2).unwrap();
        assert_eq!(cs.dirty_count(TableTag::Node, 0), 0);
        assert!(f.mgr.try_fast_chunk(TableTag::Node, 0, f.mgr.oldest_active_ts()));
    }

    #[test]
    fn a_commit_is_journaled_before_its_chunks_read_clean() {
        let f = &fixture();
        f.mgr.arm_topology_journal();
        let cs = f.mgr.chunk_state();
        let mut t = f.mgr.begin();
        let id = f
            .mgr
            .insert(&mut t, TableTag::Node, &f.nodes, NodeRecord::new(1))
            .unwrap();
        f.mgr.note_topology(&mut t, TopoChange::NodeAdded { id, label: 1 });
        // With the ring held the committer can persist and unlock its
        // record but not journal it — so it must not have retired its
        // write intent either: a snapshot refresh that finds the chunk
        // clean trusts the journal to be complete.
        let ring = f.mgr.topology_journal().hold();
        std::thread::scope(|s| {
            let committer = s.spawn(move || f.commit(t).unwrap());
            while f.nodes.get(id).txn_id() != 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(
                cs.dirty_count(TableTag::Node, chunk_of(id)),
                1,
                "the chunk reads clean before the commit is in the journal"
            );
            drop(ring);
            committer.join().unwrap();
        });
        assert_eq!(cs.dirty_count(TableTag::Node, chunk_of(id)), 0);
        assert_eq!(f.mgr.topology_journal().len(), 1);
    }

    #[test]
    fn failed_persist_aborts_the_transaction() {
        // A pool whose undo log is too small for one transaction that
        // rewrites eight records: the commit fails at the persist, after
        // `prepare_commit` already moved versions and marked the txn
        // finished. It must end as an ordinary abort, not leak.
        let mut path = std::env::temp_dir();
        path.push(format!("gtxn-persist-fail-{}", std::process::id()));
        let f = fixture_on(Arc::new(
            Pool::create_with_log(&path, 64 << 20, pmem::DeviceProfile::dram(), 512).unwrap(),
        ));
        f.mgr.set_fast_scans(true);
        let ids: Vec<RecId> = (0..8)
            .map(|_| {
                let mut t = f.mgr.begin();
                let id = f
                    .mgr
                    .insert(&mut t, TableTag::Node, &f.nodes, NodeRecord::new(1))
                    .unwrap();
                f.commit(t).unwrap();
                id
            })
            .collect();

        let mut big = f.mgr.begin();
        for &id in &ids {
            f.mgr
                .update(&mut big, TableTag::Node, &f.nodes, id, |n| n.label = 2)
                .unwrap();
        }
        f.mgr
            .insert(&mut big, TableTag::Node, &f.nodes, NodeRecord::new(9))
            .unwrap();
        let aborts = f.mgr.stats().aborts.load(Ordering::Relaxed);
        let err = f.commit(big).unwrap_err();
        assert!(matches!(err, TxnError::Pmem(pmem::PmemError::LogFull)), "{err:?}");

        assert_eq!(f.mgr.active_count(), 0, "the failed txn left the active set");
        assert_eq!(f.mgr.stats().aborts.load(Ordering::Relaxed), aborts + 1);
        assert_eq!(f.nodes.live_count(), ids.len(), "its insert was dropped");
        assert_eq!(f.mgr.version_count(), 0, "no staged or history version stays");
        assert_eq!(f.mgr.chunk_state().dirty_count(TableTag::Node, 0), 0);
        assert!(f.mgr.try_fast_chunk(TableTag::Node, 0, f.mgr.oldest_active_ts()));

        // The records are unlocked and unchanged: later writers get them.
        for pair in ids.chunks(2) {
            let mut t = f.mgr.begin();
            for &id in pair {
                let n = f.mgr.read(&t, TableTag::Node, &f.nodes, id).unwrap();
                assert_eq!(n.unwrap().label, 1);
                f.mgr
                    .update(&mut t, TableTag::Node, &f.nodes, id, |n| n.label = 3)
                    .unwrap();
            }
            f.commit(t).unwrap();
        }
        let t = f.mgr.begin();
        for &id in &ids {
            let n = f.mgr.read(&t, TableTag::Node, &f.nodes, id).unwrap();
            assert_eq!(n.unwrap().label, 3);
        }
        f.commit(t).unwrap();
        assert_eq!(f.mgr.active_count(), 0);
        drop(f);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fast_scan_claim_conflicts_older_writer() {
        let f = fixture();
        f.mgr.set_fast_scans(true);
        let mut t0 = f.mgr.begin();
        let id = f
            .mgr
            .insert(&mut t0, TableTag::Node, &f.nodes, NodeRecord::new(1))
            .unwrap();
        f.commit(t0).unwrap();

        let mut writer = f.mgr.begin(); // older
        let reader = f.mgr.begin(); // newer
        assert!(f.mgr.try_fast_chunk(TableTag::Node, 0, reader.id));
        let rec = f
            .mgr
            .read_fast(&reader, TableTag::Node, &f.nodes, id)
            .unwrap();
        assert_eq!(rec.unwrap().label, 1);
        // The fast scan skipped the per-record rts bump; the chunk-grain
        // read_ts must make the older writer conflict all the same.
        let err = f
            .mgr
            .update(&mut writer, TableTag::Node, &f.nodes, id, |n| n.label = 9)
            .unwrap_err();
        assert!(matches!(err, TxnError::WriteConflict));
        f.abort(writer);
        f.commit(reader).unwrap();

        // A newer writer is unaffected by the published read_ts.
        let mut w2 = f.mgr.begin();
        f.mgr
            .update(&mut w2, TableTag::Node, &f.nodes, id, |n| n.label = 2)
            .unwrap();
        f.commit(w2).unwrap();
    }

    #[test]
    fn fast_scans_default_off_and_read_fast_matches_mvto() {
        let f = fixture();
        assert!(!f.mgr.fast_scans());
        assert!(!f.mgr.try_fast_chunk(TableTag::Node, 0, 100));

        f.mgr.set_fast_scans(true);
        // An uncommitted insert in the chunk: read_fast must fall back to
        // the MVTO read and reproduce its exact semantics (invisible to an
        // older snapshot, Locked for a newer one).
        let older = f.mgr.begin();
        let mut w = f.mgr.begin();
        let id = f
            .mgr
            .insert(&mut w, TableTag::Node, &f.nodes, NodeRecord::new(3))
            .unwrap();
        let newer = f.mgr.begin();
        assert!(f
            .mgr
            .read_fast(&older, TableTag::Node, &f.nodes, id)
            .unwrap()
            .is_none());
        assert!(matches!(
            f.mgr
                .read_fast(&newer, TableTag::Node, &f.nodes, id)
                .unwrap_err(),
            TxnError::Locked
        ));
        f.commit(w).unwrap();
        f.commit(older).unwrap();
        f.abort(newer);
    }

    #[test]
    fn lost_rts_bump_after_crash_is_harmless() {
        // Satellite regression: the rts bump in `read_enumerated` is an
        // unflushed CAS. Exercise both crash outcomes — bump survives (the
        // caches happened to reach the media) and bump lost — and verify
        // neither can make a post-restart writer conflict or miss a
        // conflict: restart ids always exceed the persisted high-water
        // mark, which exceeds every pre-crash reader id (DESIGN.md §10).
        for lost in [false, true] {
            let path = std::env::temp_dir()
                .join(format!("gtxn-rts-crash-{}-{}", lost, std::process::id()));
            let _ = std::fs::remove_file(&path);
            let pool = Arc::new(
                Pool::create(&path, 64 << 20, pmem::DeviceProfile::dram())
                    .unwrap()
                    .with_crash_tracking(),
            );
            let mgr = TxnManager::create(pool.clone()).unwrap();
            let nodes: ChunkedTable<NodeRecord> = ChunkedTable::create(pool.clone()).unwrap();
            let rels: ChunkedTable<RelRecord> = ChunkedTable::create(pool.clone()).unwrap();
            let props: ChunkedTable<PropRecord> = ChunkedTable::create(pool.clone()).unwrap();
            let nroot = nodes.root_off();

            let mut t0 = mgr.begin();
            let id = mgr
                .insert(&mut t0, TableTag::Node, &nodes, NodeRecord::new(1))
                .unwrap();
            mgr.commit(t0, &nodes, &rels, &props).unwrap();

            // A reader bumps rts and then the machine dies before any flush
            // of that line.
            let t1 = mgr.begin();
            mgr.read(&t1, TableTag::Node, &nodes, id).unwrap();
            let rts_off = nodes.record_off(id) + NodeRecord::RTS_OFF as u64;
            assert_eq!(pool.read_u64(rts_off), t1.id, "bump visible pre-crash");

            pool.simulate_crash(pmem::CrashPolicy::DropUnflushed).unwrap();
            if lost {
                // The rts CAS goes through an untracked atomic on purpose
                // (it needs no pre-image); model the adversarial outcome —
                // the line never left the caches — by hand.
                pool.atomic_store_u64(rts_off, 0, Ordering::SeqCst);
                pool.persist(rts_off, 8);
            }
            pool.recover().unwrap();

            let nodes2: ChunkedTable<NodeRecord> =
                ChunkedTable::open(pool.clone(), nroot).unwrap();
            let mgr2 = TxnManager::open(pool.clone(), mgr.ts_slot());
            mgr2.recover_table(&nodes2);

            // A post-restart writer must never be aborted by (or because
            // of) the dead reader's rts, whatever happened to the bump.
            let mut w = mgr2.begin();
            assert!(w.id > t1.id, "restart ids start above the persisted hwm");
            mgr2.update(&mut w, TableTag::Node, &nodes2, id, |n| n.label = 2)
                .unwrap();
            mgr2.commit(w, &nodes2, &rels, &props).unwrap();
            let r = mgr2.begin();
            assert_eq!(
                mgr2.read(&r, TableTag::Node, &nodes2, id).unwrap().unwrap().label,
                2
            );
            drop(nodes2);
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn grouped_concurrent_commits_are_correct_and_cheaper() {
        // Disjoint multi-writer commits through the manager with grouping
        // on: all must land, locks must clear, and the group accounting
        // must stay consistent (groups <= commit passes <= write commits).
        let f = fixture();
        f.mgr.set_group_commit(true);
        assert!(f.mgr.group_commit());
        let mut t0 = f.mgr.begin();
        let ids: Vec<u64> = (0..64)
            .map(|i| {
                f.mgr
                    .insert(&mut t0, TableTag::Node, &f.nodes, NodeRecord::new(i))
                    .unwrap()
            })
            .collect();
        f.commit(t0).unwrap();
        let update = |id: u64, label: u32| {
            let mut t = f.mgr.begin();
            f.mgr
                .update(&mut t, TableTag::Node, &f.nodes, id, |n| n.label = label)
                .unwrap();
            f.commit(t).unwrap();
        };

        let before = f.pool.stats().snapshot();
        std::thread::scope(|scope| {
            for tid in 0..8u64 {
                let (ids, update) = (&ids, &update);
                scope.spawn(move || {
                    for round in 0..40u64 {
                        update(ids[(tid * 8 + round % 8) as usize], (tid * 100 + round) as u32);
                    }
                });
            }
        });
        let d = f.pool.stats().snapshot() - before;
        assert_eq!(d.tx_commits, 320, "every writer commit persisted");
        assert!(
            d.commit_groups <= d.tx_commits,
            "grouping can only reduce commit passes"
        );

        // Cheaper, in fences: four writers' record updates that meet in one
        // group pay that group's four fences between them — 1 per
        // transaction, where four ungrouped commits pay 16. The leadership
        // token is held until all four have enqueued, so they must meet.
        let token = f.mgr.commit_pipeline().hold_leadership();
        let before = f.pool.stats().snapshot();
        std::thread::scope(|scope| {
            for tid in 0..4u64 {
                let (ids, update) = (&ids, &update);
                scope.spawn(move || update(ids[tid as usize * 8], 7));
            }
            while f.mgr.commit_pipeline().queued() < 4 {
                std::thread::yield_now();
            }
            drop(token);
        });
        let d = f.pool.stats().snapshot() - before;
        assert_eq!((d.tx_commits, d.commit_groups, d.grouped_txns), (4, 1, 4));
        assert_eq!(d.fences, 4, "one group, one fence budget");

        f.nodes.for_each_live(|_, n| assert_eq!(n.txn_id, 0, "dangling lock"));
        assert_eq!(f.mgr.active_count(), 0, "sharded active set drained");
    }

    #[test]
    fn group_commit_toggle_off_still_commits() {
        let f = fixture();
        f.mgr.set_group_commit(false);
        assert!(!f.mgr.group_commit());
        let mut t = f.mgr.begin();
        let id = f
            .mgr
            .insert(&mut t, TableTag::Node, &f.nodes, NodeRecord::new(5))
            .unwrap();
        f.commit(t).unwrap();
        let mut t2 = f.mgr.begin();
        f.mgr
            .update(&mut t2, TableTag::Node, &f.nodes, id, |n| n.label = 6)
            .unwrap();
        f.commit(t2).unwrap();
        let r = f.mgr.begin();
        assert_eq!(
            f.mgr.read(&r, TableTag::Node, &f.nodes, id).unwrap().unwrap().label,
            6
        );
        f.commit(r).unwrap();
    }

    #[test]
    fn rts_is_updated_by_latest_reader() {
        let f = fixture();
        let mut t0 = f.mgr.begin();
        let id = f
            .mgr
            .insert(&mut t0, TableTag::Node, &f.nodes, NodeRecord::new(1))
            .unwrap();
        f.commit(t0).unwrap();
        let t1 = f.mgr.begin();
        f.mgr.read(&t1, TableTag::Node, &f.nodes, id).unwrap();
        assert_eq!(f.nodes.get(id).rts, t1.id);
        f.commit(t1).unwrap();
    }
}
