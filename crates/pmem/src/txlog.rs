//! PMDK-style undo-log transactions: one commit protocol, three commit
//! points.
//!
//! The paper's commit path (§5.1) uses a PMDK transaction to persist an
//! updated object version that is larger than the 8-byte power-fail atomic
//! unit. Here a transaction is a pre-staged [`TxBatch`] (target ranges and
//! replacement bytes), and one or more batches — a group-commit leader's
//! whole group — run through one private core, `Pool::stage`:
//!
//! | phase | work | fences |
//! |---|---|---|
//! | 0 validate | every range and the total log demand, before the first store: on `Err` the pool is untouched | 0 |
//! | 1 append | one pre-image entry per write from log position `start`, then an optional epoch marker; one coalesced flush | 1 |
//! | 2 publish | the `log_len` header word covers the entries: from here recovery rolls them back | 1 |
//! | 3 apply | every write in place, in batch order; one coalesced flush now, or none (lines join the deferred set) | 1 or 0 |
//!
//! Phase 1 has its own fence because the entries must be durable before
//! `log_len` names them (else recovery restores garbage) and before any
//! in-place store is *issued*: an unflushed store may still reach the
//! media through cache eviction, which `CrashPolicy::Torn` models.
//!
//! The three commit points differ only in the core's parameters and in
//! what ends the transaction:
//!
//! | commit point | entry point | `start` | marker | phase 3 | ended by | fences | crash contract |
//! |---|---|---|---|---|---|---|---|
//! | strict | [`Pool::tx_apply_batches`] | 0, after an implicit checkpoint | no | flush | log truncation ([`PreparedTx::commit`]) | 4 per group | the group is all-or-nothing; acknowledged ⇒ durable |
//! | epoch | [`commit_epoch`] over [`Pool::tx_prepare_batches`] | 0, after an implicit checkpoint | yes | flush | one decision store on the decider pool, then each participant truncates | 3 per participant + 1 + 1 per participant | every participant keeps its prepared writes iff the decider accepts the marker's epoch, so all pools agree |
//! | deferred | [`Pool::tx_apply_deferred`] | the current log tail | no | no flush | [`Pool::checkpoint`]: one coalesced data flush, then truncation | 2 per call + 2 per checkpoint | recovery rolls back the whole un-checkpointed tail: acknowledged transactions may be lost, never torn |
//!
//! Log format: entries `[target: u64][len: u64][data, padded to 8]` packed
//! from the start of the log region; `target == u64::MAX` marks an epoch
//! prepare marker whose 8 data bytes are the epoch id. `append_entry` is
//! the only writer and `log_entries` the only reader; the reader validates
//! the whole log before recovery restores a single byte.
//!
//! Divergence from PMDK: one log region per pool instead of per-thread
//! lanes, so transactions serialise on the pool's `tx_lock`; the engine
//! recovers the concurrency by grouping (`gtxn::commitpipe`).

use std::sync::atomic::Ordering;

use crate::error::{PmemError, Result};
use crate::flushset::FlushSet;
use crate::pool::Pool;

/// Sentinel target offset marking a log entry as a cross-pool epoch
/// prepare marker rather than a pre-image (no real target can sit at
/// `u64::MAX`: entries are bounds-checked against the pool size).
const EPOCH_MARKER: u64 = u64::MAX;

/// Log bytes of an entry carrying `len` data bytes.
fn entry_len(len: usize) -> u64 {
    16 + len.next_multiple_of(8) as u64
}

/// The one log reader: every entry in `[0, log_len)` as `(target, len,
/// data offset)`, oldest first. Nothing is returned unless the whole log
/// is well formed — `log_len` within the log's capacity, every entry inside
/// `[0, log_len)`, every pre-image target inside the pool, a marker only as
/// the last entry — so recovery never acts on a corrupt log.
fn log_entries(pool: &Pool) -> Result<Vec<(u64, usize, u64)>> {
    let (log_off, log_cap) = pool.log_region();
    let valid = pool.log_len();
    let corrupt = |what: &str, pos: u64| {
        PmemError::BadPool(format!(
            "corrupt undo log: {what} at {pos} (log_len {valid})"
        ))
    };
    if valid > log_cap {
        return Err(corrupt("log_len exceeds the log capacity", log_cap));
    }
    let mut entries = Vec::new();
    let mut pos = 0u64;
    while pos < valid {
        if valid - pos < 16 {
            return Err(corrupt("truncated entry header", pos));
        }
        let target = pool.read_u64(log_off + pos);
        let len = pool.read_u64(log_off + pos + 8);
        if len > valid - pos || entry_len(len as usize) > valid - pos {
            return Err(corrupt("entry body past log_len", pos));
        }
        let end = pos + entry_len(len as usize);
        if target == EPOCH_MARKER {
            if len != 8 || end != valid {
                return Err(corrupt("malformed epoch marker", pos));
            }
        } else if pool.check_range(target, len as usize).is_err() {
            return Err(corrupt("entry target outside the pool", pos));
        }
        entries.push((target, len as usize, log_off + pos + 16));
        pos = end;
    }
    Ok(entries)
}

/// Restore the pre-images of `entries` newest-first (overlapping entries
/// must restore the oldest pre-image last), then truncate the log. Epoch
/// markers carry no pre-image and are skipped.
fn rollback(pool: &Pool, entries: &[(u64, usize, u64)]) {
    let mut buf = Vec::new();
    for &(target, len, data) in entries.iter().rev() {
        if target == EPOCH_MARKER {
            continue;
        }
        buf.resize(len, 0);
        pool.read_slice(data, &mut buf);
        pool.write_bytes(target, &buf);
        pool.flush(target, len);
    }
    pool.drain();
    pool.set_log_len(0);
}

/// Recovery entry point: roll back whatever the log still covers — one
/// interrupted strict group, or the whole un-checkpointed deferred tail.
/// When the log ends in an epoch marker the crash fell between a completed
/// prepare (pre-images *and* in-place writes fenced) and the truncation,
/// and `decider` settles it: a decided epoch keeps its writes and only
/// truncates the log, an undecided one rolls back. A corrupt log is
/// reported as [`PmemError::BadPool`] with the pool bytes untouched.
pub(crate) fn recover_with(pool: &Pool, decider: &dyn Fn(u64) -> bool) -> Result<()> {
    let entries = log_entries(pool)?;
    match entries.last() {
        None => {}
        Some(&(EPOCH_MARKER, _, data)) if decider(pool.read_u64(data)) => pool.set_log_len(0),
        Some(_) => rollback(pool, &entries),
    }
    // Any volatile deferred bookkeeping refers to pre-crash state.
    let mut def = pool.deferred.lock();
    def.data.clear();
    def.txns = 0;
    Ok(())
}

/// A group staged on one pool through phases 0–3 and not yet ended: every
/// pre-image is logged and fenced and the in-place writes are applied and
/// fenced. [`PreparedTx::commit`] truncates the log — the strict commit
/// point, and the last step of an epoch participant whose marker in the
/// log names the epoch that decides its fate. The pool's transaction lock
/// is held until then (or until [`PreparedTx::abort`]; drop aborts), so
/// nothing else can truncate the shared log while the prepare is pending.
pub struct PreparedTx<'p> {
    pool: &'p Pool,
    _guard: parking_lot::MutexGuard<'p, ()>,
    ntxns: u64,
    /// The log holds this group's entries (false once ended, and from the
    /// start for a group without a single write).
    logged: bool,
}

impl PreparedTx<'_> {
    /// End the group as committed: truncate the log (flush + fence — the
    /// in-place writes were already fenced during prepare).
    pub fn commit(mut self) {
        if self.logged {
            self.pool.set_log_len(0);
        }
        self.pool.count_group(self.ntxns, self.logged);
        self.logged = false;
    }

    /// Roll the prepared writes back (restores every pre-image, truncates);
    /// dropping does exactly this.
    pub fn abort(self) {}
}

impl Drop for PreparedTx<'_> {
    fn drop(&mut self) {
        // During a panic-driven unwind (the crash injector's `CrashPoint`
        // in particular) the pool must be left exactly as the crash found
        // it: recovery, not this destructor, settles the prepare. So it does
        // a log that no longer reads back as this prepare wrote it.
        if self.logged && !std::thread::panicking() {
            if let Ok(entries) = log_entries(self.pool) {
                rollback(self.pool, &entries);
            }
        }
    }
}

/// Commit one epoch atomically across several pools (the sharded
/// database's cross-shard commit; the *epoch* row of the module table).
/// Each participant's batches are prepared in slice order — callers must
/// use a globally consistent order (the shard router locks ascending
/// shard ids) — then a single failure-atomic store of `epoch` on
/// `decider_pool` decides the whole epoch, and each participant truncates
/// its log. If any prepare fails (validation or log capacity), the
/// already-prepared participants are rolled back and the pools are left
/// untouched.
pub fn commit_epoch(
    participants: &[(&Pool, &[&TxBatch])],
    decider_pool: &Pool,
    epoch: u64,
) -> Result<()> {
    let mut prepared = Vec::with_capacity(participants.len());
    for (pool, batches) in participants {
        // An Err drops `prepared`, aborting every earlier participant.
        prepared.push(pool.tx_prepare_batches(batches, epoch)?);
    }
    decider_pool.persist_committed_epoch(epoch);
    for p in prepared {
        p.commit();
    }
    Ok(())
}

/// Volatile bookkeeping of the deferred commit point: every data line
/// applied in place since the last checkpoint, plus how many transactions
/// did so. The accumulated undo log covers all of it, so a crash rolls the
/// whole tail back.
#[derive(Debug, Default)]
pub(crate) struct DeferredState {
    /// Dirty data lines awaiting the checkpoint's one coalesced flush.
    data: FlushSet,
    /// Transactions applied since the last checkpoint.
    txns: u64,
}

/// A pre-staged atomic write set: every target range and its replacement
/// bytes, collected *before* the undo log is touched. A batch is inert
/// data — which is what lets a group-commit leader merge many
/// transactions' batches into one log append, one coalesced flush pass per
/// phase, and a single log truncation ([`Pool::tx_apply_batches`]).
#[derive(Debug, Default)]
pub struct TxBatch {
    /// `(target offset, replacement bytes)` in application order.
    writes: Vec<(u64, Box<[u8]>)>,
}

impl TxBatch {
    /// An empty batch.
    pub fn new() -> TxBatch {
        TxBatch { writes: Vec::new() }
    }

    /// Stage a byte-range overwrite. Ranges may overlap earlier writes of
    /// the same batch; application order is preserved.
    pub fn write_bytes(&mut self, off: u64, data: &[u8]) {
        self.writes.push((off, data.into()));
    }

    /// Stage one aligned u64 store.
    pub fn write_u64(&mut self, off: u64, val: u64) {
        self.writes
            .push((off, Box::new(val.to_le_bytes()) as Box<[u8]>));
    }

    /// True if nothing was staged.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Number of staged writes.
    pub fn write_count(&self) -> usize {
        self.writes.len()
    }
}

/// Every write of a group, in application order.
fn writes<'a>(batches: &'a [&TxBatch]) -> impl Iterator<Item = (u64, &'a [u8])> {
    batches
        .iter()
        .flat_map(|b| b.writes.iter().map(|(off, data)| (*off, &data[..])))
}

impl Pool {
    /// The one log-entry writer: `[target][len][body]` at pool offset
    /// `entry`, `body` being the data padded to 8 bytes. Returns the
    /// entry's size.
    fn append_entry(
        &self,
        entry: u64,
        target: u64,
        len: usize,
        body: &[u8],
        fs: &mut FlushSet,
    ) -> u64 {
        debug_assert_eq!(16 + body.len() as u64, entry_len(len));
        self.write_u64(entry, target);
        self.write_u64(entry + 8, len as u64);
        self.write_bytes(entry + 16, body);
        fs.add(entry, 16 + body.len());
        entry_len(len)
    }

    /// The protocol core, phases 0–3 of the module table; the caller holds
    /// `tx_lock` and ends the transaction. Appends from log position
    /// `start`, adds a trailing marker for `epoch` if given, and either
    /// flushes the applied lines or (`defer`) hands them to the deferred
    /// set. Returns whether anything was logged: a group without a single
    /// write touches nothing.
    fn stage(
        &self,
        batches: &[&TxBatch],
        start: u64,
        epoch: Option<u64>,
        defer: bool,
    ) -> Result<bool> {
        // Phase 0: validate before the first store.
        let (log_off, log_cap) = self.log_region();
        let mut need = if epoch.is_some() { entry_len(8) } else { 0 };
        for (off, data) in writes(batches) {
            self.check_range(off, data.len())?;
            need += entry_len(data.len());
        }
        if start + need > log_cap {
            return Err(PmemError::LogFull);
        }
        if need == 0 {
            return Ok(false);
        }

        // Phase 1: append every pre-image (and the marker), flush each
        // line once, fence.
        let mut fs = FlushSet::new();
        let mut pos = start;
        let mut snap_bytes = 0u64;
        let mut body = Vec::new();
        for (off, data) in writes(batches) {
            body.clear();
            body.resize(data.len().next_multiple_of(8), 0);
            self.read_slice(off, &mut body[..data.len()]);
            pos += self.append_entry(log_off + pos, off, data.len(), &body, &mut fs);
            snap_bytes += data.len() as u64;
        }
        if let Some(epoch) = epoch {
            pos += self.append_entry(
                log_off + pos,
                EPOCH_MARKER,
                8,
                &epoch.to_le_bytes(),
                &mut fs,
            );
        }
        fs.flush_all(self);
        self.drain();

        // Phase 2: publish the log, with its own fence.
        self.set_log_len(pos);

        // Phase 3: apply in place, in order.
        fs.clear();
        for (off, data) in writes(batches) {
            self.write_bytes(off, data);
            fs.add(off, data.len());
        }
        if defer {
            let mut def = self.deferred.lock();
            def.data.merge(&fs);
            def.txns += batches.len() as u64;
        } else {
            fs.flush_all(self);
            self.drain();
        }
        self.stats()
            .local()
            .tx_snapshot_bytes
            .fetch_add(snap_bytes, Ordering::Relaxed);
        Ok(true)
    }

    /// Account one ended group of `ntxns` transactions (`logged`: it went
    /// through the log rather than being empty).
    fn count_group(&self, ntxns: u64, logged: bool) {
        let stats = self.stats().local();
        stats.tx_commits.fetch_add(ntxns, Ordering::Relaxed);
        if logged {
            stats.commit_groups.fetch_add(1, Ordering::Relaxed);
            if ntxns > 1 {
                stats.grouped_txns.fetch_add(ntxns, Ordering::Relaxed);
            }
        }
    }

    /// Stage a group at the head of an empty log and keep the lock.
    fn prepare(&self, batches: &[&TxBatch], epoch: Option<u64>) -> Result<PreparedTx<'_>> {
        let guard = self.tx_lock.lock();
        // Implicit checkpoint: a pending deferred tail must become durable
        // before this transaction truncates the log that covers it.
        self.checkpoint_locked();
        debug_assert_eq!(self.log_len(), 0, "log must be empty between txs");
        let logged = self.stage(batches, 0, epoch, false)?;
        Ok(PreparedTx {
            pool: self,
            _guard: guard,
            ntxns: batches.len() as u64,
            logged,
        })
    }

    /// Strict commit: apply one or more [`TxBatch`]es as a single atomic
    /// undo-log transaction — prepare, then truncate the log, the one
    /// commit point of the entire group. **Four** fences whatever the
    /// number of batches or writes. No transaction of the group is
    /// reported committed before the truncation, so rolling the whole
    /// group back never revokes an acknowledged commit. On `Err`
    /// (validation, [`PmemError::LogFull`]) the pool is untouched.
    pub fn tx_apply_batches(&self, batches: &[&TxBatch]) -> Result<()> {
        self.prepare(batches, None)?.commit();
        Ok(())
    }

    /// Prepare [`TxBatch`]es on this pool as one participant of a
    /// cross-pool epoch commit ([`commit_epoch`]): the strict protocol
    /// with a trailing marker for `epoch` in the log, stopped before the
    /// truncation (three fences). The writes are durable before this
    /// returns, which is what lets a decided epoch recover without redo
    /// information; and since the log demand (marker included) is
    /// validated up front, nothing but the epoch decision can fail the
    /// commit once every participant's prepare has returned `Ok`.
    pub fn tx_prepare_batches(&self, batches: &[&TxBatch], epoch: u64) -> Result<PreparedTx<'_>> {
        self.prepare(batches, Some(epoch))
    }

    /// Deferred commit: log [`TxBatch`]es at the tail of the accumulating
    /// undo log and apply them in place, but neither flush the data nor
    /// truncate — two fences per call. [`Pool::checkpoint`] ends all
    /// transactions applied this way at once. They may be lost on a
    /// crash, but the pool always recovers to the last checkpoint (the
    /// `SyncMode::EveryN`/`CheckpointOnly` ladder in `gtxn` builds on
    /// exactly this guarantee).
    ///
    /// Returns [`PmemError::LogFull`] without touching the pool when the
    /// accumulated log cannot take this call's entries; the caller should
    /// checkpoint and retry.
    pub fn tx_apply_deferred(&self, batches: &[&TxBatch]) -> Result<()> {
        let _g = self.tx_lock.lock();
        let logged = self.stage(batches, self.log_len(), None, true)?;
        self.count_group(batches.len() as u64, logged);
        if logged {
            self.stats()
                .local()
                .deferred_txns
                .fetch_add(batches.len() as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Checkpoint the deferred tail: flush every data line deferred by
    /// [`Pool::tx_apply_deferred`] in one coalesced pass, fence, and
    /// truncate the undo log. After this returns, everything applied
    /// before the call is durable and survives any crash. A no-op (zero
    /// fences) when nothing is deferred.
    pub fn checkpoint(&self) -> Result<()> {
        let _g = self.tx_lock.lock();
        self.checkpoint_locked();
        Ok(())
    }

    /// True if un-checkpointed deferred transactions are pending.
    pub fn deferred_pending(&self) -> bool {
        self.deferred.lock().txns > 0
    }

    /// Checkpoint body; caller must hold `tx_lock`.
    fn checkpoint_locked(&self) {
        let mut def = self.deferred.lock();
        if def.txns == 0 && def.data.is_empty() && self.log_len() == 0 {
            return;
        }
        // Data durable first, then the truncation that discards its undo
        // coverage — the same order as phase 3 → truncation when strict.
        def.data.flush_all(self);
        def.data.clear();
        def.txns = 0;
        drop(def);
        self.drain();
        self.set_log_len(0);
        self.stats().local().checkpoints.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{CrashPoint, CrashPolicy};
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn pool() -> Pool {
        Pool::volatile(8 << 20).unwrap().with_crash_tracking()
    }

    /// Power fails after `b` was prepared (logged, published, applied) and
    /// before its log truncation. Leaks the pool's transaction lock, which
    /// recovery does not take.
    fn crash_before_truncation(p: &Pool, b: &TxBatch) {
        std::mem::forget(p.prepare(&[b], None).unwrap());
        p.simulate_crash(CrashPolicy::DropUnflushed).unwrap();
    }

    #[test]
    fn batched_commit_applies_all_batches_with_four_fences() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        let b = p.alloc(64).unwrap();
        let c = p.alloc(256).unwrap();
        let mut b1 = TxBatch::new();
        b1.write_u64(a, 1);
        b1.write_bytes(c, &[9u8; 100]);
        let mut b2 = TxBatch::new();
        b2.write_u64(b, 2);
        let before = p.stats().snapshot();
        p.tx_apply_batches(&[&b1, &b2]).unwrap();
        let d = p.stats().snapshot() - before;
        assert_eq!(p.read_u64(a), 1);
        assert_eq!(p.read_u64(b), 2);
        let mut buf = [0u8; 100];
        p.read_slice(c, &mut buf);
        assert_eq!(buf, [9u8; 100]);
        assert_eq!(p.log_len(), 0);
        assert_eq!(d.fences, 4, "fixed fence budget per group");
        assert_eq!(d.tx_commits, 2);
        assert_eq!(d.commit_groups, 1);
        assert_eq!(d.grouped_txns, 2);
    }

    #[test]
    fn batched_commit_overlapping_writes_apply_in_order() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        let mut b1 = TxBatch::new();
        b1.write_bytes(a, &[1u8; 16]);
        let mut b2 = TxBatch::new();
        b2.write_u64(a, u64::from_le_bytes([2u8; 8]));
        p.tx_apply_batches(&[&b1, &b2]).unwrap();
        let mut buf = [0u8; 16];
        p.read_slice(a, &mut buf);
        assert_eq!(&buf[..8], &[2u8; 8], "later batch wins the overlap");
        assert_eq!(&buf[8..], &[1u8; 8]);
    }

    #[test]
    fn batched_commit_validates_before_any_store() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.write_u64(a, 5);
        p.persist(a, 8);
        let before = p.stats().snapshot();
        let mut bad = TxBatch::new();
        bad.write_u64(a, 6);
        bad.write_u64(u64::MAX - 64, 7); // out of range
        let r = p.tx_apply_batches(&[&bad]);
        assert!(matches!(r, Err(PmemError::BadOffset { .. })));
        let d = p.stats().snapshot() - before;
        assert_eq!(p.read_u64(a), 5, "pool untouched on validation failure");
        assert_eq!(d.write_bytes, 0);
        assert_eq!(p.log_len(), 0);
    }

    #[test]
    fn batched_commit_reports_log_full_without_stores() {
        let mut path = std::env::temp_dir();
        path.push(format!("pmem-batch-logfull-{}", std::process::id()));
        let p = crate::Pool::create_with_log(&path, 4 << 20, crate::DeviceProfile::dram(), 256)
            .unwrap();
        let a = p.alloc(1024).unwrap();
        let mut b1 = TxBatch::new();
        b1.write_bytes(a, &[0u8; 200]); // 16 + 200 = 216 log bytes
        let mut b2 = TxBatch::new();
        b2.write_bytes(a, &[1u8; 200]); // combined demand 432 > 256
        let r = p.tx_apply_batches(&[&b1, &b2]);
        assert!(matches!(r, Err(PmemError::LogFull)));
        assert_eq!(p.log_len(), 0);
        drop(p);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_batches_commit_without_touching_the_pool() {
        let p = pool();
        let before = p.stats().snapshot();
        let b1 = TxBatch::new();
        let b2 = TxBatch::new();
        assert!(b1.is_empty());
        p.tx_apply_batches(&[&b1, &b2]).unwrap();
        let d = p.stats().snapshot() - before;
        assert_eq!(d.fences, 0);
        assert_eq!(d.write_bytes, 0);
        assert_eq!(d.tx_commits, 2);
    }

    #[test]
    fn deferred_commit_costs_two_fences_and_checkpoint_two_more() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        let b = p.alloc(64).unwrap();
        let before = p.stats().snapshot();
        let mut b1 = TxBatch::new();
        b1.write_u64(a, 1);
        p.tx_apply_deferred(&[&b1]).unwrap();
        let mut b2 = TxBatch::new();
        b2.write_u64(b, 2);
        p.tx_apply_deferred(&[&b2]).unwrap();
        let mid = p.stats().snapshot() - before;
        assert_eq!(mid.fences, 4, "two fences per deferred call");
        assert_eq!(mid.deferred_txns, 2);
        assert_eq!(mid.checkpoints, 0);
        assert!(p.deferred_pending());
        assert!(p.log_len() > 0, "log accumulates across deferred calls");
        assert_eq!(p.read_u64(a), 1);
        assert_eq!(p.read_u64(b), 2);

        p.checkpoint().unwrap();
        let after = p.stats().snapshot() - before;
        assert_eq!(after.fences, 6, "checkpoint drains with two fences");
        assert_eq!(after.checkpoints, 1);
        assert!(!p.deferred_pending());
        assert_eq!(p.log_len(), 0);
        // Idempotent: a second checkpoint with nothing pending is free.
        p.checkpoint().unwrap();
        assert_eq!((p.stats().snapshot() - before).fences, 6);
    }

    #[test]
    fn checkpoint_makes_deferred_tail_survive_crash() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.write_u64(a, 7);
        p.persist(a, 8);
        let mut b1 = TxBatch::new();
        b1.write_u64(a, 8);
        p.tx_apply_deferred(&[&b1]).unwrap();
        p.checkpoint().unwrap();
        p.simulate_crash(CrashPolicy::DropUnflushed).unwrap();
        p.recover().unwrap();
        assert_eq!(p.read_u64(a), 8, "checkpointed write is durable");
    }

    #[test]
    fn strict_paths_checkpoint_a_pending_deferred_tail_first() {
        // A strict transaction truncates the log; if a deferred tail were
        // still covered by it, truncation would orphan unflushed data. Both
        // strict entry points must drain the tail first.
        let p = pool();
        let a = p.alloc(64).unwrap();
        let b = p.alloc(64).unwrap();
        let mut d = TxBatch::new();
        d.write_u64(a, 1);
        p.tx_apply_deferred(&[&d]).unwrap();
        assert!(p.deferred_pending());
        let mut s = TxBatch::new();
        s.write_u64(b, 2);
        p.tx_apply_batches(&[&s]).unwrap();
        assert!(!p.deferred_pending(), "tx_apply_batches drains the tail");
        assert_eq!(p.stats().snapshot().checkpoints, 1);
        // The drained deferred write is now durable even after a crash.
        p.simulate_crash(CrashPolicy::DropUnflushed).unwrap();
        p.recover().unwrap();
        assert_eq!(p.read_u64(a), 1);
        assert_eq!(p.read_u64(b), 2);

        let mut d2 = TxBatch::new();
        d2.write_u64(a, 3);
        p.tx_apply_deferred(&[&d2]).unwrap();
        let mut s2 = TxBatch::new();
        s2.write_u64(b, 4);
        p.tx_prepare_batches(&[&s2], 1).unwrap().commit();
        assert!(
            !p.deferred_pending(),
            "tx_prepare_batches drains the tail too"
        );
        p.simulate_crash(CrashPolicy::DropUnflushed).unwrap();
        p.recover().unwrap();
        assert_eq!(p.read_u64(a), 3);
        assert_eq!(p.read_u64(b), 4);
    }

    #[test]
    fn deferred_log_full_reported_and_checkpoint_unblocks() {
        let mut path = std::env::temp_dir();
        path.push(format!("pmem-deferred-logfull-{}", std::process::id()));
        let p = crate::Pool::create_with_log(&path, 4 << 20, crate::DeviceProfile::dram(), 256)
            .unwrap();
        let a = p.alloc(1024).unwrap();
        let mut b1 = TxBatch::new();
        b1.write_bytes(a, &[1u8; 100]); // 16 + 104 = 120 log bytes
        p.tx_apply_deferred(&[&b1]).unwrap();
        let mut b2 = TxBatch::new();
        b2.write_bytes(a, &[2u8; 100]); // accumulated 240 ≤ 256, fits
        p.tx_apply_deferred(&[&b2]).unwrap();
        let mut b3 = TxBatch::new();
        b3.write_bytes(a, &[3u8; 100]); // would exceed the 256-byte log
        let r = p.tx_apply_deferred(&[&b3]);
        assert!(matches!(r, Err(PmemError::LogFull)));
        // The caller's recovery: checkpoint, then retry.
        p.checkpoint().unwrap();
        p.tx_apply_deferred(&[&b3]).unwrap();
        let mut buf = [0u8; 100];
        p.read_slice(a, &mut buf);
        assert_eq!(buf, [3u8; 100]);
        drop(p);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn prepared_tx_commit_applies_and_abort_rolls_back() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        let b = p.alloc(64).unwrap();
        p.write_u64(a, 1);
        p.write_u64(b, 2);
        p.persist(a, 8);
        p.persist(b, 8);

        let mut batch = TxBatch::new();
        batch.write_u64(a, 10);
        let prep = p.tx_prepare_batches(&[&batch], 1).unwrap();
        assert_eq!(p.read_u64(a), 10, "prepare applies in place");
        assert!(p.log_len() > 0, "log still owns the prepare");
        prep.commit();
        assert_eq!(p.log_len(), 0);
        assert_eq!(p.read_u64(a), 10);

        let mut batch = TxBatch::new();
        batch.write_u64(b, 20);
        let prep = p.tx_prepare_batches(&[&batch], 2).unwrap();
        assert_eq!(p.read_u64(b), 20);
        prep.abort();
        assert_eq!(p.read_u64(b), 2, "abort restores the pre-image");
        assert_eq!(p.log_len(), 0);

        // Dropping without commit aborts too.
        let mut batch = TxBatch::new();
        batch.write_u64(b, 30);
        drop(p.tx_prepare_batches(&[&batch], 3).unwrap());
        assert_eq!(p.read_u64(b), 2);
        assert_eq!(p.log_len(), 0);
    }

    #[test]
    fn prepare_fence_budget_is_three_plus_one_to_finish() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        let mut batch = TxBatch::new();
        batch.write_u64(a, 1);
        let before = p.stats().snapshot();
        let prep = p.tx_prepare_batches(&[&batch], 1).unwrap();
        assert_eq!((p.stats().snapshot() - before).fences, 3);
        prep.commit();
        assert_eq!((p.stats().snapshot() - before).fences, 4);
    }

    #[test]
    fn recover_with_decider_settles_a_trailing_marker() {
        // Crash between prepare and truncation: the epoch decision alone
        // determines whether the prepared write survives recovery.
        for decided in [false, true] {
            let p = pool();
            let a = p.alloc(64).unwrap();
            p.write_u64(a, 7);
            p.persist(a, 8);
            let mut batch = TxBatch::new();
            batch.write_u64(a, 8);
            let prep = p.tx_prepare_batches(&[&batch], 5).unwrap();
            std::mem::forget(prep); // crash: no commit, no abort
            p.simulate_crash(CrashPolicy::DropUnflushed).unwrap();
            p.recover_with(&|e| decided && e == 5).unwrap();
            let expect = if decided { 8 } else { 7 };
            assert_eq!(p.read_u64(a), expect, "decided={decided}");
            assert_eq!(p.log_len(), 0);
        }
    }

    #[test]
    fn failed_prepare_aborts_earlier_participants() {
        let mut path = std::env::temp_dir();
        path.push(format!("pmem-epoch-logfull-{}", std::process::id()));
        let p0 = pool();
        let p1 = crate::Pool::create_with_log(&path, 4 << 20, crate::DeviceProfile::dram(), 64)
            .unwrap();
        let a = p0.alloc(64).unwrap();
        let b = p1.alloc(1024).unwrap();
        p0.write_u64(a, 1);
        p0.persist(a, 8);
        let mut b0 = TxBatch::new();
        b0.write_u64(a, 11);
        let mut b1 = TxBatch::new();
        b1.write_bytes(b, &[9u8; 512]); // exceeds p1's 64-byte log
        let r = commit_epoch(&[(&p0, &[&b0]), (&p1, &[&b1])], &p0, 1);
        assert!(matches!(r, Err(PmemError::LogFull)));
        assert_eq!(p0.read_u64(a), 1, "first participant rolled back");
        assert_eq!(p0.log_len(), 0);
        assert_eq!(p0.committed_epoch(), 0, "epoch never decided");
        drop(p1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn peek_committed_epoch_reads_without_recovery() {
        let mut path = std::env::temp_dir();
        path.push(format!("pmem-peek-epoch-{}", std::process::id()));
        {
            let p = crate::Pool::create(&path, 4 << 20, crate::DeviceProfile::dram()).unwrap();
            assert_eq!(crate::Pool::peek_committed_epoch(&path).unwrap(), 0);
            p.persist_committed_epoch(7);
        }
        assert_eq!(crate::Pool::peek_committed_epoch(&path).unwrap(), 7);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn log_full_is_reported() {
        let mut path = std::env::temp_dir();
        path.push(format!("pmem-logfull-{}", std::process::id()));
        let p = crate::Pool::create_with_log(&path, 4 << 20, crate::DeviceProfile::dram(), 256)
            .unwrap();
        let a = p.alloc(1024).unwrap();
        let mut b = TxBatch::new();
        b.write_bytes(a, &[0u8; 1024]); // needs 16 + 1024 > 256 log bytes
        assert!(matches!(p.tx_apply_batches(&[&b]), Err(PmemError::LogFull)));
        drop(p);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn overlapping_snapshots_restore_oldest_pre_image() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.write_u64(a, 1);
        p.persist(a, 8);
        // Across deferred calls the later entry's pre-image is the earlier
        // call's value; inside one batch every pre-image is the old value.
        let mut b1 = TxBatch::new();
        b1.write_bytes(a, &[2u8; 16]);
        p.tx_apply_deferred(&[&b1]).unwrap();
        let mut b2 = TxBatch::new();
        b2.write_u64(a, 3);
        b2.write_u64(a, 4);
        p.tx_apply_deferred(&[&b2]).unwrap();
        p.simulate_crash(CrashPolicy::DropUnflushed).unwrap();
        p.recover().unwrap();
        assert_eq!(
            p.read_u64(a),
            1,
            "rollback must restore the value before the tail"
        );
        assert_eq!(p.read_u64(a + 8), 0);
    }

    #[test]
    fn recovery_is_idempotent() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.write_u64(a, 5);
        p.persist(a, 8);
        let mut b = TxBatch::new();
        b.write_u64(a, 6);
        crash_before_truncation(&p, &b);
        p.recover().unwrap();
        p.recover().unwrap();
        assert_eq!(p.read_u64(a), 5);
    }

    // ------------------------------------------------------------------
    // One crash oracle for every commit point
    // ------------------------------------------------------------------

    /// Byte sizes of the cells every sweep pool carries: one failure-atomic
    /// word and one range spanning several cache lines (tearable).
    const CELLS: [usize; 2] = [8, 300];
    /// One staged write: fill the whole cell `.0` with the byte `.1`.
    type Fill = (usize, u8);
    /// `[pool][cell]` contents.
    type State = Vec<Vec<Vec<u8>>>;

    enum Step {
        /// One `tx_apply_batches` group on pool 0.
        Strict(&'static [&'static [Fill]]),
        /// One `tx_apply_deferred` group on pool 0.
        Deferred(&'static [&'static [Fill]]),
        /// `checkpoint` on pool 0.
        Checkpoint,
        /// One `commit_epoch`: batch `i` is pool `i`'s.
        Epoch(&'static [&'static [Fill]]),
    }
    use Step::*;

    impl Step {
        /// The step's batches as `(pool, fills)`; none for a checkpoint.
        fn placed(&self) -> Vec<(usize, &'static [Fill])> {
            match self {
                Strict(group) | Deferred(group) => group.iter().map(|f| (0, *f)).collect(),
                Epoch(per_pool) => per_pool.iter().copied().enumerate().collect(),
                Checkpoint => Vec::new(),
            }
        }
    }

    /// `(name, pools, steps)`. Every group writes a fresh byte, so each
    /// prefix of groups is a distinct state; groups overlap earlier groups
    /// and, inside one group, earlier batches.
    const SCENARIOS: &[(&str, usize, &[Step])] = &[
        (
            "strict single",
            1,
            &[Strict(&[&[(0, 1), (1, 1)]]), Strict(&[&[(1, 2)]])],
        ),
        (
            "strict group",
            1,
            &[
                Strict(&[&[(0, 1)], &[(1, 1)]]),
                Strict(&[&[(1, 2), (0, 2)], &[(0, 3)]]),
            ],
        ),
        (
            "deferred tail",
            1,
            &[
                Deferred(&[&[(0, 1)]]),
                Deferred(&[&[(0, 2)], &[(1, 2)]]),
                Deferred(&[&[(0, 3)]]),
                Checkpoint, // the only flushes that see the whole tail in the log
            ],
        ),
        (
            "deferred + checkpoint",
            1,
            &[
                Deferred(&[&[(0, 1)]]),
                Deferred(&[&[(1, 2)]]),
                Checkpoint,
                Deferred(&[&[(0, 3)]]),
                Strict(&[&[(1, 4)]]), // checkpoints the tail implicitly
                Deferred(&[&[(0, 5), (1, 5)]]),
            ],
        ),
        (
            "epoch across two pools",
            2,
            &[
                Epoch(&[&[(0, 1)], &[(1, 1)]]),
                Epoch(&[&[(1, 2)], &[(0, 2), (1, 2)]]),
            ],
        ),
    ];

    /// The states a crash may recover to: `[k]` is the state after the
    /// first `k` groups.
    fn model(npools: usize, steps: &[Step]) -> Vec<State> {
        let cells = || CELLS.iter().map(|&n| vec![0xEE; n]).collect();
        let mut cur: State = (0..npools).map(|_| cells()).collect();
        let mut states = vec![cur.clone()];
        for step in steps.iter().filter(|s| !matches!(s, Checkpoint)) {
            for (pool, fills) in step.placed() {
                for &(cell, byte) in fills {
                    cur[pool][cell].fill(byte);
                }
            }
            states.push(cur.clone());
        }
        states
    }

    fn observe(pools: &[Pool], offs: &[[u64; 2]]) -> State {
        let cell = |p: &Pool, off, n| {
            let mut buf = vec![0u8; n];
            p.read_slice(off, &mut buf);
            buf
        };
        let cells =
            |(p, offs): (&Pool, &[u64; 2])| (0..2).map(|c| cell(p, offs[c], CELLS[c])).collect();
        pools.iter().zip(offs).map(cells).collect()
    }

    /// Run `steps` through the public entry points. `acked` counts the
    /// groups whose call returned, `durable` how many of those a crash may
    /// no longer take back, `in_group` whether the running step is a group.
    fn run(
        steps: &[Step],
        pools: &[Pool],
        offs: &[[u64; 2]],
        (acked, durable, in_group): (&Cell<usize>, &Cell<usize>, &Cell<bool>),
    ) {
        let mut epoch = 0;
        for step in steps {
            in_group.set(!matches!(step, Checkpoint));
            let batches: Vec<TxBatch> = step
                .placed()
                .into_iter()
                .map(|(pool, fills)| {
                    let mut b = TxBatch::new();
                    for &(cell, byte) in fills {
                        b.write_bytes(offs[pool][cell], &vec![byte; CELLS[cell]]);
                    }
                    b
                })
                .collect();
            let group: Vec<&TxBatch> = batches.iter().collect();
            match step {
                Strict(_) => pools[0].tx_apply_batches(&group).unwrap(),
                Deferred(_) => pools[0].tx_apply_deferred(&group).unwrap(),
                Checkpoint => pools[0].checkpoint().unwrap(),
                Epoch(_) => {
                    epoch += 1;
                    let parts: Vec<(&Pool, &[&TxBatch])> =
                        pools.iter().zip(group.chunks(1)).collect();
                    commit_epoch(&parts, &pools[0], epoch).unwrap();
                }
            }
            acked.set(acked.get() + in_group.get() as usize);
            if !matches!(step, Deferred(_)) {
                durable.set(acked.get());
            }
        }
    }

    /// The module's crash contract, as code. After a crash and recovery
    /// every log is empty and nothing is pending; the pools *together* show
    /// the state after one prefix `k` of the groups, so every group is
    /// all-or-nothing and all participants of an epoch agree; `durable <=
    /// k <= started`, so nothing durable is lost and nothing that never
    /// started appears; and recovering again changes nothing.
    fn assert_recovers_to_a_prefix(
        pools: &[Pool],
        offs: &[[u64; 2]],
        states: &[State],
        (durable, started): (usize, usize),
        ctx: &str,
    ) {
        let recover = || {
            let decided = pools[0].committed_epoch();
            for p in pools {
                p.recover_with(&|e| e <= decided).unwrap();
                assert_eq!(p.log_len(), 0, "{ctx}");
                assert!(!p.deferred_pending(), "{ctx}");
            }
            observe(pools, offs)
        };
        let seen = recover();
        let prefix = (durable..=started).find(|&k| states[k] == seen);
        let firsts = |s: &State| -> Vec<Vec<u8>> {
            s.iter().map(|p| p.iter().map(|c| c[0]).collect()).collect()
        };
        assert!(
            prefix.is_some(),
            "{ctx}: recovered to no prefix of groups {durable}..={started}; \
             first bytes {:?}, wanted one of {:?}",
            firsts(&seen),
            states[durable..=started]
                .iter()
                .map(firsts)
                .collect::<Vec<_>>()
        );
        assert_eq!(recover(), seen, "{ctx}: recovery is not idempotent");
    }

    #[test]
    fn crash_sweep_every_commit_point_recovers_to_a_prefix() {
        use CrashPolicy::*;
        for &(name, npools, steps) in SCENARIOS {
            let states = model(npools, steps);
            for policy in [DropUnflushed, Torn(1), Torn(42)] {
                for victim in 0..npools {
                    // Crash `victim` at every flushed line until the
                    // scenario runs to its end.
                    for crash_at in 0.. {
                        let ctx = format!("{name}, {policy:?}, pool {victim} line {crash_at}");
                        let pools: Vec<Pool> = (0..npools).map(|_| pool()).collect();
                        let offs: Vec<[u64; 2]> = pools
                            .iter()
                            .map(|p| {
                                let offs = CELLS.map(|n| p.alloc(n).unwrap());
                                for (off, n) in offs.iter().zip(CELLS) {
                                    p.write_bytes(*off, &vec![0xEE; n]);
                                    p.persist(*off, n);
                                }
                                offs
                            })
                            .collect();
                        let (acked, durable, in_group) =
                            (Cell::new(0), Cell::new(0), Cell::new(false));
                        pools[victim].inject_crash_after_flushes(crash_at);
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            run(steps, &pools, &offs, (&acked, &durable, &in_group))
                        }));
                        pools[victim].clear_crash_injection();
                        let Err(panic) = outcome else {
                            assert_eq!(observe(&pools, &offs), states[acked.get()], "{ctx}");
                            assert_eq!(acked.get(), states.len() - 1, "{ctx}");
                            break;
                        };
                        assert!(
                            panic.downcast_ref::<CrashPoint>().is_some(),
                            "{ctx}: not a crash"
                        );
                        for (i, p) in pools.iter().enumerate() {
                            let policy = match policy {
                                Torn(seed) => Torn(seed ^ (i as u64 * 0xabcd)),
                                p => p,
                            };
                            p.simulate_crash(policy).unwrap();
                        }
                        let started = acked.get() + in_group.get() as usize;
                        assert_recovers_to_a_prefix(
                            &pools,
                            &offs,
                            &states,
                            (durable.get(), started),
                            &ctx,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn corrupt_log_is_a_typed_error_and_restores_nothing() {
        // A crash mid-commit leaves two published entries; one flipped word
        // in the log header or in an entry header must fail recovery with a
        // typed error — no panic, no giant allocation — before any restore.
        type Corrupt = fn(&Pool);
        let corruptions: [(&str, Corrupt); 4] = [
            ("log_len", |p| p.set_log_len(p.log_region().1 + 8)),
            ("entry len", |p| p.write_u64(p.log_region().0 + 8, 1 << 40)),
            ("entry off", |p| {
                p.write_u64(p.log_region().0, p.size() as u64 - 4)
            }),
            ("early marker", |p| {
                p.write_u64(p.log_region().0, EPOCH_MARKER)
            }),
        ];
        for (what, corrupt) in corruptions {
            let p = pool();
            let a = p.alloc(64).unwrap();
            p.write_u64(a, 7);
            p.persist(a, 8);
            let mut b = TxBatch::new();
            b.write_u64(a, 8);
            b.write_u64(a + 8, 9);
            crash_before_truncation(&p, &b);
            corrupt(&p);
            let image = |p: &Pool| {
                let mut buf = vec![0u8; p.size()];
                p.read_slice(0, &mut buf);
                buf
            };
            let before = image(&p);
            match p.recover() {
                Err(PmemError::BadPool(msg)) => {
                    assert!(msg.starts_with("corrupt undo log"), "{what}: {msg}")
                }
                r => panic!("{what}: expected a corrupt-log error, got {r:?}"),
            }
            assert!(
                image(&p) == before,
                "{what}: a failed recovery changed the pool"
            );
        }
    }
}
