//! Group commit: a leader/follower batched commit pipeline.
//!
//! Every committer stages its PMem writes into a [`pmem::TxBatch`] and
//! enqueues it here. One committer — whoever grabs the leadership token
//! first — drains the queue and applies the whole group through
//! [`pmem::Pool::tx_apply_batches`]: one coalesced flush pass per phase,
//! one fence per phase (four per *group* instead of four per transaction)
//! and a single log truncation that is the atomic commit point for every
//! transaction in the group. Followers block on a per-batch slot until the
//! leader posts their result.
//!
//! Latency is bounded: the leader only waits for stragglers (up to
//! `PMEMGRAPH_GROUP_WAIT_US`, default 3 µs) while the workload looks
//! multi-writer — a second thread enqueued a batch within the last few
//! milliseconds — so a single-writer workload runs leader-only with zero added waiting
//! and degenerates to an ungrouped (but still flush-coalesced) commit.
//! The wait yields the CPU, which doubles as the mechanism that lets
//! other committers reach their enqueue on single-core hosts.
//! `PMEMGRAPH_GROUP_COMMIT=0` (or [`CommitPipeline::set_enabled`])
//! bypasses the queue entirely.
//!
//! Crash handling mirrors the no-group path: a committer is only told
//! "committed" after the group's log truncation, so rolling the whole
//! group back on recovery never revokes an acknowledged commit. If an
//! injected crash ([`pmem::CrashPoint`]) fires while the leader holds the
//! log, the pipeline poisons itself so post-crash committers fail fast
//! instead of touching the dirty log, then re-raises the crash on the
//! leader's thread.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use pmem::{Pool, PmemError, TxBatch};

use crate::error::TxnError;
use crate::syncmode::SyncMode;

/// Completion slot a follower parks on.
#[derive(Default)]
struct DoneSlot {
    result: Mutex<Option<Result<(), TxnError>>>,
    cv: Condvar,
}

impl DoneSlot {
    fn post(&self, r: Result<(), TxnError>) {
        *self.result.lock() = Some(r);
        self.cv.notify_all();
    }
}

struct Waiter {
    batch: TxBatch,
    slot: Arc<DoneSlot>,
}

/// How long after two *different* threads enqueued batches the pipeline
/// still assumes a multi-writer phase (and lets the leader wait for
/// stragglers). Generous on purpose: the hint only unlocks a wait that is
/// itself bounded by `max_wait`.
const MULTI_WRITER_WINDOW: Duration = Duration::from_millis(10);

/// Commit queue plus the recent-committer bookkeeping behind the
/// multi-writer hint. One mutex guards both: the hint is only read/written
/// on enqueue and at leader entry, which already take the lock.
#[derive(Default)]
struct Queue {
    waiters: Vec<Waiter>,
    /// Thread that last enqueued a batch.
    last_thread: Option<std::thread::ThreadId>,
    /// When it did.
    last_at: Option<Instant>,
    /// Until when the pipeline counts as multi-writer.
    multi_until: Option<Instant>,
}

impl Queue {
    fn push(&mut self, w: Waiter) {
        let now = Instant::now();
        let me = std::thread::current().id();
        if let (Some(t), Some(at)) = (self.last_thread, self.last_at) {
            if t != me && now.duration_since(at) < MULTI_WRITER_WINDOW {
                self.multi_until = Some(now + MULTI_WRITER_WINDOW);
            }
        }
        self.last_thread = Some(me);
        self.last_at = Some(now);
        self.waiters.push(w);
    }

    fn multi_writer(&self) -> bool {
        self.multi_until.is_some_and(|u| Instant::now() < u)
    }
}

/// The group-commit pipeline. One per [`TxnManager`](crate::TxnManager).
pub struct CommitPipeline {
    pool: Arc<Pool>,
    enabled: AtomicBool,
    /// Leader straggler-wait bound, in microseconds.
    max_wait_us: u64,
    /// Batches enqueued and not yet claimed by a leader, plus the
    /// multi-writer hint.
    queue: Mutex<Queue>,
    /// Leadership token: held while one committer runs a group.
    leader: Mutex<()>,
    /// Committers that entered [`commit`](Self::commit) and whose batch has
    /// not yet been claimed by a leader. Gates the straggler wait.
    pending: AtomicU64,
    /// Set when an injected crash unwound through a group commit; the pool
    /// state is mid-crash, so further commits must not touch the log.
    dead: AtomicBool,
    /// Which durability rung [`apply`](Self::apply) routes through.
    sync_mode: Mutex<SyncMode>,
    /// Transactions applied since the last checkpoint; drives the
    /// `EveryN` cadence. Approximate under concurrency (cadence heuristic,
    /// not a correctness invariant — durability comes from the undo log).
    since_sync: AtomicU64,
}

/// `PMEMGRAPH_GROUP_COMMIT`: on unless `0`/`false`/`off`/`no`.
pub(crate) fn group_commit_env() -> bool {
    gconfig::group_commit()
}

fn group_wait_env() -> u64 {
    gconfig::group_wait_us()
}

impl CommitPipeline {
    pub fn new(pool: Arc<Pool>) -> CommitPipeline {
        CommitPipeline {
            pool,
            enabled: AtomicBool::new(group_commit_env()),
            max_wait_us: group_wait_env(),
            queue: Mutex::new(Queue::default()),
            leader: Mutex::new(()),
            pending: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            sync_mode: Mutex::new(SyncMode::from_env()),
            since_sync: AtomicU64::new(0),
        }
    }

    /// The active durability rung.
    pub fn sync_mode(&self) -> SyncMode {
        *self.sync_mode.lock()
    }

    /// Switch durability rung at runtime. Tightening (to [`SyncMode::PerTxn`])
    /// checkpoints first so everything already acknowledged under the looser
    /// rung becomes durable before the stricter contract is advertised.
    pub fn set_sync_mode(&self, mode: SyncMode) -> Result<(), TxnError> {
        let mut cur = self.sync_mode.lock();
        if cur.is_deferred() && !mode.is_deferred() {
            self.pool.checkpoint()?;
            self.since_sync.store(0, Ordering::Relaxed);
        }
        *cur = mode;
        Ok(())
    }

    /// Explicit durability point: flush the deferred tail and truncate the
    /// accumulated undo log. No-op (and cheap) under [`SyncMode::PerTxn`].
    pub fn checkpoint(&self) -> Result<(), TxnError> {
        self.since_sync.store(0, Ordering::Relaxed);
        self.pool.checkpoint().map_err(TxnError::from)
    }

    /// Apply one group of batches through the rung the sync mode selects.
    /// Both the ungrouped path and the leader's group path funnel through
    /// here, so the ladder applies uniformly.
    fn apply(&self, refs: &[&TxBatch]) -> Result<(), PmemError> {
        let mode = self.sync_mode();
        match mode {
            SyncMode::PerTxn => self.pool.tx_apply_batches(refs),
            SyncMode::EveryN(_) | SyncMode::CheckpointOnly => {
                match self.pool.tx_apply_deferred(refs) {
                    Err(PmemError::LogFull) => {
                        // The accumulated log is full: force a durability
                        // point to empty it, then retry once. Still-LogFull
                        // now means the group alone exceeds the log, which
                        // the caller's fallback splits.
                        self.pool.checkpoint()?;
                        self.since_sync.store(0, Ordering::Relaxed);
                        self.pool.tx_apply_deferred(refs)?;
                    }
                    r => r?,
                }
                if let SyncMode::EveryN(n) = mode {
                    let c = self
                        .since_sync
                        .fetch_add(refs.len() as u64, Ordering::Relaxed)
                        + refs.len() as u64;
                    if c >= n {
                        self.since_sync.store(0, Ordering::Relaxed);
                        self.pool.checkpoint()?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Whether grouping is active (the flush-coalesced batch commit is used
    /// either way).
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Toggle grouping at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The leader's straggler-wait bound. Defaults to
    /// `PMEMGRAPH_GROUP_WAIT_US` (3 µs unset).
    pub fn max_wait(&self) -> Duration {
        Duration::from_micros(self.max_wait_us)
    }

    /// Test hook: hold the leadership token. Committers queue behind it
    /// as followers and leave as one group when the guard drops.
    #[cfg(test)]
    pub(crate) fn hold_leadership(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.leader.lock()
    }

    /// Test hook: batches enqueued and not yet claimed by a leader.
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        self.queue.lock().waiters.len()
    }

    /// Commit one transaction's staged batch, possibly grouped with other
    /// concurrent committers' batches. Under [`SyncMode::PerTxn`] this
    /// returns only after the batch is durable (log truncated); under the
    /// deferred rungs it returns once the batch is *applied and covered by
    /// the undo log* — durable at the next checkpoint.
    pub fn commit(&self, batch: TxBatch) -> Result<(), TxnError> {
        if !self.enabled.load(Ordering::Relaxed) {
            // Ungrouped: still one coalesced batch commit on the active
            // durability rung.
            return self.apply(&[&batch]).map_err(TxnError::from);
        }
        if self.dead.load(Ordering::SeqCst) {
            return Err(poisoned());
        }
        let slot = Arc::new(DoneSlot::default());
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.queue.lock().push(Waiter {
            batch,
            slot: slot.clone(),
        });

        loop {
            if let Some(r) = slot.result.lock().take() {
                return r;
            }
            if self.dead.load(Ordering::SeqCst) {
                return Err(poisoned());
            }
            if let Some(_lead) = self.leader.try_lock() {
                // Straggler wait, bounded by max_wait. A lone writer never
                // waits: with no companion batch, no mid-enqueue committer
                // (pending > queued) and no recent second writer, the loop
                // exits on its first check. In a multi-writer phase the
                // leader yields the CPU until a companion batch arrives —
                // that donated slice is what lets other committers reach
                // their own enqueue, so groups form even when commits never
                // physically overlap (single-core hosts, short commits).
                let deadline = Instant::now() + self.max_wait();
                let mut waited_out = false;
                loop {
                    let (queued, multi) = {
                        let q = self.queue.lock();
                        (q.waiters.len(), q.multi_writer())
                    };
                    if queued > 1 {
                        break; // a group is already waiting
                    }
                    let pend = self.pending.load(Ordering::SeqCst) as usize;
                    if queued >= pend && !multi {
                        break; // nobody else is coming
                    }
                    if Instant::now() >= deadline {
                        waited_out = true;
                        break;
                    }
                    std::thread::yield_now();
                }
                let mut q = self.queue.lock();
                let group: Vec<Waiter> = std::mem::take(&mut q.waiters);
                if waited_out && group.len() <= 1 {
                    // The hint promised a companion and none came (e.g. the
                    // second writer finished its workload): drop it so a
                    // now-single writer stops paying the wait. The next
                    // cross-thread enqueue re-arms it.
                    q.multi_until = None;
                }
                drop(q);
                if group.is_empty() {
                    // A previous leader claimed our batch; loop to collect
                    // the posted result.
                    continue;
                }
                self.pending.fetch_sub(group.len() as u64, Ordering::SeqCst);
                self.run_group(group);
                continue;
            }
            // Follower: park until the leader posts, with a timeout so a
            // leader that died without posting never strands us.
            let mut r = slot.result.lock();
            if r.is_none() {
                self.slot_wait(&slot, &mut r);
            }
            if let Some(r) = r.take() {
                return r;
            }
        }
    }

    fn slot_wait(
        &self,
        slot: &DoneSlot,
        guard: &mut parking_lot::MutexGuard<'_, Option<Result<(), TxnError>>>,
    ) {
        slot.cv.wait_for(guard, Duration::from_micros(200));
    }

    /// Apply one drained group and post every member's result.
    fn run_group(&self, group: Vec<Waiter>) {
        let span = gobs::span_start();
        let refs: Vec<&TxBatch> = group.iter().map(|w| &w.batch).collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.apply(&refs)
        }));
        crate::obs::group_apply(span);
        match outcome {
            Ok(Ok(())) => {
                for w in &group {
                    w.slot.post(Ok(()));
                }
            }
            Ok(Err(e)) if group.len() == 1 => {
                group[0].slot.post(Err(e.into()));
            }
            Ok(Err(_)) => {
                // The merged group failed as a whole (e.g. combined log
                // demand exceeded capacity). Nothing was applied — retry
                // each batch alone so every committer gets its own verdict.
                for w in &group {
                    let r = self.apply(&[&w.batch]).map_err(TxnError::from);
                    w.slot.post(r);
                }
            }
            Err(panic) => {
                // Injected crash (or genuine bug) mid-group: the log is in
                // an arbitrary pre-truncation state. Poison the pipeline so
                // later committers fail fast rather than running another
                // log transaction over it, then re-raise on this thread —
                // crash-sweep harnesses catch it at their catch_unwind.
                self.dead.store(true, Ordering::SeqCst);
                for w in &group {
                    w.slot.post(Err(poisoned()));
                }
                std::panic::resume_unwind(panic);
            }
        }
    }
}

fn poisoned() -> TxnError {
    TxnError::Pmem(PmemError::BadPool(
        "commit pipeline poisoned by a crash during group commit".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipe() -> (Arc<Pool>, CommitPipeline) {
        let pool = Arc::new(Pool::volatile(8 << 20).unwrap());
        let pipe = CommitPipeline::new(pool.clone());
        pipe.set_enabled(true);
        // Pin the rung: tests must not inherit PMEMGRAPH_SYNC_MODE.
        pipe.set_sync_mode(SyncMode::PerTxn).unwrap();
        (pool, pipe)
    }

    #[test]
    fn single_commit_applies_and_reports() {
        let (pool, pipe) = pipe();
        let off = pool.alloc(64).unwrap();
        let mut b = TxBatch::new();
        b.write_u64(off, 42);
        pipe.commit(b).unwrap();
        assert_eq!(pool.read_u64(off), 42);
    }

    #[test]
    fn concurrent_commits_form_groups_and_all_apply() {
        let (pool, pipe) = pipe();
        let pipe = Arc::new(pipe);
        let n_threads = 8usize;
        let per = 50usize;
        let offs: Vec<u64> = (0..n_threads * per).map(|_| pool.alloc(64).unwrap()).collect();
        let before = pool.stats().snapshot();
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let pipe = pipe.clone();
                let offs = &offs;
                s.spawn(move || {
                    for i in 0..per {
                        let off = offs[t * per + i];
                        let mut b = TxBatch::new();
                        b.write_u64(off, (t * per + i) as u64 + 1);
                        pipe.commit(b).unwrap();
                    }
                });
            }
        });
        for (i, &off) in offs.iter().enumerate() {
            assert_eq!(pool.read_u64(off), i as u64 + 1);
        }
        let d = pool.stats().snapshot() - before;
        assert_eq!(d.tx_commits, (n_threads * per) as u64);
        assert!(
            d.commit_groups <= d.tx_commits,
            "groups never exceed commits"
        );
    }

    #[test]
    fn disabled_pipeline_still_commits() {
        let (pool, pipe) = pipe();
        pipe.set_enabled(false);
        let off = pool.alloc(64).unwrap();
        let mut b = TxBatch::new();
        b.write_u64(off, 7);
        pipe.commit(b).unwrap();
        assert_eq!(pool.read_u64(off), 7);
    }

    #[test]
    fn oversized_group_falls_back_to_individual_commits() {
        let mut path = std::env::temp_dir();
        path.push(format!("gtxn-pipe-logfull-{}", std::process::id()));
        let pool = Arc::new(
            Pool::create_with_log(&path, 4 << 20, pmem::DeviceProfile::dram(), 512).unwrap(),
        );
        let pipe = Arc::new(CommitPipeline::new(pool.clone()));
        pipe.set_enabled(true);
        pipe.set_sync_mode(SyncMode::PerTxn).unwrap();
        // Each batch needs 16 + 200-padded = 216+ log bytes: two fit only
        // one at a time in a 512-byte log.
        let offs: Vec<u64> = (0..4).map(|_| pool.alloc(256).unwrap()).collect();
        std::thread::scope(|s| {
            for (i, &off) in offs.iter().enumerate() {
                let pipe = pipe.clone();
                s.spawn(move || {
                    let mut b = TxBatch::new();
                    b.write_bytes(off, &[i as u8 + 1; 200]);
                    pipe.commit(b).unwrap();
                });
            }
        });
        for (i, &off) in offs.iter().enumerate() {
            let mut buf = [0u8; 200];
            pool.read_slice(off, &mut buf);
            assert_eq!(buf, [i as u8 + 1; 200]);
        }
        drop(pipe);
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_too_large_even_alone_errors() {
        let mut path = std::env::temp_dir();
        path.push(format!("gtxn-pipe-logfull2-{}", std::process::id()));
        let pool = Arc::new(
            Pool::create_with_log(&path, 4 << 20, pmem::DeviceProfile::dram(), 128).unwrap(),
        );
        let pipe = CommitPipeline::new(pool.clone());
        pipe.set_enabled(true);
        pipe.set_sync_mode(SyncMode::PerTxn).unwrap();
        let off = pool.alloc(256).unwrap();
        let mut b = TxBatch::new();
        b.write_bytes(off, &[1u8; 200]);
        let r = pipe.commit(b);
        assert!(matches!(r, Err(TxnError::Pmem(PmemError::LogFull))));
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_n_mode_amortises_fences() {
        let (pool, pipe) = pipe();
        pipe.set_enabled(false); // deterministic ungrouped path
        pipe.set_sync_mode(SyncMode::EveryN(4)).unwrap();
        let offs: Vec<u64> = (0..8).map(|_| pool.alloc(64).unwrap()).collect();
        let before = pool.stats().snapshot();
        for (i, &off) in offs.iter().enumerate() {
            let mut b = TxBatch::new();
            b.write_u64(off, i as u64 + 1);
            pipe.commit(b).unwrap();
        }
        let d = pool.stats().snapshot() - before;
        // 8 deferred commits at 2 fences + 2 checkpoints at 2 fences,
        // against 8 * 4 = 32 for the strict rung.
        assert_eq!(d.fences, 20);
        assert_eq!(d.deferred_txns, 8);
        assert_eq!(d.checkpoints, 2);
        assert!(!pool.deferred_pending(), "cadence hit exactly");
        for (i, &off) in offs.iter().enumerate() {
            assert_eq!(pool.read_u64(off), i as u64 + 1);
        }
    }

    #[test]
    fn checkpoint_only_defers_until_explicit_checkpoint() {
        let (pool, pipe) = pipe();
        pipe.set_enabled(false);
        pipe.set_sync_mode(SyncMode::CheckpointOnly).unwrap();
        let off = pool.alloc(64).unwrap();
        for v in 1..=5u64 {
            let mut b = TxBatch::new();
            b.write_u64(off, v);
            pipe.commit(b).unwrap();
        }
        assert!(pool.deferred_pending());
        assert_eq!(pool.stats().snapshot().checkpoints, 0);
        pipe.checkpoint().unwrap();
        assert!(!pool.deferred_pending());
        assert_eq!(pool.stats().snapshot().checkpoints, 1);
        assert_eq!(pool.read_u64(off), 5);
    }

    #[test]
    fn tightening_sync_mode_drains_the_deferred_tail() {
        let (pool, pipe) = pipe();
        pipe.set_enabled(false);
        pipe.set_sync_mode(SyncMode::CheckpointOnly).unwrap();
        let off = pool.alloc(64).unwrap();
        let mut b = TxBatch::new();
        b.write_u64(off, 9);
        pipe.commit(b).unwrap();
        assert!(pool.deferred_pending());
        pipe.set_sync_mode(SyncMode::PerTxn).unwrap();
        assert!(
            !pool.deferred_pending(),
            "strict rung must not advertise durability over an unflushed tail"
        );
    }

    #[test]
    fn deferred_log_full_forces_checkpoint_and_retries() {
        let mut path = std::env::temp_dir();
        path.push(format!("gtxn-pipe-deferred-logfull-{}", std::process::id()));
        let pool = Arc::new(
            Pool::create_with_log(&path, 4 << 20, pmem::DeviceProfile::dram(), 512).unwrap(),
        );
        let pipe = CommitPipeline::new(pool.clone());
        pipe.set_enabled(false);
        pipe.set_sync_mode(SyncMode::CheckpointOnly).unwrap();
        let off = pool.alloc(256).unwrap();
        // Each commit logs 216 bytes; the 512-byte log holds two, so the
        // third forces an internal checkpoint + retry — invisibly to us.
        for v in 1..=6u8 {
            let mut b = TxBatch::new();
            b.write_bytes(off, &[v; 200]);
            pipe.commit(b).unwrap();
        }
        assert!(pool.stats().snapshot().checkpoints >= 2);
        let mut buf = [0u8; 200];
        pool.read_slice(off, &mut buf);
        assert_eq!(buf, [6u8; 200]);
        drop(pipe);
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn grouped_commits_ride_the_deferred_rung_too() {
        let (pool, pipe) = pipe();
        pipe.set_sync_mode(SyncMode::CheckpointOnly).unwrap();
        let pipe = Arc::new(pipe);
        let n_threads = 4usize;
        let per = 25usize;
        let offs: Vec<u64> = (0..n_threads * per).map(|_| pool.alloc(64).unwrap()).collect();
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let pipe = pipe.clone();
                let offs = &offs;
                s.spawn(move || {
                    for i in 0..per {
                        let off = offs[t * per + i];
                        let mut b = TxBatch::new();
                        b.write_u64(off, (t * per + i) as u64 + 1);
                        pipe.commit(b).unwrap();
                    }
                });
            }
        });
        for (i, &off) in offs.iter().enumerate() {
            assert_eq!(pool.read_u64(off), i as u64 + 1);
        }
        let snap = pool.stats().snapshot();
        assert_eq!(snap.deferred_txns, (n_threads * per) as u64);
        assert_eq!(snap.checkpoints, 0, "checkpoint-only never auto-drains");
        pipe.checkpoint().unwrap();
        assert!(!pool.deferred_pending());
    }

    #[test]
    fn crash_during_group_poisons_pipeline() {
        let pool = Arc::new(Pool::volatile(8 << 20).unwrap().with_crash_tracking());
        let pipe = CommitPipeline::new(pool.clone());
        pipe.set_enabled(true);
        pipe.set_sync_mode(SyncMode::PerTxn).unwrap();
        let off = pool.alloc(64).unwrap();
        let mut b = TxBatch::new();
        b.write_u64(off, 1);
        pool.inject_crash_after_flushes(0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pipe.commit(b)));
        pool.clear_crash_injection();
        assert!(outcome.is_err(), "leader re-raises the crash");
        // Post-crash committers fail fast instead of touching the log.
        let mut b2 = TxBatch::new();
        b2.write_u64(off, 2);
        assert!(matches!(pipe.commit(b2), Err(TxnError::Pmem(_))));
    }
}
