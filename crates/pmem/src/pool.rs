//! The persistent pool: an mmap-backed heap with PMem semantics.
//!
//! A [`Pool`] emulates a PMDK `pmemobj` pool living on a DAX file system.
//! All persistent state is addressed by 8-byte offsets from the pool base.
//! Stores become durable only when the affected cache lines are flushed
//! ([`Pool::flush`], emulating `clwb`) and a store fence is issued
//! ([`Pool::drain`], emulating `sfence`). With crash tracking enabled, a
//! [`Pool::simulate_crash`] discards every store that was not covered by a
//! flush+fence pair, which is exactly the failure model real PMem exposes —
//! so the recovery code in the layers above is tested against the real
//! adversary, not a polite one.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use memmap2::MmapMut;
use parking_lot::Mutex;

use crate::alloc::NUM_CLASSES;
use crate::error::{PmemError, Result};
use crate::latency::DeviceProfile;
use crate::pptr::POff;
use crate::stats::PoolStats;
use crate::Pod;

/// CPU cache-line size assumed by the flush model.
pub const CACHE_LINE: usize = 64;
/// Internal block size of the emulated DCPMM media (C3).
pub const PMEM_BLOCK: usize = 256;
/// Bytes reserved at offset 0 for the pool header.
pub const POOL_HEADER_SIZE: u64 = 4096;

const MAGIC: u64 = 0x504d_4752_4150_4831; // "PMGRAPH1"
const FORMAT_VERSION: u64 = 1;
/// Simulated CPU cache used by the latency model: direct-mapped,
/// `CACHE_SLOTS` lines of 64 B (4 MiB).
const CACHE_SLOTS: usize = 1 << 16;

/// On-media pool header. Lives at offset 0, always within the first page.
#[repr(C)]
pub(crate) struct Header {
    pub magic: u64,
    pub version: u64,
    pub pool_size: u64,
    pub pool_id: u64,
    /// Offset of the application root object (0 = unset).
    pub root: u64,
    /// 1 if the pool was closed cleanly, 0 while open.
    pub clean_shutdown: u64,
    /// Allocator bump pointer (next never-used byte).
    pub bump: u64,
    /// Undo-log region start.
    pub log_off: u64,
    /// Undo-log region capacity in bytes.
    pub log_cap: u64,
    /// Valid bytes in the undo log (0 = empty log).
    pub log_len: u64,
    /// Free-list heads per size class (0 = empty).
    pub free_heads: [u64; NUM_CLASSES],
    /// Highest decided cross-pool epoch (see `txlog::commit_epoch`). Only
    /// meaningful on the pool elected as the epoch decider; 0 = none.
    pub committed_epoch: u64,
}

pub(crate) const fn header_field(off: usize) -> u64 {
    off as u64
}

macro_rules! hoff {
    ($field:ident) => {
        header_field(std::mem::offset_of!(Header, $field))
    };
}

/// Whether a pool is backed by a file (persistent) or anonymous memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolKind {
    /// File-backed: survives process restart, emulates PMem.
    Persistent(PathBuf),
    /// Anonymous memory: the pure-DRAM baseline of the paper's evaluation.
    Volatile,
}

/// What a simulated crash does to stores that were never flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPolicy {
    /// Every unflushed line reverts to its last flushed content. This is the
    /// adversarial case: nothing left the CPU caches.
    DropUnflushed,
    /// Every unflushed line is kept, as if the caches were all evicted just
    /// in time. Useful to check that *extra* flushes are not load-bearing.
    KeepAll,
    /// Each unflushed 8-byte word independently keeps or loses its new value
    /// (seeded, deterministic). Models partial cache eviction; words are
    /// never torn because x86 8-byte aligned stores are failure-atomic (C4).
    Torn(u64),
}

struct DirtyTracker {
    /// line start offset -> content at the time of the last flush.
    pre_images: HashMap<u64, [u8; CACHE_LINE]>,
}

/// A persistent (or emulated-volatile) memory pool.
///
/// ```
/// use pmem::{Pool, POff, TxBatch};
///
/// let pool = Pool::volatile(16 << 20)?; // or Pool::create(path, size, profile)
/// let off = pool.alloc(64)?;
/// pool.write_u64(off, 0xC0FFEE);        // failure-atomic 8-byte store
/// pool.persist(off, 8);                 // clwb + sfence
/// assert_eq!(pool.read_u64(off), 0xC0FFEE);
///
/// // Multi-word atomicity goes through the undo log:
/// let mut tx = TxBatch::new();
/// tx.write_u64(off, 1);
/// tx.write_u64(off + 8, 2);
/// pool.tx_apply_batches(&[&tx])?;
/// # Ok::<(), pmem::PmemError>(())
/// ```
pub struct Pool {
    kind: PoolKind,
    map: MmapMut,
    len: usize,
    profile: DeviceProfile,
    stats: PoolStats,
    dirty: Option<Mutex<DirtyTracker>>,
    /// Countdown crash injection: panics inside `flush` when it reaches 0.
    crash_after_flushes: AtomicI64,
    /// Simulated direct-mapped CPU cache for the read-latency model:
    /// slot -> tag (line index), u64::MAX = invalid.
    cpu_cache: Vec<AtomicU64>,
    pub(crate) alloc_lock: Mutex<()>,
    pub(crate) tx_lock: Mutex<()>,
    /// Tiered-durability bookkeeping: data lines applied in place but not
    /// yet flushed, covered by the accumulated undo log (see
    /// [`Pool::tx_apply_deferred`]). Locked after `tx_lock`, never before.
    pub(crate) deferred: Mutex<crate::txlog::DeferredState>,
    /// Sharded per-thread allocation arenas (see `alloc` module docs).
    pub(crate) arena: crate::alloc::ArenaState,
}

// The raw mmap pointer is only ever accessed through bounds-checked methods;
// concurrent access discipline is the responsibility of the layers above
// (records are guarded by the MVTO txn-id lock).
unsafe impl Send for Pool {}
unsafe impl Sync for Pool {}

/// Payload carried by the panic raised at an injected crash point.
#[derive(Debug, Clone, Copy)]
pub struct CrashPoint;

impl Pool {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Create a new persistent pool of `size` bytes at `path`.
    ///
    /// `size` must leave room for the header and the undo log (1 MiB).
    pub fn create(path: impl AsRef<Path>, size: usize, profile: DeviceProfile) -> Result<Pool> {
        Self::create_with_log(path, size, profile, 1 << 20)
    }

    /// Create a persistent pool with an explicit undo-log capacity.
    pub fn create_with_log(
        path: impl AsRef<Path>,
        size: usize,
        profile: DeviceProfile,
        log_cap: u64,
    ) -> Result<Pool> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.set_len(size as u64)?;
        let map = unsafe { MmapMut::map_mut(&file)? };
        let mut pool = Pool::from_map(PoolKind::Persistent(path), map, profile);
        pool.format(size as u64, log_cap)?;
        Ok(pool)
    }

    /// Open an existing persistent pool, running undo-log recovery if the
    /// previous session did not shut down cleanly.
    pub fn open(path: impl AsRef<Path>, profile: DeviceProfile) -> Result<Pool> {
        Self::open_with_decider(path, profile, &|_| false)
    }

    /// Open a pool that may have crashed mid-way through a cross-pool epoch
    /// commit. `decider` is consulted with the epoch id of a trailing
    /// prepare marker in the log (see [`Pool::tx_prepare_batches`]): `true`
    /// means the epoch was decided committed (the prepared writes are kept,
    /// the log is just truncated), `false` rolls them back. Plain
    /// [`Pool::open`] passes an always-`false` decider, which is correct
    /// for pools that never participate in cross-pool epochs.
    pub fn open_with_decider(
        path: impl AsRef<Path>,
        profile: DeviceProfile,
        decider: &dyn Fn(u64) -> bool,
    ) -> Result<Pool> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len();
        let map = unsafe { MmapMut::map_mut(&file)? };
        let pool = Pool::from_map(PoolKind::Persistent(path), map, profile);
        if pool.read_header_u64(hoff!(magic)) != MAGIC {
            return Err(PmemError::BadPool("bad magic".into()));
        }
        if pool.read_header_u64(hoff!(version)) != FORMAT_VERSION {
            return Err(PmemError::BadPool("unsupported format version".into()));
        }
        if pool.read_header_u64(hoff!(pool_size)) != len {
            return Err(PmemError::BadPool("size mismatch".into()));
        }
        pool.recover_with(decider)?;
        pool.write_u64(hoff!(clean_shutdown), 0);
        pool.persist(hoff!(clean_shutdown), 8);
        Ok(pool)
    }

    /// Read the committed-epoch header word of a pool file *without*
    /// opening it (and therefore without triggering recovery). A sharded
    /// database must learn the decided epoch before any shard recovers, and
    /// every shard's recovery — including the decider pool's own — depends
    /// on it.
    pub fn peek_committed_epoch(path: impl AsRef<Path>) -> Result<u64> {
        use std::io::Read;
        let mut file = std::fs::File::open(path)?;
        let mut buf = vec![0u8; std::mem::size_of::<Header>()];
        file.read_exact(&mut buf)?;
        let word = |off: usize| u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
        if word(std::mem::offset_of!(Header, magic)) != MAGIC {
            return Err(PmemError::BadPool("bad magic".into()));
        }
        Ok(word(std::mem::offset_of!(Header, committed_epoch)))
    }

    /// Create an anonymous, volatile pool: the DRAM baseline. Identical API,
    /// but nothing survives drop and flushes are free.
    pub fn volatile(size: usize) -> Result<Pool> {
        let map = MmapMut::map_anon(size)?;
        let mut pool = Pool::from_map(PoolKind::Volatile, map, DeviceProfile::dram());
        pool.format(size as u64, 1 << 20)?;
        Ok(pool)
    }

    fn from_map(kind: PoolKind, map: MmapMut, profile: DeviceProfile) -> Pool {
        let len = map.len();
        Pool {
            kind,
            map,
            len,
            profile,
            stats: PoolStats::default(),
            dirty: None,
            crash_after_flushes: AtomicI64::new(-1),
            cpu_cache: if profile.is_free() {
                Vec::new()
            } else {
                (0..CACHE_SLOTS).map(|_| AtomicU64::new(u64::MAX)).collect()
            },
            alloc_lock: Mutex::new(()),
            tx_lock: Mutex::new(()),
            deferred: Mutex::new(crate::txlog::DeferredState::default()),
            arena: crate::alloc::ArenaState::new(),
        }
    }

    fn format(&mut self, size: u64, log_cap: u64) -> Result<()> {
        let log_off = POOL_HEADER_SIZE;
        let data_start = (log_off + log_cap + PMEM_BLOCK as u64 - 1) & !(PMEM_BLOCK as u64 - 1);
        if data_start >= size {
            return Err(PmemError::BadPool("pool too small for header + log".into()));
        }
        static POOL_ID: AtomicU64 = AtomicU64::new(1);
        let id = POOL_ID.fetch_add(1, Ordering::Relaxed)
            ^ (std::process::id() as u64) << 32;
        self.write_u64(hoff!(version), FORMAT_VERSION);
        self.write_u64(hoff!(pool_size), size);
        self.write_u64(hoff!(pool_id), id);
        self.write_u64(hoff!(root), 0);
        self.write_u64(hoff!(clean_shutdown), 0);
        self.write_u64(hoff!(bump), data_start);
        self.write_u64(hoff!(log_off), log_off);
        self.write_u64(hoff!(log_cap), log_cap);
        self.write_u64(hoff!(log_len), 0);
        for i in 0..NUM_CLASSES {
            self.write_u64(hoff!(free_heads) + 8 * i as u64, 0);
        }
        self.write_u64(hoff!(committed_epoch), 0);
        self.persist(0, std::mem::size_of::<Header>());
        // Magic last: an interrupted create leaves an unopenable file rather
        // than a half-formatted "valid" pool.
        self.write_u64(hoff!(magic), MAGIC);
        self.persist(hoff!(magic), 8);
        Ok(())
    }

    /// Enable cache-line crash tracking. Must be called before concurrent
    /// sharing; costs a map update per store, so benches leave it off.
    pub fn with_crash_tracking(mut self) -> Pool {
        self.dirty = Some(Mutex::new(DirtyTracker {
            pre_images: HashMap::new(),
        }));
        self
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The device profile this pool injects latency for.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Whether the pool is file-backed.
    pub fn is_persistent(&self) -> bool {
        matches!(self.kind, PoolKind::Persistent(_))
    }

    /// Pool kind (file path for persistent pools).
    pub fn kind(&self) -> &PoolKind {
        &self.kind
    }

    /// Total pool size in bytes.
    pub fn size(&self) -> usize {
        self.len
    }

    /// Access statistics.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Unique identifier assigned at creation (persisted).
    pub fn pool_id(&self) -> u64 {
        self.read_header_u64(hoff!(pool_id))
    }

    /// Offset of the application root object, if set.
    pub fn root<T>(&self) -> POff<T> {
        POff::new(self.read_header_u64(hoff!(root)))
    }

    /// Persist a new application root offset.
    pub fn set_root<T>(&self, root: POff<T>) {
        self.write_u64(hoff!(root), root.raw());
        self.persist(hoff!(root), 8);
    }

    pub(crate) fn read_header_u64(&self, off: u64) -> u64 {
        // Header reads skip the latency model: on real hardware these few
        // hot words live permanently in the CPU cache.
        unsafe { (self.base().add(off as usize) as *const u64).read() }
    }

    #[inline]
    fn base(&self) -> *mut u8 {
        self.map.as_ptr() as *mut u8
    }

    #[inline]
    fn check(&self, off: u64, len: usize, why: &'static str) -> Result<()> {
        if (off as usize).checked_add(len).is_none_or(|end| end > self.len) {
            return Err(PmemError::BadOffset { off, why });
        }
        Ok(())
    }

    #[inline]
    fn check_panic(&self, off: u64, len: usize) {
        assert!(
            (off as usize) + len <= self.len,
            "pool access out of bounds: off={off:#x} len={len} pool={}",
            self.len
        );
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Copy a POD value out of the pool, charging modelled read latency for
    /// every cache line that misses the simulated CPU cache.
    #[inline]
    pub fn read<T: Pod>(&self, off: POff<T>) -> T {
        let size = std::mem::size_of::<T>();
        self.check_panic(off.raw(), size);
        self.charge_read(off.raw(), size);
        unsafe { (self.base().add(off.raw() as usize) as *const T).read_unaligned() }
    }

    /// Hand `n` consecutive POD values starting at `off` to `f(i, value)`,
    /// charging latency once for the whole span (one sequential run).
    pub fn read_run<T: Pod>(&self, off: POff<T>, n: usize, mut f: impl FnMut(usize, T)) {
        let size = std::mem::size_of::<T>();
        self.check_panic(off.raw(), n * size);
        self.charge_read(off.raw(), n * size);
        for i in 0..n {
            // SAFETY: the span is inside the mapping (checked above); `T: Pod`.
            f(i, unsafe {
                (self.base().add(off.raw() as usize + i * size) as *const T).read_unaligned()
            });
        }
    }

    /// Copy bytes out of the pool.
    #[inline]
    pub fn read_slice(&self, off: u64, out: &mut [u8]) {
        self.check_panic(off, out.len());
        self.charge_read(off, out.len());
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.base().add(off as usize),
                out.as_mut_ptr(),
                out.len(),
            );
        }
    }

    /// Read one naturally-aligned u64.
    #[inline]
    pub fn read_u64(&self, off: u64) -> u64 {
        self.check_panic(off, 8);
        debug_assert_eq!(off % 8, 0, "read_u64 requires 8-byte alignment");
        self.charge_read(off, 8);
        unsafe { (self.base().add(off as usize) as *const u64).read() }
    }

    /// Account the latency and statistics of a read without copying data
    /// (used by zero-copy scan paths that access the mapping directly).
    #[inline]
    pub fn charge_read(&self, off: u64, len: usize) {
        // A read writes nothing another thread writes: its counters are
        // this thread's stripe, and the cache probe stores only on a miss.
        let stats = self.stats.local();
        stats.read_bytes.fetch_add(len as u64, Ordering::Relaxed);
        stats.read_touches.fetch_add(1, Ordering::Relaxed);
        let first_block = off / PMEM_BLOCK as u64;
        let last_block = (off + len.max(1) as u64 - 1) / PMEM_BLOCK as u64;
        stats
            .blocks_read
            .fetch_add(last_block - first_block + 1, Ordering::Relaxed);
        if self.profile.read_ns_per_line != 0 {
            self.profile.read_delay(self.probe_cache(off, len));
        }
    }

    /// Look the lines of `[off, off+len)` up in the simulated CPU cache,
    /// installing the ones that miss. Returns the number of misses.
    ///
    /// Load first, store only on a tag mismatch: a hit leaves the slot's
    /// host cache line clean, so two scans over the same records share it
    /// instead of passing it back and forth.
    #[inline]
    fn probe_cache(&self, off: u64, len: usize) -> u64 {
        let first = off / CACHE_LINE as u64;
        let last = (off + len.max(1) as u64 - 1) / CACHE_LINE as u64;
        let mut missed = 0u64;
        for line in first..=last {
            // The tags model a cache and guard nothing: two threads
            // missing on one slot at once both pay, as two cores would.
            let slot = &self.cpu_cache[(line as usize) & (CACHE_SLOTS - 1)];
            if slot.load(Ordering::Relaxed) != line {
                slot.store(line, Ordering::Relaxed);
                missed += 1;
            }
        }
        missed
    }

    /// Invalidate the simulated CPU cache (used to measure "cold" runs).
    pub fn evict_cpu_cache(&self) {
        for slot in &self.cpu_cache {
            slot.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Invalidate the simulated cache entries covering `[off, off+256)`
    /// (a `clflush`-style point eviction for fine-grained experiments).
    pub fn evict_cpu_cache_line(&self, off: u64) {
        if self.cpu_cache.is_empty() {
            return;
        }
        let first = off / CACHE_LINE as u64;
        for line in first..first + (PMEM_BLOCK / CACHE_LINE) as u64 {
            self.cpu_cache[(line as usize) & (CACHE_SLOTS - 1)].store(u64::MAX, Ordering::Relaxed);
        }
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Store a POD value. Not failure-atomic unless `T` is 8 bytes and
    /// aligned — multi-word consistency needs [`Pool::tx_apply_batches`]
    /// or careful ordering by the caller (DG4).
    #[inline]
    pub fn write<T: Pod>(&self, off: POff<T>, val: &T) {
        let size = std::mem::size_of::<T>();
        self.check_panic(off.raw(), size);
        self.track_dirty(off.raw(), size);
        self.stats.local().write_bytes.fetch_add(size as u64, Ordering::Relaxed);
        unsafe {
            (self.base().add(off.raw() as usize) as *mut T).write_unaligned(*val);
        }
    }

    /// Store raw bytes.
    #[inline]
    pub fn write_bytes(&self, off: u64, data: &[u8]) {
        self.check_panic(off, data.len());
        self.track_dirty(off, data.len());
        self.stats
            .local()
            .write_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        unsafe {
            std::ptr::copy_nonoverlapping(
                data.as_ptr(),
                self.base().add(off as usize),
                data.len(),
            );
        }
    }

    /// Zero a byte range.
    pub fn write_zeros(&self, off: u64, len: usize) {
        self.check_panic(off, len);
        self.track_dirty(off, len);
        self.stats.local().write_bytes.fetch_add(len as u64, Ordering::Relaxed);
        unsafe {
            std::ptr::write_bytes(self.base().add(off as usize), 0, len);
        }
    }

    /// The failure-atomic 8-byte store (C4): an aligned u64 written with a
    /// single instruction either fully reaches the media or not at all.
    #[inline]
    pub fn write_u64(&self, off: u64, val: u64) {
        self.check_panic(off, 8);
        debug_assert_eq!(off % 8, 0, "write_u64 requires 8-byte alignment (C4)");
        self.track_dirty(off, 8);
        self.stats.local().write_bytes.fetch_add(8, Ordering::Relaxed);
        unsafe {
            (self.base().add(off as usize) as *mut u64).write(val);
        }
    }

    /// Atomic view of an aligned u64 (for CAS-based write locks, §5.1).
    ///
    /// Stores made through the returned atomic are NOT crash-tracked; use
    /// [`Pool::atomic_store_u64`] when the value must be recoverable.
    #[inline]
    pub fn atomic_u64(&self, off: u64) -> &AtomicU64 {
        self.check_panic(off, 8);
        assert_eq!(off % 8, 0, "atomic access requires 8-byte alignment");
        unsafe { &*(self.base().add(off as usize) as *const AtomicU64) }
    }

    /// Atomically store an aligned u64 with crash tracking.
    #[inline]
    pub fn atomic_store_u64(&self, off: u64, val: u64, order: Ordering) {
        self.check_panic(off, 8);
        self.track_dirty(off, 8);
        self.stats.local().write_bytes.fetch_add(8, Ordering::Relaxed);
        self.atomic_u64(off).store(val, order);
    }

    /// Compare-and-swap an aligned u64 with crash tracking of the new value.
    #[inline]
    pub fn compare_exchange_u64(&self, off: u64, current: u64, new: u64) -> std::result::Result<u64, u64> {
        self.check_panic(off, 8);
        self.track_dirty(off, 8);
        self.atomic_u64(off)
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    #[inline]
    fn track_dirty(&self, off: u64, len: usize) {
        let Some(dirty) = &self.dirty else { return };
        let mut guard = dirty.lock();
        let first = off / CACHE_LINE as u64 * CACHE_LINE as u64;
        let last = (off + len.max(1) as u64 - 1) / CACHE_LINE as u64 * CACHE_LINE as u64;
        let mut line = first;
        while line <= last {
            guard.pre_images.entry(line).or_insert_with(|| {
                let mut buf = [0u8; CACHE_LINE];
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        self.base().add(line as usize),
                        buf.as_mut_ptr(),
                        CACHE_LINE,
                    );
                }
                buf
            });
            line += CACHE_LINE as u64;
        }
    }

    // ------------------------------------------------------------------
    // Flush / fence (clwb / sfence emulation)
    // ------------------------------------------------------------------

    /// Flush the cache lines covering `[off, off+len)` — `clwb` emulation.
    /// Durable only after the next [`Pool::drain`].
    pub fn flush(&self, off: u64, len: usize) {
        if len == 0 {
            return;
        }
        self.check_panic(off, len);
        let first = off / CACHE_LINE as u64 * CACHE_LINE as u64;
        let last = (off + len as u64 - 1) / CACHE_LINE as u64 * CACHE_LINE as u64;
        let nlines = (last - first) / CACHE_LINE as u64 + 1;

        // Crash injection: count down per flushed line, panic at zero.
        if self.crash_after_flushes.load(Ordering::Relaxed) >= 0 {
            let prev = self
                .crash_after_flushes
                .fetch_sub(nlines as i64, Ordering::Relaxed);
            if prev >= 0 && prev - (nlines as i64) < 0 {
                std::panic::panic_any(CrashPoint);
            }
        }

        if let Some(dirty) = &self.dirty {
            let mut guard = dirty.lock();
            let mut line = first;
            while line <= last {
                guard.pre_images.remove(&line);
                line += CACHE_LINE as u64;
            }
        }
        let stats = self.stats.local();
        stats.lines_flushed.fetch_add(nlines, Ordering::Relaxed);
        let first_block = off / PMEM_BLOCK as u64;
        let last_block = (off + len as u64 - 1) / PMEM_BLOCK as u64;
        stats
            .blocks_flushed
            .fetch_add(last_block - first_block + 1, Ordering::Relaxed);
        self.profile.flush_delay(nlines);
    }

    /// Store fence — `sfence` emulation. Orders prior flushes.
    pub fn drain(&self) {
        self.stats.local().fences.fetch_add(1, Ordering::Relaxed);
        self.profile.fence_delay();
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// Flush + fence: make `[off, off+len)` durable now.
    pub fn persist(&self, off: u64, len: usize) {
        self.flush(off, len);
        self.drain();
    }

    /// Arrange for a [`CrashPoint`] panic after `n` more flushed cache
    /// lines. Used by crash-sweep tests; pass through `catch_unwind`.
    pub fn inject_crash_after_flushes(&self, n: i64) {
        self.crash_after_flushes.store(n, Ordering::Relaxed);
    }

    /// Disable crash injection.
    pub fn clear_crash_injection(&self) {
        self.crash_after_flushes.store(-1, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Crash simulation & recovery
    // ------------------------------------------------------------------

    /// Simulate a power failure: apply `policy` to every store that was not
    /// made durable with flush+fence, then clear volatile state. The caller
    /// must run [`Pool::recover`] (and rebuild DRAM structures) afterwards.
    ///
    /// Requires crash tracking ([`Pool::with_crash_tracking`]).
    pub fn simulate_crash(&self, policy: CrashPolicy) -> Result<()> {
        let dirty = self.dirty.as_ref().ok_or(PmemError::VolatilePool)?;
        let mut guard = dirty.lock();
        let mut lines: Vec<(u64, [u8; CACHE_LINE])> = guard.pre_images.drain().collect();
        lines.sort_unstable_by_key(|(off, _)| *off);
        match policy {
            CrashPolicy::KeepAll => {}
            CrashPolicy::DropUnflushed => {
                for (off, pre) in &lines {
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            pre.as_ptr(),
                            self.base().add(*off as usize),
                            CACHE_LINE,
                        );
                    }
                }
            }
            CrashPolicy::Torn(seed) => {
                // Deterministic per-word keep/drop via splitmix64.
                let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
                let mut next = move || {
                    state = state.wrapping_add(0x9e3779b97f4a7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                    z ^ (z >> 31)
                };
                for (off, pre) in &lines {
                    for w in 0..CACHE_LINE / 8 {
                        if next() & 1 == 0 {
                            // Word never reached the media: restore pre-image.
                            unsafe {
                                std::ptr::copy_nonoverlapping(
                                    pre.as_ptr().add(w * 8),
                                    self.base().add(*off as usize + w * 8),
                                    8,
                                );
                            }
                        }
                    }
                }
            }
        }
        drop(guard);
        self.evict_cpu_cache();
        self.clear_crash_injection();
        Ok(())
    }

    /// Run undo-log recovery: roll back any transaction that was logged but
    /// not committed. Idempotent; called automatically by [`Pool::open`].
    pub fn recover(&self) -> Result<()> {
        crate::txlog::recover_with(self, &|_| false)
    }

    /// Undo-log recovery with a cross-pool epoch decider (see
    /// [`Pool::open_with_decider`]). Idempotent.
    pub fn recover_with(&self, decider: &dyn Fn(u64) -> bool) -> Result<()> {
        crate::txlog::recover_with(self, decider)
    }

    /// Highest decided cross-pool epoch recorded on this pool (0 = none).
    pub fn committed_epoch(&self) -> u64 {
        self.read_header_u64(hoff!(committed_epoch))
    }

    /// Persist a decided cross-pool epoch: one failure-atomic 8-byte store
    /// plus flush + fence. This is the single decision point of
    /// [`commit_epoch`](crate::commit_epoch) — once durable, every
    /// participant's prepared writes are committed.
    pub fn persist_committed_epoch(&self, epoch: u64) {
        debug_assert!(epoch >= self.committed_epoch(), "epochs are monotonic");
        self.write_u64(hoff!(committed_epoch), epoch);
        self.persist(hoff!(committed_epoch), 8);
    }

    /// Number of cache lines currently written but not yet flushed
    /// (0 when tracking is disabled).
    pub fn unflushed_lines(&self) -> usize {
        self.dirty.as_ref().map_or(0, |d| d.lock().pre_images.len())
    }

    pub(crate) fn log_region(&self) -> (u64, u64) {
        (
            self.read_header_u64(hoff!(log_off)),
            self.read_header_u64(hoff!(log_cap)),
        )
    }

    pub(crate) fn log_len(&self) -> u64 {
        self.read_header_u64(hoff!(log_len))
    }

    pub(crate) fn set_log_len(&self, len: u64) {
        self.write_u64(hoff!(log_len), len);
        self.persist(hoff!(log_len), 8);
    }

    pub(crate) fn bump(&self) -> u64 {
        self.read_header_u64(hoff!(bump))
    }

    pub(crate) fn set_bump(&self, v: u64) {
        self.write_u64(hoff!(bump), v);
        self.persist(hoff!(bump), 8);
    }

    pub(crate) fn free_head_off(&self, class: usize) -> u64 {
        hoff!(free_heads) + 8 * class as u64
    }

    /// Validate an offset/length pair (public so layers can pre-check).
    pub fn check_range(&self, off: u64, len: usize) -> Result<()> {
        self.check(off, len, "range check")
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if self.is_persistent() {
            self.write_u64(hoff!(clean_shutdown), 1);
            self.persist(hoff!(clean_shutdown), 8);
            let _ = self.map.flush();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("kind", &self.kind)
            .field("size", &self.len)
            .field("profile", &self.profile.name)
            .field("tracking", &self.dirty.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pmem-pool-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn create_open_roundtrip() {
        let path = tmp("roundtrip");
        {
            let pool = Pool::create(&path, 1 << 22, DeviceProfile::dram()).unwrap();
            pool.write_u64(pool.bump(), 0xdead_beef);
            pool.persist(pool.bump(), 8);
            pool.set_root::<u64>(POff::new(pool.bump()));
        }
        {
            let pool = Pool::open(&path, DeviceProfile::dram()).unwrap();
            let root: POff<u64> = pool.root();
            assert_eq!(pool.read_u64(root.raw()), 0xdead_beef);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_garbage() {
        let path = tmp("garbage");
        std::fs::write(&path, vec![0u8; 8192]).unwrap();
        assert!(matches!(
            Pool::open(&path, DeviceProfile::dram()),
            Err(PmemError::BadPool(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn volatile_pool_works_without_file() {
        let pool = Pool::volatile(1 << 21).unwrap();
        let off = pool.bump();
        pool.write_u64(off, 42);
        assert_eq!(pool.read_u64(off), 42);
        assert!(!pool.is_persistent());
    }

    #[test]
    fn crash_drops_unflushed_but_keeps_flushed() {
        let pool = Pool::volatile(1 << 21).unwrap().with_crash_tracking();
        let a = pool.bump();
        let b = a + 4096; // different cache lines
        pool.write_u64(a, 111);
        pool.persist(a, 8);
        pool.write_u64(b, 222);
        // b never flushed
        pool.simulate_crash(CrashPolicy::DropUnflushed).unwrap();
        assert_eq!(pool.read_u64(a), 111);
        assert_eq!(pool.read_u64(b), 0);
    }

    #[test]
    fn crash_keepall_preserves_everything() {
        let pool = Pool::volatile(1 << 21).unwrap().with_crash_tracking();
        let a = pool.bump();
        pool.write_u64(a, 7);
        pool.simulate_crash(CrashPolicy::KeepAll).unwrap();
        assert_eq!(pool.read_u64(a), 7);
    }

    #[test]
    fn torn_crash_never_tears_8_byte_words() {
        let pool = Pool::volatile(1 << 21).unwrap().with_crash_tracking();
        let base = pool.bump();
        for i in 0..32u64 {
            pool.write_u64(base + i * 8, 0xAAAA_AAAA_AAAA_AAAA);
        }
        pool.simulate_crash(CrashPolicy::Torn(12345)).unwrap();
        for i in 0..32u64 {
            let v = pool.read_u64(base + i * 8);
            assert!(v == 0 || v == 0xAAAA_AAAA_AAAA_AAAA, "torn word: {v:#x}");
        }
    }

    #[test]
    fn flush_clears_dirty_lines() {
        let pool = Pool::volatile(1 << 21).unwrap().with_crash_tracking();
        let a = pool.bump();
        pool.write_bytes(a, &[1u8; 200]);
        assert!(pool.unflushed_lines() >= 3);
        pool.persist(a, 200);
        assert_eq!(pool.unflushed_lines(), 0);
    }

    #[test]
    fn stats_count_lines_and_blocks() {
        let pool = Pool::volatile(1 << 21).unwrap();
        let a = pool.bump();
        let before = pool.stats().snapshot();
        pool.write_bytes(a, &[0u8; 256]);
        pool.persist(a, 256);
        let d = pool.stats().snapshot() - before;
        assert_eq!(d.lines_flushed, 4); // 256 B = 4 lines
        assert_eq!(d.blocks_flushed, 1); // = 1 device block
        assert_eq!(d.fences, 1);
        assert_eq!(d.write_bytes, 256);
    }

    /// The probe charges what a direct-mapped cache charges: the first
    /// touch of a line, and every touch after a conflicting line took its
    /// slot — a hit stores nothing.
    #[test]
    fn cache_probe_miss_sequence() {
        let size = 16 << 20;
        let map = MmapMut::map_anon(size).unwrap();
        let mut pool = Pool::from_map(PoolKind::Volatile, map, DeviceProfile::pmem());
        pool.format(size as u64, 1 << 20).unwrap();
        pool.evict_cpu_cache();
        let a = pool.bump();
        // Same slot, different tag: one full cache (64 B x slots) further.
        let b = a + (CACHE_SLOTS * CACHE_LINE) as u64;
        let misses: Vec<u64> = [a, a, b, a].iter().map(|&off| pool.probe_cache(off, 8)).collect();
        assert_eq!(misses, [1, 0, 1, 1]);
        // A span is charged per line, and only for the lines not cached.
        assert_eq!(pool.probe_cache(a, 4 * CACHE_LINE), 3);
        assert_eq!(pool.probe_cache(a, 4 * CACHE_LINE), 0);
        pool.evict_cpu_cache_line(a);
        assert_eq!(pool.probe_cache(a, 8 * CACHE_LINE), 4 + 4);
    }

    #[test]
    fn injected_crash_panics_at_flush() {
        let pool = Pool::volatile(1 << 21).unwrap().with_crash_tracking();
        let a = pool.bump();
        pool.inject_crash_after_flushes(0);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.write_u64(a, 1);
            pool.persist(a, 8);
        }));
        assert!(res.is_err());
        assert!(res.unwrap_err().downcast_ref::<CrashPoint>().is_some());
    }

    #[test]
    fn atomic_cas_roundtrip() {
        let pool = Pool::volatile(1 << 21).unwrap();
        let a = pool.bump();
        pool.write_u64(a, 0);
        assert!(pool.compare_exchange_u64(a, 0, 9).is_ok());
        assert!(pool.compare_exchange_u64(a, 0, 10).is_err());
        assert_eq!(pool.read_u64(a), 9);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let pool = Pool::volatile(4 << 20).unwrap();
        pool.read_u64((4 << 20) + 8);
    }

    #[test]
    fn unclean_shutdown_detected_and_recovered_on_open() {
        let path = tmp("unclean");
        {
            let pool = Pool::create(&path, 1 << 22, DeviceProfile::dram()).unwrap();
            // Leak without Drop running the clean-shutdown marker.
            std::mem::forget(pool);
        }
        {
            let pool = Pool::open(&path, DeviceProfile::dram()).unwrap();
            assert_eq!(pool.log_len(), 0);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
