//! Persistent chunk allocator with size-class free lists.
//!
//! Design goal DG5: PMem allocations are expensive (C5), so the engine
//! allocates chunks (not records), reuses freed blocks through persistent
//! free lists instead of deallocating, and supports group allocation to
//! amortize allocator overhead. This allocator follows that discipline:
//!
//! * allocation rounds up to one of [`SIZE_CLASSES`] (all multiples of a
//!   cache line, classes ≥256 B aligned to the 256 B device block, DG3);
//! * `free` pushes the block on a per-class persistent LIFO list whose link
//!   word is embedded in the block's first 8 bytes;
//! * the bump pointer and free-list heads live in the pool header and are
//!   updated with single failure-atomic 8-byte stores, so the allocator
//!   metadata can never be torn. A crash between linking a block and
//!   publishing the head can leak at most one block (same trade-off PMDK
//!   resolves with its redo log; we document it instead — leaked blocks are
//!   recovered by a full-table rebuild, never cause corruption).

//!
//! On top of the global allocator sit **sharded per-thread bump arenas**:
//! each thread is assigned (round-robin) to one of [`ARENA_SHARDS`] shards,
//! and small-class allocations are bumped out of a shard-local slab that is
//! refilled from the global bump region in [`ARENA_SLAB_BYTES`] chunks (one
//! `alloc_lock` acquisition, one injected allocation latency and one bump
//! persist per *slab* instead of per block). The slab carve-out itself is
//! plain volatile arithmetic — crash-safe because the global bump pointer
//! already covers the whole slab, so a crash can only leak the unconsumed
//! tail of a slab (the same leak-not-corrupt trade-off as the free lists).
//! Arenas deliberately stand aside whenever the class's free list is
//! non-empty so freed blocks are still reused first (DG5), and
//! [`Pool::set_alloc_arenas`] turns them off for an ablation (default on).

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

use crate::error::{PmemError, Result};
use crate::pool::{Pool, PMEM_BLOCK};

/// Allocation size classes in bytes.
pub const SIZE_CLASSES: [usize; 15] = [
    64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288,
    1048576,
];

/// Number of size classes (also the length of the header free-list array).
pub(crate) const NUM_CLASSES: usize = SIZE_CLASSES.len();

/// A resolved size class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocClass {
    /// Index into [`SIZE_CLASSES`].
    pub index: usize,
    /// Block size in bytes.
    pub size: usize,
}

impl AllocClass {
    /// Smallest class that fits `size` bytes, or `None` if larger than the
    /// biggest class (large allocations are served directly from the bump
    /// region and are not reusable through free lists).
    pub fn for_size(size: usize) -> Option<AllocClass> {
        SIZE_CLASSES
            .iter()
            .position(|&c| c >= size)
            .map(|index| AllocClass {
                index,
                size: SIZE_CLASSES[index],
            })
    }
}

/// Number of allocation-arena shards. Threads are spread round-robin.
pub const ARENA_SHARDS: usize = 8;
/// Largest size class served from arenas; bigger classes go to the global
/// allocator directly (a slab would hold too few blocks to amortize).
pub const ARENA_MAX_BYTES: usize = 4096;
/// Bytes carved from the global bump region per arena refill.
pub const ARENA_SLAB_BYTES: usize = 16384;

/// One shard's bump run for one size class: `[next, end)` is pre-reserved
/// pool space not yet handed out.
#[derive(Debug, Clone, Copy, Default)]
struct ArenaRun {
    next: u64,
    end: u64,
}

/// Sharded arena state hanging off the [`Pool`].
#[derive(Debug)]
pub(crate) struct ArenaState {
    enabled: AtomicBool,
    shards: Vec<Mutex<[ArenaRun; NUM_CLASSES]>>,
}

impl ArenaState {
    pub(crate) fn new() -> ArenaState {
        ArenaState {
            enabled: AtomicBool::new(true),
            shards: (0..ARENA_SHARDS)
                .map(|_| Mutex::new([ArenaRun::default(); NUM_CLASSES]))
                .collect(),
        }
    }
}

/// Round-robin thread-to-shard assignment, fixed for a thread's lifetime.
fn my_shard() -> usize {
    crate::stats::thread_ordinal() % ARENA_SHARDS
}

impl Pool {
    /// Allocate `size` bytes of persistent memory. Returns the byte offset.
    ///
    /// Small-class allocations are served from the calling thread's arena
    /// shard when arenas are enabled and the class free list is empty;
    /// everything else takes the global `alloc_lock`.
    ///
    /// Contents of a reused block are unspecified; use
    /// [`Pool::alloc_zeroed`] when the caller relies on zero-initialisation.
    pub fn alloc(&self, size: usize) -> Result<u64> {
        self.stats().local().allocs.fetch_add(1, Ordering::Relaxed);
        if let Some(off) = self.arena_alloc(size) {
            return Ok(off);
        }
        let _g = self.alloc_lock.lock();
        self.profile().alloc_delay();
        self.alloc_locked(size)
    }

    /// Whether sharded allocation arenas are in use.
    pub fn alloc_arenas(&self) -> bool {
        self.arena.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable the sharded arenas at runtime. Disabling strands
    /// the unconsumed tails of live slabs (leaked, never corrupted).
    pub fn set_alloc_arenas(&self, on: bool) {
        self.arena.enabled.store(on, Ordering::Relaxed);
    }

    /// Try to serve `size` from the caller's arena shard. `None` routes the
    /// request to the global allocator: class too large, free list
    /// non-empty (freed blocks must be reused first, DG5), arenas off, or
    /// the refill failed (e.g. out of space — the global path reports it).
    fn arena_alloc(&self, size: usize) -> Option<u64> {
        if !self.arena.enabled.load(Ordering::Relaxed) {
            return None;
        }
        let class = AllocClass::for_size(size)?;
        if class.size > ARENA_MAX_BYTES {
            return None;
        }
        // Racy pre-check by design: a concurrent free may be missed this
        // round and reused on the next allocation instead.
        if self.read_header_u64(self.free_head_off(class.index)) != 0 {
            return None;
        }
        let mut runs = self.arena.shards[my_shard()].lock();
        let run = &mut runs[class.index];
        if run.next + (class.size as u64) <= run.end {
            let off = run.next;
            run.next += class.size as u64;
            return Some(off);
        }
        // Refill: one global-allocator round trip reserves a whole slab.
        // Lock order is shard -> alloc_lock, never the reverse.
        let n = ARENA_SLAB_BYTES / class.size;
        let align = class.size.min(PMEM_BLOCK);
        let start = {
            let _g = self.alloc_lock.lock();
            self.profile().alloc_delay();
            self.alloc_bump_group(class.size, n, align).ok()?
        };
        self.stats().local().arena_refills.fetch_add(1, Ordering::Relaxed);
        run.next = start + class.size as u64;
        run.end = start + (class.size * n) as u64;
        Some(start)
    }

    fn alloc_locked(&self, size: usize) -> Result<u64> {
        match AllocClass::for_size(size) {
            Some(class) => {
                let head_off = self.free_head_off(class.index);
                let head = self.read_header_u64(head_off);
                if head != 0 {
                    // Pop: publish the successor with one atomic store.
                    let next = self.read_u64(head);
                    self.write_u64(head_off, next);
                    self.persist(head_off, 8);
                    return Ok(head);
                }
                self.alloc_bump(class.size, class.size.min(PMEM_BLOCK))
            }
            None => {
                // Large allocation: 256-byte aligned, bump only.
                let rounded = size.div_ceil(PMEM_BLOCK) * PMEM_BLOCK;
                self.alloc_bump(rounded, PMEM_BLOCK)
            }
        }
    }

    fn alloc_bump(&self, size: usize, align: usize) -> Result<u64> {
        let bump = self.bump();
        let start = bump.div_ceil(align as u64) * align as u64;
        let end = start
            .checked_add(size as u64)
            .ok_or(PmemError::OutOfSpace { requested: size })?;
        if end > self.size() as u64 {
            return Err(PmemError::OutOfSpace { requested: size });
        }
        self.set_bump(end);
        Ok(start)
    }

    /// Allocate and zero-fill.
    pub fn alloc_zeroed(&self, size: usize) -> Result<u64> {
        let off = self.alloc(size)?;
        self.write_zeros(off, size);
        self.persist(off, size);
        Ok(off)
    }

    /// Group allocation (DG5): `n` blocks of `size` bytes with a single
    /// allocator round-trip and a single injected allocation latency.
    /// Contiguous when served from the bump region.
    pub fn alloc_group(&self, size: usize, n: usize) -> Result<Vec<u64>> {
        let _g = self.alloc_lock.lock();
        self.profile().alloc_delay();
        self.stats()
            .local()
            .allocs
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut out = Vec::with_capacity(n);
        if let Some(class) = AllocClass::for_size(size) {
            // Contiguous fast path when no reusable blocks exist.
            if self.read_header_u64(self.free_head_off(class.index)) == 0 {
                let align = class.size.min(PMEM_BLOCK);
                let start = self.alloc_bump_group(class.size, n, align)?;
                for i in 0..n {
                    out.push(start + (i * class.size) as u64);
                }
                return Ok(out);
            }
        }
        for _ in 0..n {
            out.push(self.alloc_locked(size)?);
        }
        Ok(out)
    }

    fn alloc_bump_group(&self, size: usize, n: usize, align: usize) -> Result<u64> {
        let bump = self.bump();
        let start = bump.div_ceil(align as u64) * align as u64;
        let total = (size * n) as u64;
        let end = start
            .checked_add(total)
            .ok_or(PmemError::OutOfSpace { requested: size * n })?;
        if end > self.size() as u64 {
            return Err(PmemError::OutOfSpace { requested: size * n });
        }
        self.set_bump(end);
        Ok(start)
    }

    /// Return a class-sized block to its free list for later reuse. `size`
    /// must match the size passed to [`Pool::alloc`]. Large (over-class)
    /// blocks are intentionally leaked (DG5: reuse, don't deallocate).
    pub fn free(&self, off: u64, size: usize) -> Result<()> {
        let Some(class) = AllocClass::for_size(size) else {
            return Ok(()); // large block: leaked by design
        };
        let _g = self.alloc_lock.lock();
        self.stats()
            .local()
            .frees
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let head_off = self.free_head_off(class.index);
        let head = self.read_header_u64(head_off);
        // Link first, then publish: a crash in between leaks `off` only.
        self.write_u64(off, head);
        self.persist(off, 8);
        self.write_u64(head_off, off);
        self.persist(head_off, 8);
        Ok(())
    }

    /// Bytes remaining in the never-allocated bump region.
    pub fn bytes_remaining(&self) -> u64 {
        self.size() as u64 - self.bump()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceProfile;

    fn pool() -> Pool {
        Pool::volatile(8 << 20).unwrap()
    }

    #[test]
    fn classes_are_sorted_multiples_of_cache_line() {
        let mut prev = 0;
        for c in SIZE_CLASSES {
            assert!(c > prev);
            assert_eq!(c % 64, 0);
            prev = c;
        }
    }

    #[test]
    fn class_lookup() {
        assert_eq!(AllocClass::for_size(1).unwrap().size, 64);
        assert_eq!(AllocClass::for_size(64).unwrap().size, 64);
        assert_eq!(AllocClass::for_size(65).unwrap().size, 128);
        assert_eq!(AllocClass::for_size(1048576).unwrap().size, 1048576);
        assert!(AllocClass::for_size(1048577).is_none());
    }

    #[test]
    fn alloc_aligns_to_device_block() {
        let p = pool();
        for size in [256, 1024, 4096] {
            let off = p.alloc(size).unwrap();
            assert_eq!(off % PMEM_BLOCK as u64, 0, "size {size}");
        }
        // Small classes align to their own size.
        let off = p.alloc(64).unwrap();
        assert_eq!(off % 64, 0);
    }

    #[test]
    fn free_then_alloc_reuses_block() {
        let p = pool();
        let a = p.alloc(256).unwrap();
        p.free(a, 256).unwrap();
        let b = p.alloc(256).unwrap();
        assert_eq!(a, b, "freed block must be reused (DG5)");
    }

    #[test]
    fn free_list_is_per_class() {
        let p = pool();
        let a = p.alloc(64).unwrap();
        p.free(a, 64).unwrap();
        let b = p.alloc(128).unwrap();
        assert_ne!(a, b, "different class must not reuse the 64B block");
        let c = p.alloc(64).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn group_alloc_is_contiguous_from_bump() {
        let p = pool();
        let offs = p.alloc_group(256, 8).unwrap();
        assert_eq!(offs.len(), 8);
        for w in offs.windows(2) {
            assert_eq!(w[1] - w[0], 256);
        }
    }

    #[test]
    fn group_alloc_counts_one_allocation() {
        let p = pool();
        let before = p.stats().snapshot();
        p.alloc_group(256, 16).unwrap();
        let d = p.stats().snapshot() - before;
        assert_eq!(d.allocs, 1, "group allocation amortizes to one alloc");
    }

    #[test]
    fn alloc_zeroed_zeroes_reused_blocks() {
        let p = pool();
        let a = p.alloc(128).unwrap();
        p.write_bytes(a, &[0xFF; 128]);
        p.free(a, 128).unwrap();
        let b = p.alloc_zeroed(128).unwrap();
        assert_eq!(a, b);
        let mut buf = [1u8; 128];
        p.read_slice(b, &mut buf);
        assert!(buf.iter().all(|&x| x == 0));
    }

    #[test]
    fn out_of_space_errors_cleanly() {
        let p = Pool::volatile(2 << 20).unwrap();
        let mut n = 0;
        loop {
            match p.alloc(65536) {
                Ok(_) => n += 1,
                Err(PmemError::OutOfSpace { .. }) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(n < 100, "should run out of space");
        }
        // Small allocations may still fail afterwards but must not panic.
        let _ = p.alloc(64);
    }

    #[test]
    fn large_alloc_served_and_aligned() {
        let p = Pool::volatile(16 << 20).unwrap();
        let off = p.alloc(3 << 20).unwrap();
        assert_eq!(off % PMEM_BLOCK as u64, 0);
        p.write_u64(off, 1);
        p.write_u64(off + (3 << 20) - 8, 2);
    }

    #[test]
    fn arena_refills_amortize_allocator_round_trips() {
        let p = pool();
        assert!(p.alloc_arenas(), "arenas default on");
        let before = p.stats().snapshot();
        for _ in 0..64 {
            p.alloc(64).unwrap(); // 64 x 64 B = exactly one 16 KiB slab
        }
        let d = p.stats().snapshot() - before;
        assert_eq!(d.allocs, 64, "every allocation is still counted");
        assert!(d.arena_refills <= 1, "one slab serves all 64 blocks");
        assert!(
            d.fences <= 2,
            "bump persisted per slab, not per block (got {})",
            d.fences
        );
    }

    #[test]
    fn arena_allocs_are_disjoint_across_threads() {
        let p = std::sync::Arc::new(pool());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = p.clone();
                std::thread::spawn(move || {
                    (0..200).map(|_| p.alloc(128).unwrap()).collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "no block handed out twice");
        for w in all.windows(2) {
            assert!(w[1] - w[0] >= 128, "blocks must not overlap");
        }
    }

    #[test]
    fn arena_prefers_free_list_reuse() {
        let p = pool();
        // Warm the arena so it has a live run for the class.
        let warm = p.alloc(256).unwrap();
        p.free(warm, 256).unwrap();
        // With a non-empty free list the arena stands aside and the freed
        // block is reused even though the arena run still has room.
        let again = p.alloc(256).unwrap();
        assert_eq!(warm, again, "freed block reused before arena bump (DG5)");
        // Free list drained: next allocation comes from the arena run again.
        let fresh = p.alloc(256).unwrap();
        assert_ne!(fresh, warm);
    }

    #[test]
    fn arena_disabled_matches_global_path() {
        let p = pool();
        p.set_alloc_arenas(false);
        assert!(!p.alloc_arenas());
        let before = p.stats().snapshot();
        let a = p.alloc(64).unwrap();
        let b = p.alloc(64).unwrap();
        let d = p.stats().snapshot() - before;
        assert_eq!(b - a, 64, "sequential bump like the seed allocator");
        assert_eq!(d.arena_refills, 0);
        assert_eq!(d.fences, 2, "one bump persist per allocation");
    }

    #[test]
    fn arena_blocks_survive_reopen() {
        let mut path = std::env::temp_dir();
        path.push(format!("pmem-arena-reopen-{}", std::process::id()));
        let (a, b);
        {
            let p = Pool::create(&path, 8 << 20, DeviceProfile::dram()).unwrap();
            assert!(p.alloc_arenas());
            a = p.alloc(512).unwrap();
            b = p.alloc(512).unwrap();
            p.write_u64(a, 0xA);
            p.write_u64(b, 0xB);
            p.persist(a, 8);
            p.persist(b, 8);
        }
        {
            let p = Pool::open(&path, DeviceProfile::dram()).unwrap();
            // Arena-served blocks are ordinary pool space: contents persist
            // and the global bump can never re-issue them.
            assert_eq!(p.read_u64(a), 0xA);
            assert_eq!(p.read_u64(b), 0xB);
            let fresh = p.alloc(512).unwrap();
            assert!(fresh != a && fresh != b, "reopened bump must not reuse");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn free_list_survives_reopen() {
        let mut path = std::env::temp_dir();
        path.push(format!("pmem-alloc-reopen-{}", std::process::id()));
        let (a, b);
        {
            let p = Pool::create(&path, 8 << 20, DeviceProfile::dram()).unwrap();
            a = p.alloc(512).unwrap();
            b = p.alloc(512).unwrap();
            p.free(a, 512).unwrap();
            p.free(b, 512).unwrap();
        }
        {
            let p = Pool::open(&path, DeviceProfile::dram()).unwrap();
            // LIFO: b then a.
            assert_eq!(p.alloc(512).unwrap(), b);
            assert_eq!(p.alloc(512).unwrap(), a);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
