//! Chunked record tables (design decisions DD1/DD2).
//!
//! A table is a linked list of fixed-size chunks, each a cache-line-aligned
//! array of equally-sized records whose total size is a multiple of the
//! 256-byte device block (DG3). Records are addressed by a logical record
//! id `chunk * 64 + slot` — an 8-byte integer instead of a 16-byte
//! persistent pointer (DG1/DG6). A per-chunk bitmap marks occupied slots so
//! deleted records are reused instead of deallocated (DG5), and a sparse
//! persistent chunk directory maps chunk index → chunk location; a DRAM
//! mirror of the directory is kept so hot paths never chase persistent
//! pointers (DG6). The mirror is an [`AppendVec`]: a record access reads
//! it with one load and no lock, and growing the table (`add_chunk`'s
//! PMem allocation and persists) never makes a reader wait.
//!
//! Crash consistency: a record insert becomes visible only when its bitmap
//! bit is persisted, which happens strictly after the record bytes are
//! durable. The bitmap word is updated with an 8-byte CAS (C4).

use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmem::{PmemError, Pod, Pool, Result};

use crate::appendvec::AppendVec;
use crate::RecId;

/// Records per chunk: one 8-byte bitmap word covers the whole chunk.
pub const CHUNK_CAP: usize = 64;
/// Bytes reserved at the start of each chunk for the header.
pub const CHUNK_HEADER: usize = 256;
/// Initial chunk-directory capacity (entries).
const INITIAL_DIR_CAP: u64 = 1024;

// Chunk header field offsets.
const H_NEXT: u64 = 0;
const H_FIRST_ID: u64 = 8;
const H_BITMAP: u64 = 16;

/// Persistent table root: lives in the pool, referenced by the engine root.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct TableRoot {
    record_size: u64,
    chunk_cap: u64,
    dir_off: u64,
    dir_cap: u64,
    chunk_count: u64,
}

pmem::impl_pod!(TableRoot);

const R_DIR_OFF: u64 = std::mem::offset_of!(TableRoot, dir_off) as u64;
const R_DIR_CAP: u64 = std::mem::offset_of!(TableRoot, dir_cap) as u64;
const R_CHUNK_COUNT: u64 = std::mem::offset_of!(TableRoot, chunk_count) as u64;

/// A chunked table of fixed-size POD records.
pub struct ChunkedTable<R> {
    pool: Arc<Pool>,
    root: u64,
    /// DRAM mirror of the chunk directory (DG6: translate persistent
    /// locations to a volatile structure once, at open). An entry is
    /// published only after its chunk is durable in the persistent
    /// directory.
    dir: AppendVec<u64>,
    /// Serialises [`Self::add_chunk`]; readers never take it.
    grow: Mutex<()>,
    /// Volatile free-slot cache; persistent truth is the chunk bitmaps.
    free_slots: Mutex<Vec<RecId>>,
    /// DRAM count of set bitmap bits, kept in step by [`Self::set_bit`].
    live: AtomicUsize,
    _marker: PhantomData<fn() -> R>,
}

impl<R: Pod> ChunkedTable<R> {
    const REC_SIZE: usize = std::mem::size_of::<R>();

    fn chunk_bytes() -> usize {
        CHUNK_HEADER + CHUNK_CAP * Self::REC_SIZE
    }

    fn assert_layout() {
        assert!(Self::REC_SIZE >= 8 && Self::REC_SIZE % 8 == 0, "record size must be a multiple of 8");
        assert_eq!(
            CHUNK_CAP * Self::REC_SIZE % 256,
            0,
            "chunk data must tile into 256-byte device blocks (DG3)"
        );
    }

    /// Create a new empty table in `pool`. The returned table's
    /// [`root_off`](Self::root_off) must be persisted by the caller (e.g.
    /// in the engine root object) to reopen it later.
    pub fn create(pool: Arc<Pool>) -> Result<Self> {
        Self::assert_layout();
        let root = pool.alloc_zeroed(std::mem::size_of::<TableRoot>())?;
        let dir = pool.alloc_zeroed((INITIAL_DIR_CAP * 8) as usize)?;
        let tr = TableRoot {
            record_size: Self::REC_SIZE as u64,
            chunk_cap: CHUNK_CAP as u64,
            dir_off: dir,
            dir_cap: INITIAL_DIR_CAP,
            chunk_count: 0,
        };
        pool.write(pmem::POff::new(root), &tr);
        pool.persist(root, std::mem::size_of::<TableRoot>());
        Ok(ChunkedTable {
            pool,
            root,
            dir: AppendVec::new(),
            grow: Mutex::new(()),
            free_slots: Mutex::new(Vec::new()),
            live: AtomicUsize::new(0),
            _marker: PhantomData,
        })
    }

    /// Reopen a table from its persisted root, rebuilding the DRAM
    /// directory mirror and the free-slot cache from the chunk bitmaps.
    pub fn open(pool: Arc<Pool>, root: u64) -> Result<Self> {
        Self::assert_layout();
        let tr: TableRoot = pool.read(pmem::POff::new(root));
        if tr.record_size != Self::REC_SIZE as u64 || tr.chunk_cap != CHUNK_CAP as u64 {
            return Err(PmemError::BadPool(format!(
                "table root mismatch: stored record_size={} expected {}",
                tr.record_size,
                Self::REC_SIZE
            )));
        }
        let dir: AppendVec<u64> = (0..tr.chunk_count)
            .map(|i| pool.read_u64(tr.dir_off + 8 * i))
            .collect();
        let mut free_slots = Vec::new();
        let mut live = 0;
        for (ci, &chunk) in dir.iter().enumerate() {
            let bitmap = pool.read_u64(chunk + H_BITMAP);
            live += bitmap.count_ones() as usize;
            for slot in 0..CHUNK_CAP {
                if bitmap & (1 << slot) == 0 {
                    free_slots.push((ci * CHUNK_CAP + slot) as RecId);
                }
            }
        }
        // LIFO pop order should hand out low ids first.
        free_slots.reverse();
        Ok(ChunkedTable {
            pool,
            root,
            dir,
            grow: Mutex::new(()),
            free_slots: Mutex::new(free_slots),
            live: AtomicUsize::new(live),
            _marker: PhantomData,
        })
    }

    /// Offset of the persistent table root (store this to reopen).
    pub fn root_off(&self) -> u64 {
        self.root
    }

    /// The pool this table lives in.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// Number of chunks currently allocated.
    pub fn chunk_count(&self) -> usize {
        self.dir.len()
    }

    /// Upper bound on record ids (`chunks * 64`); ids below this may or may
    /// not be live.
    pub fn high_water(&self) -> RecId {
        (self.chunk_count() * CHUNK_CAP) as RecId
    }

    /// Number of live records: set bitmap bits, from the DRAM counter.
    pub fn live_count(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    #[inline]
    fn chunk_off(&self, chunk_idx: usize) -> u64 {
        match self.dir.get(chunk_idx) {
            Some(&off) => off,
            None => panic!(
                "chunk index {chunk_idx} out of range ({} chunks)",
                self.dir.len()
            ),
        }
    }

    /// Raw pool offset of a record (for field-level atomic access by the
    /// transaction layer).
    #[inline]
    pub fn record_off(&self, id: RecId) -> u64 {
        let chunk = self.chunk_off((id as usize) / CHUNK_CAP);
        chunk + CHUNK_HEADER as u64 + ((id as usize) % CHUNK_CAP * Self::REC_SIZE) as u64
    }

    /// Copy a record out of the table, charging modelled PMem read latency.
    #[inline]
    pub fn get(&self, id: RecId) -> R {
        self.pool.read(pmem::POff::new(self.record_off(id)))
    }

    /// True if the slot's bitmap bit is set.
    pub fn is_live(&self, id: RecId) -> bool {
        let Some(&chunk) = self.dir.get((id as usize) / CHUNK_CAP) else {
            return false;
        };
        let bitmap = self.pool.read_u64(chunk + H_BITMAP);
        bitmap & (1 << ((id as usize) % CHUNK_CAP)) != 0
    }

    fn alloc_slot(&self) -> Result<RecId> {
        loop {
            if let Some(id) = self.free_slots.lock().pop() {
                return Ok(id);
            }
            // Another thread may add a chunk concurrently and drain it
            // before we pop — loop until a slot sticks.
            self.add_chunk()?;
        }
    }

    fn add_chunk(&self) -> Result<()> {
        // One grower at a time, for the whole operation; readers keep
        // going on the chunks published so far.
        let _grow = self.grow.lock();
        let ci = self.dir.len() as u64;
        let persisted = self.pool.read_u64(self.root + R_CHUNK_COUNT);
        debug_assert_eq!(persisted, ci, "the mirror and the persistent directory grow together");
        let chunk = self.pool.alloc_zeroed(Self::chunk_bytes())?;
        self.pool.write_u64(chunk + H_FIRST_ID, ci * CHUNK_CAP as u64);
        self.pool.persist(chunk + H_FIRST_ID, 8);
        // Link predecessor (scan chain; belt-and-braces next to the dir).
        if let Some(&prev) = self.dir.last() {
            self.pool.write_u64(prev + H_NEXT, chunk);
            self.pool.persist(prev + H_NEXT, 8);
        }
        // Publish in the persistent directory, growing it if needed.
        let dir_cap = self.pool.read_u64(self.root + R_DIR_CAP);
        let mut dir_off = self.pool.read_u64(self.root + R_DIR_OFF);
        if ci >= dir_cap {
            let new_cap = dir_cap * 2;
            let new_dir = self.pool.alloc_zeroed((new_cap * 8) as usize)?;
            for i in 0..ci {
                self.pool
                    .write_u64(new_dir + 8 * i, self.pool.read_u64(dir_off + 8 * i));
            }
            self.pool.persist(new_dir, (ci * 8) as usize);
            // Publish new directory location, then capacity (each 8-byte
            // atomic; a crash in between only under-reports capacity).
            self.pool.write_u64(self.root + R_DIR_OFF, new_dir);
            self.pool.persist(self.root + R_DIR_OFF, 8);
            self.pool.write_u64(self.root + R_DIR_CAP, new_cap);
            self.pool.persist(self.root + R_DIR_CAP, 8);
            self.pool.free(dir_off, (dir_cap * 8) as usize)?;
            dir_off = new_dir;
        }
        self.pool.write_u64(dir_off + 8 * ci, chunk);
        self.pool.persist(dir_off + 8 * ci, 8);
        // Commit point: the chunk exists once chunk_count covers it.
        self.pool.write_u64(self.root + R_CHUNK_COUNT, ci + 1);
        self.pool.persist(self.root + R_CHUNK_COUNT, 8);
        self.dir.push(chunk);
        let base = ci as usize * CHUNK_CAP;
        let mut free = self.free_slots.lock();
        for slot in (0..CHUNK_CAP).rev() {
            free.push((base + slot) as RecId);
        }
        Ok(())
    }

    /// Insert a record: write + persist the bytes, then persist the bitmap
    /// bit (the visibility commit point). Returns the new record id.
    pub fn insert(&self, rec: &R) -> Result<RecId> {
        let id = self.alloc_slot()?;
        let off = self.record_off(id);
        self.pool.write(pmem::POff::new(off), rec);
        self.pool.persist(off, Self::REC_SIZE);
        self.set_bit(id, true);
        Ok(id)
    }

    /// Overwrite a record in place and persist it. NOT failure-atomic on
    /// its own — multi-field updates that must be atomic go through the
    /// pool's undo-log transaction (the MVTO commit path does this).
    pub fn write(&self, id: RecId, rec: &R) {
        let off = self.record_off(id);
        self.pool.write(pmem::POff::new(off), rec);
        self.pool.persist(off, Self::REC_SIZE);
    }

    /// Delete a record: clear its bitmap bit and recycle the slot (DG5 —
    /// no deallocation).
    pub fn delete(&self, id: RecId) {
        self.set_bit(id, false);
        self.free_slots.lock().push(id);
    }

    fn set_bit(&self, id: RecId, on: bool) {
        let chunk = self.chunk_off((id as usize) / CHUNK_CAP);
        let mask = 1u64 << ((id as usize) % CHUNK_CAP);
        let word = chunk + H_BITMAP;
        loop {
            let cur = self.pool.read_u64(word);
            let new = if on { cur | mask } else { cur & !mask };
            if self.pool.compare_exchange_u64(word, cur, new).is_ok() {
                // A statistic, publishes nothing: Relaxed.
                if new > cur {
                    self.live.fetch_add(1, Ordering::Relaxed);
                } else if new < cur {
                    self.live.fetch_sub(1, Ordering::Relaxed);
                }
                break;
            }
        }
        self.pool.persist(word, 8);
    }

    /// Visit every live record: `f(id, record)`.
    pub fn for_each_live(&self, mut f: impl FnMut(RecId, &R)) {
        for ci in 0..self.chunk_count() {
            self.for_each_in_chunk(ci, &mut f);
        }
    }

    /// Visit live records of one chunk (morsel-driven parallel scans hand
    /// out chunk indexes as morsels, §6.1; so does the open-time recovery
    /// pass). The bitmap is read once and each run of adjacent live
    /// records with one sequential read.
    pub fn for_each_in_chunk(&self, chunk_idx: usize, f: &mut impl FnMut(RecId, &R)) {
        let chunk = self.chunk_off(chunk_idx);
        let mut bitmap = self.pool.read_u64(chunk + H_BITMAP);
        while bitmap != 0 {
            let first = bitmap.trailing_zeros() as usize;
            let run = (!(bitmap >> first)).trailing_zeros() as usize;
            let off = chunk + (CHUNK_HEADER + first * Self::REC_SIZE) as u64;
            let id = (chunk_idx * CHUNK_CAP + first) as RecId;
            let mut visit = |i: usize, rec: R| f(id + i as RecId, &rec);
            self.pool.read_run(pmem::POff::new(off), run, &mut visit);
            bitmap &= !(u64::MAX >> (64 - run) << first);
        }
    }

    /// Visit live record *ids* of one chunk without reading the records —
    /// scan drivers use this so the visibility check performs the single
    /// modelled record read.
    pub fn for_each_live_id(&self, chunk_idx: usize, f: &mut impl FnMut(RecId)) {
        let chunk = self.chunk_off(chunk_idx);
        let mut bitmap = self.pool.read_u64(chunk + H_BITMAP);
        let base = (chunk_idx * CHUNK_CAP) as u64;
        while bitmap != 0 {
            let slot = bitmap.trailing_zeros() as u64;
            f(base + slot);
            bitmap &= bitmap - 1;
        }
    }

    /// The raw occupancy bitmap of one chunk (used by the JIT scan loop).
    pub fn chunk_bitmap(&self, chunk_idx: usize) -> u64 {
        self.pool.read_u64(self.chunk_off(chunk_idx) + H_BITMAP)
    }

    /// Collect all live record ids (test/debug helper).
    pub fn live_ids(&self) -> Vec<RecId> {
        let mut out = Vec::new();
        self.for_each_live(|id, _| out.push(id));
        out
    }

    /// Walk the persistent chunk chain (`next` links) and verify it agrees
    /// with the directory. Returns the number of chained chunks.
    pub fn verify_chain(&self) -> usize {
        let mut count = 0;
        // `next` link of the chunk before the one being visited.
        let mut link = None;
        for &chunk in self.dir.iter() {
            if let Some(next) = link {
                assert_eq!(next, chunk, "chunk chain disagrees with directory");
            }
            link = Some(self.pool.read_u64(chunk + H_NEXT));
            count += 1;
        }
        assert!(
            matches!(link, None | Some(0)),
            "chunk chain runs past the directory"
        );
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[repr(C)]
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Rec {
        a: u64,
        b: u64,
    }
    pmem::impl_pod!(Rec);

    fn table() -> ChunkedTable<Rec> {
        let pool = Arc::new(Pool::volatile(32 << 20).unwrap());
        ChunkedTable::create(pool).unwrap()
    }

    #[test]
    fn insert_get_roundtrip() {
        let t = table();
        let id = t.insert(&Rec { a: 1, b: 2 }).unwrap();
        assert_eq!(t.get(id), Rec { a: 1, b: 2 });
        assert!(t.is_live(id));
    }

    #[test]
    fn ids_are_dense_from_zero() {
        let t = table();
        for i in 0..200u64 {
            let id = t.insert(&Rec { a: i, b: 0 }).unwrap();
            assert_eq!(id, i);
        }
        assert_eq!(t.chunk_count(), 4); // 200 records / 64 per chunk
        assert_eq!(t.live_count(), 200);
    }

    #[test]
    fn delete_recycles_slot() {
        let t = table();
        let a = t.insert(&Rec { a: 1, b: 1 }).unwrap();
        let _b = t.insert(&Rec { a: 2, b: 2 }).unwrap();
        t.delete(a);
        assert!(!t.is_live(a));
        let c = t.insert(&Rec { a: 3, b: 3 }).unwrap();
        assert_eq!(c, a, "deleted slot must be reused (DG5)");
        assert_eq!(t.get(c), Rec { a: 3, b: 3 });
    }

    #[test]
    fn scan_visits_only_live_records() {
        let t = table();
        let ids: Vec<_> = (0..100)
            .map(|i| t.insert(&Rec { a: i, b: 0 }).unwrap())
            .collect();
        for &id in ids.iter().step_by(3) {
            t.delete(id);
        }
        let mut seen = Vec::new();
        t.for_each_live(|id, r| {
            assert_eq!(r.a, id); // a == original insert index == id here
            seen.push(id);
        });
        let expected: Vec<_> = ids.iter().copied().filter(|id| id % 3 != 0).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn chunk_chain_matches_directory() {
        let t = table();
        for i in 0..300u64 {
            t.insert(&Rec { a: i, b: i }).unwrap();
        }
        assert_eq!(t.verify_chain(), 5);
    }

    #[test]
    fn directory_growth_past_initial_capacity() {
        // INITIAL_DIR_CAP chunks needs > 65536 inserts; shrink scope by
        // directly adding chunks through inserts of 64 * (cap + 2).
        let pool = Arc::new(Pool::volatile(1 << 30).unwrap());
        let t: ChunkedTable<Rec> = ChunkedTable::create(pool).unwrap();
        let n = (INITIAL_DIR_CAP as usize + 2) * CHUNK_CAP;
        for i in 0..n {
            t.insert(&Rec { a: i as u64, b: 0 }).unwrap();
        }
        assert_eq!(t.chunk_count(), INITIAL_DIR_CAP as usize + 2);
        assert_eq!(t.get((n - 1) as u64).a, (n - 1) as u64);
    }

    #[test]
    fn reopen_restores_records_and_free_slots() {
        let mut path = std::env::temp_dir();
        path.push(format!("gstore-chunked-reopen-{}", std::process::id()));
        let root;
        {
            let pool = Arc::new(
                Pool::create(&path, 32 << 20, pmem::DeviceProfile::dram()).unwrap(),
            );
            let t: ChunkedTable<Rec> = ChunkedTable::create(pool).unwrap();
            root = t.root_off();
            for i in 0..100u64 {
                t.insert(&Rec { a: i, b: i * 2 }).unwrap();
            }
            t.delete(7);
            t.delete(13);
        }
        {
            let pool = Arc::new(Pool::open(&path, pmem::DeviceProfile::dram()).unwrap());
            let t: ChunkedTable<Rec> = ChunkedTable::open(pool, root).unwrap();
            assert_eq!(t.live_count(), 98);
            assert_eq!(t.get(42), Rec { a: 42, b: 84 });
            assert!(!t.is_live(7));
            // Freed slots must be rediscovered and reused.
            let id = t.insert(&Rec { a: 1000, b: 0 }).unwrap();
            assert!(id == 7 || id == 13, "got {id}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_wrong_record_type() {
        #[repr(C)]
        #[derive(Debug, Clone, Copy)]
        struct Other {
            a: u64,
            b: u64,
            c: u64,
            d: u64,
        }
        pmem::impl_pod!(Other);

        let pool = Arc::new(Pool::volatile(32 << 20).unwrap());
        let t: ChunkedTable<Rec> = ChunkedTable::create(pool.clone()).unwrap();
        let root = t.root_off();
        drop(t);
        assert!(ChunkedTable::<Other>::open(pool, root).is_err());
    }

    #[test]
    fn crash_before_bitmap_persist_hides_record() {
        let pool = Arc::new(
            Pool::volatile(32 << 20).unwrap().with_crash_tracking(),
        );
        let t: ChunkedTable<Rec> = ChunkedTable::create(pool.clone()).unwrap();
        t.insert(&Rec { a: 1, b: 1 }).unwrap();
        let root = t.root_off();

        // Write a record but crash before the bitmap flush: count flushes of
        // a full insert (record persist = 2 lines here... instead, inject at
        // the final bitmap flush by budgeting all but the last line).
        pool.inject_crash_after_flushes(2); // record (1 line) + fence-free line
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.insert(&Rec { a: 99, b: 99 }).unwrap()
        }));
        pool.clear_crash_injection();
        if r.is_err() {
            pool.simulate_crash(pmem::CrashPolicy::DropUnflushed).unwrap();
            pool.recover().unwrap();
            let t2: ChunkedTable<Rec> = ChunkedTable::open(pool, root).unwrap();
            // The record that crashed mid-insert must be invisible.
            assert_eq!(t2.live_count(), 1);
            assert_eq!(t2.get(0), Rec { a: 1, b: 1 });
        }
    }

    /// Two scanners read every published chunk while a writer grows the
    /// table past the persistent directory's first doubling: a chunk (or a
    /// record in it) visible before it is complete shows up as a wrong
    /// record, a panic in `chunk_off`, or a broken chain.
    #[test]
    fn scans_run_while_the_table_grows_past_a_directory_doubling() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        let pool = Arc::new(Pool::volatile(64 << 20).unwrap());
        let t: ChunkedTable<Rec> = ChunkedTable::create(pool).unwrap();
        let n = (INITIAL_DIR_CAP as usize + 3) * CHUNK_CAP;
        let done = AtomicBool::new(false);
        let start = Barrier::new(3);
        // Scan chunks `from..`, newest first; returns how many records.
        let scan = |from: usize| {
            let mut seen = 0usize;
            for ci in (from..t.chunk_count()).rev() {
                t.for_each_live_id(ci, &mut |id| {
                    assert_eq!(id as usize / CHUNK_CAP, ci);
                    assert!(t.is_live(id));
                    assert_eq!(t.get(id), Rec { a: id, b: !id }, "record {id}");
                    seen += 1;
                });
            }
            seen
        };
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    while !done.load(Ordering::Acquire) {
                        // The chunks being filled and published right now.
                        scan(t.chunk_count().saturating_sub(4));
                    }
                    assert_eq!(scan(0), n, "a full scan after the last insert");
                });
            }
            start.wait();
            for i in 0..n as u64 {
                // One inserter: ids are dense, so a record names itself.
                assert_eq!(t.insert(&Rec { a: i, b: !i }).unwrap(), i);
            }
            done.store(true, Ordering::Release);
        });
        assert_eq!(t.chunk_count(), INITIAL_DIR_CAP as usize + 3);
        assert_eq!(t.verify_chain(), t.chunk_count());
        assert!(!t.is_live(n as u64), "past the last chunk");
    }

    #[test]
    fn concurrent_inserts_are_unique_and_complete() {
        let pool = Arc::new(Pool::volatile(64 << 20).unwrap());
        let t = Arc::new(ChunkedTable::<Rec>::create(pool).unwrap());
        let threads: Vec<_> = (0..4)
            .map(|tid| {
                let t = t.clone();
                std::thread::spawn(move || {
                    (0..500)
                        .map(|i| t.insert(&Rec { a: tid, b: i }).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<RecId> = threads
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 2000, "ids must be unique");
        assert_eq!(t.live_count(), 2000);
    }
}
