//! `ChunkedTable` scans read each run of adjacent live records once, and
//! the live counter follows the bitmaps.

use std::sync::Arc;

use gstore::ChunkedTable;
use pmem::Pool;

#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rec {
    a: u64,
    b: u64,
}
pmem::impl_pod!(Rec);

#[test]
fn scan_reads_each_run_of_adjacent_records_once() {
    let pool = Arc::new(Pool::volatile(32 << 20).unwrap());
    let t: ChunkedTable<Rec> = ChunkedTable::create(pool.clone()).unwrap();
    for i in 0..130u64 {
        t.insert(&Rec { a: i, b: !i }).unwrap();
    }
    // Chunk 0 stays full; chunk 1 loses both ends and a hole; chunk 2
    // holds two records.
    let dead: Vec<u64> = [64, 127].into_iter().chain(90..100).collect();
    for &id in &dead {
        t.delete(id);
    }
    assert_eq!(t.live_count(), 130 - dead.len());
    let before = pool.stats().snapshot().read_touches;
    let mut seen = Vec::new();
    t.for_each_live(|id, r| {
        assert_eq!((r.a, r.b), (id, !id));
        seen.push(id);
    });
    let expected: Vec<u64> = (0..130).filter(|id| !dead.contains(id)).collect();
    assert_eq!(seen, expected);
    // Three bitmaps plus one read per run: 1 + 2 + 1.
    assert_eq!(pool.stats().snapshot().read_touches - before, 3 + 4);

    // A reopened table counts what its bitmaps say.
    let reopened: ChunkedTable<Rec> = ChunkedTable::open(pool, t.root_off()).unwrap();
    assert_eq!(reopened.live_count(), 130 - dead.len());
}
