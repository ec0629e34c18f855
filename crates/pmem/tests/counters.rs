//! `PoolStats` counts exactly under concurrency: four threads' reads,
//! writes and persists sum to four times what one thread's do.

use std::sync::Barrier;

use pmem::{POff, Pool, StatsSnapshot};

const OPS: u64 = 10_000;

/// One thread's share: `OPS` rounds of write, persist, read on its own
/// 4 KiB region (records straddle cache lines and device blocks, so the
/// line and block counters move by more than one per call).
fn work(pool: &Pool, region: u64) {
    for i in 0..OPS {
        let off = region + (i % 31) * 100;
        pool.write(POff::<[u64; 4]>::new(off), &[i; 4]);
        pool.persist(off, 32);
        assert_eq!(pool.read(POff::<[u64; 4]>::new(off)), [i; 4]);
        assert_eq!(pool.read_u64(region), pool.read_u64(region));
    }
}

fn scaled(s: StatsSnapshot, n: u64) -> [u64; 7] {
    [
        s.read_bytes * n,
        s.read_touches * n,
        s.blocks_read * n,
        s.write_bytes * n,
        s.lines_flushed * n,
        s.blocks_flushed * n,
        s.fences * n,
    ]
}

#[test]
fn four_threads_count_four_times_one_thread() {
    const THREADS: u64 = 4;
    let pool = Pool::volatile(8 << 20).unwrap();
    let base = pool.alloc(4096 * (THREADS as usize + 1)).unwrap();

    let before = pool.stats().snapshot();
    work(&pool, base);
    let one = pool.stats().snapshot() - before;
    assert_eq!(one.read_touches, 3 * OPS);
    assert_eq!(one.fences, OPS);

    let before = pool.stats().snapshot();
    let start = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (pool, start) = (&pool, &start);
            s.spawn(move || {
                start.wait();
                work(pool, base + 4096 * (t + 1));
            });
        }
    });
    let four = pool.stats().snapshot() - before;
    assert_eq!(scaled(four, 1), scaled(one, THREADS));

    pool.stats().reset();
    assert_eq!(pool.stats().snapshot(), StatsSnapshot::default());
}
