//! `Pool::read_run`: the values of a run, one charged read, bounds checked.

use pmem::{POff, Pool};

#[test]
fn read_run_yields_each_value_for_one_charged_read() {
    let pool = Pool::volatile(1 << 21).unwrap();
    let off = pool.alloc(5 * 32).unwrap();
    for i in 0..5u64 {
        let rec = [i, i + 10, i + 20, i + 30];
        pool.write(POff::<[u64; 4]>::new(off + 32 * i), &rec);
    }
    let before = pool.stats().snapshot();
    let mut seen = Vec::new();
    pool.read_run(POff::<[u64; 4]>::new(off + 32), 3, |i, v| seen.push((i, v)));
    let expected = [[1, 11, 21, 31], [2, 12, 22, 32], [3, 13, 23, 33]];
    assert_eq!(seen, Vec::from_iter(expected.into_iter().enumerate()));
    let after = pool.stats().snapshot();
    assert_eq!(after.read_touches - before.read_touches, 1);
    assert_eq!(after.read_bytes - before.read_bytes, 96);
}

#[test]
#[should_panic(expected = "out of bounds")]
fn read_run_past_the_mapping_panics() {
    let pool = Pool::volatile(1 << 21).unwrap();
    pool.read_run(POff::<u64>::new((1 << 21) - 16), 3, |_, _| {});
}
