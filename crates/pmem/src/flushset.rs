//! Cache-line flush coalescing for the commit path.
//!
//! The paper's cost model (DG1) counts *flushed cache lines* as the decisive
//! write cost, and a transaction's dirty ranges routinely share lines: a
//! record body and its lock word live in the same 64-byte line, undo-log
//! entries are appended back to back, and group commit merges many
//! transactions' ranges. A [`FlushSet`] collects ranges at line granularity,
//! deduplicates them, and flushes each line exactly once — merging adjacent
//! lines into maximal runs so the 256-byte device-block accounting (C3) is
//! not inflated either. The caller issues a single [`Pool::drain`] after
//! [`FlushSet::flush_all`], turning a per-range flush+fence sequence into
//! one flush pass and one fence.

use crate::pool::{Pool, CACHE_LINE};

/// A deduplicated set of dirty cache lines awaiting one coalesced flush.
#[derive(Debug, Default)]
pub struct FlushSet {
    /// Line-aligned start offsets; sorted and deduplicated lazily by
    /// [`FlushSet::flush_all`].
    lines: Vec<u64>,
}

impl FlushSet {
    /// An empty set.
    pub fn new() -> FlushSet {
        FlushSet { lines: Vec::new() }
    }

    /// Add the cache lines covering `[off, off+len)`.
    pub fn add(&mut self, off: u64, len: usize) {
        if len == 0 {
            return;
        }
        let line = CACHE_LINE as u64;
        let first = off / line * line;
        let last = (off + len as u64 - 1) / line * line;
        let mut l = first;
        while l <= last {
            self.lines.push(l);
            l += line;
        }
    }

    /// Merge another set's lines into this one.
    pub fn merge(&mut self, other: &FlushSet) {
        self.lines.extend_from_slice(&other.lines);
    }

    /// True if no line was ever added.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Distinct lines currently in the set (sorts and dedups in place).
    pub fn line_count(&mut self) -> usize {
        self.normalize();
        self.lines.len()
    }

    fn normalize(&mut self) {
        self.lines.sort_unstable();
        self.lines.dedup();
    }

    /// Flush every distinct line exactly once, merging contiguous lines
    /// into maximal runs (one [`Pool::flush`] call per run). Returns the
    /// number of distinct lines flushed. The stores are durable only after
    /// the caller's next [`Pool::drain`] — that single fence is the whole
    /// point of coalescing.
    pub fn flush_all(&mut self, pool: &Pool) -> usize {
        self.normalize();
        let line = CACHE_LINE as u64;
        let n = self.lines.len();
        let mut i = 0;
        while i < n {
            let start = self.lines[i];
            let mut end = start + line;
            let mut j = i + 1;
            while j < n && self.lines[j] == end {
                end += line;
                j += 1;
            }
            pool.flush(start, (end - start) as usize);
            i = j;
        }
        n
    }

    /// Drop all recorded lines, keeping the allocation.
    pub fn clear(&mut self) {
        self.lines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_covers_all_lines_of_a_range() {
        let mut fs = FlushSet::new();
        fs.add(60, 10); // straddles the 0 and 64 lines
        assert_eq!(fs.line_count(), 2);
        fs.add(0, 1); // already covered
        assert_eq!(fs.line_count(), 2);
        fs.add(0, 0); // empty range is a no-op
        assert_eq!(fs.line_count(), 2);
    }

    #[test]
    fn flush_all_flushes_each_line_once() {
        let pool = Pool::volatile(1 << 21).unwrap();
        let base = 8192u64;
        let mut fs = FlushSet::new();
        // Three overlapping ranges inside two lines plus one distant line.
        fs.add(base, 8);
        fs.add(base + 8, 64);
        fs.add(base + 32, 16);
        fs.add(base + 4096, 8);
        let before = pool.stats().snapshot();
        let flushed = fs.flush_all(&pool);
        pool.drain();
        let d = pool.stats().snapshot() - before;
        assert_eq!(flushed, 3);
        assert_eq!(d.lines_flushed, 3, "each distinct line flushed once");
        assert_eq!(d.fences, 1, "one fence for the whole set");
    }

    #[test]
    fn contiguous_lines_merge_into_one_block_touch() {
        let pool = Pool::volatile(1 << 21).unwrap();
        let base = 16384u64; // block-aligned
        let mut fs = FlushSet::new();
        for i in 0..4u64 {
            fs.add(base + i * 64, 64); // 4 lines = exactly one 256 B block
        }
        let before = pool.stats().snapshot();
        fs.flush_all(&pool);
        let d = pool.stats().snapshot() - before;
        assert_eq!(d.lines_flushed, 4);
        assert_eq!(d.blocks_flushed, 1, "merged run counts the block once");
    }

    #[test]
    fn merge_combines_sets() {
        let mut a = FlushSet::new();
        a.add(0, 64);
        let mut b = FlushSet::new();
        b.add(0, 64);
        b.add(128, 64);
        a.merge(&b);
        assert_eq!(a.line_count(), 2);
    }

    #[test]
    fn flush_all_clears_crash_tracked_lines() {
        let pool = Pool::volatile(1 << 21).unwrap().with_crash_tracking();
        let base = 8192u64;
        pool.write_u64(base, 1);
        pool.write_u64(base + 256, 2);
        assert_eq!(pool.unflushed_lines(), 2);
        let mut fs = FlushSet::new();
        fs.add(base, 8);
        fs.add(base + 256, 8);
        fs.flush_all(&pool);
        pool.drain();
        assert_eq!(pool.unflushed_lines(), 0);
    }
}
