//! [`AppendVec`]: a grow-only vector whose readers take no lock.
//!
//! The DRAM directories on the record read path — chunk index → chunk
//! offset, chunk index → write-tracking cell, chunk index → zone — are
//! read once or more per record and grow once per 64 inserts. A
//! `RwLock<Vec<_>>` makes every one of those reads two atomic
//! read-modify-writes on a line all readers share. Here a read is one
//! `Acquire` load of the length and one index:
//!
//! * elements live in segments of doubling size (`FIRST`, `2·FIRST`,
//!   `4·FIRST`, …) that are allocated once and never move, so a reference
//!   handed out stays valid for the vector's lifetime;
//! * `push` writes the slot (allocating its segment first if it opens
//!   one) and only then publishes the new length with `Release`; a reader
//!   that `Acquire`-loads a length covering index `i` therefore sees slot
//!   `i` and its segment pointer fully written;
//! * growth is serialised by a mutex readers never touch.
//!
//! Elements are never removed or moved; interior mutability (atomics) is
//! how an element changes after it was pushed.

use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Slots in the first segment; segment `k` holds `FIRST << k`.
const FIRST: usize = 64;
/// Enough segments to cover every `usize` index.
const SEGMENTS: usize = (usize::BITS - FIRST.trailing_zeros()) as usize;

/// Segment and slot-in-segment of index `i`: with `p = i + FIRST`, the
/// segment is `p`'s highest set bit (counted from `FIRST`'s) and the slot
/// is `p` without that bit.
#[inline]
fn locate(i: usize) -> (usize, usize) {
    let p = i + FIRST;
    let top = p.ilog2();
    ((top - FIRST.trailing_zeros()) as usize, p - (1 << top))
}

/// A grow-only vector: wait-free `get`, mutex-serialised `push`.
pub struct AppendVec<T> {
    segments: [AtomicPtr<T>; SEGMENTS],
    len: AtomicUsize,
    grow: Mutex<()>,
    /// The vector owns `T`s behind the raw segment pointers: no auto
    /// `Send`/`Sync` (see the impls below), and the drop check knows.
    _owns: PhantomData<*mut T>,
}

// SAFETY: moving the vector moves the `T`s it owns, and nothing else in it
// is thread-bound.
unsafe impl<T: Send> Send for AppendVec<T> {}
// SAFETY: `&AppendVec` hands out `&T` to any thread (`T: Sync`) and lets
// any thread push a `T` that another thread later drops (`T: Send`). The
// segment table and length are atomics; `push` is serialised by `grow`.
unsafe impl<T: Send + Sync> Sync for AppendVec<T> {}

impl<T> Default for AppendVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> AppendVec<T> {
    pub fn new() -> Self {
        AppendVec {
            segments: [const { AtomicPtr::new(std::ptr::null_mut()) }; SEGMENTS],
            len: AtomicUsize::new(0),
            grow: Mutex::new(()),
            _owns: PhantomData,
        }
    }

    /// Number of published elements. Every index below it is readable.
    #[inline]
    pub fn len(&self) -> usize {
        // Pairs with the `Release` store in `push_locked`.
        self.len.load(Ordering::Acquire)
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element `i`, or `None` when `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len() {
            return None;
        }
        let (seg, slot) = locate(i);
        // The `Acquire` load in `len()` saw a length covering `i`, whose
        // `Release` store came after this segment pointer was stored and
        // slot `i` written — so a `Relaxed` load sees the pointer.
        let base = self.segments[seg].load(Ordering::Relaxed);
        // SAFETY: `i < len`, so `base` is segment `seg`'s live allocation
        // of `FIRST << seg` slots, `slot` is inside it (`locate`), and the
        // slot was initialised before `len` covered it. Segments are freed
        // only in `drop`, and elements never move or are removed, so the
        // reference is valid for `&self`'s lifetime.
        Some(unsafe { &*base.add(slot) })
    }

    /// The last published element.
    pub fn last(&self) -> Option<&T> {
        self.len().checked_sub(1).and_then(|i| self.get(i))
    }

    /// The published elements, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len()).map_while(|i| self.get(i))
    }

    /// Append `value`; returns its index.
    pub fn push(&self, value: T) -> usize {
        let _grow = self.grow.lock();
        self.push_locked(value)
    }

    /// Element `i`, first appending `make()` values until it exists.
    pub fn get_or_extend(&self, i: usize, mut make: impl FnMut() -> T) -> &T {
        if let Some(v) = self.get(i) {
            return v;
        }
        {
            let _grow = self.grow.lock();
            // Only growers change `len`, and we are the one grower.
            while self.len.load(Ordering::Relaxed) <= i {
                self.push_locked(make());
            }
        }
        self.get(i).expect("index was just extended over")
    }

    /// `push` with `grow` held by the caller.
    fn push_locked(&self, value: T) -> usize {
        let i = self.len.load(Ordering::Relaxed);
        let (seg, slot) = locate(i);
        let mut base = self.segments[seg].load(Ordering::Relaxed);
        if base.is_null() {
            debug_assert_eq!(slot, 0, "segments open at their first slot");
            let fresh: Box<[MaybeUninit<T>]> = Box::new_uninit_slice(FIRST << seg);
            base = Box::into_raw(fresh).cast::<T>();
            // Published to readers by the `Release` store of `len` below.
            self.segments[seg].store(base, Ordering::Relaxed);
        }
        // SAFETY: `base` is segment `seg`'s allocation of `FIRST << seg`
        // slots and `slot` is inside it; slot `i` is uninitialised (`len`
        // has never covered it) and no reader looks at it until it does.
        unsafe { base.add(slot).write(value) };
        // Pairs with the `Acquire` load in `len()`.
        self.len.store(i + 1, Ordering::Release);
        i
    }
}

impl<T> FromIterator<T> for AppendVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let v = AppendVec::new();
        for x in iter {
            // Not shared yet: nobody to lock out.
            v.push_locked(x);
        }
        v
    }
}

impl<T> Drop for AppendVec<T> {
    fn drop(&mut self) {
        let mut left = *self.len.get_mut();
        for (seg, base) in self.segments.iter_mut().enumerate() {
            let base = *base.get_mut();
            if base.is_null() {
                break;
            }
            let cap = FIRST << seg;
            let init = left.min(cap);
            left -= init;
            // SAFETY: `base` came from `Box::<[MaybeUninit<T>]>::into_raw`
            // with `cap` slots; its first `init` slots are the initialised
            // ones (segments fill in index order). `&mut self`: no reader
            // or grower is left.
            unsafe {
                std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(base, init));
                drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                    base.cast::<MaybeUninit<T>>(),
                    cap,
                )));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    #[test]
    fn locate_tiles_the_index_space_without_gaps() {
        let mut expect = (0usize, 0usize);
        for i in 0..(FIRST << 6) {
            assert_eq!(locate(i), expect, "index {i}");
            expect.1 += 1;
            if expect.1 == FIRST << expect.0 {
                expect = (expect.0 + 1, 0);
            }
        }
        assert_eq!(locate(usize::MAX - FIRST), (SEGMENTS - 1, (1 << (usize::BITS - 1)) - 1));
    }

    #[test]
    fn indices_straddling_every_segment_boundary_read_back() {
        let v = AppendVec::new();
        // Five segments: boundaries at 64, 192, 448, 960.
        let n = FIRST * 31;
        for i in 0..n {
            assert_eq!(v.get(i), None, "unpublished index {i}");
            assert_eq!(v.push(i * 3), i);
            assert_eq!(v.len(), i + 1);
        }
        for seg in 0..5 {
            let start = FIRST * ((1 << seg) - 1);
            for i in [start.saturating_sub(1), start, start + 1] {
                assert_eq!(v.get(i), Some(&(i * 3)), "index {i} at segment {seg}");
            }
        }
        assert!(v.iter().copied().eq((0..n).map(|i| i * 3)));
        assert_eq!(v.last(), Some(&((n - 1) * 3)));
        assert_eq!(v.get(n), None, "get(len) is None");
        assert_eq!(v.get(usize::MAX), None);
    }

    #[test]
    fn references_stay_valid_across_growth() {
        let v = AppendVec::new();
        v.push(7u64);
        let first = v.get(0).unwrap();
        for i in 0..10_000u64 {
            v.push(i);
        }
        assert_eq!(*first, 7);
        assert!(std::ptr::eq(first, v.get(0).unwrap()), "segments never move");
    }

    #[test]
    fn get_or_extend_fills_every_predecessor() {
        let v: AppendVec<AtomicUsize> = AppendVec::new();
        let mut made = 0;
        v.get_or_extend(200, || {
            made += 1;
            AtomicUsize::new(0)
        })
        .store(9, Ordering::Relaxed);
        assert_eq!((made, v.len()), (201, 201));
        let same = v.get_or_extend(200, || unreachable!("already there"));
        assert_eq!(same.load(Ordering::Relaxed), 9);
        assert_eq!(v.get(0).unwrap().load(Ordering::Relaxed), 0);
    }

    #[test]
    fn drop_frees_every_element_once() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Ends mid-segment, so the partly filled last segment is covered.
        let n = FIRST * 7 + 5;
        let v: AppendVec<Probe> = (0..n).map(|_| Probe).collect();
        assert_eq!(v.len(), n);
        assert_eq!(DROPS.load(Ordering::Relaxed), 0);
        drop(v);
        assert_eq!(DROPS.load(Ordering::Relaxed), n);
        drop(AppendVec::<Probe>::new());
        assert_eq!(DROPS.load(Ordering::Relaxed), n);
    }

    /// Four readers check `get(i) == f(i)` for every published index
    /// while a writer pushes: a length published before its slot (or its
    /// segment pointer) shows up as a wrong value or a fault.
    #[test]
    fn readers_see_every_published_slot_while_a_writer_pushes() {
        const N: usize = 100_000;
        let f = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let v: AppendVec<u64> = AppendVec::new();
        let done = AtomicBool::new(false);
        let start = Barrier::new(5);
        std::thread::scope(|s| {
            for r in 0..4 {
                let (v, done, start) = (&v, &done, &start);
                s.spawn(move || {
                    start.wait();
                    let mut checked = 0usize;
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let len = v.len();
                        assert!(len >= checked, "len went backwards");
                        // Newest entries first: the ones most likely torn.
                        for i in (checked.saturating_sub(r)..len).rev() {
                            assert_eq!(v.get(i), Some(&f(i)), "reader {r} index {i}");
                        }
                        checked = len;
                        if finished {
                            assert_eq!(len, N);
                            break;
                        }
                    }
                });
            }
            start.wait();
            for i in 0..N {
                v.push(f(i));
            }
            done.store(true, Ordering::Release);
        });
    }
}
