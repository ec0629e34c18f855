//! Offline stand-in for `rand` 0.9: `StdRng::seed_from_u64`,
//! `Rng::random_range` over integer ranges, `Rng::random_bool` and
//! `Rng::random::<f64>()`.
//!
//! `StdRng` here is xoshiro256++ seeded through splitmix64, not ChaCha12,
//! so a seed produces a different (but equally deterministic) stream than
//! the published crate: a graph generated with this stand-in is not
//! byte-identical to one generated with crates.io `rand`.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Integer types `random_range` can draw. One blanket `SampleRange` impl
/// per range type (below) sits on top, so an untyped literal such as
/// `0..4000` takes its type from how the result is used.
pub trait SampleUniform: Copy + PartialOrd {
    /// `hi - lo` as an unsigned span (wrapping for signed types).
    fn span(lo: Self, hi: Self) -> u64;
    /// `lo + off`, where `off <= span(lo, hi)`.
    fn offset(lo: Self, off: u64) -> Self;
}

macro_rules! sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn span(lo: $t, hi: $t) -> u64 {
                (hi as i128 - lo as i128) as u64
            }
            fn offset(lo: $t, off: u64) -> $t {
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}
sample_uniform!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

/// Uniform draw from `0..n` (`n > 0`) by Lemire's multiply-and-reject.
fn below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    let threshold = n.wrapping_neg() % n;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(n);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::offset(self.start, below(rng, T::span(self.start, self.end)))
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        match T::span(lo, hi).checked_add(1) {
            Some(n) => T::offset(lo, below(rng, n)),
            None => T::offset(lo, rng.next_u64()),
        }
    }
}

/// Types `Rng::random` can produce.
pub trait StandardSample {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for u64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

pub trait Rng: RngCore {
    fn random<T: StandardSample>(&mut self) -> T {
        T::standard(self)
    }

    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.random::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            // splitmix64 expansion, as the xoshiro authors recommend.
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}
