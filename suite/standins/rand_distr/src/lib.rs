//! Offline stand-in for `rand_distr`: `Zipf` and the `Distribution`
//! trait, which is all `crates/ldbc` uses.

use rand::Rng;

pub trait Distribution<T> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZipfError {
    /// `s < 0` or NaN.
    STooSmall,
    /// `n < 1` or NaN.
    NTooSmall,
}

impl std::fmt::Display for ZipfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ZipfError::STooSmall => "s < 0 or is NaN in Zipf distribution",
            ZipfError::NTooSmall => "n < 1 or is NaN in Zipf distribution",
        })
    }
}

impl std::error::Error for ZipfError {}

/// Zipf over `1..=n` with exponent `s`, sampled by rejection-inversion
/// (Hörmann & Derflinger 1996), the method the published crate uses.
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    s: f64,
    t: f64,
    q: f64,
}

impl Zipf {
    pub fn new(n: f64, s: f64) -> Result<Zipf, ZipfError> {
        if !(s >= 0.0) {
            return Err(ZipfError::STooSmall);
        }
        if !(n >= 1.0) {
            return Err(ZipfError::NTooSmall);
        }
        let q = if s != 1.0 { 1.0 - s } else { 0.0 };
        let t = if s != 1.0 {
            (n.powf(q) - s) / q
        } else {
            1.0 + n.ln()
        };
        Ok(Zipf { s, t, q })
    }

    /// Inverse CDF of the continuous hat function.
    fn inv_cdf(&self, p: f64) -> f64 {
        let pt = p * self.t;
        if pt <= 1.0 {
            pt
        } else if self.s != 1.0 {
            (pt * self.q + self.s).powf(1.0 / self.q)
        } else {
            (pt - 1.0).exp()
        }
    }
}

impl Distribution<f64> for Zipf {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            // u in [0, 1) keeps inv_b < n, so x <= n.
            let inv_b = self.inv_cdf(rng.random::<f64>());
            let x = (inv_b + 1.0).floor();
            let mut ratio = x.powf(-self.s);
            if x > 1.0 {
                ratio *= inv_b.powf(self.s);
            }
            if rng.random::<f64>() < ratio {
                return x;
            }
        }
    }
}
