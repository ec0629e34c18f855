//! Exact order statistics over recorded samples. Nothing here buckets:
//! a percentile is an element of the sorted sample.

/// The `p`-th percentile (`0 < p <= 100`) of an ascending slice by the
/// nearest-rank rule: the smallest element with at least `p` percent of
/// the sample at or below it. `None` for an empty sample.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly above the `p`-th percentile's rank. A percentile is
/// only reported as resolved when at least ten samples lie beyond it.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(0, n)
}

/// Median of a few values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), which is what the driver uses
/// to judge run-to-run spread. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k*(n+1)/4, 1-based, clamped into the sample.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile range over the median: the spread the driver bounds.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Latencies of one request class, grouped by the window slice each
/// request completed in. Nanoseconds, saturating at `u32::MAX` (4.29 s,
/// beyond every class limit).
#[derive(Debug, Clone, Default)]
pub struct SlicedSamples {
    pub slices: Vec<Vec<u32>>,
}

impl SlicedSamples {
    pub fn new(slices: usize) -> SlicedSamples {
        SlicedSamples {
            slices: vec![Vec::new(); slices],
        }
    }

    pub fn push(&mut self, slice: usize, latency_ns: u64) {
        self.slices[slice].push(u32::try_from(latency_ns).unwrap_or(u32::MAX));
    }

    pub fn merge(&mut self, other: &SlicedSamples) {
        for (mine, theirs) in self.slices.iter_mut().zip(&other.slices) {
            mine.extend_from_slice(theirs);
        }
    }

    pub fn count(&self) -> usize {
        self.slices.iter().map(Vec::len).sum()
    }

    /// All samples of the window, ascending.
    pub fn sorted_all(&self) -> Vec<u32> {
        let mut all: Vec<u32> = self.slices.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    /// The `p`-th percentile of each non-empty slice, in slice order.
    pub fn per_slice_percentile(&self, p: f64) -> Vec<f64> {
        self.slices
            .iter()
            .filter_map(|s| {
                let mut s = s.clone();
                s.sort_unstable();
                percentile_sorted(&s, p).map(f64::from)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_hand_computed_vectors() {
        let v: Vec<u32> = (1..=10).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(5));
        assert_eq!(percentile_sorted(&v, 90.0), Some(9));
        assert_eq!(percentile_sorted(&v, 99.0), Some(10));
        assert_eq!(percentile_sorted(&v, 100.0), Some(10));
        assert_eq!(percentile_sorted(&v, 1.0), Some(1));
        // 200 samples: p99 is the 198th, two samples lie beyond it.
        let v: Vec<u32> = (1..=200).collect();
        assert_eq!(percentile_sorted(&v, 99.0), Some(198));
        assert_eq!(beyond(200, 99.0), 2);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(percentile_sorted(&[7], 99.0), Some(7));
        assert_eq!(percentile_sorted::<u32>(&[], 50.0), None);
    }

    #[test]
    fn median_of_slices_ignores_one_outlier_slice() {
        // Five slice p99s, one blown up by a scheduler hiccup.
        assert_eq!(median(&[410.0, 395.0, 9000.0, 402.0, 399.0]), Some(402.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(median(&[]), None);

        let mut s = SlicedSamples::new(3);
        for (slice, vals) in [(0, [10u64, 20, 30]), (1, [11, 21, 31]), (2, [12, 22, 9000])] {
            for v in vals {
                s.push(slice, v);
            }
        }
        assert_eq!(s.per_slice_percentile(99.0), vec![30.0, 31.0, 9000.0]);
        assert_eq!(median(&s.per_slice_percentile(99.0)), Some(31.0));
        assert_eq!(percentile_sorted(&s.sorted_all(), 50.0), Some(21));
        assert_eq!(s.count(), 9);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 3.0));
        assert!((iqr_share(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn latencies_saturate_instead_of_wrapping() {
        let mut s = SlicedSamples::new(1);
        s.push(0, 10_000_000_000);
        assert_eq!(s.slices[0], vec![u32::MAX]);
    }
}
