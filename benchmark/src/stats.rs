//! Medians, quartiles and percentiles of timing samples.

/// Ascending copy of `xs` (timings are finite; `total_cmp` keeps NaN from
/// panicking the sort if one ever slips in).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the exclusive method) computes them —
/// the rule the acceptance gate uses for run-to-run spread. A single
/// sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let v = sorted(xs);
    let len = v.len();
    if len == 1 {
        return [v[0]; 3];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Median, quartiles and size of one sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises a non-empty sample.
    pub fn of(xs: &[f64]) -> Self {
        let [q1, _, q3] = quartiles(xs);
        Summary {
            n: xs.len(),
            median: median(xs),
            q1,
            q3,
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The highest of p50/p90/p99/p99.9 that still has [`MIN_TAIL_SAMPLES`]
/// samples beyond it in a sample of size `n`; `None` when even the median
/// has not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (samples per thousand beyond the percentile, the percentile)
    [(1, 99.9), (10, 99.0), (100, 90.0), (500, 50.0)]
        .into_iter()
        .find(|(beyond_per_mille, _)| n * beyond_per_mille >= MIN_TAIL_SAMPLES * 1000)
        .map(|(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        let s = Summary::of(&xs);
        assert_eq!((s.n, s.median), (10, 5.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.9), 5.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(144), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }
}
