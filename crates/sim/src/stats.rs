//! Small statistics helpers shared by the reproduction harness.

/// Online mean/min/max accumulator.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Relative load imbalance of a set of per-worker loads:
/// `max/mean - 1`, i.e. 0 for a perfectly balanced set.
pub fn imbalance(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    let max = loads.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    max / mean - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let mut s = Summary::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn summary_empty_and_single() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        s.add(5.0);
        assert_eq!(s.mean(), 5.0);
        assert_eq!((s.min(), s.max()), (5.0, 5.0));
    }

    #[test]
    fn imbalance_balanced_is_zero() {
        assert!(imbalance(&[2.0, 2.0, 2.0]).abs() < 1e-12);
    }

    #[test]
    fn imbalance_detects_skew() {
        let i = imbalance(&[1.0, 1.0, 4.0]);
        assert!((i - 1.0).abs() < 1e-12); // max 4, mean 2 -> 1.0
    }

    #[test]
    fn imbalance_edge_cases() {
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(imbalance(&[0.0, 0.0]), 0.0);
    }
}
