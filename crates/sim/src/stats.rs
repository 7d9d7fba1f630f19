//! Small statistics helpers shared by the reproduction harness.

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
