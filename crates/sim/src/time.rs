//! Simulated time.
//!
//! The simulator measures time in seconds as an `f64`. [`SimTime`] wraps the
//! raw value to provide a total order (the constructor rejects NaN) so that
//! times can live inside ordered collections such as the event heap.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in seconds since the start of the simulation.
///
/// `SimTime` is totally ordered; constructing one from NaN panics, and the
/// arithmetic operators preserve the non-NaN invariant (panicking otherwise,
/// which would indicate a modelling bug such as a zero-bandwidth link).
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero: the start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a `SimTime` from raw seconds.
    ///
    /// # Panics
    /// Panics if `seconds` is NaN or negative.
    #[inline]
    pub fn new(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "SimTime must be finite and non-negative, got {seconds}"
        );
        SimTime(seconds)
    }

    /// Raw value in seconds.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// Returns the later of `self` and `other`.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    /// Returns the earlier of `self` and `other`.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Safe: the constructor guarantees non-NaN.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: Duration) -> SimTime {
        SimTime::new(self.0 + d.0)
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, other: SimTime) -> Duration {
        Duration::new((self.0 - other.0).max(0.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

/// A span of simulated time, in seconds.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct Duration(f64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0.0);

    /// Creates a duration from raw seconds.
    ///
    /// # Panics
    /// Panics if `seconds` is NaN, infinite or negative.
    #[inline]
    pub fn new(seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "Duration must be finite and non-negative, got {seconds}"
        );
        Duration(seconds)
    }

    /// Raw value in seconds.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }
}

impl Eq for Duration {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Duration {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("Duration is never NaN")
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, other: Duration) -> Duration {
        Duration::new(self.0 + other.0)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b - a, Duration::new(1.0));
    }

    #[test]
    fn subtraction_saturates_at_zero() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert_eq!(a - b, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_rejected() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_duration_rejected() {
        let _ = Duration::new(-1.0);
    }

    #[test]
    fn add_assign_advances() {
        let mut t = SimTime::ZERO;
        t += Duration::new(0.5);
        t += Duration::new(0.25);
        assert_eq!(t, SimTime::new(0.75));
    }
}
