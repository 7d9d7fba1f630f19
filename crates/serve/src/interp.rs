//! The interpolation fast tier: GFLOP/s-vs-N curve fits per configuration.
//!
//! A planner query with a tolerance (`Approx { rel_err }`) does not need
//! the DES when the cache already holds exact runs of the same
//! `(library, routine, tile, data-on-device, topology)` family bracketing
//! the requested N: achieved throughput varies smoothly in N at fixed tile,
//! so a piecewise-linear fit over the exact points answers in nanoseconds
//! (the two-tier shape of the ML-driven BLAS-3 runtime work: a cheap
//! predictor in front of the expensive oracle).
//!
//! The tier is deliberately conservative — it only serves when its own
//! leave-one-out error estimate, scaled by a safety factor, meets the
//! caller's tolerance; otherwise the query falls back to the exact path.
//! Approximate answers are marked [`crate::Source`]-less (see
//! [`crate::Answer::source`] = `Interpolated`) and never enter the exact
//! cache.

use std::collections::HashMap;

use xk_baselines::Library;
use xk_kernels::Routine;

use crate::key::QueryKey;

/// The curve family: everything of [`QueryKey`] except N.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct CurveKey {
    /// Library policy model.
    pub library: Library,
    /// BLAS-3 routine.
    pub routine: Routine,
    /// Tile size the curve is fitted at.
    pub tile: usize,
    /// Data-on-device methodology.
    pub data_on_device: bool,
    /// [`xk_topo::FabricSpec::fingerprint`] of the platform.
    pub topo_fingerprint: u64,
}

impl CurveKey {
    /// The curve family of one exact-run key.
    pub(crate) fn of(key: &QueryKey) -> Self {
        CurveKey {
            library: key.library,
            routine: key.routine,
            tile: key.tile,
            data_on_device: key.data_on_device,
            topo_fingerprint: key.topo_fingerprint,
        }
    }
}

/// Fewest exact points before a curve may serve approximations.
pub const MIN_FIT_POINTS: usize = 4;

/// Widest bracketing gap the fit will interpolate across: the two exact
/// points around the query must satisfy `hi_n <= MAX_BRACKET_RATIO * lo_n`
/// (sparser data falls back to the exact tier).
pub(crate) const MAX_BRACKET_RATIO: f64 = 2.0;

/// The fit serves only when `SAFETY * leave-one-out error <= tolerance`:
/// the held-out error is an estimate at the sampled points, and the safety
/// margin covers the unseen ones.
pub const SAFETY: f64 = 2.0;

/// A GFLOP/s-vs-N curve built from exact DES runs of one [`CurveKey`].
#[derive(Clone, Debug, Default)]
pub(crate) struct Curve {
    /// `(n, gflops)` sorted ascending by n, unique n.
    pts: Vec<(f64, f64)>,
}

impl Curve {
    /// Records one exact observation (replacing any previous observation
    /// at the same N — exact reruns are deterministic, so this is a no-op
    /// for an existing point).
    pub(crate) fn insert(&mut self, n: f64, gflops: f64) {
        match self.pts.binary_search_by(|p| p.0.total_cmp(&n)) {
            Ok(i) => self.pts[i].1 = gflops,
            Err(i) => self.pts.insert(i, (n, gflops)),
        }
    }

    /// Piecewise-linear prediction at `n`; `None` outside the observed
    /// range or when fewer than two points exist.
    pub(crate) fn predict(&self, n: f64) -> Option<f64> {
        let (lo, hi) = self.bracket(n)?;
        let (x0, y0) = self.pts[lo];
        let (x1, y1) = self.pts[hi];
        if lo == hi || x1 == x0 {
            return Some(y0);
        }
        Some(y0 + (y1 - y0) * (n - x0) / (x1 - x0))
    }

    /// Indices of the two observations bracketing `n` (equal on an exact
    /// sample point); `None` out of range.
    fn bracket(&self, n: f64) -> Option<(usize, usize)> {
        if self.pts.is_empty() || n < self.pts[0].0 || n > self.pts[self.pts.len() - 1].0 {
            return None;
        }
        match self.pts.binary_search_by(|p| p.0.total_cmp(&n)) {
            Ok(i) => Some((i, i)),
            Err(i) => Some((i - 1, i)),
        }
    }

    /// The largest relative error of predicting each interior observation
    /// from its two neighbours (leave-one-out): the curve's own estimate
    /// of how wrong linear interpolation is at this sampling density.
    /// Infinity with fewer than three points.
    pub(crate) fn max_loo_rel_err(&self) -> f64 {
        if self.pts.len() < 3 {
            return f64::INFINITY;
        }
        let mut worst = 0.0f64;
        for i in 1..self.pts.len() - 1 {
            let (x0, y0) = self.pts[i - 1];
            let (x1, y1) = self.pts[i + 1];
            let (x, y) = self.pts[i];
            let pred = y0 + (y1 - y0) * (x - x0) / (x1 - x0);
            if y != 0.0 {
                worst = worst.max(((pred - y) / y).abs());
            }
        }
        worst
    }

    /// Whether the fit may answer at `n` within relative tolerance `tol`:
    /// enough points, `n` in range, a tight enough bracket, and the
    /// safety-scaled leave-one-out error within `tol`.
    pub(crate) fn can_serve(&self, n: f64, tol: f64) -> bool {
        if self.pts.len() < MIN_FIT_POINTS || !tol.is_finite() || tol <= 0.0 {
            return false;
        }
        let Some((lo, hi)) = self.bracket(n) else {
            return false;
        };
        if lo != hi && self.pts[hi].0 > MAX_BRACKET_RATIO * self.pts[lo].0 {
            return false;
        }
        SAFETY * self.max_loo_rel_err() <= tol
    }
}

/// The per-family curve table (one fit per [`CurveKey`]).
#[derive(Debug, Default)]
pub(crate) struct CurveTable {
    curves: std::sync::Mutex<HashMap<CurveKey, Curve>>,
}

impl CurveTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        CurveTable::default()
    }

    /// Feeds one exact observation into its family's curve.
    pub(crate) fn observe(&self, key: &QueryKey, gflops: f64) {
        self.curves
            .lock()
            .unwrap()
            .entry(CurveKey::of(key))
            .or_default()
            .insert(key.n as f64, gflops);
    }

    /// Predicts GFLOP/s at `key.n` when the family's fit can serve within
    /// `tol`; `None` (caller falls back to exact) otherwise.
    pub(crate) fn predict_within(&self, key: &QueryKey, tol: f64) -> Option<f64> {
        let curves = self.curves.lock().unwrap();
        let curve = curves.get(&CurveKey::of(key))?;
        if !curve.can_serve(key.n as f64, tol) {
            return None;
        }
        curve.predict(key.n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linearish() -> Curve {
        let mut c = Curve::default();
        for n in [2048.0, 3072.0, 4096.0, 5120.0, 6144.0] {
            c.insert(n, 10.0 + n / 1024.0); // exactly linear in n
        }
        c
    }

    #[test]
    fn linear_data_interpolates_exactly() {
        let c = linearish();
        assert!((c.predict(3584.0).unwrap() - 13.5).abs() < 1e-12);
        assert_eq!(c.max_loo_rel_err(), 0.0);
        assert!(c.can_serve(3584.0, 0.01));
    }

    #[test]
    fn out_of_range_is_refused() {
        let c = linearish();
        assert!(c.predict(1024.0).is_none());
        assert!(c.predict(10000.0).is_none());
        assert!(!c.can_serve(1024.0, 0.5));
        assert!(!c.can_serve(10000.0, 0.5));
    }

    #[test]
    fn sparse_data_is_refused() {
        let mut c = Curve::default();
        c.insert(2048.0, 12.0);
        c.insert(4096.0, 14.0);
        c.insert(8192.0, 16.0); // 3 points < MIN_FIT_POINTS
        assert!(!c.can_serve(3072.0, 0.5));
        c.insert(16384.0, 17.0);
        // Enough points now, but the 8192→16384 bracket is too wide
        // relative (ratio 2.0 is allowed; beyond refused).
        c.insert(40000.0, 17.5);
        assert!(!c.can_serve(20000.0, 0.5), "bracket ratio 2.5 must refuse");
    }

    #[test]
    fn wiggly_data_fails_the_loo_gate() {
        let mut c = Curve::default();
        for (i, n) in [2048.0, 3072.0, 4096.0, 5120.0, 6144.0].iter().enumerate() {
            let wiggle = if i % 2 == 0 { 1.0 } else { -1.0 };
            c.insert(*n, 20.0 + 8.0 * wiggle);
        }
        assert!(c.max_loo_rel_err() > 0.5);
        assert!(!c.can_serve(3584.0, 0.1));
    }

    #[test]
    fn duplicate_n_replaces() {
        let mut c = Curve::default();
        c.insert(2048.0, 10.0);
        c.insert(2048.0, 11.0);
        assert_eq!(c.pts.len(), 1);
        assert_eq!(c.predict(2048.0), Some(11.0));
    }
}
