//! Auxiliary kernels: copies, norms and error metrics (the LAPACK `la*`
//! helpers the tiled algorithms and tests rely on).

use crate::scalar::Scalar;
use crate::types::Uplo;
use crate::view::{MatMut, MatRef};

/// Which part of a matrix an operation touches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Part {
    /// The full rectangle.
    All,
    /// Only the given triangle (including the diagonal).
    Triangle(Uplo),
}

/// Copies `A` into `B` (`dlacpy`): the full rectangle or one triangle.
pub fn lacpy<T: Scalar>(part: Part, a: MatRef<'_, T>, mut b: MatMut<'_, T>) {
    assert_eq!(a.nrows(), b.nrows());
    assert_eq!(a.ncols(), b.ncols());
    let (m, n) = (a.nrows(), a.ncols());
    match part {
        Part::All => {
            for j in 0..n {
                b.col_mut(j).copy_from_slice(a.col(j));
            }
        }
        Part::Triangle(Uplo::Lower) => {
            for j in 0..n {
                for i in j..m {
                    b.set(i, j, a.at(i, j));
                }
            }
        }
        Part::Triangle(Uplo::Upper) => {
            for j in 0..n {
                for i in 0..=j.min(m.saturating_sub(1)) {
                    b.set(i, j, a.at(i, j));
                }
            }
        }
    }
}

/// Max-absolute-value norm of a general matrix (`dlange('M', ...)`).
pub(crate) fn norm_max<T: Scalar>(a: MatRef<'_, T>) -> f64 {
    let mut acc = 0.0f64;
    for j in 0..a.ncols() {
        for &v in a.col(j) {
            acc = acc.max(v.to_f64().abs());
        }
    }
    acc
}

/// Max-absolute difference between two equally sized matrices.
pub fn max_abs_diff<T: Scalar>(a: MatRef<'_, T>, b: MatRef<'_, T>) -> f64 {
    assert_eq!(a.nrows(), b.nrows());
    assert_eq!(a.ncols(), b.ncols());
    let mut acc = 0.0f64;
    for j in 0..a.ncols() {
        for (x, y) in a.col(j).iter().zip(b.col(j)) {
            acc = acc.max((x.to_f64() - y.to_f64()).abs());
        }
    }
    acc
}

/// Max-absolute difference restricted to one triangle (for SYRK-style
/// results whose opposite triangle is unspecified).
pub fn max_abs_diff_tri<T: Scalar>(uplo: Uplo, a: MatRef<'_, T>, b: MatRef<'_, T>) -> f64 {
    assert_eq!(a.nrows(), b.nrows());
    assert_eq!(a.ncols(), b.ncols());
    let n = a.ncols();
    let m = a.nrows();
    let mut acc = 0.0f64;
    for j in 0..n {
        let (lo, hi) = match uplo {
            Uplo::Lower => (j, m),
            Uplo::Upper => (0, (j + 1).min(m)),
        };
        for i in lo..hi {
            acc = acc.max((a.at(i, j).to_f64() - b.at(i, j).to_f64()).abs());
        }
    }
    acc
}

/// Relative error `|x - y|_max / max(1, |y|_max)` suitable for comparing a
/// computed result against a reference.
pub fn rel_error<T: Scalar>(computed: MatRef<'_, T>, reference: MatRef<'_, T>) -> f64 {
    let denom = norm_max(reference).max(1.0);
    max_abs_diff(computed, reference) / denom
}

/// ULP distance between two `f64` values: the number of representable
/// doubles between them (0 when bitwise equal, 1 for adjacent values).
/// Uses the total-order bit trick, so it is well-defined across signs and
/// at zero (`-0.0` and `+0.0` are 0 apart). NaN anywhere returns
/// `u64::MAX` so comparisons fail loudly.
pub fn ulp_distance(x: f64, y: f64) -> u64 {
    if x.is_nan() || y.is_nan() {
        return u64::MAX;
    }
    // Map the sign-magnitude bit pattern onto a monotone integer line
    // (negative floats fold below zero, with -0.0 and +0.0 coinciding).
    fn key(v: f64) -> i64 {
        let b = v.to_bits() as i64;
        if b < 0 {
            i64::MIN - b
        } else {
            b
        }
    }
    key(x).abs_diff(key(y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lacpy_all_and_triangles() {
        let a: Vec<f64> = (1..=9).map(f64::from).collect();
        let ar = MatRef::from_slice(&a, 3, 3, 3);
        let mut b = vec![0.0; 9];
        lacpy(Part::All, ar, MatMut::from_slice(&mut b, 3, 3, 3));
        assert_eq!(a, b);

        let mut lo = vec![0.0; 9];
        lacpy(
            Part::Triangle(Uplo::Lower),
            ar,
            MatMut::from_slice(&mut lo, 3, 3, 3),
        );
        assert_eq!(lo, vec![1.0, 2.0, 3.0, 0.0, 5.0, 6.0, 0.0, 0.0, 9.0]);

        let mut up = vec![0.0; 9];
        lacpy(
            Part::Triangle(Uplo::Upper),
            ar,
            MatMut::from_slice(&mut up, 3, 3, 3),
        );
        assert_eq!(up, vec![1.0, 0.0, 0.0, 4.0, 5.0, 0.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn norms() {
        let a = vec![3.0, -4.0];
        let ar = MatRef::from_slice(&a, 2, 1, 2);
        assert!((norm_max(ar) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn diffs_and_rel_error() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![1.0, 2.5, 3.0, 4.0];
        let ar = MatRef::from_slice(&a, 2, 2, 2);
        let br = MatRef::from_slice(&b, 2, 2, 2);
        assert!((max_abs_diff(ar, br) - 0.5).abs() < 1e-12);
        assert!((rel_error(ar, br) - 0.5 / 4.0).abs() < 1e-12);
        // (1,0) differs but is outside the Upper triangle.
        assert_eq!(max_abs_diff_tri(Uplo::Upper, ar, br), 0.0);
        assert!((max_abs_diff_tri(Uplo::Lower, ar, br) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ulp_distance_counts_representable_steps() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
        assert_eq!(ulp_distance(1.0, f64::from_bits(1.0f64.to_bits() + 7)), 7);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        // Crossing zero: one step on each side of +/-0.
        assert_eq!(ulp_distance(f64::from_bits(1), -f64::from_bits(1)), 2);
        assert_eq!(ulp_distance(-1.0, f64::from_bits(1.0f64.to_bits() + 1).copysign(-1.0)), 1);
        assert_eq!(ulp_distance(f64::NAN, 1.0), u64::MAX);
    }
}
