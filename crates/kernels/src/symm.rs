//! Symmetric matrix-matrix multiply:
//! `C = alpha * A * B + beta * C` (left) or `C = alpha * B * A + beta * C`
//! (right), with `A` symmetric and only its `uplo` triangle stored.

use crate::aux::Part;
use crate::blocked::{gemm_packed, Operand, Structure};
use crate::scalar::Scalar;
use crate::simd::selected_isa;
use crate::types::{Side, Trans, Uplo};
use crate::view::{MatMut, MatRef};

/// Sequential tile SYMM, routed through the blocked GEMM engine.
///
/// `C` is `m × n`; `A` is `m × m` (left) or `n × n` (right). The packer
/// mirrors the stored triangle of `A` run by run, so the other triangle is
/// never read or materialized and the hot loop is the same register-tiled
/// microkernel as [`crate::gemm`].
///
/// # Panics
/// Panics on inconsistent dimensions.
pub fn symm<T: Scalar>(
    side: Side,
    uplo: Uplo,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    let (m, n) = (c.nrows(), c.ncols());
    match side {
        Side::Left => {
            assert_eq!(a.nrows(), m, "A must be m x m for Side::Left");
            assert_eq!(a.ncols(), m);
            assert_eq!(b.nrows(), m);
            assert_eq!(b.ncols(), n);
        }
        Side::Right => {
            assert_eq!(a.nrows(), n, "A must be n x n for Side::Right");
            assert_eq!(a.ncols(), n);
            assert_eq!(b.nrows(), m);
            assert_eq!(b.ncols(), n);
        }
    }

    let a = Operand::new(a, Trans::No, Structure::Symmetric(uplo));
    let b = Operand::dense(b, Trans::No);
    let (x, y) = match side {
        Side::Left => (a, b),
        Side::Right => (b, a),
    };
    gemm_packed(selected_isa(), alpha, x, y, beta, c, Part::All);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn left_lower_matches_manual() {
        // A = [1 2; 2 5] stored lower ([1,2,*,5]), B = [1 0; 0 1].
        let a = vec![1.0, 2.0, -77.0, 5.0];
        let b = vec![1.0, 0.0, 0.0, 1.0];
        let mut c = vec![0.0; 4];
        symm(
            Side::Left,
            Uplo::Lower,
            1.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatRef::from_slice(&b, 2, 2, 2),
            0.0,
            MatMut::from_slice(&mut c, 2, 2, 2),
        );
        assert_eq!(c, vec![1.0, 2.0, 2.0, 5.0]);
    }

    #[test]
    fn right_upper_matches_manual() {
        // A = [1 2; 2 5] stored upper ([1,*,2,5]); B = [1 1] (1x2 row).
        // B*A = [1+2, 2+5] = [3, 7].
        let a = vec![1.0, -77.0, 2.0, 5.0];
        let b = vec![1.0, 1.0];
        let mut c = vec![0.0; 2];
        symm(
            Side::Right,
            Uplo::Upper,
            1.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatRef::from_slice(&b, 1, 2, 1),
            0.0,
            MatMut::from_slice(&mut c, 1, 2, 1),
        );
        assert_eq!(c, vec![3.0, 7.0]);
    }

    #[test]
    fn beta_scaling() {
        let a = vec![0.0; 4];
        let b = vec![0.0; 4];
        let mut c = vec![2.0; 4];
        symm(
            Side::Left,
            Uplo::Lower,
            1.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatRef::from_slice(&b, 2, 2, 2),
            3.0,
            MatMut::from_slice(&mut c, 2, 2, 2),
        );
        assert!(c.iter().all(|&x| x == 6.0));
    }

    #[test]
    fn lower_and_upper_storage_agree() {
        // Same symmetric matrix stored both ways must give identical results.
        let lo = vec![1.0, 4.0, 2.0, f64::NAN, 3.0, 5.0, f64::NAN, f64::NAN, 6.0];
        let up = vec![1.0, f64::NAN, f64::NAN, 4.0, 3.0, f64::NAN, 2.0, 5.0, 6.0];
        let b: Vec<f64> = (0..9).map(|x| x as f64).collect();
        let mut c1 = vec![0.0; 9];
        let mut c2 = vec![0.0; 9];
        symm(
            Side::Left,
            Uplo::Lower,
            1.0,
            MatRef::from_slice(&lo, 3, 3, 3),
            MatRef::from_slice(&b, 3, 3, 3),
            0.0,
            MatMut::from_slice(&mut c1, 3, 3, 3),
        );
        symm(
            Side::Left,
            Uplo::Upper,
            1.0,
            MatRef::from_slice(&up, 3, 3, 3),
            MatRef::from_slice(&b, 3, 3, 3),
            0.0,
            MatMut::from_slice(&mut c2, 3, 3, 3),
        );
        assert_eq!(c1, c2);
    }
}
