//! Symmetric rank-k update:
//! `C = alpha * op(A) * op(A)^T + beta * C`, updating only the `uplo`
//! triangle of the symmetric `n × n` matrix `C`.

use crate::aux::Part;
use crate::blocked::{gemm_packed, Operand};
use crate::scalar::Scalar;
use crate::simd::selected_isa;
use crate::types::{Trans, Uplo};
use crate::view::{MatMut, MatRef};

/// Sequential tile SYRK: one triangle-restricted pass of the blocked GEMM
/// engine.
///
/// With `trans == No`, `A` is `n × k`; with `trans == Yes`, `A` is `k × n`
/// and `op(A) = A^T`. Only the `uplo` triangle of `C` is referenced and
/// updated: `op(A)` is packed once as each operand, the engine skips the
/// register tiles outside the triangle and masks the ones on its diagonal,
/// so the opposite triangle of `C` is never touched.
///
/// # Panics
/// Panics on inconsistent dimensions or non-square `C`.
pub fn syrk<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    let n = c.nrows();
    assert_eq!(c.ncols(), n, "C must be square");
    let (an, _) = trans.apply_dims(a.nrows(), a.ncols());
    assert_eq!(an, n, "op(A) rows must equal C order");
    let (a, at) = (Operand::dense(a, trans), Operand::dense(a, trans.flip()));
    gemm_packed(selected_isa(), alpha, a, at, beta, c, Part::Triangle(uplo));
}

/// Scales only the `uplo` triangle of `C` by `beta` (writing zeros when
/// `beta == 0`).
pub(crate) fn scale_triangle<T: Scalar>(beta: T, uplo: Uplo, mut c: MatMut<'_, T>) {
    if beta == T::ONE {
        return;
    }
    let n = c.nrows();
    for j in 0..n {
        let (lo, hi) = match uplo {
            Uplo::Lower => (j, n),
            Uplo::Upper => (0, j + 1),
        };
        for i in lo..hi {
            if beta == T::ZERO {
                c.set(i, j, T::ZERO);
            } else {
                c.update(i, j, |v| v * beta);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank1_lower() {
        // A = [1; 2] (2x1). A*A^T = [1 2; 2 4]; lower triangle stored.
        let a = vec![1.0, 2.0];
        let mut c = vec![0.0; 4];
        syrk(
            Uplo::Lower,
            Trans::No,
            1.0,
            MatRef::from_slice(&a, 2, 1, 2),
            0.0,
            MatMut::from_slice(&mut c, 2, 2, 2),
        );
        assert_eq!(c[0], 1.0); // (0,0)
        assert_eq!(c[1], 2.0); // (1,0)
        assert_eq!(c[3], 4.0); // (1,1)
        assert_eq!(c[2], 0.0); // upper part untouched (was 0)
    }

    #[test]
    fn upper_part_not_touched() {
        let a = vec![1.0, 2.0];
        let mut c = vec![9.0; 4];
        syrk(
            Uplo::Lower,
            Trans::No,
            1.0,
            MatRef::from_slice(&a, 2, 1, 2),
            0.0,
            MatMut::from_slice(&mut c, 2, 2, 2),
        );
        assert_eq!(c[2], 9.0, "strict upper triangle must be untouched");
    }

    #[test]
    fn trans_yes_equals_atta() {
        // trans=Yes with A (1x2) = [1 2]: C = A^T A = [1 2; 2 4].
        let a = vec![1.0, 2.0];
        let mut c = vec![0.0; 4];
        syrk(
            Uplo::Upper,
            Trans::Yes,
            1.0,
            MatRef::from_slice(&a, 1, 2, 1),
            0.0,
            MatMut::from_slice(&mut c, 2, 2, 2),
        );
        assert_eq!(c[0], 1.0);
        assert_eq!(c[2], 2.0); // (0,1)
        assert_eq!(c[3], 4.0);
        assert_eq!(c[1], 0.0); // strict lower untouched
    }

    #[test]
    fn beta_only_scales_triangle() {
        let a: Vec<f64> = vec![];
        let mut c = vec![1.0; 4];
        syrk(
            Uplo::Lower,
            Trans::No,
            1.0,
            MatRef::from_slice(&a, 2, 0, 2),
            2.0,
            MatMut::from_slice(&mut c, 2, 2, 2),
        );
        assert_eq!(c, vec![2.0, 2.0, 1.0, 2.0]);
    }
}
