//! General matrix-matrix multiply: `C = alpha * op(A) * op(B) + beta * C`.

use crate::aux::Part;
use crate::blocked::{gemm_packed, Operand};
use crate::scalar::Scalar;
use crate::simd::selected_isa;
use crate::types::Trans;
use crate::view::{MatMut, MatRef};

/// Sequential tile GEMM, routed through the blocked/packed engine
/// (the crate's `blocked` module).
///
/// `C` is `m × n`, `op(A)` is `m × k`, `op(B)` is `k × n`. When
/// `beta == 1` the engine never re-reads `C` for scaling; for other betas
/// the scale is folded into the first depth-block update, so `C` is
/// streamed exactly once either way.
///
/// # Panics
/// Panics if the operand dimensions are inconsistent.
pub fn gemm<T: Scalar>(
    trans_a: Trans,
    trans_b: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    let (m, n) = (c.nrows(), c.ncols());
    let (am, ak) = trans_a.apply_dims(a.nrows(), a.ncols());
    let (bk, bn) = trans_b.apply_dims(b.nrows(), b.ncols());
    assert_eq!(am, m, "op(A) rows {am} != C rows {m}");
    assert_eq!(bn, n, "op(B) cols {bn} != C cols {n}");
    assert_eq!(ak, bk, "op(A) cols {ak} != op(B) rows {bk}");
    let (a, b) = (Operand::dense(a, trans_a), Operand::dense(b, trans_b));
    gemm_packed(selected_isa(), alpha, a, b, beta, c, Part::All);
}

/// Scales a matrix in place: `C = beta * C` (handles `beta == 0` by writing
/// zeros, so uninitialized-NaN inputs behave like BLAS).
pub(crate) fn scale_in_place<T: Scalar>(beta: T, mut c: MatMut<'_, T>) {
    if beta == T::ONE {
        return;
    }
    let n = c.ncols();
    for j in 0..n {
        let col = c.col_mut(j);
        if beta == T::ZERO {
            col.fill(T::ZERO);
        } else {
            for v in col {
                *v *= beta;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(data: &[f64], m: usize, n: usize) -> Vec<f64> {
        assert_eq!(data.len(), m * n);
        data.to_vec()
    }

    #[test]
    fn identity_times_identity() {
        let a = mat(&[1.0, 0.0, 0.0, 1.0], 2, 2);
        let b = a.clone();
        let mut c = vec![0.0; 4];
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatRef::from_slice(&b, 2, 2, 2),
            0.0,
            MatMut::from_slice(&mut c, 2, 2, 2),
        );
        assert_eq!(c, a);
    }

    #[test]
    fn known_product_2x2() {
        // A = [1 2; 3 4] col-major [1,3,2,4]; B = [5 6; 7 8] -> AB = [19 22; 43 50]
        let a = vec![1.0, 3.0, 2.0, 4.0];
        let b = vec![5.0, 7.0, 6.0, 8.0];
        let mut c = vec![1.0; 4];
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatRef::from_slice(&b, 2, 2, 2),
            0.0,
            MatMut::from_slice(&mut c, 2, 2, 2),
        );
        assert_eq!(c, vec![19.0, 43.0, 22.0, 50.0]);
    }

    #[test]
    fn beta_accumulates() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![1.0, 1.0, 1.0, 1.0];
        let mut c = vec![10.0, 20.0, 30.0, 40.0];
        gemm(
            Trans::No,
            Trans::No,
            2.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatRef::from_slice(&b, 2, 2, 2),
            0.5,
            MatMut::from_slice(&mut c, 2, 2, 2),
        );
        assert_eq!(c, vec![7.0, 12.0, 17.0, 22.0]);
    }

    #[test]
    fn transposes_agree_with_manual() {
        // A = [1 2; 3 4], A^T B with B = I: expect A^T.
        let a = vec![1.0, 3.0, 2.0, 4.0];
        let b = vec![1.0, 0.0, 0.0, 1.0];
        let mut c = vec![0.0; 4];
        gemm(
            Trans::Yes,
            Trans::No,
            1.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatRef::from_slice(&b, 2, 2, 2),
            0.0,
            MatMut::from_slice(&mut c, 2, 2, 2),
        );
        assert_eq!(c, vec![1.0, 2.0, 3.0, 4.0]);

        let mut c2 = vec![0.0; 4];
        gemm(
            Trans::No,
            Trans::Yes,
            1.0,
            MatRef::from_slice(&b, 2, 2, 2),
            MatRef::from_slice(&a, 2, 2, 2),
            0.0,
            MatMut::from_slice(&mut c2, 2, 2, 2),
        );
        assert_eq!(c2, vec![1.0, 2.0, 3.0, 4.0]); // I * A^T = A^T
    }

    #[test]
    fn double_transpose() {
        // A^T B^T = (BA)^T. A=[1 2;3 4], B=[5 6;7 8]. BA = [23 34; 31 46].
        let a = vec![1.0, 3.0, 2.0, 4.0];
        let b = vec![5.0, 7.0, 6.0, 8.0];
        let mut c = vec![0.0; 4];
        gemm(
            Trans::Yes,
            Trans::Yes,
            1.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatRef::from_slice(&b, 2, 2, 2),
            0.0,
            MatMut::from_slice(&mut c, 2, 2, 2),
        );
        // (BA)^T col-major: [23, 34, 31, 46]
        assert_eq!(c, vec![23.0, 34.0, 31.0, 46.0]);
    }

    #[test]
    fn rectangular_shapes() {
        // (3x2) * (2x4) = 3x4 of all 2s when entries are 1 and alpha=1.
        let a = vec![1.0; 6];
        let b = vec![1.0; 8];
        let mut c = vec![0.0; 12];
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            MatRef::from_slice(&a, 3, 2, 3),
            MatRef::from_slice(&b, 2, 4, 2),
            0.0,
            MatMut::from_slice(&mut c, 3, 4, 3),
        );
        assert!(c.iter().all(|&x| x == 2.0));
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        let a = vec![0.0; 4];
        let b = vec![0.0; 4];
        let mut c = vec![f64::NAN; 4];
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatRef::from_slice(&b, 2, 2, 2),
            0.0,
            MatMut::from_slice(&mut c, 2, 2, 2),
        );
        assert!(c.iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "op(B) cols")]
    fn dimension_mismatch_panics() {
        let a = vec![0.0; 6];
        let b = vec![0.0; 6];
        let mut c = vec![0.0; 9];
        gemm(
            Trans::No,
            Trans::No,
            1.0,
            MatRef::from_slice(&a, 3, 2, 3),
            MatRef::from_slice(&b, 3, 2, 3),
            0.0,
            MatMut::from_slice(&mut c, 3, 3, 3),
        );
    }
}
