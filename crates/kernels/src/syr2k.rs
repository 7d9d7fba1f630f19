//! Symmetric rank-2k update:
//! `C = alpha * (op(A) * op(B)^T + op(B) * op(A)^T) + beta * C`,
//! updating only the `uplo` triangle of `C`.

use crate::aux::Part;
use crate::blocked::{gemm_packed, Operand};
use crate::simd::selected_isa;
use crate::types::{Trans, Uplo};
use crate::view::{MatMut, MatRef};

/// Sequential tile SYR2K: two triangle-restricted passes of the blocked
/// GEMM engine.
///
/// With `trans == No`, `A` and `B` are `n × k`; with `trans == Yes` they
/// are `k × n` and the update is `A^T B + B^T A`. Like [`crate::syrk`],
/// only the `uplo` triangle of `C` is referenced and updated: the
/// `op(A) op(B)^T` term carries `beta`, the `op(B) op(A)^T` term
/// accumulates onto it.
///
/// # Panics
/// Panics on inconsistent dimensions or non-square `C`.
pub fn syr2k(
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    a: MatRef<'_, f64>,
    b: MatRef<'_, f64>,
    beta: f64,
    mut c: MatMut<'_, f64>,
) {
    let n = c.nrows();
    assert_eq!(c.ncols(), n, "C must be square");
    let (an, ak) = trans.apply_dims(a.nrows(), a.ncols());
    assert_eq!(an, n, "op(A) rows must equal C order");
    assert_eq!(
        trans.apply_dims(b.nrows(), b.ncols()),
        (n, ak),
        "op(B) must match op(A)"
    );
    let (isa, part) = (selected_isa(), Part::Triangle(uplo));
    let (ab, bt) = (Operand::dense(a, trans), Operand::dense(b, trans.flip()));
    gemm_packed(isa, alpha, ab, bt, beta, c.rb_mut(), part);
    // (With `alpha == 0` or `k == 0` the first pass scaled the triangle and
    // this one, accumulating onto `1 * C`, changes nothing.)
    let (ba, at) = (Operand::dense(b, trans), Operand::dense(a, trans.flip()));
    gemm_packed(isa, alpha, ba, at, 1.0, c, part);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank2_lower_manual() {
        // A = [1; 0], B = [0; 1] (2x1 each).
        // A B^T + B A^T = [0 1; 1 0].
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 1.0];
        let mut c = vec![0.0; 4];
        syr2k(
            Uplo::Lower,
            Trans::No,
            1.0,
            MatRef::from_slice(&a, 2, 1, 2),
            MatRef::from_slice(&b, 2, 1, 2),
            0.0,
            MatMut::from_slice(&mut c, 2, 2, 2),
        );
        assert_eq!(c[0], 0.0);
        assert_eq!(c[1], 1.0); // (1,0)
        assert_eq!(c[3], 0.0);
    }

    #[test]
    fn symmetric_in_exact_arithmetic() {
        // With A == B, syr2k == 2 * syrk.
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 3x2
        let mut c2k = vec![0.0; 9];
        syr2k(
            Uplo::Lower,
            Trans::No,
            1.0,
            MatRef::from_slice(&a, 3, 2, 3),
            MatRef::from_slice(&a, 3, 2, 3),
            0.0,
            MatMut::from_slice(&mut c2k, 3, 3, 3),
        );
        let mut ck = vec![0.0; 9];
        crate::syrk::syrk(
            Uplo::Lower,
            Trans::No,
            2.0,
            MatRef::from_slice(&a, 3, 2, 3),
            0.0,
            MatMut::from_slice(&mut ck, 3, 3, 3),
        );
        for (x, y) in c2k.iter().zip(&ck) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn trans_variant_matches_manual() {
        // trans=Yes, A = B = [1 2] (1x2): C = 2 * A^T A = [2 4; 4 8].
        let a = vec![1.0, 2.0];
        let mut c = vec![0.0; 4];
        syr2k(
            Uplo::Upper,
            Trans::Yes,
            1.0,
            MatRef::from_slice(&a, 1, 2, 1),
            MatRef::from_slice(&a, 1, 2, 1),
            0.0,
            MatMut::from_slice(&mut c, 2, 2, 2),
        );
        assert_eq!(c[0], 2.0);
        assert_eq!(c[2], 4.0);
        assert_eq!(c[3], 8.0);
        assert_eq!(c[1], 0.0);
    }

    #[test]
    fn untouched_triangle_preserved() {
        let a = vec![1.0, 1.0];
        let mut c = vec![7.0; 4];
        syr2k(
            Uplo::Upper,
            Trans::No,
            1.0,
            MatRef::from_slice(&a, 2, 1, 2),
            MatRef::from_slice(&a, 2, 1, 2),
            0.0,
            MatMut::from_slice(&mut c, 2, 2, 2),
        );
        assert_eq!(c[1], 7.0, "strict lower must be untouched for Upper");
    }
}
