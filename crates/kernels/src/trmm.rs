//! Triangular matrix-matrix multiply (in place):
//! `B = alpha * op(A) * B` (left) or `B = alpha * B * op(A)` (right),
//! with `A` triangular.

use crate::aux::{lacpy, Part};
use crate::blocked::{with_scratch, Operand, Structure, TB};
use crate::tri::TriOp;
use crate::types::{Diag, Side, Trans, Uplo};
use crate::view::{MatMut, MatRef};

/// Sequential tile TRMM, updating `B` in place.
///
/// `A` is `m × m` (left) or `n × n` (right) with only its `uplo` triangle
/// referenced; `diag == Unit` treats the diagonal as ones.
///
/// The triangular dimension is halved recursively: the half of `B` that the
/// off-diagonal rectangle of `op(A)` feeds *into* is multiplied first, then
/// takes one blocked-GEMM accumulation of the other half — which still
/// holds its old values — and that half is multiplied last. Diagonal blocks
/// of order [`TB`] or less are one engine call with a triangular operand
/// over a copy of the old `B` block, so every flop runs on the packed
/// engine.
///
/// # Panics
/// Panics on inconsistent dimensions.
pub fn trmm(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: f64,
    a: MatRef<'_, f64>,
    mut b: MatMut<'_, f64>,
) {
    if let Some(op) = TriOp::checked((side, uplo, trans, diag), alpha, a, &mut b) {
        multiply(op, alpha, a, b);
    }
}

/// `B = alpha * op(A) * B` or `alpha * B * op(A)` on a non-empty `B`.
fn multiply(op: TriOp, alpha: f64, a: MatRef<'_, f64>, mut b: MatMut<'_, f64>) {
    let na = a.nrows();
    if na <= TB {
        let (m, n) = (b.nrows(), b.ncols());
        return with_scratch(m * n, |old: &mut [f64]| {
            lacpy(Part::All, b.as_ref(), MatMut::from_slice(old, m, n, m));
            let tri = Operand::new(a, op.trans, Structure::Triangular(op.uplo, op.diag));
            op.gemm(alpha, tri, MatRef::from_slice(old, m, n, m), 0.0, b);
        });
    }
    let mut s = op.split((na / 2).next_multiple_of(TB), a, b.rb_mut());
    multiply(op, alpha, s.a_target, s.target.rb_mut());
    let rect = Operand::dense(s.r, op.trans);
    op.gemm(alpha, rect, s.source.as_ref(), 1.0, s.target);
    multiply(op, alpha, s.a_source, s.source);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn left_lower_manual() {
        // A = [1 0; 2 3] lower (col-major [1,2,*,3]); B = [1; 1].
        // A*B = [1; 5].
        let a = vec![1.0, 2.0, -9.0, 3.0];
        let mut b = vec![1.0, 1.0];
        trmm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            Diag::NonUnit,
            1.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatMut::from_slice(&mut b, 2, 1, 2),
        );
        assert_eq!(b, vec![1.0, 5.0]);
    }

    #[test]
    fn unit_diag_ignores_stored_diagonal() {
        // Same A but unit diagonal: effective A = [1 0; 2 1]; A*B = [1; 3].
        let a = vec![42.0, 2.0, -9.0, 42.0];
        let mut b = vec![1.0, 1.0];
        trmm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            Diag::Unit,
            1.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatMut::from_slice(&mut b, 2, 1, 2),
        );
        assert_eq!(b, vec![1.0, 3.0]);
    }

    #[test]
    fn left_trans_equals_upper_of_transpose() {
        // (lower A)^T is upper; A = [1 0; 2 3], A^T = [1 2; 0 3], A^T*[1;1] = [3;3].
        let a = vec![1.0, 2.0, -9.0, 3.0];
        let mut b = vec![1.0, 1.0];
        trmm(
            Side::Left,
            Uplo::Lower,
            Trans::Yes,
            Diag::NonUnit,
            1.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatMut::from_slice(&mut b, 2, 1, 2),
        );
        assert_eq!(b, vec![3.0, 3.0]);
    }

    #[test]
    fn right_side_manual() {
        // B = [1 1] (1x2), A upper = [1 2; 0 3] ([1,*,2,3]).
        // B*A = [1, 5].
        let a = vec![1.0, -9.0, 2.0, 3.0];
        let mut b = vec![1.0, 1.0];
        trmm(
            Side::Right,
            Uplo::Upper,
            Trans::No,
            Diag::NonUnit,
            1.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatMut::from_slice(&mut b, 1, 2, 1),
        );
        assert_eq!(b, vec![1.0, 5.0]);
    }

    #[test]
    fn alpha_zero_clears() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let mut b = vec![5.0, 5.0];
        trmm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            Diag::NonUnit,
            0.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatMut::from_slice(&mut b, 2, 1, 2),
        );
        assert_eq!(b, vec![0.0, 0.0]);
    }

    #[test]
    fn alpha_scales() {
        let a = vec![1.0, 0.0, 0.0, 1.0]; // identity
        let mut b = vec![3.0, 4.0];
        trmm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            Diag::NonUnit,
            2.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatMut::from_slice(&mut b, 2, 1, 2),
        );
        assert_eq!(b, vec![6.0, 8.0]);
    }
}
