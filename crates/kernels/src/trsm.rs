//! Triangular solve with multiple right-hand sides (in place):
//! `B = alpha * inv(op(A)) * B` (left) or `B = alpha * B * inv(op(A))`
//! (right), with `A` triangular.

use crate::blocked::Operand;
use crate::tri::TriOp;
use crate::types::{Diag, Side, Trans, Uplo};
use crate::view::{MatMut, MatRef};

/// Order of the substitution leaf: small enough for one right-hand side's
/// unknowns to live in registers.
const LEAF: usize = 8;

/// Sequential tile TRSM, updating `B` in place.
///
/// Solves `op(A) * X = alpha * B` (left) or `X * op(A) = alpha * B` (right)
/// and stores `X` in `B`.
///
/// Recursive blocked substitution: the triangular dimension is halved, the
/// half of `B` whose unknowns the off-diagonal rectangle of `op(A)` reads is
/// solved first, the other half takes one blocked-GEMM update with it
/// (`B_t ← alpha B_t − rect · X_s`, `alpha` folded in as the GEMM `beta`)
/// and is solved in turn. The recursion ends in plain substitution against
/// a register-sized dense copy of a diagonal block (eight rows), so all
/// but a sliver of the flops run on the packed engine.
///
/// # Panics
/// Panics on inconsistent dimensions. Dividing by an (exactly) zero diagonal
/// produces infinities, like BLAS.
pub fn trsm(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: f64,
    a: MatRef<'_, f64>,
    mut b: MatMut<'_, f64>,
) {
    if let Some(op) = TriOp::checked((side, uplo, trans, diag), alpha, a, &mut b) {
        solve(op, alpha, a, b);
    }
}

/// Solves `op(A) * X = alpha * B` or `X * op(A) = alpha * B` into a
/// non-empty `B`.
fn solve(op: TriOp, alpha: f64, a: MatRef<'_, f64>, mut b: MatMut<'_, f64>) {
    let na = a.nrows();
    if na <= LEAF {
        return substitute(op, alpha, a, b);
    }
    let mut s = op.split((na / 2).next_multiple_of(LEAF), a, b.rb_mut());
    solve(op, alpha, s.a_source, s.source.rb_mut());
    let rect = Operand::dense(s.r, op.trans);
    op.gemm(-1.0, rect, s.source.as_ref(), alpha, s.target.rb_mut());
    solve(op, 1.0, s.a_target, s.target);
}

/// Plain substitution against a diagonal block of at most [`LEAF`] rows.
///
/// The block is copied into a dense `LEAF × LEAF` array `d` laid out so that
/// unknown `i` of every right-hand side obeys
/// `x_i = (alpha b_i − Σ d[i][l] x_l) / d[i][i]` over the unknowns `l`
/// solved before it — `op(A)` on the left, its transpose on the right —
/// padded with the identity so the loops below have constant bounds.
fn substitute(op: TriOp, alpha: f64, a: MatRef<'_, f64>, mut b: MatMut<'_, f64>) {
    let s = a.nrows();
    let unit = op.diag == Diag::Unit;
    let transposed = (op.trans == Trans::Yes) != (op.side == Side::Right);
    let mut d = [[0.0; LEAF]; LEAF];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for j in 0..s {
        let rows = match op.uplo {
            Uplo::Lower => j..s,
            Uplo::Upper => 0..j + 1,
        };
        for i in rows.filter(|&i| i != j || !unit) {
            let (r, c) = if transposed { (j, i) } else { (i, j) };
            d[r][c] = a.at(i, j);
        }
    }
    // `d` lower-triangular: unknowns resolve first to last; upper: last to first.
    let forward = (op.uplo == Uplo::Lower) != transposed;
    let order = |t: usize| if forward { t } else { LEAF - 1 - t };
    let solve_one = |x: &mut [f64; LEAF]| {
        for t in 0..LEAF {
            let i = order(t);
            let mut acc = alpha * x[i];
            for l in (0..t).map(order) {
                acc -= d[i][l] * x[l];
            }
            x[i] = if unit { acc } else { acc / d[i][i] };
        }
    };
    match op.side {
        Side::Left => {
            for j in 0..b.ncols() {
                let (mut x, col) = ([0.0; LEAF], b.col_mut(j));
                x[..s].copy_from_slice(col);
                solve_one(&mut x);
                col.copy_from_slice(&x[..s]);
            }
        }
        Side::Right => {
            for i in 0..b.nrows() {
                let mut x = [0.0; LEAF];
                for (j, v) in x.iter_mut().enumerate().take(s) {
                    *v = b.at(i, j);
                }
                solve_one(&mut x);
                for (j, &v) in x.iter().enumerate().take(s) {
                    b.set(i, j, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trmm::trmm;

    #[test]
    fn left_lower_forward_substitution() {
        // A = [2 0; 1 4], solve A x = [2; 9] -> x = [1; 2].
        let a = vec![2.0, 1.0, -9.0, 4.0];
        let mut b = vec![2.0, 9.0];
        trsm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            Diag::NonUnit,
            1.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatMut::from_slice(&mut b, 2, 1, 2),
        );
        assert_eq!(b, vec![1.0, 2.0]);
    }

    #[test]
    fn left_upper_backward_substitution() {
        // A = [2 1; 0 4], solve A x = [4; 8] -> x2 = 2, x1 = (4-2)/2 = 1.
        let a = vec![2.0, -9.0, 1.0, 4.0];
        let mut b = vec![4.0, 8.0];
        trsm(
            Side::Left,
            Uplo::Upper,
            Trans::No,
            Diag::NonUnit,
            1.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatMut::from_slice(&mut b, 2, 1, 2),
        );
        assert_eq!(b, vec![1.0, 2.0]);
    }

    #[test]
    fn trsm_inverts_trmm_all_variants() {
        // For every (side, uplo, trans, diag): trsm(trmm(B)) == B.
        let a = vec![2.0, 0.5, 0.25, 3.0, 1.5, -0.5, 0.75, -0.25, 4.0]; // 3x3 full
        let b0: Vec<f64> = (1..=9).map(f64::from).collect();
        for side in [Side::Left, Side::Right] {
            for uplo in [Uplo::Lower, Uplo::Upper] {
                for trans in [Trans::No, Trans::Yes] {
                    for diag in [Diag::NonUnit, Diag::Unit] {
                        let mut b = b0.clone();
                        {
                            let bm = MatMut::from_slice(&mut b, 3, 3, 3);
                            trmm(side, uplo, trans, diag, 2.0, MatRef::from_slice(&a, 3, 3, 3), bm);
                        }
                        {
                            let bm = MatMut::from_slice(&mut b, 3, 3, 3);
                            trsm(side, uplo, trans, diag, 0.5, MatRef::from_slice(&a, 3, 3, 3), bm);
                        }
                        for (x, y) in b.iter().zip(&b0) {
                            assert!(
                                (x - y).abs() < 1e-10,
                                "{side:?} {uplo:?} {trans:?} {diag:?}: {x} != {y}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn right_side_manual() {
        // Solve X * A = B with A = [2 0; 1 1] lower, B = [4 1].
        // x1*2 + x2*1 = 4, x2*1 = 1 -> x2 = 1, x1 = 1.5.
        let a = vec![2.0, 1.0, -9.0, 1.0];
        let mut b = vec![4.0, 1.0];
        trsm(
            Side::Right,
            Uplo::Lower,
            Trans::No,
            Diag::NonUnit,
            1.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatMut::from_slice(&mut b, 1, 2, 1),
        );
        assert_eq!(b, vec![1.5, 1.0]);
    }

    #[test]
    fn alpha_zero_clears() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let mut b = vec![5.0, 5.0];
        trsm(
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
}
