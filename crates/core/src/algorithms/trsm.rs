//! Tiled TRSM (in place): solve `op(A) * X = alpha * B` or
//! `X * op(A) = alpha * B`, storing `X` over `B`.

use xk_kernels::{Diag, Side, Trans, Uplo};

use super::{t_gemm, t_trsm};
use crate::ctx::Context;
use crate::matrix::Matrix;

/// Asynchronous tiled TRSM (PLASMA-style forward/backward block
/// substitution).
///
/// For each pivot block `k`: a TRSM kernel solves the pivot row/column of
/// `B`, then GEMM updates fold the solved block into the remaining ones
/// (`B -= opA * X`). `alpha` is applied exactly once per B tile, by the
/// first task that touches it.
///
/// # Panics
/// Panics on inconsistent dimensions.
#[allow(clippy::too_many_arguments)]
pub fn trsm_async(
    ctx: &mut Context<f64>,
    side: Side,
    uplo: Uplo,
    transa: Trans,
    diag: Diag,
    alpha: f64,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
) {
    let (m, n) = (b.nrows(), b.ncols());
    let na = match side {
        Side::Left => m,
        Side::Right => n,
    };
    assert_eq!(a.nrows(), na, "triangular operand order mismatch");
    assert_eq!(a.ncols(), na);

    let bmap = ctx.tile_map(b);
    let op_lower = matches!(
        (uplo, transa),
        (Uplo::Lower, Trans::No) | (Uplo::Upper, Trans::Yes)
    );

    match side {
        Side::Left => {
            // Forward (op lower) or backward (op upper) block substitution
            // down the block rows of B.
            let pivots: Vec<usize> = if op_lower {
                (0..bmap.mt).collect()
            } else {
                (0..bmap.mt).rev().collect()
            };
            for (step, &k) in pivots.iter().enumerate() {
                let alpha_k = if step == 0 { alpha } else { 1.0 };
                for j in 0..bmap.nt {
                    t_trsm(ctx, side, uplo, transa, diag, alpha_k, (a, k, k), (b, k, j));
                }
                let rest: Vec<usize> = if op_lower {
                    (k + 1..bmap.mt).collect()
                } else {
                    (0..k).collect()
                };
                for i in rest {
                    for j in 0..bmap.nt {
                        // B(i,j) = -opA(i,k) * X(k,j) + beta * B(i,j),
                        // beta applies alpha on the first touch of row i.
                        let beta = if step == 0 { alpha } else { 1.0 };
                        match transa {
                            Trans::No => t_gemm(
                                ctx, Trans::No, Trans::No, -1.0,
                                (a, i, k), (b, k, j), beta, (b, i, j),
                            ),
                            Trans::Yes => t_gemm(
                                ctx, Trans::Yes, Trans::No, -1.0,
                                (a, k, i), (b, k, j), beta, (b, i, j),
                            ),
                        }
                    }
                }
            }
        }
        Side::Right => {
            // op lower: solve the right-most block column first; op upper:
            // the left-most.
            let pivots: Vec<usize> = if op_lower {
                (0..bmap.nt).rev().collect()
            } else {
                (0..bmap.nt).collect()
            };
            for (step, &k) in pivots.iter().enumerate() {
                let alpha_k = if step == 0 { alpha } else { 1.0 };
                for i in 0..bmap.mt {
                    t_trsm(ctx, side, uplo, transa, diag, alpha_k, (a, k, k), (b, i, k));
                }
                let rest: Vec<usize> = if op_lower {
                    (0..k).collect()
                } else {
                    (k + 1..bmap.nt).collect()
                };
                for j in rest {
                    for i in 0..bmap.mt {
                        let beta = if step == 0 { alpha } else { 1.0 };
                        // B(i,j) = -X(i,k) * opA(k,j) + beta * B(i,j).
                        match transa {
                            Trans::No => t_gemm(
                                ctx, Trans::No, Trans::No, -1.0,
                                (b, i, k), (a, k, j), beta, (b, i, j),
                            ),
                            Trans::Yes => t_gemm(
                                ctx, Trans::No, Trans::Yes, -1.0,
                                (b, i, k), (a, j, k), beta, (b, i, j),
                            ),
                        }
                    }
                }
            }
        }
    }
    ctx.bump_calls();
}
