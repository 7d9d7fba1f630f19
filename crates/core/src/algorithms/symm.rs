//! Tiled SYMM: `C = alpha * A * B + beta * C` (left) or
//! `C = alpha * B * A + beta * C` (right), `A` symmetric in one triangle.

use xk_kernels::{Side, Trans, Uplo};

use super::{t_gemm, t_symm};
use crate::ctx::Context;
use crate::matrix::Matrix;

/// Asynchronous tiled SYMM.
///
/// Off-diagonal blocks of the symmetric operand are read from the stored
/// triangle, transposing when the block lives on the other side.
///
/// # Panics
/// Panics on inconsistent dimensions.
#[allow(clippy::too_many_arguments)]
pub fn symm_async(
    ctx: &mut Context<f64>,
    side: Side,
    uplo: Uplo,
    alpha: f64,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    beta: f64,
    c: &Matrix<f64>,
) {
    let (m, n) = (c.nrows(), c.ncols());
    assert_eq!(b.nrows(), m);
    assert_eq!(b.ncols(), n);
    let na = match side {
        Side::Left => m,
        Side::Right => n,
    };
    assert_eq!(a.nrows(), na, "symmetric operand order mismatch");
    assert_eq!(a.ncols(), na);

    let cmap = ctx.tile_map(c);
    match side {
        Side::Left => {
            // C(i,j) = beta C(i,j) + alpha * sum_k Asym(i,k) B(k,j)
            for i in 0..cmap.mt {
                for j in 0..cmap.nt {
                    for k in 0..cmap.mt {
                        let beta_k = if k == 0 { beta } else { 1.0 };
                        if k == i {
                            t_symm(ctx, Side::Left, uplo, alpha, (a, i, i), (b, k, j), beta_k, (c, i, j));
                        } else {
                            let stored_direct = match uplo {
                                Uplo::Lower => k < i,
                                Uplo::Upper => k > i,
                            };
                            if stored_direct {
                                t_gemm(ctx, Trans::No, Trans::No, alpha, (a, i, k), (b, k, j), beta_k, (c, i, j));
                            } else {
                                // Mirror: Asym(i,k) = A(k,i)^T.
                                t_gemm(ctx, Trans::Yes, Trans::No, alpha, (a, k, i), (b, k, j), beta_k, (c, i, j));
                            }
                        }
                    }
                }
            }
        }
        Side::Right => {
            // C(i,j) = beta C(i,j) + alpha * sum_k B(i,k) Asym(k,j)
            for i in 0..cmap.mt {
                for j in 0..cmap.nt {
                    for k in 0..cmap.nt {
                        let beta_k = if k == 0 { beta } else { 1.0 };
                        if k == j {
                            t_symm(ctx, Side::Right, uplo, alpha, (a, j, j), (b, i, k), beta_k, (c, i, j));
                        } else {
                            let stored_direct = match uplo {
                                Uplo::Lower => k > j,
                                Uplo::Upper => k < j,
                            };
                            if stored_direct {
                                t_gemm(ctx, Trans::No, Trans::No, alpha, (b, i, k), (a, k, j), beta_k, (c, i, j));
                            } else {
                                // Asym(k,j) = A(j,k)^T.
                                t_gemm(ctx, Trans::No, Trans::Yes, alpha, (b, i, k), (a, j, k), beta_k, (c, i, j));
                            }
                        }
                    }
                }
            }
        }
    }
    ctx.bump_calls();
}
