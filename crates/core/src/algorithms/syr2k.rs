//! Tiled SYR2K:
//! `C = alpha * (op(A) op(B)^T + op(B) op(A)^T) + beta * C`, `C` symmetric.

use xk_kernels::{Trans, Uplo};

use super::{t_gemm, t_syr2k};
use crate::ctx::Context;
use crate::matrix::Matrix;

/// Asynchronous tiled SYR2K.
///
/// Diagonal tiles get SYR2K kernels; each off-diagonal tile of the stored
/// triangle gets the two GEMM halves of the rank-2k update.
///
/// # Panics
/// Panics on inconsistent dimensions or non-square `C`.
#[allow(clippy::too_many_arguments)]
pub fn syr2k_async(
    ctx: &mut Context<f64>,
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    beta: f64,
    c: &Matrix<f64>,
) {
    let n = c.nrows();
    assert_eq!(c.ncols(), n, "C must be square");
    assert_eq!(a.nrows(), b.nrows());
    assert_eq!(a.ncols(), b.ncols());
    match trans {
        Trans::No => assert_eq!(a.nrows(), n),
        Trans::Yes => assert_eq!(a.ncols(), n),
    }

    let cmap = ctx.tile_map(c);
    let amap = ctx.tile_map(a);
    let kt = match trans {
        Trans::No => amap.nt,
        Trans::Yes => amap.mt,
    };

    for j in 0..cmap.nt {
        for i in 0..cmap.mt {
            let in_triangle = match uplo {
                Uplo::Lower => i >= j,
                Uplo::Upper => i <= j,
            };
            if !in_triangle {
                continue;
            }
            for l in 0..kt {
                let beta_l = if l == 0 { beta } else { 1.0 };
                if i == j {
                    let (at, bt) = match trans {
                        Trans::No => ((a, i, l), (b, i, l)),
                        Trans::Yes => ((a, l, i), (b, l, i)),
                    };
                    t_syr2k(ctx, uplo, trans, alpha, at, bt, beta_l, (c, i, i));
                } else {
                    // C(i,j) += alpha * opA(i,l) opB(j,l)^T
                    //         + alpha * opB(i,l) opA(j,l)^T
                    match trans {
                        Trans::No => {
                            t_gemm(ctx, Trans::No, Trans::Yes, alpha, (a, i, l), (b, j, l), beta_l, (c, i, j));
                            t_gemm(ctx, Trans::No, Trans::Yes, alpha, (b, i, l), (a, j, l), 1.0, (c, i, j));
                        }
                        Trans::Yes => {
                            t_gemm(ctx, Trans::Yes, Trans::No, alpha, (a, l, i), (b, l, j), beta_l, (c, i, j));
                            t_gemm(ctx, Trans::Yes, Trans::No, alpha, (b, l, i), (a, l, j), 1.0, (c, i, j));
                        }
                    }
                }
            }
        }
    }
    ctx.bump_calls();
}
