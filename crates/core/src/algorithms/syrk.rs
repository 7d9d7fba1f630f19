//! Tiled SYRK: `C = alpha * op(A) * op(A)^T + beta * C`, `C` symmetric.

use xk_kernels::{Trans, Uplo};

use super::{t_gemm, t_syrk};
use crate::ctx::Context;
use crate::matrix::Matrix;

/// Asynchronous tiled SYRK.
///
/// Only the `uplo` triangle of `C` is written: diagonal tiles get SYRK
/// kernels, off-diagonal tiles of the stored triangle get GEMMs.
///
/// # Panics
/// Panics on inconsistent dimensions or non-square `C`.
pub fn syrk_async(
    ctx: &mut Context<f64>,
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    a: &Matrix<f64>,
    beta: f64,
    c: &Matrix<f64>,
) {
    let n = c.nrows();
    assert_eq!(c.ncols(), n, "C must be square");
    match trans {
        Trans::No => assert_eq!(a.nrows(), n, "A rows must equal C order"),
        Trans::Yes => assert_eq!(a.ncols(), n, "A cols must equal C order"),
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
                    let at = match trans {
                        Trans::No => (a, i, l),
                        Trans::Yes => (a, l, i),
                    };
                    t_syrk(ctx, uplo, trans, alpha, at, beta_l, (c, i, i));
                } else {
                    // C(i,j) += alpha * opA(i,l) * opA(j,l)^T
                    match trans {
                        Trans::No => t_gemm(
                            ctx,
                            Trans::No,
                            Trans::Yes,
                            alpha,
                            (a, i, l),
                            (a, j, l),
                            beta_l,
                            (c, i, j),
                        ),
                        Trans::Yes => t_gemm(
                            ctx,
                            Trans::Yes,
                            Trans::No,
                            alpha,
                            (a, l, i),
                            (a, l, j),
                            beta_l,
                            (c, i, j),
                        ),
                    }
                }
            }
        }
    }
    ctx.bump_calls();
}
