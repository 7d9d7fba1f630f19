//! Tiled GEMM: `C = alpha * op(A) * op(B) + beta * C`.

use xk_kernels::{Trans};

use super::t_gemm;
use crate::ctx::Context;
use crate::matrix::Matrix;

/// Asynchronous tiled GEMM (the model of `xkblas_dgemm_async`).
///
/// `C` is `m × n`; `op(A)` is `m × k` and `op(B)` is `k × n`. Tasks are
/// appended to the context; nothing runs until a `run_*` call.
///
/// # Panics
/// Panics on inconsistent matrix dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_async(
    ctx: &mut Context<f64>,
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    beta: f64,
    c: &Matrix<f64>,
) {
    let (m, n) = (c.nrows(), c.ncols());
    let (oam, oak) = transa.apply_dims(a.nrows(), a.ncols());
    let (obk, obn) = transb.apply_dims(b.nrows(), b.ncols());
    assert_eq!(oam, m, "op(A) rows must match C rows");
    assert_eq!(obn, n, "op(B) cols must match C cols");
    assert_eq!(oak, obk, "inner dimensions must match");

    let cmap = ctx.tile_map(c);
    let kt = {
        let amap = ctx.tile_map(a);
        match transa {
            Trans::No => amap.nt,
            Trans::Yes => amap.mt,
        }
    };

    for i in 0..cmap.mt {
        for j in 0..cmap.nt {
            for l in 0..kt {
                let beta_l = if l == 0 { beta } else { 1.0 };
                let at = match transa {
                    Trans::No => (a, i, l),
                    Trans::Yes => (a, l, i),
                };
                let bt = match transb {
                    Trans::No => (b, l, j),
                    Trans::Yes => (b, j, l),
                };
                t_gemm(ctx, transa, transb, alpha, at, bt, beta_l, (c, i, j));
            }
        }
    }
    ctx.bump_calls();
}
