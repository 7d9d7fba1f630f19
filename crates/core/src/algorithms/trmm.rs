//! Tiled TRMM (in place): `B = alpha * op(A) * B` or `B = alpha * B * op(A)`.

use xk_kernels::{Diag, Side, Trans, Uplo};

use super::{t_gemm, t_trmm};
use crate::ctx::Context;
use crate::matrix::Matrix;

/// Asynchronous tiled TRMM.
///
/// Each B tile gets a diagonal TRMM kernel plus GEMM contributions from the
/// strictly triangular blocks, traversed in the order that keeps not-yet-
/// multiplied tiles intact (descending for an effectively-lower `op(A)` on
/// the left, etc.). The emission order makes the graph's read/anti
/// dependencies enforce exactly that traversal at runtime.
///
/// # Panics
/// Panics on inconsistent dimensions.
#[allow(clippy::too_many_arguments)]
pub fn trmm_async(
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
    // Is op(A) effectively lower-triangular?
    let op_lower = matches!(
        (uplo, transa),
        (Uplo::Lower, Trans::No) | (Uplo::Upper, Trans::Yes)
    );

    match side {
        Side::Left => {
            // newB(i,j) = alpha * sum_{k in tri(i)} opA(i,k) * oldB(k,j)
            for j in 0..bmap.nt {
                let rows: Vec<usize> = if op_lower {
                    (0..bmap.mt).rev().collect()
                } else {
                    (0..bmap.mt).collect()
                };
                for &i in &rows {
                    // Diagonal contribution first: overwrites B(i,j).
                    t_trmm(ctx, side, uplo, transa, diag, alpha, (a, i, i), (b, i, j));
                    // Emit the off-diagonal reads of B(k,j) so that the row
                    // processed *next* is read by the FIRST task of this
                    // row's chain: its in-place TRMM then unblocks after one
                    // task instead of the whole chain (wavefront pipeline).
                    let ks: Vec<usize> = if op_lower {
                        (0..i).rev().collect()
                    } else {
                        (i + 1..bmap.mt).collect()
                    };
                    for k in ks {
                        // opA(i,k): stored directly when (i,k) lies in the
                        // stored triangle, else the mirror transposed.
                        match transa {
                            Trans::No => t_gemm(
                                ctx, Trans::No, Trans::No, alpha,
                                (a, i, k), (b, k, j), 1.0, (b, i, j),
                            ),
                            Trans::Yes => t_gemm(
                                ctx, Trans::Yes, Trans::No, alpha,
                                (a, k, i), (b, k, j), 1.0, (b, i, j),
                            ),
                        }
                    }
                }
            }
        }
        Side::Right => {
            // newB(i,j) = alpha * sum_{k in tri(j)} oldB(i,k) * opA(k,j)
            for i in 0..bmap.mt {
                let cols: Vec<usize> = if op_lower {
                    (0..bmap.nt).collect()
                } else {
                    (0..bmap.nt).rev().collect()
                };
                for &j in &cols {
                    t_trmm(ctx, side, uplo, transa, diag, alpha, (a, j, j), (b, i, j));
                    // Same pipelining argument as Side::Left: read the
                    // next-processed column first.
                    let ks: Vec<usize> = if op_lower {
                        (j + 1..bmap.nt).collect()
                    } else {
                        (0..j).rev().collect()
                    };
                    for k in ks {
                        match transa {
                            Trans::No => t_gemm(
                                ctx, Trans::No, Trans::No, alpha,
                                (b, i, k), (a, k, j), 1.0, (b, i, j),
                            ),
                            Trans::Yes => t_gemm(
                                ctx, Trans::No, Trans::Yes, alpha,
                                (b, i, k), (a, j, k), 1.0, (b, i, j),
                            ),
                        }
                    }
                }
            }
        }
    }
    ctx.bump_calls();
}
