//! Tiled BLAS-3 algorithms.
//!
//! Each routine decomposes LAPACK-layout matrices into square tiles and
//! emits one task per tile kernel into the context's graph. The numerical
//! algorithms follow the asynchronous tile algorithms of PLASMA/Chameleon,
//! with the XKBlas differences of §III: sub-matrix (LAPACK) representation
//! instead of tile copies, and no implicit copy-back instructions.
//!
//! Every `t_*` emitter below is on the submission fast path: accesses live
//! in stack arrays (copied into the graph's access column), labels are lazy
//! [`TaskLabel`] patterns, and the numeric closure is only boxed when the
//! context actually executes numerically — a simulation-only sweep
//! submits each task without any per-task heap allocation.

mod gemm;
mod symm;
mod syr2k;
mod syrk;
mod trmm;
mod trsm;

pub use gemm::gemm_async;
pub use symm::symm_async;
pub use syr2k::syr2k_async;
pub use syrk::syrk_async;
pub use trmm::trmm_async;
pub use trsm::trsm_async;

use xk_kernels::perfmodel::TileOp;
use xk_kernels::{Diag, Side, Trans, Uplo};
use xk_runtime::{Access, TaskAccess, TaskLabel};

use crate::ctx::Context;
use crate::matrix::Matrix;

/// A tile coordinate within a matrix.
pub(crate) type TileAt<'m> = (&'m Matrix<f64>, usize, usize);

/// Resolves the view geometry of one tile: `(row0, col0, rows, cols)`.
fn geom(ctx: &Context<f64>, t: TileAt<'_>) -> (usize, usize, usize, usize) {
    let map = ctx.tile_map(t.0);
    let (i0, j0) = map.origin(t.1, t.2);
    (i0, j0, map.tile_rows(t.1), map.tile_cols(t.2))
}

/// Emits `C_tile = alpha * op(A_tile) * op(B_tile) + beta * C_tile`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn t_gemm(
    ctx: &mut Context<f64>,
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: TileAt<'_>,
    b: TileAt<'_>,
    beta: f64,
    c: TileAt<'_>,
) {
    let (ai0, aj0, am, an) = geom(ctx, a);
    let (bi0, bj0, bm, bn) = geom(ctx, b);
    let (ci0, cj0, m, n) = geom(ctx, c);
    let (oam, oan) = ta.apply_dims(am, an);
    let (obm, obn) = tb.apply_dims(bm, bn);
    assert_eq!(oam, m, "gemm tile: op(A) rows mismatch");
    assert_eq!(obn, n, "gemm tile: op(B) cols mismatch");
    assert_eq!(oan, obm, "gemm tile: inner dims mismatch");
    let k = oan;

    let ha = ctx.handle(a.0, a.1, a.2);
    let hb = ctx.handle(b.0, b.1, b.2);
    let hc = ctx.handle(c.0, c.1, c.2);
    let full = [
        TaskAccess { handle: ha, access: Access::Read },
        TaskAccess { handle: hb, access: Access::Read },
        TaskAccess { handle: hc, access: Access::ReadWrite },
    ];
    // Same tile read twice (e.g. SYRK's A(i,l) pair): declare it once.
    let dedup = [full[0], full[2]];
    let accesses: &[TaskAccess] = if hb == ha { &dedup } else { &full };

    ctx.emit(
        TileOp::Gemm { m, n, k },
        accesses,
        TaskLabel::tile("gemm", 'C', c.1, c.2),
        || {
            let (ma, mb_, mc) = (a.0.clone(), b.0.clone(), c.0.clone());
            Box::new(move || {
                xk_kernels::gemm(
                    ta,
                    tb,
                    alpha,
                    ma.tile_view(ai0, aj0, am, an),
                    mb_.tile_view(bi0, bj0, bm, bn),
                    beta,
                    mc.tile_view_mut(ci0, cj0, m, n),
                );
            })
        },
    );
}

/// Emits `C_tile = alpha * A_sym_tile * B_tile + beta * C_tile` for a
/// *diagonal* tile of the symmetric matrix.
#[allow(clippy::too_many_arguments)]
pub(crate) fn t_symm(
    ctx: &mut Context<f64>,
    side: Side,
    uplo: Uplo,
    alpha: f64,
    a: TileAt<'_>,
    b: TileAt<'_>,
    beta: f64,
    c: TileAt<'_>,
) {
    let (ai0, aj0, am, an) = geom(ctx, a);
    let (bi0, bj0, bm, bn) = geom(ctx, b);
    let (ci0, cj0, m, n) = geom(ctx, c);
    assert_eq!(am, an, "symm tile: diagonal block must be square");
    let ha = ctx.handle(a.0, a.1, a.2);
    let hb = ctx.handle(b.0, b.1, b.2);
    let hc = ctx.handle(c.0, c.1, c.2);
    let accesses = [
        TaskAccess { handle: ha, access: Access::Read },
        TaskAccess { handle: hb, access: Access::Read },
        TaskAccess { handle: hc, access: Access::ReadWrite },
    ];
    ctx.emit(
        TileOp::Symm { m, n },
        &accesses,
        TaskLabel::tile("symm", 'C', c.1, c.2),
        || {
            let (ma, mb_, mc) = (a.0.clone(), b.0.clone(), c.0.clone());
            Box::new(move || {
                xk_kernels::symm(
                    side,
                    uplo,
                    alpha,
                    ma.tile_view(ai0, aj0, am, an),
                    mb_.tile_view(bi0, bj0, bm, bn),
                    beta,
                    mc.tile_view_mut(ci0, cj0, m, n),
                );
            })
        },
    );
}

/// Emits a SYRK update of a diagonal tile of C.
pub(crate) fn t_syrk(
    ctx: &mut Context<f64>,
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    a: TileAt<'_>,
    beta: f64,
    c: TileAt<'_>,
) {
    let (ai0, aj0, am, an) = geom(ctx, a);
    let (ci0, cj0, m, n) = geom(ctx, c);
    assert_eq!(m, n, "syrk tile: C diagonal block must be square");
    let k = match trans {
        Trans::No => an,
        Trans::Yes => am,
    };
    let ha = ctx.handle(a.0, a.1, a.2);
    let hc = ctx.handle(c.0, c.1, c.2);
    let accesses = [
        TaskAccess { handle: ha, access: Access::Read },
        TaskAccess { handle: hc, access: Access::ReadWrite },
    ];
    ctx.emit(
        TileOp::Syrk { n, k },
        &accesses,
        TaskLabel::tile("syrk", 'C', c.1, c.2),
        || {
            let (ma, mc) = (a.0.clone(), c.0.clone());
            Box::new(move || {
                xk_kernels::syrk(
                    uplo,
                    trans,
                    alpha,
                    ma.tile_view(ai0, aj0, am, an),
                    beta,
                    mc.tile_view_mut(ci0, cj0, m, n),
                );
            })
        },
    );
}

/// Emits a SYR2K update of a diagonal tile of C.
#[allow(clippy::too_many_arguments)]
pub(crate) fn t_syr2k(
    ctx: &mut Context<f64>,
    uplo: Uplo,
    trans: Trans,
    alpha: f64,
    a: TileAt<'_>,
    b: TileAt<'_>,
    beta: f64,
    c: TileAt<'_>,
) {
    let (ai0, aj0, am, an) = geom(ctx, a);
    let (bi0, bj0, bm, bn) = geom(ctx, b);
    let (ci0, cj0, m, n) = geom(ctx, c);
    assert_eq!(m, n);
    assert_eq!((am, an), (bm, bn), "syr2k tile: A and B blocks must agree");
    let k = match trans {
        Trans::No => an,
        Trans::Yes => am,
    };
    let ha = ctx.handle(a.0, a.1, a.2);
    let hb = ctx.handle(b.0, b.1, b.2);
    let hc = ctx.handle(c.0, c.1, c.2);
    let accesses = [
        TaskAccess { handle: ha, access: Access::Read },
        TaskAccess { handle: hb, access: Access::Read },
        TaskAccess { handle: hc, access: Access::ReadWrite },
    ];
    ctx.emit(
        TileOp::Syr2k { n, k },
        &accesses,
        TaskLabel::tile("syr2k", 'C', c.1, c.2),
        || {
            let (ma, mb_, mc) = (a.0.clone(), b.0.clone(), c.0.clone());
            Box::new(move || {
                xk_kernels::syr2k(
                    uplo,
                    trans,
                    alpha,
                    ma.tile_view(ai0, aj0, am, an),
                    mb_.tile_view(bi0, bj0, bm, bn),
                    beta,
                    mc.tile_view_mut(ci0, cj0, m, n),
                );
            })
        },
    );
}

/// Emits an in-place triangular multiply of a B tile by a diagonal A tile.
#[allow(clippy::too_many_arguments)]
pub(crate) fn t_trmm(
    ctx: &mut Context<f64>,
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: f64,
    a: TileAt<'_>,
    b: TileAt<'_>,
) {
    let (ai0, aj0, am, an) = geom(ctx, a);
    let (bi0, bj0, m, n) = geom(ctx, b);
    assert_eq!(am, an, "trmm tile: diagonal block must be square");
    let ha = ctx.handle(a.0, a.1, a.2);
    let hb = ctx.handle(b.0, b.1, b.2);
    let accesses = [
        TaskAccess { handle: ha, access: Access::Read },
        TaskAccess { handle: hb, access: Access::ReadWrite },
    ];
    ctx.emit(
        TileOp::Trmm { m, n },
        &accesses,
        TaskLabel::tile("trmm", 'B', b.1, b.2),
        || {
            let (ma, mb_) = (a.0.clone(), b.0.clone());
            Box::new(move || {
                xk_kernels::trmm(
                    side,
                    uplo,
                    trans,
                    diag,
                    alpha,
                    ma.tile_view(ai0, aj0, am, an),
                    mb_.tile_view_mut(bi0, bj0, m, n),
                );
            })
        },
    );
}

/// Emits an in-place triangular solve of a B tile against a diagonal A tile.
#[allow(clippy::too_many_arguments)]
pub(crate) fn t_trsm(
    ctx: &mut Context<f64>,
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: f64,
    a: TileAt<'_>,
    b: TileAt<'_>,
) {
    let (ai0, aj0, am, an) = geom(ctx, a);
    let (bi0, bj0, m, n) = geom(ctx, b);
    assert_eq!(am, an, "trsm tile: diagonal block must be square");
    let ha = ctx.handle(a.0, a.1, a.2);
    let hb = ctx.handle(b.0, b.1, b.2);
    let accesses = [
        TaskAccess { handle: ha, access: Access::Read },
        TaskAccess { handle: hb, access: Access::ReadWrite },
    ];
    ctx.emit(
        TileOp::Trsm { m, n },
        &accesses,
        TaskLabel::tile("trsm", 'B', b.1, b.2),
        || {
            let (ma, mb_) = (a.0.clone(), b.0.clone());
            Box::new(move || {
                xk_kernels::trsm(
                    side,
                    uplo,
                    trans,
                    diag,
                    alpha,
                    ma.tile_view(ai0, aj0, am, an),
                    mb_.tile_view_mut(bi0, bj0, m, n),
                );
            })
        },
    );
}
