//! End-to-end numeric validation: every tiled algorithm, run through the
//! full asynchronous pipeline (graph construction → dependency inference →
//! parallel work-stealing execution), must reproduce the reference BLAS —
//! 40 seeded random cases per routine.

use xk_kernels::aux::{max_abs_diff, max_abs_diff_tri};
use xk_kernels::reference as r;
use xk_kernels::MatRef;
use xk_lp::{for_each_seed, SplitMix64};
use xk_runtime::RuntimeConfig;
use xk_topo::dgx1;
use xkblas_core::{
    gemm_async, symm_async, syr2k_async, syrk_async, trmm_async, trsm_async, Context, Diag,
    Matrix, Side, Trans, Uplo,
};

const TOL: f64 = 1e-9;

const TRANS: [Trans; 2] = [Trans::No, Trans::Yes];
const UPLO: [Uplo; 2] = [Uplo::Lower, Uplo::Upper];
const SIDE: [Side; 2] = [Side::Left, Side::Right];
const DIAG: [Diag; 2] = [Diag::NonUnit, Diag::Unit];

fn ctx(tile: usize) -> Context<f64> {
    Context::new(dgx1(), RuntimeConfig::xkblas(), tile)
}

fn view(m: &Matrix<f64>) -> MatRef<'_, f64> {
    m.view()
}

/// A scaling factor in `[-2, 2)`.
fn scale(rng: &mut SplitMix64) -> f64 {
    rng.f64_in(-2.0, 2.0)
}

#[test]
fn tiled_gemm_matches_reference() {
    for_each_seed(40, |rng| {
        let (m, n, k) = (rng.usize_in(1, 40), rng.usize_in(1, 40), rng.usize_in(1, 40));
        let tile = rng.usize_in(3, 17);
        let (ta, tb) = (rng.pick(&TRANS), rng.pick(&TRANS));
        let (alpha, beta, seed) = (scale(rng), scale(rng), rng.next_below(500));
        let (am, an) = match ta { Trans::No => (m, k), Trans::Yes => (k, m) };
        let (bm, bn) = match tb { Trans::No => (k, n), Trans::Yes => (n, k) };
        let a = Matrix::random(am, an, seed);
        let b = Matrix::random(bm, bn, seed + 1);
        let c = Matrix::random(m, n, seed + 2);
        let want = r::ref_gemm(ta, tb, alpha, view(&a), view(&b), beta, view(&c));
        let mut cx = ctx(tile);
        gemm_async(&mut cx, ta, tb, alpha, &a, &b, beta, &c);
        cx.run_numeric(0);
        let d = max_abs_diff(view(&c), want.view());
        assert!(d < TOL, "gemm diff {d} (tile {tile})");
    });
}

#[test]
fn tiled_symm_matches_reference() {
    for_each_seed(40, |rng| {
        let (m, n, tile) = (rng.usize_in(1, 30), rng.usize_in(1, 30), rng.usize_in(3, 13));
        let (side, uplo) = (rng.pick(&SIDE), rng.pick(&UPLO));
        let (alpha, beta, seed) = (scale(rng), scale(rng), rng.next_below(500));
        let na = match side { Side::Left => m, Side::Right => n };
        let a = Matrix::random(na, na, seed);
        let b = Matrix::random(m, n, seed + 1);
        let c = Matrix::random(m, n, seed + 2);
        let want = r::ref_symm(side, uplo, alpha, view(&a), view(&b), beta, view(&c));
        let mut cx = ctx(tile);
        symm_async(&mut cx, side, uplo, alpha, &a, &b, beta, &c);
        cx.run_numeric(0);
        let d = max_abs_diff(view(&c), want.view());
        assert!(d < TOL, "symm diff {d}");
    });
}

#[test]
fn tiled_syrk_matches_reference() {
    for_each_seed(40, |rng| {
        let (n, k, tile) = (rng.usize_in(1, 30), rng.usize_in(1, 30), rng.usize_in(3, 13));
        let (uplo, trans) = (rng.pick(&UPLO), rng.pick(&TRANS));
        let (alpha, beta, seed) = (scale(rng), scale(rng), rng.next_below(500));
        let (am, an) = match trans { Trans::No => (n, k), Trans::Yes => (k, n) };
        let a = Matrix::random(am, an, seed);
        let c = Matrix::random(n, n, seed + 1);
        let c0 = c.to_vec();
        let want = r::ref_syrk(trans, alpha, view(&a), beta, view(&c));
        let mut cx = ctx(tile);
        syrk_async(&mut cx, uplo, trans, alpha, &a, beta, &c);
        cx.run_numeric(0);
        let d = max_abs_diff_tri(uplo, view(&c), want.view());
        assert!(d < TOL, "syrk diff {d}");
        // Opposite strict triangle untouched.
        let c0r = MatRef::from_slice(&c0, n, n, n);
        for j in 0..n {
            for i in 0..n {
                let strict_opposite = match uplo {
                    Uplo::Lower => i < j,
                    Uplo::Upper => i > j,
                };
                if strict_opposite {
                    assert_eq!(c.at(i, j), c0r.at(i, j));
                }
            }
        }
    });
}

#[test]
fn tiled_syr2k_matches_reference() {
    for_each_seed(40, |rng| {
        let (n, k, tile) = (rng.usize_in(1, 26), rng.usize_in(1, 26), rng.usize_in(3, 13));
        let (uplo, trans) = (rng.pick(&UPLO), rng.pick(&TRANS));
        let (alpha, beta, seed) = (scale(rng), scale(rng), rng.next_below(500));
        let (am, an) = match trans { Trans::No => (n, k), Trans::Yes => (k, n) };
        let a = Matrix::random(am, an, seed);
        let b = Matrix::random(am, an, seed + 1);
        let c = Matrix::random(n, n, seed + 2);
        let want = r::ref_syr2k(trans, alpha, view(&a), view(&b), beta, view(&c));
        let mut cx = ctx(tile);
        syr2k_async(&mut cx, uplo, trans, alpha, &a, &b, beta, &c);
        cx.run_numeric(0);
        let d = max_abs_diff_tri(uplo, view(&c), want.view());
        assert!(d < TOL, "syr2k diff {d}");
    });
}

#[test]
fn tiled_trmm_matches_reference() {
    for_each_seed(40, |rng| {
        let (m, n, tile) = (rng.usize_in(1, 26), rng.usize_in(1, 26), rng.usize_in(3, 13));
        let (side, uplo) = (rng.pick(&SIDE), rng.pick(&UPLO));
        let (transa, diag) = (rng.pick(&TRANS), rng.pick(&DIAG));
        let (alpha, seed) = (scale(rng), rng.next_below(500));
        let na = match side { Side::Left => m, Side::Right => n };
        let a = Matrix::random(na, na, seed);
        let b = Matrix::random(m, n, seed + 1);
        let want = r::ref_trmm(side, uplo, transa, diag, alpha, view(&a), view(&b));
        let mut cx = ctx(tile);
        trmm_async(&mut cx, side, uplo, transa, diag, alpha, &a, &b);
        cx.run_numeric(0);
        let d = max_abs_diff(view(&b), want.view());
        assert!(d < TOL, "trmm diff {d} ({side:?} {uplo:?} {transa:?} {diag:?} tile {tile})");
    });
}

#[test]
fn tiled_trsm_solves_the_system() {
    for_each_seed(40, |rng| {
        let (m, n, tile) = (rng.usize_in(1, 26), rng.usize_in(1, 26), rng.usize_in(3, 13));
        let (side, uplo) = (rng.pick(&SIDE), rng.pick(&UPLO));
        let (transa, diag) = (rng.pick(&TRANS), rng.pick(&DIAG));
        let (alpha, seed) = (scale(rng), rng.next_below(500));
        let na = match side { Side::Left => m, Side::Right => n };
        let a = Matrix::random_diag_dominant(na, seed);
        let b = Matrix::random(m, n, seed + 1);
        let b0 = b.to_vec();
        let mut cx = ctx(tile);
        trsm_async(&mut cx, side, uplo, transa, diag, alpha, &a, &b);
        cx.run_numeric(0);
        let res = r::trsm_residual(
            (side, uplo, transa, diag), alpha,
            view(&a), view(&b),
            MatRef::from_slice(&b0, m, n, m),
        );
        assert!(res < 1e-8,
            "trsm residual {res} ({side:?} {uplo:?} {transa:?} {diag:?} tile {tile})");
    });
}

/// Composition (paper §IV-F): TRSM followed by GEMM reading the TRSM
/// result, without an intermediate sync, must produce exactly the
/// sequential composition.
#[test]
fn composition_trsm_gemm() {
    for_each_seed(40, |rng| {
        let (n, tile, seed) = (rng.usize_in(4, 24), rng.usize_in(3, 9), rng.next_below(200));
        let a = Matrix::random_diag_dominant(n, seed);
        let b = Matrix::random(n, n, seed + 1);
        let c = Matrix::random(n, n, seed + 2);
        let d = Matrix::random(n, n, seed + 3);

        // Reference: X = inv(A) B; D = X * C.
        let mut bx = b.to_vec();
        xk_kernels::trsm(
            Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0,
            view(&a), xk_kernels::MatMut::from_slice(&mut bx, n, n, n),
        );
        let want = r::ref_gemm(
            Trans::No, Trans::No, 1.0,
            MatRef::from_slice(&bx, n, n, n), view(&c),
            0.0, view(&d),
        );

        let mut cx = ctx(tile);
        trsm_async(&mut cx, Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0, &a, &b);
        gemm_async(&mut cx, Trans::No, Trans::No, 1.0, &b, &c, 0.0, &d);
        cx.memory_coherent_async(&d);
        cx.run_numeric(0);
        let diff = max_abs_diff(view(&d), want.view());
        assert!(diff < 1e-8, "composition diff {diff}");
    });
}

/// The same graph produces identical numeric results under the simulated
/// and parallel executors' shared dependency semantics — run_both runs
/// sim then numeric on one graph.
#[test]
fn run_both_times_and_computes() {
    let a = Matrix::random(64, 64, 11);
    let b = Matrix::random(64, 64, 12);
    let c = Matrix::zeros(64, 64);
    let want = r::ref_gemm(
        Trans::No,
        Trans::No,
        1.0,
        a.view(),
        b.view(),
        0.0,
        c.view(),
    );
    let mut cx = ctx(16);
    gemm_async(&mut cx, Trans::No, Trans::No, 1.0, &a, &b, 0.0, &c);
    cx.memory_coherent_async(&c);
    let sim = cx.run_both(0);
    assert!(sim.makespan > 0.0);
    assert!(sim.bytes_h2d > 0);
    assert!(max_abs_diff(c.view(), want.view()) < TOL);
}
