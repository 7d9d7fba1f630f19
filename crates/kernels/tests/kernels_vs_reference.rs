//! Seeded property validation: every kernel, every parameter variant,
//! random shapes and values, against the independent reference path.
//!
//! The GEMM properties additionally sweep every host-supported SIMD ISA
//! per case (`common::for_each_supported_isa`), so random-shape coverage
//! reaches each microkernel's fringe paths, not just the default dispatch.
//! The `gemm_corpus_*` tests pin the counterexamples earlier random runs
//! shrank to.

mod common;

use xk_kernels::aux::{max_abs_diff, max_abs_diff_tri};
use xk_kernels::reference as r;
use xk_kernels::{
    gemm, symm, syr2k, syrk, trmm, trsm, Diag, MatMut, MatRef, Side, Trans, Uplo, MR, NR, TB,
};
use xk_lp::{for_each_seed, SplitMix64};

const TRANS: [Trans; 2] = [Trans::No, Trans::Yes];
const UPLO: [Uplo; 2] = [Uplo::Lower, Uplo::Upper];
const SIDE: [Side; 2] = [Side::Left, Side::Right];
const DIAG: [Diag; 2] = [Diag::NonUnit, Diag::Unit];

const TOL: f64 = 1e-10;

/// A scaling factor in `[-2, 2)`.
fn scale(rng: &mut SplitMix64) -> f64 {
    rng.f64_in(-2.0, 2.0)
}

/// A seed for [`det_vals`].
fn data_seed(rng: &mut SplitMix64) -> u64 {
    rng.next_below(1000)
}

/// GEMM against the reference on every supported ISA.
fn check_gemm(
    (m, n, k): (usize, usize, usize),
    (ta, tb): (Trans, Trans),
    (alpha, beta): (f64, f64),
    (seed_a, seed_b, seed_c): (u64, u64, u64),
) {
    let (am, an) = match ta { Trans::No => (m, k), Trans::Yes => (k, m) };
    let (bm, bn) = match tb { Trans::No => (k, n), Trans::Yes => (n, k) };
    let a = det_vals(am * an, seed_a);
    let b = det_vals(bm * bn, seed_b);
    let c0 = det_vals(m * n, seed_c);
    // `k = 0` with a transpose creates 0-row storage; keep `ld >= 1`.
    let ar = MatRef::from_slice(&a, am, an, am.max(1));
    let br = MatRef::from_slice(&b, bm, bn, bm.max(1));
    let want = r::ref_gemm(ta, tb, alpha, ar, br, beta, MatRef::from_slice(&c0, m, n, m));
    common::for_each_supported_isa(|isa| {
        let mut c = c0.clone();
        gemm(ta, tb, alpha, ar, br, beta, MatMut::from_slice(&mut c, m, n, m));
        let d = max_abs_diff(MatRef::from_slice(&c, m, n, m), want.view());
        assert!(d < TOL, "gemm[{isa}]: diff {d}");
    });
}

#[test]
fn gemm_all_variants() {
    for_each_seed(64, |rng| {
        let shape = (rng.usize_in(1, 12), rng.usize_in(1, 12), rng.usize_in(0, 12));
        let trans = (rng.pick(&TRANS), rng.pick(&TRANS));
        let scales = (scale(rng), scale(rng));
        check_gemm(shape, trans, scales, (data_seed(rng), data_seed(rng), data_seed(rng)));
    });
}

/// Pinned counterexample: the fully-degenerate GEMM — `k = 0` with
/// `alpha = beta = 0` must still write (zero) into C, not leave stale
/// values or read out-of-bounds from the empty A/B panels.
#[test]
fn gemm_corpus_k0_alpha0_beta0() {
    check_gemm((1, 1, 0), (Trans::No, Trans::No), (0.0, 0.0), (0, 0, 0));
}

/// The same degenerate shape across all transpose variants; `k = 0` with a
/// transpose produces 0-row storage, the other boundary the shrunken case
/// sits next to.
#[test]
fn gemm_corpus_k0_all_transposes() {
    for ta in TRANS {
        for tb in TRANS {
            check_gemm((1, 1, 0), (ta, tb), (0.0, 0.0), (0, 0, 0));
            check_gemm((3, 2, 0), (ta, tb), (0.0, 1.5), (7, 8, 9));
        }
    }
}

/// `beta` scaling with an empty inner dimension: C must become `beta * C`
/// exactly (no `alpha * A * B` contribution exists).
#[test]
fn gemm_corpus_k0_beta_scales_c() {
    let c0 = det_vals(6, 42);
    let mut c = c0.clone();
    gemm(
        Trans::No,
        Trans::No,
        1.0,
        MatRef::from_slice(&[], 2, 0, 2),
        MatRef::from_slice(&[], 0, 3, 1),
        -0.5,
        MatMut::from_slice(&mut c, 2, 3, 2),
    );
    for (got, orig) in c.iter().zip(&c0) {
        assert!((got - (-0.5 * orig)).abs() < TOL);
    }
}

#[test]
fn symm_all_variants() {
    for_each_seed(64, |rng| {
        let (m, n) = (rng.usize_in(1, 10), rng.usize_in(1, 10));
        let (side, uplo) = (rng.pick(&SIDE), rng.pick(&UPLO));
        let (alpha, beta, seed) = (scale(rng), scale(rng), data_seed(rng));
        let na = match side { Side::Left => m, Side::Right => n };
        let a = det_vals(na * na, seed);
        let b = det_vals(m * n, seed + 1);
        let c0 = det_vals(m * n, seed + 2);
        let ar = MatRef::from_slice(&a, na, na, na);
        let br = MatRef::from_slice(&b, m, n, m);
        let want = r::ref_symm(side, uplo, alpha, ar, br, beta, MatRef::from_slice(&c0, m, n, m));
        let mut c = c0.clone();
        symm(side, uplo, alpha, ar, br, beta, MatMut::from_slice(&mut c, m, n, m));
        let d = max_abs_diff(MatRef::from_slice(&c, m, n, m), want.view());
        assert!(d < TOL, "diff {d}");
    });
}

#[test]
fn syrk_all_variants() {
    for_each_seed(64, |rng| {
        let (n, k) = (rng.usize_in(1, 10), rng.usize_in(1, 10));
        let (uplo, trans) = (rng.pick(&UPLO), rng.pick(&TRANS));
        let (alpha, beta, seed) = (scale(rng), scale(rng), data_seed(rng));
        let (am, an) = match trans { Trans::No => (n, k), Trans::Yes => (k, n) };
        let a = det_vals(am * an, seed);
        let c0 = det_vals(n * n, seed + 1);
        let ar = MatRef::from_slice(&a, am, an, am);
        let want = r::ref_syrk(trans, alpha, ar, beta, MatRef::from_slice(&c0, n, n, n));
        let mut c = c0.clone();
        syrk(uplo, trans, alpha, ar, beta, MatMut::from_slice(&mut c, n, n, n));
        let cr = MatRef::from_slice(&c, n, n, n);
        // Updated triangle matches the full reference...
        assert!(max_abs_diff_tri(uplo, cr, want.view()) < TOL);
        // ...and the opposite strict triangle is untouched.
        let c0r = MatRef::from_slice(&c0, n, n, n);
        assert!(strict_opposite_untouched(uplo, cr, c0r));
    });
}

#[test]
fn syr2k_all_variants() {
    for_each_seed(64, |rng| {
        let (n, k) = (rng.usize_in(1, 10), rng.usize_in(1, 10));
        let (uplo, trans) = (rng.pick(&UPLO), rng.pick(&TRANS));
        let (alpha, beta, seed) = (scale(rng), scale(rng), data_seed(rng));
        let (am, an) = match trans { Trans::No => (n, k), Trans::Yes => (k, n) };
        let a = det_vals(am * an, seed);
        let b = det_vals(am * an, seed + 1);
        let c0 = det_vals(n * n, seed + 2);
        let ar = MatRef::from_slice(&a, am, an, am);
        let br = MatRef::from_slice(&b, am, an, am);
        let want = r::ref_syr2k(trans, alpha, ar, br, beta, MatRef::from_slice(&c0, n, n, n));
        let mut c = c0.clone();
        syr2k(uplo, trans, alpha, ar, br, beta, MatMut::from_slice(&mut c, n, n, n));
        let cr = MatRef::from_slice(&c, n, n, n);
        assert!(max_abs_diff_tri(uplo, cr, want.view()) < TOL);
        let c0r = MatRef::from_slice(&c0, n, n, n);
        assert!(strict_opposite_untouched(uplo, cr, c0r));
    });
}

#[test]
fn trmm_all_variants() {
    for_each_seed(64, |rng| {
        let (m, n) = (rng.usize_in(1, 10), rng.usize_in(1, 10));
        let (side, uplo) = (rng.pick(&SIDE), rng.pick(&UPLO));
        let (trans, diag) = (rng.pick(&TRANS), rng.pick(&DIAG));
        let (alpha, seed) = (scale(rng), data_seed(rng));
        let na = match side { Side::Left => m, Side::Right => n };
        let a = det_vals(na * na, seed);
        let b0 = det_vals(m * n, seed + 1);
        let ar = MatRef::from_slice(&a, na, na, na);
        let want = r::ref_trmm(side, uplo, trans, diag, alpha, ar, MatRef::from_slice(&b0, m, n, m));
        let mut b = b0.clone();
        trmm(side, uplo, trans, diag, alpha, ar, MatMut::from_slice(&mut b, m, n, m));
        let d = max_abs_diff(MatRef::from_slice(&b, m, n, m), want.view());
        assert!(d < TOL, "diff {d}");
    });
}

#[test]
fn trsm_all_variants_satisfy_equation() {
    for_each_seed(64, |rng| {
        let (m, n) = (rng.usize_in(1, 10), rng.usize_in(1, 10));
        let (side, uplo) = (rng.pick(&SIDE), rng.pick(&UPLO));
        let (trans, diag) = (rng.pick(&TRANS), rng.pick(&DIAG));
        let (alpha, seed) = (scale(rng), data_seed(rng));
        let na = match side { Side::Left => m, Side::Right => n };
        // Well-conditioned triangular factor: dominant diagonal.
        let mut a = det_vals(na * na, seed);
        for i in 0..na {
            a[i + i * na] = 3.0 + a[i + i * na].abs();
        }
        let b0 = det_vals(m * n, seed + 1);
        let ar = MatRef::from_slice(&a, na, na, na);
        let mut x = b0.clone();
        trsm(side, uplo, trans, diag, alpha, ar, MatMut::from_slice(&mut x, m, n, m));
        let res = r::trsm_residual(
            (side, uplo, trans, diag), alpha, ar,
            MatRef::from_slice(&x, m, n, m),
            MatRef::from_slice(&b0, m, n, m),
        );
        assert!(res < 1e-9, "residual {res}");
    });
}

/// A dimension biased toward the blocked engine's tile and block
/// boundaries (`MR`/`NR` register tiles, `TB` triangular blocks) where
/// fringe handling lives, plus ordinary in-between values.
fn boundary_dim(rng: &mut SplitMix64) -> usize {
    let edges = [1, MR - 1, MR, MR + 1, NR + 1, 3 * MR + 2, TB - 1, TB, TB + 1, TB + NR + 3];
    match rng.usize_in(0, edges.len() + 1) {
        i if i < edges.len() => edges[i],
        _ => rng.usize_in(1, 2 * TB),
    }
}

/// Degenerate-prone scaling factors: the alpha/beta fast paths (`0`, `1`)
/// plus generic values.
const EDGE_SCALES: [f64; 4] = [0.0, 1.0, -0.5, 0.75];

// Larger shapes are costlier per case; the boundary draws make each of
// the 24 cases count.

/// The blocked engine at fringe/boundary shapes, including `k = 0` and
/// the alpha/beta fast paths, against the reference path.
#[test]
fn gemm_blocked_boundaries() {
    for_each_seed(24, |rng| {
        let (m, n) = (boundary_dim(rng), boundary_dim(rng));
        let k = match rng.next_below(5) {
            0 => 0,
            1 => 1,
            2 => MR,
            3 => TB,
            _ => rng.usize_in(1, 96),
        };
        let trans = (rng.pick(&TRANS), rng.pick(&TRANS));
        let scales = (rng.pick(&EDGE_SCALES), rng.pick(&EDGE_SCALES));
        let seed = data_seed(rng);
        check_gemm((m, n, k), trans, scales, (seed, seed + 1, seed + 2));
    });
}

/// trmm/trsm at sizes crossing the `TB` block boundary, where the
/// blocked substitution path (diag block + GEMM strip) is active.
#[test]
fn tr_routines_blocked_boundaries() {
    for_each_seed(24, |rng| {
        let m = rng.pick(&[TB - 1, TB, TB + 1, TB + NR + 3]);
        let n = rng.usize_in(1, 24);
        let (side, uplo) = (rng.pick(&SIDE), rng.pick(&UPLO));
        let (trans, diag) = (rng.pick(&TRANS), rng.pick(&DIAG));
        let seed = data_seed(rng);
        let na = match side { Side::Left => m, Side::Right => n };
        let mut a = det_vals(na * na, seed);
        for i in 0..na {
            a[i + i * na] = 3.0 + a[i + i * na].abs();
        }
        let b0 = det_vals(m * n, seed + 1);
        let ar = MatRef::from_slice(&a, na, na, na);

        let want = r::ref_trmm(side, uplo, trans, diag, 1.5, ar, MatRef::from_slice(&b0, m, n, m));
        let mut b = b0.clone();
        trmm(side, uplo, trans, diag, 1.5, ar, MatMut::from_slice(&mut b, m, n, m));
        let d = max_abs_diff(MatRef::from_slice(&b, m, n, m), want.view());
        assert!(d < TOL, "trmm diff {d}");

        let mut x = b0.clone();
        trsm(side, uplo, trans, diag, 1.5, ar, MatMut::from_slice(&mut x, m, n, m));
        let res = r::trsm_residual(
            (side, uplo, trans, diag), 1.5, ar,
            MatRef::from_slice(&x, m, n, m),
            MatRef::from_slice(&b0, m, n, m),
        );
        assert!(res < 1e-8, "trsm residual {res}");
    });
}

/// Deterministic pseudo-random matrix entries in `[-1, 1)`.
fn det_vals(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

/// True when the strict triangle opposite `uplo` of `c` equals `c0`.
fn strict_opposite_untouched(uplo: Uplo, c: MatRef<'_, f64>, c0: MatRef<'_, f64>) -> bool {
    let n = c.nrows();
    for j in 0..n {
        for i in 0..n {
            let in_strict_opposite = match uplo {
                Uplo::Lower => i < j,
                Uplo::Upper => i > j,
            };
            if in_strict_opposite && c.at(i, j) != c0.at(i, j) {
                return false;
            }
        }
    }
    true
}
