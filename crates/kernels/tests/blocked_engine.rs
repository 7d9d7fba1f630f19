//! Deterministic grid validation of the blocked GEMM engine and every
//! routine routed through it, at sizes that cross the blocking boundaries
//! (`MR`/`NR` register tiles, `TB` triangular blocks, `MC`/`KC` cache
//! blocks) — the shapes the small random sweeps cannot reach.

mod common;

use xk_kernels::aux::{max_abs_diff, max_abs_diff_tri};
use xk_kernels::reference as r;
use xk_kernels::{
    gemm, kernel_shape, symm, syr2k, syrk, trmm, trsm, Diag, MatMut, MatRef, Side, Trans, Uplo, TB,
};

const TOL: f64 = 1e-9;

/// Deterministic pseudo-random values in [-1, 1) (xorshift).
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

#[test]
fn gemm_grid_all_trans_boundary_shapes_every_isa() {
    // The grid runs once per host-supported ISA, with the boundary shapes
    // derived from *that* kernel's dispatched register tile and cache
    // blocks (they differ per ISA: e.g. AVX-512 uses a 24x8 tile with
    // MC=264 where scalar uses 8x4 with MC=128).
    common::for_each_supported_isa(|isa| {
        let s = kernel_shape(isa);
        // Shapes straddling the register tile, the cache blocks, and fringes.
        let shapes = [
            (1, 1, 1),
            (s.mr, s.nr, 8),
            (s.mr + 1, s.nr + 1, 7),
            (s.mc, s.nr, s.kc),
            (s.mc + 1, 2 * s.nr + 3, s.kc + 1),
            (s.mc - 1, 67, s.kc - 1),
            (130, 132, 64),
        ];
        let scales = [(1.0, 0.0), (0.75, 1.0), (1.0, -0.5), (0.0, 2.0)];
        gemm_grid(isa, &shapes, &scales);
    });
}

/// Checks `gemm` against the naive reference for every transpose pair over
/// a shape/scale grid, under whichever ISA is currently selected.
fn gemm_grid(
    isa: xk_kernels::Isa,
    shapes: &[(usize, usize, usize)],
    scales: &[(f64, f64)],
) {
    for &(m, n, k) in shapes {
        for ta in [Trans::No, Trans::Yes] {
            for tb in [Trans::No, Trans::Yes] {
                for &(alpha, beta) in scales {
                    let (am, an) = match ta {
                        Trans::No => (m, k),
                        Trans::Yes => (k, m),
                    };
                    let (bm, bn) = match tb {
                        Trans::No => (k, n),
                        Trans::Yes => (n, k),
                    };
                    let a = det_vals(am * an, 1 + m as u64);
                    let b = det_vals(bm * bn, 2 + n as u64);
                    let c0 = det_vals(m * n, 3 + k as u64);
                    let ar = MatRef::from_slice(&a, am, an, am);
                    let br = MatRef::from_slice(&b, bm, bn, bm);
                    let want =
                        r::ref_gemm(ta, tb, alpha, ar, br, beta, MatRef::from_slice(&c0, m, n, m));
                    let mut c = c0.clone();
                    gemm(ta, tb, alpha, ar, br, beta, MatMut::from_slice(&mut c, m, n, m));
                    let d = max_abs_diff(MatRef::from_slice(&c, m, n, m), want.view());
                    assert!(
                        d < TOL,
                        "gemm[{isa}] {m}x{n}x{k} {ta:?}/{tb:?} a={alpha} b={beta}: diff {d}"
                    );
                }
            }
        }
    }
}

#[test]
fn routines_beyond_gemm_every_isa() {
    // A compact symm/syrk/syr2k/trmm/trsm sweep per supported ISA: all six
    // routines route their bulk updates through the one dispatched engine,
    // so each must hold under each kernel, not just under the default.
    let (m, n) = (TB + 13, TB + 5);
    common::for_each_supported_isa(|isa| {
        let a = det_vals(m * m, 91);
        let b = det_vals(m * n, 92);
        let c0 = det_vals(m * n, 93);
        let ar = MatRef::from_slice(&a, m, m, m);
        let br = MatRef::from_slice(&b, m, n, m);

        // symm (Left/Lower)
        let want = r::ref_symm(Side::Left, Uplo::Lower, 0.75, ar, br, -0.5,
            MatRef::from_slice(&c0, m, n, m));
        let mut c = c0.clone();
        symm(Side::Left, Uplo::Lower, 0.75, ar, br, -0.5, MatMut::from_slice(&mut c, m, n, m));
        let d = max_abs_diff(MatRef::from_slice(&c, m, n, m), want.view());
        assert!(d < TOL, "symm[{isa}]: diff {d}");

        // syrk / syr2k (Lower, No)
        let cs0 = det_vals(m * m, 94);
        let want = r::ref_syrk(Trans::No, 0.75, br, -0.5, MatRef::from_slice(&cs0, m, m, m));
        let mut cs = cs0.clone();
        syrk(Uplo::Lower, Trans::No, 0.75, br, -0.5, MatMut::from_slice(&mut cs, m, m, m));
        let d = max_abs_diff_tri(Uplo::Lower, MatRef::from_slice(&cs, m, m, m), want.view());
        assert!(d < TOL, "syrk[{isa}]: diff {d}");

        let b2 = det_vals(m * n, 95);
        let b2r = MatRef::from_slice(&b2, m, n, m);
        let want = r::ref_syr2k(Trans::No, 0.75, br, b2r, -0.5, MatRef::from_slice(&cs0, m, m, m));
        let mut cs = cs0.clone();
        syr2k(Uplo::Lower, Trans::No, 0.75, br, b2r, -0.5, MatMut::from_slice(&mut cs, m, m, m));
        let d = max_abs_diff_tri(Uplo::Lower, MatRef::from_slice(&cs, m, m, m), want.view());
        assert!(d < TOL, "syr2k[{isa}]: diff {d}");

        // trmm / trsm round-trip (Left/Lower/No/NonUnit)
        let mut tri = det_vals(m * m, 96);
        for i in 0..m {
            tri[i + i * m] = 4.0 + tri[i + i * m].abs();
        }
        let trir = MatRef::from_slice(&tri, m, m, m);
        let mut x = b.clone();
        trmm(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 2.0, trir,
            MatMut::from_slice(&mut x, m, n, m));
        trsm(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 0.5, trir,
            MatMut::from_slice(&mut x, m, n, m));
        let d = max_abs_diff(MatRef::from_slice(&x, m, n, m), br);
        assert!(d < 1e-8, "trmm/trsm[{isa}] round-trip: diff {d}");
    });
}

#[test]
fn gemm_strided_c_view() {
    // C with ld > m: the store path must respect the leading dimension.
    let (m, n, k, ld) = (37, 29, 41, 50);
    let a = det_vals(m * k, 5);
    let b = det_vals(k * n, 6);
    let mut c = det_vals(ld * n, 7);
    let c0 = c.clone();
    let want = r::ref_gemm(
        Trans::No,
        Trans::No,
        1.25,
        MatRef::from_slice(&a, m, k, m),
        MatRef::from_slice(&b, k, n, k),
        0.5,
        MatRef::from_slice(&c0, m, n, ld),
    );
    gemm(
        Trans::No,
        Trans::No,
        1.25,
        MatRef::from_slice(&a, m, k, m),
        MatRef::from_slice(&b, k, n, k),
        0.5,
        MatMut::from_slice(&mut c, m, n, ld),
    );
    let d = max_abs_diff(MatRef::from_slice(&c, m, n, ld), want.view());
    assert!(d < TOL, "strided diff {d}");
    // Padding rows between columns must be untouched.
    for j in 0..n {
        for i in m..ld {
            assert_eq!(c[i + j * ld], c0[i + j * ld], "padding clobbered at ({i},{j})");
        }
    }
}

#[test]
fn symm_crosses_tb_blocks() {
    let (m, n) = (TB + 33, TB + 5);
    for side in [Side::Left, Side::Right] {
        for uplo in [Uplo::Lower, Uplo::Upper] {
            let na = match side {
                Side::Left => m,
                Side::Right => n,
            };
            let a = det_vals(na * na, 11);
            let b = det_vals(m * n, 12);
            let c0 = det_vals(m * n, 13);
            let ar = MatRef::from_slice(&a, na, na, na);
            let br = MatRef::from_slice(&b, m, n, m);
            let want =
                r::ref_symm(side, uplo, 0.75, ar, br, -0.5, MatRef::from_slice(&c0, m, n, m));
            let mut c = c0.clone();
            symm(side, uplo, 0.75, ar, br, -0.5, MatMut::from_slice(&mut c, m, n, m));
            let d = max_abs_diff(MatRef::from_slice(&c, m, n, m), want.view());
            assert!(d < TOL, "symm {side:?}/{uplo:?}: diff {d}");
        }
    }
}

#[test]
fn syrk_syr2k_cross_tb_blocks() {
    let (n, k) = (TB + 33, 70);
    for uplo in [Uplo::Lower, Uplo::Upper] {
        for trans in [Trans::No, Trans::Yes] {
            let (am, an) = match trans {
                Trans::No => (n, k),
                Trans::Yes => (k, n),
            };
            let a = det_vals(am * an, 21);
            let b = det_vals(am * an, 22);
            let c0 = det_vals(n * n, 23);
            let ar = MatRef::from_slice(&a, am, an, am);
            let br = MatRef::from_slice(&b, am, an, am);

            let want = r::ref_syrk(trans, 0.75, ar, -0.5, MatRef::from_slice(&c0, n, n, n));
            let mut c = c0.clone();
            syrk(uplo, trans, 0.75, ar, -0.5, MatMut::from_slice(&mut c, n, n, n));
            let cr = MatRef::from_slice(&c, n, n, n);
            assert!(
                max_abs_diff_tri(uplo, cr, want.view()) < TOL,
                "syrk {uplo:?}/{trans:?} triangle mismatch"
            );
            assert_opposite_untouched(uplo, cr, MatRef::from_slice(&c0, n, n, n));

            let want2 =
                r::ref_syr2k(trans, 0.75, ar, br, -0.5, MatRef::from_slice(&c0, n, n, n));
            let mut c2 = c0.clone();
            syr2k(uplo, trans, 0.75, ar, br, -0.5, MatMut::from_slice(&mut c2, n, n, n));
            let c2r = MatRef::from_slice(&c2, n, n, n);
            assert!(
                max_abs_diff_tri(uplo, c2r, want2.view()) < TOL,
                "syr2k {uplo:?}/{trans:?} triangle mismatch"
            );
            assert_opposite_untouched(uplo, c2r, MatRef::from_slice(&c0, n, n, n));
        }
    }
}

#[test]
fn trmm_all_16_variants_cross_tb_blocks() {
    let (m, n) = (TB + 41, TB + 9);
    for side in [Side::Left, Side::Right] {
        for uplo in [Uplo::Lower, Uplo::Upper] {
            for trans in [Trans::No, Trans::Yes] {
                for diag in [Diag::NonUnit, Diag::Unit] {
                    let na = match side {
                        Side::Left => m,
                        Side::Right => n,
                    };
                    let a = det_vals(na * na, 31);
                    let b0 = det_vals(m * n, 32);
                    let ar = MatRef::from_slice(&a, na, na, na);
                    let want = r::ref_trmm(
                        side,
                        uplo,
                        trans,
                        diag,
                        1.5,
                        ar,
                        MatRef::from_slice(&b0, m, n, m),
                    );
                    let mut b = b0.clone();
                    trmm(side, uplo, trans, diag, 1.5, ar, MatMut::from_slice(&mut b, m, n, m));
                    let d = max_abs_diff(MatRef::from_slice(&b, m, n, m), want.view());
                    assert!(d < TOL, "trmm {side:?}/{uplo:?}/{trans:?}/{diag:?}: diff {d}");
                }
            }
        }
    }
}

#[test]
fn trsm_all_16_variants_cross_tb_blocks() {
    let (m, n) = (TB + 41, TB + 9);
    for side in [Side::Left, Side::Right] {
        for uplo in [Uplo::Lower, Uplo::Upper] {
            for trans in [Trans::No, Trans::Yes] {
                for diag in [Diag::NonUnit, Diag::Unit] {
                    let na = match side {
                        Side::Left => m,
                        Side::Right => n,
                    };
                    let mut a = det_vals(na * na, 41);
                    for i in 0..na {
                        a[i + i * na] = 4.0 + a[i + i * na].abs();
                    }
                    let b0 = det_vals(m * n, 42);
                    let ar = MatRef::from_slice(&a, na, na, na);
                    let mut x = b0.clone();
                    trsm(side, uplo, trans, diag, 0.5, ar, MatMut::from_slice(&mut x, m, n, m));
                    let res = r::trsm_residual(
                        (side, uplo, trans, diag),
                        0.5,
                        ar,
                        MatRef::from_slice(&x, m, n, m),
                        MatRef::from_slice(&b0, m, n, m),
                    );
                    assert!(
                        res < 1e-8,
                        "trsm {side:?}/{uplo:?}/{trans:?}/{diag:?}: residual {res}"
                    );
                }
            }
        }
    }
}

#[test]
fn trsm_inverts_trmm_at_blocked_sizes() {
    // Round-trip across the blocked paths of both routines.
    let n = TB + 17;
    let mut a = det_vals(n * n, 51);
    for i in 0..n {
        a[i + i * n] = 4.0 + a[i + i * n].abs();
    }
    let b0 = det_vals(n * n, 52);
    for side in [Side::Left, Side::Right] {
        for uplo in [Uplo::Lower, Uplo::Upper] {
            for trans in [Trans::No, Trans::Yes] {
                let mut b = b0.clone();
                trmm(
                    side,
                    uplo,
                    trans,
                    Diag::NonUnit,
                    2.0,
                    MatRef::from_slice(&a, n, n, n),
                    MatMut::from_slice(&mut b, n, n, n),
                );
                trsm(
                    side,
                    uplo,
                    trans,
                    Diag::NonUnit,
                    0.5,
                    MatRef::from_slice(&a, n, n, n),
                    MatMut::from_slice(&mut b, n, n, n),
                );
                let d = max_abs_diff(
                    MatRef::from_slice(&b, n, n, n),
                    MatRef::from_slice(&b0, n, n, n),
                );
                assert!(d < 1e-8, "round-trip {side:?}/{uplo:?}/{trans:?}: diff {d}");
            }
        }
    }
}

#[test]
fn degenerate_inputs() {
    // k = 0 and alpha = 0 must reduce to pure beta scaling; beta = 1 must
    // leave C exactly intact (the skip-scale fast path).
    let (m, n) = (70, 40);
    let c0 = det_vals(m * n, 71);
    let a = det_vals(m * 8, 72);
    let b = det_vals(8 * n, 73);

    // k = 0, beta = 1: C unchanged, bit-exact.
    let mut c = c0.clone();
    let empty: Vec<f64> = vec![];
    gemm(
        Trans::No,
        Trans::No,
        2.0,
        MatRef::from_slice(&empty, m, 0, m),
        MatRef::from_slice(&empty, 0, n, 1),
        1.0,
        MatMut::from_slice(&mut c, m, n, m),
    );
    assert_eq!(c, c0, "k=0, beta=1 must be an exact no-op");

    // alpha = 0, beta = 0: C zeroed even if it held NaN.
    let mut c = vec![f64::NAN; m * n];
    gemm(
        Trans::No,
        Trans::No,
        0.0,
        MatRef::from_slice(&a, m, 8, m),
        MatRef::from_slice(&b, 8, n, 8),
        0.0,
        MatMut::from_slice(&mut c, m, n, m),
    );
    assert!(c.iter().all(|&x| x == 0.0), "alpha=0, beta=0 must zero C");

    // beta = 1 with real accumulation: matches reference.
    let mut c = c0.clone();
    let want = r::ref_gemm(
        Trans::No,
        Trans::No,
        1.0,
        MatRef::from_slice(&a, m, 8, m),
        MatRef::from_slice(&b, 8, n, 8),
        1.0,
        MatRef::from_slice(&c0, m, n, m),
    );
    gemm(
        Trans::No,
        Trans::No,
        1.0,
        MatRef::from_slice(&a, m, 8, m),
        MatRef::from_slice(&b, 8, n, 8),
        1.0,
        MatMut::from_slice(&mut c, m, n, m),
    );
    let d = max_abs_diff(MatRef::from_slice(&c, m, n, m), want.view());
    assert!(d < TOL, "beta=1 accumulate: diff {d}");
}

/// Panics unless the strict triangle opposite `uplo` of `c` equals `c0`.
fn assert_opposite_untouched(uplo: Uplo, c: MatRef<'_, f64>, c0: MatRef<'_, f64>) {
    let n = c.nrows();
    for j in 0..n {
        for i in 0..n {
            let strict_opposite = match uplo {
                Uplo::Lower => i < j,
                Uplo::Upper => i > j,
            };
            if strict_opposite {
                assert_eq!(c.at(i, j), c0.at(i, j), "opposite triangle touched at ({i},{j})");
            }
        }
    }
}
