//! Drop-in BLAS-3: exercise all six routines of the paper through the
//! asynchronous API on real data, validating each against the reference
//! implementation — the "legacy application with LAPACK layout" use case
//! the paper targets.
//!
//! Run with: `cargo run --release --example drop_in_blas`

use xkblas_repro::kernels::aux::{max_abs_diff, max_abs_diff_tri};
use xkblas_repro::kernels::reference as r;
use xkblas_repro::prelude::*;

fn main() {
    let n = 768;
    let tile = 96;
    let mk_ctx = || Context::<f64>::new(dgx1(), RuntimeConfig::xkblas(), tile);

    // GEMM
    {
        let (a, b, c) = (Matrix::random(n, n, 1), Matrix::random(n, n, 2), Matrix::random(n, n, 3));
        let want = r::ref_gemm(Trans::No, Trans::Yes, 1.5, a.view(), b.view(), -0.5, c.view());
        let mut ctx = mk_ctx();
        gemm_async(&mut ctx, Trans::No, Trans::Yes, 1.5, &a, &b, -0.5, &c);
        ctx.run_numeric(0);
        report("dgemm (B transposed)", max_abs_diff(c.view(), want.view()));
    }
    // SYMM
    {
        let (a, b, c) = (Matrix::random(n, n, 4), Matrix::random(n, n, 5), Matrix::random(n, n, 6));
        let want = r::ref_symm(Side::Right, Uplo::Upper, 2.0, a.view(), b.view(), 1.0, c.view());
        let mut ctx = mk_ctx();
        symm_async(&mut ctx, Side::Right, Uplo::Upper, 2.0, &a, &b, 1.0, &c);
        ctx.run_numeric(0);
        report("dsymm (right, upper)", max_abs_diff(c.view(), want.view()));
    }
    // SYRK
    {
        let (a, c) = (Matrix::random(n, n / 2, 7), Matrix::random(n, n, 8));
        let want = r::ref_syrk(Trans::No, 1.0, a.view(), 0.0, c.view());
        let mut ctx = mk_ctx();
        syrk_async(&mut ctx, Uplo::Lower, Trans::No, 1.0, &a, 0.0, &c);
        ctx.run_numeric(0);
        report("dsyrk (lower)", max_abs_diff_tri(Uplo::Lower, c.view(), want.view()));
    }
    // SYR2K
    {
        let (a, b, c) = (Matrix::random(n, n / 2, 9), Matrix::random(n, n / 2, 10), Matrix::random(n, n, 11));
        let want = r::ref_syr2k(Trans::No, 0.5, a.view(), b.view(), 2.0, c.view());
        let mut ctx = mk_ctx();
        syr2k_async(&mut ctx, Uplo::Upper, Trans::No, 0.5, &a, &b, 2.0, &c);
        ctx.run_numeric(0);
        report("dsyr2k (upper)", max_abs_diff_tri(Uplo::Upper, c.view(), want.view()));
    }
    // TRMM
    {
        let (a, b) = (Matrix::random(n, n, 12), Matrix::random(n, n, 13));
        let want = r::ref_trmm(Side::Left, Uplo::Upper, Trans::Yes, Diag::Unit, 1.0, a.view(), b.view());
        let mut ctx = mk_ctx();
        trmm_async(&mut ctx, Side::Left, Uplo::Upper, Trans::Yes, Diag::Unit, 1.0, &a, &b);
        ctx.run_numeric(0);
        report("dtrmm (left, upper^T, unit)", max_abs_diff(b.view(), want.view()));
    }
    // TRSM
    {
        let (a, b) = (Matrix::random_diag_dominant(n, 14), Matrix::random(n, n, 15));
        let b0 = b.to_vec();
        let mut ctx = mk_ctx();
        trsm_async(&mut ctx, Side::Right, Uplo::Lower, Trans::No, Diag::NonUnit, 3.0, &a, &b);
        ctx.run_numeric(0);
        let res = r::trsm_residual(
            (Side::Right, Uplo::Lower, Trans::No, Diag::NonUnit),
            3.0,
            a.view(),
            b.view(),
            xkblas_repro::kernels::MatRef::from_slice(&b0, n, n, n),
        );
        report("dtrsm (right, lower) residual", res);
    }
    println!("\nall six BLAS-3 routines validated through the async API.");
}

fn report(name: &str, err: f64) {
    println!("{name:<32} max error {err:.3e}");
    assert!(err < 1e-8, "{name} failed: {err}");
}
