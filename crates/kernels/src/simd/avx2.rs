//! AVX2+FMA f64 microkernel: 4 × 8 register tile, one ymm accumulator
//! per column, depth loop unrolled ×4.
//!
//! Mirrors the AVX-512 kernel at half the vector width: one 4-lane A
//! load plus eight broadcast-FMAs per depth step fills both 256-bit FMA
//! ports with eight independent chains. Row fringes use
//! `_mm256_maskload_pd` / `_mm256_maskstore_pd` with a per-lane sign
//! mask, so partial tiles never touch memory past `mr` rows.

use std::arch::x86_64::*;

use crate::simd::{Isa, MicroKernel};

/// The AVX2+FMA 4×8 f64 kernel. `KC = 256` (8KB A panel slice in L1),
/// `MC = 128` (256KB packed A block, sized for the 512KB L2 of common
/// CI hosts), `NC = 4096`.
pub(crate) struct Avx2Mk;

impl MicroKernel<f64> for Avx2Mk {
    const ISA: Isa = Isa::Avx2;
    const MR: usize = 4;
    const NR: usize = 8;
    const KC: usize = 256;
    const MC: usize = 128;
    const NC: usize = 4096;
    const NAME: &'static str = "avx2_4x8";

    #[inline]
    unsafe fn tile(
        kc: usize,
        pa: *const f64,
        pb: *const f64,
        alpha: f64,
        beta: f64,
        c: *mut f64,
        ld: usize,
        mr: usize,
        nr: usize,
    ) {
        tile_4x8(kc, pa, pb, alpha, beta, c, ld, mr, nr);
    }
}

#[target_feature(enable = "avx2,fma")]
#[allow(
    clippy::too_many_arguments,
    reason = "microkernel ABI: raw packed panels, two scalars and a strided C tile"
)]
unsafe fn tile_4x8(
    kc: usize,
    pa: *const f64,
    pb: *const f64,
    alpha: f64,
    beta: f64,
    c: *mut f64,
    ld: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut acc2 = _mm256_setzero_pd();
    let mut acc3 = _mm256_setzero_pd();
    let mut acc4 = _mm256_setzero_pd();
    let mut acc5 = _mm256_setzero_pd();
    let mut acc6 = _mm256_setzero_pd();
    let mut acc7 = _mm256_setzero_pd();
    let mut ap = pa;
    let mut bp = pb;
    let mut p = 0;
    while p + 4 <= kc {
        for u in 0..4 {
            let av = _mm256_loadu_pd(ap.add(u * 4));
            let bq = bp.add(u * 8);
            acc0 = _mm256_fmadd_pd(av, _mm256_set1_pd(*bq), acc0);
            acc1 = _mm256_fmadd_pd(av, _mm256_set1_pd(*bq.add(1)), acc1);
            acc2 = _mm256_fmadd_pd(av, _mm256_set1_pd(*bq.add(2)), acc2);
            acc3 = _mm256_fmadd_pd(av, _mm256_set1_pd(*bq.add(3)), acc3);
            acc4 = _mm256_fmadd_pd(av, _mm256_set1_pd(*bq.add(4)), acc4);
            acc5 = _mm256_fmadd_pd(av, _mm256_set1_pd(*bq.add(5)), acc5);
            acc6 = _mm256_fmadd_pd(av, _mm256_set1_pd(*bq.add(6)), acc6);
            acc7 = _mm256_fmadd_pd(av, _mm256_set1_pd(*bq.add(7)), acc7);
        }
        ap = ap.add(16);
        bp = bp.add(32);
        p += 4;
    }
    while p < kc {
        let av = _mm256_loadu_pd(ap);
        acc0 = _mm256_fmadd_pd(av, _mm256_set1_pd(*bp), acc0);
        acc1 = _mm256_fmadd_pd(av, _mm256_set1_pd(*bp.add(1)), acc1);
        acc2 = _mm256_fmadd_pd(av, _mm256_set1_pd(*bp.add(2)), acc2);
        acc3 = _mm256_fmadd_pd(av, _mm256_set1_pd(*bp.add(3)), acc3);
        acc4 = _mm256_fmadd_pd(av, _mm256_set1_pd(*bp.add(4)), acc4);
        acc5 = _mm256_fmadd_pd(av, _mm256_set1_pd(*bp.add(5)), acc5);
        acc6 = _mm256_fmadd_pd(av, _mm256_set1_pd(*bp.add(6)), acc6);
        acc7 = _mm256_fmadd_pd(av, _mm256_set1_pd(*bp.add(7)), acc7);
        ap = ap.add(4);
        bp = bp.add(8);
        p += 1;
    }
    let acc = [acc0, acc1, acc2, acc3, acc4, acc5, acc6, acc7];
    let va = _mm256_set1_pd(alpha);
    let lane = |r: usize| if r < mr { -1i64 } else { 0 };
    let mask = _mm256_setr_epi64x(lane(0), lane(1), lane(2), lane(3));
    if beta == 0.0 {
        // NaN-safe overwrite: C is never read.
        for (j, &a) in acc.iter().enumerate().take(nr) {
            _mm256_maskstore_pd(c.add(j * ld), mask, _mm256_mul_pd(va, a));
        }
    } else {
        let vb = _mm256_set1_pd(beta);
        for (j, &a) in acc.iter().enumerate().take(nr) {
            let cv = _mm256_maskload_pd(c.add(j * ld), mask);
            let r = _mm256_fmadd_pd(vb, cv, _mm256_mul_pd(va, a));
            _mm256_maskstore_pd(c.add(j * ld), mask, r);
        }
    }
}
