//! AVX-512 f64 microkernel: 8 × 8 register tile, one zmm accumulator per
//! column, depth loop unrolled ×4.
//!
//! Shape rationale (measured on a 2-FMA-port Skylake-class core): a
//! single 8-lane zmm covers the full `MR = 8` row dimension, so each
//! depth step is one aligned A load plus eight broadcast-FMAs — 8
//! accumulators is enough to hide the 4-cycle FMA latency across 2 ports,
//! and the ×4 unroll amortizes loop control to reach ~96% of the bare
//! FMA-throughput peak. 16-row variants (16×4, 16×8) measured slower:
//! the second A load per step doubles load-port pressure without adding
//! independent FMA chains.
//!
//! Row fringes use masked loads/stores (`__mmask8 = (1 << mr) - 1`), so
//! partial tiles never touch memory past `mr` rows; column fringes simply
//! store fewer columns. The packed panels are always full-width
//! (zero-padded by the packers), so the depth loop itself is
//! fringe-free.

use std::arch::x86_64::*;

use crate::simd::{Isa, MicroKernel};

/// The AVX-512F 8×8 f64 kernel. `KC = 256` keeps the 16KB A panel slice
/// streaming from L1; `MC = 256` sizes the 512KB packed A block for a
/// 1–2MB private L2; `NC = 4096` keeps the B panel resident in LLC.
pub(crate) struct Avx512Mk;

impl MicroKernel<f64> for Avx512Mk {
    const ISA: Isa = Isa::Avx512;
    const MR: usize = 8;
    const NR: usize = 8;
    const KC: usize = 256;
    const MC: usize = 256;
    const NC: usize = 4096;
    const NAME: &'static str = "avx512_8x8";

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
        tile_8x8(kc, pa, pb, alpha, beta, c, ld, mr, nr);
    }
}

#[target_feature(enable = "avx512f")]
#[allow(
    clippy::too_many_arguments,
    reason = "microkernel ABI: raw packed panels, two scalars and a strided C tile"
)]
unsafe fn tile_8x8(
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
    let mut acc0 = _mm512_setzero_pd();
    let mut acc1 = _mm512_setzero_pd();
    let mut acc2 = _mm512_setzero_pd();
    let mut acc3 = _mm512_setzero_pd();
    let mut acc4 = _mm512_setzero_pd();
    let mut acc5 = _mm512_setzero_pd();
    let mut acc6 = _mm512_setzero_pd();
    let mut acc7 = _mm512_setzero_pd();
    let mut ap = pa;
    let mut bp = pb;
    let mut p = 0;
    while p + 4 <= kc {
        for u in 0..4 {
            let av = _mm512_loadu_pd(ap.add(u * 8));
            let bq = bp.add(u * 8);
            acc0 = _mm512_fmadd_pd(av, _mm512_set1_pd(*bq), acc0);
            acc1 = _mm512_fmadd_pd(av, _mm512_set1_pd(*bq.add(1)), acc1);
            acc2 = _mm512_fmadd_pd(av, _mm512_set1_pd(*bq.add(2)), acc2);
            acc3 = _mm512_fmadd_pd(av, _mm512_set1_pd(*bq.add(3)), acc3);
            acc4 = _mm512_fmadd_pd(av, _mm512_set1_pd(*bq.add(4)), acc4);
            acc5 = _mm512_fmadd_pd(av, _mm512_set1_pd(*bq.add(5)), acc5);
            acc6 = _mm512_fmadd_pd(av, _mm512_set1_pd(*bq.add(6)), acc6);
            acc7 = _mm512_fmadd_pd(av, _mm512_set1_pd(*bq.add(7)), acc7);
        }
        ap = ap.add(32);
        bp = bp.add(32);
        p += 4;
    }
    while p < kc {
        let av = _mm512_loadu_pd(ap);
        acc0 = _mm512_fmadd_pd(av, _mm512_set1_pd(*bp), acc0);
        acc1 = _mm512_fmadd_pd(av, _mm512_set1_pd(*bp.add(1)), acc1);
        acc2 = _mm512_fmadd_pd(av, _mm512_set1_pd(*bp.add(2)), acc2);
        acc3 = _mm512_fmadd_pd(av, _mm512_set1_pd(*bp.add(3)), acc3);
        acc4 = _mm512_fmadd_pd(av, _mm512_set1_pd(*bp.add(4)), acc4);
        acc5 = _mm512_fmadd_pd(av, _mm512_set1_pd(*bp.add(5)), acc5);
        acc6 = _mm512_fmadd_pd(av, _mm512_set1_pd(*bp.add(6)), acc6);
        acc7 = _mm512_fmadd_pd(av, _mm512_set1_pd(*bp.add(7)), acc7);
        ap = ap.add(8);
        bp = bp.add(8);
        p += 1;
    }
    let acc = [acc0, acc1, acc2, acc3, acc4, acc5, acc6, acc7];
    let va = _mm512_set1_pd(alpha);
    let mask: __mmask8 = if mr == 8 { 0xff } else { (1u8 << mr) - 1 };
    if beta == 0.0 {
        // NaN-safe overwrite: C is never read.
        for (j, &a) in acc.iter().enumerate().take(nr) {
            _mm512_mask_storeu_pd(c.add(j * ld), mask, _mm512_mul_pd(va, a));
        }
    } else {
        let vb = _mm512_set1_pd(beta);
        for (j, &a) in acc.iter().enumerate().take(nr) {
            let cv = _mm512_maskz_loadu_pd(mask, c.add(j * ld));
            let r = _mm512_fmadd_pd(vb, cv, _mm512_mul_pd(va, a));
            _mm512_mask_storeu_pd(c.add(j * ld), mask, r);
        }
    }
}
