//! NEON/ASIMD f64 microkernel: 4 × 4 register tile, two 2-lane q-regs
//! per column, depth loop unrolled ×2.
//!
//! Eight independent `vfmaq_f64` chains per depth step cover the typical
//! 2 × 128-bit FMA pipes of aarch64 cores. NEON has no masked stores, so
//! partial tiles spill the full accumulator to a stack buffer and the
//! shared scalar clipped store ([`crate::simd::store_spill_clipped`])
//! writes the `mr × nr` fringe; full tiles store directly.

use std::arch::aarch64::*;

use crate::simd::{store_spill_clipped, Isa, MicroKernel};

/// The NEON 4×4 f64 kernel. `KC = 256` (8KB A panel slice in L1),
/// `MC = 128`, `NC = 4096`.
pub(crate) struct NeonMk;

impl MicroKernel<f64> for NeonMk {
    const ISA: Isa = Isa::Neon;
    const MR: usize = 4;
    const NR: usize = 4;
    const KC: usize = 256;
    const MC: usize = 128;
    const NC: usize = 4096;
    const NAME: &'static str = "neon_4x4";

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
        tile_4x4(kc, pa, pb, alpha, beta, c, ld, mr, nr);
    }
}

#[target_feature(enable = "neon")]
#[allow(
    clippy::too_many_arguments,
    reason = "microkernel ABI: raw packed panels, two scalars and a strided C tile"
)]
unsafe fn tile_4x4(
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
    let mut a0l = vdupq_n_f64(0.0);
    let mut a0h = vdupq_n_f64(0.0);
    let mut a1l = vdupq_n_f64(0.0);
    let mut a1h = vdupq_n_f64(0.0);
    let mut a2l = vdupq_n_f64(0.0);
    let mut a2h = vdupq_n_f64(0.0);
    let mut a3l = vdupq_n_f64(0.0);
    let mut a3h = vdupq_n_f64(0.0);
    let mut ap = pa;
    let mut bp = pb;
    let mut p = 0;
    while p + 2 <= kc {
        for u in 0..2 {
            let avl = vld1q_f64(ap.add(u * 4));
            let avh = vld1q_f64(ap.add(u * 4 + 2));
            let bq = bp.add(u * 4);
            let b0 = vdupq_n_f64(*bq);
            a0l = vfmaq_f64(a0l, avl, b0);
            a0h = vfmaq_f64(a0h, avh, b0);
            let b1 = vdupq_n_f64(*bq.add(1));
            a1l = vfmaq_f64(a1l, avl, b1);
            a1h = vfmaq_f64(a1h, avh, b1);
            let b2 = vdupq_n_f64(*bq.add(2));
            a2l = vfmaq_f64(a2l, avl, b2);
            a2h = vfmaq_f64(a2h, avh, b2);
            let b3 = vdupq_n_f64(*bq.add(3));
            a3l = vfmaq_f64(a3l, avl, b3);
            a3h = vfmaq_f64(a3h, avh, b3);
        }
        ap = ap.add(8);
        bp = bp.add(8);
        p += 2;
    }
    if p < kc {
        let avl = vld1q_f64(ap);
        let avh = vld1q_f64(ap.add(2));
        let b0 = vdupq_n_f64(*bp);
        a0l = vfmaq_f64(a0l, avl, b0);
        a0h = vfmaq_f64(a0h, avh, b0);
        let b1 = vdupq_n_f64(*bp.add(1));
        a1l = vfmaq_f64(a1l, avl, b1);
        a1h = vfmaq_f64(a1h, avh, b1);
        let b2 = vdupq_n_f64(*bp.add(2));
        a2l = vfmaq_f64(a2l, avl, b2);
        a2h = vfmaq_f64(a2h, avh, b2);
        let b3 = vdupq_n_f64(*bp.add(3));
        a3l = vfmaq_f64(a3l, avl, b3);
        a3h = vfmaq_f64(a3h, avh, b3);
    }
    let lo = [a0l, a1l, a2l, a3l];
    let hi = [a0h, a1h, a2h, a3h];
    if mr == 4 {
        let va = vdupq_n_f64(alpha);
        if beta == 0.0 {
            // NaN-safe overwrite: C is never read.
            for j in 0..nr {
                let cp = c.add(j * ld);
                vst1q_f64(cp, vmulq_f64(va, lo[j]));
                vst1q_f64(cp.add(2), vmulq_f64(va, hi[j]));
            }
        } else {
            let vb = vdupq_n_f64(beta);
            for j in 0..nr {
                let cp = c.add(j * ld);
                vst1q_f64(cp, vfmaq_f64(vmulq_f64(va, lo[j]), vb, vld1q_f64(cp)));
                vst1q_f64(
                    cp.add(2),
                    vfmaq_f64(vmulq_f64(va, hi[j]), vb, vld1q_f64(cp.add(2))),
                );
            }
        }
    } else {
        let mut spill = [0.0f64; 16];
        for j in 0..4 {
            vst1q_f64(spill.as_mut_ptr().add(j * 4), lo[j]);
            vst1q_f64(spill.as_mut_ptr().add(j * 4 + 2), hi[j]);
        }
        store_spill_clipped(spill.as_ptr(), 4, alpha, beta, c, ld, mr, nr);
    }
}
