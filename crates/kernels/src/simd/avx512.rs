//! AVX-512 f64 microkernel: 24 × 8 register tile (three zmm rows per
//! column, 24 accumulators), A prefetched ahead of the depth loop, plus
//! the 8 × 8 transpose the packer moves mirrored runs through.
//!
//! Shape rationale (measured on a 2-FMA-port AVX-512 core): an FMA has a
//! 4-cycle latency on each of 2 ports, so 8 independent chains only just
//! fill the pipes, and an 8 × 8 tile stalls on any late load. Three A
//! loads plus eight broadcasts per depth step feed 24 chains, three times
//! the latency × ports product, with 28 of the 32 zmm registers live.
//! Each step streams 192 bytes of packed A from L2, so the A micro-panel
//! is prefetched 8 steps ahead; the C tile is prefetched before the depth
//! loop so the store does not wait on it. On 256² tiles of N = 2048
//! operands (one thread, 2-vCPU Xeon) this took 10–14 % off an 8 × 8
//! tile's GEMM time, and 16-row shapes were not tried.
//!
//! Each `C` element keeps one accumulator over ascending depth, and the
//! store is the same `alpha * acc` / `beta * C + alpha * acc` FMA as
//! before, so the outputs equal the 8 × 8 tile's bit for bit (pinned by
//! `tests/isa_dispatch.rs`).
//!
//! Row fringes use masked loads/stores (one `__mmask8` per zmm row, zero
//! past `mr`), so partial tiles never touch memory past `mr` rows; column
//! fringes simply store fewer columns. The packed panels are always
//! full-width (zero-padded by the packers), so the depth loop itself is
//! fringe-free.

use std::arch::x86_64::*;

use crate::simd::{Isa, MicroKernel, Transpose8};

/// The AVX-512F 24×8 f64 kernel. `KC = 256` keeps the 16KB B micro-panel
/// in L1 while 48KB A micro-panels stream past it; `MC = 264` (11
/// micro-panels) sizes the 528KB packed A block for a 1–2MB private L2;
/// `NC = 4096` keeps the B panel resident in LLC.
pub(crate) struct Avx512Mk;

impl MicroKernel for Avx512Mk {
    const ISA: Isa = Isa::Avx512;
    const MR: usize = 24;
    const NR: usize = 8;
    const KC: usize = 256;
    const MC: usize = 264;
    const NC: usize = 4096;
    const NAME: &'static str = "avx512_24x8";
    const TRANSPOSE8: Option<Transpose8> = Some(transpose_8x8);

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
        tile_24x8(kc, pa, pb, alpha, beta, c, ld, mr, nr);
    }
}

/// Depth steps the A prefetch runs ahead of the loads.
const PREFETCH_STEPS: usize = 8;

/// Prefetches the three cache lines one 24-element A step spans. The
/// address is formed with `wrapping_add` and never dereferenced, so
/// running past the panel's end is harmless.
#[inline(always)]
unsafe fn prefetch_a_step(ap: *const f64) {
    let at = ap.wrapping_add(PREFETCH_STEPS * 24) as *const i8;
    _mm_prefetch::<_MM_HINT_T0>(at);
    _mm_prefetch::<_MM_HINT_T0>(at.wrapping_add(64));
    _mm_prefetch::<_MM_HINT_T0>(at.wrapping_add(128));
}

#[target_feature(enable = "avx512f")]
#[allow(
    clippy::too_many_arguments,
    reason = "microkernel ABI: raw packed panels, two scalars and a strided C tile"
)]
unsafe fn tile_24x8(
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
    // A row fringe computes only the zmm rows that hold live rows; the
    // rest of the 24-wide panel is zero padding.
    match mr.div_ceil(8) {
        1 => tile_rows::<1>(kc, pa, pb, alpha, beta, c, ld, mr, nr),
        2 => tile_rows::<2>(kc, pa, pb, alpha, beta, c, ld, mr, nr),
        _ => tile_rows::<3>(kc, pa, pb, alpha, beta, c, ld, mr, nr),
    }
}

/// The 24 × 8 tile's update on its first `V` zmm rows (`8 * V >= mr`).
#[target_feature(enable = "avx512f")]
#[allow(
    clippy::too_many_arguments,
    reason = "microkernel ABI: raw packed panels, two scalars and a strided C tile"
)]
unsafe fn tile_rows<const V: usize>(
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
    // Pull the C tile in while the depth loop runs: each column spans
    // `64 * V` bytes, one line more when it starts off a line boundary.
    for j in 0..nr {
        let col = c.wrapping_add(j * ld) as *const i8;
        for line in 0..V {
            _mm_prefetch::<_MM_HINT_T0>(col.wrapping_add(64 * line));
        }
        _mm_prefetch::<_MM_HINT_T0>(col.wrapping_add(64 * V - 1));
    }
    let mut acc = [[_mm512_setzero_pd(); V]; 8];
    let mut ap = pa;
    let mut bp = pb;
    // One depth step: `V` A rows against eight broadcast B columns.
    macro_rules! step {
        () => {{
            prefetch_a_step(ap);
            let mut a = [_mm512_setzero_pd(); V];
            for (v, av) in a.iter_mut().enumerate() {
                *av = _mm512_loadu_pd(ap.add(8 * v));
            }
            for (j, col) in acc.iter_mut().enumerate() {
                let b = _mm512_set1_pd(*bp.add(j));
                for (cv, &av) in col.iter_mut().zip(&a) {
                    *cv = _mm512_fmadd_pd(av, b, *cv);
                }
            }
            ap = ap.add(24);
            bp = bp.add(8);
        }};
    }
    for _ in 0..kc / 4 {
        step!();
        step!();
        step!();
        step!();
    }
    for _ in 0..kc % 4 {
        step!();
    }
    let va = _mm512_set1_pd(alpha);
    // One mask per zmm row: the lanes of rows [8v, 8v + 8) below `mr`.
    let mut masks: [__mmask8; V] = [0; V];
    for (v, k) in masks.iter_mut().enumerate() {
        *k = ((1u16 << mr.saturating_sub(8 * v).min(8)) - 1) as __mmask8;
    }
    if beta == 0.0 {
        // NaN-safe overwrite: C is never read.
        for (j, col) in acc.iter().enumerate().take(nr) {
            for (v, (&a, &k)) in col.iter().zip(&masks).enumerate() {
                _mm512_mask_storeu_pd(c.add(j * ld + 8 * v), k, _mm512_mul_pd(va, a));
            }
        }
    } else {
        let vb = _mm512_set1_pd(beta);
        for (j, col) in acc.iter().enumerate().take(nr) {
            for (v, (&a, &k)) in col.iter().zip(&masks).enumerate() {
                let dst = c.add(j * ld + 8 * v);
                let cv = _mm512_maskz_loadu_pd(k, dst);
                _mm512_mask_storeu_pd(dst, k, _mm512_fmadd_pd(vb, cv, _mm512_mul_pd(va, a)));
            }
        }
    }
}

/// `dst[q * dst_stride + r] = src[r * ld + q]` for `r, q < 8`: eight
/// stored columns of eight elements each become eight packed depth slices.
///
/// # Safety
/// `src` must be readable at `r * ld + [0, 8)` and `dst` writable at
/// `q * dst_stride + [0, 8)` for every `r, q < 8`; the host must support
/// AVX-512F.
#[target_feature(enable = "avx512f")]
unsafe fn transpose_8x8(src: *const f64, ld: usize, dst: *mut f64, dst_stride: usize) {
    let row = |r: usize| src.add(r * ld);
    let (v0, v1) = (_mm512_loadu_pd(row(0)), _mm512_loadu_pd(row(1)));
    let (v2, v3) = (_mm512_loadu_pd(row(2)), _mm512_loadu_pd(row(3)));
    let (v4, v5) = (_mm512_loadu_pd(row(4)), _mm512_loadu_pd(row(5)));
    let (v6, v7) = (_mm512_loadu_pd(row(6)), _mm512_loadu_pd(row(7)));
    // Pairs of rows: `e01` holds elements 0, 2, 4, 6 of rows 0 and 1
    // interleaved, `o01` elements 1, 3, 5, 7.
    let (e01, o01) = (_mm512_unpacklo_pd(v0, v1), _mm512_unpackhi_pd(v0, v1));
    let (e23, o23) = (_mm512_unpacklo_pd(v2, v3), _mm512_unpackhi_pd(v2, v3));
    let (e45, o45) = (_mm512_unpacklo_pd(v4, v5), _mm512_unpackhi_pd(v4, v5));
    let (e67, o67) = (_mm512_unpacklo_pd(v6, v7), _mm512_unpackhi_pd(v6, v7));
    // Quads of rows: `q0_03` holds element 0 of rows 0..4, then element 4;
    // `lo` takes 128-bit lanes 0 and 2 of both pairs, `hi` lanes 1 and 3.
    let lo = _mm512_set_epi64(13, 12, 5, 4, 9, 8, 1, 0);
    let hi = _mm512_set_epi64(15, 14, 7, 6, 11, 10, 3, 2);
    let q0_03 = _mm512_permutex2var_pd(e01, lo, e23);
    let q1_03 = _mm512_permutex2var_pd(o01, lo, o23);
    let q2_03 = _mm512_permutex2var_pd(e01, hi, e23);
    let q3_03 = _mm512_permutex2var_pd(o01, hi, o23);
    let q0_47 = _mm512_permutex2var_pd(e45, lo, e67);
    let q1_47 = _mm512_permutex2var_pd(o45, lo, o67);
    let q2_47 = _mm512_permutex2var_pd(e45, hi, e67);
    let q3_47 = _mm512_permutex2var_pd(o45, hi, o67);
    // Element `q` of all eight rows is the low half of both quads, element
    // `q + 4` the high half.
    for (q, (x, y)) in [(q0_03, q0_47), (q1_03, q1_47), (q2_03, q2_47), (q3_03, q3_47)]
        .into_iter()
        .enumerate()
    {
        _mm512_storeu_pd(dst.add(q * dst_stride), _mm512_shuffle_f64x2::<0x44>(x, y));
        _mm512_storeu_pd(dst.add((q + 4) * dst_stride), _mm512_shuffle_f64x2::<0xEE>(x, y));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A NaN whose payload shows whether it was rewritten.
    const POISON: u64 = 0x7ff8_dead_beef_0001;

    /// Every row and column fringe of the tile, for `beta == 0` (which must
    /// not read `C`) and `beta != 0`: the `mr × nr` corner equals one fused
    /// multiply-add chain per element over ascending depth, bit for bit, and
    /// every element outside it keeps its NaN poison.
    #[test]
    fn every_fringe_stores_its_corner_and_nothing_else() {
        if !std::arch::is_x86_feature_detected!("avx512f") {
            return;
        }
        let kc = 37; // not a multiple of the ×4 unroll
        let val = |i: usize, m: usize| ((i * 7919) % m) as f64 / m as f64 - 0.5;
        let pa: Vec<f64> = (0..kc * 24).map(|i| val(i, 101)).collect();
        let pb: Vec<f64> = (0..kc * 8).map(|i| val(i, 89)).collect();
        let ld = 24 + 3;
        let alpha = 0.75;
        for beta in [0.0, 1.0, -0.5] {
            for mr in 1..=24 {
                for nr in 1..=8 {
                    let corner = |r: usize, j: usize| r < mr && j < nr;
                    let mut c: Vec<f64> = (0..ld * 9)
                        .map(|i| match corner(i % ld, i / ld) && beta != 0.0 {
                            true => val(i, 53),
                            false => f64::from_bits(POISON),
                        })
                        .collect();
                    let old = c.clone();
                    // SAFETY: full panels of `kc` steps, a `ld × 9` C buffer
                    // holding the `mr × nr` corner, AVX-512F checked above.
                    let (a, b, dst) = (pa.as_ptr(), pb.as_ptr(), c.as_mut_ptr());
                    unsafe { tile_24x8(kc, a, b, alpha, beta, dst, ld, mr, nr) };
                    for (i, (&got, &was)) in c.iter().zip(&old).enumerate() {
                        let (r, j) = (i % ld, i / ld);
                        let want = if corner(r, j) {
                            let acc = (0..kc)
                                .fold(0.0f64, |acc, p| pa[p * 24 + r].mul_add(pb[p * 8 + j], acc));
                            if beta == 0.0 {
                                alpha * acc
                            } else {
                                beta.mul_add(was, alpha * acc)
                            }
                        } else {
                            was
                        };
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "mr {mr} nr {nr} beta {beta}: element ({r}, {j})"
                        );
                    }
                }
            }
        }
    }
}
