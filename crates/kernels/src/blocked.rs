//! BLIS-style blocked, packed, register-tiled GEMM engine.
//!
//! One engine computes `C = alpha * OA * OB + beta * C` for every BLAS-3
//! routine in the crate. The three classic loops around a register-tiled
//! microkernel:
//!
//! * **`NC`** — column panels of `OB`/`C`, sized so a packed `KC × NC` B
//!   panel stays resident in the last-level cache;
//! * **`KC`** — depth blocking; one `KC`-deep panel pair is packed per
//!   iteration and `beta` is folded into the *first* depth block so `C`
//!   is streamed exactly once (no separate scaling pass);
//! * **`MC`** — row panels of `OA`/`C`, sized so the packed `MC × KC` A
//!   panel fits in L2.
//!
//! Operand elements are read through *accessor closures* `OA(i, p)` /
//! `OB(p, j)` during packing, which is how the four `Trans` combinations,
//! symmetric mirroring (`sym_at`) and sub-block offsets all share this one
//! engine: packing materializes whatever the accessor describes into the
//! fixed micro-panel layout the microkernel expects, and the hot loop never
//! branches on storage format.
//!
//! Since PR 6 the engine is **generic over the microkernel**
//! ([`crate::simd::MicroKernel`]): the register-tile shape `MR × NR` and
//! the `KC`/`MC`/`NC` blocking are associated constants of the dispatched
//! kernel, the packers produce micro-panels of whatever width that kernel
//! wants, and [`gemm_with`] routes through the runtime ISA dispatcher
//! ([`crate::simd::selected_isa`]) so an AVX-512, AVX2, NEON or scalar
//! kernel is chosen per machine (override with `XK_KERNEL_ISA`). Fringe
//! tiles are zero-padded in the packed panels and clipped at the store,
//! so boundary shapes stay exact on every path. Pack buffers are reused
//! thread-locally across calls, so steady state performs no allocation —
//! important because the parallel executor invokes this engine from many
//! worker threads.

use std::cell::RefCell;

use crate::scalar::Scalar;
use crate::simd::MicroKernel;
use crate::types::Trans;
use crate::view::{MatMut, MatRef};

/// Scalar-kernel register-tile rows. The portable kernel's geometry is
/// re-exported as crate-level constants because sizing heuristics and the
/// boundary-grid tests reference a fixed shape; the *dispatched* kernel's
/// geometry is [`crate::simd::kernel_shape`].
pub const MR: usize = 8;
/// Scalar-kernel register-tile columns (see [`MR`]).
pub const NR: usize = 4;
/// Scalar-kernel rows per packed `OA` macro-panel (`MC × KC` targets L2).
pub const MC: usize = 128;
/// Scalar-kernel depth of one packed panel pair (the k-dimension block).
pub const KC: usize = 256;
/// Scalar-kernel columns per packed `OB` macro-panel (`KC × NC` targets L3).
pub const NC: usize = 2048;
/// Diagonal-block order used by the blocked triangular routines
/// (trmm/trsm substitution blocks, syrk/syr2k diagonal tiles).
pub const TB: usize = 64;

thread_local! {
    /// Reusable pack storage. Backed by `u64` words so one pair of buffers
    /// serves both `f32` and `f64` with correct alignment.
    static PACK_BUFS: RefCell<(Vec<u64>, Vec<u64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Runs `f` with this thread's reusable pack buffers viewed as `a_elems` /
/// `b_elems` scalars (growing them on first use or when a larger problem
/// arrives; never shrinking).
fn with_pack_buffers<T: Scalar, R>(
    a_elems: usize,
    b_elems: usize,
    f: impl FnOnce(&mut [T], &mut [T]) -> R,
) -> R {
    assert!(
        std::mem::size_of::<T>() == T::WORD
            && std::mem::align_of::<T>() <= std::mem::align_of::<u64>(),
        "Scalar impls must be plain floats no more aligned than u64"
    );
    PACK_BUFS.with(|cell| {
        let mut bufs = cell.borrow_mut();
        let words = |elems: usize| (elems * T::WORD).div_ceil(std::mem::size_of::<u64>());
        let (need_a, need_b) = (words(a_elems), words(b_elems));
        if bufs.0.len() < need_a {
            bufs.0.resize(need_a, 0);
        }
        if bufs.1.len() < need_b {
            bufs.1.resize(need_b, 0);
        }
        let (wa, wb) = &mut *bufs;
        // SAFETY: both Vecs hold at least `*_elems * T::WORD` bytes, u64
        // storage is aligned at least as strictly as T (asserted above), any
        // bit pattern is a valid T, and the two slices come from distinct
        // allocations so they never alias.
        let pa = unsafe { std::slice::from_raw_parts_mut(wa.as_mut_ptr().cast::<T>(), a_elems) };
        let pb = unsafe { std::slice::from_raw_parts_mut(wb.as_mut_ptr().cast::<T>(), b_elems) };
        f(pa, pb)
    })
}

/// Packs `OA[ic..ic+mc, pc..pc+kc]` into micro-panels of `mr_k` rows.
///
/// Layout: panel `ip` holds rows `[ip*mr_k, ip*mr_k + mr_k)` as `kc`
/// contiguous `mr_k`-element column slices; rows past `mc` are zero-padded
/// so the microkernel always runs a full register tile.
fn pack_a<T: Scalar>(
    buf: &mut [T],
    oa: &impl Fn(usize, usize) -> T,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    mr_k: usize,
) {
    for ip in 0..mc.div_ceil(mr_k) {
        let base = ip * kc * mr_k;
        let i0 = ic + ip * mr_k;
        let rows = mr_k.min(mc - ip * mr_k);
        for p in 0..kc {
            let dst = &mut buf[base + p * mr_k..base + (p + 1) * mr_k];
            for (r, d) in dst.iter_mut().take(rows).enumerate() {
                *d = oa(i0 + r, pc + p);
            }
            for d in dst.iter_mut().skip(rows) {
                *d = T::ZERO;
            }
        }
    }
}

/// Packs `OB[pc..pc+kc, jc..jc+nc]` into micro-panels of `nr_k` columns
/// (columns past `nc` zero-padded), mirroring [`pack_a`].
fn pack_b<T: Scalar>(
    buf: &mut [T],
    ob: &impl Fn(usize, usize) -> T,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    nr_k: usize,
) {
    for jp in 0..nc.div_ceil(nr_k) {
        let base = jp * kc * nr_k;
        let j0 = jc + jp * nr_k;
        let cols = nr_k.min(nc - jp * nr_k);
        for p in 0..kc {
            let dst = &mut buf[base + p * nr_k..base + (p + 1) * nr_k];
            for (c, d) in dst.iter_mut().take(cols).enumerate() {
                *d = ob(pc + p, j0 + c);
            }
            for d in dst.iter_mut().skip(cols) {
                *d = T::ZERO;
            }
        }
    }
}

/// The blocked loop nest, monomorphized per microkernel: every blocking
/// constant comes from `MK`, so the compiler sees fixed trip counts and
/// panel strides for each ISA variant.
///
/// Only the dispatchers in `scalar.rs` may call this, and only with a
/// kernel whose ISA the host supports ([`crate::simd::supported_isas`]) —
/// that invariant is what makes the `MK::tile` call below sound.
#[allow(clippy::too_many_arguments)]
pub(crate) fn engine<T, MK, OA, OB>(
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    oa: OA,
    ob: OB,
    beta: T,
    mut c: MatMut<'_, T>,
) where
    T: Scalar,
    MK: MicroKernel<T>,
    OA: Fn(usize, usize) -> T,
    OB: Fn(usize, usize) -> T,
{
    debug_assert_eq!(c.nrows(), m);
    debug_assert_eq!(c.ncols(), n);
    if m == 0 || n == 0 {
        return;
    }
    if alpha == T::ZERO || k == 0 {
        crate::gemm::scale_in_place(beta, c);
        return;
    }
    let kc_max = MK::KC.min(k);
    let a_elems = MK::MC.min(m).div_ceil(MK::MR) * MK::MR * kc_max;
    let b_elems = MK::NC.min(n).div_ceil(MK::NR) * MK::NR * kc_max;
    let ld = c.ld();
    with_pack_buffers(a_elems, b_elems, |pa, pb| {
        for jc in (0..n).step_by(MK::NC) {
            let nc = MK::NC.min(n - jc);
            for pc in (0..k).step_by(MK::KC) {
                let kc = MK::KC.min(k - pc);
                // Fold beta into the first depth block: every C element is
                // touched exactly once per pc iteration.
                let beta_eff = if pc == 0 { beta } else { T::ONE };
                pack_b(pb, &ob, pc, kc, jc, nc, MK::NR);
                for ic in (0..m).step_by(MK::MC) {
                    let mc = MK::MC.min(m - ic);
                    pack_a(pa, &oa, ic, mc, pc, kc, MK::MR);
                    for jr in (0..nc).step_by(MK::NR) {
                        let nr = MK::NR.min(nc - jr);
                        let pb_panel = &pb[(jr / MK::NR) * kc * MK::NR..][..kc * MK::NR];
                        for ir in (0..mc).step_by(MK::MR) {
                            let mr = MK::MR.min(mc - ir);
                            let pa_panel = &pa[(ir / MK::MR) * kc * MK::MR..][..kc * MK::MR];
                            // SAFETY: the packed panels hold kc full
                            // micro-panels (zero-padded), the C pointer
                            // addresses an in-bounds mr × nr region with
                            // leading dimension ld, 0 < mr <= MK::MR and
                            // 0 < nr <= MK::NR by the min() clips, and the
                            // dispatcher only selects host-supported MKs.
                            unsafe {
                                MK::tile(
                                    kc,
                                    pa_panel.as_ptr(),
                                    pb_panel.as_ptr(),
                                    alpha,
                                    beta_eff,
                                    c.ptr_at_mut(ic + ir, jc + jr),
                                    ld,
                                    mr,
                                    nr,
                                );
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Blocked GEMM over element accessors:
/// `C = alpha * OA * OB + beta * C` with `OA` logically `m × k` and `OB`
/// logically `k × n`.
///
/// This is the engine every routine in the crate routes its bulk updates
/// through — and the single dispatch point: it reads
/// [`crate::simd::selected_isa`] and runs the matching monomorphized
/// [`engine`], so all six routines inherit the best kernel for the host
/// with zero call-site changes. `beta` is applied by the first depth
/// block's store (skipped entirely when `beta == 1`), so `C` is read and
/// written exactly once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_with<T, OA, OB>(
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    oa: OA,
    ob: OB,
    beta: T,
    c: MatMut<'_, T>,
) where
    T: Scalar,
    OA: Fn(usize, usize) -> T,
    OB: Fn(usize, usize) -> T,
{
    T::gemm_engine(crate::simd::selected_isa(), m, n, k, alpha, oa, ob, beta, c)
}

/// Blocked GEMM over matrix views: dispatches the four `Trans` combinations
/// to concrete accessor instantiations of [`gemm_with`].
pub(crate) fn gemm_views<T: Scalar>(
    trans_a: Trans,
    trans_b: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    let (m, n) = (c.nrows(), c.ncols());
    let k = match trans_a {
        Trans::No => a.ncols(),
        Trans::Yes => a.nrows(),
    };
    match (trans_a, trans_b) {
        (Trans::No, Trans::No) => {
            gemm_with(m, n, k, alpha, |i, p| a.at(i, p), |p, j| b.at(p, j), beta, c)
        }
        (Trans::No, Trans::Yes) => {
            gemm_with(m, n, k, alpha, |i, p| a.at(i, p), |p, j| b.at(j, p), beta, c)
        }
        (Trans::Yes, Trans::No) => {
            gemm_with(m, n, k, alpha, |i, p| a.at(p, i), |p, j| b.at(p, j), beta, c)
        }
        (Trans::Yes, Trans::Yes) => {
            gemm_with(m, n, k, alpha, |i, p| a.at(p, i), |p, j| b.at(j, p), beta, c)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Engine vs the independent reference for one shape/parameter set.
    fn check(m: usize, n: usize, k: usize, alpha: f64, beta: f64) {
        let a = det_vals(m * k, 1);
        let b = det_vals(k * n, 2);
        let c0 = det_vals(m * n, 3);
        let want = crate::reference::ref_gemm(
            Trans::No,
            Trans::No,
            alpha,
            MatRef::from_slice(&a, m, k, m.max(1)),
            MatRef::from_slice(&b, k, n, k.max(1)),
            beta,
            MatRef::from_slice(&c0, m, n, m),
        );
        let mut c = c0.clone();
        gemm_with(
            m,
            n,
            k,
            alpha,
            |i, p| a[i + p * m],
            |p, j| b[p + j * k],
            beta,
            MatMut::from_slice(&mut c, m, n, m),
        );
        let d = crate::aux::max_abs_diff(MatRef::from_slice(&c, m, n, m), want.view());
        assert!(d < 1e-10, "({m},{n},{k}) alpha={alpha} beta={beta}: diff {d}");
    }

    #[test]
    fn fringe_shapes_and_kc_boundary() {
        for &(m, n) in &[(1, 1), (MR - 1, NR + 1), (MR, NR), (MR + 1, NR - 1), (19, 13)] {
            for &k in &[1, 7, KC - 1, KC, KC + 1] {
                check(m, n, k, 1.0, 0.5);
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        let a = vec![1.0f64; 9];
        let b = vec![1.0f64; 9];
        let mut c = vec![f64::NAN; 9];
        gemm_with(
            3,
            3,
            3,
            1.0,
            |i, p| a[i + p * 3],
            |p, j| b[p + j * 3],
            0.0,
            MatMut::from_slice(&mut c, 3, 3, 3),
        );
        assert!(c.iter().all(|&x| x == 3.0));
    }

    #[test]
    fn degenerate_k_and_alpha_scale_only() {
        let mut c = vec![2.0f64; 4];
        gemm_with::<f64, _, _>(
            2,
            2,
            0,
            1.0,
            |_, _| unreachable!(),
            |_, _| unreachable!(),
            0.5,
            MatMut::from_slice(&mut c, 2, 2, 2),
        );
        assert!(c.iter().all(|&x| x == 1.0));
        gemm_with(
            2,
            2,
            5,
            0.0,
            |_, _| 1.0f64,
            |_, _| 1.0f64,
            2.0,
            MatMut::from_slice(&mut c, 2, 2, 2),
        );
        assert!(c.iter().all(|&x| x == 2.0));
    }

    #[test]
    fn pack_buffers_are_reused() {
        // Two calls on the same thread must not corrupt each other.
        check(MC + 3, NR * 3 + 1, KC + 5, 0.75, 1.0);
        check(5, 5, 5, -1.0, 0.0);
    }
}
