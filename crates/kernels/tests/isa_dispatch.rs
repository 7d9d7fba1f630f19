//! Runtime ISA dispatch semantics, the scalar bit-for-bit contract, and the
//! cross-ISA numerical agreement contract.
//!
//! # Tolerance contract (see DESIGN.md §6d)
//!
//! The SIMD microkernels accumulate each `C` element in the same depth
//! order as the scalar kernel but with fused multiply-add, which rounds
//! once per step where the scalar kernel rounds twice. Per element the
//! kernels must therefore agree with the scalar-blocked oracle to within
//!
//! * `MAX_ULPS` = 256 ULPs, **or**
//! * `ABS_FLOOR` = 1e-12 absolute difference
//!
//! whichever is looser. The absolute floor covers catastrophic-cancellation
//! elements (results near zero, where one ULP is vanishingly small and a
//! harmless `k * eps`-scale difference spans many ULPs).
//!
//! `XK_KERNEL_ISA=scalar` is stricter: it must reproduce the pre-dispatch
//! blocked engine (PR 2) *bit for bit*, which the oracle replica below
//! pins permanently.

mod common;

use std::panic::{self, AssertUnwindSafe};

use xk_kernels::aux::ulp_distance;
use xk_kernels::simd::supported_isas;
use xk_kernels::{
    detected_isa, gemm, kernel_shape, selected_isa, Isa, MatMut, MatRef, Trans, ISA_ENV,
};

const MAX_ULPS: u64 = 256;
const ABS_FLOOR: f64 = 1e-12;

/// Deterministic pseudo-random values in [-1, 1) (xorshift), identical to
/// the generator in the sibling suites.
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

// ---------------------------------------------------------------------------
// PR 2 oracle: a verbatim replica of the blocked engine as it stood before
// the microkernel trait existed (MR=8, NR=4, MC=128, KC=256, NC=2048,
// autovectorized accumulate + clipped store). `XK_KERNEL_ISA=scalar` must
// reproduce this bit for bit — it is both the portable fallback and the
// differential baseline every SIMD kernel is judged against.
// ---------------------------------------------------------------------------
mod pr2_oracle {
    use xk_kernels::MatMut;

    pub const MR: usize = 8;
    pub const NR: usize = 4;
    pub const MC: usize = 128;
    pub const KC: usize = 256;
    pub const NC: usize = 2048;

    fn pack_a(
        buf: &mut [f64],
        oa: &impl Fn(usize, usize) -> f64,
        ic: usize,
        mc: usize,
        pc: usize,
        kc: usize,
    ) {
        for ip in 0..mc.div_ceil(MR) {
            let base = ip * kc * MR;
            let i0 = ic + ip * MR;
            let rows = MR.min(mc - ip * MR);
            for p in 0..kc {
                let dst = &mut buf[base + p * MR..base + (p + 1) * MR];
                for (r, d) in dst.iter_mut().take(rows).enumerate() {
                    *d = oa(i0 + r, pc + p);
                }
                for d in dst.iter_mut().skip(rows) {
                    *d = 0.0;
                }
            }
        }
    }

    fn pack_b(
        buf: &mut [f64],
        ob: &impl Fn(usize, usize) -> f64,
        pc: usize,
        kc: usize,
        jc: usize,
        nc: usize,
    ) {
        for jp in 0..nc.div_ceil(NR) {
            let base = jp * kc * NR;
            let j0 = jc + jp * NR;
            let cols = NR.min(nc - jp * NR);
            for p in 0..kc {
                let dst = &mut buf[base + p * NR..base + (p + 1) * NR];
                for (c, d) in dst.iter_mut().take(cols).enumerate() {
                    *d = ob(pc + p, j0 + c);
                }
                for d in dst.iter_mut().skip(cols) {
                    *d = 0.0;
                }
            }
        }
    }

    #[inline]
    fn micro_tile(kc: usize, pa: &[f64], pb: &[f64]) -> [f64; MR * NR] {
        let mut acc = [0.0; MR * NR];
        for p in 0..kc {
            let a: &[f64; MR] = pa[p * MR..(p + 1) * MR].try_into().unwrap();
            let b: &[f64; NR] = pb[p * NR..(p + 1) * NR].try_into().unwrap();
            for (c, &bv) in b.iter().enumerate() {
                for (r, &av) in a.iter().enumerate() {
                    acc[c * MR + r] += av * bv;
                }
            }
        }
        acc
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn store_tile(
        acc: &[f64; MR * NR],
        alpha: f64,
        beta: f64,
        c: &mut MatMut<'_, f64>,
        i0: usize,
        j0: usize,
        mr: usize,
        nr: usize,
    ) {
        for cc in 0..nr {
            if beta == 0.0 {
                for r in 0..mr {
                    c.set(i0 + r, j0 + cc, alpha * acc[cc * MR + r]);
                }
            } else if beta == 1.0 {
                for r in 0..mr {
                    c.update(i0 + r, j0 + cc, |v| v + alpha * acc[cc * MR + r]);
                }
            } else {
                for r in 0..mr {
                    c.update(i0 + r, j0 + cc, |v| beta * v + alpha * acc[cc * MR + r]);
                }
            }
        }
    }

    /// The original `gemm_with` loop nest, verbatim (alpha != 0, k > 0
    /// path); `m × n` is the shape of `c`.
    pub fn gemm_with(
        k: usize,
        alpha: f64,
        oa: impl Fn(usize, usize) -> f64,
        ob: impl Fn(usize, usize) -> f64,
        beta: f64,
        mut c: MatMut<'_, f64>,
    ) {
        let (m, n) = (c.nrows(), c.ncols());
        assert!(alpha != 0.0 && k > 0, "oracle covers the engine path only");
        let kc_max = KC.min(k);
        let a_elems = MC.min(m).div_ceil(MR) * MR * kc_max;
        let b_elems = NC.min(n).div_ceil(NR) * NR * kc_max;
        let mut pa = vec![0.0; a_elems];
        let mut pb = vec![0.0; b_elems];
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let beta_eff = if pc == 0 { beta } else { 1.0 };
                pack_b(&mut pb, &ob, pc, kc, jc, nc);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    pack_a(&mut pa, &oa, ic, mc, pc, kc);
                    for jr in (0..nc).step_by(NR) {
                        let nr = NR.min(nc - jr);
                        let pb_panel = &pb[(jr / NR) * kc * NR..][..kc * NR];
                        for ir in (0..mc).step_by(MR) {
                            let mr = MR.min(mc - ir);
                            let pa_panel = &pa[(ir / MR) * kc * MR..][..kc * MR];
                            let acc = micro_tile(kc, pa_panel, pb_panel);
                            store_tile(&acc, alpha, beta_eff, &mut c, ic + ir, jc + jr, mr, nr);
                        }
                    }
                }
            }
        }
    }
}

/// `XK_KERNEL_ISA=scalar` reproduces the PR 2 engine bit for bit: the
/// trait refactor moved the scalar kernel behind `MicroKernel` but must not
/// have changed a single rounding.
#[test]
fn scalar_pin_is_bit_for_bit_pr2() {
    let shapes = [
        (1usize, 1usize, 1usize),
        (8, 4, 8),
        (9, 5, 7),
        (64, 64, 64),
        (129, 67, 300), // crosses MC=128 and KC=256
        (130, 132, 64),
    ];
    let scales = [(1.0, 0.0), (0.75, 1.0), (1.25, -0.5)];
    let _guard = common::isa_lock();
    let _restore = common::EnvRestore::capture();
    std::env::set_var(ISA_ENV, "scalar");
    for &(m, n, k) in &shapes {
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            for &(alpha, beta) in &scales {
                let (am, an) = ta.apply_dims(m, k);
                let (bm, bn) = tb.apply_dims(k, n);
                let a = det_vals(am * an, 1 + m as u64);
                let b = det_vals(bm * bn, 2 + n as u64);
                let c0 = det_vals(m * n, 3 + k as u64);
                let ar = MatRef::from_slice(&a, am, an, am);
                let br = MatRef::from_slice(&b, bm, bn, bm);

                let mut want = c0.clone();
                pr2_oracle::gemm_with(
                    k,
                    alpha,
                    |i, p| match ta {
                        Trans::No => ar.at(i, p),
                        Trans::Yes => ar.at(p, i),
                    },
                    |p, j| match tb {
                        Trans::No => br.at(p, j),
                        Trans::Yes => br.at(j, p),
                    },
                    beta,
                    MatMut::from_slice(&mut want, m, n, m),
                );

                let mut c = c0.clone();
                gemm(ta, tb, alpha, ar, br, beta, MatMut::from_slice(&mut c, m, n, m));
                for (idx, (&got, &exp)) in c.iter().zip(&want).enumerate() {
                    assert!(
                        got.to_bits() == exp.to_bits(),
                        "scalar pin not bit-exact at flat index {idx} \
                         ({m}x{n}x{k} {ta:?}/{tb:?} a={alpha} b={beta}): \
                         got {got:?} ({:#x}), oracle {exp:?} ({:#x})",
                        got.to_bits(),
                        exp.to_bits()
                    );
                }
            }
        }
    }
}

/// Every host-supported SIMD ISA agrees with the scalar-blocked baseline
/// within the documented ULP/absolute tolerance, on shapes that cross each
/// kernel's own cache-block boundaries.
#[test]
fn simd_isas_match_scalar_within_tolerance() {
    let shapes = [
        (61usize, 37usize, 41usize),
        (129, 67, 300),  // crosses every kernel's KC=256
        (257, 19, 64),   // crosses the widest MC (avx512 uses MC=256)
        (64, 64, 64),
    ];
    let scales = [(1.0, 0.0), (0.75, 1.0), (1.25, -0.5)];
    common::for_each_supported_isa(|isa| {
        if isa == Isa::Scalar {
            return; // the baseline itself
        }
        for &(m, n, k) in &shapes {
            for &(alpha, beta) in &scales {
                let a = det_vals(m * k, 81 + m as u64);
                let b = det_vals(k * n, 82 + n as u64);
                let c0 = det_vals(m * n, 83 + k as u64);
                let ar = MatRef::from_slice(&a, m, k, m);
                let br = MatRef::from_slice(&b, k, n, k);

                let mut c_simd = c0.clone();
                gemm(
                    Trans::No,
                    Trans::No,
                    alpha,
                    ar,
                    br,
                    beta,
                    MatMut::from_slice(&mut c_simd, m, n, m),
                );
                // The sweep holds the env lock, so repin inside it.
                std::env::set_var(ISA_ENV, "scalar");
                let mut c_scalar = c0.clone();
                gemm(
                    Trans::No,
                    Trans::No,
                    alpha,
                    ar,
                    br,
                    beta,
                    MatMut::from_slice(&mut c_scalar, m, n, m),
                );
                std::env::set_var(ISA_ENV, isa.name());

                for (idx, (&x, &y)) in c_simd.iter().zip(&c_scalar).enumerate() {
                    let ulps = ulp_distance(x, y);
                    let abs = (x - y).abs();
                    assert!(
                        ulps <= MAX_ULPS || abs <= ABS_FLOOR,
                        "{isa} vs scalar at flat index {idx} \
                         ({m}x{n}x{k} a={alpha} b={beta}): {ulps} ULPs, abs {abs:e}"
                    );
                }
            }
        }
    });
}

/// Selection semantics: unset/empty/`auto` follow detection, `scalar`
/// always pins, a valid-but-unsupported name falls back to scalar (never a
/// *different* SIMD kernel — pinned CI legs must stay pinned), and garbage
/// panics loudly.
#[test]
fn env_selection_semantics() {
    let _guard = common::isa_lock();
    let _restore = common::EnvRestore::capture();

    std::env::remove_var(ISA_ENV);
    assert_eq!(selected_isa(), detected_isa(), "unset follows detection");
    std::env::set_var(ISA_ENV, "auto");
    assert_eq!(selected_isa(), detected_isa(), "auto follows detection");
    std::env::set_var(ISA_ENV, "");
    assert_eq!(selected_isa(), detected_isa(), "empty follows detection");

    std::env::set_var(ISA_ENV, "scalar");
    assert_eq!(selected_isa(), Isa::Scalar, "scalar always pins");

    for isa in Isa::ALL {
        if supported_isas().contains(&isa) {
            continue;
        }
        std::env::set_var(ISA_ENV, isa.name());
        assert_eq!(
            selected_isa(),
            Isa::Scalar,
            "unsupported {} must fall back to scalar",
            isa.name()
        );
    }

    std::env::set_var(ISA_ENV, "sse9");
    let prev_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let result = panic::catch_unwind(AssertUnwindSafe(selected_isa));
    panic::set_hook(prev_hook);
    assert!(result.is_err(), "garbage ISA name must panic");
}

/// `kernel_shape` reports the shape that will actually be dispatched:
/// supported ISAs report themselves, and f32 (which has no SIMD kernels)
/// always reports the scalar shape.
#[test]
fn kernel_shape_reports_dispatch() {
    for &isa in supported_isas() {
        let s = kernel_shape::<f64>(isa);
        assert_eq!(s.isa, isa);
        assert!(s.mr > 0 && s.nr > 0);
        assert_eq!(s.mc % s.mr, 0, "{}: MC must be a multiple of MR", s.name);
        assert_eq!(s.nc % s.nr, 0, "{}: NC must be a multiple of NR", s.name);

        let s32 = kernel_shape::<f32>(isa);
        assert_eq!(s32.isa, Isa::Scalar, "f32 always dispatches scalar");
        assert_eq!(s32.name, "scalar_8x4");
    }
}
