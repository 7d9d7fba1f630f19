//! Explicit SIMD microkernels with runtime ISA dispatch.
//!
//! The blocked engine (the crate's `blocked` module) is generic over a
//! `MicroKernel`: a register-tile update (`MR × NR` accumulator over a
//! `kc`-deep packed panel pair, fringe-clipped `alpha`/`beta` store) plus
//! the cache-blocking parameters (`KC`/`MC`/`NC`) tuned for that tile.
//! Three kernels exist today, all for `f64` (the paper's evaluation is
//! FP64; `f32` always rides the portable scalar kernel):
//!
//! | ISA | register tile | intrinsics |
//! |---|---|---|
//! | AVX-512 | 8 × 8 (one zmm per column, unrolled ×4) | `_mm512_fmadd_pd`, masked fringe stores |
//! | AVX2+FMA | 4 × 8 (one ymm per column, unrolled ×4) | `_mm256_fmadd_pd` |
//! | scalar | 8 × 4 autovectorized | none (portable fallback + differential oracle) |
//!
//! # Selection
//!
//! [`selected_isa`] picks the kernel for every engine invocation: the best
//! ISA the host supports (cached CPUID probe via
//! `is_x86_feature_detected!`; other targets run the scalar kernel), unless
//! the `XK_KERNEL_ISA` environment variable overrides it. The override is
//! re-read on every call so test suites can iterate ISAs in-process:
//!
//! * unset or `auto` — best supported ISA;
//! * `avx512` / `avx2` / `scalar` — that kernel, **if** the host
//!   supports it; a valid-but-unsupported request falls back to `scalar`
//!   (never to a different SIMD path, so a pinned CI leg stays pinned);
//! * anything else — panic (a silently misread knob would quietly bench
//!   the wrong kernel).
//!
//! The scalar kernel is bit-for-bit identical to the pre-dispatch engine:
//! same pack layout, same accumulation order, same store expressions. The
//! SIMD kernels contract multiply-adds into FMAs and change the summation
//! shape, so results differ from scalar by a few ULPs (see
//! `ulp_distance` in [`crate::aux`] and DESIGN.md §6d for the tolerance
//! model the test suites use).

use std::sync::OnceLock;

use crate::scalar::Scalar;
use crate::view::MatMut;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;
pub(crate) mod scalar_mk;

/// Environment variable that overrides the dispatched ISA
/// (`auto`/`avx512`/`avx2`/`scalar`).
pub const ISA_ENV: &str = "XK_KERNEL_ISA";

/// An instruction-set architecture a microkernel may target.
///
/// Every variant exists on every build target so the name is always
/// parseable and reportable; dispatch falls back to [`Isa::Scalar`] when
/// the variant's kernel is not compiled in or not supported by the host.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Isa {
    /// Portable autovectorized kernel — every host, and the differential
    /// oracle for the explicit SIMD paths.
    Scalar,
    /// AVX2 + FMA (256-bit) on x86-64.
    Avx2,
    /// AVX-512F (512-bit, masked fringe stores) on x86-64.
    Avx512,
}

impl Isa {
    /// All variants, best-first in the order detection prefers them.
    pub const ALL: [Isa; 3] = [Isa::Avx512, Isa::Avx2, Isa::Scalar];

    /// Lower-case name, as accepted by [`ISA_ENV`] and reported by the
    /// benches.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Parses an [`ISA_ENV`] value; `None` for unknown names. `auto` is
    /// not an ISA and parses to `None` (callers handle it first).
    pub fn parse(s: &str) -> Option<Isa> {
        Isa::ALL.into_iter().find(|isa| isa.name() == s)
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// ISAs the host can execute, best-first. Always non-empty and always
/// ends with [`Isa::Scalar`]. The probe runs once per process.
pub fn supported_isas() -> &'static [Isa] {
    static SUPPORTED: OnceLock<Vec<Isa>> = OnceLock::new();
    SUPPORTED.get_or_init(|| {
        #[allow(unused_mut)]
        let mut isas = Vec::with_capacity(3);
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                isas.push(Isa::Avx512);
            }
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                isas.push(Isa::Avx2);
            }
        }
        isas.push(Isa::Scalar);
        isas
    })
}

/// The best ISA the host supports (ignores the override).
pub fn detected_isa() -> Isa {
    supported_isas()[0]
}

/// The ISA the next kernel invocation will dispatch to: [`detected_isa`]
/// unless [`ISA_ENV`] overrides it (see the module docs for the exact
/// semantics). Re-reads the environment on every call — intentionally, so
/// tests can iterate ISAs in one process; the cost is noise next to any
/// real kernel invocation.
///
/// # Panics
/// Panics if [`ISA_ENV`] is set to an unrecognized value.
pub fn selected_isa() -> Isa {
    match std::env::var(ISA_ENV) {
        Err(_) => detected_isa(),
        Ok(v) if v.is_empty() || v == "auto" => detected_isa(),
        Ok(v) => {
            let isa = Isa::parse(&v).unwrap_or_else(|| {
                panic!("{ISA_ENV}={v:?}: expected auto, avx512, avx2 or scalar")
            });
            if supported_isas().contains(&isa) {
                isa
            } else {
                Isa::Scalar
            }
        }
    }
}

/// Geometry and blocking parameters of one dispatched microkernel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KernelShape {
    /// The ISA that was asked for (shapes of unsupported requests report
    /// the scalar fallback actually dispatched).
    pub isa: Isa,
    /// Kernel name, e.g. `"avx512_8x8"`.
    pub name: &'static str,
    /// Register-tile rows (micro-panel height of packed A).
    pub mr: usize,
    /// Register-tile columns (micro-panel width of packed B).
    pub nr: usize,
    /// Depth block (k dimension) packed per panel pair.
    pub kc: usize,
    /// Row block of packed A (`mc × kc` targets L2).
    pub mc: usize,
    /// Column block of packed B (`kc × nc` targets L3).
    pub nc: usize,
}

/// The microkernel geometry `isa` dispatches to for scalar type `T`.
pub fn kernel_shape<T: Scalar>(isa: Isa) -> KernelShape {
    T::kernel_shape(isa)
}

/// [`KernelShape`] of one concrete [`MicroKernel`] implementation.
pub(crate) fn shape_of<T: Scalar, MK: MicroKernel<T>>() -> KernelShape {
    KernelShape {
        isa: MK::ISA,
        name: MK::NAME,
        mr: MK::MR,
        nr: MK::NR,
        kc: MK::KC,
        mc: MK::MC,
        nc: MK::NC,
    }
}

/// The blocked, packed, register-tiled microkernel contract the engine
/// drives. Implementations pair one register-tile update with the cache
/// blocking tuned for it; `blocked::engine` is monomorphized per kernel
/// so every constant below folds into the generated loops.
pub(crate) trait MicroKernel<T: Scalar> {
    /// The ISA this kernel targets (what [`KernelShape::isa`] reports).
    const ISA: Isa;
    /// Register-tile rows; micro-panels of packed A are `MR` tall.
    const MR: usize;
    /// Register-tile columns; micro-panels of packed B are `NR` wide.
    const NR: usize;
    /// Depth of one packed panel pair.
    const KC: usize;
    /// Rows per packed A macro-panel (`MC × KC` elements target L2).
    const MC: usize;
    /// Columns per packed B macro-panel (`KC × NC` elements target L3).
    const NC: usize;
    /// Reported kernel name.
    const NAME: &'static str;

    /// Rank-`kc` update of one register tile plus the fringe-clipped
    /// store: `C[..mr, ..nr] = alpha * (PA × PB) + beta * C[..mr, ..nr]`,
    /// where `PA`/`PB` are one packed micro-panel each. `beta == 0` must
    /// overwrite without reading `C` (NaN-safe, like BLAS).
    ///
    /// # Safety
    /// `pa` must hold `kc * MR` elements, `pb` `kc * NR` (fringes already
    /// zero-padded by packing); `c` must be valid for reads and writes of
    /// the `mr × nr` column-major region with leading dimension `ld`;
    /// `0 < mr <= MR`, `0 < nr <= NR`, and the host must support the
    /// kernel's ISA.
    #[allow(
        clippy::too_many_arguments,
        reason = "microkernel ABI: raw packed panels, two scalars and a strided C tile"
    )]
    unsafe fn tile(
        kc: usize,
        pa: *const T,
        pb: *const T,
        alpha: T,
        beta: T,
        c: *mut T,
        ld: usize,
        mr: usize,
        nr: usize,
    );
}

/// Scalar store of a full accumulator spill buffer (column-major with
/// stride `buf_mr`), clipped to the `mr × nr` fringe — shared by the SIMD
/// kernels whose ISA lacks cheap masked stores. Uses the exact same
/// `alpha`/`beta` expression forms as the scalar kernel.
///
/// # Safety
/// `buf` must hold at least `nr` columns of `buf_mr` rows; `c` must be
/// valid for the `mr × nr` region with leading dimension `ld`; `mr` must
/// not exceed `buf_mr`.
#[allow(dead_code)] // unused on targets with no SIMD kernel compiled in
#[allow(
    clippy::too_many_arguments,
    reason = "microkernel ABI: raw packed panels, two scalars and a strided C tile"
)]
#[inline]
pub(crate) unsafe fn store_spill_clipped<T: Scalar>(
    buf: *const T,
    buf_mr: usize,
    alpha: T,
    beta: T,
    c: *mut T,
    ld: usize,
    mr: usize,
    nr: usize,
) {
    for j in 0..nr {
        let col = buf.add(j * buf_mr);
        let dst = c.add(j * ld);
        if beta == T::ZERO {
            for r in 0..mr {
                *dst.add(r) = alpha * *col.add(r);
            }
        } else if beta == T::ONE {
            for r in 0..mr {
                *dst.add(r) += alpha * *col.add(r);
            }
        } else {
            for r in 0..mr {
                *dst.add(r) = beta * *dst.add(r) + alpha * *col.add(r);
            }
        }
    }
}

/// Runs one bare full-tile microkernel invocation of `isa`'s kernel for
/// `T` — no packing, no cache blocking. This is the bench hook that
/// isolates register-tile throughput from blocking effects.
///
/// `pa`/`pb` must hold `kc * mr` / `kc * nr` elements of packed panels
/// and `c` must view (at least) an `mr × nr` tile (`mr`/`nr` from
/// [`kernel_shape`]); the kernel writes its `mr × nr` corner.
///
/// # Panics
/// Panics if a panel or the tile is too small or the host does not
/// support `isa`.
pub(crate) fn run_tile<T: Scalar>(
    isa: Isa,
    kc: usize,
    pa: &[T],
    pb: &[T],
    alpha: T,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let shape = kernel_shape::<T>(isa);
    assert!(
        supported_isas().contains(&isa),
        "host does not support {isa}"
    );
    assert!(pa.len() >= kc * shape.mr, "packed A panel too short");
    assert!(pb.len() >= kc * shape.nr, "packed B panel too short");
    assert!(c.nrows() >= shape.mr && c.ncols() >= shape.nr, "C tile too small");
    let ld = c.ld();
    // SAFETY: panel/tile sizes asserted above, ISA support asserted above.
    unsafe {
        T::tile_raw(isa, kc, pa.as_ptr(), pb.as_ptr(), alpha, beta, c.ptr_at_mut(0, 0), ld);
    }
}

/// Measured throughput of `isa`'s bare microkernel for `T`, in GFLOP/s:
/// repeated full-tile rank-`KC` updates over L1-resident packed panels.
/// This is the "machine peak" proxy the benchmark's
/// `kernels.gemm_fraction_of_peak` is a fraction of — it prices in loop
/// overhead and the C-tile store, but no packing or cache misses.
///
/// `budget_ms` is the measurement budget; the best batch wins.
pub fn microkernel_peak_gflops<T: Scalar>(isa: Isa, budget_ms: u64) -> f64 {
    let shape = kernel_shape::<T>(isa);
    let kc = shape.kc;
    let pa: Vec<T> = (0..kc * shape.mr)
        .map(|i| T::from_f64((i % 23) as f64 * 0.05 - 0.5))
        .collect();
    let pb: Vec<T> = (0..kc * shape.nr)
        .map(|i| T::from_f64((i % 19) as f64 * 0.05 - 0.4))
        .collect();
    let mut c = vec![T::ZERO; shape.mr * shape.nr];
    let flops_per_call = (2 * shape.mr * shape.nr * kc) as f64;
    // Calibrate a batch to ~1ms, then take the best of the budget.
    let mut batch = 1u32;
    loop {
        let t0 = std::time::Instant::now();
        for _ in 0..batch {
            let c = MatMut::from_slice(&mut c, shape.mr, shape.nr, shape.mr);
            run_tile(isa, kc, &pa, &pb, T::ONE, T::ONE, c);
        }
        if t0.elapsed().as_secs_f64() > 1e-3 || batch >= 1 << 20 {
            break;
        }
        batch *= 2;
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(budget_ms);
    let mut best = f64::INFINITY;
    while std::time::Instant::now() < deadline {
        let t0 = std::time::Instant::now();
        for _ in 0..batch {
            let c = MatMut::from_slice(&mut c, shape.mr, shape.nr, shape.mr);
            run_tile(isa, kc, &pa, &pb, T::ONE, T::ONE, c);
        }
        best = best.min(t0.elapsed().as_secs_f64() / batch as f64);
    }
    flops_per_call / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_always_ends_with_scalar() {
        let isas = supported_isas();
        assert!(!isas.is_empty());
        assert_eq!(*isas.last().unwrap(), Isa::Scalar);
        // Best-first: the detected ISA is the head.
        assert_eq!(detected_isa(), isas[0]);
    }

    #[test]
    fn names_round_trip() {
        for isa in Isa::ALL {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
            assert_eq!(format!("{isa}"), isa.name());
        }
        assert_eq!(Isa::parse("auto"), None);
        assert_eq!(Isa::parse("AVX2"), None, "names are case-sensitive");
    }

    #[test]
    fn shapes_are_consistent() {
        for isa in supported_isas() {
            for shape in [kernel_shape::<f64>(*isa), kernel_shape::<f32>(*isa)] {
                assert!(shape.mr > 0 && shape.nr > 0, "{shape:?}");
                assert_eq!(shape.mc % shape.mr, 0, "{shape:?}: MC must be MR-granular");
                assert_eq!(shape.nc % shape.nr, 0, "{shape:?}: NC must be NR-granular");
                assert!(shape.kc > 0, "{shape:?}");
            }
        }
        // f32 always rides the scalar kernel, whatever the ISA.
        assert_eq!(kernel_shape::<f32>(detected_isa()).name, "scalar_8x4");
    }

    #[test]
    fn run_tile_matches_reference_dot_products() {
        for &isa in supported_isas() {
            let shape = kernel_shape::<f64>(isa);
            let kc = 37; // not a multiple of the unroll factor
            let pa: Vec<f64> = (0..kc * shape.mr).map(|i| (i % 7) as f64 - 3.0).collect();
            let pb: Vec<f64> = (0..kc * shape.nr).map(|i| (i % 5) as f64 - 2.0).collect();
            let ld = shape.mr + 3;
            let mut c = vec![1.0f64; ld * shape.nr];
            let tile = MatMut::from_slice(&mut c, shape.mr, shape.nr, ld);
            run_tile(isa, kc, &pa, &pb, 2.0, -1.0, tile);
            for j in 0..shape.nr {
                for r in 0..shape.mr {
                    let dot: f64 = (0..kc)
                        .map(|p| pa[p * shape.mr + r] * pb[p * shape.nr + j])
                        .sum();
                    let got = c[r + j * ld];
                    let want = 2.0 * dot - 1.0;
                    assert!(
                        (got - want).abs() < 1e-9,
                        "{isa} ({r},{j}): got {got}, want {want}"
                    );
                }
                for r in shape.mr..ld {
                    assert_eq!(c[r + j * ld], 1.0, "{isa}: padding clobbered");
                }
            }
        }
    }

    #[test]
    fn peak_measurement_is_positive() {
        let g = microkernel_peak_gflops::<f64>(Isa::Scalar, 10);
        assert!(g.is_finite() && g > 0.0);
    }
}
