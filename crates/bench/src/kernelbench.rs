//! Host-kernel ISA benchmark: per-routine GFLOP/s under the dispatched
//! SIMD microkernel, plus fraction of the measured microkernel peak.
//!
//! The JSON is hand-rolled; the `bench_kernels` binary regenerates
//! `BENCH_kernels.json` with it.

use std::time::Instant;

use xk_kernels::parallel::par_fill_pattern;
use xk_kernels::simd::{microkernel_peak_gflops, supported_isas};
use xk_kernels::{
    detected_isa, gemm, kernel_shape, selected_isa, symm, syr2k, syrk, trmm, trsm, Diag, Isa,
    MatMut, MatRef, Routine, Side, Trans, Uplo, ISA_ENV,
};

/// Problem sizes reported per routine (the repo's serial acceptance sizes).
pub const SIZES: [usize; 3] = [256, 512, 1024];

/// GFLOP/s of one routine at all [`SIZES`], best of `reps`.
#[derive(Debug, Clone)]
pub struct RoutinePerf {
    /// Which BLAS-3 routine was timed.
    pub routine: Routine,
    /// `gflops[i]` is the best-of-reps rate at `SIZES[i]`.
    pub gflops: [f64; 3],
}

/// Everything the kernel snapshot records for one ISA.
#[derive(Debug, Clone)]
pub struct IsaPerf {
    /// The ISA these rates were measured under (env-pinned).
    pub isa: Isa,
    /// Microkernel-only peak (packed L1-resident panels, no packing cost).
    pub peak_gflops: f64,
    /// Per-routine rates at [`SIZES`].
    pub routines: Vec<RoutinePerf>,
}

fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Times all six routines at [`SIZES`] under whatever ISA is currently
/// selected by the dispatcher.
pub fn measure_routines(reps: usize) -> Vec<RoutinePerf> {
    measure_routines_at(reps, SIZES)
}

/// [`measure_routines`] at caller-chosen sizes (tests use tiny ones).
pub fn measure_routines_at(reps: usize, sizes: [usize; 3]) -> Vec<RoutinePerf> {
    Routine::ALL
        .into_iter()
        .map(|routine| {
            let mut gflops = [0.0; 3];
            for (slot, &n) in gflops.iter_mut().zip(sizes.iter()) {
                let mut a = vec![0.0f64; n * n];
                let mut b = vec![0.0f64; n * n];
                par_fill_pattern(MatMut::from_slice(&mut a, n, n, n), 201);
                par_fill_pattern(MatMut::from_slice(&mut b, n, n, n), 202);
                let mut c = vec![0.0f64; n * n];
                // Dominant diagonal keeps trsm well-conditioned over reps.
                let mut tri = a.clone();
                for i in 0..n {
                    tri[i + i * n] = 4.0;
                }
                let ar = || MatRef::from_slice(&a, n, n, n);
                let br = || MatRef::from_slice(&b, n, n, n);
                let trir = || MatRef::from_slice(&tri, n, n, n);

                let secs = match routine {
                    Routine::Gemm => best_secs(reps, || {
                        gemm(Trans::No, Trans::No, 1.0, ar(), br(), 0.5,
                            MatMut::from_slice(&mut c, n, n, n));
                    }),
                    Routine::Symm => best_secs(reps, || {
                        symm(Side::Left, Uplo::Lower, 1.0, ar(), br(), 0.5,
                            MatMut::from_slice(&mut c, n, n, n));
                    }),
                    Routine::Syrk => best_secs(reps, || {
                        syrk(Uplo::Lower, Trans::No, 1.0, ar(), 0.5,
                            MatMut::from_slice(&mut c, n, n, n));
                    }),
                    Routine::Syr2k => best_secs(reps, || {
                        syr2k(Uplo::Lower, Trans::No, 1.0, ar(), br(), 0.5,
                            MatMut::from_slice(&mut c, n, n, n));
                    }),
                    Routine::Trmm => best_secs(reps, || {
                        c.copy_from_slice(&b);
                        trmm(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0, trir(),
                            MatMut::from_slice(&mut c, n, n, n));
                    }),
                    Routine::Trsm => best_secs(reps, || {
                        c.copy_from_slice(&b);
                        trsm(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0, trir(),
                            MatMut::from_slice(&mut c, n, n, n));
                    }),
                };
                *slot = routine.flops_square(n as u64) / secs / 1e9;
            }
            RoutinePerf { routine, gflops }
        })
        .collect()
}

/// Measures the dispatched ISA in full (all routines, all sizes) and every
/// other host-supported ISA at GEMM/1024 only — enough for the comparison
/// table without tripling the run time.
///
/// Pins `XK_KERNEL_ISA` per measurement and restores the previous value.
pub fn measure_all(reps: usize, peak_budget_ms: u64) -> (IsaPerf, Vec<(Isa, f64)>) {
    let saved = std::env::var(ISA_ENV).ok();
    let dispatched = selected_isa();

    std::env::set_var(ISA_ENV, dispatched.name());
    let main = IsaPerf {
        isa: dispatched,
        peak_gflops: microkernel_peak_gflops::<f64>(dispatched, peak_budget_ms),
        routines: measure_routines(reps),
    };

    let n = SIZES[2];
    let mut others = Vec::new();
    for &isa in supported_isas() {
        if isa == dispatched {
            continue;
        }
        std::env::set_var(ISA_ENV, isa.name());
        let mut a = vec![0.0f64; n * n];
        let mut b = vec![0.0f64; n * n];
        par_fill_pattern(MatMut::from_slice(&mut a, n, n, n), 201);
        par_fill_pattern(MatMut::from_slice(&mut b, n, n, n), 202);
        let mut c = vec![0.0f64; n * n];
        let secs = best_secs(reps, || {
            gemm(
                Trans::No,
                Trans::No,
                1.0,
                MatRef::from_slice(&a, n, n, n),
                MatRef::from_slice(&b, n, n, n),
                0.5,
                MatMut::from_slice(&mut c, n, n, n),
            );
        });
        others.push((isa, Routine::Gemm.flops_square(n as u64) / secs / 1e9));
    }

    match saved {
        Some(v) => std::env::set_var(ISA_ENV, v),
        None => std::env::remove_var(ISA_ENV),
    }
    (main, others)
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// Renders the snapshot as pretty-printed JSON (hand-rolled; stable key
/// order, 3-decimal rates).
pub fn render_json(main: &IsaPerf, others: &[(Isa, f64)], reps: usize) -> String {
    let shape = kernel_shape::<f64>(main.isa);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"detected_isa\": \"{}\",\n", detected_isa().name()));
    s.push_str(&format!("  \"dispatched_isa\": \"{}\",\n", main.isa.name()));
    s.push_str(&format!(
        "  \"kernel\": {{\"name\": \"{}\", \"mr\": {}, \"nr\": {}, \"kc\": {}, \"mc\": {}, \"nc\": {}}},\n",
        shape.name, shape.mr, shape.nr, shape.kc, shape.mc, shape.nc
    ));
    s.push_str(&format!("  \"reps\": {reps},\n"));
    s.push_str(&format!(
        "  \"microkernel_peak_gflops\": {},\n",
        json_f(main.peak_gflops)
    ));
    s.push_str("  \"routines\": [\n");
    for (i, rp) in main.routines.iter().enumerate() {
        let frac_1024 = rp.gflops[2] / main.peak_gflops;
        s.push_str(&format!(
            "    {{\"routine\": \"{}\", \"gflops_256\": {}, \"gflops_512\": {}, \"gflops_1024\": {}, \"fraction_of_peak_1024\": {}}}{}\n",
            rp.routine.name().to_lowercase(),
            json_f(rp.gflops[0]),
            json_f(rp.gflops[1]),
            json_f(rp.gflops[2]),
            json_f(frac_1024),
            if i + 1 < main.routines.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"other_isas_gemm_1024\": {");
    for (i, (isa, gf)) in others.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{}\": {}", isa.name(), json_f(*gf)));
    }
    s.push_str("}\n");
    s.push_str("}\n");
    s
}

/// Measures and renders in one call: the string `bench_kernels` writes to
/// `BENCH_kernels.json`.
pub fn snapshot_json(reps: usize, peak_budget_ms: u64) -> String {
    let (main, others) = measure_all(reps, peak_budget_ms);
    render_json(&main, &others, reps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_valid_shape() {
        let main = IsaPerf {
            isa: Isa::Scalar,
            peak_gflops: 10.0,
            routines: vec![RoutinePerf {
                routine: Routine::Gemm,
                gflops: [1.0, 2.0, 3.0],
            }],
        };
        let s = render_json(&main, &[(Isa::Scalar, 3.0)], 3);
        assert!(s.starts_with("{\n") && s.ends_with("}\n"));
        assert!(s.contains("\"dispatched_isa\": \"scalar\""));
        assert!(s.contains("\"gflops_1024\": 3.000"));
        assert!(s.contains("\"fraction_of_peak_1024\": 0.300"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn quick_measurement_is_positive() {
        // Tiny sizes keep this fast in debug test profiles; the real sizes
        // only run in the dedicated `bench_kernels` binary.
        let rp = measure_routines_at(1, [8, 16, 32]);
        assert_eq!(rp.len(), Routine::ALL.len());
        assert!(rp.iter().all(|r| r.gflops.iter().all(|&g| g > 0.0)));
    }
}
