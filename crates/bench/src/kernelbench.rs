//! Host-kernel timing: per-routine GFLOP/s under the dispatched SIMD
//! microkernel. `benchmark/src/probes.rs` reports these as its
//! `kernels.*_gflops_1024` metrics.

use std::time::Instant;

use xk_kernels::parallel::par_fill_pattern;
use xk_kernels::{
    gemm, symm, syr2k, syrk, trmm, trsm, Diag, MatMut, MatRef, Routine, Side, Trans, Uplo,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_measurement_is_positive() {
        // Tiny sizes keep this fast in debug test profiles.
        let rp = measure_routines_at(1, [8, 16, 32]);
        assert_eq!(rp.len(), Routine::ALL.len());
        assert!(rp.iter().all(|r| r.gflops.iter().all(|&g| g > 0.0)));
    }
}
