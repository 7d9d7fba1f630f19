//! The TRSM + GEMM composition benchmark of the paper's §IV-F
//! (Fig. 8 performance sweep, Fig. 9 Gantt).

use xk_baselines::RunParams;
use xk_kernels::{Diag, Routine, Side, Trans, Uplo};
use xk_runtime::{Heuristics, ObsLevel, ObsReport, RuntimeConfig, SchedulerKind};
use xk_topo::FabricSpec;
use xk_trace::Trace;
use xkblas_core::{gemm_async, trsm_async, Context, Matrix};

/// Result of one composition run.
#[derive(Clone, Debug)]
pub struct CompositionResult {
    /// End-to-end seconds.
    pub seconds: f64,
    /// Achieved TFlop/s over the combined flop count (`N³ + 2N³`).
    pub tflops: f64,
    /// Full trace (Chameleon's is the concatenation of its two calls).
    pub trace: Trace,
    /// Longest instant with no device active (the synchronization hole of
    /// Fig. 9; ~0 for XKBlas).
    pub sync_gap: f64,
    /// Observability reports of the underlying simulated runs: one for the
    /// fused XKBlas graph, one per synchronous call for Chameleon.
    pub obs: Vec<ObsReport>,
}

/// Combined flop count of the composition at dimension `n`.
pub(crate) fn composition_flops(n: usize) -> f64 {
    Routine::Trsm.flops_square(n as u64) + Routine::Gemm.flops_square(n as u64)
}

/// XKBlas composition: both calls in one graph, point-to-point
/// dependencies between them, one coherency at the end (§IV-F).
pub fn run_xkblas_composition(topo: &FabricSpec, n: usize, tile: usize) -> CompositionResult {
    let mut ctx = Context::<f64>::new(topo.clone(), RuntimeConfig::xkblas(), tile);
    ctx.set_simulation_only(true);
    ctx.set_observability(ObsLevel::Full);
    let a = Matrix::<f64>::phantom(n, n);
    let b = Matrix::<f64>::phantom(n, n);
    let c = Matrix::<f64>::phantom(n, n);
    let d = Matrix::<f64>::phantom(n, n);
    // X = inv(A) B stored in B, then D = X * C.
    trsm_async(&mut ctx, Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0, &a, &b);
    gemm_async(&mut ctx, Trans::No, Trans::No, 1.0, &b, &c, 0.0, &d);
    ctx.memory_coherent_async(&b);
    ctx.memory_coherent_async(&d);
    let sim = ctx.run_simulated();
    let flops = composition_flops(n);
    CompositionResult {
        seconds: sim.makespan,
        tflops: sim.tflops(flops),
        sync_gap: sim.trace.longest_kernel_gap(),
        obs: sim.obs.into_iter().collect(),
        trace: sim.trace,
    }
}

/// Chameleon composition: two synchronous calls — the TRSM result returns
/// to host coherence before the GEMM starts re-distributing it (the
/// synchronization gap of Fig. 9).
pub fn run_chameleon_composition(topo: &FabricSpec, n: usize, tile: usize) -> CompositionResult {
    let cfg = || {
        let mut cfg = RuntimeConfig::xkblas()
            .with_scheduler(SchedulerKind::Dmdas)
            .with_heuristics(Heuristics::host_only());
        cfg.window = 8;
        cfg.eager_flush = true;
        cfg.task_overhead = 60.0e-6;
        cfg.prefetch_at_assign = false;
        cfg
    };
    let params = |routine| RunParams {
        routine,
        n,
        tile,
        data_on_device: false,
    };
    let run = |routine| {
        xk_baselines::run_on_runtime(topo, &params(routine), cfg(), true, f64::INFINITY)
            .expect("an infinite budget is never exceeded")
    };
    let (r1, r2) = (run(Routine::Trsm), run(Routine::Gemm));
    let obs = r1.obs.into_iter().chain(r2.obs).collect();
    let mut trace = r1.trace;
    let mut second = r2.trace;
    second.shift(r1.seconds);
    trace.extend(second);
    let seconds = r1.seconds + r2.seconds;
    CompositionResult {
        seconds,
        tflops: composition_flops(n) / seconds / 1e12,
        sync_gap: trace.longest_kernel_gap(),
        trace,
        obs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xk_topo::dgx1;

    #[test]
    fn xkblas_composes_without_gaps() {
        let topo = dgx1();
        let x = run_xkblas_composition(&topo, 8192, 2048);
        let c = run_chameleon_composition(&topo, 8192, 2048);
        assert!(x.tflops > c.tflops, "XKBlas {} <= Chameleon {}", x.tflops, c.tflops);
        // Chameleon's inter-call synchronization hole dwarfs XKBlas's.
        assert!(
            x.sync_gap < c.sync_gap,
            "gaps: xkblas {} chameleon {}",
            x.sync_gap,
            c.sync_gap
        );
    }

    #[test]
    fn composition_flop_count() {
        let n = 1000;
        assert!((composition_flops(n) - 3.0e9).abs() < 1.0);
    }
}
