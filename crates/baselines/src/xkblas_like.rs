//! Drivers for the libraries that share the task-runtime substrate
//! (XKBlas and the runtime-based baseline models): build the routine's
//! task graph through `xkblas-core` and simulate it under a per-library
//! [`RuntimeConfig`].

use xk_runtime::{ObsLevel, RuntimeConfig, SimOutcome};
use xk_topo::FabricSpec;
use xk_trace::{SpanKind, Trace};
use xkblas_core::{
    gemm_async, symm_async, syr2k_async, syrk_async, trmm_async, trsm_async, Context, Diag,
    Matrix, Routine, Side, Trans, Uplo,
};

use crate::{RunError, RunParams, RunResult};

/// Builds the standard square instance of `routine` (the paper's benchmark
/// shapes: all operands `n × n`, lower/left/no-trans/non-unit) into `ctx`,
/// returning the output matrix whose coherence closes the run.
pub(crate) fn build_routine_graph(
    ctx: &mut Context<f64>,
    routine: Routine,
    n: usize,
    dod: bool,
) -> Matrix<f64> {
    let a = Matrix::<f64>::phantom(n, n);
    let b = Matrix::<f64>::phantom(n, n);
    let c = Matrix::<f64>::phantom(n, n);
    if dod {
        ctx.distribute_2d_block_cyclic_async(&a);
        ctx.distribute_2d_block_cyclic_async(&b);
        ctx.distribute_2d_block_cyclic_async(&c);
    }
    match routine {
        Routine::Gemm => {
            gemm_async(ctx, Trans::No, Trans::No, 1.0, &a, &b, 0.5, &c);
            c
        }
        Routine::Symm => {
            symm_async(ctx, Side::Left, Uplo::Lower, 1.0, &a, &b, 0.5, &c);
            c
        }
        Routine::Syrk => {
            syrk_async(ctx, Uplo::Lower, Trans::No, 1.0, &a, 0.5, &c);
            c
        }
        Routine::Syr2k => {
            syr2k_async(ctx, Uplo::Lower, Trans::No, 1.0, &a, &b, 0.5, &c);
            c
        }
        Routine::Trmm => {
            trmm_async(ctx, Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0, &a, &b);
            b
        }
        Routine::Trsm => {
            trsm_async(ctx, Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0, &a, &b);
            b
        }
    }
}

/// Simulates one routine call under `cfg` within a makespan `budget`
/// (`f64::INFINITY` for none; see [`Context::run_simulated_within`]).
/// Data-on-host runs end with a `memory_coherent` of the output (§IV-A
/// end-to-end methodology); data-on-device runs leave results on the GPUs
/// (§IV-C).
pub fn run_on_runtime(
    topo: &FabricSpec,
    params: &RunParams,
    cfg: RuntimeConfig,
    tile_layout: bool,
    budget: f64,
) -> Result<RunResult, RunError> {
    let mut ctx = Context::<f64>::new(topo.clone(), cfg, params.tile);
    ctx.set_simulation_only(true);
    ctx.set_tile_layout(tile_layout);
    ctx.set_observability(ObsLevel::Full);
    let out = build_routine_graph(&mut ctx, params.routine, params.n, params.data_on_device);
    if !params.data_on_device && !ctx.config().eager_flush {
        ctx.memory_coherent_async(&out);
    }
    let sim = ctx.run_simulated_within(budget)?;
    Ok(outcome_to_result(sim, params))
}

/// Builds the task graph of one routine call exactly as [`run_on_runtime`]
/// would, returning it unexecuted.
///
/// The graph depends on `cfg` only through `eager_flush` (whether a final
/// per-tile coherency flush is appended), never on the scheduler or
/// heuristic fields — so one graph built here can be simulated under every
/// [`crate::XkVariant`] configuration via [`run_prepped`], sharing the
/// hoisted [`xk_runtime::SimPrep`] across those runs.
pub fn build_run_graph(
    topo: &FabricSpec,
    params: &RunParams,
    cfg: &RuntimeConfig,
    tile_layout: bool,
) -> xk_runtime::TaskGraph {
    let mut ctx = Context::<f64>::new(topo.clone(), cfg.clone(), params.tile);
    ctx.set_simulation_only(true);
    ctx.set_tile_layout(tile_layout);
    let out = build_routine_graph(&mut ctx, params.routine, params.n, params.data_on_device);
    if !params.data_on_device && !ctx.config().eager_flush {
        ctx.memory_coherent_async(&out);
    }
    ctx.finish_graph()
}

/// Simulates a pre-built routine graph under `cfg` with shared per-graph
/// prep: the timing, byte counters and observability are byte-identical to
/// [`run_on_runtime`] with the same parameters (only the process-global
/// matrix ids inside trace labels differ, as they do between any two
/// context builds).
pub fn run_prepped(
    topo: &FabricSpec,
    params: &RunParams,
    cfg: RuntimeConfig,
    graph: &xk_runtime::TaskGraph,
    prep: &xk_runtime::SimPrep,
) -> RunResult {
    let sim = xk_runtime::SimSession::on(topo)
        .config(cfg)
        .observe(ObsLevel::Full)
        .run_prepped(graph, prep)
        .into_outcome();
    outcome_to_result(sim, params)
}

/// Converts a simulation outcome into the harness result type.
pub(crate) fn outcome_to_result(sim: SimOutcome, params: &RunParams) -> RunResult {
    let flops = params.routine.flops_square(params.n as u64);
    RunResult {
        seconds: sim.makespan,
        tflops: sim.tflops(flops),
        trace: sim.trace,
        bytes_h2d: sim.bytes_h2d,
        bytes_d2h: sim.bytes_d2h,
        bytes_p2p: sim.bytes_p2p,
        obs: sim.obs,
    }
}

/// The harness result of a custom driver's run (cuBLAS-XT, SLATE): makespan
/// and bytes moved are read off its trace; it ran no task graph.
pub(crate) fn trace_to_result(trace: Trace, params: &RunParams) -> RunResult {
    let bytes = trace.bytes_by_kind();
    let moved = |kind| bytes.get(&kind).copied().unwrap_or(0);
    let sim = SimOutcome {
        makespan: trace.makespan(),
        bytes_h2d: moved(SpanKind::H2D),
        bytes_d2h: moved(SpanKind::D2H),
        bytes_p2p: moved(SpanKind::P2P),
        trace,
        tasks_run: 0,
        steals: 0,
        obs: None,
        failures: Vec::new(),
    };
    outcome_to_result(sim, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xk_runtime::RuntimeConfig;
    use xk_topo::dgx1;

    #[test]
    fn all_routines_build_and_run() {
        let topo = dgx1();
        for routine in Routine::ALL {
            let params = RunParams {
                routine,
                n: 4096,
                tile: 1024,
                data_on_device: false,
            };
            let r = run_on_runtime(&topo, &params, RuntimeConfig::xkblas(), false, f64::INFINITY).unwrap();
            assert!(r.seconds > 0.0, "{routine:?} zero time");
            assert!(r.tflops > 0.1, "{routine:?} unreasonably slow");
            assert!(r.bytes_h2d > 0, "{routine:?} must read inputs");
            assert!(r.bytes_d2h > 0, "{routine:?} must return the result");
        }
    }

    #[test]
    fn prepped_run_matches_run_on_runtime() {
        let topo = dgx1();
        let params = RunParams {
            routine: Routine::Syr2k,
            n: 4096,
            tile: 1024,
            data_on_device: false,
        };
        // One graph, three heuristic variants: each prepped run must be
        // byte-identical in timing and counters to the standalone path.
        let base = crate::XkVariant::Full.runtime_config();
        let graph = build_run_graph(&topo, &params, &base, false);
        let prep = xk_runtime::SimPrep::new(&graph);
        for variant in [
            crate::XkVariant::Full,
            crate::XkVariant::NoHeuristic,
            crate::XkVariant::NoHeuristicNoTopo,
        ] {
            let cfg = variant.runtime_config();
            let direct = run_on_runtime(&topo, &params, cfg.clone(), false, f64::INFINITY).unwrap();
            let prepped = run_prepped(&topo, &params, cfg, &graph, &prep);
            assert_eq!(direct.seconds.to_bits(), prepped.seconds.to_bits(), "{variant:?}");
            assert_eq!(direct.tflops.to_bits(), prepped.tflops.to_bits(), "{variant:?}");
            assert_eq!(direct.bytes_h2d, prepped.bytes_h2d, "{variant:?}");
            assert_eq!(direct.bytes_d2h, prepped.bytes_d2h, "{variant:?}");
            assert_eq!(direct.bytes_p2p, prepped.bytes_p2p, "{variant:?}");
            assert_eq!(direct.trace.len(), prepped.trace.len(), "{variant:?}");
        }
    }

    #[test]
    fn dod_run_has_no_host_traffic() {
        let topo = dgx1();
        let params = RunParams {
            routine: Routine::Gemm,
            n: 4096,
            tile: 512,
            data_on_device: true,
        };
        let r = run_on_runtime(&topo, &params, RuntimeConfig::xkblas(), false, f64::INFINITY).unwrap();
        assert_eq!(r.bytes_h2d, 0);
        assert_eq!(r.bytes_d2h, 0);
        assert!(r.bytes_p2p > 0, "cross-GPU reads still occur");
    }
}
