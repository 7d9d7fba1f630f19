//! Drivers for the libraries that share the task-runtime substrate
//! (XKBlas and the runtime-based baseline models): build the routine's
//! task graph through `xkblas-core` and simulate it under a per-library
//! [`RuntimeConfig`].
//!
//! A graph does not depend on the configuration, so each thread keeps the
//! graphs of one family — fabric, routine and `n` — one per tile,
//! methodology and layout: the Fig. 3 ablations,
//! a tile search's later libraries and every library of one figure column
//! simulate the graphs the first one built.

use std::cell::RefCell;

use xk_runtime::{RuntimeConfig, SimOutcome, SimPrep, SimSession, TaskGraph};
use xk_topo::FabricSpec;
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

/// The inputs of [`build_run_graph`] a memo holds one of: the graphs of
/// one family differ only in their [`Entry`].
#[derive(Clone, Copy, PartialEq, Eq)]
struct Family {
    fabric: u64,
    routine: Routine,
    n: usize,
}

/// The rest of [`build_run_graph`]'s inputs but the configuration, which
/// a graph does not depend on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Entry {
    tile: usize,
    data_on_device: bool,
    tile_layout: bool,
}

/// The graphs of one family, one per entry, in build order.
#[derive(Default)]
struct GraphMemo {
    family: Option<Family>,
    entries: Vec<(Entry, TaskGraph)>,
}

thread_local! {
    /// The graphs of the thread's last family: every [`run_on_runtime`]
    /// reads its graph from here.
    static MEMO: RefCell<GraphMemo> = RefCell::default();
}

impl GraphMemo {
    /// The graph of `params` on `topo`, built on first request. A request
    /// from another family releases the memo's graphs first.
    fn graph(
        &mut self,
        topo: &FabricSpec,
        params: &RunParams,
        cfg: &RuntimeConfig,
        tile_layout: bool,
    ) -> &TaskGraph {
        let family = Family {
            fabric: topo.fingerprint(),
            routine: params.routine,
            n: params.n,
        };
        if self.family != Some(family) {
            self.entries.clear();
            self.family = Some(family);
        }
        let entry = Entry {
            tile: params.tile,
            data_on_device: params.data_on_device,
            tile_layout,
        };
        let at = match self.entries.iter().position(|(e, _)| *e == entry) {
            Some(at) => at,
            None => {
                // Derived tables now, so that they are allocated beside the
                // graph they outlive runs with, not among a run's buffers.
                let graph = build_run_graph(topo, params, cfg, tile_layout);
                graph.finalize();
                self.entries.push((entry, graph));
                self.entries.len() - 1
            }
        };
        &self.entries[at].1
    }
}

/// Simulates one routine call under `cfg` within a makespan `budget`
/// (`f64::INFINITY` for none; see [`SimSession::run_within`]) on
/// the thread's memoized graph of the call, or answers `OutOfMemory` when
/// one of its tasks accesses more tile bytes than a GPU holds.
/// Data-on-host runs end with a `memory_coherent` of the output (§IV-A
/// end-to-end methodology); data-on-device runs leave results on the GPUs
/// (§IV-C).
pub(crate) fn run_on_runtime(
    topo: &FabricSpec,
    params: &RunParams,
    cfg: RuntimeConfig,
    tile_layout: bool,
    budget: f64,
) -> Result<RunResult, RunError> {
    MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        let graph = memo.graph(topo, params, &cfg, tile_layout);
        if graph.max_task_bytes() > cfg.gpu_memory {
            return Err(RunError::OutOfMemory);
        }
        let sim = SimSession::on(topo).config(cfg).run_within(graph, budget)?.into_outcome();
        Ok(outcome_to_result(sim, params))
    })
}

/// Builds the task graph of one routine call exactly as the libraries
/// [`crate::run`] simulates on the shared runtime do, returning it
/// unexecuted.
///
/// A data-on-host graph ends with one flush task per output tile. The
/// graph does not depend on `cfg`, so one graph built here can be
/// simulated under every library configuration
/// ([`xk_runtime::SimSession::run`]), and those runs share the graph's
/// label table.
pub fn build_run_graph(
    topo: &FabricSpec,
    params: &RunParams,
    cfg: &RuntimeConfig,
    tile_layout: bool,
) -> TaskGraph {
    let mut ctx = Context::<f64>::new(topo.clone(), cfg.clone(), params.tile);
    ctx.set_simulation_only(true);
    ctx.set_tile_layout(tile_layout);
    let out = build_routine_graph(&mut ctx, params.routine, params.n, params.data_on_device);
    if !params.data_on_device {
        ctx.memory_coherent_async(&out);
    }
    ctx.finish_graph()
}

/// Simulates a pre-built routine graph under `cfg`. Kept only for
/// `benchmark/`; a benchmark PR deletes it.
pub fn run_prepped(
    topo: &FabricSpec,
    params: &RunParams,
    cfg: RuntimeConfig,
    graph: &TaskGraph,
    _prep: &SimPrep,
) -> RunResult {
    outcome_to_result(SimSession::on(topo).config(cfg).run(graph).into_outcome(), params)
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
        // One graph, three heuristic variants: each run of the shared graph
        // must be byte-identical in timing and counters to the memo's path.
        let base = crate::XkVariant::Full.runtime_config();
        let graph = build_run_graph(&topo, &params, &base, false);
        for variant in [
            crate::XkVariant::Full,
            crate::XkVariant::NoHeuristic,
            crate::XkVariant::NoHeuristicNoTopo,
        ] {
            let cfg = variant.runtime_config();
            let direct = run_on_runtime(&topo, &params, cfg.clone(), false, f64::INFINITY).unwrap();
            let sim = SimSession::on(&topo).config(cfg).run(&graph).into_outcome();
            let shared = outcome_to_result(sim, &params);
            assert_eq!(direct.seconds.to_bits(), shared.seconds.to_bits(), "{variant:?}");
            assert_eq!(direct.tflops.to_bits(), shared.tflops.to_bits(), "{variant:?}");
            assert_eq!(direct.bytes_h2d, shared.bytes_h2d, "{variant:?}");
            assert_eq!(direct.bytes_d2h, shared.bytes_d2h, "{variant:?}");
            assert_eq!(direct.bytes_p2p, shared.bytes_p2p, "{variant:?}");
            assert_eq!(direct.trace.len(), shared.trace.len(), "{variant:?}");
        }
    }

    /// The memo holds one `(fabric, routine, n)` family, every tile, both
    /// methodologies and both layouts of it at once: a run of another
    /// routine or `n` releases them all, and a run of the same family
    /// reuses them.
    #[test]
    fn a_family_switch_releases_the_previous_familys_graphs() {
        // A thread of its own: its memo starts empty.
        std::thread::scope(|s| {
            s.spawn(|| {
                let topo = dgx1();
                let run = |routine, n, tile, data_on_device, tile_layout, cfg| {
                    let params = RunParams { routine, n, tile, data_on_device };
                    run_on_runtime(&topo, &params, cfg, tile_layout, f64::INFINITY).unwrap();
                };
                let entry =
                    |tile, data_on_device, tile_layout| Entry { tile, data_on_device, tile_layout };
                let resident = || {
                    MEMO.with(|m| {
                        let memo = m.borrow();
                        let entries: Vec<Entry> = memo.entries.iter().map(|(e, _)| *e).collect();
                        (memo.family.map(|f| (f.routine, f.n)), entries)
                    })
                };
                let xkblas = RuntimeConfig::xkblas;
                run(Routine::Gemm, 2048, 512, false, false, xkblas());
                run(Routine::Gemm, 2048, 1024, false, false, xkblas());
                run(Routine::Gemm, 2048, 512, true, false, xkblas());
                run(Routine::Gemm, 2048, 512, false, true, xkblas());
                let gemm = vec![
                    entry(512, false, false),
                    entry(1024, false, false),
                    entry(512, true, false),
                    entry(512, false, true),
                ];
                assert_eq!(resident(), (Some((Routine::Gemm, 2048)), gemm.clone()));
                let no_topo = crate::XkVariant::NoHeuristicNoTopo.runtime_config();
                run(Routine::Gemm, 2048, 512, true, false, no_topo);
                assert_eq!(resident(), (Some((Routine::Gemm, 2048)), gemm), "no new graph");
                run(Routine::Syrk, 2048, 512, false, true, xkblas());
                let syrk = (Some((Routine::Syrk, 2048)), vec![entry(512, false, true)]);
                assert_eq!(resident(), syrk, "GEMM still resident");
                run(Routine::Syrk, 1024, 512, false, true, xkblas());
                let smaller = (Some((Routine::Syrk, 1024)), vec![entry(512, false, true)]);
                assert_eq!(resident(), smaller, "n = 2048 still resident");
            });
        });
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
