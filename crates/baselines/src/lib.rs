//! # xk-baselines — policy models of the competing multi-GPU BLAS libraries
//!
//! The paper compares XKBlas against seven other stacks on the same DGX-1
//! (Fig. 5). None of them is open for a faithful line-by-line port here, so
//! each is modelled by its *documented policy* on the shared simulator (see
//! DESIGN.md §6): how it lays out matrices, where transfers go, what its
//! scheduler optimizes, and what it synchronizes. The numerical algorithms
//! are identical across libraries (the paper makes the same point in
//! §IV-D), so the simulated differences isolate exactly the policies.

#![warn(missing_docs)]

mod conversion;
mod cublasxt;
mod fabric;
mod slate;
mod xkblas_like;

pub(crate) use conversion::layout_conversion_seconds;
pub(crate) use cublasxt::run_cublasxt;
pub(crate) use slate::run_slate;
pub(crate) use xkblas_like::run_on_runtime;
pub use xkblas_like::{build_run_graph, run_prepped};

use xk_kernels::{GpuModel, Routine};
use xk_runtime::{Heuristics, ObsReport, RuntimeConfig, SchedulerKind};
use xk_topo::FabricSpec;
use xk_trace::Trace;

/// The workspace-wide run error (see [`xk_runtime::Error`]); the former
/// crate-local `RunError` enum is now an alias so existing call sites keep
/// compiling while the whole harness folds errors the same way.
pub use xk_runtime::Error as RunError;

/// The libraries of the paper's Fig. 5, plus the XKBlas ablations of Fig. 3.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Library {
    /// XKBlas with a given heuristic configuration (Fig. 3 ablations).
    XkBlas(XkVariant),
    /// cuBLAS-XT: synchronous, round-robin blocks, no P2P, no caching.
    CublasXt,
    /// cuBLAS-MG: GEMM only, 2D block-cyclic, static owners.
    CublasMg,
    /// BLASX: GEMM only, LAPACK layout, 2-level cache without NVLink ranks.
    Blasx,
    /// Chameleon with its native tile layout, StarPU `dmdas`.
    ChameleonTile,
    /// Chameleon on LAPACK layout: adds host-side layout conversions.
    ChameleonLapack,
    /// SLATE: block outer product over PCIe, no P2P.
    Slate,
    /// DPLASMA: GEMM only, tile layout, static-owner DAG engine.
    Dplasma,
}

/// XKBlas heuristic variants of Fig. 3.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum XkVariant {
    /// Both heuristics on (the paper's "XKBlas").
    Full,
    /// Optimistic D2D disabled ("XKBlas, no heuristic").
    NoHeuristic,
    /// Both disabled ("XKBlas, no heuristic, no topo").
    NoHeuristicNoTopo,
}

impl XkVariant {
    /// The heuristic set this Fig. 3 ablation simulates under.
    pub(crate) fn heuristics(self) -> Heuristics {
        match self {
            XkVariant::Full => Heuristics::full(),
            XkVariant::NoHeuristic => Heuristics::no_optimistic(),
            XkVariant::NoHeuristicNoTopo => Heuristics::none(),
        }
    }

    /// The complete runtime configuration of this variant — the exact
    /// config [`run`] uses, exposed so batched drivers (xk-serve) can
    /// simulate a shared graph under each variant without duplicating the
    /// mapping.
    pub fn runtime_config(self) -> RuntimeConfig {
        RuntimeConfig::xkblas().with_heuristics(self.heuristics())
    }
}

impl Library {
    /// Display name as in the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Library::XkBlas(XkVariant::Full) => "XKBlas",
            Library::XkBlas(XkVariant::NoHeuristic) => "XKBlas, no heuristic",
            Library::XkBlas(XkVariant::NoHeuristicNoTopo) => "XKBlas, no heuristic, no topo",
            Library::CublasXt => "cuBLAS-XT",
            Library::CublasMg => "cuBLAS-MG",
            Library::Blasx => "BLASX",
            Library::ChameleonTile => "Chameleon Tile",
            Library::ChameleonLapack => "Chameleon LAPACK",
            Library::Slate => "Slate",
            Library::Dplasma => "DPLASMA",
        }
    }

    /// The eight libraries of Fig. 5 in legend order.
    pub const FIG5: [Library; 8] = [
        Library::Blasx,
        Library::ChameleonLapack,
        Library::ChameleonTile,
        Library::CublasMg,
        Library::CublasXt,
        Library::Dplasma,
        Library::Slate,
        Library::XkBlas(XkVariant::Full),
    ];

    /// Routines this library accelerates on GPUs (paper §IV-D: cuBLAS-MG,
    /// BLASX and DPLASMA are GEMM-only).
    pub fn supports(self, routine: Routine) -> bool {
        match self {
            Library::CublasMg | Library::Blasx | Library::Dplasma => routine == Routine::Gemm,
            _ => true,
        }
    }

    /// Candidate block sizes swept per library, ascending (§IV-A: {1024,
    /// 2048, 4096}, extended to 8192/16384 for cuBLAS-XT and SLATE).
    pub fn tile_candidates(self) -> &'static [usize] {
        match self {
            Library::CublasXt | Library::Slate => &[1024, 2048, 4096, 8192, 16384],
            _ => &[1024, 2048, 4096],
        }
    }

    /// A TFlop/s no [`run`] of this library with block size `tile` on
    /// `topo` can exceed, for any routine and `n`:
    /// `n_gpus × peak × eff(tile)`. `None` for cuBLAS-XT and SLATE, whose
    /// drivers schedule their own kernels. For the libraries simulated on
    /// the shared runtime:
    /// - each GPU runs its kernels one at a time, so the makespan is at
    ///   least `Σ kernel_time / n_gpus` (the `compute` term of
    ///   [`xk_runtime::makespan_lower_bound`]);
    /// - no kernel of a tile-`t` decomposition runs faster than
    ///   `peak · eff(t)`: its effective size is at most `t`, except SYR2K's
    ///   diagonal kernel at `t · (1 + 1/t)^(1/3)`, which its 0.93 routine
    ///   factor more than absorbs;
    /// - the tile kernels' flops sum to `flops_square(n)`;
    /// - host conversion (Chameleon LAPACK) and staging (cuBLAS-MG) only
    ///   add seconds.
    pub fn tflops_ceiling(self, topo: &FabricSpec, tile: usize) -> Option<f64> {
        match self {
            Library::CublasXt | Library::Slate => None,
            _ => {
                let peak = RuntimeConfig::xkblas().gpu_model.peak_flops;
                let eff = GpuModel::gemm_efficiency(tile as f64);
                Some(topo.n_gpus() as f64 * peak * eff / 1e12)
            }
        }
    }
}

/// Parameters of one simulated run.
#[derive(Clone, Copy, Debug)]
pub struct RunParams {
    /// The BLAS-3 routine.
    pub routine: Routine,
    /// Square matrix dimension.
    pub n: usize,
    /// Tile / block size.
    pub tile: usize,
    /// Data-on-device methodology (2D block-cyclic initial distribution,
    /// results left on devices) instead of data-on-host.
    pub data_on_device: bool,
}

impl RunParams {
    /// Rejects a request that describes no run (`n == 0` or `tile == 0`).
    /// Parameters arrive from planner queries, so this is the boundary
    /// check: past it the tile arithmetic of every model may divide by
    /// `tile` and the throughput by the flop count. [`run`] applies it;
    /// call it before [`build_run_graph`] / [`run_prepped`], which assume
    /// checked parameters.
    pub fn validate(&self) -> Result<(), RunError> {
        if self.n == 0 || self.tile == 0 {
            return Err(RunError::InvalidParams {
                n: self.n,
                tile: self.tile,
            });
        }
        Ok(())
    }
}

/// Outcome of one simulated run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// End-to-end simulated seconds (includes transfers per §IV-A).
    pub seconds: f64,
    /// Achieved TFlop/s using the routine's standard flop count.
    pub tflops: f64,
    /// Execution trace.
    pub trace: Trace,
    /// Host→device bytes.
    pub bytes_h2d: u64,
    /// Device→host bytes.
    pub bytes_d2h: u64,
    /// Device→device bytes.
    pub bytes_p2p: u64,
    /// Observability report of the simulated run (link occupancy,
    /// contention, critical path). `None` for the models that bypass the
    /// shared runtime (cuBLAS-XT, SLATE).
    pub obs: Option<ObsReport>,
}

/// Runs `lib` on `topo` with `params`.
pub fn run(lib: Library, topo: &FabricSpec, params: &RunParams) -> Result<RunResult, RunError> {
    run_within(lib, topo, params, f64::INFINITY)
}

/// [`run`] under a makespan budget: `Err(RunError::OverBudget)` only when
/// the run's `seconds` exceed `budget` (by more than a relative 1e-9);
/// every `Ok` is the result [`run`] gives, bit for bit. The budget goes to
/// the simulation ([`xk_runtime::SimSession::run_within`]), which stops
/// as soon as a lower bound on its makespan proves the verdict. Seconds a
/// model adds after the simulation (Chameleon LAPACK's conversions,
/// cuBLAS-MG's staging) only lengthen the run, and cuBLAS-XT and SLATE,
/// which schedule their own kernels, always run to the end.
pub fn run_within(
    lib: Library,
    topo: &FabricSpec,
    params: &RunParams,
    budget: f64,
) -> Result<RunResult, RunError> {
    params.validate()?;
    if !lib.supports(params.routine) {
        return Err(RunError::Unsupported);
    }
    match lib {
        Library::XkBlas(variant) => {
            run_on_runtime(topo, params, variant.runtime_config(), false, budget)
        }
        Library::ChameleonTile => run_chameleon(topo, params, true, budget),
        Library::ChameleonLapack => {
            let mut r = run_chameleon(topo, params, false, budget)?;
            // Host-side LAPACK↔tile conversion before and after the call
            // (§IV-D: "the penalty, on the host, to convert operands and
            // result to/from tile matrix representation").
            let conv = layout_conversion_seconds(params.routine, params.n);
            r.seconds += conv;
            r.tflops = params.routine.flops_square(params.n as u64) / r.seconds / 1e12;
            Ok(r)
        }
        Library::CublasMg => {
            // cuBLAS-MG computes on 2D block-cyclic *device* matrices; with
            // data on the host it stages synchronously: distribute operands,
            // run the distributed GEMM (P2P rings), gather the result.
            let mut cfg = RuntimeConfig::xkblas()
                .with_scheduler(SchedulerKind::StaticOwner)
                .with_heuristics(Heuristics {
                    topology_aware: false,
                    optimistic_d2d: true,
                    allow_d2d: true,
                });
            cfg.window = 8;
            let dev_params = RunParams {
                data_on_device: true,
                ..*params
            };
            let mut r = run_on_runtime(topo, &dev_params, cfg, true, budget)?;
            if !params.data_on_device {
                // Synchronous distribute (3 operands in) + gather (result
                // out) over the 4 PCIe uplinks in parallel.
                let matrix_bytes = (params.n * params.n * 8) as f64;
                let uplink = topo.route(xk_topo::Device::Host, xk_topo::Device::Gpu(0));
                let aggregate = uplink.bandwidth * topo.n_switches() as f64;
                let t_in = 3.0 * matrix_bytes / aggregate;
                let t_out = matrix_bytes / aggregate;
                // Make the staging phases visible in the trace (Fig. 6).
                let compute_end = r.seconds;
                r.trace.shift(t_in);
                let l_distribute = r.trace.intern("distribute");
                let l_gather = r.trace.intern("gather");
                for g in 0..topo.n_gpus() as u32 {
                    r.trace.push(xk_trace::Span {
                        place: xk_trace::Place::Gpu(g),
                        lane: 0,
                        kind: xk_trace::SpanKind::H2D,
                        start: 0.0,
                        end: t_in,
                        bytes: 3 * (params.n * params.n) as u64 / topo.n_gpus() as u64,
                        label: l_distribute,
                        flow: xk_trace::FlowId::NONE,
                        subject: xk_trace::Span::NO_SUBJECT,
                        peer: xk_trace::Span::NO_PEER,
                    });
                    r.trace.push(xk_trace::Span {
                        place: xk_trace::Place::Gpu(g),
                        lane: 2,
                        kind: xk_trace::SpanKind::D2H,
                        start: t_in + compute_end,
                        end: t_in + compute_end + t_out,
                        bytes: (params.n * params.n) as u64 / topo.n_gpus() as u64,
                        label: l_gather,
                        flow: xk_trace::FlowId::NONE,
                        subject: xk_trace::Span::NO_SUBJECT,
                        peer: xk_trace::Span::NO_PEER,
                    });
                }
                r.seconds += t_in + t_out;
                r.bytes_h2d += 3 * (params.n * params.n * 8) as u64;
                r.bytes_d2h += (params.n * params.n * 8) as u64;
                r.tflops = params.routine.flops_square(params.n as u64) / r.seconds / 1e12;
            }
            Ok(r)
        }
        Library::Dplasma => {
            // PaRSEC's accelerator support stages all data through the host
            // (its GEMM trace in Fig. 6 shows no PtoP); a data-on-host run
            // writes each result tile back by its flush task.
            let mut cfg = RuntimeConfig::xkblas()
                .with_scheduler(SchedulerKind::StaticOwner)
                .with_heuristics(Heuristics::host_only());
            // PaRSEC's GPU path ca. 2021: one manager thread per device,
            // shallow pipelining, operands re-read per task (largest HtoD
            // volume in Fig. 6).
            cfg.window = 3;
            cfg.cache_inputs = false;
            run_on_runtime(topo, params, cfg, true, budget)
        }
        Library::Blasx => {
            // BLASX fails to allocate above N = 45000 (Fig. 5 caption).
            if params.n > 45_000 {
                return Err(RunError::OutOfMemory);
            }
            // Two-level cache: D2D from any valid peer (no NVLink ranks,
            // no in-flight forwarding).
            let mut cfg = RuntimeConfig::xkblas().with_heuristics(Heuristics::none());
            cfg.window = 4;
            run_on_runtime(topo, params, cfg, false, budget)
        }
        Library::CublasXt => Ok(run_cublasxt(topo, params)),
        Library::Slate => Ok(run_slate(topo, params)),
    }
}

fn run_chameleon(
    topo: &FabricSpec,
    params: &RunParams,
    tile_layout: bool,
    budget: f64,
) -> Result<RunResult, RunError> {
    // Chameleon/StarPU: dmdas scheduler, 2 workers per GPU (§IV-A),
    // per-tile flush tasks writing results back, no topology-aware source
    // selection.
    // StarPU 1.3.5 on this machine stages transfers through the host (the
    // Chameleon trace of Fig. 6 shows DtoH/HtoD only).
    let mut cfg = RuntimeConfig::xkblas()
        .with_scheduler(SchedulerKind::Dmdas)
        .with_heuristics(Heuristics::host_only());
    cfg.window = 8;
    run_on_runtime(topo, params, cfg, tile_layout, budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_support() {
        assert_eq!(Library::XkBlas(XkVariant::Full).name(), "XKBlas");
        assert!(Library::CublasMg.supports(Routine::Gemm));
        assert!(!Library::CublasMg.supports(Routine::Syrk));
        assert!(!Library::Blasx.supports(Routine::Trsm));
        assert!(Library::Slate.supports(Routine::Trmm));
        assert_eq!(Library::FIG5.len(), 8);
    }

    #[test]
    fn tile_candidates_extended_for_xt_and_slate() {
        assert!(Library::CublasXt.tile_candidates().contains(&16384));
        assert!(!Library::ChameleonTile.tile_candidates().contains(&8192));
    }

    #[test]
    fn unsupported_routine_is_reported() {
        let topo = xk_topo::dgx1();
        let p = RunParams {
            routine: Routine::Syrk,
            n: 4096,
            tile: 1024,
            data_on_device: false,
        };
        assert!(matches!(run(Library::Dplasma, &topo, &p), Err(RunError::Unsupported)));
    }

    #[test]
    fn zero_dimension_or_tile_is_an_error_on_every_library() {
        let topo = xk_topo::dgx1();
        let all = Library::FIG5.iter().copied().chain([
            Library::XkBlas(XkVariant::NoHeuristic),
            Library::XkBlas(XkVariant::NoHeuristicNoTopo),
        ]);
        for lib in all {
            for (n, tile) in [(0, 1024), (4096, 0), (0, 0)] {
                let p = RunParams {
                    routine: Routine::Gemm,
                    n,
                    tile,
                    data_on_device: false,
                };
                assert_eq!(
                    run(lib, &topo, &p).err(),
                    Some(RunError::InvalidParams { n, tile }),
                    "{lib:?} n={n} tile={tile}"
                );
            }
        }
    }

    #[test]
    fn blasx_oom_above_45000() {
        let topo = xk_topo::dgx1();
        let p = RunParams {
            routine: Routine::Gemm,
            n: 49152,
            tile: 2048,
            data_on_device: false,
        };
        assert!(matches!(run(Library::Blasx, &topo, &p), Err(RunError::OutOfMemory)));
    }
}
