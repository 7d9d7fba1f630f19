//! # xk-baselines — policy models of the competing multi-GPU BLAS libraries
//!
//! The paper compares XKBlas against seven other stacks on the same DGX-1
//! (Fig. 5). None of them is open for a faithful line-by-line port here, so
//! each is modelled by its *documented policy* on the shared simulator (see
//! DESIGN.md §6): how it lays out matrices, where transfers go, what its
//! scheduler optimizes, and what it synchronizes. The numerical algorithms
//! are identical across libraries (the paper makes the same point in
//! §IV-D), so the simulated differences isolate exactly the policies.
//!
//! Each [`Library`] is one row of policy data (`model.rs`). A row runs its
//! own stream driver (cuBLAS-XT, SLATE) or the shared task runtime under
//! its policy, then its host rule (Chameleon LAPACK's layout conversion,
//! cuBLAS-MG's staging), whose seconds the trace records like the call's.

#![warn(missing_docs)]

mod cublasxt;
mod fabric;
mod model;
mod slate;
mod xkblas_like;

use model::{Engine, Host};
pub(crate) use xkblas_like::run_on_runtime;
pub use xkblas_like::{build_run_graph, run_prepped};

use xk_kernels::{GpuModel, Routine};
use xk_runtime::{ObsReport, RuntimeConfig};
use xk_topo::FabricSpec;
use xk_trace::{SpanKind, Trace};

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
    /// The complete runtime configuration of this variant — the exact
    /// config [`run`] uses, exposed so batched drivers (xk-serve) can
    /// simulate a shared graph under each variant without duplicating the
    /// mapping.
    pub fn runtime_config(self) -> RuntimeConfig {
        match Library::XkBlas(self).model().engine {
            Engine::Runtime(policy) => policy.config(),
            Engine::Streams(_) => unreachable!("every XKBlas row runs on the shared runtime"),
        }
    }
}

impl Library {
    /// Display name as in the paper's legends.
    pub fn name(self) -> &'static str {
        self.model().name
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
        !self.model().gemm_only || routine == Routine::Gemm
    }

    /// Candidate block sizes swept per library, ascending (§IV-A: {1024,
    /// 2048, 4096}, extended to 8192/16384 for cuBLAS-XT and SLATE).
    pub fn tile_candidates(self) -> &'static [usize] {
        self.model().tiles
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
        let Engine::Runtime(_) = self.model().engine else {
            return None;
        };
        let peak = RuntimeConfig::xkblas().gpu_model.peak_flops;
        let eff = GpuModel::gemm_efficiency(tile as f64);
        Some(topo.n_gpus() as f64 * peak * eff / 1e12)
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

/// The most times any model moves one matrix's bytes. SLATE moves most:
/// it broadcasts every block of A and B to each GPU and moves C in and out
/// once, `2·G + 2` matrices on `G` GPUs, and a fabric has fewer than
/// `u16::MAX` GPUs (the executor's per-task GPU index is a `u16`). The
/// runtime's libraries move each tile once per task that reads it, so
/// only tiles far smaller than `n` could move more; those make more
/// tasks than memory holds first.
const MAX_MATRIX_MOVES: u64 = 2 * u16::MAX as u64 + 2;

impl RunParams {
    /// Rejects a request that describes no run (`n == 0` or `tile == 0`)
    /// or one whose byte counts would not fit a `u64`: every model totals
    /// the bytes it moves in `u64` counters, at most `MAX_MATRIX_MOVES`
    /// times the `8·n²` bytes of one matrix, so `n` stays below `2^22`.
    /// Parameters arrive from planner queries, so this is the boundary
    /// check: past it the tile arithmetic of every model may divide by
    /// `tile` and the throughput by the flop count. [`run`] applies it;
    /// call it before [`build_run_graph`], which assumes checked
    /// parameters.
    pub fn validate(&self) -> Result<(), RunError> {
        let n = self.n as u64;
        let moved = n
            .checked_mul(n)
            .and_then(|elements| elements.checked_mul(8 * MAX_MATRIX_MOVES));
        if self.n == 0 || self.tile == 0 || moved.is_none() {
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

impl RunResult {
    /// The result of a stream driver's run: makespan and bytes moved are
    /// read off its trace; it has no [`ObsReport`].
    pub(crate) fn from_trace(trace: Trace, params: &RunParams) -> RunResult {
        let bytes = trace.bytes_by_kind();
        let moved = |kind| bytes.get(&kind).copied().unwrap_or(0);
        let seconds = trace.makespan();
        let flops = params.routine.flops_square(params.n as u64);
        RunResult {
            seconds,
            tflops: if seconds <= 0.0 { 0.0 } else { flops / seconds / 1e12 },
            bytes_h2d: moved(SpanKind::H2D),
            bytes_d2h: moved(SpanKind::D2H),
            bytes_p2p: moved(SpanKind::P2P),
            trace,
            obs: None,
        }
    }
}

/// Runs `lib` on `topo` with `params`.
pub fn run(lib: Library, topo: &FabricSpec, params: &RunParams) -> Result<RunResult, RunError> {
    run_within(lib, topo, params, f64::INFINITY)
}

/// [`run`] under a makespan budget: `Err(RunError::OverBudget)` only when
/// the run's `seconds` exceed `budget` (by more than a relative 1e-9);
/// every `Ok` is the result [`run`] gives, bit for bit. The budget goes to
/// the simulation ([`xk_runtime::SimSession::run_within`]), which stops
/// as soon as a lower bound on its makespan proves the verdict. A library
/// whose host rule adds seconds around the simulation (Chameleon LAPACK's
/// layout conversion, cuBLAS-MG's staging with data on the host)
/// simulates within the budget less those seconds, and answers
/// `OverBudget` without simulating when they alone exceed it; there the
/// runtime-simulated libraries return `Ok` exactly when `seconds` fits the
/// budget. cuBLAS-XT and SLATE, which schedule their own kernels, always
/// run to the end. A tile too large for one GPU is `OutOfMemory`: on the
/// runtime, a task whose distinct tiles exceed `gpu_memory`; for the
/// stream drivers, three `tile²` blocks that do.
pub fn run_within(
    lib: Library,
    topo: &FabricSpec,
    params: &RunParams,
    budget: f64,
) -> Result<RunResult, RunError> {
    params.validate()?;
    let model = lib.model();
    if !lib.supports(params.routine) || (params.data_on_device && !model.data_on_device) {
        return Err(RunError::Unsupported);
    }
    if model.max_n.is_some_and(|max_n| params.n > max_n) {
        return Err(RunError::OutOfMemory);
    }
    let policy = match model.engine {
        // A stream driver holds a block of A, B and C on a GPU at once.
        Engine::Streams(driver) => {
            let block = 8 * (params.tile as u64).pow(2);
            if 3 * block > RuntimeConfig::xkblas().gpu_memory {
                return Err(RunError::OutOfMemory);
            }
            return Ok(driver(topo, params));
        }
        Engine::Runtime(policy) => policy,
    };
    // A staging library computes on device-resident data either way.
    let on_device = params.data_on_device || policy.host == Host::Staging;
    let simulated = RunParams { data_on_device: on_device, ..*params };
    let (_, _, host_seconds) = policy.host.seconds(topo, params);
    let (cfg, sim_budget) = (policy.config(), budget_less(budget, host_seconds)?);
    let mut r = run_on_runtime(topo, &simulated, cfg, policy.tile_layout, sim_budget)?;
    if host_seconds > 0.0 {
        policy.host.record(&mut r, topo, params);
    }
    fits(r, budget)
}

/// The budget left to a simulation that a model lengthens by `extra`
/// seconds: `OverBudget` when `extra` alone exceeds `budget`. The 2e-9
/// slack (twice the simulator's own) keeps rounding in the subtraction
/// from stopping a run whose total still fits.
fn budget_less(budget: f64, extra: f64) -> Result<f64, RunError> {
    if extra > budget * (1.0 + 1e-9) {
        return Err(RunError::OverBudget);
    }
    Ok(budget * (1.0 + 2e-9) - extra)
}

/// `r` if its `seconds` fit `budget` (with the simulator's relative 1e-9),
/// else `OverBudget`.
fn fits(r: RunResult, budget: f64) -> Result<RunResult, RunError> {
    if r.seconds > budget * (1.0 + 1e-9) {
        return Err(RunError::OverBudget);
    }
    Ok(r)
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
