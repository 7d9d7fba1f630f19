//! # xkblas-repro
//!
//! A full reproduction of *“Evaluation of two topology-aware heuristics on
//! level-3 BLAS library for multi-GPU platforms”* (Gautier & Lima,
//! PAW-ATM / SC 2021) as a Rust workspace, with the paper's DGX-1 replaced
//! by a deterministic discrete-event model (see `DESIGN.md`).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`topo`] — fabric descriptions (the DGX-1 hybrid cube mesh, NVSwitch
//!   tiers, PCIe boxes, multi-node NIC fabrics) behind one `FabricSpec`.
//! * [`sim`] — the discrete-event core.
//! * [`kernels`] — real CPU tile kernels + the V100 timing model.
//! * [`runtime`] — the XKaapi-like task runtime with the paper's two
//!   heuristics.
//! * [`blas`] — the XKBlas-like asynchronous tiled BLAS-3 API.
//! * [`baselines`] — policy models of the competing libraries.
//! * [`serve`] — the planner-as-a-service query engine (sharded
//!   single-flight cache + interpolation fast tier).
//! * [`bench`](mod@bench) — the table/figure reproduction harness.
//! * [`trace`] — execution traces, breakdowns and Gantt charts.
//!
//! ## Quickstart
//!
//! ```
//! use xkblas_repro::prelude::*;
//!
//! // Asynchronous tiled DGEMM, really computed on host threads.
//! let mut ctx = Context::<f64>::new(dgx1(), RuntimeConfig::xkblas(), 64);
//! let a = Matrix::random(256, 256, 1);
//! let b = Matrix::random(256, 256, 2);
//! let c = Matrix::zeros(256, 256);
//! gemm_async(&mut ctx, Trans::No, Trans::No, 1.0, &a, &b, 0.0, &c);
//! ctx.memory_coherent_async(&c);
//! ctx.run_numeric(0);
//!
//! // The same call, timed on the simulated 8-GPU DGX-1 with full
//! // observability (link occupancy, contention, critical path).
//! let mut sim_ctx = Context::<f64>::new(dgx1(), RuntimeConfig::xkblas(), 2048);
//! sim_ctx.set_simulation_only(true);
//! sim_ctx.set_observability(ObsLevel::Full);
//! let (pa, pb, pc) = (Matrix::phantom(16384, 16384),
//!                     Matrix::phantom(16384, 16384),
//!                     Matrix::phantom(16384, 16384));
//! gemm_async(&mut sim_ctx, Trans::No, Trans::No, 1.0, &pa, &pb, 0.5, &pc);
//! sim_ctx.memory_coherent_async(&pc);
//! let outcome = sim_ctx.run_simulated();
//! assert!(outcome.makespan > 0.0);
//! let report = outcome.obs.expect("full observability");
//! let cp = report.critical_path.expect("critical path recorded");
//! assert_eq!(cp.length, outcome.makespan);
//! ```

pub use xk_baselines as baselines;
pub use xk_bench as bench;
pub use xk_kernels as kernels;
pub use xk_lp as lp;
pub use xk_runtime as runtime;
pub use xk_serve as serve;
pub use xk_sim as sim;
pub use xk_topo as topo;
pub use xk_trace as trace;
pub use xkblas_core as blas;

/// The most common imports in one place.
pub mod prelude {
    pub use xk_runtime::{
        Attribution, Error, Heuristics, MakespanBound, ObsLevel, ObsReport, RuntimeConfig,
        SchedulerKind, SimSession,
    };
    pub use xk_topo::{builders, dgx1, fabrics, Device, FabricBuilder, FabricSpec};
    pub use xkblas_core::{
        gemm_async, symm_async, syr2k_async, syrk_async, trmm_async, trsm_async, Context, Diag,
        Matrix, Routine, Side, Trans, Uplo,
    };
}
