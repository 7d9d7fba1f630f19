//! # xk-bench — the reproduction harness
//!
//! `run_all` reproduces every table/figure of the paper (see DESIGN.md §5)
//! and `ablations` sweeps the model's own knobs; both drive the shared sweep
//! machinery in this library: run a `(library, routine, N)`
//! grid with per-library tile-size selection (the paper's §IV-A
//! methodology: "we only report results with a tile size that maximizes
//! performance among the experimented tile sizes"), and print/serialize the
//! same rows the paper plots.

#![warn(missing_docs)]

pub mod composition;
pub mod figs;
pub mod kernelbench;
pub mod report;
pub mod runcache;
pub mod sweep;

/// The random DAGs of `xk-check`, re-exported under their former path.
pub use xk_check::graphgen;

pub use composition::{run_chameleon_composition, run_xkblas_composition, CompositionResult};
pub use report::{fmt_tflops, write_result, Table};
pub use runcache::{CacheStats, RunCache};
pub use sweep::{
    best_tile_run, best_tile_run_with, sweep_series, SeriesPoint, PAPER_DIMS, PAPER_DIMS_SMALL,
};
