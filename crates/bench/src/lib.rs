//! # xk-bench — the reproduction harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §5) plus the
//! shared sweep machinery in this library: run a `(library, routine, N)`
//! grid with per-library tile-size selection (the paper's §IV-A
//! methodology: "we only report results with a tile size that maximizes
//! performance among the experimented tile sizes"), and print/serialize the
//! same rows the paper plots.

#![warn(missing_docs)]

pub mod composition;
pub mod figs;
pub mod graphgen;
pub mod kernelbench;
pub mod report;
pub mod runcache;
pub mod sweep;

pub use composition::{
    composition_flops, run_chameleon_composition, run_xkblas_composition, CompositionResult,
};
pub use report::{fmt_tflops, write_csv, write_result, Table};
pub use runcache::{CacheStats, RunCache, RunKey};
pub use sweep::{
    best_tile_run, best_tile_run_with, sweep_series, SeriesPoint, PAPER_DIMS, PAPER_DIMS_SMALL,
};
