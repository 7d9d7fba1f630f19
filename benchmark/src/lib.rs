//! # xk-benchmark — one hermetic benchmark for xkblas-sim
//!
//! Six workloads over the layer crates under `../crates`, measured from
//! outside through their public functions: end-to-end metrics with tracing
//! off, per-layer metrics from a separate traced run, correctness checks
//! on every output, and a `compare` gate over two sets of runs. See
//! `README.md` for why each workload exists and what every metric means.

#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod csvcheck;
pub mod envstamp;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod workloads;

/// `BENCHMARK.json` at the repository root: the contract the pipeline reads.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
