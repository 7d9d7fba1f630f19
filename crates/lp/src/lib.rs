//! # xk-lp — a dependency-free LP kernel for bounds and valuations
//!
//! A small, dense, two-phase revised-simplex solver ([`solve`]) plus the
//! deterministic sampling RNG ([`SplitMix64`]) used by the Shapley-style
//! link-valuation layer. Two consumers live in `xk-runtime`:
//!
//! * the **makespan lower bound** (`xk_runtime::bound`) builds the
//!   link-capacity relaxation of a task graph on a fabric and asks this
//!   crate for its optimum;
//! * **per-link attribution** (`xk_runtime::attribution`) samples link
//!   coalitions with [`SplitMix64`] permutations.
//!
//! The solver is intentionally minimal — `f64`, Bland's rule, explicit
//! basis inverse — because every instance it sees is a few hundred rows.
//! Correctness is pinned two ways: a regression corpus of
//! known-optimum/degenerate/unbounded/infeasible instances, and a seeded
//! sweep cross-checking random small LPs against [`brute_force`] vertex
//! enumeration (`tests/regression_corpus.rs`).
//!
//! [`SplitMix64`] and [`for_each_seed`] also drive the seeded property
//! loops of the other crates' test suites — this crate has no dependencies,
//! so any of them can take it as a dev-dependency.

#![warn(missing_docs)]

pub mod rng;
pub mod simplex;

pub use rng::{for_each_seed, SplitMix64};
pub use simplex::{brute_force, solve, Lp, LpResult, Solution, DEFAULT_TOL};
