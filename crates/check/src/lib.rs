//! # xk-check — deterministic schedule-space checking
//!
//! The simulated executor and the parallel executor are deterministic by
//! default: every tie is broken by a fixed canonical rule. That is perfect
//! for reproducing the paper's figures and terrible for finding the
//! schedules a real machine would produce. This crate drives the
//! [`xk_runtime::ScheduleController`] hook to *explore* the schedule space
//! instead:
//!
//! - [`controllers`] — random (seeded), DFS-bounded, PCT-style and replay
//!   controllers. A run under any of them is exactly as deterministic as
//!   the controller, so one failing interleaving is a replayable `u64`
//!   seed plus choice string.
//! - [`witness`] — the differential oracle: a semantic shadow execution
//!   of the run's trace, checked against a serial single-stream reference.
//!   Catches stale reads, lost forwards and use-before-arrival in *any*
//!   explored schedule.
//! - [`explore`] — the loops tying the two together, with
//!   distinct-schedule counting and the standing *bound oracle*: no
//!   explored schedule may beat the schedule-free LP makespan lower bound
//!   ([`xk_runtime::makespan_lower_bound`]), so every exploration doubles
//!   as a physics audit of the DES.
//! - [`shrink`] — minimizes a failing (DAG, choice sequence) pair and
//!   writes a replay file under `crates/check/regressions/`.
//! - [`topo_util`] — topology surgery for the metamorphic properties
//!   (GPU-id permutation, uniform bandwidth scaling, DGX-1 sub-machines).
//! - [`graphgen`] — the seeded random DAGs every exploration runs on.
//!
//! See `DESIGN.md` §6g for the full picture and the seed-replay workflow.

#![warn(missing_docs)]

pub mod controllers;
pub mod explore;
pub mod graphgen;
pub mod shrink;
pub mod topo_util;
pub mod witness;

pub use controllers::{ChoiceLog, ChoiceRec, DfsController, RandomController};
pub use explore::{
    explore_pct_batch, explore_random, explore_random_batch, replay, ExploreReport, Failure,
    BOUND_RTOL,
};
pub use shrink::{load_regressions, shrink_case, write_regression, ReplayCase};
pub use witness::WitnessError;
