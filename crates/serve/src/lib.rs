//! xk-serve: the planner-as-a-service query engine over the simulator.
//!
//! The figure drivers of PRs 1–7 are batch programs: build a sweep, run it,
//! write a JSON artifact. A planner (an auto-tuner, a scheduler picking a
//! library/tile for the next kernel launch) asks the opposite shape of
//! question — many small queries, arriving concurrently, mostly about the
//! same few configurations. This crate serves that workload:
//!
//! * [`ShardedCache`] — a lock-striped memo table over simulated runs with
//!   **single-flight admission**: N concurrent misses of one key cost one
//!   DES run, and every caller shares the leader's `Arc<RunResult>` — a
//!   hit copies a pointer, never a trace. `xk-bench`'s `RunCache` is this
//!   type, so the figure drivers and the service share one exact tier.
//! * [`ServeEngine`] — the two-tier front end: exact answers through the
//!   cache, and (for [`QueryMode::Approx`] queries) an interpolation fast
//!   tier that fits GFLOP/s-vs-N per configuration family and answers
//!   in-range queries without touching the DES. Approximate answers are
//!   marked [`AnswerSource::Interpolated`] and never enter the exact cache.
//! * [`ServeEngine::query_batch`] — batched miss execution: distinct
//!   misses drain through the cross-seed replica driver
//!   ([`xk_sim::run_replicas`]), and XKBlas-variant misses that share a
//!   task graph simulate from one hoisted [`xk_runtime::SimPrep`].

#![warn(missing_docs)]

pub mod engine;
pub mod interp;
pub mod key;
pub mod shard;

pub use engine::{Answer, AnswerSource, EngineStats, Query, QueryMode, ServeEngine};
pub use interp::{Curve, CurveKey, CurveTable, MAX_BRACKET_RATIO, MIN_FIT_POINTS, SAFETY};
pub use key::QueryKey;
pub use shard::{
    Admission, CacheStats, Flight, LeadGuard, RunOutcome, ShardedCache, Source, DEFAULT_SHARDS,
};
