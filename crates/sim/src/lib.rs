//! # xk-sim — deterministic discrete-event simulation core
//!
//! This crate is the timing substrate for the whole reproduction: it knows
//! nothing about GPUs or BLAS, only about **virtual time**, **events** and
//! **serially reusable engines**.
//!
//! The executors in `xk-runtime` and the baseline library models in
//! `xk-baselines` are built on three primitives:
//!
//! * [`SimTime`] / [`Duration`] — totally ordered `f64` seconds.
//! * [`Clock`] / [`EventQueue`] — a deterministic event queue with FIFO
//!   tie-breaking (a `BinaryHeap` keyed by `(time, sequence)`), so
//!   identical inputs always produce identical traces. [`run_replicas`]
//!   fans independent replica simulations (seed sweeps, tile sweeps) over
//!   a worker pool.
//! * [`EnginePool`] — resources (copy engines, kernel streams, PCIe
//!   switches) that execute one operation at a time, with *joint
//!   reservations* for operations that hold several resources at once.
//!
//! ## Example
//!
//! ```
//! use xk_sim::{Clock, EngineId, EnginePool, SimTime, Duration};
//!
//! // Two transfers contending for one copy engine serialize.
//! let mut pool = EnginePool::new(1);
//! let engine = EngineId(0);
//! let first = pool.reserve(&[engine], SimTime::ZERO, Duration::new(1.0));
//! let second = pool.reserve(&[engine], SimTime::ZERO, Duration::new(1.0));
//! assert_eq!(second.start, first.end);
//!
//! // Events pop in time order; the closure picks among same-time ties,
//! // and picking 0 is FIFO.
//! let mut clock: Clock<&str> = Clock::new();
//! clock.schedule(SimTime::new(2.0), "later");
//! clock.schedule(SimTime::new(1.0), "sooner");
//! assert_eq!(clock.next_with(&mut |_| 0).unwrap().1, "sooner");
//! ```

#![warn(missing_docs)]

mod batch;
mod engine;
mod event;
mod stats;
mod time;

pub use batch::run_replicas;
pub use engine::{EngineId, EnginePool, Reservation};
pub use event::{selected_backend, Clock, EventQueue, QueueBackend, QUEUE_ENV};
pub use stats::imbalance;
pub use time::{Duration, SimTime};
