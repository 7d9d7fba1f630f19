//! # xk-runtime — the XKaapi-like data-flow task runtime
//!
//! The reproduction of the runtime layer of the paper: tasks with
//! read/write accesses on tiles, automatic dependency inference, a
//! multi-GPU software cache with a MOSI + *UnderTransfer* protocol, and the
//! paper's two contributions at their original interface:
//!
//! * [`heuristics::select_source`] — topology-aware source selection
//!   (§III-B) and the optimistic device-to-device heuristic (§III-C),
//!   toggled by [`Heuristics`] exactly as the ablation of Fig. 3 does.
//!
//! Two executors consume the same [`TaskGraph`]:
//!
//! * [`SimSession`] — the front door to a deterministic discrete-event
//!   simulation of a multi-GPU node (the substitution for the paper's
//!   DGX-1), producing a makespan, an [`xk_trace::Trace`] and — unless
//!   observability is [`ObsLevel::Off`] — an [`ObsReport`] with link
//!   occupancy, contention wait and the critical path;
//! * [`run_parallel`] — a pool of host threads sharing one ready queue
//!   that actually executes the tile kernels on host memory, validating
//!   the numerics.
//!
//! ```
//! use xk_runtime::{RuntimeConfig, SimSession, TaskGraph};
//! use xk_runtime::task::{Access, TaskAccess};
//! use xk_kernels::perfmodel::TileOp;
//!
//! let mut graph = TaskGraph::new();
//! let c = graph.add_host_tile(32 << 20, true, "C(0,0)");
//! graph.add_task(
//!     TileOp::Gemm { m: 2048, n: 2048, k: 2048 },
//!     vec![TaskAccess { handle: c, access: Access::ReadWrite }],
//!     "gemm C(0,0)",
//! );
//! let topo = xk_topo::dgx1();
//! let run = SimSession::on(&topo)
//!     .config(RuntimeConfig::xkblas())
//!     .run(&graph);
//! assert_eq!(run.outcome().tasks_run, 1);
//! let report = run.metrics().unwrap();
//! assert_eq!(report.critical_path.length, run.outcome().makespan);
//! ```

#![warn(missing_docs)]

pub mod attribution;
pub mod bound;
pub mod cache;
pub mod choice;
pub mod config;
pub mod data;
pub mod error;
pub mod graph;
pub mod heuristics;
pub mod machine;
pub mod obs;
pub mod par_exec;
pub mod sched;
pub mod session;
pub(crate) mod sim_exec;
pub mod task;

pub use attribution::{link_attribution, Attribution, LinkValue};
pub use bound::{makespan_lower_bound, MakespanBound};
pub use cache::{Eviction, ReplicaState, SoftwareCache};
pub use choice::{ChoicePoint, ScheduleController};
#[cfg(test)]
pub(crate) use choice::CanonicalController;
pub use config::{Heuristics, RuntimeConfig, SchedulerKind};
pub use data::{DataInfo, DataRegistry, HandleId};
pub use error::Error;
pub use graph::TaskGraph;
pub use machine::Machine;
pub use obs::{CriticalPath, GpuObs, LinkStats, ObsLevel, ObsReport};
pub use par_exec::{run_parallel, ParOutcome};
pub use session::{Run, SimSession};
pub use par_exec::run_controlled;
pub use sim_exec::{LinkFault, SimExecutor, SimOutcome, SimPrep};
pub use task::{Access, Task, TaskAccess, TaskAccesses, TaskId, TaskKind, TaskLabel};
