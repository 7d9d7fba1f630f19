//! The front-door API for simulated runs: [`SimSession`].
//!
//! One builder wires the executor for every caller — runs, bounded runs,
//! the Fig. 2 bandwidth matrix — instead of ad-hoc plumbing per bench
//! binary:
//!
//! ```
//! use xk_runtime::{RuntimeConfig, SimSession};
//! use xk_runtime::task::{Access, TaskAccess};
//! use xk_kernels::perfmodel::TileOp;
//!
//! let mut graph = xk_runtime::TaskGraph::new();
//! let c = graph.add_host_tile(32 << 20, true, "C(0,0)");
//! graph.add_task(
//!     TileOp::Gemm { m: 2048, n: 2048, k: 2048 },
//!     vec![TaskAccess { handle: c, access: Access::ReadWrite }],
//!     "gemm C(0,0)",
//! );
//!
//! let topo = xk_topo::dgx1();
//! let run = SimSession::on(&topo)
//!     .config(RuntimeConfig::xkblas())
//!     .run(&graph);
//! assert_eq!(run.outcome().tasks_run, 1);
//! assert!(run.metrics().is_some()); // link occupancy, critical path, ...
//! ```

use xk_topo::FabricSpec;

use crate::attribution::{link_attribution, Attribution};
use crate::bound::{makespan_lower_bound, MakespanBound};
use crate::config::RuntimeConfig;
use crate::graph::TaskGraph;
use crate::obs::{ObsLevel, ObsReport};
use crate::choice::ScheduleController;
use crate::error::Error;
use crate::sim_exec::{bandwidth_matrix_of, LinkFault, SimExecutor, SimOutcome, SimPrep};
use xk_trace::Trace;

/// A configured simulation session on one topology: the single entry point
/// for running task graphs and probing the machine model.
///
/// Cheap to build and `Clone`-free by design — it borrows the topology and
/// owns only the configuration, so a session can be kept around and used
/// for many runs.
#[derive(Debug)]
pub struct SimSession<'t> {
    topo: &'t FabricSpec,
    cfg: RuntimeConfig,
    obs: ObsLevel,
    fault: Option<LinkFault>,
}

impl<'t> SimSession<'t> {
    /// Starts a session on `topo` with the XKBlas-like default
    /// configuration and [`ObsLevel::Full`] observability (the default).
    pub fn on(topo: &'t FabricSpec) -> Self {
        SimSession {
            topo,
            cfg: RuntimeConfig::xkblas(),
            obs: ObsLevel::default(),
            fault: None,
        }
    }

    /// Replaces the runtime configuration.
    pub fn config(mut self, cfg: RuntimeConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the observability level for subsequent runs. Observability
    /// never changes simulation results — traces are bit-identical across
    /// levels.
    pub fn observe(mut self, level: ObsLevel) -> Self {
        self.obs = level;
        self
    }

    /// Injects a [`LinkFault`] into subsequent runs: the modelled link dies
    /// mid-simulation, and affected tasks complete as failed
    /// ([`SimOutcome::failures`]) instead of deadlocking their waiters.
    pub fn link_fault(mut self, fault: LinkFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Simulates `graph` to completion.
    pub fn run(&self, graph: &TaskGraph) -> Run {
        Run { outcome: self.executor(graph).run(), bound: None }
    }

    /// Simulates `graph` under a makespan budget:
    /// `Err(Error::OverBudget)` when its makespan exceeds `budget` seconds,
    /// as soon as a lower bound on it proves so; else the run
    /// [`SimSession::run`] gives (see [`SimExecutor::run_within`]).
    pub fn run_within(&self, graph: &TaskGraph, budget: f64) -> Result<Run, Error> {
        Ok(Run { outcome: self.executor(graph).run_within(budget)?, bound: None })
    }

    /// [`SimSession::run`]. Kept only for `benchmark/`; a benchmark PR deletes it.
    pub fn run_prepped(&self, graph: &TaskGraph, _prep: &SimPrep) -> Run {
        self.run(graph)
    }

    /// Simulates `graph` under a [`ScheduleController`]: every
    /// nondeterministic tie is resolved by `ctrl` (see
    /// [`SimExecutor::control`]). The run's trace records what happened.
    pub fn run_controlled(&self, graph: &TaskGraph, ctrl: &mut dyn ScheduleController) -> Run {
        Run { outcome: self.executor(graph).control(ctrl).run(), bound: None }
    }

    /// An executor of `graph` at the session's observability level, with
    /// its fault if any: the one path behind every `run*` entry point.
    fn executor<'g>(&'g self, graph: &'g TaskGraph) -> SimExecutor<'g> {
        let exec = SimExecutor::new(graph, self.topo, &self.cfg).observe(self.obs);
        match self.fault {
            Some(fault) => exec.with_fault(fault),
            None => exec,
        }
    }

    /// Point-to-point bandwidth matrix of the session's topology, GB/s,
    /// from one `bytes`-sized transfer per device pair on an idle machine
    /// (regenerates the paper's Fig. 2 from the model).
    pub fn bandwidth_matrix(&self, bytes: u64) -> Vec<Vec<f64>> {
        bandwidth_matrix_of(self.topo, bytes)
    }

    /// Schedule-free makespan lower bound for `graph` on this session's
    /// topology and configuration (see [`crate::bound`]). The bound holds
    /// for *every* schedule the simulator can produce, so it never changes
    /// with heuristics, scheduler kind or controller decisions.
    pub fn lower_bound(&self, graph: &TaskGraph) -> MakespanBound {
        makespan_lower_bound(graph, self.topo, &self.cfg)
    }

    /// Like [`SimSession::run`] but also computes the makespan lower bound,
    /// so the returned [`Run`] can report its optimality gap directly.
    pub fn run_bounded(&self, graph: &TaskGraph) -> Run {
        let mut run = self.run(graph);
        run.bound = Some(self.lower_bound(graph));
        run
    }

    /// Shapley-style per-NVLink-edge value attribution of the throughput
    /// this session achieves on `graph` (see [`crate::attribution`]).
    /// `samples == 0` picks exhaustive enumeration on small meshes;
    /// `seed` makes sampled attributions reproducible.
    pub fn attribute_links(&self, graph: &TaskGraph, samples: usize, seed: u64) -> Attribution {
        link_attribution(graph, self.topo, &self.cfg, samples, seed)
    }
}

/// A completed simulated run, as returned by [`SimSession::run`].
#[derive(Clone, Debug)]
pub struct Run {
    outcome: SimOutcome,
    bound: Option<MakespanBound>,
}

impl Run {
    /// The raw outcome (makespan, byte counters, trace, observability).
    pub fn outcome(&self) -> &SimOutcome {
        &self.outcome
    }

    /// The execution trace.
    pub fn trace(&self) -> &Trace {
        &self.outcome.trace
    }

    /// The observability report; `None` when the session ran at
    /// [`ObsLevel::Off`].
    pub fn metrics(&self) -> Option<&ObsReport> {
        self.outcome.obs.as_ref()
    }

    /// The makespan lower bound; `Some` only for runs started with
    /// [`SimSession::run_bounded`].
    pub fn lower_bound(&self) -> Option<&MakespanBound> {
        self.bound.as_ref()
    }

    /// Relative optimality gap of this run's makespan against the lower
    /// bound (`0` = provably optimal). `None` unless the run came from
    /// [`SimSession::run_bounded`] (or the workload is empty).
    pub fn optimality_gap(&self) -> Option<f64> {
        self.bound.as_ref().and_then(|b| b.gap(self.outcome.makespan))
    }

    /// Unwraps into the owned [`SimOutcome`].
    pub fn into_outcome(self) -> SimOutcome {
        self.outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataInfo;
    use crate::task::{Access, TaskAccess};
    use xk_kernels::perfmodel::TileOp;
    use xk_topo::dgx1;

    fn graph() -> TaskGraph {
        let mut g = TaskGraph::new();
        let shared = g.add_host_tile(32 << 20, true, "A");
        for i in 0..4 {
            let c = g.add_data(DataInfo::host(32 << 20, true, format!("C{i}")).with_owner(i));
            g.add_task(
                TileOp::Gemm { m: 2048, n: 2048, k: 2048 },
                vec![
                    TaskAccess { handle: shared, access: Access::Read },
                    TaskAccess { handle: c, access: Access::ReadWrite },
                ],
                format!("t{i}"),
            );
        }
        g
    }

    #[test]
    fn observe_level_controls_metrics() {
        let topo = dgx1();
        let g = graph();
        let off = SimSession::on(&topo).observe(ObsLevel::Off).run(&g);
        assert!(off.metrics().is_none());
        let full = SimSession::on(&topo).observe(ObsLevel::Full).run(&g);
        let m = full.metrics().expect("full level records a report");
        assert!(!m.links.is_empty());
        assert_eq!(m.critical_path.length.to_bits(), full.outcome().makespan.to_bits());
        let default = SimSession::on(&topo).run(&g);
        assert_eq!(default.metrics(), Some(m), "the default level is Full");
    }

    #[test]
    fn run_bounded_reports_a_nonnegative_gap() {
        let topo = dgx1();
        let g = graph();
        let plain = SimSession::on(&topo).run(&g);
        assert!(plain.lower_bound().is_none());
        assert!(plain.optimality_gap().is_none());
        let bounded = SimSession::on(&topo).run_bounded(&g);
        let b = bounded.lower_bound().expect("bound computed");
        assert!(b.total > 0.0);
        assert!(b.admits(bounded.outcome().makespan, 1e-9));
        assert!(bounded.optimality_gap().unwrap() >= -1e-9);
        // Bounding never perturbs the simulation itself.
        assert_eq!(
            plain.outcome().makespan.to_bits(),
            bounded.outcome().makespan.to_bits()
        );
    }

    /// A controller and a fault share one run path: the canonical
    /// controller under a dead link is the uncontrolled faulty run.
    #[test]
    fn canonical_controller_under_a_link_fault_is_the_plain_run() {
        let topo = dgx1();
        let mut g = TaskGraph::new();
        let shared = g.add_host_tile(32 << 20, true, "A");
        for owner in [0, 4] {
            let c = g.add_data(DataInfo::host(32 << 20, true, format!("C{owner}")).with_owner(owner));
            g.add_task(
                TileOp::Gemm { m: 512, n: 512, k: 512 },
                vec![
                    TaskAccess { handle: shared, access: Access::Read },
                    TaskAccess { handle: c, access: Access::ReadWrite },
                ],
                format!("t{owner}"),
            );
        }
        let session = SimSession::on(&topo)
            .config(RuntimeConfig::xkblas().with_scheduler(crate::SchedulerKind::StaticOwner))
            .link_fault(LinkFault { src: 0, dst: 4, at: 0.0 });
        let plain = session.run(&g).into_outcome();
        let controlled =
            session.run_controlled(&g, &mut crate::CanonicalController).into_outcome();
        let dead = crate::Error::LinkDown { src: 0, dst: 4 };
        assert_eq!(plain.failures, vec![(1, dead)], "the fault must bite");
        assert_eq!(controlled.failures, plain.failures);
        assert_eq!(controlled.makespan.to_bits(), plain.makespan.to_bits());
        assert_eq!(controlled.trace.spans(), plain.trace.spans());
    }

    /// Under a link fault a failed task completes without its kernel, so
    /// the progress bound would count seconds that never run: the budget's
    /// verdict is read off the finished run instead. Here t2's big kernel
    /// is still unlaunched when t1 completes, and it never runs.
    #[test]
    fn under_a_link_fault_a_budget_judges_the_finished_run() {
        let topo = dgx1();
        let mut g = TaskGraph::new();
        let shared = g.add_host_tile(32 << 20, true, "A");
        let c0 = g.add_data(DataInfo::host(32 << 20, true, "C0").with_owner(0));
        let c4 = g.add_data(DataInfo::host(32 << 20, true, "C4").with_owner(4));
        let small = TileOp::Gemm { m: 512, n: 512, k: 512 };
        let rw = |handle| TaskAccess { handle, access: Access::ReadWrite };
        let read = |handle| TaskAccess { handle, access: Access::Read };
        g.add_task(small, vec![read(shared), rw(c0)], "t0");
        g.add_task(small, vec![rw(c4)], "t1");
        let big = TileOp::Gemm { m: 8192, n: 8192, k: 8192 };
        g.add_task(big, vec![read(shared), rw(c4)], "t2");
        let session = SimSession::on(&topo)
            .config(RuntimeConfig::xkblas().with_scheduler(crate::SchedulerKind::StaticOwner))
            .link_fault(LinkFault { src: 0, dst: 4, at: 0.0 });
        let plain = session.run(&g).into_outcome();
        let dead = crate::Error::LinkDown { src: 0, dst: 4 };
        assert_eq!(plain.failures, vec![(2, dead)], "the fault must bite");
        // What the bound would have read after t1: t2's kernel alone,
        // spread over eight GPUs, outlasts the whole run.
        let t2_alone = g.kernel_seconds(&RuntimeConfig::xkblas().gpu_model)[2];
        assert!(t2_alone / 8.0 > plain.makespan, "{t2_alone} vs {}", plain.makespan);
        let within = session.run_within(&g, plain.makespan).unwrap().into_outcome();
        assert_eq!(within.makespan.to_bits(), plain.makespan.to_bits());
        assert_eq!(within.trace.spans(), plain.trace.spans());
        assert_eq!(within.failures, plain.failures);
        let short = session.run_within(&g, plain.makespan * (1.0 - 1e-6));
        assert_eq!(short.err(), Some(crate::Error::OverBudget));
    }

    #[test]
    fn run_into_outcome_round_trips() {
        let topo = dgx1();
        let run = SimSession::on(&topo).run(&graph());
        let makespan = run.outcome().makespan;
        let outcome = run.into_outcome();
        assert_eq!(outcome.makespan, makespan);
    }
}
