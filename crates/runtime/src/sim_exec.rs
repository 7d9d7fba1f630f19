//! The simulated executor: runs a task graph on a modelled multi-GPU node.
//!
//! This is the substitution for the paper's DGX-1 (see DESIGN.md §2): a
//! deterministic discrete-event simulation where
//!
//! * each GPU has one inbound and one outbound copy engine plus one kernel
//!   engine,
//! * each PCIe switch uplink and the inter-socket link are shared engines
//!   (so host traffic of two GPUs on one switch *actually* contends),
//! * transfer sources are chosen by the paper's heuristics
//!   ([`crate::heuristics::select_source`]),
//! * kernel durations come from the calibrated V100 model.
//!
//! The output is a makespan plus a full [`xk_trace::Trace`] from which the
//! paper's figures are regenerated.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use xk_sim::{Clock, Duration, EngineId, EnginePool, Reservation, SimTime};
use xk_topo::{Device, FabricSpec};
use xk_trace::{FlowId, Span, SpanKind, Trace};

use crate::cache::{Eviction, SoftwareCache};
use crate::choice::{ChoicePoint, ScheduleController};
use crate::config::RuntimeConfig;
use crate::data::HandleId;
use crate::error::Error;
use crate::graph::{TaskGraph, TraceLabels};
use crate::heuristics::{select_source, SourceDecision};
use crate::machine::Machine;
use crate::obs::{GpuObs, ObsLevel, ObsRecorder, ObsReport};
use crate::sched::{Placement, SchedView};
use crate::task::{TaskId, TaskKind};

/// Sentinel for "no observability node".
const NO_NODE: u32 = u32::MAX;
/// Sentinel for "no GPU" in [`TaskState`].
const NO_GPU: u16 = u16::MAX;

/// Result of a simulated run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// End-to-end simulated time in seconds (last event).
    pub makespan: f64,
    /// Full execution trace.
    pub trace: Trace,
    /// Bytes moved host→device.
    pub bytes_h2d: u64,
    /// Bytes moved device→host.
    pub bytes_d2h: u64,
    /// Bytes moved device→device.
    pub bytes_p2p: u64,
    /// Number of tasks executed.
    pub tasks_run: usize,
    /// Number of tasks executed on a GPU other than their owner hint
    /// (work-stealing migrations).
    pub steals: usize,
    /// Link occupancy / contention / critical-path report; `None` when the
    /// run was recorded at [`ObsLevel::Off`].
    pub obs: Option<ObsReport>,
    /// Tasks that completed *as failed* (task id, error), in task order.
    /// Empty unless a fault was injected (`SimExecutor::with_fault`): a
    /// waiter on a transfer that died mid-flight surfaces the transfer's
    /// error here instead of hanging, and the failure cascades to
    /// dependents.
    pub failures: Vec<(usize, Error)>,
}

impl SimOutcome {
    /// Converts a flop count into achieved TFlop/s for this run.
    pub fn tflops(&self, flops: f64) -> f64 {
        if self.makespan <= 0.0 {
            0.0
        } else {
            flops / self.makespan / 1e12
        }
    }
}

/// A modelled hardware fault: the directed device-to-device link
/// `src -> dst` dies at `at` seconds. Any D2D transfer on that link still
/// in flight at (or reserved after) that instant fails; waiters surface
/// [`Error::LinkDown`] and the failure propagates along forwards and task
/// dependencies instead of deadlocking the run.
#[derive(Clone, Copy, Debug)]
pub struct LinkFault {
    /// Source GPU of the failing directed link.
    pub src: usize,
    /// Destination GPU of the failing directed link.
    pub dst: usize,
    /// Simulated time (seconds) at which the link goes down.
    pub at: f64,
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// A task's kernel (or flush) completed.
    TaskDone(TaskId),
    /// A GPU should try to start queued work.
    TryLaunch(usize),
}

/// Everything the event loop reads or writes per task, packed into a
/// quarter of a cache line so readiness, launch and completion touch one
/// line per task.
#[derive(Clone, Copy)]
struct TaskState {
    /// Modelled kernel seconds ([`TaskGraph::kernel_seconds`]; 0 for a flush).
    kernel_seconds: f64,
    /// Unsatisfied predecessors.
    pending: u32,
    /// GPU the task is queued or running on ([`NO_GPU`] until assigned);
    /// from launch to completion its working set is pinned there.
    assigned: u16,
}

/// Fault-injection state. Exists only on runs started with
/// [`SimExecutor::with_fault`]: without it no transfer can fail, so no
/// replica is ever poisoned and no task ever completes as failed.
struct FaultState {
    fault: LinkFault,
    /// Replicas poisoned by a failed transfer: `(handle, gpu) -> error`.
    failed_replicas: HashMap<(usize, usize), Error>,
    /// Per-task failure state (inherited along dependencies).
    task_failed: Vec<Option<Error>>,
}

impl FaultState {
    /// Marks `t` failed with the poison of replica `(h, g)`, if any and if
    /// `t` has not already failed for another reason.
    fn fail_on_poison(&mut self, t: TaskId, h: HandleId, g: usize) -> bool {
        let Some(e) = self.failed_replicas.get(&(h.0, g)) else {
            return false;
        };
        if self.task_failed[t.0].is_none() {
            self.task_failed[t.0] = Some(e.clone());
        }
        true
    }

    /// Settles the destination replica of a D2D transfer ending at `end`.
    /// A transfer sourced from a poisoned replica carries the poison (an
    /// optimistic forward of a dead transfer is dead too), and a transfer
    /// still on the wire when its own link dies fails outright. A good
    /// transfer refreshes the destination.
    fn settle_p2p(&mut self, h: HandleId, src: usize, dst: usize, end: SimTime) {
        let f = self.fault;
        let error = match self.failed_replicas.get(&(h.0, src)) {
            Some(inherited) => inherited.clone(),
            None if f.src == src && f.dst == dst && end.seconds() > f.at => {
                Error::LinkDown { src, dst }
            }
            None => {
                self.failed_replicas.remove(&(h.0, dst));
                return;
            }
        };
        self.failed_replicas.insert((h.0, dst), error);
    }
}

/// The executor's one decision path. Every choice point builds its
/// candidates in canonical order and asks [`Decider::choose`]; without a
/// [`ScheduleController`] the answer is candidate 0, the canonical rule.
struct Decider<'a>(Option<&'a mut dyn ScheduleController>);

impl Decider<'_> {
    /// Picks one of `n` candidates at `point`: the controller's answer
    /// (clamped to the last) when one is attached and there is a choice,
    /// else 0.
    fn choose(&mut self, point: ChoicePoint, n: usize) -> usize {
        match &mut self.0 {
            Some(c) if n >= 2 => c.choose(point, n).min(n - 1),
            _ => 0,
        }
    }
}

#[derive(Default)]
struct GpuState {
    queue: VecDeque<TaskId>,
    in_flight: usize,
    /// High-water mark of `queue.len()` (queue-depth-over-time summary).
    max_queue: usize,
    /// High-water mark of `in_flight`.
    max_in_flight: usize,
}

/// The simulated executor.
pub struct SimExecutor<'a> {
    graph: &'a TaskGraph,
    cfg: &'a RuntimeConfig,
    /// The fabric's engines and transfer rules; `pool` is laid out by it.
    machine: Machine<'a>,
    pool: EnginePool,
    gpus: Vec<GpuState>,
    cache: SoftwareCache,
    clock: Clock<Ev>,
    /// Per-task run state, indexed by `TaskId.0`.
    tasks: Vec<TaskState>,
    /// Kernel seconds assigned-but-not-finished per GPU (dmdas input).
    committed: Vec<f64>,
    placement: Placement,
    trace: Trace,
    /// The graph's trace labels; this run raises their span hint.
    labels: &'a TraceLabels,
    /// Scratch buffers reused across scheduling steps so the event loop
    /// stays allocation-free after warm-up.
    scratch_avail: Vec<SimTime>,
    scratch_handles: Vec<HandleId>,
    scratch_engines: Vec<EngineId>,
    scratch_sources: Vec<usize>,
    /// Flow chain of each handle's current broadcast: set by the H2D (or
    /// first D2D) that brought the tile on device, inherited by forwards,
    /// consuming kernels and write-backs. Always maintained — flat `u32`
    /// writes — so traces are identical across observability levels.
    flow_root: Vec<FlowId>,
    /// What the run records ([`SimExecutor::observe`]).
    level: ObsLevel,
    /// Occupancy/contention/critical-path recorder; built when a `Full`
    /// run starts, `None` at [`ObsLevel::Off`].
    obs: Option<ObsRecorder>,
    /// Resolves every choice point; canonical unless a controller is
    /// attached ([`SimExecutor::control`]).
    ctrl: Decider<'a>,
    /// Injected link fault and the failures it caused, if any.
    fault: Option<FaultState>,
    /// Kernel seconds of the tasks not launched yet: the `unstarted` term
    /// of [`SimExecutor::run_within`]'s progress bound.
    unstarted: f64,
    bytes_h2d: u64,
    bytes_d2h: u64,
    bytes_p2p: u64,
    tasks_done: usize,
    steals: usize,
}

/// A field-less token kept only for `benchmark/`; a benchmark PR deletes it.
pub struct SimPrep;

impl SimPrep {
    /// [`TaskGraph::finalize`]. Kept only for `benchmark/`; a benchmark PR deletes it.
    pub fn new(graph: &TaskGraph) -> Self {
        graph.finalize();
        SimPrep
    }
}

impl<'a> SimExecutor<'a> {
    /// Prepares an executor for one run, observing at [`ObsLevel::Full`].
    /// The graph's successor CSR and trace labels are derived on its first
    /// run and shared by every later one (see [`TaskGraph::finalize`]).
    ///
    /// # Panics
    /// Panics if the fabric has `u16::MAX` GPUs or more.
    pub fn new(graph: &'a TaskGraph, topo: &'a FabricSpec, cfg: &'a RuntimeConfig) -> Self {
        let n = topo.n_gpus();
        assert!(n < NO_GPU as usize, "{n} GPUs do not fit the per-task record");
        let tasks: Vec<TaskState> = graph
            .pred_counts()
            .zip(graph.kernel_seconds_iter(&cfg.gpu_model))
            .map(|(pending, kernel_seconds)| TaskState {
                kernel_seconds,
                pending: pending as u32,
                assigned: NO_GPU,
            })
            .collect();
        let unstarted = tasks.iter().map(|s| s.kernel_seconds).sum();
        let machine = Machine::new(topo);
        let pool = EnginePool::new(machine.n_engines());
        let gpus = (0..n).map(|_| GpuState::default()).collect();
        let cache = SoftwareCache::new(n, cfg.gpu_memory, graph.data());
        let labels = graph.trace_labels();
        SimExecutor {
            graph,
            cfg,
            machine,
            pool,
            gpus,
            cache,
            // Each task typically produces a TaskDone plus a handful of
            // TryLaunch events; pre-reserving avoids heap regrowth
            // mid-run.
            clock: Clock::with_capacity(graph.len().saturating_mul(4).max(64)),
            tasks,
            committed: vec![0.0; n],
            placement: Placement::new(cfg.scheduler),
            trace: Trace::with_labels(
                Arc::clone(&labels.table),
                labels.span_hint.load(Ordering::Relaxed),
            ),
            labels,
            scratch_avail: Vec::with_capacity(n),
            scratch_handles: Vec::new(),
            scratch_engines: Vec::new(),
            scratch_sources: Vec::with_capacity(n),
            flow_root: vec![FlowId::NONE; graph.data().len()],
            level: ObsLevel::Full,
            obs: None,
            ctrl: Decider(None),
            fault: None,
            unstarted,
            bytes_h2d: 0,
            bytes_d2h: 0,
            bytes_p2p: 0,
            tasks_done: 0,
            steals: 0,
        }
    }

    /// [`SimExecutor::new`]. Kept only for `benchmark/`; a benchmark PR deletes it.
    pub fn with_prep(
        graph: &'a TaskGraph,
        topo: &'a FabricSpec,
        cfg: &'a RuntimeConfig,
        _prep: &SimPrep,
    ) -> Self {
        Self::new(graph, topo, cfg)
    }

    /// Sets the observability level for this run (default:
    /// [`ObsLevel::Full`]). Observability never changes the simulation —
    /// traces and makespans are bit-identical across levels. A `Full` run
    /// builds its recorder when it starts.
    pub fn observe(mut self, level: ObsLevel) -> Self {
        self.level = level;
        self
    }

    /// Attaches a [`ScheduleController`]: the executor consults it at every
    /// choice point with two or more candidates. The candidates and the
    /// code path are the same as without one, so a controller that always
    /// picks candidate 0 reproduces the canonical run bit for bit.
    pub fn control(mut self, ctrl: &'a mut dyn ScheduleController) -> Self {
        self.ctrl = Decider(Some(ctrl));
        self
    }

    /// Injects a link fault for this run (see [`LinkFault`]).
    pub(crate) fn with_fault(mut self, fault: LinkFault) -> Self {
        self.fault = Some(FaultState {
            fault,
            failed_replicas: HashMap::new(),
            task_failed: vec![None; self.graph.len()],
        });
        self
    }

    /// Injects a cache-coherence bug for mutation testing (`xk-check`
    /// proves its oracles catch the resulting stale reads).
    #[doc(hidden)]
    pub fn inject_cache_mutation(mut self, m: crate::cache::CoherenceMutation) -> Self {
        self.cache.inject_mutation(m);
        self
    }

    /// Runs the graph to completion and returns the outcome.
    pub fn run(self) -> SimOutcome {
        self.run_within(f64::INFINITY).expect("an infinite budget is never exceeded")
    }

    /// Runs the graph under a makespan budget: `Err(Error::OverBudget)`
    /// when the makespan exceeds `budget` seconds by more than a relative
    /// 1e-9, else the outcome [`SimExecutor::run`] gives, bit for bit.
    ///
    /// The run stops as soon as its progress bound proves the verdict.
    /// After every completed task that bound is
    /// `(Σ_g max(free_g, now) + unstarted) / n_gpus`, with `free_g` the
    /// time GPU `g`'s kernel engine frees and `unstarted` the kernel
    /// seconds of the tasks not launched yet. Kernel engines never
    /// back-fill and no kernel starts before the event that reserves it,
    /// so GPU `g` ends its kernels no earlier than `max(free_g, now)` plus
    /// those it has yet to run, and the last GPU to finish ends no earlier
    /// than their average. Under a [`LinkFault`] a failed task completes
    /// without its kernel, so `unstarted` over-counts: there the bound is
    /// off and the verdict is read off the finished run.
    pub fn run_within(mut self, budget: f64) -> Result<SimOutcome, Error> {
        let limit = budget * (1.0 + 1e-9);
        let bounded = limit.is_finite() && self.fault.is_none();
        if self.level == ObsLevel::Full {
            let (n_handles, n_tasks) = (self.graph.data().len(), self.graph.len());
            let n_gpus = self.gpus.len();
            self.obs = Some(ObsRecorder::new(self.pool.len(), n_handles, n_gpus, n_tasks));
        }
        // Roots: nothing decrements `pending` before the event loop starts.
        for t in 0..self.tasks.len() {
            if self.tasks[t].pending == 0 {
                self.on_ready(TaskId(t));
            }
        }
        loop {
            let ctrl = &mut self.ctrl;
            let tie = &mut |n| ctrl.choose(ChoicePoint::EventTieBreak, n);
            let Some((_, ev)) = self.clock.next_with(tie) else { break };
            match ev {
                Ev::TryLaunch(g) => self.try_launch(g),
                Ev::TaskDone(t) => {
                    self.on_done(t);
                    if bounded && self.progress_bound() > limit {
                        return Err(Error::OverBudget);
                    }
                }
            }
        }
        assert_eq!(
            self.tasks_done,
            self.graph.len(),
            "deadlock: {} of {} tasks completed",
            self.tasks_done,
            self.graph.len()
        );
        // Every assigned kernel second was taken back at completion, on
        // the GPU that ran it: a steal moves the seconds with the task.
        debug_assert!({
            let total: f64 = self.tasks.iter().map(|s| s.kernel_seconds).sum();
            self.committed.iter().all(|c| c.abs() <= 1e-9 * total)
        });
        self.labels.span_hint.fetch_max(self.trace.len(), Ordering::Relaxed);
        let makespan = self.trace.makespan();
        if makespan > limit {
            return Err(Error::OverBudget);
        }
        let obs = self.obs.take().map(|recorder| {
            let gpu_rows: Vec<GpuObs> = self
                .gpus
                .iter()
                .enumerate()
                .map(|(g, s)| GpuObs {
                    gpu: g,
                    kernel_busy: self.pool.busy_total(self.machine.kernel(g)).seconds(),
                    max_queue: s.max_queue,
                    max_in_flight: s.max_in_flight,
                })
                .collect();
            recorder.into_report(&self.trace, &self.pool, &self.machine, makespan, gpu_rows)
        });
        let failures: Vec<(usize, Error)> = self.fault.map_or_else(Vec::new, |f| {
            let failed = f.task_failed.into_iter().enumerate();
            failed.filter_map(|(i, e)| Some((i, e?))).collect()
        });
        Ok(SimOutcome {
            makespan,
            trace: self.trace,
            bytes_h2d: self.bytes_h2d,
            bytes_d2h: self.bytes_d2h,
            bytes_p2p: self.bytes_p2p,
            tasks_run: self.tasks_done,
            steals: self.steals,
            obs,
            failures,
        })
    }

    /// A lower bound on the final makespan (see [`SimExecutor::run_within`]).
    fn progress_bound(&self) -> f64 {
        let now = self.clock.now();
        let engaged: f64 = (0..self.gpus.len())
            .map(|g| self.pool.free_at(self.machine.kernel(g)).max(now).seconds())
            .sum();
        (engaged + self.unstarted) / self.gpus.len() as f64
    }

    fn on_ready(&mut self, t: TaskId) {
        if self.graph.kind(t) == TaskKind::Flush {
            self.run_flush(t);
            return;
        }
        let g = {
            let mut avail = std::mem::take(&mut self.scratch_avail);
            avail.clear();
            avail.extend((0..self.gpus.len()).map(|g| self.pool.free_at(self.machine.kernel(g))));
            let view = SchedView {
                now: self.clock.now(),
                gpu_available: &avail,
                gpu_committed: &self.committed,
                topo: self.machine.topo(),
                cache: &self.cache,
                kernel_seconds: self.tasks[t.0].kernel_seconds,
            };
            let g = self.placement.assign(t, self.graph, &view);
            self.scratch_avail = avail;
            g
        };
        self.tasks[t.0].assigned = g as u16;
        self.committed[g] += self.tasks[t.0].kernel_seconds;
        self.gpus[g].queue.push_back(t);
        self.gpus[g].max_queue = self.gpus[g].max_queue.max(self.gpus[g].queue.len());
        self.clock.schedule(self.clock.now(), Ev::TryLaunch(g));
        // Under work stealing, idle peers must get a chance to pick this
        // task up if the owner is saturated.
        if self.placement.steals() {
            for other in 0..self.gpus.len() {
                if other != g && self.gpus[other].in_flight == 0 {
                    self.clock.schedule(self.clock.now(), Ev::TryLaunch(other));
                }
            }
        }
    }

    fn try_launch(&mut self, g: usize) {
        loop {
            if self.gpus[g].in_flight >= self.cfg.window {
                return;
            }
            let next = if let Some(t) = self.pop_ready(g) {
                t
            } else if self.placement.steals() && self.gpus[g].in_flight == 0 {
                // Steal only when truly idle, one task at a time — XKaapi
                // steals on idleness, it does not hoard.
                match self.pick_steal_victim(g) {
                    Some(v) => {
                        // Steal the most recently pushed task (cold end).
                        let t = self.gpus[v].queue.pop_back().expect("victim non-empty");
                        self.steals += 1;
                        self.tasks[t.0].assigned = g as u16;
                        let secs = self.tasks[t.0].kernel_seconds;
                        self.committed[v] -= secs;
                        self.committed[g] += secs;
                        t
                    }
                    None => return,
                }
            } else {
                return;
            };
            self.launch(next, g);
        }
    }

    /// Takes the next ready task from `g`'s queue, candidates in queue
    /// order: canonically the front.
    fn pop_ready(&mut self, g: usize) -> Option<TaskId> {
        let idx = self.ctrl.choose(ChoicePoint::ReadyTaskPick, self.gpus[g].queue.len());
        self.gpus[g].queue.remove(idx)
    }

    /// Picks a steal victim for idle GPU `g` among the non-empty peer
    /// queues, longest first (lowest index on ties): canonically the
    /// longest.
    fn pick_steal_victim(&mut self, g: usize) -> Option<usize> {
        let gpus = &self.gpus;
        let candidates = &mut self.scratch_sources;
        candidates.clear();
        candidates.extend((0..gpus.len()).filter(|&v| v != g && !gpus[v].queue.is_empty()));
        candidates.sort_unstable_by_key(|&v| (std::cmp::Reverse(gpus[v].queue.len()), v));
        let k = self.ctrl.choose(ChoicePoint::StealVictim, candidates.len());
        candidates.get(k).copied()
    }

    /// Acquires all inputs of `t` on GPU `g` at launch (capacity,
    /// transfers, output residency) and pins its working set until the task
    /// completes; returns when the last input becomes usable plus the
    /// observability node and flow chain of the *binding* input (the one
    /// whose arrival dominates). A working set that does not fit next to
    /// the pinned tiles of the other running tasks is admitted anyway.
    fn acquire_inputs(&mut self, t: TaskId, g: usize) -> (SimTime, u32, FlowId) {
        let now = self.clock.now();
        // Copy the graph reference: its borrows live for 'a, independently
        // of `&mut self`, so task accesses can be iterated without
        // collecting into fresh Vecs on every scheduling step.
        let graph = self.graph;
        let mut pins = std::mem::take(&mut self.scratch_handles);
        pins.clear();
        pins.extend(graph.accesses(t).map(|a| a.handle));
        for &h in &pins {
            self.cache.pin(h, g);
        }

        // Capacity: make room for every non-resident handle.
        let needed: u64 = pins
            .iter()
            .filter(|&&h| self.cache.replica(h, g).is_none())
            .map(|&h| graph.data().info(h).bytes)
            .sum();
        if needed > 0 {
            let ctrl = &mut self.ctrl;
            let pick = &mut |n| ctrl.choose(ChoicePoint::EvictionPick, n);
            let evictions = self.cache.make_room(g, needed, &pins, graph.data(), pick);
            for ev in evictions {
                if let Eviction::WriteBack(h) = ev {
                    self.issue_d2h(h, g, now);
                }
            }
        }
        self.scratch_handles = pins;

        // Input transfers. The strictly-later comparison keeps the *first*
        // dominating input on exact ties, deterministically.
        let mut input_ready = now;
        let mut dep = NO_NODE;
        let mut flow = FlowId::NONE;
        for h in graph.read_handles(t) {
            let (ready, node, f) = self.fetch(h, g, now);
            if ready > input_ready {
                input_ready = ready;
                dep = node;
                flow = f;
            }
            self.cache.touch(h, g);
        }
        // Write-only outputs just need residency.
        for h in graph.written_handles(t) {
            if self.cache.replica(h, g).is_none() {
                let bytes = graph.data().info(h).bytes;
                self.cache.allocate_output(h, g, bytes);
            }
        }
        (input_ready, dep, flow)
    }

    fn unpin_task(&mut self, t: TaskId, g: usize) {
        let graph = self.graph;
        for a in graph.accesses(t) {
            self.cache.unpin(a.handle, g);
        }
    }

    /// Issues the kernel of `t` on GPU `g`, the GPU it was assigned to or
    /// stolen by: its inputs are acquired there now, and the kernel starts
    /// once the last one arrives.
    fn launch(&mut self, t: TaskId, g: usize) {
        let graph = self.graph;
        let kernel_seconds = self.tasks[t.0].kernel_seconds;
        let (input_ready, dep, flow) = self.acquire_inputs(t, g);
        self.unstarted -= kernel_seconds;

        // Complete-as-failed: a task whose dependency failed, or whose
        // input replica was poisoned by a dead link, skips its kernel but
        // still schedules TaskDone (with the usual in-flight bookkeeping)
        // so the run drains instead of deadlocking a waiter on a transfer
        // that will never deliver.
        let failed = self.fault.as_mut().is_some_and(|f| {
            f.task_failed[t.0].is_some() || graph.read_handles(t).any(|h| f.fail_on_poison(t, h, g))
        });
        let done_at = if failed {
            self.clock.now().max(input_ready)
        } else {
            let dur = Duration::new(kernel_seconds);
            let label = self.labels.patterns[graph.label_pattern(t)];
            let span = Span::on_gpu(g, 3, SpanKind::Kernel, 0, label, flow);
            let span = Span { subject: t.0 as u32, ..span };
            let (res, idx) = self.occupy(&[self.machine.kernel(g)], input_ready, dur, span, dep);
            // The progress bound of `run_within` rests on this.
            debug_assert!(
                res.start >= self.clock.now(),
                "task {} reserved at {:?} a kernel starting at {:?}",
                t.0,
                self.clock.now(),
                res.start
            );
            if let Some(obs) = self.obs.as_mut() {
                // This kernel is now the op that makes its outputs valid here.
                for h in graph.written_handles(t) {
                    obs.set_valid_node(h.0, g, idx);
                }
            }
            res.end
        };
        self.gpus[g].in_flight += 1;
        self.gpus[g].max_in_flight = self.gpus[g].max_in_flight.max(self.gpus[g].in_flight);
        self.clock.schedule(done_at, Ev::TaskDone(t));
    }

    /// Ensures `h` is (or will be) valid on `g`; returns when it is usable,
    /// the observability node that makes it so, and its flow chain.
    fn fetch(&mut self, h: HandleId, g: usize, now: SimTime) -> (SimTime, u32, FlowId) {
        let machine = &self.machine;
        let pool = &self.pool;
        let ctrl = &mut self.ctrl;
        let mut tie = |candidates: &[usize]| -> usize {
            // Prefer the candidate whose outgoing channel to us frees first.
            let canonical = candidates
                .iter()
                .enumerate()
                .min_by_key(|(_, &c)| {
                    let engine = machine.brick(c, g).unwrap_or(machine.pcie_out(c));
                    (pool.free_at(engine), c)
                })
                .map(|(i, _)| i)
                .expect("non-empty candidates");
            // Candidate 0 of the choice is the canonical pick; the rest
            // keep ascending order with the canonical removed.
            match ctrl.choose(ChoicePoint::SourceTieBreak, candidates.len()) {
                0 => canonical,
                k => (0..candidates.len()).filter(|&i| i != canonical).nth(k - 1).expect("k < n"),
            }
        };
        let decision = select_source(
            h,
            g,
            now,
            &self.cache,
            self.machine.topo(),
            self.cfg.heuristics,
            &mut self.scratch_sources,
            &mut tie,
        );
        let info = self.graph.data().info(h);
        match decision {
            SourceDecision::AlreadyThere { ready_at } => {
                // Valid (or in flight) here already: the binding op is
                // whatever made/makes it valid, on this replica's chain.
                (ready_at, self.valid_node(h, g), self.flow_root[h.0])
            }
            SourceDecision::FromGpu { src } => self.issue_p2p(h, src, g, now, info.bytes),
            SourceDecision::ForwardAfter { via, ready_at } => {
                self.issue_p2p(h, via, g, now.max(ready_at), info.bytes)
            }
            SourceDecision::FromHost => {
                // An H2D read roots a fresh broadcast chain for this tile.
                let flow = FlowId(self.trace.len() as u32);
                self.flow_root[h.0] = flow;
                let span = self.transfer_span(g, 0, SpanKind::H2D, h, info.bytes, flow);
                // The source is host memory: no simulated predecessor.
                let (host, gpu) = (Device::Host, Device::Gpu(g));
                let (res, idx) = self.occupy_transfer(host, gpu, info.pitched, now, span, NO_NODE);
                self.cache.begin_transfer(h, g, info.bytes, res.end);
                self.bytes_h2d += info.bytes;
                self.set_valid_node(h, g, idx);
                // A fresh host copy replaces whatever poison a dead link
                // left on this replica (host links never fail in the model).
                if let Some(f) = self.fault.as_mut() {
                    f.failed_replicas.remove(&(h.0, g));
                }
                (res.end, idx, flow)
            }
        }
    }

    /// Observability node that made `h` valid on `g`, or [`NO_NODE`].
    fn valid_node(&self, h: HandleId, g: usize) -> u32 {
        self.obs.as_ref().map_or(NO_NODE, |obs| obs.valid_node(h.0, g))
    }

    /// Marks span `idx` as the op that made `h` valid on `g`.
    fn set_valid_node(&mut self, h: HandleId, g: usize, idx: u32) {
        if let Some(obs) = self.obs.as_mut() {
            obs.set_valid_node(h.0, g, idx);
        }
    }

    fn issue_p2p(
        &mut self,
        h: HandleId,
        src: usize,
        dst: usize,
        earliest: SimTime,
        bytes: u64,
    ) -> (SimTime, u32, FlowId) {
        // The forward depends on whatever put the tile on the source GPU —
        // for `ForwardAfter` that is the still-in-flight inbound H2D, i.e.
        // exactly the optimistic H2D → P2P chain of §III-C.
        let dep = self.valid_node(h, src);
        let mut flow = self.flow_root[h.0];
        if flow == FlowId::NONE {
            // Data-on-device tile never read from the host: the first
            // forward roots its chain.
            flow = FlowId(self.trace.len() as u32);
            self.flow_root[h.0] = flow;
        }
        let span = self.transfer_span(dst, 0, SpanKind::P2P, h, bytes, flow);
        let span = Span { peer: src as u16, ..span };
        // Device copies are compacted tiles (§III-A): never pitched.
        let (a, b) = (Device::Gpu(src), Device::Gpu(dst));
        let (res, idx) = self.occupy_transfer(a, b, false, earliest, span, dep);
        self.cache.begin_transfer(h, dst, bytes, res.end);
        self.bytes_p2p += bytes;
        self.set_valid_node(h, dst, idx);
        if let Some(f) = self.fault.as_mut() {
            f.settle_p2p(h, src, dst, res.end);
        }
        (res.end, idx, flow)
    }

    fn issue_d2h(&mut self, h: HandleId, g: usize, earliest: SimTime) -> SimTime {
        let info = self.graph.data().info(h);
        let dep = self.valid_node(h, g);
        let span = self.transfer_span(g, 2, SpanKind::D2H, h, info.bytes, self.flow_root[h.0]);
        let (gpu, host) = (Device::Gpu(g), Device::Host);
        let (res, _) = self.occupy_transfer(gpu, host, info.pitched, earliest, span, dep);
        self.bytes_d2h += info.bytes;
        res.end
    }

    /// A transfer span of handle `h` into (H2D, P2P) or out of (D2H) `gpu`.
    fn transfer_span(
        &self,
        gpu: usize,
        lane: u8,
        kind: SpanKind,
        h: HandleId,
        bytes: u64,
        flow: FlowId,
    ) -> Span {
        let label = self.labels.handles[h.0];
        Span { subject: h.0 as u32, ..Span::on_gpu(gpu, lane, kind, bytes, label, flow) }
    }

    /// Reserves `engines` for `dur` from `earliest` on, then records `span`
    /// (its times taken from the reservation) and the observability node
    /// that waited on `dep`. Returns the reservation and the span's index.
    fn occupy(
        &mut self,
        engines: &[EngineId],
        earliest: SimTime,
        dur: Duration,
        span: Span,
        dep: u32,
    ) -> (Reservation, u32) {
        let bound = if self.obs.is_some() { self.pool.bottleneck(engines, earliest) } else { None };
        let res = self.pool.reserve(engines, earliest, dur);
        let (start, end) = (res.start.seconds(), res.end.seconds());
        let idx = self.trace.len() as u32;
        if let Some(obs) = self.obs.as_mut() {
            obs.record(idx, engines, bound, start - earliest.seconds(), span.bytes, dep);
        }
        self.trace.push(Span { start, end, ..span });
        (res, idx)
    }

    /// Reserves the engines of a `src → dst` transfer of `span.bytes` for
    /// its modelled duration (both as [`Machine`] rules them), from
    /// `earliest` on; records it like [`SimExecutor::occupy`].
    fn occupy_transfer(
        &mut self,
        src: Device,
        dst: Device,
        pitched: bool,
        earliest: SimTime,
        span: Span,
        dep: u32,
    ) -> (Reservation, u32) {
        let secs = self.machine.transfer_seconds(src, dst, span.bytes, pitched);
        let mut engines = std::mem::take(&mut self.scratch_engines);
        engines.clear();
        engines.extend(self.machine.transfer_engines(src, dst));
        let out = self.occupy(&engines, earliest, Duration::new(secs), span, dep);
        self.scratch_engines = engines;
        out
    }

    /// Executes a flush task: DtoH for every dirty read handle.
    fn run_flush(&mut self, t: TaskId) {
        let now = self.clock.now();
        let graph = self.graph;
        let mut done = now;
        for h in graph.read_handles(t) {
            if let Some(g) = self.cache.dirty_on(h) {
                // A poisoned replica cannot be written back: the flush
                // surfaces the failure instead of shipping garbage.
                if self.fault.as_mut().is_some_and(|f| f.fail_on_poison(t, h, g)) {
                    continue;
                }
                let end = self.issue_d2h(h, g, now);
                self.cache.mark_flushed(h);
                done = done.max(end);
            }
        }
        self.clock.schedule(done, Ev::TaskDone(t));
    }

    fn on_done(&mut self, t: TaskId) {
        let graph = self.graph;
        let failed = self.fault.as_ref().is_some_and(|f| f.task_failed[t.0].is_some());
        if graph.kind(t) == TaskKind::Kernel {
            let state = self.tasks[t.0];
            let g = state.assigned as usize;
            self.unpin_task(t, g);
            if !failed {
                for h in graph.written_handles(t) {
                    let bytes = graph.data().info(h).bytes;
                    self.cache.mark_written(h, g, bytes, graph.data());
                    // A successful write produces a fresh version: stale
                    // poison on any replica of this handle is obsolete
                    // (the writer's copy is now the only valid one).
                    if let Some(f) = self.fault.as_mut() {
                        f.failed_replicas.retain(|&(hh, _), _| hh != h.0);
                    }
                }
            }
            self.committed[g] -= state.kernel_seconds;
            if !failed && !self.cfg.cache_inputs {
                // Re-read runtimes drop clean inputs right after use.
                for h in graph.read_handles(t) {
                    self.cache.drop_replica(h, g, graph.data());
                }
            }
            self.gpus[g].in_flight -= 1;
            self.clock.schedule(self.clock.now(), Ev::TryLaunch(g));
        }
        self.tasks_done += 1;
        if let Some(f) = self.fault.as_mut().filter(|_| failed) {
            // Dependents of a failed task fail with the same error.
            for s in graph.successors(t).iter() {
                if f.task_failed[s.0].is_none() {
                    f.task_failed[s.0] = f.task_failed[t.0].clone();
                }
            }
        }
        for s in graph.successors(t).iter() {
            self.tasks[s.0].pending -= 1;
            if self.tasks[s.0].pending == 0 {
                self.on_ready(s);
            }
        }
    }
}

/// Point-to-point bandwidth matrix of a topology: one `bytes`-sized
/// transfer between every device pair on an idle machine (Fig. 2).
pub(crate) fn bandwidth_matrix_of(topo: &FabricSpec, bytes: u64) -> Vec<Vec<f64>> {
    let n = topo.n_gpus();
    let mut out = vec![vec![0.0; n]; n];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            let route = topo.route(Device::Gpu(i), Device::Gpu(j));
            let t = route.transfer_time(bytes);
            *cell = bytes as f64 / t / 1e9;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Heuristics, SchedulerKind};
    use crate::data::DataInfo;
    use crate::task::{Access, TaskAccess};
    use xk_kernels::perfmodel::TileOp;
    use xk_topo::dgx1;

    const MB: u64 = 1 << 20;

    fn read(h: HandleId) -> TaskAccess {
        TaskAccess { handle: h, access: Access::Read }
    }
    fn rw(h: HandleId) -> TaskAccess {
        TaskAccess { handle: h, access: Access::ReadWrite }
    }

    fn tiny_op() -> TileOp {
        TileOp::Gemm { m: 512, n: 512, k: 512 }
    }

    /// Unit tests run at the default [`ObsLevel::Full`] so every path also
    /// exercises the recorder.
    fn simulate(graph: &TaskGraph, topo: &FabricSpec, cfg: &RuntimeConfig) -> SimOutcome {
        SimExecutor::new(graph, topo, cfg).run()
    }

    /// A graph where every GPU reads the same host tile once.
    fn broadcast_graph(n_gpus: usize) -> TaskGraph {
        let mut g = TaskGraph::new();
        let shared = g.add_host_tile(32 * MB, true, "A");
        for i in 0..n_gpus {
            let c = g.add_data(DataInfo::host(32 * MB, true, format!("C{i}")).with_owner(i));
            g.add_task(tiny_op(), vec![read(shared), rw(c)], format!("t{i}"));
        }
        g
    }

    #[test]
    fn single_task_completes() {
        let topo = dgx1();
        let mut g = TaskGraph::new();
        let c = g.add_host_tile(MB, true, "c");
        g.add_task(tiny_op(), vec![rw(c)], "only");
        let out = simulate(&g, &topo, &RuntimeConfig::default());
        assert_eq!(out.tasks_run, 1);
        assert!(out.makespan > 0.0);
        assert!(out.bytes_h2d >= MB);
    }

    #[test]
    fn deterministic_repeat() {
        let topo = dgx1();
        let g1 = broadcast_graph(8);
        let g2 = broadcast_graph(8);
        let cfg = RuntimeConfig::default();
        let o1 = simulate(&g1, &topo, &cfg);
        let o2 = simulate(&g2, &topo, &cfg);
        assert_eq!(o1.makespan, o2.makespan);
        assert_eq!(o1.trace.len(), o2.trace.len());
        assert_eq!(o1.bytes_p2p, o2.bytes_p2p);
    }

    #[test]
    fn optimistic_heuristic_reduces_host_traffic() {
        let topo = dgx1();
        let cfg_on = RuntimeConfig::default();
        let cfg_off = RuntimeConfig::default().with_heuristics(Heuristics::no_optimistic());
        let on = simulate(&broadcast_graph(8), &topo, &cfg_on);
        let off = simulate(&broadcast_graph(8), &topo, &cfg_off);
        // With the heuristic the shared tile crosses PCIe once and fans out
        // over NVLink; without it every GPU rereads it from the host.
        assert!(
            on.bytes_h2d < off.bytes_h2d,
            "h2d on={} off={}",
            on.bytes_h2d,
            off.bytes_h2d
        );
        assert!(on.bytes_p2p > 0);
    }

    #[test]
    fn flush_moves_results_home() {
        let topo = dgx1();
        let mut g = TaskGraph::new();
        let c = g.add_host_tile(MB, true, "c");
        g.add_task(tiny_op(), vec![rw(c)], "compute");
        g.add_flush(&[c], "flush");
        let out = simulate(&g, &topo, &RuntimeConfig::default());
        assert_eq!(out.tasks_run, 2);
        assert!(out.bytes_d2h >= MB);
        let d2h = out.trace.breakdown().get(SpanKind::D2H);
        assert!(d2h > 0.0);
    }

    #[test]
    fn chain_serializes_in_time() {
        let topo = dgx1();
        let mut g = TaskGraph::new();
        let c = g.add_host_tile(MB, true, "c");
        for i in 0..4 {
            g.add_task(tiny_op(), vec![rw(c)], format!("k{i}"));
        }
        let out = simulate(&g, &topo, &RuntimeConfig::default());
        // Kernel spans on the chain must not overlap.
        let mut kernels: Vec<(f64, f64)> = out
            .trace
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Kernel)
            .map(|s| (s.start, s.end))
            .collect();
        kernels.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for w in kernels.windows(2) {
            assert!(w[0].1 <= w[1].0 + 1e-12);
        }
    }

    #[test]
    fn stealing_engages_on_imbalance() {
        // All tasks owned by gpu0: stealing must spread them. A shallow
        // window keeps a queue backlog for the thieves to take from.
        let topo = dgx1();
        let mut g = TaskGraph::new();
        for i in 0..32 {
            let c = g.add_data(DataInfo::host(MB, true, format!("c{i}")).with_owner(0));
            g.add_task(tiny_op(), vec![rw(c)], format!("t{i}"));
        }
        let cfg = RuntimeConfig { window: 4, ..RuntimeConfig::default() };
        let out = simulate(&g, &topo, &cfg);
        assert!(out.steals > 0, "expected steals on imbalanced ownership");
        let loads = out.trace.kernel_load_per_gpu(8);
        let busy: usize = loads.iter().filter(|&&l| l > 0.0).count();
        assert!(busy >= 4, "work did not spread: {loads:?}");
    }

    #[test]
    fn static_owner_respects_distribution() {
        let topo = dgx1();
        let mut g = TaskGraph::new();
        for i in 0..16 {
            let c = g.add_data(DataInfo::host(MB, true, format!("c{i}")).with_owner(i % 8));
            g.add_task(tiny_op(), vec![rw(c)], format!("t{i}"));
        }
        let cfg = RuntimeConfig::default().with_scheduler(SchedulerKind::StaticOwner);
        let out = simulate(&g, &topo, &cfg);
        assert_eq!(out.steals, 0);
        let loads = out.trace.kernel_load_per_gpu(8);
        assert!(loads.iter().all(|&l| l > 0.0), "{loads:?}");
    }

    #[test]
    fn eviction_on_small_memory() {
        let topo = dgx1();
        let mut g = TaskGraph::new();
        // 8 tiles of 32MB on a 100MB GPU, all processed by gpu0.
        let mut handles = Vec::new();
        for i in 0..8 {
            let c = g.add_data(DataInfo::host(32 * MB, true, format!("c{i}")).with_owner(0));
            g.add_task(tiny_op(), vec![rw(c)], format!("t{i}"));
            handles.push(c);
        }
        let mut cfg = RuntimeConfig::default().with_scheduler(SchedulerKind::StaticOwner);
        cfg.gpu_memory = 100 * MB;
        cfg.window = 1;
        let out = simulate(&g, &topo, &cfg);
        assert_eq!(out.tasks_run, 8);
        // Dirty evictions force write-backs even without a flush task.
        assert!(out.bytes_d2h > 0, "expected eviction write-backs");
    }

    #[test]
    fn data_on_device_runs_without_host_traffic() {
        let topo = dgx1();
        let mut g = TaskGraph::new();
        for i in 0..8 {
            let c = g.add_data(DataInfo::on_gpu(32 * MB, i, format!("c{i}")));
            g.add_task(tiny_op(), vec![rw(c)], format!("t{i}"));
        }
        let out = simulate(&g, &topo, &RuntimeConfig::default());
        assert_eq!(out.bytes_h2d, 0, "DoD run must not touch the host");
        assert_eq!(out.bytes_d2h, 0);
    }

    #[test]
    fn bandwidth_matrix_matches_topology() {
        let topo = dgx1();
        let m = bandwidth_matrix_of(&topo, 64 * MB);
        assert!((m[0][3] - 96.4).abs() < 2.0, "{}", m[0][3]);
        assert!((m[0][1] - 48.4).abs() < 2.0, "{}", m[0][1]);
        assert!(m[0][5] < 20.0);
        assert!(m[0][0] > 500.0);
    }

    #[test]
    fn obs_off_yields_none_and_identical_trace() {
        let topo = dgx1();
        let cfg = RuntimeConfig::default();
        let off = SimExecutor::new(&broadcast_graph(8), &topo, &cfg)
            .observe(ObsLevel::Off)
            .run();
        let full = simulate(&broadcast_graph(8), &topo, &cfg);
        assert!(off.obs.is_none());
        assert!(full.obs.is_some());
        // Observability must never perturb the simulation.
        assert_eq!(off.makespan.to_bits(), full.makespan.to_bits());
        assert_eq!(off.trace.len(), full.trace.len());
        for (a, b) in off.trace.spans().iter().zip(full.trace.spans()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn obs_critical_path_length_equals_makespan() {
        let topo = dgx1();
        let out = simulate(&broadcast_graph(8), &topo, &RuntimeConfig::default());
        let report = out.obs.expect("full obs");
        assert_eq!(report.makespan.to_bits(), out.makespan.to_bits());
        let cp = report.critical_path;
        assert_eq!(cp.length.to_bits(), out.makespan.to_bits());
        // The chain durations plus runtime gaps tile [0, makespan].
        let covered: f64 = cp.by_kind.values().sum::<f64>() + cp.runtime_gap;
        assert!(
            (covered - cp.length).abs() <= 1e-9 * cp.length.max(1.0),
            "chain covers {covered}, makespan {}",
            cp.length
        );
        assert!(cp.total_segments >= 1);
    }

    #[test]
    fn obs_counters_match_trace_sums() {
        let topo = dgx1();
        let out = simulate(&broadcast_graph(8), &topo, &RuntimeConfig::default());
        let report = out.obs.expect("obs");
        // Per-GPU kernel busy time == sum of that GPU's kernel spans.
        let loads = out.trace.kernel_load_per_gpu(8);
        for row in &report.gpus {
            assert!(
                (row.kernel_busy - loads[row.gpu]).abs() < 1e-12,
                "gpu{} busy {} vs spans {}",
                row.gpu,
                row.kernel_busy,
                loads[row.gpu]
            );
        }
        // Bytes through all pcie_in engines == total H2D bytes (this graph
        // has no PCIe peer traffic: P2P rides NVLink bricks on the DGX-1).
        let pcie_in_bytes: u64 = report
            .links
            .iter()
            .filter(|l| l.name.ends_with(".pcie_in"))
            .map(|l| l.bytes)
            .sum();
        assert_eq!(pcie_in_bytes, out.bytes_h2d);
        let nvlink_bytes: u64 = report
            .links
            .iter()
            .filter(|l| l.name.starts_with("nvlink"))
            .map(|l| l.bytes)
            .sum();
        assert_eq!(nvlink_bytes, out.bytes_p2p);
    }

    #[test]
    fn obs_contention_wait_on_shared_host_link() {
        // pcie_only: every GPU pulls its tile through shared switch
        // uplinks — contended reservations must charge wait somewhere.
        let topo = xk_topo::builders::pcie_only(8);
        let out = simulate(&broadcast_graph(8), &topo, &RuntimeConfig::default());
        let report = out.obs.expect("obs");
        let total_wait: f64 = report.links.iter().map(|l| l.wait).sum();
        assert!(total_wait > 0.0, "no contention wait recorded");
        assert!(report.hot_links(3).len() == 3);
    }

    #[test]
    fn canonical_controller_is_byte_identical() {
        let topo = dgx1();
        let cfg = RuntimeConfig::default();
        let base = simulate(&broadcast_graph(8), &topo, &cfg);
        let mut ctrl = crate::choice::CanonicalController;
        let controlled =
            SimExecutor::new(&broadcast_graph(8), &topo, &cfg).control(&mut ctrl).run();
        assert_eq!(base.makespan.to_bits(), controlled.makespan.to_bits());
        assert_eq!(base.trace.len(), controlled.trace.len());
        for (a, b) in base.trace.spans().iter().zip(controlled.trace.spans()) {
            assert_eq!(a, b);
        }
        assert_eq!(base.bytes_p2p, controlled.bytes_p2p);
        assert_eq!(base.bytes_h2d, controlled.bytes_h2d);
        assert!(controlled.failures.is_empty());
    }

    #[test]
    fn link_fault_fails_waiters_without_deadlock() {
        // t0 on gpu0 pulls the shared tile from the host; t1 on gpu4 gets
        // it as an optimistic forward over the 0->4 NVLink — which is dead
        // from t=0. t1 must surface LinkDown instead of hanging, t0 must
        // stay healthy, and the run must drain completely.
        let topo = dgx1();
        let mut g = TaskGraph::new();
        let shared = g.add_host_tile(32 * MB, true, "A");
        let c0 = g.add_data(DataInfo::host(32 * MB, true, "C0").with_owner(0));
        let c1 = g.add_data(DataInfo::host(32 * MB, true, "C1").with_owner(4));
        g.add_task(tiny_op(), vec![read(shared), rw(c0)], "t0");
        g.add_task(tiny_op(), vec![read(shared), rw(c1)], "t1");
        let cfg = RuntimeConfig::default().with_scheduler(SchedulerKind::StaticOwner);
        let out = SimExecutor::new(&g, &topo, &cfg)
            .observe(ObsLevel::Off)
            .with_fault(LinkFault { src: 0, dst: 4, at: 0.0 })
            .run();
        assert_eq!(out.tasks_run, 2, "run must drain, not deadlock");
        assert_eq!(
            out.failures,
            vec![(1, Error::LinkDown { src: 0, dst: 4 })],
            "t1 surfaces the dead forward, t0 stays healthy"
        );
    }

    #[test]
    fn task_record_fits_half_a_cache_line() {
        assert!(std::mem::size_of::<TaskState>() <= 16);
    }

    /// The graph's trace labels follow its mutations: a run after
    /// `add_data`, then after `add_task`, on a graph that has already run
    /// records the new labels, span for span and symbol for symbol as a
    /// freshly built copy of the mutated graph does.
    #[test]
    fn a_mutated_graph_relabels_its_next_run() {
        let (topo, cfg) = (dgx1(), RuntimeConfig::default());
        let add_tile = |g: &mut TaskGraph| g.add_host_tile(MB, true, "late tile");
        let add_task = |g: &mut TaskGraph, h| g.add_task(tiny_op(), vec![rw(h)], "late task");
        let same = |got: &SimOutcome, want: &SimOutcome| {
            assert_eq!(got.trace.spans(), want.trace.spans());
            assert_eq!(**got.trace.labels(), **want.trace.labels());
        };
        let mut graph = broadcast_graph(4);
        simulate(&graph, &topo, &cfg);
        let late = add_tile(&mut graph);
        let mut fresh = broadcast_graph(4);
        add_tile(&mut fresh);
        let out = simulate(&graph, &topo, &cfg);
        same(&out, &simulate(&fresh, &topo, &cfg));
        assert!(out.trace.labels().iter().any(|l| l == "late tile"));
        add_task(&mut graph, late);
        let mut fresh = broadcast_graph(4);
        let h = add_tile(&mut fresh);
        add_task(&mut fresh, h);
        let out = simulate(&graph, &topo, &cfg);
        same(&out, &simulate(&fresh, &topo, &cfg));
        assert!(out.trace.spans().iter().any(|s| out.trace.label(s.label) == "late task"));
    }

    /// Four replica workers that make the first run of one unfinalized
    /// graph at once race to derive its successor CSR and trace labels;
    /// each still records the serial run's trace.
    #[test]
    fn replicas_racing_to_a_first_run_match_a_serial_run() {
        let (topo, cfg) = (dgx1(), RuntimeConfig::default());
        let serial = simulate(&broadcast_graph(8), &topo, &cfg);
        let graph = broadcast_graph(8);
        for out in xk_sim::run_replicas(4, 4, |_| simulate(&graph, &topo, &cfg)) {
            assert_eq!(out.trace.spans(), serial.trace.spans());
            assert_eq!(**out.trace.labels(), **serial.trace.labels());
        }
    }

    /// Every span names what it acts on — and its label is that task's or
    /// handle's text — and every forward names its source GPU.
    #[test]
    fn spans_name_their_task_handle_and_source() {
        let graph = broadcast_graph(8);
        let out = simulate(&graph, &dgx1(), &RuntimeConfig::default());
        let mut forwards = 0;
        for s in out.trace.spans() {
            let (x, text) = (s.subject as usize, out.trace.label(s.label));
            if s.kind == SpanKind::Kernel {
                assert!(x < graph.len(), "{s:?}");
                assert_eq!(text, graph.label(TaskId(x)).to_text());
            } else {
                assert!(x < graph.data().len(), "{s:?}");
                let info = graph.data().info(HandleId(x));
                assert_eq!((s.bytes, text), (info.bytes, info.label.as_str()));
            }
            if s.kind == SpanKind::P2P {
                forwards += 1;
                assert_ne!(xk_trace::Place::Gpu(u32::from(s.peer)), s.place, "{s:?}");
            } else {
                assert_eq!(s.peer, Span::NO_PEER, "{s:?}");
            }
        }
        assert!(forwards > 0, "no P2P span to check");
    }

    #[test]
    fn flows_link_h2d_to_forwards_and_kernels() {
        let topo = dgx1();
        let out = simulate(&broadcast_graph(8), &topo, &RuntimeConfig::default());
        // The shared tile's H2D roots a chain that its P2P forwards join.
        let h2d_flows: Vec<FlowId> = out
            .trace
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::H2D)
            .map(|s| s.flow)
            .collect();
        assert!(h2d_flows.iter().all(|&f| f != FlowId::NONE));
        let p2p_on_chain = out
            .trace
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::P2P && h2d_flows.contains(&s.flow))
            .count();
        assert!(p2p_on_chain > 0, "no P2P joined an H2D chain");
        let kernels_on_chain = out
            .trace
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Kernel && s.flow != FlowId::NONE)
            .count();
        assert!(kernels_on_chain > 0, "no kernel joined a flow chain");
    }
}
