//! The parallel executor: runs a task graph *for real* on host threads.
//!
//! This is the numeric twin of [`crate::sim_exec`]: same graph, same
//! dependency semantics, but each task's [`crate::task::TaskBody`] actually
//! executes (calling the `xk-kernels` tile kernels on real memory), spread
//! over a work-stealing pool of host threads. It turns the library into a
//! usable multicore tiled-BLAS and — more importantly here — lets the test
//! suite verify that every tiled algorithm computes the right numbers
//! under real concurrency.
//!
//! # Executor design
//!
//! - Each task body sits in a [`BodySlot`]: an atomic claim flag plus an
//!   `UnsafeCell` — claiming the flag grants exclusive access to the slot,
//!   with no per-task mutex.
//! - When a task completes, its newly-ready successors are released in a
//!   batch: all but one go to the worker's local deque (stealable by idle
//!   peers), the last is run inline on the same worker for cache warmth.
//! - The queues are the crate's own ([`Worker`] / [`Stealer`] /
//!   [`Injector`]): `Mutex<VecDeque>`s rather than lock-free Chase-Lev
//!   deques. A task here is a tile kernel of milliseconds, so an
//!   uncontended lock per queue operation is noise.
//! - A worker with nothing to run (local deque, global injector and every
//!   *other* worker's stealer all empty — no self-steal) parks on an
//!   eventcount instead of spinning: idle workers cost ~0 CPU. Producers
//!   bump the epoch and wake sleepers whenever they make work stealable.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::choice::{ChoicePoint, ScheduleController};
use crate::graph::TaskGraph;
use crate::task::{TaskBody, TaskId};

/// Statistics of a parallel run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParOutcome {
    /// Number of tasks executed.
    pub tasks_run: usize,
    /// Number of worker threads used.
    pub threads: usize,
    /// Number of times an idle worker parked (0 under saturation).
    pub parks: usize,
}

/// One task's body, claimable by exactly one worker.
struct BodySlot {
    claimed: AtomicBool,
    body: UnsafeCell<Option<TaskBody>>,
}

// SAFETY: the body cell is only accessed by the worker that wins the
// `claimed` compare-exchange, which happens at most once per slot.
unsafe impl Sync for BodySlot {}

impl BodySlot {
    fn new(body: Option<TaskBody>) -> Self {
        BodySlot {
            claimed: AtomicBool::new(false),
            body: UnsafeCell::new(body),
        }
    }

    /// Takes the body if this caller is the first to claim the slot.
    /// Returns `None` both for already-claimed and bodyless tasks; use the
    /// claim result to distinguish.
    fn claim(&self) -> Option<Option<TaskBody>> {
        if self
            .claimed
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            // SAFETY: we won the claim; no other thread touches the cell.
            Some(unsafe { (*self.body.get()).take() })
        } else {
            None
        }
    }
}

/// Largest batch [`Injector::steal_batch_and_pop`] hands to the thief.
const MAX_BATCH: usize = 32;

type Queue = Mutex<VecDeque<TaskId>>;

fn lock(q: &Queue) -> MutexGuard<'_, VecDeque<TaskId>> {
    // A queue of plain task ids is valid at every step, so a panic in
    // another worker must not wedge the survivors.
    q.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A worker's own FIFO queue.
struct Worker(Arc<Queue>);

impl Worker {
    fn new() -> Self {
        Worker(Arc::default())
    }

    fn push(&self, task: TaskId) {
        lock(&self.0).push_back(task);
    }

    fn pop(&self) -> Option<TaskId> {
        lock(&self.0).pop_front()
    }

    fn stealer(&self) -> Stealer {
        Stealer(Arc::clone(&self.0))
    }
}

/// The handle other workers steal through: the oldest task first, the
/// same end the owner pops.
struct Stealer(Arc<Queue>);

impl Stealer {
    fn steal(&self) -> Option<TaskId> {
        lock(&self.0).pop_front()
    }
}

/// The shared queue the graph's roots enter through.
#[derive(Default)]
struct Injector(Queue);

impl Injector {
    fn push(&self, task: TaskId) {
        lock(&self.0).push_back(task);
    }

    /// Pops one task for the caller and moves up to half of the rest (at
    /// most [`MAX_BATCH`]) into `dest`, so one visit feeds several steps.
    fn steal_batch_and_pop(&self, dest: &Worker) -> Option<TaskId> {
        let mut queue = lock(&self.0);
        let first = queue.pop_front()?;
        let batch = (queue.len() / 2).min(MAX_BATCH);
        if batch > 0 {
            lock(&dest.0).extend(queue.drain(..batch));
        }
        Some(first)
    }
}

/// An eventcount: idle workers park here; producers bump the epoch to
/// publish "there may be new work" and wake sleepers.
struct ParkLot {
    epoch: AtomicUsize,
    sleepers: AtomicUsize,
    mutex: Mutex<()>,
    cv: Condvar,
}

impl ParkLot {
    fn new() -> Self {
        ParkLot {
            epoch: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            mutex: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Epoch snapshot; take it *before* the final scan for work, so a
    /// concurrent `wake_all` between scan and park is not lost.
    fn prepare(&self) -> usize {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publishes new work / completion and wakes all parked workers.
    fn wake_all(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.mutex.lock().unwrap();
            self.cv.notify_all();
        }
    }

    /// Parks until the epoch moves past `seen` (or a timeout, as a
    /// liveness net: a spurious re-scan is cheap and harmless).
    fn park(&self, seen: usize) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.mutex.lock().unwrap();
        while self.epoch.load(Ordering::Acquire) == seen {
            let (g, timeout) = self
                .cv
                .wait_timeout(guard, Duration::from_millis(10))
                .unwrap();
            guard = g;
            if timeout.timed_out() {
                break;
            }
        }
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One steal sweep: the global injector first, then every *other* worker
/// (self-steal is wasted work: our deque is empty).
fn steal_external(
    me: usize,
    injector: &Injector,
    stealers: &[Stealer],
    worker: &Worker,
) -> Option<TaskId> {
    injector.steal_batch_and_pop(worker).or_else(|| {
        stealers
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != me)
            .find_map(|(_, s)| s.steal())
    })
}

/// Executes every task of `graph` respecting dependencies, on
/// `n_threads` workers (0 = one per available core).
///
/// Bodies are taken out of the graph (each runs exactly once). Tasks
/// without a body are treated as no-ops with dependencies (e.g. flush
/// tasks: on the host executor, host memory is already the truth).
pub fn run_parallel(graph: &mut TaskGraph, n_threads: usize) -> ParOutcome {
    let n = graph.len();
    if n == 0 {
        return ParOutcome::default();
    }
    let threads = if n_threads == 0 {
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(4)
    } else {
        n_threads
    };

    // Take the bodies out so workers can consume them without aliasing the
    // graph; an atomic claim flag per slot replaces the old per-task mutex.
    let slots: Vec<BodySlot> = (0..n)
        .map(|i| BodySlot::new(graph.task_mut(TaskId(i)).body.take()))
        .collect();

    graph.finalize(); // build the successor CSR once, outside the hot loop

    let pending: Vec<AtomicUsize> = graph.pred_counts().map(AtomicUsize::new).collect();
    let completed = AtomicUsize::new(0);
    let parks = AtomicUsize::new(0);
    let parklot = ParkLot::new();

    let injector = Injector::default();
    for t in graph.roots() {
        injector.push(t);
    }

    let workers: Vec<Worker> = (0..threads).map(|_| Worker::new()).collect();
    let stealers: Vec<Stealer> = workers.iter().map(Worker::stealer).collect();

    std::thread::scope(|scope| {
        for (me, worker) in workers.into_iter().enumerate() {
            let injector = &injector;
            let stealers = &stealers;
            let pending = &pending;
            let completed = &completed;
            let slots = &slots;
            let parks = &parks;
            let parklot = &parklot;
            let graph: &TaskGraph = graph;
            scope.spawn(move || {
                // The task chosen to run inline right after its parent.
                let mut next: Option<TaskId> = None;
                let mut my_parks = 0usize;
                loop {
                    let task = next
                        .take()
                        .or_else(|| worker.pop())
                        .or_else(|| steal_external(me, injector, stealers, &worker));
                    let Some(t) = task else {
                        if completed.load(Ordering::Acquire) >= n {
                            break;
                        }
                        let seen = parklot.prepare();
                        // Re-scan between the epoch snapshot and parking:
                        // work published before `seen` cannot wake us.
                        if let Some(t) =
                            steal_external(me, injector, stealers, &worker)
                        {
                            next = Some(t);
                            continue;
                        }
                        if completed.load(Ordering::Acquire) >= n {
                            break;
                        }
                        parklot.park(seen);
                        my_parks += 1;
                        continue;
                    };

                    let Some(body) = slots[t.0].claim() else {
                        continue; // lost a (structurally impossible) race
                    };
                    if let Some(body) = body {
                        body();
                    }

                    // Release successors in a batch: earlier-ready ones go
                    // to the local deque (stealable), the last runs inline.
                    let mut made_stealable = false;
                    for &s in graph.successors(t) {
                        if pending[s.0].fetch_sub(1, Ordering::AcqRel) == 1 {
                            if let Some(prev) = next.replace(s) {
                                worker.push(prev);
                                made_stealable = true;
                            }
                        }
                    }
                    let done = completed.fetch_add(1, Ordering::AcqRel) + 1;
                    if done >= n || made_stealable {
                        parklot.wake_all();
                    }
                }
                if my_parks > 0 {
                    parks.fetch_add(my_parks, Ordering::Relaxed);
                }
            });
        }
    });

    let done = completed.load(Ordering::Acquire);
    assert_eq!(done, n, "parallel executor deadlocked: {done}/{n}");
    ParOutcome {
        tasks_run: done,
        threads,
        parks: parks.load(Ordering::Relaxed),
    }
}

/// Executes every task of `graph` on `n_workers` *virtual* workers under a
/// [`ScheduleController`]: a single-threaded, fully deterministic
/// interpretation of the same work-stealing discipline as
/// [`run_parallel`] — per-worker FIFO deques, a global injector that
/// outranks peer steals, and inline execution of the last newly-ready
/// successor. The controller is consulted at every point where the real
/// pool's outcome depends on thread timing: which runnable worker steps
/// ([`ChoicePoint::WorkerStep`]), which source an empty worker steals from
/// ([`ChoicePoint::StealVictim`]), and which newly-ready successor runs
/// inline ([`ChoicePoint::InlineSuccessor`]). Task bodies really execute,
/// so `xk-check` can drive the executor's dependency protocol through
/// adversarial interleavings and compare the numerics against a serial
/// run — with any failure replayable from the controller's choices.
///
/// Panics (rather than hangs) if the dependency protocol deadlocks.
pub fn run_controlled(
    graph: &mut TaskGraph,
    n_workers: usize,
    ctrl: &mut dyn ScheduleController,
) -> ParOutcome {
    let n = graph.len();
    if n == 0 {
        return ParOutcome::default();
    }
    let workers_n = n_workers.max(1);
    let mut bodies: Vec<Option<TaskBody>> = (0..n)
        .map(|i| graph.task_mut(TaskId(i)).body.take())
        .collect();
    graph.finalize();
    let mut pending: Vec<usize> = graph.pred_counts().collect();
    let mut injector: VecDeque<TaskId> = graph.roots().into_iter().collect();
    let mut deques: Vec<VecDeque<TaskId>> = vec![VecDeque::new(); workers_n];
    let mut inline: Vec<Option<TaskId>> = vec![None; workers_n];
    let mut runnable: Vec<usize> = Vec::with_capacity(workers_n);
    let mut done = 0usize;
    while done < n {
        // A worker is runnable when it can acquire a task this step: a
        // pending inline task, local work, or something to steal.
        runnable.clear();
        for w in 0..workers_n {
            let external = !injector.is_empty()
                || deques.iter().enumerate().any(|(v, d)| v != w && !d.is_empty());
            if inline[w].is_some() || !deques[w].is_empty() || external {
                runnable.push(w);
            }
        }
        assert!(
            !runnable.is_empty(),
            "controlled executor deadlocked: {done}/{n} tasks done"
        );
        let w = match runnable.len() {
            1 => runnable[0],
            m => runnable[ctrl.choose(ChoicePoint::WorkerStep, m).min(m - 1)],
        };
        // Acquire: inline slot, then local deque, then an external steal
        // (injector outranks peers, peers ascending — the order the real
        // pool's steal sweep visits them).
        let t = if let Some(t) = inline[w].take() {
            t
        } else if let Some(t) = deques[w].pop_front() {
            t
        } else {
            let mut sources: Vec<Option<usize>> = Vec::new(); // None = injector
            if !injector.is_empty() {
                sources.push(None);
            }
            for (v, d) in deques.iter().enumerate() {
                if v != w && !d.is_empty() {
                    sources.push(Some(v));
                }
            }
            let pick = match sources.len() {
                0 => unreachable!("runnable worker has a steal source"),
                1 => 0,
                m => ctrl.choose(ChoicePoint::StealVictim, m).min(m - 1),
            };
            match sources[pick] {
                None => injector.pop_front().expect("injector non-empty"),
                Some(v) => deques[v].pop_front().expect("victim non-empty"),
            }
        };
        if let Some(body) = bodies[t.0].take() {
            body();
        }
        // Release newly-ready successors: one runs inline on this worker,
        // the rest go to its deque (stealable by the other workers).
        let mut ready: Vec<TaskId> = Vec::new();
        for &s in graph.successors(t) {
            pending[s.0] -= 1;
            if pending[s.0] == 0 {
                ready.push(s);
            }
        }
        if !ready.is_empty() {
            let m = ready.len();
            // Candidate 0 = the canonical inline pick (the last
            // newly-ready, what run_parallel keeps); 1..m = the rest in
            // CSR order.
            let idx = match m {
                1 => 0,
                _ => {
                    let k = ctrl.choose(ChoicePoint::InlineSuccessor, m).min(m - 1);
                    if k == 0 {
                        m - 1
                    } else {
                        k - 1
                    }
                }
            };
            let chosen = ready.remove(idx);
            for s in ready {
                deques[w].push_back(s);
            }
            inline[w] = Some(chosen);
        }
        done += 1;
    }
    ParOutcome {
        tasks_run: done,
        threads: workers_n,
        parks: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Access, TaskAccess};
    use std::sync::atomic::AtomicU64;
    use xk_kernels::perfmodel::TileOp;

    fn op() -> TileOp {
        TileOp::Gemm { m: 4, n: 4, k: 4 }
    }

    #[test]
    fn deque_owner_pops_fifo_and_thief_takes_the_front() {
        let w = Worker::new();
        let thief = w.stealer();
        for i in 0..4 {
            w.push(TaskId(i));
        }
        assert_eq!(thief.steal(), Some(TaskId(0)), "thief takes the oldest");
        assert_eq!(w.pop(), Some(TaskId(1)), "owner pops in push order");
        assert_eq!(thief.steal(), Some(TaskId(2)));
        assert_eq!(w.pop(), Some(TaskId(3)));
        assert_eq!((w.pop(), thief.steal()), (None, None));
    }

    #[test]
    fn injector_batch_is_half_the_rest_capped_at_32() {
        let drained = |n: usize| {
            let (inj, w) = (Injector::default(), Worker::new());
            (0..n).for_each(|i| inj.push(TaskId(i)));
            let first = inj.steal_batch_and_pop(&w);
            let moved: Vec<TaskId> = std::iter::from_fn(|| w.pop()).collect();
            // The batch is the ids right behind the popped one, in order.
            assert!(moved.iter().enumerate().all(|(k, t)| t.0 == k + 1));
            let left = lock(&inj.0).len();
            (first, moved.len(), left)
        };
        assert_eq!(drained(0), (None, 0, 0));
        assert_eq!(drained(1), (Some(TaskId(0)), 0, 0));
        assert_eq!(drained(9), (Some(TaskId(0)), 4, 4));
        assert_eq!(drained(200), (Some(TaskId(0)), MAX_BATCH, 199 - MAX_BATCH));
    }

    #[test]
    fn every_pushed_id_is_popped_exactly_once_under_four_threads() {
        const N: usize = 4000;
        let injector = Injector::default();
        (0..N).for_each(|i| injector.push(TaskId(i)));
        let workers: Vec<Worker> = (0..4).map(|_| Worker::new()).collect();
        let stealers: Vec<Stealer> = workers.iter().map(Worker::stealer).collect();
        let seen: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        // All four start together, so pops, batch moves and steals overlap.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for (me, worker) in workers.into_iter().enumerate() {
                let (injector, stealers, seen, start) = (&injector, &stealers, &seen, &start);
                scope.spawn(move || {
                    start.wait();
                    // Nothing is pushed after the start, so one empty sweep
                    // of every source means this worker is done.
                    while let Some(t) = worker
                        .pop()
                        .or_else(|| steal_external(me, injector, stealers, &worker))
                    {
                        seen[t.0].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chain_runs_in_order() {
        let mut g = TaskGraph::new();
        let h = g.add_host_tile(64, false, "x");
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..10 {
            let log = log.clone();
            g.add_task_with_body(
                op(),
                vec![TaskAccess {
                    handle: h,
                    access: Access::ReadWrite,
                }],
                format!("k{i}"),
                Box::new(move || log.lock().unwrap().push(i)),
            );
        }
        let out = run_parallel(&mut g, 4);
        assert_eq!(out.tasks_run, 10);
        assert_eq!(*log.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn independent_tasks_all_run() {
        let mut g = TaskGraph::new();
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..100 {
            let h = g.add_host_tile(64, false, format!("x{i}"));
            let c = counter.clone();
            g.add_task_with_body(
                op(),
                vec![TaskAccess {
                    handle: h,
                    access: Access::Write,
                }],
                format!("t{i}"),
                Box::new(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        let out = run_parallel(&mut g, 0);
        assert_eq!(out.tasks_run, 100);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert!(out.threads >= 1);
    }

    #[test]
    fn diamond_dependency_order() {
        // w -> (r1, r2) -> w2: w2's body must observe both readers done.
        let mut g = TaskGraph::new();
        let h = g.add_host_tile(64, false, "x");
        let state = Arc::new(AtomicU64::new(0));
        let mk = |inc: u64, state: Arc<AtomicU64>| -> crate::task::TaskBody {
            Box::new(move || {
                state.fetch_add(inc, Ordering::SeqCst);
            })
        };
        g.add_task_with_body(
            op(),
            vec![TaskAccess { handle: h, access: Access::Write }],
            "w",
            mk(1, state.clone()),
        );
        for _ in 0..2 {
            g.add_task_with_body(
                op(),
                vec![TaskAccess { handle: h, access: Access::Read }],
                "r",
                mk(10, state.clone()),
            );
        }
        let check = state.clone();
        g.add_task_with_body(
            op(),
            vec![TaskAccess { handle: h, access: Access::Write }],
            "w2",
            Box::new(move || {
                assert_eq!(check.load(Ordering::SeqCst), 21, "w2 ran too early");
            }),
        );
        run_parallel(&mut g, 8);
    }

    #[test]
    fn empty_graph_is_fine() {
        let mut g = TaskGraph::new();
        let out = run_parallel(&mut g, 2);
        assert_eq!(out.tasks_run, 0);
    }

    #[test]
    fn bodyless_tasks_complete() {
        let mut g = TaskGraph::new();
        let h = g.add_host_tile(64, false, "x");
        g.add_task(
            op(),
            vec![TaskAccess { handle: h, access: Access::Write }],
            "no-body",
        );
        g.add_flush(&[h], "flush");
        let out = run_parallel(&mut g, 2);
        assert_eq!(out.tasks_run, 2);
    }

    /// A deterministic pseudo-random controller for exercising
    /// `run_controlled` without xk-check.
    struct Scramble(xk_lp::SplitMix64);

    impl crate::choice::ScheduleController for Scramble {
        fn choose(&mut self, _point: ChoicePoint, n: usize) -> usize {
            self.0.next_below(n as u64) as usize
        }
    }

    #[test]
    fn controlled_chain_respects_dependencies() {
        for seed in 0..16u64 {
            let mut g = TaskGraph::new();
            let h = g.add_host_tile(64, false, "x");
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..10 {
                let log = log.clone();
                g.add_task_with_body(
                    op(),
                    vec![TaskAccess { handle: h, access: Access::ReadWrite }],
                    format!("k{i}"),
                    Box::new(move || log.lock().unwrap().push(i)),
                );
            }
            let mut ctrl = Scramble(xk_lp::SplitMix64::new(seed));
            let out = run_controlled(&mut g, 4, &mut ctrl);
            assert_eq!(out.tasks_run, 10);
            // A chain admits exactly one legal order, whatever the schedule.
            assert_eq!(*log.lock().unwrap(), (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn controlled_diamond_order_holds_under_all_seeds() {
        for seed in 0..32u64 {
            let mut g = TaskGraph::new();
            let h = g.add_host_tile(64, false, "x");
            let state = Arc::new(AtomicU64::new(0));
            let mk = |inc: u64, state: Arc<AtomicU64>| -> crate::task::TaskBody {
                Box::new(move || {
                    state.fetch_add(inc, Ordering::SeqCst);
                })
            };
            g.add_task_with_body(
                op(),
                vec![TaskAccess { handle: h, access: Access::Write }],
                "w",
                mk(1, state.clone()),
            );
            for _ in 0..2 {
                g.add_task_with_body(
                    op(),
                    vec![TaskAccess { handle: h, access: Access::Read }],
                    "r",
                    mk(10, state.clone()),
                );
            }
            let check = state.clone();
            g.add_task_with_body(
                op(),
                vec![TaskAccess { handle: h, access: Access::Write }],
                "w2",
                Box::new(move || {
                    assert_eq!(check.load(Ordering::SeqCst), 21, "w2 ran too early");
                }),
            );
            let mut ctrl = Scramble(xk_lp::SplitMix64::new(seed));
            run_controlled(&mut g, 3, &mut ctrl);
        }
    }

    #[test]
    fn controlled_independent_tasks_all_run_once() {
        let mut g = TaskGraph::new();
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..50 {
            let h = g.add_host_tile(64, false, format!("x{i}"));
            let c = counter.clone();
            g.add_task_with_body(
                op(),
                vec![TaskAccess { handle: h, access: Access::Write }],
                format!("t{i}"),
                Box::new(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        let mut ctrl = Scramble(xk_lp::SplitMix64::new(7));
        let out = run_controlled(&mut g, 8, &mut ctrl);
        assert_eq!(out.tasks_run, 50);
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn controlled_empty_graph_and_zero_workers() {
        let mut g = TaskGraph::new();
        let mut ctrl = crate::choice::CanonicalController;
        assert_eq!(run_controlled(&mut g, 0, &mut ctrl).tasks_run, 0);
        let h = g.add_host_tile(64, false, "x");
        g.add_task(op(), vec![TaskAccess { handle: h, access: Access::Write }], "t");
        // 0 workers clamps to 1.
        let out = run_controlled(&mut g, 0, &mut ctrl);
        assert_eq!(out.tasks_run, 1);
        assert_eq!(out.threads, 1);
    }

    #[test]
    fn idle_workers_park_on_serial_chain() {
        // A pure chain admits no parallelism: with several workers, the
        // extra ones must park (the old executor would spin at 100% CPU).
        let mut g = TaskGraph::new();
        let h = g.add_host_tile(64, false, "x");
        for i in 0..64 {
            g.add_task_with_body(
                op(),
                vec![TaskAccess { handle: h, access: Access::ReadWrite }],
                format!("k{i}"),
                Box::new(move || std::thread::sleep(Duration::from_micros(200))),
            );
        }
        let out = run_parallel(&mut g, 4);
        assert_eq!(out.tasks_run, 64);
        assert!(out.parks > 0, "idle workers never parked");
    }
}
