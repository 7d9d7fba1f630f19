//! The parallel executor: runs a task graph *for real* on host threads.
//!
//! This is the numeric twin of `sim_exec`: same graph, same
//! dependency semantics, but each task's [`crate::task::TaskBody`] actually
//! executes (calling the `xk-kernels` tile kernels on real memory), spread
//! over a pool of host threads. It turns the library into a usable
//! multicore tiled-BLAS and — more importantly here — lets the test suite
//! verify that every tiled algorithm computes the right numbers under real
//! concurrency. The paper's work stealing between GPUs is modelled in the
//! DES (`SchedulerKind::LocalityWorkStealing`), not here.
//!
//! # Executor design
//!
//! - One `Mutex` guards the run state: a FIFO queue of ready task ids,
//!   each task's count of unfinished predecessors, the completion count
//!   and an `aborted` flag. One `Condvar` wakes idle workers. A task here
//!   is a tile kernel of milliseconds, so one lock per completion is noise.
//! - A worker runs the task it kept inline, else pops the queue front,
//!   else waits on the condvar (an idle worker costs no CPU).
//! - When a task completes, its worker keeps the last successor it made
//!   ready to run inline (its inputs are warm in this core's cache) and
//!   appends the others to the queue, waking the idle workers.
//! - Each body sits in its own `Mutex<Option<TaskBody>>`. Every id is
//!   popped once, so these locks are never contended.
//! - A worker unwinding out of a panicking body sets `aborted` and wakes
//!   the others, which return; [`run_parallel`] then re-raises the panic.
//! - [`run_controlled`] interprets this same queue on one thread, with a
//!   [`ScheduleController`] deciding what thread timing decides here.

use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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
    /// Number of times an idle worker waited for work (0 under saturation).
    pub parks: usize,
}

/// The run state all workers share, behind one lock.
struct State {
    /// Ready tasks no worker has taken yet, oldest first.
    ready: VecDeque<TaskId>,
    /// Unfinished predecessors of each task.
    pending: Vec<usize>,
    /// Tasks finished so far.
    completed: usize,
    /// Set when a worker unwinds: the others stop taking work.
    aborted: bool,
}

struct Pool {
    state: Mutex<State>,
    wake: Condvar,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, State> {
        // Bodies run outside this lock, so none is expected to poison it.
        // Should one, the panicking worker's guard sets `aborted`, and
        // that flag is all the others read from then on.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Stops the other workers when its worker unwinds out of a panicking
/// body, so they return instead of waiting for a task that never ends.
struct AbortOnUnwind<'a>(&'a Pool);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().aborted = true;
            self.0.wake.notify_all();
        }
    }
}

/// One worker's loop; returns how many times it waited for work.
fn work(pool: &Pool, graph: &TaskGraph, bodies: &[Mutex<Option<TaskBody>>]) -> usize {
    let _abort = AbortOnUnwind(pool);
    let n = bodies.len();
    let mut parks = 0;
    // The successor kept to run right after its parent, on this worker.
    let mut inline: Option<TaskId> = None;
    loop {
        let t = match inline.take() {
            Some(t) => t,
            None => {
                let mut state = pool.lock();
                loop {
                    if state.aborted || state.completed == n {
                        return parks;
                    }
                    if let Some(t) = state.ready.pop_front() {
                        break t;
                    }
                    parks += 1;
                    state = pool
                        .wake
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        };
        let body = bodies[t.0]
            .lock()
            .expect("a body slot is never locked across a panic")
            .take();
        if let Some(body) = body {
            body();
        }

        let mut guard = pool.lock();
        let state = &mut *guard;
        if state.aborted {
            return parks;
        }
        let queued = state.ready.len();
        for &s in graph.successors(t) {
            state.pending[s.0] -= 1;
            if state.pending[s.0] == 0 {
                if let Some(prev) = inline.replace(s) {
                    state.ready.push_back(prev);
                }
            }
        }
        state.completed += 1;
        if state.ready.len() > queued || state.completed == n {
            pool.wake.notify_all();
        }
    }
}

/// Executes every task of `graph` respecting dependencies, on
/// `n_threads` workers (0 = one per available core).
///
/// Bodies are taken out of the graph (each runs exactly once). Tasks
/// without a body are treated as no-ops with dependencies (e.g. flush
/// tasks: on the host executor, host memory is already the truth).
/// A panicking body stops the run, and its panic is re-raised here.
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
    // graph.
    let bodies: Vec<Mutex<Option<TaskBody>>> =
        graph.take_bodies().into_iter().map(Mutex::new).collect();
    graph.finalize(); // build the successor CSR once, outside the hot loop
    let graph: &TaskGraph = graph;
    let pool = Pool {
        state: Mutex::new(State {
            ready: graph.roots().into(),
            pending: graph.pred_counts().collect(),
            completed: 0,
            aborted: false,
        }),
        wake: Condvar::new(),
    };

    let parks = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| scope.spawn(|| work(&pool, graph, &bodies)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .sum()
    });
    let state = pool
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    ParOutcome {
        tasks_run: state.completed,
        threads,
        parks,
    }
}

/// Executes every task of `graph` on `n_workers` *virtual* workers under a
/// [`ScheduleController`]: a single-threaded, fully deterministic
/// interpretation of [`run_parallel`]'s pool — one FIFO ready queue, and
/// inline execution of one newly-ready successor on the worker that
/// released it. A worker is runnable when it holds an inline task or the
/// queue is non-empty; it runs its inline task, else the queue front. The
/// controller is consulted at every point where the real pool's outcome
/// depends on thread timing: which runnable worker steps
/// ([`ChoicePoint::WorkerStep`]) and which newly-ready successor runs
/// inline ([`ChoicePoint::InlineSuccessor`]; the rest join the queue).
/// Under a controller that always answers 0, one worker runs the bodies
/// in exactly `run_parallel(graph, 1)`'s order. Task bodies really
/// execute, so `xk-check` can drive the executor's dependency protocol
/// through adversarial interleavings and compare the numerics against a
/// serial run — with any failure replayable from the controller's choices.
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
    let mut bodies = graph.take_bodies();
    graph.finalize();
    let mut pending: Vec<usize> = graph.pred_counts().collect();
    let mut ready: VecDeque<TaskId> = graph.roots().into();
    let mut inline: Vec<Option<TaskId>> = vec![None; workers_n];
    let mut runnable: Vec<usize> = Vec::with_capacity(workers_n);
    let mut released: Vec<TaskId> = Vec::new();
    for done in 0..n {
        runnable.clear();
        runnable.extend((0..workers_n).filter(|&w| inline[w].is_some() || !ready.is_empty()));
        let w = match runnable.len() {
            0 => panic!("controlled executor deadlocked: {done}/{n} tasks done"),
            1 => runnable[0],
            m => runnable[ctrl.choose(ChoicePoint::WorkerStep, m).min(m - 1)],
        };
        let t = inline[w]
            .take()
            .or_else(|| ready.pop_front())
            .expect("a runnable worker has a task");
        if let Some(body) = bodies[t.0].take() {
            body();
        }
        released.clear();
        for &s in graph.successors(t) {
            pending[s.0] -= 1;
            if pending[s.0] == 0 {
                released.push(s);
            }
        }
        let m = released.len();
        if m > 0 {
            // Candidate 0 = the canonical inline pick (the last
            // newly-ready, what run_parallel keeps); 1..m = the rest in
            // CSR order.
            let idx = match m {
                1 => 0,
                _ => match ctrl.choose(ChoicePoint::InlineSuccessor, m).min(m - 1) {
                    0 => m - 1,
                    k => k - 1,
                },
            };
            inline[w] = Some(released.remove(idx));
            ready.extend(&released);
        }
    }
    ParOutcome {
        tasks_run: n,
        threads: workers_n,
        parks: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Access, TaskAccess};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;
    use xk_kernels::perfmodel::TileOp;

    fn op() -> TileOp {
        TileOp::Gemm { m: 4, n: 4, k: 4 }
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
    fn a_panicking_body_ends_the_run_with_its_panic() {
        // An 8-task chain whose fourth body panics: the other workers wait
        // for a successor that is never released, so they must be told to
        // leave. The run goes on its own thread so a hang fails the test.
        let mut g = TaskGraph::new();
        let h = g.add_host_tile(64, false, "x");
        for i in 0..8 {
            g.add_task_with_body(
                op(),
                vec![TaskAccess { handle: h, access: Access::ReadWrite }],
                format!("k{i}"),
                Box::new(move || assert_ne!(i, 3, "body 3 fails")),
            );
        }
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let run = std::thread::spawn(move || run_parallel(&mut g, 4));
            let _ = tx.send(run.join());
        });
        let joined = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("run_parallel still running 30 s after a body panicked");
        let panic = joined.expect_err("the body's panic did not reach the caller");
        let message = panic.downcast_ref::<String>().expect("an assert_ne! message");
        assert!(message.contains("body 3 fails"), "{message}");
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
