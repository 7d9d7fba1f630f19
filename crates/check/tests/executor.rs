//! Schedule-space exploration of the *parallel* executor: `run_controlled`
//! interprets `run_parallel`'s pool (one FIFO ready queue, one inline
//! successor per worker) deterministically under a
//! [`xk_runtime::ScheduleController`], with real task bodies. These tests
//! pin the twin to the pool, then drive it through random and exhaustive
//! (DFS) interleavings and check the dependency protocol holds in every one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xk_check::{ChoiceLog, DfsController, RandomController};
use xk_kernels::perfmodel::TileOp;
use xk_lp::SplitMix64;
use xk_runtime::{
    run_controlled, run_parallel, Access, ChoicePoint, ScheduleController, TaskAccess, TaskGraph,
};

fn op() -> TileOp {
    TileOp::Gemm { m: 4, n: 4, k: 4 }
}

fn rw(h: xk_runtime::HandleId) -> Vec<TaskAccess> {
    vec![TaskAccess { handle: h, access: Access::ReadWrite }]
}

/// A fan-out/fan-in DAG whose final value is schedule-independent only if
/// the dependency protocol is honoured: `seed -> n parallel doublers on
/// separate tiles -> non-commutative combine`. Returns (graph, state).
/// `state` ends at `(1 * 2^n) * 10 + 7` exactly when every doubler runs
/// after the seed and the combine runs after every doubler.
fn fan_graph(n: usize) -> (TaskGraph, Arc<AtomicU64>) {
    let mut g = TaskGraph::new();
    let state = Arc::new(AtomicU64::new(0));
    let root = g.add_host_tile(64, false, "root");
    let st = state.clone();
    g.add_task_with_body(
        op(),
        rw(root),
        "seed",
        Box::new(move || st.store(1, Ordering::SeqCst)),
    );
    let mut mids = Vec::new();
    for i in 0..n {
        let h = g.add_host_tile(64, false, format!("m{i}"));
        let st = state.clone();
        g.add_task_with_body(
            op(),
            vec![
                TaskAccess { handle: root, access: Access::Read },
                TaskAccess { handle: h, access: Access::Write },
            ],
            format!("double{i}"),
            Box::new(move || {
                let v = st.load(Ordering::SeqCst);
                assert!(v >= 1, "doubler ran before the seed");
                st.store(v * 2, Ordering::SeqCst);
            }),
        );
        mids.push(h);
    }
    let mut accesses: Vec<TaskAccess> = mids
        .iter()
        .map(|&h| TaskAccess { handle: h, access: Access::Read })
        .collect();
    accesses.push(TaskAccess { handle: root, access: Access::ReadWrite });
    let st = state.clone();
    let expect = 1u64 << n;
    g.add_task_with_body(
        op(),
        accesses,
        "combine",
        Box::new(move || {
            let v = st.load(Ordering::SeqCst);
            assert_eq!(v, expect, "combine ran before all doublers");
            st.store(v * 10 + 7, Ordering::SeqCst);
        }),
    );
    (g, state)
}

/// A seeded random DAG of 2 000 tasks over 32 host tiles, 1-3 accesses
/// each, mostly reads; every body appends its task index to the log.
fn logged_dag(seed: u64) -> (TaskGraph, Arc<Mutex<Vec<usize>>>) {
    let mut rng = SplitMix64::new(seed);
    let mut g = TaskGraph::new();
    let tiles: Vec<_> = (0..32).map(|i| g.add_host_tile(64, false, format!("h{i}"))).collect();
    let log = Arc::new(Mutex::new(Vec::new()));
    for t in 0..2000 {
        let accesses: Vec<TaskAccess> = (0..rng.usize_in(1, 4))
            .map(|_| TaskAccess {
                handle: tiles[rng.usize_in(0, tiles.len())],
                access: match rng.next_below(10) {
                    0..=5 => Access::Read,
                    6..=7 => Access::ReadWrite,
                    _ => Access::Write,
                },
            })
            .collect();
        let log = log.clone();
        g.add_task_with_body(
            op(),
            accesses,
            format!("t{t}"),
            Box::new(move || log.lock().unwrap().push(t)),
        );
    }
    (g, log)
}

/// Answers candidate 0 at every choice point.
struct Canonical;

impl ScheduleController for Canonical {
    fn choose(&mut self, _point: ChoicePoint, _n: usize) -> usize {
        0
    }
}

#[test]
fn one_worker_twin_runs_bodies_in_the_pools_order() {
    // With one thread the pool has no timing left to decide, so its twin
    // under the canonical controller must run the very same order.
    for seed in 0..20u64 {
        let (mut pool_graph, pool_log) = logged_dag(seed);
        run_parallel(&mut pool_graph, 1);
        let (mut twin_graph, twin_log) = logged_dag(seed);
        run_controlled(&mut twin_graph, 1, &mut Canonical);
        let (pool, twin) = (pool_log.lock().unwrap(), twin_log.lock().unwrap());
        assert_eq!(pool.len(), 2000, "seed {seed}");
        assert!(*pool == *twin, "seed {seed}: the twin left the pool's order");
    }
}

#[test]
fn random_interleavings_respect_the_dependency_protocol() {
    for seed in 0..300u64 {
        let (mut g, state) = fan_graph(4);
        let n = g.len();
        let mut ctrl = RandomController::new(seed);
        let out = run_controlled(&mut g, 4, &mut ctrl);
        assert_eq!(out.tasks_run, n, "seed {seed} lost tasks");
        assert_eq!(
            state.load(Ordering::SeqCst),
            (1 << 4) * 10 + 7,
            "seed {seed} (choices {:?}) broke the dependency order",
            ctrl.log.choices(),
        );
    }
}

#[test]
fn random_interleavings_are_actually_diverse() {
    let mut fingerprints = std::collections::HashSet::new();
    for seed in 0..120u64 {
        let (mut g, _state) = fan_graph(4);
        let mut ctrl = RandomController::new(seed);
        run_controlled(&mut g, 4, &mut ctrl);
        fingerprints.insert(ctrl.log.fingerprint());
    }
    assert!(
        fingerprints.len() > 20,
        "only {} distinct executor schedules in 120 seeds",
        fingerprints.len(),
    );
}

#[test]
fn chain_order_is_schedule_independent() {
    // A serial RW chain admits interleaving freedom only in *idle* worker
    // steps: the observed body order must be the program order regardless.
    for seed in 0..50u64 {
        let mut g = TaskGraph::new();
        let h = g.add_host_tile(64, false, "x");
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..8 {
            let log = log.clone();
            g.add_task_with_body(
                op(),
                rw(h),
                format!("k{i}"),
                Box::new(move || log.lock().unwrap().push(i)),
            );
        }
        let mut ctrl = RandomController::new(seed);
        let out = run_controlled(&mut g, 3, &mut ctrl);
        assert_eq!(out.tasks_run, 8);
        assert_eq!(*log.lock().unwrap(), (0..8).collect::<Vec<_>>(), "seed {seed}");
    }
}

#[test]
fn dfs_exhausts_a_small_executor_tree() {
    // Exhaustive enumeration over a 2-worker diamond: every interleaving
    // the controlled executor can produce is visited exactly once, and the
    // dependency assertions inside the bodies hold in all of them.
    let mut prefix = Some(Vec::new());
    let mut runs = 0usize;
    let mut fingerprints = std::collections::HashSet::new();
    while let Some(p) = prefix {
        assert!(runs < 10_000, "diamond choice tree unexpectedly large");
        let (mut g, state) = fan_graph(2);
        let n = g.len();
        let mut dfs = DfsController::new(p);
        let out = run_controlled(&mut g, 2, &mut dfs);
        assert_eq!(out.tasks_run, n);
        assert_eq!(state.load(Ordering::SeqCst), (1 << 2) * 10 + 7);
        runs += 1;
        fingerprints.insert(dfs.log.fingerprint());
        prefix = DfsController::next_prefix(&dfs.log);
    }
    assert!(runs >= 2, "no schedule freedom found in a 2-worker diamond");
    assert_eq!(fingerprints.len(), runs, "DFS revisited an executor schedule");
}

#[test]
fn controlled_executor_is_deterministic_per_choice_string() {
    // Same controller seed twice => identical choice logs, the property
    // replay depends on.
    let logs: Vec<ChoiceLog> = (0..2)
        .map(|_| {
            let (mut g, _state) = fan_graph(3);
            let mut ctrl = RandomController::new(42);
            run_controlled(&mut g, 4, &mut ctrl);
            ctrl.log
        })
        .collect();
    assert_eq!(logs[0].choices(), logs[1].choices());
    assert_eq!(logs[0].fingerprint(), logs[1].fingerprint());
}
