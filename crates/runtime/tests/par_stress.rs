//! Stress test: `run_parallel` over a 100k-task random DAG.
//!
//! Every task stamps a global completion sequence number; afterwards each
//! task's stamp must be later than all of its predecessors' — a full
//! topological-order witness for the shared ready queue, the inline
//! successor and the condvar waits at scale.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use xk_kernels::perfmodel::TileOp;
use xk_lp::SplitMix64;
use xk_runtime::{run_parallel, Access, TaskAccess, TaskGraph, TaskId};

const N_TASKS: usize = 100_000;
const N_HANDLES: usize = 4096;

#[test]
fn hundred_thousand_task_random_dag_runs_in_dependency_order() {
    let mut rng = SplitMix64::new(0x9E3779B97F4A7C15);
    let mut g = TaskGraph::new();
    let handles: Vec<_> = (0..N_HANDLES)
        .map(|i| g.add_host_tile(64, false, format!("h{i}")))
        .collect();

    let stamps: Arc<Vec<AtomicUsize>> =
        Arc::new((0..N_TASKS).map(|_| AtomicUsize::new(0)).collect());
    let clock = Arc::new(AtomicUsize::new(0));

    for t in 0..N_TASKS {
        // 1-3 accesses; mostly reads plus one writer-ish access so the DAG
        // has both wide fan-out (shared reads) and serial chains.
        let n_acc = rng.usize_in(1, 4);
        let mut accesses = [TaskAccess { handle: handles[0], access: Access::Read }; 3];
        for acc in accesses.iter_mut().take(n_acc) {
            let h = handles[rng.usize_in(0, N_HANDLES)];
            let mode = match rng.next_below(10) {
                0..=5 => Access::Read,
                6..=7 => Access::ReadWrite,
                _ => Access::Write,
            };
            *acc = TaskAccess { handle: h, access: mode };
        }
        let stamps = stamps.clone();
        let clock = clock.clone();
        g.add_task_with_body(
            TileOp::Gemm { m: 4, n: 4, k: 4 },
            &accesses[..n_acc],
            "t",
            Box::new(move || {
                stamps[t].store(clock.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            }),
        );
    }

    let out = run_parallel(&mut g, 0);
    assert_eq!(out.tasks_run, N_TASKS);
    assert_eq!(clock.load(Ordering::SeqCst), N_TASKS);

    for t in 0..N_TASKS {
        let my_stamp = stamps[t].load(Ordering::SeqCst);
        assert!(my_stamp > 0, "task {t} never ran");
        for p in g.predecessors(TaskId(t)) {
            let pred_stamp = stamps[p.0].load(Ordering::SeqCst);
            assert!(
                pred_stamp < my_stamp,
                "task {t} (stamp {my_stamp}) ran before its dependency {} (stamp {pred_stamp})",
                p.0
            );
        }
    }
}
