//! The executor's per-task tables against their definitions: the
//! kernel-seconds table is the performance model evaluated per task, and a
//! run carrying fault state that never fires is the fault-free run.

use xkblas_repro::baselines::{build_run_graph, RunParams};
use xkblas_repro::prelude::*;
use xkblas_repro::runtime::{LinkFault, TaskId, TaskKind};

fn params(routine: Routine, n: usize, tile: usize) -> RunParams {
    RunParams {
        routine,
        n,
        tile,
        data_on_device: false,
    }
}

/// N = 5000 under 1024-tiles leaves a 904-wide ragged edge, so every routine
/// interleaves several tile shapes: `TaskGraph::kernel_seconds` indexes its
/// per-shape table from every entry of the graph's op palette.
#[test]
fn kernel_seconds_is_the_model_bit_for_bit_on_ragged_graphs() {
    let topo = dgx1();
    let cfg = RuntimeConfig::xkblas();
    for routine in Routine::ALL {
        let graph = build_run_graph(&topo, &params(routine, 5000, 1024), &cfg, false);
        let table = graph.kernel_seconds(&cfg.gpu_model);
        assert_eq!(table.len(), graph.len());
        let mut flushes = 0;
        for (id, &seconds) in table.iter().enumerate() {
            let expected = match graph.op(TaskId(id)) {
                Some(op) => cfg.gpu_model.kernel_time(op),
                None => {
                    assert_eq!(graph.kind(TaskId(id)), TaskKind::Flush);
                    flushes += 1;
                    0.0
                }
            };
            assert_eq!(
                seconds.to_bits(),
                expected.to_bits(),
                "{routine:?} task {id}"
            );
        }
        assert!(
            flushes > 0,
            "{routine:?}: the coherency flushes are part of the graph"
        );
    }
}

/// `at: ∞` allocates the fault state and walks every fault branch of
/// launch, fetch, forward, write-back, flush and completion, yet no transfer
/// can outlive the link: the run must be the fault-free run, byte for byte.
#[test]
fn a_fault_that_never_fires_changes_nothing() {
    for topo in [dgx1(), fabrics::dual_node_ib(4)] {
        for routine in Routine::ALL {
            let cfg = RuntimeConfig::xkblas();
            let graph = build_run_graph(&topo, &params(routine, 8192, 1024), &cfg, false);
            let session = || {
                SimSession::on(&topo)
                    .config(cfg.clone())
                    .observe(ObsLevel::Full)
            };
            let plain = session().run(&graph).into_outcome();
            let armed = session()
                .link_fault(LinkFault {
                    src: 0,
                    dst: 1,
                    at: f64::INFINITY,
                })
                .run(&graph)
                .into_outcome();
            let what = format!("{} {routine:?}", topo.name());
            assert!(
                plain.bytes_p2p > 0,
                "{what}: no device-to-device traffic to compare"
            );
            assert!(armed.failures.is_empty(), "{what}: {:?}", armed.failures);
            assert_eq!(armed.makespan.to_bits(), plain.makespan.to_bits(), "{what}");
            assert_eq!(armed.trace.spans(), plain.trace.spans(), "{what}");
            assert_eq!(armed.trace.labels(), plain.trace.labels(), "{what}");
            assert_eq!(
                (
                    armed.bytes_h2d,
                    armed.bytes_p2p,
                    armed.bytes_d2h,
                    armed.tasks_run,
                    armed.steals
                ),
                (
                    plain.bytes_h2d,
                    plain.bytes_p2p,
                    plain.bytes_d2h,
                    plain.tasks_run,
                    plain.steals
                ),
                "{what}"
            );
            assert_eq!(armed.obs, plain.obs, "{what}");
        }
    }
}
