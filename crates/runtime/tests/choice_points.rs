//! Every DES choice point is one code path: a controller that always
//! answers 0 is consulted at each of the five points somewhere in the
//! matrix below, and every run it drives is bit-identical to the run
//! without a controller.

use std::collections::HashMap;

use xk_kernels::perfmodel::TileOp;
use xk_runtime::{
    Access, ChoicePoint, DataInfo, HandleId, Heuristics, RuntimeConfig, ScheduleController,
    SchedulerKind, SimOutcome, SimSession, TaskAccess, TaskGraph,
};
use xk_topo::dgx1;
use xk_trace::{Place, SpanKind};

const MB: u64 = 1 << 20;

/// Candidate 0 everywhere, counting the consultations per point.
#[derive(Default)]
struct Counting(HashMap<ChoicePoint, usize>);

impl ScheduleController for Counting {
    fn choose(&mut self, point: ChoicePoint, n: usize) -> usize {
        assert!(n >= 2, "{point:?} consulted with {n} candidate(s)");
        *self.0.entry(point).or_default() += 1;
        0
    }
}

fn task(g: &mut TaskGraph, reads: &[HandleId], rw: HandleId, label: String) {
    let mut accesses: Vec<TaskAccess> =
        reads.iter().map(|&handle| TaskAccess { handle, access: Access::Read }).collect();
    accesses.push(TaskAccess { handle: rw, access: Access::ReadWrite });
    g.add_task(TileOp::Gemm { m: 512, n: 512, k: 512 }, accesses, label);
}

/// GPUs 1–7 read one shared host tile at once (same-time events); then a
/// task on GPU 0 reads it once it is valid on GPUs 3 and 4, its two
/// double-NVLink peers (a source tie).
fn broadcast() -> TaskGraph {
    let mut g = TaskGraph::new();
    let shared = g.add_host_tile(32 * MB, true, "A");
    let outputs: Vec<_> = (1..8)
        .map(|i| {
            let c = g.add_data(DataInfo::host(32 * MB, true, format!("C{i}")).with_owner(i));
            task(&mut g, &[shared], c, format!("t{i}"));
            c
        })
        .collect();
    let d = g.add_data(DataInfo::host(32 * MB, true, "D").with_owner(0));
    task(&mut g, &[shared, outputs[2], outputs[3]], d, "gather".into());
    g
}

/// Independent tasks owned by GPUs 0 and 1 only: a backlog on two queues
/// (ready picks, and thieves choosing between two victims).
fn backlog() -> TaskGraph {
    let mut g = TaskGraph::new();
    for i in 0..32 {
        let c = g.add_data(DataInfo::host(MB, true, format!("C{i}")).with_owner(i % 2));
        task(&mut g, &[], c, format!("t{i}"));
    }
    g
}

/// Tasks on GPUs 0 and 1, each reading two fresh tiles, run where a GPU
/// holds five tiles (evictions among several candidates).
fn pressure() -> TaskGraph {
    let mut g = TaskGraph::new();
    for i in 0..24 {
        let owner = i % 2;
        let a = g.add_data(DataInfo::host(32 * MB, true, format!("A{i}")).with_owner(owner));
        let b = g.add_data(DataInfo::host(32 * MB, true, format!("B{i}")).with_owner(owner));
        let c = g.add_data(DataInfo::host(32 * MB, true, format!("C{i}")).with_owner(owner));
        task(&mut g, &[a, b], c, format!("t{i}"));
    }
    g
}

fn assert_identical(plain: &SimOutcome, controlled: &SimOutcome, case: &str) {
    assert_eq!(plain.makespan.to_bits(), controlled.makespan.to_bits(), "{case}: makespan");
    assert_eq!(plain.trace.spans(), controlled.trace.spans(), "{case}: spans");
    let counters = |o: &SimOutcome| (o.bytes_h2d, o.bytes_d2h, o.bytes_p2p, o.tasks_run, o.steals);
    assert_eq!(counters(plain), counters(controlled), "{case}: counters");
}

#[test]
fn every_choice_point_is_consulted_and_candidate_zero_is_the_plain_run() {
    let topo = dgx1();
    let graphs = [("broadcast", broadcast()), ("backlog", backlog()), ("pressure", pressure())];
    let mut ctrl = Counting::default();
    for kind in [
        SchedulerKind::LocalityWorkStealing,
        SchedulerKind::Dmdas,
        SchedulerKind::RoundRobin,
        SchedulerKind::StaticOwner,
    ] {
        for heuristics in [Heuristics::full(), Heuristics::none()] {
            for (name, graph) in &graphs {
                let mut cfg = RuntimeConfig::xkblas().with_scheduler(kind).with_heuristics(heuristics);
                match *name {
                    "backlog" => cfg.window = 1,
                    "pressure" => (cfg.window, cfg.gpu_memory) = (1, 5 * 32 * MB),
                    _ => {}
                }
                let session = SimSession::on(&topo).config(cfg);
                let plain = session.run(graph).into_outcome();
                let controlled = session.run_controlled(graph, &mut ctrl).into_outcome();
                let case = format!("{name} under {kind:?}, {heuristics:?}");
                assert_eq!(plain.tasks_run, graph.len(), "{case}");
                assert_identical(&plain, &controlled, &case);
            }
        }
    }
    for point in [
        ChoicePoint::EventTieBreak,
        ChoicePoint::ReadyTaskPick,
        ChoicePoint::StealVictim,
        ChoicePoint::SourceTieBreak,
        ChoicePoint::EvictionPick,
    ] {
        assert!(ctrl.0.get(&point).is_some_and(|&n| n > 0), "{point:?} never consulted: {:?}", ctrl.0);
    }
}

/// The canonical steal victim is the longest peer queue, the lowest index
/// on ties. Six tasks queue on GPU 0 and two on GPU 1, window 1: GPUs 0
/// and 1 launch their own front tasks, then thieves 2–7 each take the
/// back of the longest queue in turn — GPU 0's five, four, three, two,
/// then at one against one GPU 0 again, and last GPU 1's.
#[test]
fn steal_victim_is_the_longest_queue_lowest_index_on_ties() {
    let mut g = TaskGraph::new();
    for (i, owner) in [0, 0, 0, 0, 0, 0, 1, 1].into_iter().enumerate() {
        let c = g.add_data(DataInfo::host(MB, true, format!("C{i}")).with_owner(owner));
        task(&mut g, &[], c, format!("t{i}"));
    }
    let cfg = RuntimeConfig { window: 1, ..RuntimeConfig::xkblas() };
    let out = SimSession::on(&dgx1()).config(cfg).run(&g).into_outcome();
    let mut gpu_of = vec![u32::MAX; g.len()];
    for s in out.trace.spans().iter().filter(|s| s.kind == SpanKind::Kernel) {
        let Place::Gpu(gpu) = s.place else { panic!("kernel off a GPU: {s:?}") };
        gpu_of[s.subject as usize] = gpu;
    }
    assert_eq!(gpu_of, [0, 6, 5, 4, 3, 2, 1, 7]);
    assert_eq!(out.steals, 6);
}
