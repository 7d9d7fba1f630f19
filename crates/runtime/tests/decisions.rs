//! The two decision points read the cache without allocating; these tests
//! pin their answers to the straightforward `Vec`-building formulations
//! they replaced, on random cache states over every gallery machine and a
//! PCIe-only fabric wider than a machine word (nothing in the decisions
//! may depend on the GPU count fitting a fixed-width mask).

use std::cmp::Reverse;

use xk_kernels::perfmodel::TileOp;
use xk_kernels::GpuModel;
use xk_lp::{for_each_seed, SplitMix64};
use xk_runtime::heuristics::{select_source, SourceDecision};
use xk_runtime::sched::{Dmdas, SchedView, Scheduler};
use xk_runtime::{
    Access, DataInfo, HandleId, Heuristics, ReplicaState, SoftwareCache, TaskAccess, TaskGraph,
};
use xk_sim::SimTime;
use xk_topo::builders::pcie_only;
use xk_topo::{fabrics, Device, FabricSpec};

const HANDLES: usize = 12;

fn machines() -> Vec<FabricSpec> {
    let mut all = fabrics::gallery();
    all.push(pcie_only(72));
    all
}

/// `HANDLES` tiles of random sizes and a cache in a random reachable state:
/// every tile keeps a source (host-valid, or a valid dirty holder), and
/// replicas are a mix of valid, landed and still-in-flight transfers.
fn random_state(rng: &mut SplitMix64, n_gpus: usize) -> (TaskGraph, SoftwareCache) {
    let mut graph = TaskGraph::new();
    for i in 0..HANDLES {
        let bytes = (1 + rng.next_below(64)) << 20;
        graph.add_data(DataInfo::host(bytes, rng.next_below(2) == 0, format!("t{i}")));
    }
    let mut cache = SoftwareCache::new(n_gpus, u64::MAX, graph.data());
    for (h, info) in graph.data().iter() {
        if rng.next_below(3) == 0 {
            cache.mark_written(h, rng.usize_in(0, n_gpus), info.bytes, graph.data());
        }
        for _ in 0..rng.next_below(5) {
            let (g, ready_at) = (rng.usize_in(0, n_gpus), SimTime::new(rng.f64_in(0.0, 10.0)));
            if cache.dirty_on(h) != Some(g) {
                cache.begin_transfer(h, g, info.bytes, ready_at);
            }
        }
    }
    (graph, cache)
}

/// dmdas as the textbook states it: per candidate GPU, every missing input
/// costs a transfer from its fastest valid holder (first of equals), else
/// from the host.
fn dmdas_reference(task: &xk_runtime::Task, graph: &TaskGraph, view: &SchedView<'_>) -> usize {
    let kernel = task.op.map(|op| GpuModel::v100().kernel_time(op)).unwrap_or(0.0);
    let mut best = 0usize;
    let mut best_cost = f64::INFINITY;
    for g in 0..view.gpu_available.len() {
        let mut transfer = 0.0;
        for h in task.read_handles() {
            if view.cache.valid_on(h, g, view.now) {
                continue;
            }
            let route = view
                .cache
                .valid_gpus(h, view.now)
                .into_iter()
                .map(|src| view.topo.route(Device::Gpu(src), Device::Gpu(g)))
                .min_by(|a, b| a.bandwidth.partial_cmp(&b.bandwidth).unwrap().reverse())
                .unwrap_or_else(|| view.topo.route(Device::Host, Device::Gpu(g)));
            transfer += route.transfer_time(graph.data().info(h).bytes);
        }
        let start = view.gpu_available[g].seconds().max(view.now.seconds()) + view.gpu_committed[g];
        let cost = start + transfer + kernel;
        if cost < best_cost {
            best_cost = cost;
            best = g;
        }
    }
    best
}

#[test]
fn dmdas_assign_matches_the_textbook_formula() {
    for topo in machines() {
        let n = topo.n_gpus();
        for_each_seed(24, |rng| {
            let (mut graph, cache) = random_state(rng, n);
            // One to five accesses per task: the inline and the spilled
            // access list, reads and read-writes mixed with pure writes.
            let tasks: Vec<_> = (0..16)
                .map(|_| {
                    let accesses: Vec<TaskAccess> = (0..rng.usize_in(1, 6))
                        .map(|_| TaskAccess {
                            handle: HandleId(rng.usize_in(0, HANDLES)),
                            access: rng.pick(&[Access::Read, Access::Read, Access::ReadWrite, Access::Write]),
                        })
                        .collect();
                    graph.add_task(TileOp::Gemm { m: 1024, n: 1024, k: 1024 }, accesses, "t")
                })
                .collect();
            let available: Vec<SimTime> = (0..n).map(|_| SimTime::new(rng.f64_in(0.0, 0.05))).collect();
            // Mostly idle GPUs, so transfer estimates (and their ties) decide.
            let committed: Vec<f64> =
                (0..n).map(|_| if rng.next_below(4) == 0 { rng.f64_in(0.0, 0.02) } else { 0.0 }).collect();
            // Every task is the same GEMM tile, so one table entry serves all.
            let kernel_seconds = graph.kernel_seconds(&GpuModel::v100())[tasks[0].0];
            let view = SchedView {
                now: SimTime::new(rng.f64_in(0.0, 10.0)),
                gpu_available: &available,
                queue_lens: &vec![0; n],
                gpu_committed: &committed,
                topo: &topo,
                cache: &cache,
                kernel_seconds,
            };
            let mut dmdas = Dmdas::default();
            for &t in &tasks {
                let task = graph.task(t);
                assert_eq!(
                    dmdas.assign(task, &graph, &view),
                    dmdas_reference(task, &graph, &view),
                    "{}: task {t:?}",
                    topo.name()
                );
            }
        });
    }
}

/// The source ladder of §III-B/III-C with every candidate list spelled out
/// as a fresh `Vec`.
fn select_source_reference(
    h: HandleId,
    dst: usize,
    now: SimTime,
    cache: &SoftwareCache,
    topo: &FabricSpec,
    cfg: Heuristics,
    tie_break: &mut dyn FnMut(&[usize]) -> usize,
) -> SourceDecision {
    match cache.replica(h, dst) {
        Some(ReplicaState::Valid) => return SourceDecision::AlreadyThere { ready_at: now },
        Some(ReplicaState::UnderTransfer { ready_at }) => {
            return SourceDecision::AlreadyThere { ready_at: ready_at.max(now) }
        }
        None => {}
    }
    let valid = cache.valid_gpus(h, now);
    if !cfg.allow_d2d {
        if cache.host_valid(h) {
            return SourceDecision::FromHost;
        }
        return SourceDecision::FromGpu { src: valid[0] };
    }
    let peers: Vec<usize> = valid.into_iter().filter(|&g| g != dst).collect();
    if !peers.is_empty() {
        if !cfg.topology_aware {
            return SourceDecision::FromGpu { src: peers[0] };
        }
        let best_rank = peers.iter().map(|&g| topo.perf_rank(g, dst)).max().unwrap();
        let best: Vec<usize> =
            peers.into_iter().filter(|&g| topo.perf_rank(g, dst) == best_rank).collect();
        return SourceDecision::FromGpu { src: best[tie_break(&best).min(best.len() - 1)] };
    }
    if cfg.optimistic_d2d {
        let mut inflight = cache.in_flight(h, now);
        if cfg.topology_aware {
            inflight.sort_by_key(|&(g, ready_at)| (Reverse(topo.perf_rank(g, dst)), ready_at, g));
        } else {
            inflight.sort_by_key(|&(g, ready_at)| (ready_at, g));
        }
        if let Some(&(via, ready_at)) = inflight.first() {
            return SourceDecision::ForwardAfter { via, ready_at };
        }
    }
    SourceDecision::FromHost
}

#[test]
fn select_source_matches_the_vec_formulation() {
    let configs = [
        Heuristics::full(),
        Heuristics::no_optimistic(),
        Heuristics::none(),
        Heuristics::host_only(),
    ];
    for topo in machines() {
        let n = topo.n_gpus();
        for_each_seed(24, |rng| {
            let (_, cache) = random_state(rng, n);
            let mut scratch = Vec::new();
            for _ in 0..64 {
                let (h, dst) = (HandleId(rng.usize_in(0, HANDLES)), rng.usize_in(0, n));
                let now = SimTime::new(rng.f64_in(0.0, 10.0));
                let salt = rng.next_u64() as usize;
                for cfg in configs {
                    // Both sides log the slice they were offered and answer
                    // with the same arbitrary (sometimes out-of-range) index.
                    let mut offered = [Vec::new(), Vec::new()];
                    let [got_log, want_log] = &mut offered;
                    let mut tie_got = |c: &[usize]| {
                        got_log.push(c.to_vec());
                        salt % (c.len() + 1)
                    };
                    let mut tie_want = |c: &[usize]| {
                        want_log.push(c.to_vec());
                        salt % (c.len() + 1)
                    };
                    let got =
                        select_source(h, dst, now, &cache, &topo, cfg, &mut scratch, &mut tie_got);
                    let want =
                        select_source_reference(h, dst, now, &cache, &topo, cfg, &mut tie_want);
                    assert_eq!(got, want, "{}: {h:?} → gpu{dst} under {cfg:?}", topo.name());
                    assert_eq!(offered[0], offered[1], "{}: candidates of {h:?}", topo.name());
                }
            }
        });
    }
}
