//! Task-to-GPU placement policies for the simulated executor.
//!
//! The paper's XKBlas uses XKaapi work stealing with a locality heuristic;
//! Chameleon/StarPU uses `dmdas`. Both are modelled here behind one trait
//! so the comparison isolates exactly what the paper varies.

use xk_sim::SimTime;
use xk_topo::{Device, FabricSpec};

use crate::cache::SoftwareCache;
use crate::config::SchedulerKind;
use crate::graph::TaskGraph;
use crate::task::Task;

/// Snapshot of executor state a scheduler may consult.
pub struct SchedView<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Per-GPU earliest kernel-stream availability.
    pub gpu_available: &'a [SimTime],
    /// Per-GPU ready-queue lengths.
    pub queue_lens: &'a [usize],
    /// Kernel seconds already assigned to each GPU and not yet finished.
    pub gpu_committed: &'a [f64],
    /// Platform topology.
    pub topo: &'a FabricSpec,
    /// Software cache (for transfer estimates / locality).
    pub cache: &'a SoftwareCache,
    /// Modelled kernel seconds of the task being placed (`0` for a flush),
    /// read from the executor's per-task table
    /// ([`TaskGraph::kernel_seconds`]).
    pub kernel_seconds: f64,
}

/// A placement policy.
pub trait Scheduler {
    /// Chooses the GPU for a task that just became ready.
    fn assign(&mut self, task: &Task, graph: &TaskGraph, view: &SchedView<'_>) -> usize;

    /// Whether idle GPUs may steal queued tasks from loaded peers.
    fn allows_stealing(&self) -> bool {
        false
    }
}

/// Builds the scheduler named by the configuration.
pub fn make_scheduler(kind: SchedulerKind, n_gpus: usize) -> Box<dyn Scheduler> {
    match kind {
        SchedulerKind::LocalityWorkStealing => Box::new(LocalityWorkStealing::new(n_gpus)),
        SchedulerKind::Dmdas => Box::new(Dmdas::default()),
        SchedulerKind::RoundRobin => Box::new(RoundRobin::default()),
        SchedulerKind::StaticOwner => Box::new(StaticOwner::new(n_gpus)),
    }
}

/// Owner-computes placement: the `owner_hint` of the task's first written
/// tile (the 2D-cyclic distribution chosen by the algorithm layer); tasks
/// without a hint round-robin through `fallback`.
fn owner_or_round_robin(task: &Task, graph: &TaskGraph, fallback: &mut usize, n_gpus: usize) -> usize {
    match task.owner_handle().and_then(|h| graph.data().info(h).owner_hint) {
        Some(owner) => owner % n_gpus,
        None => std::mem::replace(fallback, (*fallback + 1) % n_gpus),
    }
}

/// XKaapi-style owner-computes placement with stealing allowed.
///
/// Idle GPUs steal from the most loaded queue — the source of the
/// SYR2K/SYRK load-vs-locality imbalance the paper observes (§IV-E).
pub struct LocalityWorkStealing {
    fallback: usize,
    n_gpus: usize,
}

impl LocalityWorkStealing {
    /// Creates the policy for `n_gpus` devices.
    pub fn new(n_gpus: usize) -> Self {
        LocalityWorkStealing {
            fallback: 0,
            n_gpus,
        }
    }
}

impl Scheduler for LocalityWorkStealing {
    fn assign(&mut self, task: &Task, graph: &TaskGraph, _view: &SchedView<'_>) -> usize {
        owner_or_round_robin(task, graph, &mut self.fallback, self.n_gpus)
    }

    fn allows_stealing(&self) -> bool {
        true
    }
}

/// StarPU `dmdas`-like policy: place each ready task on the GPU minimizing
/// its estimated completion time (device availability + estimated transfer
/// of the missing inputs + modelled kernel time). No stealing.
#[derive(Default)]
pub struct Dmdas {
    /// Scratch reused across calls: per-GPU transfer estimate, and the
    /// valid holders of the read handle being costed.
    transfer: Vec<f64>,
    holders: Vec<usize>,
}

impl Scheduler for Dmdas {
    fn assign(&mut self, task: &Task, graph: &TaskGraph, view: &SchedView<'_>) -> usize {
        let n = view.gpu_available.len();
        // One pass per read handle: its holders and size are looked up once,
        // then every GPU missing it adds the estimate from the "cheapest"
        // valid location (first holder of maximal bandwidth, else the host).
        self.transfer.clear();
        self.transfer.resize(n, 0.0);
        for h in task.read_handles() {
            let bytes = graph.data().info(h).bytes;
            self.holders.clear();
            self.holders.extend(view.cache.valid_holders(h, view.now));
            for (g, transfer) in self.transfer.iter_mut().enumerate() {
                if view.cache.valid_on(h, g, view.now) {
                    continue;
                }
                let dst = Device::Gpu(g);
                let route = self
                    .holders
                    .iter()
                    .map(|&src| view.topo.route_ref(Device::Gpu(src), dst))
                    .reduce(|best, r| if r.bandwidth > best.bandwidth { r } else { best })
                    .unwrap_or_else(|| view.topo.route_ref(Device::Host, dst));
                *transfer += route.transfer_time(bytes);
            }
        }
        let mut best = 0usize;
        let mut best_cost = f64::INFINITY;
        for g in 0..n {
            let start = view.gpu_available[g].seconds().max(view.now.seconds())
                + view.gpu_committed[g];
            let cost = start + self.transfer[g] + view.kernel_seconds;
            if cost < best_cost {
                best_cost = cost;
                best = g;
            }
        }
        best
    }
}

/// Plain round-robin in ready order.
#[derive(Default)]
pub struct RoundRobin {
    next: usize,
}

impl Scheduler for RoundRobin {
    fn assign(&mut self, _task: &Task, _graph: &TaskGraph, view: &SchedView<'_>) -> usize {
        let n = view.gpu_available.len();
        let g = self.next % n;
        self.next = (self.next + 1) % n;
        g
    }
}

/// Strict owner-computes (no stealing): ScaLAPACK / cuBLAS-MG style.
pub struct StaticOwner {
    fallback: usize,
    n_gpus: usize,
}

impl StaticOwner {
    /// Creates the policy for `n_gpus` devices.
    pub fn new(n_gpus: usize) -> Self {
        StaticOwner {
            fallback: 0,
            n_gpus,
        }
    }
}

impl Scheduler for StaticOwner {
    fn assign(&mut self, task: &Task, graph: &TaskGraph, _view: &SchedView<'_>) -> usize {
        owner_or_round_robin(task, graph, &mut self.fallback, self.n_gpus)
    }
}

/// Chooses a steal victim: the GPU with the longest non-empty queue.
pub fn pick_victim(queue_lens: &[usize], thief: usize) -> Option<usize> {
    let (victim, &len) = queue_lens
        .iter()
        .enumerate()
        .filter(|&(g, _)| g != thief)
        .max_by_key(|&(g, &l)| (l, std::cmp::Reverse(g)))?;
    if len >= 1 {
        Some(victim)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use crate::data::DataInfo;
    use crate::task::{Access, TaskAccess, TaskId};
    use xk_kernels::perfmodel::TileOp;
    use xk_topo::dgx1;

    fn graph_with_owned_tile(owner: usize) -> (TaskGraph, TaskId) {
        let mut g = TaskGraph::new();
        let h = g.add_data(DataInfo::host(1024, false, "c").with_owner(owner));
        let t = g.add_task(
            TileOp::Gemm { m: 8, n: 8, k: 8 },
            vec![TaskAccess {
                handle: h,
                access: Access::ReadWrite,
            }],
            "t",
        );
        (g, t)
    }

    fn view<'a>(
        topo: &'a xk_topo::FabricSpec,
        cache: &'a SoftwareCache,
        avail: &'a [SimTime],
        lens: &'a [usize],
    ) -> SchedView<'a> {
        SchedView {
            now: SimTime::ZERO,
            gpu_available: avail,
            queue_lens: lens,
            gpu_committed: &ZERO_COMMIT,
            topo,
            cache,
            kernel_seconds: 1e-3,
        }
    }
    static ZERO_COMMIT: [f64; 8] = [0.0; 8];

    #[test]
    fn locality_ws_honors_owner() {
        let topo = dgx1();
        let (graph, t) = graph_with_owned_tile(5);
        let cache = SoftwareCache::new(8, 1 << 30, graph.data());
        let avail = vec![SimTime::ZERO; 8];
        let lens = vec![0; 8];
        let v = view(&topo, &cache, &avail, &lens);
        let mut s = LocalityWorkStealing::new(8);
        assert_eq!(s.assign(graph.task(t), &graph, &v), 5);
        assert!(s.allows_stealing());
    }

    #[test]
    fn dmdas_prefers_device_with_data() {
        let topo = dgx1();
        let (graph, t) = graph_with_owned_tile(0);
        let mut cache = SoftwareCache::new(8, 1 << 30, graph.data());
        // Tile valid on gpu6 — dmdas should place the reader there.
        cache.begin_transfer(crate::data::HandleId(0), 6, 1024, SimTime::ZERO);
        let avail = vec![SimTime::ZERO; 8];
        let lens = vec![0; 8];
        let v = view(&topo, &cache, &avail, &lens);
        let mut s = Dmdas::default();
        assert_eq!(s.assign(graph.task(t), &graph, &v), 6);
        assert!(!s.allows_stealing());
    }

    #[test]
    fn dmdas_avoids_busy_gpu() {
        let topo = dgx1();
        let (graph, t) = graph_with_owned_tile(0);
        let cache = SoftwareCache::new(8, 1 << 30, graph.data());
        let mut avail = vec![SimTime::ZERO; 8];
        avail[0] = SimTime::new(100.0); // gpu0 deeply busy
        let lens = vec![0; 8];
        let v = view(&topo, &cache, &avail, &lens);
        let mut s = Dmdas::default();
        assert_ne!(s.assign(graph.task(t), &graph, &v), 0);
    }

    #[test]
    fn round_robin_cycles() {
        let topo = dgx1();
        let (graph, t) = graph_with_owned_tile(3);
        let cache = SoftwareCache::new(8, 1 << 30, graph.data());
        let avail = vec![SimTime::ZERO; 8];
        let lens = vec![0; 8];
        let v = view(&topo, &cache, &avail, &lens);
        let mut s = RoundRobin::default();
        let picks: Vec<usize> = (0..10).map(|_| s.assign(graph.task(t), &graph, &v)).collect();
        assert_eq!(picks[..8], (0..8).collect::<Vec<_>>()[..]);
        assert_eq!(picks[8], 0);
    }

    #[test]
    fn victim_is_longest_queue() {
        assert_eq!(pick_victim(&[0, 3, 1, 0], 0), Some(1));
        assert_eq!(pick_victim(&[0, 0, 0, 0], 2), None);
        // Thief excluded even if longest.
        assert_eq!(pick_victim(&[5, 2, 0, 0], 0), Some(1));
    }

    #[test]
    fn factory_builds_all_kinds() {
        for kind in [
            SchedulerKind::LocalityWorkStealing,
            SchedulerKind::Dmdas,
            SchedulerKind::RoundRobin,
            SchedulerKind::StaticOwner,
        ] {
            let _ = make_scheduler(kind, 8);
        }
    }
}
