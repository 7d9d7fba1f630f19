//! Task-to-GPU placement for the simulated executor.
//!
//! The paper's XKBlas uses XKaapi work stealing with a locality heuristic;
//! Chameleon/StarPU uses `dmdas`. Both are one [`Placement`] value, a
//! `match` on [`SchedulerKind`], so the comparison isolates exactly the
//! policy the paper varies: the executor around it is the same for every
//! kind.

use xk_sim::SimTime;
use xk_topo::{Device, FabricSpec};

use crate::cache::SoftwareCache;
use crate::config::SchedulerKind;
use crate::graph::TaskGraph;
use crate::task::Task;

/// Snapshot of executor state a placement may consult.
pub struct SchedView<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Per-GPU earliest kernel-stream availability.
    pub gpu_available: &'a [SimTime],
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

/// The placement policy named by a [`SchedulerKind`], with its run state.
///
/// - `LocalityWorkStealing` (XKaapi) and `StaticOwner` (cuBLAS-MG /
///   ScaLAPACK) place owner-computes: the `owner_hint` of the task's first
///   written tile (the 2D-cyclic distribution chosen by the algorithm
///   layer); tasks without a hint round-robin. They differ only in
///   `Placement::steals`.
/// - `RoundRobin` spreads tasks in ready order.
/// - `Dmdas` (StarPU) places each ready task on the GPU minimizing its
///   estimated completion time: device availability + committed work +
///   estimated transfer of the missing inputs + modelled kernel time.
pub struct Placement {
    kind: SchedulerKind,
    /// The next round-robin GPU.
    next: usize,
    /// Dmdas scratch reused across calls: per-GPU transfer estimate, and
    /// the valid holders of the read handle being costed.
    transfer: Vec<f64>,
    holders: Vec<usize>,
}

impl Placement {
    /// The policy of `kind`, before any task is placed.
    pub fn new(kind: SchedulerKind) -> Self {
        Placement { kind, next: 0, transfer: Vec::new(), holders: Vec::new() }
    }

    /// Whether idle GPUs may steal queued tasks from loaded peers: only
    /// under XKaapi-style work stealing, whose victim choice is the source
    /// of the SYR2K/SYRK load-vs-locality imbalance the paper observes
    /// (§IV-E).
    pub(crate) fn steals(&self) -> bool {
        self.kind == SchedulerKind::LocalityWorkStealing
    }

    /// Chooses the GPU for a task that just became ready.
    pub fn assign(&mut self, task: &Task, graph: &TaskGraph, view: &SchedView<'_>) -> usize {
        let n = view.gpu_available.len();
        match self.kind {
            SchedulerKind::LocalityWorkStealing | SchedulerKind::StaticOwner => {
                match task.owner_handle().and_then(|h| graph.data().info(h).owner_hint) {
                    Some(owner) => owner % n,
                    None => self.round_robin(n),
                }
            }
            SchedulerKind::RoundRobin => self.round_robin(n),
            SchedulerKind::Dmdas => self.dmdas(task, graph, view),
        }
    }

    fn round_robin(&mut self, n: usize) -> usize {
        let g = self.next;
        self.next = (g + 1) % n;
        g
    }

    fn dmdas(&mut self, task: &Task, graph: &TaskGraph, view: &SchedView<'_>) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;
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
    ) -> SchedView<'a> {
        SchedView {
            now: SimTime::ZERO,
            gpu_available: avail,
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
        let v = view(&topo, &cache, &avail);
        let mut s = Placement::new(SchedulerKind::LocalityWorkStealing);
        assert_eq!(s.assign(graph.task(t), &graph, &v), 5);
        assert!(s.steals());
    }

    #[test]
    fn dmdas_prefers_device_with_data() {
        let topo = dgx1();
        let (graph, t) = graph_with_owned_tile(0);
        let mut cache = SoftwareCache::new(8, 1 << 30, graph.data());
        // Tile valid on gpu6 — dmdas should place the reader there.
        cache.begin_transfer(crate::data::HandleId(0), 6, 1024, SimTime::ZERO);
        let avail = vec![SimTime::ZERO; 8];
        let v = view(&topo, &cache, &avail);
        let mut s = Placement::new(SchedulerKind::Dmdas);
        assert_eq!(s.assign(graph.task(t), &graph, &v), 6);
        assert!(!s.steals());
    }

    #[test]
    fn dmdas_avoids_busy_gpu() {
        let topo = dgx1();
        let (graph, t) = graph_with_owned_tile(0);
        let cache = SoftwareCache::new(8, 1 << 30, graph.data());
        let mut avail = vec![SimTime::ZERO; 8];
        avail[0] = SimTime::new(100.0); // gpu0 deeply busy
        let v = view(&topo, &cache, &avail);
        let mut s = Placement::new(SchedulerKind::Dmdas);
        assert_ne!(s.assign(graph.task(t), &graph, &v), 0);
    }

    #[test]
    fn round_robin_cycles() {
        let topo = dgx1();
        let (graph, t) = graph_with_owned_tile(3);
        let cache = SoftwareCache::new(8, 1 << 30, graph.data());
        let avail = vec![SimTime::ZERO; 8];
        let v = view(&topo, &cache, &avail);
        let mut s = Placement::new(SchedulerKind::RoundRobin);
        let picks: Vec<usize> = (0..10).map(|_| s.assign(graph.task(t), &graph, &v)).collect();
        assert_eq!(picks[..8], (0..8).collect::<Vec<_>>()[..]);
        assert_eq!(picks[8], 0);
        assert!(!s.steals());
    }
}
