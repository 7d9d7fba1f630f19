//! The DES hot loop allocates nothing per task: asserted with a counting
//! allocator, not assumed. After `SimExecutor` construction a run may only
//! grow its preallocated buffers (amortised `Vec` doubling of the span
//! list, the ready queues, the scratch vectors).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xk_kernels::perfmodel::TileOp;
use xk_lp::SplitMix64;
use xk_runtime::{
    Access, ChoicePoint, DataInfo, Heuristics, ObsLevel, RuntimeConfig, ScheduleController,
    SchedulerKind, SimExecutor, TaskAccess, TaskGraph,
};
use xk_topo::{dgx1, Device, FabricSpec};

thread_local! {
    /// Allocator calls (`alloc` + `realloc`) made by this thread. Per
    /// thread, so tests running beside this one do not pollute it;
    /// const-initialised and without a destructor, so reading it inside
    /// `alloc` never allocates itself.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down may allocate after its
        // thread-locals are gone.
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The tiled GEMM of `nt × nt` tiles of 1024² doubles (N = 1024·nt): task
/// `(i, j, k)` reads `A(i,k)`, `B(k,j)` and updates `C(i,j)`, whose owner
/// follows a 2D block-cyclic distribution over a 2×4 GPU grid.
fn tiled_gemm(nt: usize) -> TaskGraph {
    const TILE: usize = 1024;
    let bytes = (TILE * TILE * 8) as u64;
    let mut g = TaskGraph::new();
    let mut tiles = |name: char, owned: bool| -> Vec<_> {
        (0..nt * nt)
            .map(|ij| {
                let (i, j) = (ij / nt, ij % nt);
                let info = DataInfo::host(bytes, true, format!("{name}({i},{j})"));
                g.add_data(if owned { info.with_owner((i % 2) * 4 + j % 4) } else { info })
            })
            .collect()
    };
    let (a, b, c) = (tiles('A', false), tiles('B', false), tiles('C', true));
    for i in 0..nt {
        for j in 0..nt {
            for k in 0..nt {
                g.add_task(
                    TileOp::Gemm { m: TILE, n: TILE, k: TILE },
                    [
                        TaskAccess { handle: a[i * nt + k], access: Access::Read },
                        TaskAccess { handle: b[k * nt + j], access: Access::Read },
                        TaskAccess { handle: c[i * nt + j], access: Access::ReadWrite },
                    ],
                    "gemm",
                );
            }
        }
    }
    g
}

/// Uniformly random picks at every choice point.
struct Uniform(SplitMix64);

impl ScheduleController for Uniform {
    fn choose(&mut self, _point: ChoicePoint, n: usize) -> usize {
        self.0.next_below(n as u64) as usize
    }
}

/// Allocator calls made by one run at `ObsLevel::Off`, construction
/// excluded; under `ctrl` when given.
fn run_allocations(
    graph: &TaskGraph,
    topo: &FabricSpec,
    cfg: &RuntimeConfig,
    ctrl: Option<&mut dyn ScheduleController>,
) -> u64 {
    let mut exec = SimExecutor::new(graph, topo, cfg).observe(ObsLevel::Off);
    if let Some(c) = ctrl {
        exec = exec.control(c);
    }
    let before = CALLS.with(Cell::get);
    let out = exec.run();
    let calls = CALLS.with(Cell::get) - before;
    assert_eq!(out.tasks_run, graph.len());
    calls
}

/// XKBlas (work stealing, both heuristics) and Chameleon (dmdas,
/// host-staged transfers) on GEMM N = 8192 / tile 1024: under 0.1 allocator
/// calls per task (measured 28 and 30 for 512 tasks — the span list and the
/// eight ready queues doubling), and eight times the tasks of N = 4096
/// costs only those few doublings more, not eight times the calls.
#[test]
fn hot_loop_allocations_do_not_scale_with_tasks() {
    let xkblas = RuntimeConfig::xkblas();
    let chameleon = RuntimeConfig::xkblas()
        .with_scheduler(SchedulerKind::Dmdas)
        .with_heuristics(Heuristics::host_only());

    // The fabric builds its routing table and rank ladder on first use.
    let topo = dgx1();
    topo.route_ref(Device::Host, Device::Gpu(0));
    topo.perf_rank(0, 1);
    let (small, large) = (tiled_gemm(4), tiled_gemm(8));
    assert_eq!((small.len(), large.len()), (64, 512));
    for (name, cfg) in [("xkblas", &xkblas), ("chameleon", &chameleon)] {
        let few = run_allocations(&small, &topo, cfg, None);
        let many = run_allocations(&large, &topo, cfg, None);
        assert!(
            (many as f64) < 0.1 * large.len() as f64,
            "{name}: {many} allocator calls for {} tasks",
            large.len()
        );
        assert!(many <= few + 16, "{name}: {few} calls at 64 tasks, {many} at 512");
    }
}

/// The same two GEMMs under a uniform-random controller: tied event pops,
/// ready-task picks and steal-victim choices allocate nothing per task
/// either.
#[test]
fn controlled_runs_do_not_allocate_per_task() {
    let topo = dgx1();
    topo.route_ref(Device::Host, Device::Gpu(0));
    topo.perf_rank(0, 1);
    let (small, large) = (tiled_gemm(4), tiled_gemm(8));
    let cfg = RuntimeConfig::xkblas();
    for seed in 0..4 {
        let few = run_allocations(&small, &topo, &cfg, Some(&mut Uniform(SplitMix64::new(seed))));
        let many = run_allocations(&large, &topo, &cfg, Some(&mut Uniform(SplitMix64::new(seed))));
        eprintln!("seed {seed}: {few} calls at 64 tasks, {many} at 512");
        assert!(
            (many as f64) < 0.1 * large.len() as f64,
            "seed {seed}: {many} allocator calls for {} tasks",
            large.len()
        );
        assert!(many <= few + 16, "seed {seed}: {few} calls at 64 tasks, {many} at 512");
    }
}
