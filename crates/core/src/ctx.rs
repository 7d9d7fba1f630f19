//! The XKBlas context: asynchronous call composition over one task graph.
//!
//! Every `*_async` routine appends tasks to the context's graph; nothing
//! executes until [`Context::run_numeric`] (real multicore execution) or
//! [`Context::run_simulated`] (DGX-1 model) — mirroring XKBlas' extended
//! LAPACK API with asynchronous semantics. Successive calls compose: a
//! routine reading tiles written by a previous one picks up point-to-point
//! dependencies instead of a barrier (paper §IV-F).

use std::marker::PhantomData;

use xk_kernels::perfmodel::TileOp;
use xk_kernels::Scalar;
use xk_runtime::task::TaskBody;
use xk_runtime::{
    run_parallel, DataInfo, Error, HandleId, ObsLevel, ParOutcome, Run, RuntimeConfig, SimOutcome,
    SimSession, TaskAccess, TaskGraph, TaskLabel,
};
use xk_topo::{Device, FabricSpec};

use crate::matrix::{block_cyclic_owner, Matrix, TileMap};

/// What the pending graph knows about one matrix. A routine call touches at
/// most three matrices, so the context keeps these in a short `Vec` scanned
/// by id: a tile lookup is that scan plus one index, no hashing.
struct MatEntry {
    /// [`Matrix::id`] of the allocation.
    id: u64,
    /// Tiles start distributed 2D block-cyclic over the GPUs (data-on-device)
    /// instead of valid in host memory (data-on-host).
    distributed: bool,
    /// The matrix's partition under the context's tile size.
    map: TileMap,
    /// Handle of tile `(i, j)` at `i * map.nt + j`; `None` until a routine
    /// first touches the tile.
    handles: Vec<Option<HandleId>>,
}

/// The asynchronous BLAS context.
pub struct Context<T: Scalar> {
    topo: FabricSpec,
    cfg: RuntimeConfig,
    tile: usize,
    grid: (usize, usize),
    graph: TaskGraph,
    mats: Vec<MatEntry>,
    calls: usize,
    sim_only: bool,
    tile_layout: bool,
    obs: ObsLevel,
    _scalar: PhantomData<T>,
}

impl<T: Scalar> Context<T> {
    /// Creates a context for `topo` under `cfg`, decomposing matrices into
    /// square tiles of side `tile`.
    ///
    /// The owner grid defaults to `(n_gpus/2, 2)` — the paper's `(4, 2)`
    /// grid on 8 GPUs.
    pub fn new(topo: FabricSpec, cfg: RuntimeConfig, tile: usize) -> Self {
        assert!(tile > 0);
        let p = (topo.n_gpus() / 2).max(1);
        let q = if topo.n_gpus() >= 2 { 2 } else { 1 };
        Context {
            topo,
            cfg,
            tile,
            grid: (p, q),
            graph: TaskGraph::new(),
            mats: Vec::new(),
            calls: 0,
            sim_only: false,
            tile_layout: false,
            obs: ObsLevel::default(),
            _scalar: PhantomData,
        }
    }

    /// Switches the context to *simulation-only* mode: `*_async` calls
    /// record tasks with timing shapes but drop the numeric bodies, so
    /// [`Matrix::phantom`] operands work and nothing touches real memory.
    /// `run_numeric` on such a graph is a dependency-ordered no-op.
    pub fn set_simulation_only(&mut self, on: bool) {
        self.sim_only = on;
    }

    /// Sets the observability level for simulated runs. Counters and the
    /// critical path never perturb the simulation — traces stay
    /// bit-identical across levels.
    pub fn set_observability(&mut self, level: ObsLevel) {
        self.obs = level;
    }

    /// The observability level simulated runs execute under.
    pub fn observability(&self) -> ObsLevel {
        self.obs
    }

    /// Pretends matrices are stored in *tile layout* (contiguous tiles, as
    /// Chameleon/PLASMA allocate them): host transfers stop paying the
    /// pitched `cudaMemcpy2D` penalty. Used by the baseline models; XKBlas
    /// itself always uses the LAPACK layout (§III).
    pub fn set_tile_layout(&mut self, on: bool) {
        self.tile_layout = on;
    }

    /// Owner grid `(p, q)`.
    pub fn grid(&self) -> (usize, usize) {
        self.grid
    }

    /// Overrides the owner grid.
    pub fn set_grid(&mut self, p: usize, q: usize) {
        assert!(p * q >= 1);
        self.grid = (p, q);
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// The tile partition a matrix gets in this context.
    pub(crate) fn tile_map(&self, mat: &Matrix<T>) -> TileMap {
        TileMap::new(mat.nrows(), mat.ncols(), self.tile)
    }

    /// Number of `*_async` routine calls composed so far.
    pub fn calls(&self) -> usize {
        self.calls
    }

    /// Number of tasks currently in the graph.
    pub fn pending_tasks(&self) -> usize {
        self.graph.len()
    }

    /// Total kernel flops recorded in the pending graph.
    pub fn pending_flops(&self) -> f64 {
        self.graph.total_flops()
    }

    /// Read-only access to the pending graph (tests, diagnostics).
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    pub(crate) fn bump_calls(&mut self) {
        self.calls += 1;
    }

    /// Index in `mats` of the entry of `mat`, created host-resident and
    /// without handles on first sight.
    fn entry_index(&mut self, mat: &Matrix<T>) -> usize {
        let known = self.mats.iter().position(|e| e.id == mat.id());
        known.unwrap_or_else(|| {
            let map = self.tile_map(mat);
            let handles = vec![None; map.mt * map.nt];
            self.mats.push(MatEntry { id: mat.id(), distributed: false, map, handles });
            self.mats.len() - 1
        })
    }

    /// Registers (or retrieves) the runtime handle of tile `(i, j)`.
    pub(crate) fn handle(&mut self, mat: &Matrix<T>, i: usize, j: usize) -> HandleId {
        let at = self.entry_index(mat);
        let MatEntry { distributed, map, ref handles, .. } = self.mats[at];
        let (mt, nt) = (map.mt, map.nt);
        assert!(i < mt && j < nt, "tile ({i},{j}) outside the {mt}x{nt} partition");
        let slot = i * nt + j;
        if let Some(h) = handles[slot] {
            return h;
        }
        let (mb, nb) = (map.tile_rows(i), map.tile_cols(j));
        let bytes = (mb * nb * T::WORD) as u64;
        // A tile is pitched on the host whenever its rows don't span the
        // full leading dimension (cudaMemcpy2D path). Tile-layout libraries
        // store tiles contiguously instead.
        let pitched = !self.tile_layout && mb != mat.ld();
        let owner = block_cyclic_owner(i, j, self.grid.0, self.grid.1) % self.topo.n_gpus();
        let initial = if distributed { Device::Gpu(owner) } else { Device::Host };
        let info = DataInfo {
            bytes,
            pitched,
            initial,
            label: format!("M{}({i},{j})", mat.id()),
            owner_hint: Some(owner),
        };
        let h = self.graph.add_data(info);
        self.mats[at].handles[slot] = Some(h);
        h
    }

    /// Emits one tile task. The body is built lazily so simulation-only
    /// contexts (the sweep harness's steady state) never box a closure.
    pub(crate) fn emit(
        &mut self,
        op: TileOp,
        accesses: &[TaskAccess],
        label: TaskLabel,
        make_body: impl FnOnce() -> TaskBody,
    ) {
        if self.sim_only {
            self.graph.add_task(op, accesses, label);
        } else {
            self.graph.add_task_with_body(op, accesses, label, make_body());
        }
    }

    /// `xkblas_distribute_2Dblock_cyclic_async`: marks the matrix as
    /// initially distributed over the GPUs in 2D block-cyclic order
    /// (paper §IV-C). Must be called before the matrix is first touched by
    /// a routine in this graph.
    ///
    /// # Panics
    /// Panics if tiles of the matrix were already registered host-resident.
    pub fn distribute_2d_block_cyclic_async(&mut self, mat: &Matrix<T>) {
        let at = self.entry_index(mat);
        let entry = &mut self.mats[at];
        assert!(
            entry.handles.iter().all(Option::is_none),
            "distribute must precede the first use of the matrix"
        );
        entry.distributed = true;
    }

    /// `xkblas_memory_coherent_async`: enqueues a host-coherency task for
    /// every registered tile of `mat`. After the sync, host memory holds
    /// the results (the data-on-host methodology of §IV-A).
    pub fn memory_coherent_async(&mut self, mat: &Matrix<T>) {
        // One flush task per tile: each depends only on that tile's last
        // writer, so write-backs stream out while other tiles still
        // compute (XKBlas makes memory coherence a per-tile data-flow
        // task, not a barrier).
        let Some(entry) = self.mats.iter().find(|e| e.id == mat.id()) else {
            return;
        };
        let nt = entry.map.nt;
        for (slot, h) in entry.handles.iter().enumerate() {
            if let Some(h) = *h {
                let label = TaskLabel::mat_tile("coherent", mat.id(), slot / nt, slot % nt);
                self.graph.add_flush(&[h], label);
            }
        }
    }

    /// Executes the composed graph numerically on host threads
    /// (0 = one per core) and resets the context for the next composition.
    pub fn run_numeric(&mut self, threads: usize) -> ParOutcome {
        let mut graph = self.take_graph();
        run_parallel(&mut graph, threads)
    }

    /// Executes the composed graph on the simulated platform and resets
    /// the context.
    pub fn run_simulated(&mut self) -> SimOutcome {
        self.run_simulated_within(f64::INFINITY).expect("an infinite budget is never exceeded")
    }

    /// [`Context::run_simulated`] under a makespan budget:
    /// `Err(Error::OverBudget)` when the run's makespan exceeds `budget`
    /// seconds, found out as soon as a lower bound proves it
    /// ([`SimSession::run_within`]).
    pub fn run_simulated_within(&mut self, budget: f64) -> Result<SimOutcome, Error> {
        let graph = self.take_graph();
        self.session().run_within(&graph, budget).map(Run::into_outcome)
    }

    /// Detaches the composed graph without running it and resets the
    /// context, exactly as the `run_*` entry points do before executing.
    ///
    /// Batched callers (the xk-serve miss driver) use this to build one
    /// graph and simulate it under several runtime configurations via
    /// [`xk_runtime::SimSession::run_prepped`], sharing the hoisted
    /// [`xk_runtime::SimPrep`] instead of re-deriving it per run.
    pub fn finish_graph(&mut self) -> TaskGraph {
        self.take_graph()
    }

    /// Executes the composed graph both ways: numerically (for values) and
    /// simulated (for timing); returns the simulation outcome.
    pub fn run_both(&mut self, threads: usize) -> SimOutcome {
        let mut graph = self.take_graph();
        let sim = self.session().run(&graph).into_outcome();
        run_parallel(&mut graph, threads);
        sim
    }

    fn session(&self) -> SimSession<'_> {
        SimSession::on(&self.topo)
            .config(self.cfg.clone())
            .observe(self.obs)
    }

    fn take_graph(&mut self) -> TaskGraph {
        self.mats.clear();
        self.calls = 0;
        std::mem::take(&mut self.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xk_topo::dgx1;

    #[test]
    fn handles_are_cached_per_tile() {
        let mut ctx = Context::<f64>::new(dgx1(), RuntimeConfig::default(), 4);
        let a = Matrix::<f64>::zeros(8, 8);
        let h1 = ctx.handle(&a, 0, 1);
        let h2 = ctx.handle(&a, 0, 1);
        let h3 = ctx.handle(&a, 1, 1);
        assert_eq!(h1, h2);
        assert_ne!(h1, h3);
    }

    #[test]
    fn grid_defaults_to_paper_42() {
        let ctx = Context::<f64>::new(dgx1(), RuntimeConfig::default(), 4);
        assert_eq!(ctx.grid(), (4, 2));
    }

    #[test]
    fn distribute_before_use_is_enforced() {
        let mut ctx = Context::<f64>::new(dgx1(), RuntimeConfig::default(), 4);
        let a = Matrix::<f64>::zeros(8, 8);
        ctx.distribute_2d_block_cyclic_async(&a);
        let _ = ctx.handle(&a, 0, 0);
        // Re-distributing after use must panic.
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.distribute_2d_block_cyclic_async(&a);
        }));
        assert!(res.is_err());
    }

    #[test]
    fn coherent_without_registered_tiles_is_noop() {
        let mut ctx = Context::<f64>::new(dgx1(), RuntimeConfig::default(), 4);
        let a = Matrix::<f64>::zeros(8, 8);
        ctx.memory_coherent_async(&a);
        assert_eq!(ctx.pending_tasks(), 0);
    }

    /// The dense table in lockstep with the three hash maps it replaced
    /// (`handles`, `placements`, `registered_mats`): two ragged matrices of
    /// different shapes, every entry point that reads or resets the table.
    #[test]
    fn handle_table_matches_hash_map_model() {
        use std::collections::{HashMap, HashSet};
        use xk_runtime::{TaskId, TaskKind};

        xk_lp::for_each_seed(40, |rng| {
            let mut ctx = Context::<f64>::new(dgx1(), RuntimeConfig::default(), 4);
            let mats = [Matrix::<f64>::phantom(10, 7), Matrix::<f64>::phantom(5, 13)];
            let mut handles: HashMap<(u64, usize, usize), HandleId> = HashMap::new();
            let mut distributed: HashSet<u64> = HashSet::new();
            let mut registered: HashSet<u64> = HashSet::new();
            for _ in 0..120 {
                let mat = &mats[rng.usize_in(0, 2)];
                let map = ctx.tile_map(mat);
                match rng.next_below(16) {
                    0 => {
                        let done = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            ctx.distribute_2d_block_cyclic_async(mat)
                        }));
                        assert_eq!(done.is_ok(), !registered.contains(&mat.id()));
                        if done.is_ok() {
                            distributed.insert(mat.id());
                        }
                    }
                    1 => {
                        let before = ctx.pending_tasks();
                        ctx.memory_coherent_async(mat);
                        // One flush per registered tile, row-major.
                        let mut expected: Vec<_> =
                            handles.iter().filter(|(k, _)| k.0 == mat.id()).collect();
                        expected.sort();
                        assert_eq!(ctx.pending_tasks(), before + expected.len());
                        for (at, (_, &h)) in expected.into_iter().enumerate() {
                            let task = ctx.graph().task(TaskId(before + at));
                            assert_eq!(task.kind, TaskKind::Flush);
                            assert_eq!(task.read_handles().collect::<Vec<_>>(), [h]);
                        }
                    }
                    2 => {
                        assert_eq!(ctx.finish_graph().data().len(), handles.len());
                        handles.clear();
                        distributed.clear();
                        registered.clear();
                    }
                    _ => {
                        let (i, j) = (rng.usize_in(0, map.mt), rng.usize_in(0, map.nt));
                        let fresh = HandleId(handles.len());
                        let expected = *handles.entry((mat.id(), i, j)).or_insert(fresh);
                        registered.insert(mat.id());
                        assert_eq!(ctx.handle(mat, i, j), expected);
                        let info = ctx.graph().data().info(expected);
                        assert_eq!(info.bytes, map.tile_bytes(i, j, 8));
                        assert_eq!(info.label, format!("M{}({i},{j})", mat.id()));
                        assert_eq!(info.initial.is_host(), !distributed.contains(&mat.id()));
                    }
                }
                assert_eq!(ctx.graph().data().len(), handles.len());
            }
        });
    }

    #[test]
    #[should_panic(expected = "outside the 2x2 partition")]
    fn out_of_range_tile_is_refused() {
        let mut ctx = Context::<f64>::new(dgx1(), RuntimeConfig::default(), 4);
        // (0, 2) would alias (1, 0) in the row-major table.
        ctx.handle(&Matrix::<f64>::zeros(8, 8), 0, 2);
    }

    #[test]
    fn run_resets_state() {
        let mut ctx = Context::<f64>::new(dgx1(), RuntimeConfig::default(), 4);
        let a = Matrix::<f64>::zeros(8, 8);
        let _ = ctx.handle(&a, 0, 0);
        let out = ctx.run_simulated();
        assert_eq!(out.tasks_run, 0);
        assert_eq!(ctx.pending_tasks(), 0);
        // Distribution allowed again after reset.
        ctx.distribute_2d_block_cyclic_async(&a);
    }
}
