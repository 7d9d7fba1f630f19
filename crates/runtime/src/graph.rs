//! Data-flow task graph with automatic dependency inference.
//!
//! Tasks declare read/write accesses on tiles; the graph derives the
//! dependency edges from sequential-consistency rules, as XKaapi does for
//! its dependent-task model (paper §III): a reader depends on the last
//! writer of each tile it reads, and a writer depends on the last writer
//! *and* every reader of the current version (anti-dependency).
//!
//! # Representation (million-task scale)
//!
//! Everything on the submission path is flat and index-based so that the
//! steady state performs **zero heap allocations per task** (only amortized
//! `Vec` doubling):
//!
//! - per-handle history lives in a dense `Vec` indexed by `HandleId`
//!   (handles are sequential small integers — no hashing);
//! - `readers_since_write` lists are singly-linked nodes in one pooled
//!   arena with a free list, recycled when a writer clears them;
//! - dependency edges go into an incrementally-built *predecessor* CSR
//!   (`pred_offsets`/`pred_targets`): a task's dependencies are final the
//!   moment it is pushed, so appending is O(deps);
//! - the *successor* CSR is derived lazily (counting sort over the
//!   predecessor CSR) on first use and cached behind a [`OnceLock`];
//!   any later mutation invalidates it. Successor lists come out in
//!   ascending-target order — exactly the order the old per-task
//!   `Vec<Vec<TaskId>>` produced, which the deterministic simulator
//!   relies on;
//! - the scratch buffer used to sort/dedup each task's dependencies is
//!   reused across `push_task` calls.

use std::sync::OnceLock;

use xk_kernels::perfmodel::{GpuModel, TileOp};

use crate::data::{DataInfo, DataRegistry, HandleId};
use crate::task::{Access, Task, TaskAccess, TaskAccesses, TaskBody, TaskId, TaskKind, TaskLabel};

/// Sentinel for "no task" / "no node" in the index-based structures.
const NONE: u32 = u32::MAX;

/// Per-handle dependency state, indexed by `HandleId.0`.
#[derive(Clone, Copy, Debug)]
struct HandleHistory {
    /// Last task that wrote the handle, or `NONE`.
    last_writer: u32,
    /// Head of the pooled readers-since-last-write list, or `NONE`.
    readers_head: u32,
}

impl Default for HandleHistory {
    fn default() -> Self {
        HandleHistory {
            last_writer: NONE,
            readers_head: NONE,
        }
    }
}

/// One node of a pooled singly-linked reader list.
#[derive(Clone, Copy, Debug)]
struct ReaderNode {
    task: u32,
    next: u32,
}

/// Lazily-derived successor adjacency in CSR form.
#[derive(Debug)]
struct SuccCsr {
    offsets: Vec<u32>,
    targets: Vec<TaskId>,
}

/// A complete task graph: tasks, tiles and dependency edges.
pub struct TaskGraph {
    tasks: Vec<Task>,
    data: DataRegistry,
    history: Vec<HandleHistory>,
    reader_nodes: Vec<ReaderNode>,
    reader_free: u32,
    scratch_deps: Vec<TaskId>,
    /// `pred_offsets[i]..pred_offsets[i+1]` indexes task `i`'s
    /// predecessors in `pred_targets`. Always `tasks.len() + 1` long.
    pred_offsets: Vec<u32>,
    pred_targets: Vec<u32>,
    succ: OnceLock<SuccCsr>,
}

impl Default for TaskGraph {
    fn default() -> Self {
        TaskGraph {
            tasks: Vec::new(),
            data: DataRegistry::default(),
            history: Vec::new(),
            reader_nodes: Vec::new(),
            reader_free: NONE,
            scratch_deps: Vec::new(),
            pred_offsets: vec![0],
            pred_targets: Vec::new(),
            succ: OnceLock::new(),
        }
    }
}

impl TaskGraph {
    /// Empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Reserves capacity for `tasks` more tasks and `edges` more
    /// dependency edges. Tiled builders know both up front (`nt³` tasks,
    /// ~3 edges each), and reserving once turns the amortized `Vec`
    /// doubling on the submission path into a single allocation.
    pub fn reserve(&mut self, tasks: usize, edges: usize) {
        self.tasks.reserve(tasks);
        self.pred_offsets.reserve(tasks);
        self.pred_targets.reserve(edges);
        // Read accesses park one pooled node each until the next writer
        // recycles them; edge count is a good proxy for the peak.
        self.reader_nodes.reserve(edges);
    }

    /// Registers a tile.
    pub fn add_data(&mut self, info: DataInfo) -> HandleId {
        let h = self.data.add(info);
        debug_assert_eq!(h.0, self.history.len());
        self.history.push(HandleHistory::default());
        h
    }

    /// Convenience: registers a host-resident tile.
    pub fn add_host_tile(&mut self, bytes: u64, pitched: bool, label: impl Into<String>) -> HandleId {
        self.add_data(DataInfo::host(bytes, pitched, label))
    }

    /// Adds a kernel task; dependencies are inferred from `accesses`.
    pub fn add_task(
        &mut self,
        op: TileOp,
        accesses: impl Into<TaskAccesses>,
        label: impl Into<TaskLabel>,
    ) -> TaskId {
        self.push_task(TaskKind::Kernel, Some(op), accesses.into(), label.into(), None, 0)
    }

    /// Adds a kernel task with a numeric body for the parallel executor.
    pub fn add_task_with_body(
        &mut self,
        op: TileOp,
        accesses: impl Into<TaskAccesses>,
        label: impl Into<TaskLabel>,
        body: TaskBody,
    ) -> TaskId {
        self.push_task(
            TaskKind::Kernel,
            Some(op),
            accesses.into(),
            label.into(),
            Some(body),
            0,
        )
    }

    /// Adds a host-coherency (flush) task reading `handles`: the model of
    /// `xkblas_memory_coherent_async`. It depends on the last writers of
    /// every handle and, in the simulator, triggers the DtoH transfers.
    pub fn add_flush(&mut self, handles: &[HandleId], label: impl Into<TaskLabel>) -> TaskId {
        let accesses = handles
            .iter()
            .map(|&h| TaskAccess {
                handle: h,
                access: Access::Read,
            })
            .collect();
        self.push_task(TaskKind::Flush, None, accesses, label.into(), None, 0)
    }

    #[inline]
    fn push_task(
        &mut self,
        kind: TaskKind,
        op: Option<TileOp>,
        accesses: TaskAccesses,
        label: TaskLabel,
        body: Option<TaskBody>,
        priority: i32,
    ) -> TaskId {
        let id = TaskId(self.tasks.len());
        assert!(id.0 < NONE as usize, "task count exceeds u32 index space");
        let idx = id.0 as u32;

        // One pass per access: collect dependencies from the pre-task
        // history and update it in place. A later entry for the same
        // handle sees the earlier entry's update, which can only add
        // `id` itself to the raw list (an RW pair, a write-then-read);
        // the `retain` below removes it, so the edge set matches the
        // two-pass formulation exactly.
        self.scratch_deps.clear();
        for acc in accesses.iter() {
            // A real check, not a debug_assert: a dangling handle would
            // silently corrupt the dense history table in release builds.
            assert!(
                acc.handle.0 < self.history.len(),
                "unknown handle {:?} (registry has {} tiles)",
                acc.handle,
                self.history.len()
            );
            let h = acc.handle.0;
            let hist = self.history[h];
            if acc.access.reads() && hist.last_writer != NONE {
                self.scratch_deps.push(TaskId(hist.last_writer as usize));
            }
            if acc.access.writes() {
                if hist.last_writer != NONE {
                    self.scratch_deps.push(TaskId(hist.last_writer as usize));
                }
                // Walk the reader list once: every reader becomes a
                // dependency, and the tail splices the whole list onto
                // the free list.
                let head = hist.readers_head;
                if head != NONE {
                    let mut node = head;
                    loop {
                        let rn = self.reader_nodes[node as usize];
                        self.scratch_deps.push(TaskId(rn.task as usize));
                        if rn.next == NONE {
                            break;
                        }
                        node = rn.next;
                    }
                    self.reader_nodes[node as usize].next = self.reader_free;
                    self.reader_free = head;
                }
                self.history[h] = HandleHistory {
                    last_writer: idx,
                    readers_head: NONE,
                };
            } else if acc.access.reads() {
                let slot = if self.reader_free != NONE {
                    let s = self.reader_free;
                    self.reader_free = self.reader_nodes[s as usize].next;
                    s
                } else {
                    self.reader_nodes.push(ReaderNode { task: 0, next: NONE });
                    (self.reader_nodes.len() - 1) as u32
                };
                self.reader_nodes[slot as usize] = ReaderNode {
                    task: idx,
                    next: hist.readers_head,
                };
                self.history[h].readers_head = slot;
            }
        }
        let deps = &mut self.scratch_deps;
        // Tiled kernels produce tiny dependency lists (a GEMM update has
        // at most two raw entries); skip the sorter's dispatch for those.
        match deps.len() {
            0 => {}
            1 => {
                if deps[0] == id {
                    deps.clear();
                }
            }
            2 => {
                if deps[0] == deps[1] {
                    deps.pop();
                } else if deps[0] > deps[1] {
                    deps.swap(0, 1);
                }
                deps.retain(|&d| d != id);
            }
            _ => {
                deps.sort_unstable();
                deps.dedup();
                deps.retain(|&d| d != id);
            }
        }

        assert!(
            self.pred_targets.len() + deps.len() < NONE as usize,
            "edge count exceeds u32 index space"
        );
        self.pred_targets
            .extend(self.scratch_deps.iter().map(|d| d.0 as u32));
        self.pred_offsets.push(self.pred_targets.len() as u32);
        self.succ.take(); // invalidate the cached successor CSR
        self.tasks.push(Task {
            id,
            kind,
            op,
            accesses,
            label,
            body,
            priority,
        });
        id
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of dependency edges.
    pub fn n_edges(&self) -> usize {
        self.pred_targets.len()
    }

    /// Task by id.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// Mutable task by id (the parallel executor takes bodies out).
    pub(crate) fn task_mut(&mut self, id: TaskId) -> &mut Task {
        &mut self.tasks[id.0]
    }

    /// All tasks in creation order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Tile registry.
    pub fn data(&self) -> &DataRegistry {
        &self.data
    }

    /// Predecessors (dependencies) of a task, in ascending id order.
    pub fn predecessors(&self, id: TaskId) -> impl ExactSizeIterator<Item = TaskId> + '_ {
        let a = self.pred_offsets[id.0] as usize;
        let b = self.pred_offsets[id.0 + 1] as usize;
        self.pred_targets[a..b].iter().map(|&p| TaskId(p as usize))
    }

    /// Predecessor counts of all tasks, in id order.
    pub fn pred_counts(&self) -> impl Iterator<Item = usize> + '_ {
        self.pred_offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
    }

    /// Successors of a task, in ascending id order. Derived from the
    /// predecessor CSR on first call after a mutation (O(V+E) counting
    /// sort); interleaving queries with `add_task` rebuilds each time —
    /// call [`TaskGraph::finalize`] once after construction instead.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        let csr = self.succ_csr();
        let a = csr.offsets[id.0] as usize;
        let b = csr.offsets[id.0 + 1] as usize;
        &csr.targets[a..b]
    }

    /// Forces the successor CSR to be built now (it is otherwise derived
    /// lazily on the first `successors` call).
    pub fn finalize(&self) {
        let _ = self.succ_csr();
    }

    fn succ_csr(&self) -> &SuccCsr {
        self.succ.get_or_init(|| {
            let n = self.tasks.len();
            let mut offsets = vec![0u32; n + 1];
            for &p in &self.pred_targets {
                offsets[p as usize + 1] += 1;
            }
            for i in 0..n {
                offsets[i + 1] += offsets[i];
            }
            let mut cursor: Vec<u32> = offsets[..n].to_vec();
            let mut targets = vec![TaskId(0); self.pred_targets.len()];
            // Iterating destinations in id order writes each source's
            // successor list in ascending-destination order.
            for dst in 0..n {
                let a = self.pred_offsets[dst] as usize;
                let b = self.pred_offsets[dst + 1] as usize;
                for &src in &self.pred_targets[a..b] {
                    targets[cursor[src as usize] as usize] = TaskId(dst);
                    cursor[src as usize] += 1;
                }
            }
            SuccCsr { offsets, targets }
        })
    }

    /// Tasks with no predecessors.
    pub fn roots(&self) -> Vec<TaskId> {
        self.pred_counts()
            .enumerate()
            .filter(|(_, n)| *n == 0)
            .map(|(i, _)| TaskId(i))
            .collect()
    }

    /// Critical-path length in seconds under the given GPU model (kernels
    /// only, transfers ignored): the lower bound on makespan with infinite
    /// GPUs. Flush tasks count as zero.
    pub fn critical_path_seconds(&self, model: &GpuModel) -> f64 {
        // Tasks are in topological order by construction (dependencies only
        // point to earlier tasks), so one forward pass over predecessors
        // suffices — and needs no successor CSR. The kernel-seconds table
        // is overwritten in place with finish times.
        let mut finish = self.kernel_seconds(model);
        let mut best = 0.0f64;
        for t in 0..finish.len() {
            let start = self
                .predecessors(TaskId(t))
                .fold(0.0f64, |m, p| m.max(finish[p.0]));
            finish[t] += start;
            best = best.max(finish[t]);
        }
        best
    }

    /// Modelled kernel seconds of every task, indexed by `TaskId.0`:
    /// `model.kernel_time(op)` for a kernel, `0` for a flush. The model is
    /// evaluated once per run of equal consecutive ops (a tiled routine
    /// submits one tile shape thousands of times in a row), and the
    /// executor, dmdas, the makespan bound and the critical path all read
    /// this table instead of evaluating the model per task.
    pub fn kernel_seconds(&self, model: &GpuModel) -> Vec<f64> {
        let mut memo = (None, 0.0);
        let seconds = self.tasks.iter().map(|t| {
            if memo.0 != t.op {
                memo = (t.op, t.op.map_or(0.0, |op| model.kernel_time(op)));
            }
            memo.1
        });
        seconds.collect()
    }

    /// Total kernel flops in the graph.
    pub fn total_flops(&self) -> f64 {
        self.tasks
            .iter()
            .filter_map(|t| t.op)
            .map(TileOp::flops)
            .sum()
    }

    /// Graphviz DOT rendering (small graphs; debugging aid).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        fn escape(label: &str) -> String {
            label.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut buf = String::new();
        let mut s = String::from("digraph tasks {\n  rankdir=LR;\n");
        for t in &self.tasks {
            buf.clear();
            t.label.render_into(&mut buf);
            let _ = writeln!(s, "  t{} [label=\"{}\"];", t.id.0, escape(&buf));
        }
        for t in &self.tasks {
            for succ in self.successors(t.id) {
                let _ = writeln!(s, "  t{} -> t{};", t.id.0, succ.0);
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op() -> TileOp {
        TileOp::Gemm { m: 4, n: 4, k: 4 }
    }

    fn read(h: HandleId) -> TaskAccess {
        TaskAccess {
            handle: h,
            access: Access::Read,
        }
    }
    fn write(h: HandleId) -> TaskAccess {
        TaskAccess {
            handle: h,
            access: Access::Write,
        }
    }
    fn rw(h: HandleId) -> TaskAccess {
        TaskAccess {
            handle: h,
            access: Access::ReadWrite,
        }
    }

    #[test]
    fn reader_depends_on_writer() {
        let mut g = TaskGraph::new();
        let h = g.add_host_tile(64, false, "x");
        let w = g.add_task(op(), vec![write(h)], "w");
        let r = g.add_task(op(), vec![read(h)], "r");
        assert_eq!(g.successors(w), &[r]);
        assert_eq!(g.predecessors(r).len(), 1);
        assert_eq!(g.predecessors(r).collect::<Vec<_>>(), vec![w]);
        assert_eq!(g.roots(), vec![w]);
    }

    #[test]
    fn writer_waits_for_readers() {
        let mut g = TaskGraph::new();
        let h = g.add_host_tile(64, false, "x");
        let w1 = g.add_task(op(), vec![write(h)], "w1");
        let r1 = g.add_task(op(), vec![read(h)], "r1");
        let r2 = g.add_task(op(), vec![read(h)], "r2");
        let w2 = g.add_task(op(), vec![write(h)], "w2");
        // w2 depends on w1 (output dep) and r1, r2 (anti-deps).
        assert_eq!(g.predecessors(w2).len(), 3);
        assert_eq!(g.predecessors(w2).collect::<Vec<_>>(), vec![w1, r1, r2]);
        assert!(g.successors(r1).contains(&w2));
        assert!(g.successors(r2).contains(&w2));
        assert!(g.successors(w1).contains(&w2));
    }

    #[test]
    fn independent_tiles_no_edges() {
        let mut g = TaskGraph::new();
        let h1 = g.add_host_tile(64, false, "x");
        let h2 = g.add_host_tile(64, false, "y");
        g.add_task(op(), vec![write(h1)], "a");
        g.add_task(op(), vec![write(h2)], "b");
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.roots().len(), 2);
    }

    #[test]
    fn rw_chain_serializes() {
        // The GEMM k-loop pattern: successive ReadWrite on the same C tile.
        let mut g = TaskGraph::new();
        let c = g.add_host_tile(64, false, "c");
        let t0 = g.add_task(op(), vec![rw(c)], "k0");
        let t1 = g.add_task(op(), vec![rw(c)], "k1");
        let t2 = g.add_task(op(), vec![rw(c)], "k2");
        assert_eq!(g.successors(t0), &[t1]);
        assert_eq!(g.successors(t1), &[t2]);
        assert_eq!(g.predecessors(t1).len(), 1);
        assert_eq!(g.predecessors(t2).len(), 1);
    }

    #[test]
    fn duplicate_deps_coalesce() {
        let mut g = TaskGraph::new();
        let a = g.add_host_tile(64, false, "a");
        let b = g.add_host_tile(64, false, "b");
        let w = g.add_task(op(), vec![write(a), write(b)], "w");
        let r = g.add_task(op(), vec![read(a), read(b)], "r");
        // Both deps point at w but must count once.
        assert_eq!(g.predecessors(r).len(), 1);
        assert_eq!(g.successors(w), &[r]);
    }

    #[test]
    fn flush_depends_on_last_writers() {
        let mut g = TaskGraph::new();
        let a = g.add_host_tile(64, false, "a");
        let b = g.add_host_tile(64, false, "b");
        let w1 = g.add_task(op(), vec![write(a)], "w1");
        let w2 = g.add_task(op(), vec![write(b)], "w2");
        let f = g.add_flush(&[a, b], "flush");
        assert_eq!(g.predecessors(f).len(), 2);
        assert!(g.successors(w1).contains(&f));
        assert!(g.successors(w2).contains(&f));
        assert_eq!(g.task(f).kind, TaskKind::Flush);
    }

    #[test]
    fn critical_path_of_chain() {
        let mut g = TaskGraph::new();
        let c = g.add_host_tile(64, false, "c");
        for i in 0..5 {
            g.add_task(
                TileOp::Gemm { m: 1024, n: 1024, k: 1024 },
                vec![rw(c)],
                format!("k{i}"),
            );
        }
        let model = GpuModel::v100();
        let one = model.kernel_time(TileOp::Gemm { m: 1024, n: 1024, k: 1024 });
        let cp = g.critical_path_seconds(&model);
        assert!((cp - 5.0 * one).abs() < 1e-12);
    }

    #[test]
    fn dot_renders() {
        let mut g = TaskGraph::new();
        let h = g.add_host_tile(64, false, "x");
        let w = g.add_task(op(), vec![write(h)], "w");
        let r = g.add_task(op(), vec![read(h)], "r");
        let dot = g.to_dot();
        assert!(dot.contains(&format!("t{} -> t{}", w.0, r.0)));
    }

    #[test]
    fn dot_escapes_quotes_and_backslashes() {
        let mut g = TaskGraph::new();
        let h = g.add_host_tile(64, false, "x");
        g.add_task(op(), vec![write(h)], r#"say "hi" \ bye"#);
        let dot = g.to_dot();
        assert!(dot.contains(r#"[label="say \"hi\" \\ bye"]"#), "{dot}");
    }

    #[test]
    #[should_panic(expected = "unknown handle")]
    fn unknown_handle_panics_in_release_too() {
        let mut g = TaskGraph::new();
        g.add_task(op(), vec![write(HandleId(3))], "bad");
    }

    #[test]
    fn successor_cache_invalidated_by_later_pushes() {
        let mut g = TaskGraph::new();
        let h = g.add_host_tile(64, false, "x");
        let w = g.add_task(op(), vec![write(h)], "w");
        assert!(g.successors(w).is_empty());
        let r = g.add_task(op(), vec![read(h)], "r");
        assert_eq!(g.successors(w), &[r]);
    }

    #[test]
    fn reader_pool_recycles_nodes() {
        let mut g = TaskGraph::new();
        let h = g.add_host_tile(64, false, "x");
        // Many write/read/read rounds: the pool should stay at the high
        //-water mark of live readers (2), not grow per round.
        for _ in 0..50 {
            g.add_task(op(), vec![write(h)], "w");
            g.add_task(op(), vec![read(h)], "r1");
            g.add_task(op(), vec![read(h)], "r2");
        }
        assert!(g.reader_nodes.len() <= 2, "pool grew: {}", g.reader_nodes.len());
    }
}
