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
//! A task is one row across flat columns, not a record: a tiled BLAS-3
//! task costs about 40 bytes, both edge CSRs included, and submission
//! performs **zero heap allocations per task** (only amortized `Vec`
//! doubling):
//!
//! - *op*: a `u16` index into the graph's palette of distinct
//!   `Option<TileOp>`s, in first-use order; the `None` entry is the flush,
//!   so a task's [`TaskKind`] is its entry's. A tiled routine submits a
//!   handful of shapes, and [`TaskGraph::kernel_seconds`] evaluates the
//!   model once per entry;
//! - *label*: a `u32` index into the palette of distinct [`TaskLabel`]
//!   patterns, in first-use order;
//! - *accesses*: one CSR (`acc_offsets`/`acc_words`) of `u32` words, the
//!   handle in the low 30 bits and the mode in the top two;
//! - dependency edges go into an incrementally-built *predecessor* CSR
//!   (`pred_offsets`/`pred_targets`): a task's dependencies are final the
//!   moment it is pushed, so appending is O(deps);
//! - the *successor* CSR (`u32` targets) is derived lazily (counting sort
//!   over the predecessor CSR) on first use and cached behind a
//!   [`OnceLock`]; any later mutation invalidates it. Successor lists come
//!   out in ascending-target order, which the deterministic simulator
//!   relies on;
//! - the *trace labels* (every label pattern and handle label interned
//!   into one table that all runs of the graph share) are derived and
//!   cached the same way; adding a task or a handle invalidates them too;
//! - build state: per-handle history in a dense `Vec` indexed by
//!   `HandleId` (handles are sequential small integers — no hashing), the
//!   `readers_since_write` lists as singly-linked nodes in one pooled arena
//!   with a free list, recycled when a writer clears them, and a
//!   dependency scratch buffer reused across `push_task` calls.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, OnceLock};

use xk_kernels::perfmodel::{GpuModel, TileOp};
use xk_trace::{Label, LabelHash, LabelTable, Trace};

use crate::data::{DataInfo, DataRegistry, HandleId};
use crate::task::{Access, TaskAccess, TaskBody, TaskId, TaskKind, TaskLabel};

/// Sentinel for "no task" / "no node" in the index-based structures.
const NONE: u32 = u32::MAX;

/// Bits of an access word that hold the handle; the two above them hold
/// the mode.
const HANDLE_BITS: u32 = 30;
const HANDLE_MASK: u32 = (1 << HANDLE_BITS) - 1;
const READS: u32 = 1 << HANDLE_BITS;
const WRITES: u32 = 2 << HANDLE_BITS;

/// One word of the access column.
fn pack(a: TaskAccess) -> u32 {
    let mode = match a.access {
        Access::Read => READS,
        Access::Write => WRITES,
        Access::ReadWrite => READS | WRITES,
    };
    a.handle.0 as u32 | mode
}

fn handle_of(word: u32) -> HandleId {
    HandleId((word & HANDLE_MASK) as usize)
}

fn unpack(word: u32) -> TaskAccess {
    let access = match word & (READS | WRITES) {
        READS => Access::Read,
        WRITES => Access::Write,
        _ => Access::ReadWrite,
    };
    TaskAccess { handle: handle_of(word), access }
}

/// Per-handle dependency state, indexed by `HandleId.0`.
#[derive(Clone, Copy, Debug)]
struct HandleHistory {
    /// Last task that wrote the handle, or `NONE`.
    last_writer: u32,
    /// Head of the pooled readers-since-last-write list, or `NONE`.
    readers_head: u32,
    /// Last task that accessed the handle, or `NONE`: a task counts the
    /// bytes of a tile it names twice once.
    last_access: u32,
    /// The tile's bytes.
    bytes: u64,
}

/// One node of a pooled singly-linked reader list.
#[derive(Clone, Copy, Debug)]
struct ReaderNode {
    task: u32,
    next: u32,
}

/// The distinct values of a per-task column, each stored once in first-use
/// order; the column holds their indices.
struct Palette<T> {
    items: Vec<T>,
    index: HashMap<T, u32, LabelHash>,
    /// Index of the last value interned: a tiled routine submits one shape
    /// and one label pattern many times in a row.
    last: u32,
}

impl<T> Default for Palette<T> {
    fn default() -> Self {
        Palette { items: Vec::new(), index: HashMap::default(), last: 0 }
    }
}

impl<T: Clone + Eq + Hash> Palette<T> {
    /// The index of `value`, which joins the palette if it is new.
    fn intern(&mut self, value: T) -> u32 {
        if self.items.get(self.last as usize) == Some(&value) {
            return self.last;
        }
        let next = u32::try_from(self.items.len()).expect("palette exceeds u32 index space");
        let items = &mut self.items;
        self.last = *self.index.entry(value).or_insert_with_key(|value| {
            items.push(value.clone());
            next
        });
        self.last
    }
}

/// Lazily-derived successor adjacency in CSR form.
#[derive(Debug)]
struct SuccCsr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

/// The successors of one task, in ascending id order
/// ([`TaskGraph::successors`]).
#[derive(Clone, Copy, Debug)]
pub struct Successors<'g>(&'g [u32]);

impl<'g> Successors<'g> {
    /// The successor ids.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TaskId> + 'g {
        self.0.iter().map(|&s| TaskId(s as usize))
    }
}

/// Lazily-derived trace symbols: what every simulated run of the graph
/// labels its spans with.
pub(crate) struct TraceLabels {
    /// The graph's distinct labels, tasks first, then data handles: the
    /// symbol table every run's trace shares.
    pub(crate) table: Arc<LabelTable>,
    /// Label of each label pattern, by [`TaskGraph::label_pattern`].
    pub(crate) patterns: Box<[Label]>,
    /// Label of each handle, by `HandleId.0`.
    pub(crate) handles: Box<[Label]>,
    /// Most spans any run of the graph has recorded: each run's trace
    /// starts with that much room instead of growing from empty. It only
    /// moves capacities, never a span.
    pub(crate) span_hint: AtomicUsize,
}

/// A complete task graph: tasks, tiles and dependency edges.
pub struct TaskGraph {
    /// Palette index of each task's op, by `TaskId.0`.
    op: Vec<u16>,
    /// Distinct ops; `None` is a flush.
    ops: Palette<Option<TileOp>>,
    /// Palette index of each task's label pattern, by `TaskId.0`.
    label: Vec<u32>,
    patterns: Palette<TaskLabel>,
    /// `acc_offsets[i]..acc_offsets[i+1]` indexes task `i`'s accesses in
    /// `acc_words`, in declaration order. Always `len() + 1` long.
    acc_offsets: Vec<u32>,
    acc_words: Vec<u32>,
    /// Most bytes of distinct tiles one task accesses.
    max_task_bytes: u64,
    /// Numeric bodies by `TaskId.0`, for the host executors. Empty in a
    /// simulation-only graph; else as long as the last task given a body.
    bodies: Vec<Option<TaskBody>>,
    data: DataRegistry,
    history: Vec<HandleHistory>,
    reader_nodes: Vec<ReaderNode>,
    reader_free: u32,
    scratch_deps: Vec<u32>,
    /// `pred_offsets[i]..pred_offsets[i+1]` indexes task `i`'s
    /// predecessors in `pred_targets`. Always `len() + 1` long.
    pred_offsets: Vec<u32>,
    pred_targets: Vec<u32>,
    succ: OnceLock<SuccCsr>,
    labels: OnceLock<TraceLabels>,
}

impl Default for TaskGraph {
    fn default() -> Self {
        TaskGraph {
            op: Vec::new(),
            ops: Palette::default(),
            label: Vec::new(),
            patterns: Palette::default(),
            acc_offsets: vec![0],
            acc_words: Vec::new(),
            max_task_bytes: 0,
            bodies: Vec::new(),
            data: DataRegistry::default(),
            history: Vec::new(),
            reader_nodes: Vec::new(),
            reader_free: NONE,
            scratch_deps: Vec::new(),
            pred_offsets: vec![0],
            pred_targets: Vec::new(),
            succ: OnceLock::new(),
            labels: OnceLock::new(),
        }
    }
}

impl TaskGraph {
    /// Empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Releases the spare capacity that amortized growth left in the task,
    /// edge and history tables, so a finished graph kept for many runs
    /// holds only what it uses. Further pushes grow the tables again.
    pub fn shrink_to_fit(&mut self) {
        self.op.shrink_to_fit();
        self.label.shrink_to_fit();
        self.acc_offsets.shrink_to_fit();
        self.acc_words.shrink_to_fit();
        self.bodies.shrink_to_fit();
        self.history.shrink_to_fit();
        self.reader_nodes.shrink_to_fit();
        self.scratch_deps = Vec::new();
        self.pred_offsets.shrink_to_fit();
        self.pred_targets.shrink_to_fit();
    }

    /// Registers a tile.
    ///
    /// # Panics
    /// Panics past 2^30 tiles, the handle field of an access word.
    pub fn add_data(&mut self, info: DataInfo) -> HandleId {
        let bytes = info.bytes;
        let h = self.data.add(info);
        assert!(h.0 <= HANDLE_MASK as usize, "tile count exceeds the access word's handle field");
        self.labels.take(); // a handle's label joins the table
        debug_assert_eq!(h.0, self.history.len());
        self.history.push(HandleHistory {
            last_writer: NONE,
            readers_head: NONE,
            last_access: NONE,
            bytes,
        });
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
        accesses: impl AsRef<[TaskAccess]>,
        label: impl Into<TaskLabel>,
    ) -> TaskId {
        let accesses = accesses.as_ref().iter().copied();
        self.push_task(Some(op), accesses, label.into(), None)
    }

    /// Adds a kernel task with a numeric body for the host executors. The
    /// body goes to the graph's side table, which only numeric graphs fill.
    pub fn add_task_with_body(
        &mut self,
        op: TileOp,
        accesses: impl AsRef<[TaskAccess]>,
        label: impl Into<TaskLabel>,
        body: TaskBody,
    ) -> TaskId {
        let accesses = accesses.as_ref().iter().copied();
        self.push_task(Some(op), accesses, label.into(), Some(body))
    }

    /// Adds a host-coherency (flush) task reading `handles`: the model of
    /// `xkblas_memory_coherent_async`. It depends on the last writers of
    /// every handle and, in the simulator, triggers the DtoH transfers.
    pub fn add_flush(&mut self, handles: &[HandleId], label: impl Into<TaskLabel>) -> TaskId {
        let accesses = handles.iter().map(|&handle| TaskAccess { handle, access: Access::Read });
        self.push_task(None, accesses, label.into(), None)
    }

    /// Appends one task: `op` `None` is a flush.
    #[inline]
    fn push_task(
        &mut self,
        op: Option<TileOp>,
        accesses: impl Iterator<Item = TaskAccess>,
        label: TaskLabel,
        body: Option<TaskBody>,
    ) -> TaskId {
        let id = TaskId(self.len());
        assert!(id.0 < NONE as usize, "task count exceeds u32 index space");
        let idx = id.0 as u32;

        // One pass per access: store its word, collect dependencies from
        // the pre-task history and update it in place. A later entry for
        // the same handle sees the earlier entry's update, which can only
        // add `id` itself to the raw list (an RW pair, a write-then-read);
        // the `retain` below removes it, so the edge set matches the
        // two-pass formulation exactly.
        self.scratch_deps.clear();
        let mut task_bytes = 0u64;
        for acc in accesses {
            // A real check, not a debug_assert: a dangling handle would
            // silently corrupt the dense history table in release builds.
            assert!(
                acc.handle.0 < self.history.len(),
                "unknown handle {:?} (registry has {} tiles)",
                acc.handle,
                self.history.len()
            );
            self.acc_words.push(pack(acc));
            let h = acc.handle.0;
            let hist = self.history[h];
            if hist.last_access != idx {
                task_bytes += hist.bytes;
                self.history[h].last_access = idx;
            }
            if acc.access.reads() && hist.last_writer != NONE {
                self.scratch_deps.push(hist.last_writer);
            }
            if acc.access.writes() {
                if hist.last_writer != NONE {
                    self.scratch_deps.push(hist.last_writer);
                }
                // Walk the reader list once: every reader becomes a
                // dependency, and the tail splices the whole list onto
                // the free list.
                let head = hist.readers_head;
                if head != NONE {
                    let mut node = head;
                    loop {
                        let rn = self.reader_nodes[node as usize];
                        self.scratch_deps.push(rn.task);
                        if rn.next == NONE {
                            break;
                        }
                        node = rn.next;
                    }
                    self.reader_nodes[node as usize].next = self.reader_free;
                    self.reader_free = head;
                }
                self.history[h].last_writer = idx;
                self.history[h].readers_head = NONE;
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
                if deps[0] == idx {
                    deps.clear();
                }
            }
            2 => {
                if deps[0] == deps[1] {
                    deps.pop();
                } else if deps[0] > deps[1] {
                    deps.swap(0, 1);
                }
                deps.retain(|&d| d != idx);
            }
            _ => {
                deps.sort_unstable();
                deps.dedup();
                deps.retain(|&d| d != idx);
            }
        }

        assert!(
            self.pred_targets.len() + deps.len() < NONE as usize
                && self.acc_words.len() < NONE as usize,
            "edge or access count exceeds u32 index space"
        );
        self.pred_targets.extend_from_slice(&self.scratch_deps);
        self.pred_offsets.push(self.pred_targets.len() as u32);
        self.acc_offsets.push(self.acc_words.len() as u32);
        self.max_task_bytes = self.max_task_bytes.max(task_bytes);
        let op = self.ops.intern(op);
        self.op.push(u16::try_from(op).expect("more than 65 536 distinct tile ops"));
        let label = self.patterns.intern(label);
        self.label.push(label);
        self.succ.take(); // invalidate the cached successor CSR
        self.labels.take(); // and the trace labels
        if let Some(body) = body {
            self.bodies.resize_with(id.0, || None);
            self.bodies.push(Some(body));
        }
        id
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.op.len()
    }

    /// True when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.op.is_empty()
    }

    /// Number of dependency edges.
    pub fn n_edges(&self) -> usize {
        self.pred_targets.len()
    }

    /// Kernel vs flush.
    pub fn kind(&self, id: TaskId) -> TaskKind {
        match self.op(id) {
            Some(_) => TaskKind::Kernel,
            None => TaskKind::Flush,
        }
    }

    /// Shape fed to the GPU performance model; `None` for a flush.
    pub fn op(&self, id: TaskId) -> Option<TileOp> {
        self.ops.items[self.op[id.0] as usize]
    }

    /// Data accesses, in declaration order. The *first written* handle is
    /// the task's "owner tile" for owner-computes scheduling.
    pub fn accesses(&self, id: TaskId) -> impl ExactSizeIterator<Item = TaskAccess> + Clone + '_ {
        self.access_words(id).iter().map(|&w| unpack(w))
    }

    /// Lazily-rendered label for traces (e.g. `"gemm C(1,2)"`).
    pub fn label(&self, id: TaskId) -> &TaskLabel {
        &self.patterns.items[self.label_pattern(id)]
    }

    /// Index of the task's label pattern, in first-use order: what
    /// [`TraceLabels::patterns`] is indexed by.
    pub(crate) fn label_pattern(&self, id: TaskId) -> usize {
        self.label[id.0] as usize
    }

    fn access_words(&self, id: TaskId) -> &[u32] {
        let a = self.acc_offsets[id.0] as usize;
        let b = self.acc_offsets[id.0 + 1] as usize;
        &self.acc_words[a..b]
    }

    /// The first handle the task writes, if any (owner-computes anchor).
    pub(crate) fn owner_handle(&self, id: TaskId) -> Option<HandleId> {
        self.written_handles(id).next()
    }

    /// Handles that must be resident (and valid) before the kernel starts.
    pub(crate) fn read_handles(&self, id: TaskId) -> impl Iterator<Item = HandleId> + '_ {
        let words = self.access_words(id).iter();
        words.filter(|&&w| w & READS != 0).map(|&w| handle_of(w))
    }

    /// Handles the task writes.
    pub(crate) fn written_handles(&self, id: TaskId) -> impl Iterator<Item = HandleId> + '_ {
        let words = self.access_words(id).iter();
        words.filter(|&&w| w & WRITES != 0).map(|&w| handle_of(w))
    }

    /// The most bytes of distinct tiles any one task accesses: what one
    /// GPU must hold at once to run the graph's largest task.
    pub fn max_task_bytes(&self) -> u64 {
        self.max_task_bytes
    }

    /// Takes the numeric bodies out, one slot per task by `TaskId.0`
    /// (`None` for a task without one): the host executors run each once.
    pub(crate) fn take_bodies(&mut self) -> Vec<Option<TaskBody>> {
        let mut bodies = std::mem::take(&mut self.bodies);
        bodies.resize_with(self.len(), || None);
        bodies
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
    pub fn successors(&self, id: TaskId) -> Successors<'_> {
        let csr = self.succ_csr();
        let a = csr.offsets[id.0] as usize;
        let b = csr.offsets[id.0 + 1] as usize;
        Successors(&csr.targets[a..b])
    }

    /// Forces the successor CSR and the trace labels to be built now (they
    /// are otherwise derived lazily on first use), so replica threads that
    /// share the graph find them built.
    pub fn finalize(&self) {
        let _ = self.succ_csr();
        let _ = self.trace_labels();
    }

    /// The graph's trace labels, interned on first call after a mutation.
    pub(crate) fn trace_labels(&self) -> &TraceLabels {
        self.labels.get_or_init(|| {
            // Each pattern is rendered once, in first-use order. Interning
            // the text still merges two patterns that render alike, and a
            // text's first task is its first pattern's, so label ids are
            // those of interning every task's text in task order.
            let mut table = Trace::new();
            let mut buf = String::new();
            let patterns = self.patterns.items.iter().map(|pattern| {
                buf.clear();
                pattern.render_into(&mut buf);
                table.intern(&buf)
            });
            let patterns: Box<[Label]> = patterns.collect();
            let handles = self.data.iter().map(|(_, info)| table.intern(&info.label)).collect();
            table.compact();
            TraceLabels {
                table: Arc::clone(table.labels()),
                patterns,
                handles,
                span_hint: AtomicUsize::new(0),
            }
        })
    }

    fn succ_csr(&self) -> &SuccCsr {
        self.succ.get_or_init(|| {
            let n = self.len();
            let mut offsets = vec![0u32; n + 1];
            for &p in &self.pred_targets {
                offsets[p as usize + 1] += 1;
            }
            for i in 0..n {
                offsets[i + 1] += offsets[i];
            }
            let mut cursor: Vec<u32> = offsets[..n].to_vec();
            let mut targets = vec![0u32; self.pred_targets.len()];
            // Iterating destinations in id order writes each source's
            // successor list in ascending-destination order.
            for dst in 0..n {
                let a = self.pred_offsets[dst] as usize;
                let b = self.pred_offsets[dst + 1] as usize;
                for &src in &self.pred_targets[a..b] {
                    targets[cursor[src as usize] as usize] = dst as u32;
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
    /// evaluated once per entry of the op palette, and the executor,
    /// dmdas, the makespan bound and the critical path all read this table
    /// instead of evaluating the model per task.
    pub fn kernel_seconds(&self, model: &GpuModel) -> Vec<f64> {
        self.kernel_seconds_iter(model).collect()
    }

    /// [`TaskGraph::kernel_seconds`] as an iterator, for callers that fold
    /// it into a table of their own.
    pub(crate) fn kernel_seconds_iter(&self, model: &GpuModel) -> impl Iterator<Item = f64> + '_ {
        let seconds: Vec<f64> = self
            .ops
            .items
            .iter()
            .map(|op| op.map_or(0.0, |op| model.kernel_time(op)))
            .collect();
        self.op.iter().map(move |&i| seconds[i as usize])
    }

    /// Total kernel flops in the graph.
    pub fn total_flops(&self) -> f64 {
        self.op
            .iter()
            .filter_map(|&i| self.ops.items[i as usize])
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
        for id in 0..self.len() {
            buf.clear();
            self.label(TaskId(id)).render_into(&mut buf);
            let _ = writeln!(s, "  t{id} [label=\"{}\"];", escape(&buf));
        }
        for id in 0..self.len() {
            for succ in self.successors(TaskId(id)).iter() {
                let _ = writeln!(s, "  t{id} -> t{};", succ.0);
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

    fn succ(g: &TaskGraph, t: TaskId) -> Vec<TaskId> {
        g.successors(t).iter().collect()
    }

    #[test]
    fn reader_depends_on_writer() {
        let mut g = TaskGraph::new();
        let h = g.add_host_tile(64, false, "x");
        let w = g.add_task(op(), vec![write(h)], "w");
        let r = g.add_task(op(), vec![read(h)], "r");
        assert_eq!(succ(&g, w), [r]);
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
        assert!(succ(&g, r1).contains(&w2));
        assert!(succ(&g, r2).contains(&w2));
        assert!(succ(&g, w1).contains(&w2));
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
        assert_eq!(succ(&g, t0), [t1]);
        assert_eq!(succ(&g, t1), [t2]);
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
        assert_eq!(succ(&g, w), [r]);
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
        assert!(succ(&g, w1).contains(&f));
        assert!(succ(&g, w2).contains(&f));
        assert_eq!(g.kind(f), TaskKind::Flush);
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
        assert!(succ(&g, w).is_empty());
        let r = g.add_task(op(), vec![read(h)], "r");
        assert_eq!(succ(&g, w), [r]);
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

    #[test]
    fn accesses_of_any_length_round_trip() {
        let mut g = TaskGraph::new();
        let h: Vec<HandleId> = (0..8).map(|i| g.add_host_tile(64, false, format!("h{i}"))).collect();
        let modes = [Access::Read, Access::Write, Access::ReadWrite];
        for len in 0..=7 {
            let accesses: Vec<TaskAccess> = (0..len)
                .map(|i| TaskAccess { handle: h[7 - i], access: modes[i % 3] })
                .collect();
            let t = g.add_task(op(), &accesses, "t");
            let back: Vec<(HandleId, Access)> = g.accesses(t).map(|a| (a.handle, a.access)).collect();
            let sent: Vec<(HandleId, Access)> = accesses.iter().map(|a| (a.handle, a.access)).collect();
            assert_eq!(back, sent, "{len} accesses");
        }
        let f = g.add_flush(&h, "flush");
        assert!(g.accesses(f).all(|a| a.access == Access::Read));
        assert_eq!(g.read_handles(f).collect::<Vec<_>>(), h);
        assert_eq!(g.written_handles(f).count(), 0);
    }

    #[test]
    fn max_task_bytes_counts_each_tile_once() {
        let mut g = TaskGraph::new();
        let a = g.add_host_tile(100, false, "a");
        let b = g.add_host_tile(10, false, "b");
        assert_eq!(g.max_task_bytes(), 0);
        g.add_task(op(), vec![read(a), rw(a), read(b)], "t");
        g.add_task(op(), vec![rw(b)], "u");
        assert_eq!(g.max_task_bytes(), 110);
    }

    /// Every graph a thread's memo keeps alive costs this per task: the
    /// 48×48×48 tile GEMM of the N = 49 152 column (110 592 kernels and
    /// 2 304 flushes), its columns and both CSRs, capacity counted.
    #[test]
    fn a_tile_gemm_graph_costs_at_most_56_bytes_a_task() {
        const NT: usize = 48;
        let mut g = TaskGraph::new();
        let mut tiles = |name: &str| -> Vec<HandleId> {
            (0..NT * NT).map(|i| g.add_host_tile(8 << 20, true, format!("{name}{i}"))).collect()
        };
        let (a, b, c) = (tiles("A"), tiles("B"), tiles("C"));
        let op = TileOp::Gemm { m: 1024, n: 1024, k: 1024 };
        for i in 0..NT {
            for j in 0..NT {
                for l in 0..NT {
                    let accesses = [read(a[i * NT + l]), read(b[l * NT + j]), rw(c[i * NT + j])];
                    g.add_task(op, accesses, TaskLabel::tile("gemm", 'C', i, j));
                }
            }
        }
        for (slot, &h) in c.iter().enumerate() {
            g.add_flush(&[h], TaskLabel::mat_tile("coherent", 3, slot / NT, slot % NT));
        }
        g.finalize();
        assert_eq!((g.len(), g.n_edges()), (NT * NT * NT + NT * NT, NT * NT * NT));
        assert_eq!(g.ops.items.len(), 2);

        let succ = g.succ.get().expect("finalized");
        let words = |v: &Vec<u32>| v.capacity() * 4;
        let bytes = g.op.capacity() * 2
            + words(&g.label)
            + words(&g.acc_offsets)
            + words(&g.acc_words)
            + words(&g.pred_offsets)
            + words(&g.pred_targets)
            + words(&succ.offsets)
            + words(&succ.targets)
            + g.bodies.capacity() * std::mem::size_of::<Option<TaskBody>>();
        let per_task = bytes as f64 / g.len() as f64;
        assert!(per_task <= 56.0, "{per_task:.1} B a task");
    }
}
