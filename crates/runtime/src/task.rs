//! Tasks: the unit of scheduling of the XKaapi-like runtime.

use xk_kernels::perfmodel::TileOp;

use crate::data::HandleId;

/// Task identifier (index into the graph's task table).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// Access mode of a task on a data handle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    /// The task reads the tile.
    Read,
    /// The task overwrites the tile without reading it.
    Write,
    /// The task reads and updates the tile.
    ReadWrite,
}

impl Access {
    /// True when the tile's previous contents must be present on the device.
    pub fn reads(self) -> bool {
        matches!(self, Access::Read | Access::ReadWrite)
    }

    /// True when the task produces a new version of the tile.
    pub fn writes(self) -> bool {
        matches!(self, Access::Write | Access::ReadWrite)
    }
}

/// One access of a task.
#[derive(Clone, Copy, Debug)]
pub struct TaskAccess {
    /// The tile accessed.
    pub handle: HandleId,
    /// The access mode.
    pub access: Access,
}

/// Number of accesses stored inline in [`TaskAccesses`]. Every BLAS-3 tile
/// task touches at most three tiles (two reads plus the output), and the
/// per-tile coherency flushes touch one; four covers them all without a
/// heap allocation.
pub(crate) const INLINE_ACCESSES: usize = 3;

/// The access list of a task.
///
/// Small lists (the steady state of the tiled builders) live inline in the
/// task; longer lists — multi-handle flushes, hand-built test graphs —
/// spill to the heap. This is what makes task submission allocation-free:
/// the old `Vec<TaskAccess>` per task was one of the four per-task heap
/// allocations the CSR graph rework removed.
#[derive(Clone, Debug)]
pub enum TaskAccesses {
    /// Up to `INLINE_ACCESSES` accesses stored in place.
    Inline {
        /// Number of live entries in `buf`.
        len: u8,
        /// Inline storage; entries past `len` are unspecified.
        buf: [TaskAccess; INLINE_ACCESSES],
    },
    /// More than `INLINE_ACCESSES` accesses, heap-allocated.
    Heap(Vec<TaskAccess>),
}

impl TaskAccesses {
    /// Empty access list.
    pub(crate) const fn empty() -> Self {
        const NO_ACCESS: TaskAccess = TaskAccess {
            handle: HandleId(0),
            access: Access::Read,
        };
        TaskAccesses::Inline {
            len: 0,
            buf: [NO_ACCESS; INLINE_ACCESSES],
        }
    }

    /// The accesses as a slice, in declaration order.
    pub fn as_slice(&self) -> &[TaskAccess] {
        match self {
            TaskAccesses::Inline { len, buf } => &buf[..*len as usize],
            TaskAccesses::Heap(v) => v,
        }
    }
}

impl Default for TaskAccesses {
    fn default() -> Self {
        TaskAccesses::empty()
    }
}

impl std::ops::Deref for TaskAccesses {
    type Target = [TaskAccess];
    fn deref(&self) -> &[TaskAccess] {
        self.as_slice()
    }
}

impl From<&[TaskAccess]> for TaskAccesses {
    fn from(s: &[TaskAccess]) -> Self {
        if s.len() <= INLINE_ACCESSES {
            let mut out = TaskAccesses::empty();
            if let TaskAccesses::Inline { len, buf } = &mut out {
                buf[..s.len()].copy_from_slice(s);
                *len = s.len() as u8;
            }
            out
        } else {
            TaskAccesses::Heap(s.to_vec())
        }
    }
}

impl<const N: usize> From<[TaskAccess; N]> for TaskAccesses {
    fn from(s: [TaskAccess; N]) -> Self {
        TaskAccesses::from(&s[..])
    }
}

impl From<Vec<TaskAccess>> for TaskAccesses {
    fn from(v: Vec<TaskAccess>) -> Self {
        if v.len() <= INLINE_ACCESSES {
            TaskAccesses::from(&v[..])
        } else {
            TaskAccesses::Heap(v)
        }
    }
}

impl FromIterator<TaskAccess> for TaskAccesses {
    fn from_iter<I: IntoIterator<Item = TaskAccess>>(iter: I) -> Self {
        let mut out = TaskAccesses::empty();
        for acc in iter {
            match &mut out {
                TaskAccesses::Inline { len, buf } => {
                    if (*len as usize) < INLINE_ACCESSES {
                        buf[*len as usize] = acc;
                        *len += 1;
                    } else {
                        let mut v = buf.to_vec();
                        v.push(acc);
                        out = TaskAccesses::Heap(v);
                    }
                }
                TaskAccesses::Heap(v) => v.push(acc),
            }
        }
        out
    }
}

impl<'a> IntoIterator for &'a TaskAccesses {
    type Item = &'a TaskAccess;
    type IntoIter = std::slice::Iter<'a, TaskAccess>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// What a task is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskKind {
    /// A compute kernel (runs on a GPU in simulated mode).
    Kernel,
    /// A host-coherency task (`xkblas_memory_coherent_async`): makes its
    /// read handles valid in host memory. Runs on the host; in the
    /// simulator it reserves DtoH transfers for every dirty handle.
    Flush,
}

/// A lazily-rendered task label.
///
/// The tiled builders submit hundreds of thousands of tasks whose labels
/// all follow a handful of `"<verb> <obj>(<i>,<j>)"` patterns. Rendering
/// the text at submission time (`format!` per task, as the seed did) costs
/// a heap allocation on the hottest path of the library; storing the
/// *pattern* costs nothing and renders the identical text on demand —
/// once per distinct pattern when a `SimPrep` builds the label table its
/// runs' [`xk_trace::Trace`]s share, or never at all under the numeric
/// executor, which doesn't trace.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum TaskLabel {
    /// No label; renders as the empty string.
    #[default]
    None,
    /// Borrowed static text.
    Static(&'static str),
    /// `"<verb> <obj>(<i>,<j>)"` — e.g. `tile("gemm", 'C', 1, 2)` renders
    /// as `"gemm C(1,2)"`. The pattern of every tiled-builder kernel task.
    Tile {
        /// Routine verb, e.g. `"gemm"`.
        verb: &'static str,
        /// Operand letter, e.g. `'C'`.
        obj: char,
        /// Tile row.
        i: u32,
        /// Tile column.
        j: u32,
    },
    /// `"<verb> M<mat>(<i>,<j>)"` — e.g. `"coherent M3(0,1)"`. The pattern
    /// of the per-tile coherency flushes.
    MatTile {
        /// Verb, e.g. `"coherent"`.
        verb: &'static str,
        /// Matrix id (graphs never hold 4 billion matrices).
        mat: u32,
        /// Tile row.
        i: u32,
        /// Tile column.
        j: u32,
    },
    /// Arbitrary owned text. Allocates — cold paths and tests only.
    Text(Box<str>),
}

impl TaskLabel {
    /// Builds the `"<verb> <obj>(<i>,<j>)"` pattern.
    pub fn tile(verb: &'static str, obj: char, i: usize, j: usize) -> Self {
        TaskLabel::Tile {
            verb,
            obj,
            i: i as u32,
            j: j as u32,
        }
    }

    /// Builds the `"<verb> M<mat>(<i>,<j>)"` pattern.
    pub fn mat_tile(verb: &'static str, mat: u64, i: usize, j: usize) -> Self {
        debug_assert!(mat <= u32::MAX as u64);
        TaskLabel::MatTile {
            verb,
            mat: mat as u32,
            i: i as u32,
            j: j as u32,
        }
    }

    /// Appends the rendered text to `out` (reuse one buffer to render many
    /// labels without reallocating).
    pub(crate) fn render_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            TaskLabel::None => {}
            TaskLabel::Static(s) => out.push_str(s),
            TaskLabel::Tile { verb, obj, i, j } => {
                let _ = write!(out, "{verb} {obj}({i},{j})");
            }
            TaskLabel::MatTile { verb, mat, i, j } => {
                let _ = write!(out, "{verb} M{mat}({i},{j})");
            }
            TaskLabel::Text(s) => out.push_str(s),
        }
    }

    /// The rendered text as a fresh `String`.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        self.render_into(&mut s);
        s
    }
}

impl From<String> for TaskLabel {
    fn from(s: String) -> Self {
        TaskLabel::Text(s.into_boxed_str())
    }
}

impl From<&str> for TaskLabel {
    fn from(s: &str) -> Self {
        TaskLabel::Text(Box::from(s))
    }
}

/// Numeric payload executed by the parallel (real CPU) executor.
///
/// Captures the tile views; the scheduling layer guarantees exclusive
/// access to written tiles at execution time.
pub type TaskBody = Box<dyn FnOnce() + Send + Sync>;

/// A runtime task. Its [`TaskId`] is its index in the graph's task table;
/// a numeric body, if any, sits in the graph's side table (see
/// [`crate::TaskGraph::add_task_with_body`]).
#[derive(Debug)]
pub struct Task {
    /// Kernel vs flush.
    pub kind: TaskKind,
    /// Shape fed to the GPU performance model (kernels only).
    pub op: Option<TileOp>,
    /// Data accesses, in declaration order. The *first written* handle is
    /// the task's "owner tile" for owner-computes scheduling.
    pub accesses: TaskAccesses,
    /// Lazily-rendered label for traces (e.g. `"gemm C(1,2)"`).
    pub label: TaskLabel,
}

impl Task {
    /// The first handle this task writes, if any (owner-computes anchor).
    pub(crate) fn owner_handle(&self) -> Option<HandleId> {
        self.accesses
            .iter()
            .find(|a| a.access.writes())
            .map(|a| a.handle)
    }

    /// Handles that must be resident (and valid) before the kernel starts.
    pub fn read_handles(&self) -> impl Iterator<Item = HandleId> + '_ {
        self.accesses
            .iter()
            .filter(|a| a.access.reads())
            .map(|a| a.handle)
    }

    /// Handles written by this task.
    pub fn written_handles(&self) -> impl Iterator<Item = HandleId> + '_ {
        self.accesses
            .iter()
            .filter(|a| a.access.writes())
            .map(|a| a.handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_predicates() {
        assert!(Access::Read.reads() && !Access::Read.writes());
        assert!(!Access::Write.reads() && Access::Write.writes());
        assert!(Access::ReadWrite.reads() && Access::ReadWrite.writes());
    }

    #[test]
    fn owner_is_first_written_handle() {
        let t = Task {
            kind: TaskKind::Kernel,
            op: None,
            accesses: vec![
                TaskAccess { handle: HandleId(7), access: Access::Read },
                TaskAccess { handle: HandleId(9), access: Access::ReadWrite },
                TaskAccess { handle: HandleId(3), access: Access::Write },
            ]
            .into(),
            label: TaskLabel::None,
        };
        assert_eq!(t.owner_handle(), Some(HandleId(9)));
        assert_eq!(t.read_handles().collect::<Vec<_>>(), vec![HandleId(7), HandleId(9)]);
        assert_eq!(t.written_handles().collect::<Vec<_>>(), vec![HandleId(9), HandleId(3)]);
    }

    #[test]
    fn accesses_inline_then_spill() {
        let acc = |h: usize| TaskAccess { handle: HandleId(h), access: Access::Read };
        let small = TaskAccesses::from([acc(0), acc(1), acc(2)]);
        assert!(matches!(small, TaskAccesses::Inline { len: 3, .. }));
        assert_eq!(small.len(), 3);
        assert_eq!(small[1].handle, HandleId(1));

        let big: TaskAccesses = (0..6).map(acc).collect();
        assert!(matches!(big, TaskAccesses::Heap(_)));
        assert_eq!(big.len(), 6);
        assert_eq!(big.as_slice()[5].handle, HandleId(5));

        let from_vec = TaskAccesses::from(vec![acc(0); 2]);
        assert!(matches!(from_vec, TaskAccesses::Inline { len: 2, .. }));
    }

    #[test]
    fn labels_render_like_the_old_format_strings() {
        assert_eq!(TaskLabel::tile("gemm", 'C', 1, 2).to_text(), "gemm C(1,2)");
        assert_eq!(
            TaskLabel::mat_tile("coherent", 3, 0, 1).to_text(),
            "coherent M3(0,1)"
        );
        assert_eq!(TaskLabel::None.to_text(), "");
        assert_eq!(TaskLabel::Static("flush").to_text(), "flush");
        assert_eq!(TaskLabel::from(format!("k{}", 7)).to_text(), "k7");
        let mut buf = String::from("x");
        TaskLabel::tile("trsm", 'B', 4, 5).render_into(&mut buf);
        assert_eq!(buf, "xtrsm B(4,5)");
    }
}
