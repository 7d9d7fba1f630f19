//! Tasks: the unit of scheduling of the XKaapi-like runtime.

use crate::data::HandleId;

/// Task identifier (a row of the graph's task columns).
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
/// a heap allocation on the hottest path of the library; the graph keeps
/// each distinct *pattern* once and renders the identical text on demand —
/// once per pattern when the graph builds the label table its
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

#[cfg(test)]
mod tests {
    use super::*;
    use xk_kernels::perfmodel::TileOp;

    #[test]
    fn access_predicates() {
        assert!(Access::Read.reads() && !Access::Read.writes());
        assert!(!Access::Write.reads() && Access::Write.writes());
        assert!(Access::ReadWrite.reads() && Access::ReadWrite.writes());
    }

    #[test]
    fn owner_is_first_written_handle() {
        let mut g = crate::TaskGraph::new();
        let h: Vec<HandleId> = (0..10).map(|i| g.add_host_tile(64, false, format!("h{i}"))).collect();
        let acc = |i: usize, access| TaskAccess { handle: h[i], access };
        let t = g.add_task(
            TileOp::Gemm { m: 4, n: 4, k: 4 },
            [acc(7, Access::Read), acc(9, Access::ReadWrite), acc(3, Access::Write)],
            TaskLabel::None,
        );
        assert_eq!(g.owner_handle(t), Some(h[9]));
        assert_eq!(g.read_handles(t).collect::<Vec<_>>(), vec![h[7], h[9]]);
        assert_eq!(g.written_handles(t).collect::<Vec<_>>(), vec![h[9], h[3]]);
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
