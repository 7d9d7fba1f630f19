//! The routine graphs the shared-runtime libraries simulate, pinned by
//! structure: for each routine at N = 5000 under 1024-tiles (a 904-wide
//! ragged edge), under both methodologies and both layouts, a digest of
//! every task's op, kind, accesses and rendered label, its predecessor and
//! successor lists, and the handle registry. A change to how a graph is
//! stored must leave all 24 digests as they are.
//!
//! Matrix ids (`M<id>` in handle and flush labels) come from a process-wide
//! counter, so each digest renumbers them in order of first appearance.

use std::collections::HashMap;
use std::fmt::Write as _;

use xk_baselines::{build_run_graph, RunParams};
use xk_kernels::Routine;
use xk_runtime::{RuntimeConfig, TaskGraph, TaskId};

/// FNV-1a over each field's text and a terminator byte.
struct Fnv(u64);

impl Fnv {
    fn text(&mut self, s: &str) {
        for b in s.bytes().chain([0xff]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// `text` with every `M<digits>` renumbered by first appearance in `ids`.
fn mask(text: &str, ids: &mut HashMap<String, usize>) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c == 'M' && chars.peek().is_some_and(char::is_ascii_digit) {
            let mut id = String::new();
            while let Some(&d) = chars.peek().filter(|d| d.is_ascii_digit()) {
                id.push(d);
                chars.next();
            }
            let next = ids.len();
            let _ = write!(out, "{}", *ids.entry(id).or_insert(next));
        }
    }
    out
}

fn digest(g: &TaskGraph) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut ids = HashMap::new();
    for id in (0..g.len()).map(TaskId) {
        h.text(&format!("{:?} {:?}", g.op(id), g.kind(id)));
        for a in g.accesses(id) {
            h.text(&format!("{} {:?}", a.handle.0, a.access));
        }
        h.text(&mask(&g.label(id).to_text(), &mut ids));
        let preds: Vec<usize> = g.predecessors(id).map(|p| p.0).collect();
        let succs: Vec<usize> = g.successors(id).iter().map(|s| s.0).collect();
        h.text(&format!("{preds:?} {succs:?}"));
    }
    for (handle, info) in g.data().iter() {
        let label = mask(&info.label, &mut ids);
        let (bytes, pitched, initial, owner) = (info.bytes, info.pitched, info.initial, info.owner_hint);
        h.text(&format!("{} {bytes} {pitched} {initial:?} {label} {owner:?}", handle.0));
    }
    h.0
}

/// (routine, data on device, tile layout, tasks, edges, digest), recorded
/// from the `Vec<Task>` graph the column layout replaced.
const PINNED: [(Routine, bool, bool, usize, usize, u64); 24] = [
    (Routine::Gemm, false, false, 150, 125, 0xe8aca32a86d6ed70),
    (Routine::Gemm, false, true, 150, 125, 0xf9a1d8bb2c3c83ad),
    (Routine::Gemm, true, false, 125, 100, 0xb6f1d94f15a891a3),
    (Routine::Gemm, true, true, 125, 100, 0xfd4fcd92596a9e0a),
    (Routine::Symm, false, false, 150, 125, 0x574e8d1347d5c280),
    (Routine::Symm, false, true, 150, 125, 0x8c953a69174e5c5f),
    (Routine::Symm, true, false, 125, 100, 0xa0672c231688c0f0),
    (Routine::Symm, true, true, 125, 100, 0x27b858d5b7d97daf),
    (Routine::Syr2k, false, false, 140, 125, 0x685b59f6e49eb54e),
    (Routine::Syr2k, false, true, 140, 125, 0xcf71e3517483f825),
    (Routine::Syr2k, true, false, 125, 110, 0x2ae34e87a421f92a),
    (Routine::Syr2k, true, true, 125, 110, 0x4831042f58ebf2d7),
    (Routine::Syrk, false, false, 90, 75, 0x6ea6598455d770aa),
    (Routine::Syrk, false, true, 90, 75, 0xd7ea89cf68bddb26),
    (Routine::Syrk, true, false, 75, 60, 0x7c6702e12f8134c7),
    (Routine::Syrk, true, true, 75, 60, 0xee858000fd41da29),
    (Routine::Trmm, false, false, 100, 125, 0xaa0788fe45baaf63),
    (Routine::Trmm, false, true, 100, 125, 0x7420f5a548ce865d),
    (Routine::Trmm, true, false, 75, 100, 0xe0a96bca9091bfc9),
    (Routine::Trmm, true, true, 75, 100, 0xdf795505b4ae1413),
    (Routine::Trsm, false, false, 100, 125, 0x9a7828873cb3a187),
    (Routine::Trsm, false, true, 100, 125, 0x907ec6f380d5d005),
    (Routine::Trsm, true, false, 75, 100, 0x54348f5a34a22815),
    (Routine::Trsm, true, true, 75, 100, 0xdca78ac66d625295),
];

#[test]
fn routine_graphs_keep_their_structure() {
    let topo = xk_topo::dgx1();
    let cfg = RuntimeConfig::xkblas();
    for (routine, data_on_device, tile_layout, tasks, edges, pinned) in PINNED {
        let params = RunParams { routine, n: 5000, tile: 1024, data_on_device };
        let g = build_run_graph(&topo, &params, &cfg, tile_layout);
        let got = (g.len(), g.n_edges(), digest(&g));
        let case = format!("{routine:?} on device {data_on_device}, tile layout {tile_layout}");
        assert_eq!(got, (tasks, edges, pinned), "{case}: got digest {:#018x}", got.2);
    }
}
