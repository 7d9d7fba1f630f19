//! `des_large` — the N = 49152 column of Fig. 3.
//!
//! Uncached, serial best-tile runs of XKBlas Full / NoHeuristic /
//! NoHeuristicNoTopo × GEMM, SYR2K, TRSM: 27 simulations of up to 112 896
//! tasks per pass. The same simulated executor as `paper_small`, used the
//! opposite way — few huge graphs, where the event queue, the cache and
//! eviction decisions, transfer routing and span recording do nearly all
//! the work and graph build is a small share.
//!
//! Check: every TFlop/s equals the committed `fig3_*.csv` cell at 49152.

use xk_baselines::{Library, XkVariant};
use xk_bench::{best_tile_run_with, fmt_tflops};
use xk_kernels::Routine;
use xk_topo::FabricSpec;

use super::paper_small::committed_keyed;
use crate::csvcheck::KeyedTable;
use crate::harness::{Checks, Counts, Workload};
use crate::spans::Tracer;

/// The matrix dimension: the last column of the paper's grid.
pub const N: usize = 49152;
/// The Fig. 3 routines.
pub const ROUTINES: [Routine; 3] = [Routine::Gemm, Routine::Syr2k, Routine::Trsm];
/// The Fig. 3 XKBlas ablations.
pub const VARIANTS: [XkVariant; 3] = [
    XkVariant::Full,
    XkVariant::NoHeuristic,
    XkVariant::NoHeuristicNoTopo,
];

/// One best-tile result.
pub struct Point {
    routine: Routine,
    library: Library,
    tile: usize,
    tflops: f64,
    spans: usize,
    bytes: u64,
}

/// See the module docs.
pub struct DesLarge {
    topo: FabricSpec,
}

impl Workload for DesLarge {
    const NAME: &'static str = "des_large";
    type Output = Vec<Point>;

    fn setup(_seed: u64, _threads: usize) -> Self {
        // The inputs are the paper's largest problems: no seed dependence.
        DesLarge {
            topo: xk_topo::dgx1(),
        }
    }

    fn pass(&mut self, tr: &Tracer) -> Vec<Point> {
        let mut points = Vec::with_capacity(ROUTINES.len() * VARIANTS.len());
        for routine in ROUTINES {
            for variant in VARIANTS {
                let library = Library::XkBlas(variant);
                let name = format!("best_tile {} {}", routine.name(), library.name());
                let (tile, r) = tr
                    .span("bench", &name, || {
                        best_tile_run_with(library, &self.topo, routine, N, false, None, false)
                    })
                    .expect("every XKBlas variant runs every Fig. 3 routine");
                points.push(Point {
                    routine,
                    library,
                    tile,
                    tflops: r.tflops,
                    spans: r.trace.len(),
                    bytes: r.bytes_h2d + r.bytes_d2h + r.bytes_p2p,
                });
            }
        }
        points
    }

    fn check(&mut self, out: Vec<Point>, checks: &mut Checks) -> Counts {
        let column = N.to_string();
        for p in &out {
            let file = format!("fig3_{}.csv", p.routine.name().to_lowercase());
            let committed = committed_keyed(&file)
                .and_then(|csv| KeyedTable::parse(csv).ok())
                .expect("the Fig. 3 tables are committed and well-formed");
            let expected = committed.cell(p.library.name(), &column);
            let actual = fmt_tflops(Some(p.tflops));
            checks.check(expected == Some(actual.as_str()), || {
                format!(
                    "{}: {file} row {:?} column {column}: expected {}, got {actual}",
                    Self::NAME,
                    p.library.name(),
                    expected.unwrap_or("<no such cell>")
                )
            });
        }
        vec![
            ("best_tile_runs", out.len() as u64),
            ("winning_tiles_sum", out.iter().map(|p| p.tile as u64).sum()),
            (
                "winner_trace_spans",
                out.iter().map(|p| p.spans as u64).sum(),
            ),
            ("winner_bytes_moved", out.iter().map(|p| p.bytes).sum()),
        ]
    }
}
