//! `paper_small` — the `run_all --small` path, in process.
//!
//! Every figure and table of the paper on the reduced grid
//! (`PAPER_DIMS_SMALL`), through the global run cache: 977 cache lookups
//! and 654 *small* simulations per pass. The headline user path, and the
//! one where the event loop does little: graph build (`xkblas-core`),
//! `SimPrep`, the baseline drivers, the tile search and the run cache
//! dominate.
//!
//! Check: every cell of the N-keyed tables equals the committed
//! `results/*.csv` cell of the same row and N column; `fig2_bandwidth` and
//! `table2_gains` (whose extremes fall inside the reduced grid) match
//! whole-file; the Fig. 6/7/9 outputs are computed at the reduced N = 16384
//! and have no committed counterpart, so they are covered by a digest that
//! must repeat exactly.

use xk_bench::{figs, runcache, PAPER_DIMS_SMALL};
use xk_topo::FabricSpec;

use super::fnv1a;
use crate::csvcheck::{compare_keyed, compare_whole};
use crate::harness::{Checks, Counts, Workload};
use crate::spans::Tracer;

/// Matrix dimension of the trace figures (6, 7, 9) on the reduced grid.
const TRACE_N: usize = 16384;
/// Dimensions of the Fig. 8 composition sweep on the reduced grid.
const COMPOSITION_DIMS: [usize; 2] = [8192, 16384];
/// Block size of the composition figures.
const COMPOSITION_TILE: usize = 2048;

macro_rules! committed {
    ($($file:literal),* $(,)?) => {
        &[$(($file, include_str!(concat!("../../../results/", $file)))),*]
    };
}

/// The committed N-keyed tables, embedded at build time.
const COMMITTED_KEYED: &[(&str, &str)] = committed![
    "fig3_gemm.csv",
    "fig3_syr2k.csv",
    "fig3_trsm.csv",
    "fig4_gemm.csv",
    "fig4_syr2k.csv",
    "fig4_trsm.csv",
    "fig5_gemm.csv",
    "fig5_symm.csv",
    "fig5_syrk.csv",
    "fig5_syr2k.csv",
    "fig5_trmm.csv",
    "fig5_trsm.csv",
    "fabric_dgx1.csv",
    "fabric_dgx2_16.csv",
    "fabric_pcie_box_4.csv",
    "fabric_dual_node_4x2.csv",
    "fig8_composition.csv",
];
/// The committed tables compared whole-file.
const COMMITTED_WHOLE: &[(&str, &str)] = committed!["fig2_bandwidth.csv", "table2_gains.csv"];

/// The committed N-keyed table called `file`.
pub fn committed_keyed(file: &str) -> Option<&'static str> {
    COMMITTED_KEYED
        .iter()
        .find(|(name, _)| *name == file)
        .map(|(_, csv)| *csv)
}

/// What one pass produced.
pub struct Output {
    /// `(file name, CSV)` of every table, named as `run_all` names them.
    pub tables: Vec<(String, String)>,
    /// The Fig. 6/7 tables and the Fig. 9 Gantt text.
    pub reduced_only: String,
    /// Bytes of aligned-table text rendered (what `run_all` prints).
    pub rendered_bytes: usize,
    /// Run-cache counters after the pass.
    pub cache: runcache::CacheStats,
    /// Memoized configurations after the pass.
    pub cache_entries: usize,
}

/// See the module docs.
pub struct PaperSmall {
    topo: FabricSpec,
}

impl Workload for PaperSmall {
    const NAME: &'static str = "paper_small";
    type Output = Output;

    fn setup(_seed: u64, _threads: usize) -> Self {
        // The inputs are the paper's grid: nothing depends on the seed.
        runcache::set_global_enabled(true);
        runcache::global().clear();
        PaperSmall {
            topo: xk_topo::dgx1(),
        }
    }

    fn reset(&mut self) {
        runcache::global().clear();
    }

    fn pass(&mut self, tr: &Tracer) -> Output {
        let topo = &self.topo;
        let dims = PAPER_DIMS_SMALL.to_vec();
        let mut tables: Vec<(String, String)> = Vec::new();
        let mut rendered_bytes = 0usize;
        // `run_all` prints the aligned table and writes the CSV.
        let mut emit = |file: String, table: &xk_bench::Table| -> String {
            tr.span("bench", "render", || {
                rendered_bytes += table.render().len();
                let csv = table.to_csv();
                tables.push((file, csv.clone()));
                csv
            })
        };

        let t = tr.span("bench", "fig2", || figs::fig2_bandwidth(topo));
        emit("fig2_bandwidth.csv".into(), &t);
        for (routine, t) in tr.span("bench", "fig3", || figs::fig3_heuristics(topo, &dims)) {
            emit(format!("fig3_{}.csv", routine.name().to_lowercase()), &t);
        }
        let t = tr.span("bench", "table2", || figs::table2_gains(topo, &dims));
        emit("table2_gains.csv".into(), &t);
        for (routine, t) in tr.span("bench", "fig4", || figs::fig4_data_on_device(topo, &dims)) {
            emit(format!("fig4_{}.csv", routine.name().to_lowercase()), &t);
        }
        for (routine, t) in tr.span("bench", "fig5", || figs::fig5_libraries(topo, &dims)) {
            emit(format!("fig5_{}.csv", routine.name().to_lowercase()), &t);
        }
        // The gallery multiplies the sweep: first two grid points only.
        for (name, t) in tr.span("bench", "fabric_gallery", || {
            figs::fabric_gallery_gemm(&dims[..2])
        }) {
            let slug = name
                .split_whitespace()
                .next()
                .unwrap_or("fabric")
                .replace('-', "_");
            emit(format!("fabric_{slug}.csv"), &t);
        }
        let t = tr.span("bench", "fig6", || figs::fig6_trace_gemm(topo, TRACE_N));
        let mut reduced_only = emit("fig6_trace_gemm.csv".into(), &t);
        for (lib, t, imbalance) in
            tr.span("bench", "fig7", || figs::fig7_trace_syr2k(topo, TRACE_N))
        {
            reduced_only.push_str(&format!("{} {:.1}%\n", lib.name(), imbalance * 100.0));
            reduced_only.push_str(&emit(format!("fig7_{}.csv", lib.name()), &t));
        }
        let t = tr.span("bench", "fig8", || {
            figs::fig8_composition(topo, &COMPOSITION_DIMS, COMPOSITION_TILE)
        });
        emit("fig8_composition.csv".into(), &t);
        let gantt = tr.span("bench", "fig9", || {
            figs::fig9_gantt(topo, TRACE_N, COMPOSITION_TILE, 110)
        });
        rendered_bytes += gantt.len();
        reduced_only.push_str(&gantt);

        let cache = runcache::global();
        Output {
            tables,
            reduced_only,
            rendered_bytes,
            cache: cache.stats(),
            cache_entries: cache.len(),
        }
    }

    fn check(&mut self, out: Output, checks: &mut Checks) -> Counts {
        let mut compared = 0usize;
        for (file, csv) in &out.tables {
            if let Some(committed) = committed_keyed(file) {
                compare_keyed(Self::NAME, file, csv, committed, checks);
                compared += 1;
            } else if let Some((_, committed)) =
                COMMITTED_WHOLE.iter().find(|(name, _)| name == file)
            {
                compare_whole(Self::NAME, file, csv, committed, checks);
                compared += 1;
            }
        }
        let expected = COMMITTED_KEYED.len() + COMMITTED_WHOLE.len();
        checks.check(compared == expected, || {
            format!(
                "{}: expected {expected} tables with a committed counterpart, produced {compared}",
                Self::NAME
            )
        });
        let s = out.cache;
        vec![
            ("cache_lookups", s.hits + s.coalesced + s.misses),
            ("cache_misses", s.misses),
            ("cache_entries", out.cache_entries as u64),
            ("rendered_bytes", out.rendered_bytes as u64),
            ("reduced_only_digest", fnv1a(out.reduced_only.as_bytes())),
        ]
    }
}
