//! One reproduction function per table/figure of the paper, so that
//! `run_all`, the integration tests and the benchmark drive the same code.
//!
//! The sweep figures (Fig. 3–5, Table II, the fabric gallery) are lists of
//! independent series, and while the run cache is on they fan out over
//! every core ([`xk_sim::run_replicas`]). On two cores the fan-out alone
//! took a `paper_small` pass from ~0.6 to ~0.45 s for +9 % peak RSS (the
//! second worker's runs in flight); storing trace labels in one buffer
//! ([`xk_trace::LabelTable`]) pays that memory back.

use std::fmt::Write as _;
use std::sync::Arc;

use xk_baselines::{Library, RunParams, XkVariant};
use xk_kernels::Routine;
use xk_runtime::{ObsReport, SimSession};
use xk_topo::{dgx1, FabricSpec, DGX1_TABLE1};
use xk_trace::SpanKind;

use crate::composition::{run_chameleon_composition, run_xkblas_composition};
use crate::report::{fmt_tflops, write_result, Table};
use crate::runcache;
use crate::sweep::{best_tile_run_with, run_point, sweep_series, SeriesPoint};

/// The process-wide cache, unless `run_all --serial` disabled it.
fn cache() -> Option<&'static runcache::RunCache> {
    runcache::global_if_enabled()
}

/// Best-tile run through the shared cache, on the calling thread.
fn best(
    lib: Library,
    topo: &FabricSpec,
    routine: Routine,
    n: usize,
    data_on_device: bool,
) -> Result<(usize, Arc<xk_baselines::RunResult>), xk_baselines::RunError> {
    best_tile_run_with(lib, topo, routine, n, data_on_device, cache(), false)
}

/// One series of a figure: a best-tile sweep, or Fig. 4's XKBlas
/// data-on-device row at the paper's tile rule.
#[derive(Clone, Copy)]
enum Series<'t> {
    /// `sweep_series(library, fabric, routine, grid, data_on_device)`.
    BestTile(Library, &'t FabricSpec, Routine, bool),
    /// XKBlas data-on-device at tile = ceil(N / (2·#gpus)) (at least 256).
    PaperTileDod(&'t FabricSpec, Routine),
}

/// Sweeps every series over `dims` and returns their points in series
/// order. With the run cache on, the series fan out over every core
/// ([`xk_sim::run_replicas`]); `run_all --serial` (cache off) runs them one
/// after another on the calling thread. Every run is deterministic, so the
/// points are the same either way.
fn sweep_all(series: &[Series], dims: &[usize]) -> Vec<Vec<SeriesPoint>> {
    let cache = cache();
    let threads = if cache.is_some() { 0 } else { 1 };
    xk_sim::run_replicas(series.len(), threads, |i| match series[i] {
        Series::BestTile(lib, topo, routine, dod) => {
            sweep_series(lib, topo, routine, dims, dod, cache)
        }
        Series::PaperTileDod(topo, routine) => dims
            .iter()
            .map(|&n| {
                let tile = n.div_ceil(2 * topo.n_gpus()).max(256);
                let params = RunParams {
                    routine,
                    n,
                    tile,
                    data_on_device: true,
                };
                let xkblas = Library::XkBlas(XkVariant::Full);
                let r = run_point(xkblas, topo, &params, cache, f64::INFINITY)
                    .expect("xkblas dod runs");
                SeriesPoint {
                    n,
                    tile,
                    tflops: Some(r.tflops),
                    result: Some(r),
                }
            })
            .collect(),
    })
}

/// An empty table whose columns are `first` and then one per dimension.
fn grid_table(first: &str, dims: &[usize]) -> Table {
    let mut header = vec![first.to_string()];
    header.extend(dims.iter().map(|n| n.to_string()));
    Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>())
}

/// Appends the row `name` with one TFlop/s cell per point.
fn series_row(t: &mut Table, name: &str, pts: &[SeriesPoint]) {
    let mut row = vec![name.to_string()];
    row.extend(pts.iter().map(|p| fmt_tflops(p.tflops)));
    t.row(row);
}

/// Libraries of the heuristics ablation (Fig. 3 and the fabric gallery).
const ABLATION_LIBS: [Library; 4] = [
    Library::CublasXt,
    Library::XkBlas(XkVariant::Full),
    Library::XkBlas(XkVariant::NoHeuristic),
    Library::XkBlas(XkVariant::NoHeuristicNoTopo),
];

/// Routines of Fig. 3, Fig. 4 and Table II.
const FIG3_ROUTINES: [Routine; 3] = [Routine::Gemm, Routine::Syr2k, Routine::Trsm];

/// Table I + Fig. 1: platform description and NVLink adjacency.
pub fn table1_platform() -> String {
    let topo = dgx1();
    let mut out = String::from("Table I — DGX-1 multi-GPU system (modelled)\n");
    for (k, v) in DGX1_TABLE1 {
        let _ = writeln!(out, "  {k:<22} {v}");
    }
    out.push_str("\nFig. 1 — hybrid cube-mesh NVLink adjacency (x2 = two bricks):\n");
    for (a, b, class) in topo.nvlink_edges() {
        let _ = writeln!(out, "  gpu{a} <-> gpu{b}  {}", class.label());
    }
    let _ = writeln!(
        out,
        "  PCIe switches: {} (two GPUs each), 2 sockets",
        topo.n_switches()
    );
    out
}

/// Fig. 2: GPU↔GPU bandwidth matrix in GB/s from simulated point-to-point
/// transfers, next to the paper's measured values.
pub fn fig2_bandwidth(topo: &FabricSpec) -> Table {
    let measured = SimSession::on(topo).bandwidth_matrix(64 << 20);
    let n = topo.n_gpus();
    let mut header = vec!["D\\D".to_string()];
    header.extend((0..n).map(|j| j.to_string()));
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for (i, row) in measured.iter().enumerate() {
        let mut cells = vec![i.to_string()];
        cells.extend(row.iter().map(|v| format!("{v:.2}")));
        t.row(cells);
    }
    t
}

/// Fig. 3: GEMM/SYR2K/TRSM data-on-host with the heuristics ablated, plus
/// cuBLAS-XT as the reference. Returns one table per routine.
pub fn fig3_heuristics(topo: &FabricSpec, dims: &[usize]) -> Vec<(Routine, Table)> {
    let series: Vec<Series> = FIG3_ROUTINES
        .iter()
        .flat_map(|&routine| ABLATION_LIBS.map(|lib| Series::BestTile(lib, topo, routine, false)))
        .collect();
    let points = sweep_all(&series, dims);
    FIG3_ROUTINES
        .into_iter()
        .zip(points.chunks(ABLATION_LIBS.len()))
        .map(|(routine, rows)| {
            let mut t = grid_table("library", dims);
            for (lib, pts) in ABLATION_LIBS.iter().zip(rows) {
                series_row(&mut t, lib.name(), pts);
            }
            (routine, t)
        })
        .collect()
}

/// Fabric gallery panel: the Fig. 3-style heuristics ablation (plus the
/// Fig. 4-style data-on-device series) for GEMM on every fabric in
/// [`xk_topo::fabrics::gallery`]. One table per fabric — the place where
/// the heuristics' relative value visibly depends on the machine: on the
/// DGX-1 the topology-aware rank spread matters, on an NVSwitch or
/// PCIe-only box every peer ranks the same and only the optimistic
/// forwarding (or nothing) is left to win.
pub fn fabric_gallery_gemm(dims: &[usize]) -> Vec<(String, Table)> {
    let gallery = xk_topo::fabrics::gallery();
    let full = Library::XkBlas(XkVariant::Full);
    let series: Vec<Series> = gallery
        .iter()
        .flat_map(|topo| {
            let doh = ABLATION_LIBS.map(|lib| Series::BestTile(lib, topo, Routine::Gemm, false));
            doh.into_iter().chain([Series::BestTile(full, topo, Routine::Gemm, true)])
        })
        .collect();
    let points = sweep_all(&series, dims);
    gallery
        .iter()
        .zip(points.chunks(ABLATION_LIBS.len() + 1))
        .map(|(topo, rows)| {
            let mut t = grid_table("series", dims);
            for (lib, pts) in ABLATION_LIBS.iter().zip(rows) {
                series_row(&mut t, lib.name(), pts);
            }
            series_row(&mut t, "XKBlas DoD", &rows[ABLATION_LIBS.len()]);
            (
                format!("{} ({} GPUs, {} node(s))", topo.name(), topo.n_gpus(), topo.n_nodes()),
                t,
            )
        })
        .collect()
}

/// Table II: maximum loss/gain vs baseline XKBlas for N ≥ 16384.
pub fn table2_gains(topo: &FabricSpec, dims: &[usize]) -> Table {
    let big: Vec<usize> = dims.iter().copied().filter(|&n| n >= 16384).collect();
    let full = Library::XkBlas(XkVariant::Full);
    let series: Vec<Series> = FIG3_ROUTINES
        .iter()
        .flat_map(|&routine| {
            [
                Series::BestTile(full, topo, routine, false),
                Series::BestTile(full, topo, routine, true),
                Series::BestTile(Library::XkBlas(XkVariant::NoHeuristic), topo, routine, false),
                Series::BestTile(Library::XkBlas(XkVariant::NoHeuristicNoTopo), topo, routine, false),
            ]
        })
        .collect();
    let points = sweep_all(&series, &big);
    let mut t = Table::new(&["Kernel", "data-on-device", "no heuristic", "no heuristic, no topo"]);
    for (routine, rows) in FIG3_ROUTINES.into_iter().zip(points.chunks(4)) {
        let [base, dod, noh, notopo] = rows else {
            unreachable!("four series per routine")
        };
        let mut max_dod: f64 = f64::NEG_INFINITY;
        let mut max_noh: f64 = f64::INFINITY;
        let mut max_notopo: f64 = f64::INFINITY;
        for k in 0..big.len() {
            let base = base[k].tflops.expect("xkblas always runs");
            let dod = dod[k].tflops.expect("dod runs");
            let noh = noh[k].tflops.expect("variant runs");
            let notopo = notopo[k].tflops.expect("variant runs");
            max_dod = max_dod.max((dod / base - 1.0) * 100.0);
            max_noh = max_noh.min((noh / base - 1.0) * 100.0);
            max_notopo = max_notopo.min((notopo / base - 1.0) * 100.0);
        }
        t.row(vec![
            format!("D{}", routine.name()),
            format!("{max_dod:+.1}%"),
            format!("{max_noh:+.1}%"),
            format!("{max_notopo:+.1}%"),
        ]);
    }
    t
}

/// Fig. 4: data-on-device (paper: tile = ceil(N / (2·#gpus)), (4,2) grid)
/// vs the data-on-host references.
pub fn fig4_data_on_device(topo: &FabricSpec, dims: &[usize]) -> Vec<(Routine, Table)> {
    let refs = [
        Library::XkBlas(XkVariant::Full),
        Library::ChameleonTile,
        Library::CublasXt,
    ];
    let series: Vec<Series> = FIG3_ROUTINES
        .iter()
        .flat_map(|&routine| {
            let doh = refs.map(|lib| Series::BestTile(lib, topo, routine, false));
            [Series::PaperTileDod(topo, routine)].into_iter().chain(doh)
        })
        .collect();
    let points = sweep_all(&series, dims);
    FIG3_ROUTINES
        .into_iter()
        .zip(points.chunks(refs.len() + 1))
        .map(|(routine, rows)| {
            let mut t = grid_table("series", dims);
            series_row(&mut t, "XKBlas DoD", &rows[0]);
            for (lib, pts) in refs.iter().zip(&rows[1..]) {
                series_row(&mut t, lib.name(), pts);
            }
            (routine, t)
        })
        .collect()
}

/// Fig. 5: all six routines across the eight libraries.
pub fn fig5_libraries(topo: &FabricSpec, dims: &[usize]) -> Vec<(Routine, Table)> {
    let series: Vec<Series> = Routine::ALL
        .iter()
        .flat_map(|&routine| {
            Library::FIG5
                .into_iter()
                .filter(move |lib| lib.supports(routine))
                .map(move |lib| Series::BestTile(lib, topo, routine, false))
        })
        .collect();
    let mut points = sweep_all(&series, dims).into_iter();
    Routine::ALL
        .into_iter()
        .map(|routine| {
            let mut t = grid_table("library", dims);
            for lib in Library::FIG5.into_iter().filter(|lib| lib.supports(routine)) {
                let pts = points.next().expect("one series per supported pair");
                series_row(&mut t, lib.name(), &pts);
            }
            (routine, t)
        })
        .collect()
}

/// Asserts the critical-path invariant on one finished run and hands back
/// its observability report: the chain reconstructed from the span DAG
/// must end exactly (bit-for-bit) at the makespan.
fn checked_obs(lib: Library, r: &xk_baselines::RunResult) -> Option<&ObsReport> {
    let obs = r.obs.as_ref()?;
    let cp = &obs.critical_path;
    assert_eq!(
        cp.length.to_bits(),
        obs.makespan.to_bits(),
        "{}: critical path {} != makespan {}",
        lib.name(),
        cp.length,
        obs.makespan
    );
    Some(obs)
}

/// Renders one run's observability summary: the top-3 hot links and the
/// critical-path composition.
pub(crate) fn obs_summary(obs: &ObsReport) -> String {
    let mut out = String::new();
    for l in obs.hot_links(3) {
        let _ = writeln!(
            out,
            "  hot link {:<16} busy {:.3}s  util {:>5.1}%  contention wait {:.3}s  {:.2} GiB",
            l.name,
            l.busy,
            l.utilization * 100.0,
            l.wait,
            l.bytes as f64 / (1u64 << 30) as f64
        );
    }
    let cp = &obs.critical_path;
    let _ = write!(out, "  critical path {:.3}s over {} spans:", cp.length, cp.total_segments);
    for kind in SpanKind::ALL {
        let secs = cp.kind_seconds(kind);
        if secs > 0.0 {
            let _ = write!(out, " {} {:.3}s", kind.label(), secs);
        }
    }
    let _ = writeln!(out, ", runtime {:.3}s", cp.runtime_gap);
    out
}

/// One-line LP optimality digest of an XKBlas-variant run: the makespan
/// lower bound's composition (critical path / link LP / compute, see
/// `xk_runtime::bound`) and the run's relative gap against it.
fn gap_line(topo: &FabricSpec, routine: Routine, n: usize, tile: usize, v: XkVariant) -> String {
    let cfg = v.runtime_config();
    let params = RunParams {
        routine,
        n,
        tile,
        data_on_device: false,
    };
    let g = xk_baselines::build_run_graph(topo, &params, &cfg, false);
    let run = SimSession::on(topo).config(cfg).run_bounded(&g);
    let b = run.lower_bound().expect("bounded run carries its bound");
    format!(
        "  LP lower bound {:.3}s (critical path {:.3}s, link LP {:.3}s, compute {:.3}s) — optimality gap {:.1}%\n",
        b.total,
        b.critical_path,
        b.link_lp,
        b.compute,
        run.optimality_gap().unwrap_or(0.0) * 100.0,
    )
}

/// Libraries of the trace figures (Fig. 6 uses six; we show the modelled
/// ones that run GEMM).
const FIG6_LIBS: [Library; 6] = [
    Library::Blasx,
    Library::ChameleonTile,
    Library::CublasMg,
    Library::CublasXt,
    Library::Dplasma,
    Library::XkBlas(XkVariant::Full),
];

/// Fig. 6: cumulative GPU seconds and normalized ratio per operation kind
/// for GEMM at the given dimension (paper: 32768).
pub fn fig6_trace_gemm(topo: &FabricSpec, n: usize) -> Table {
    let mut t = Table::new(&[
        "library", "DtoH s", "HtoD s", "PtoP s", "Kernel s", "DtoH %", "HtoD %", "PtoP %",
        "Kernel %", "xfer %",
    ]);
    for lib in FIG6_LIBS {
        let Ok((_, r)) = best(lib, topo, Routine::Gemm, n, false) else {
            continue;
        };
        let _ = checked_obs(lib, &r);
        let b = r.trace.breakdown();
        let total = b.total().max(1e-12);
        t.row(vec![
            lib.name().to_string(),
            format!("{:.3}", b.get(SpanKind::D2H)),
            format!("{:.3}", b.get(SpanKind::H2D)),
            format!("{:.3}", b.get(SpanKind::P2P)),
            format!("{:.3}", b.get(SpanKind::Kernel)),
            format!("{:.1}", b.get(SpanKind::D2H) / total * 100.0),
            format!("{:.1}", b.get(SpanKind::H2D) / total * 100.0),
            format!("{:.1}", b.get(SpanKind::P2P) / total * 100.0),
            format!("{:.1}", b.get(SpanKind::Kernel) / total * 100.0),
            format!("{:.1}", b.transfer_ratio() * 100.0),
        ]);
    }
    t
}

/// Fig. 6 companion: the per-library observability summary (hot links +
/// critical-path composition) of the same GEMM runs, with the CP invariant
/// asserted on every configuration.
pub fn fig6_obs(topo: &FabricSpec, n: usize) -> Vec<(Library, String)> {
    FIG6_LIBS
        .iter()
        .filter_map(|&lib| {
            let (tile, r) = best(lib, topo, Routine::Gemm, n, false).ok()?;
            let obs = checked_obs(lib, &r)?;
            let mut summary = obs_summary(obs);
            if let Library::XkBlas(v) = lib {
                summary.push_str(&gap_line(topo, Routine::Gemm, n, tile, v));
            }
            Some((lib, summary))
        })
        .collect()
}

/// Fig. 7 companion: observability summaries of the SYR2K runs.
pub fn fig7_obs(topo: &FabricSpec, n: usize) -> Vec<(Library, String)> {
    [Library::ChameleonTile, Library::CublasXt, Library::XkBlas(XkVariant::Full)]
        .into_iter()
        .filter_map(|lib| {
            let (tile, r) = best(lib, topo, Routine::Syr2k, n, false).ok()?;
            let obs = checked_obs(lib, &r)?;
            let mut summary = obs_summary(obs);
            if let Library::XkBlas(v) = lib {
                summary.push_str(&gap_line(topo, Routine::Syr2k, n, tile, v));
            }
            Some((lib, summary))
        })
        .collect()
}

/// Fig. 7: per-GPU time breakdown of SYR2K at the given dimension
/// (paper: 49152) for Chameleon Tile, cuBLAS-XT and XKBlas.
pub fn fig7_trace_syr2k(topo: &FabricSpec, n: usize) -> Vec<(Library, Table, f64)> {
    [Library::ChameleonTile, Library::CublasXt, Library::XkBlas(XkVariant::Full)]
        .into_iter()
        .filter_map(|lib| {
            let (_, r) = best(lib, topo, Routine::Syr2k, n, false).ok()?;
            let _ = checked_obs(lib, &r);
            let mut t = Table::new(&["gpu", "DtoH s", "HtoD s", "PtoP s", "Kernel s"]);
            let per = r.trace.breakdown_per_device();
            for g in 0..topo.n_gpus() {
                let b = per.get(&xk_trace::Place::Gpu(g as u32)).cloned().unwrap_or_default();
                t.row(vec![
                    format!("{}", g + 1),
                    format!("{:.3}", b.get(SpanKind::D2H)),
                    format!("{:.3}", b.get(SpanKind::H2D)),
                    format!("{:.3}", b.get(SpanKind::P2P)),
                    format!("{:.3}", b.get(SpanKind::Kernel)),
                ]);
            }
            let imb = xk_sim::imbalance(&r.trace.kernel_load_per_gpu(topo.n_gpus()));
            Some((lib, t, imb))
        })
        .collect()
}

/// Fig. 8: the TRSM+GEMM composition sweep.
pub fn fig8_composition(topo: &FabricSpec, dims: &[usize], tile: usize) -> Table {
    let mut header = vec!["series".to_string()];
    header.extend(dims.iter().map(|n| n.to_string()));
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    let mut xk = vec!["XKBlas".to_string()];
    let mut ch = vec!["Chameleon Tiled".to_string()];
    for &n in dims {
        xk.push(format!("{:.2}", run_xkblas_composition(topo, n, tile).tflops));
        ch.push(format!("{:.2}", run_chameleon_composition(topo, n, tile).tflops));
    }
    t.row(xk);
    t.row(ch);
    t
}

/// Fig. 9: Gantt charts of one composition run per library.
pub fn fig9_gantt(topo: &FabricSpec, n: usize, tile: usize, width: usize) -> String {
    let opts = xk_trace::GanttOptions {
        width,
        per_lane: false,
    };
    let x = run_xkblas_composition(topo, n, tile);
    let c = run_chameleon_composition(topo, n, tile);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "XKBlas composition (N={n}, block {tile}): {:.3}s, longest global gap {:.1} ms",
        x.seconds,
        x.sync_gap * 1e3
    );
    out.push_str(&xk_trace::gantt::render(&x.trace, topo.n_gpus(), &opts));
    for obs in &x.obs {
        out.push_str(&obs_summary(obs));
    }
    let _ = writeln!(
        out,
        "\nChameleon Tile composition: {:.3}s, longest global gap {:.1} ms",
        c.seconds,
        c.sync_gap * 1e3
    );
    out.push_str(&xk_trace::gantt::render(&c.trace, topo.n_gpus(), &opts));
    for obs in &c.obs {
        out.push_str(&obs_summary(obs));
    }
    out
}

/// Exports the Fig. 9 composition traces as Chrome `trace_event` JSON under
/// `results/` (open in `ui.perfetto.dev` or `chrome://tracing`); returns
/// the written paths.
pub fn fig9_export_traces(
    topo: &FabricSpec,
    n: usize,
    tile: usize,
) -> Result<Vec<std::path::PathBuf>, xk_runtime::Error> {
    let x = run_xkblas_composition(topo, n, tile);
    let c = run_chameleon_composition(topo, n, tile);
    Ok(vec![
        write_result(
            "fig9_xkblas_composition.trace.json",
            &xk_trace::export::chrome_json(&x.trace),
        )?,
        write_result(
            "fig9_chameleon_composition.trace.json",
            &xk_trace::export::chrome_json(&c.trace),
        )?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mentions_v100_and_links() {
        let s = table1_platform();
        assert!(s.contains("V100"));
        assert!(s.contains("gpu0 <-> gpu3"));
    }

    #[test]
    fn fig2_matrix_shape() {
        let t = fig2_bandwidth(&dgx1());
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn fig6_includes_xkblas_row() {
        let t = fig6_trace_gemm(&dgx1(), 8192);
        assert!(t.render().contains("XKBlas"));
    }
}
