//! Smoke tests of the figure-reproduction harness at reduced sizes: every
//! reproduction function runs and produces sane, well-formed output.

use xk_bench::figs;
use xk_topo::dgx1;

const SMALL_DIMS: [usize; 2] = [4096, 8192];

#[test]
fn fig3_tables_complete() {
    let topo = dgx1();
    let tables = figs::fig3_heuristics(&topo, &SMALL_DIMS);
    assert_eq!(tables.len(), 3);
    for (routine, t) in tables {
        assert_eq!(t.len(), 4, "{routine:?}: 4 config rows");
        let csv = t.to_csv();
        assert!(csv.contains("XKBlas, no heuristic, no topo"));
        // No empty cells for these libraries at these sizes.
        assert!(!csv.contains(",-"), "unexpected missing point:\n{csv}");
    }
}

#[test]
fn table2_has_three_kernels() {
    let topo = dgx1();
    let t = figs::table2_gains(&topo, &[16384]);
    assert_eq!(t.len(), 3);
    let csv = t.to_csv();
    for k in ["DGEMM", "DSYR2K", "DTRSM"] {
        assert!(csv.contains(k));
    }
    // DoD column is a gain, ablation columns are losses.
    for line in csv.lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        assert!(cells[1].starts_with('+'), "DoD should gain: {line}");
        assert!(cells[2].starts_with('-'), "no-heuristic should lose: {line}");
        assert!(cells[3].starts_with('-'), "no-topo should lose: {line}");
    }
}

#[test]
fn fig4_dod_beats_doh_at_moderate_size() {
    let topo = dgx1();
    let tables = figs::fig4_data_on_device(&topo, &[8192]);
    for (routine, t) in tables {
        let csv = t.to_csv();
        let mut dod = None;
        let mut doh = None;
        for line in csv.lines().skip(1) {
            let mut cells = line.split(',');
            let name = cells.next().unwrap();
            let val: f64 = cells.next().unwrap().parse().unwrap_or(0.0);
            if name == "XKBlas DoD" {
                dod = Some(val);
            } else if name == "XKBlas" {
                doh = Some(val);
            }
        }
        let (dod, doh) = (dod.unwrap(), doh.unwrap());
        assert!(dod > doh, "{routine:?}: DoD {dod} <= DoH {doh}");
    }
}

#[test]
fn fig5_respects_library_support_matrix() {
    let topo = dgx1();
    let tables = figs::fig5_libraries(&topo, &SMALL_DIMS);
    assert_eq!(tables.len(), 6);
    for (routine, t) in tables {
        let csv = t.to_csv();
        let gemm_only_present = csv.contains("cuBLAS-MG");
        if routine == xk_kernels::Routine::Gemm {
            assert!(gemm_only_present);
            assert_eq!(t.len(), 8, "all eight libraries on GEMM");
        } else {
            assert!(!gemm_only_present, "{routine:?} must skip cuBLAS-MG");
        }
        assert!(csv.contains("XKBlas"));
    }
}

#[test]
fn fig6_ratios_sum_to_one() {
    let topo = dgx1();
    let t = figs::fig6_trace_gemm(&topo, 8192);
    for line in t.to_csv().lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        let pct: f64 = cells[5..9]
            .iter()
            .map(|c| c.parse::<f64>().unwrap())
            .sum();
        assert!((pct - 100.0).abs() < 0.5, "shares must sum to 100: {line}");
    }
}

#[test]
fn fig7_has_all_gpus_per_library() {
    let topo = dgx1();
    let out = figs::fig7_trace_syr2k(&topo, 8192);
    assert_eq!(out.len(), 3);
    for (_, t, imbalance) in out {
        assert_eq!(t.len(), 8, "one row per GPU");
        assert!(imbalance >= 0.0);
    }
}

#[test]
fn fig9_gantt_renders_both_libraries() {
    let topo = dgx1();
    let s = figs::fig9_gantt(&topo, 8192, 2048, 60);
    assert!(s.contains("XKBlas composition"));
    assert!(s.contains("Chameleon Tile composition"));
    assert!(s.contains("legend"));
    assert!(s.matches("gpu0").count() >= 2);
}

#[test]
fn bandwidth_matrix_is_symmetric_positive() {
    let topo = dgx1();
    let t = figs::fig2_bandwidth(&topo);
    let csv = t.to_csv();
    let rows: Vec<Vec<f64>> = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').skip(1).map(|c| c.parse().unwrap()).collect())
        .collect();
    assert_eq!(rows.len(), 8);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), 8);
        for (j, &v) in row.iter().enumerate() {
            assert!(v > 0.0);
            assert!((v - rows[j][i]).abs() < 1e-6);
        }
    }
}

#[test]
fn fabric_gallery_panels_complete() {
    let tables = figs::fabric_gallery_gemm(&[4096, 8192]);
    assert_eq!(tables.len(), 4, "one panel per gallery fabric");
    for (name, t) in tables {
        assert_eq!(t.len(), 5, "{name}: 4 library rows + DoD");
        let csv = t.to_csv();
        assert!(csv.contains("XKBlas DoD"), "{name}");
        assert!(!csv.contains(",-"), "{name}: unexpected missing point:\n{csv}");
    }
}

#[test]
fn heuristics_rank_differently_across_fabrics() {
    // The point of the fabric gallery: the paper's heuristics are
    // topology-sensitive. On the DGX-1's heterogeneous cube mesh the full
    // heuristic stack wins; on a 16-GPU NVSwitch machine every peer ranks
    // the same and (at this size) the optimistic forwarding chain loses to
    // plain earliest-arrival selection.
    use xk_baselines::{run, Library, RunParams, XkVariant};
    let params = RunParams {
        routine: xk_kernels::Routine::Gemm,
        n: 8192,
        tile: 2048,
        data_on_device: false,
    };
    let tflops = |topo: &xk_topo::FabricSpec, v: XkVariant| {
        run(Library::XkBlas(v), topo, &params).expect("runs").tflops
    };
    let d = dgx1();
    assert!(tflops(&d, XkVariant::Full) > tflops(&d, XkVariant::NoHeuristic));
    let nvswitch = xk_topo::fabrics::dgx2(16);
    assert!(
        tflops(&nvswitch, XkVariant::Full) < tflops(&nvswitch, XkVariant::NoHeuristic),
        "heuristic ranking should flip on the NVSwitch fabric"
    );
}

/// The figure driver must fail loudly when it cannot write a CSV: with
/// `results` occupied by a regular file, `run_all` exits non-zero at its
/// first CSV (Fig. 2, before any sweep) and names the path, instead of
/// exiting 0 with nothing written.
#[test]
fn unwritable_results_dir_is_a_nonzero_exit() {
    let cwd = std::env::temp_dir().join(format!("xk-bench-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("temp cwd");
    std::fs::write(cwd.join("results"), "not a directory").expect("occupy results");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_run_all"))
        .current_dir(&cwd)
        .output()
        .expect("run_all runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    std::fs::remove_dir_all(&cwd).expect("temp cwd removed");
    assert!(!out.status.success(), "exit status {:?}", out.status);
    assert!(stderr.contains("results"), "stderr names the path: {stderr}");
}

/// `--quick` is gone: `run_all` refuses it (and any other unknown argument)
/// before running anything, instead of silently running the full grid.
#[test]
fn unknown_argument_is_a_nonzero_exit() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg("--quick")
        .output()
        .expect("run_all runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--quick"), "stderr names the argument: {stderr}");
    assert!(out.stdout.is_empty(), "nothing printed before the check");
}
