//! Observability through the bench harness: the critical-path invariant
//! on every library the paper's figures compare, and the obs summaries the
//! figure binaries print.

use xk_baselines::{Library, XkVariant};
use xk_bench::{best_tile_run, figs};
use xk_kernels::Routine;
use xk_topo::dgx1;

const N: usize = 8192;

/// Runtime-backed libraries carry a full report whose critical path equals
/// the makespan bit-for-bit; fabric-backed models (cuBLAS-XT, SLATE) carry
/// none.
#[test]
fn run_results_carry_obs_with_cp_invariant() {
    let topo = dgx1();
    for lib in [
        Library::XkBlas(XkVariant::Full),
        Library::XkBlas(XkVariant::NoHeuristic),
        Library::ChameleonTile,
    ] {
        let (_, r) = best_tile_run(lib, &topo, Routine::Gemm, N, false)
            .unwrap_or_else(|e| panic!("{lib:?} failed: {e}"));
        let obs = r.obs.as_ref().unwrap_or_else(|| panic!("{lib:?}: no obs report"));
        let cp = &obs.critical_path;
        assert_eq!(
            cp.length.to_bits(),
            obs.makespan.to_bits(),
            "{lib:?}: critical path {} != makespan {}",
            cp.length,
            obs.makespan
        );
        assert!(!obs.links.is_empty());
        assert!(!obs.hot_links(3).is_empty(), "{lib:?}: no interconnect traffic?");
    }
    for lib in [Library::CublasXt, Library::Slate] {
        let (_, r) = best_tile_run(lib, &topo, Routine::Gemm, N, false)
            .unwrap_or_else(|e| panic!("{lib:?} failed: {e}"));
        assert!(r.obs.is_none(), "{lib:?} is fabric-modelled, expected no obs");
    }
}

/// The fig6/fig7 companions assert the invariant internally on every
/// configuration and render a non-empty summary per observable library.
#[test]
fn fig_obs_summaries_render() {
    let topo = dgx1();
    let gemm = figs::fig6_obs(&topo, N);
    assert!(gemm.len() >= 3, "only {} observable GEMM libraries", gemm.len());
    for (lib, summary) in &gemm {
        assert!(summary.contains("critical path"), "{lib:?}:\n{summary}");
        assert!(summary.contains("util"), "{lib:?}:\n{summary}");
    }
    let syr2k = figs::fig7_obs(&topo, N);
    assert!(!syr2k.is_empty());
    for (_, summary) in &syr2k {
        assert!(summary.contains("critical path"));
    }
}

/// SYR2K on the runtime path also satisfies the invariant (different task
/// graph shape: rank-2k updates with symmetric outputs).
#[test]
fn syr2k_cp_invariant() {
    let topo = dgx1();
    let (_, r) = best_tile_run(Library::XkBlas(XkVariant::Full), &topo, Routine::Syr2k, N, false)
        .expect("syr2k runs");
    let obs = r.obs.as_ref().expect("obs report");
    let cp = &obs.critical_path;
    assert_eq!(cp.length.to_bits(), obs.makespan.to_bits());
    let covered: f64 = cp.by_kind.values().sum::<f64>() + cp.runtime_gap;
    assert!((covered - obs.makespan).abs() <= 1e-9 * obs.makespan.max(1.0));
}
