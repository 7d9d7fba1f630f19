//! With the run cache on, the figure sweeps fan their series out over
//! every core; with it off (`run_all --serial`) they run one after another
//! on the calling thread. Every CSV must be the same either way.
//!
//! This file holds one test on purpose: it flips the process-global cache,
//! so it must not share a process with tests that read it.

use xk_bench::{figs, runcache};
use xk_topo::dgx1;

const DIMS: [usize; 2] = [4096, 8192];

/// Every fanned-out table as `(name, CSV)`, in `run_all` order.
fn tables() -> Vec<(String, String)> {
    let topo = dgx1();
    let mut out = Vec::new();
    for (routine, t) in figs::fig3_heuristics(&topo, &DIMS) {
        out.push((format!("fig3 {routine:?}"), t.to_csv()));
    }
    // Table II reads N >= 16384 only: one such point gives it rows to fill.
    out.push(("table2".into(), figs::table2_gains(&topo, &[4096, 8192, 16384]).to_csv()));
    for (routine, t) in figs::fig4_data_on_device(&topo, &DIMS) {
        out.push((format!("fig4 {routine:?}"), t.to_csv()));
    }
    for (routine, t) in figs::fig5_libraries(&topo, &DIMS) {
        out.push((format!("fig5 {routine:?}"), t.to_csv()));
    }
    for (name, t) in figs::fabric_gallery_gemm(&DIMS) {
        out.push((name, t.to_csv()));
    }
    out
}

#[test]
fn fanned_out_figures_equal_the_serial_reference() {
    runcache::set_global_enabled(false);
    let serial = tables();
    runcache::set_global_enabled(true);
    runcache::global().clear();
    let fanned = tables();
    assert!(runcache::global().stats().misses > 0, "the cached pass simulated");
    assert_eq!(serial.len(), fanned.len());
    for ((name, s), (_, f)) in serial.iter().zip(&fanned) {
        assert_eq!(s, f, "{name}");
    }
    assert!(!serial.iter().any(|(_, csv)| csv.contains("inf")), "Table II has no empty row");
}
