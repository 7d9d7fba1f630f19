//! A makespan budget decides only whether a run finishes, never what a
//! finished run reports: with its own makespan as the budget, every
//! runtime-simulated library configuration completes bit-identical to the
//! unbudgeted run, and a budget just under that makespan comes back over
//! budget. Debug builds also check, on every run here, that no kernel is
//! reserved to start before the event that reserves it — the fact the
//! progress bound rests on.

use xk_baselines::{run, run_within, Library, RunError, RunParams, XkVariant};
use xk_kernels::Routine;
use xk_topo::fabrics;

/// The libraries whose `seconds` are the simulated makespan itself: the
/// three XKBlas variants, Chameleon (dmdas) and DPLASMA (static owners).
const SIMULATED: [Library; 5] = [
    Library::XkBlas(XkVariant::Full),
    Library::XkBlas(XkVariant::NoHeuristic),
    Library::XkBlas(XkVariant::NoHeuristicNoTopo),
    Library::ChameleonTile,
    Library::Dplasma,
];

/// Strips the process-global matrix ids (`M<id>`) that two builds of one
/// graph label differently.
fn normalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c == 'M' {
            while chars.next_if(char::is_ascii_digit).is_some() {}
        }
    }
    out
}

#[test]
fn a_budget_decides_only_whether_a_run_finishes() {
    // On one GPU a data-on-device run is nearly all kernel time, so there
    // the progress bound starts within a few percent of the makespan: an
    // overstated bound stops that run.
    for topo in fabrics::gallery().into_iter().chain([fabrics::pcie_box(1)]) {
        for lib in SIMULATED {
            for routine in Routine::ALL.into_iter().filter(|&r| lib.supports(r)) {
                for (n, tile) in [(4096, 1024), (8192, 2048)] {
                    for data_on_device in [false, true] {
                        let params = RunParams { routine, n, tile, data_on_device };
                        let what =
                            format!("{} {lib:?} {routine:?} n={n} dod={data_on_device}", topo.name());
                        let full = run(lib, &topo, &params).unwrap();
                        let within = run_within(lib, &topo, &params, full.seconds)
                            .unwrap_or_else(|e| panic!("{what}: own makespan refused: {e}"));
                        assert_eq!(within.seconds.to_bits(), full.seconds.to_bits(), "{what}");
                        assert_eq!(
                            (within.bytes_h2d, within.bytes_d2h, within.bytes_p2p),
                            (full.bytes_h2d, full.bytes_d2h, full.bytes_p2p),
                            "{what}"
                        );
                        assert_eq!(within.trace.spans(), full.trace.spans(), "{what}");
                        assert_eq!(
                            normalize(&format!("{:?}", within.obs)),
                            normalize(&format!("{:?}", full.obs)),
                            "{what}"
                        );
                        let short = full.seconds * (1.0 - 1e-6);
                        assert_eq!(
                            run_within(lib, &topo, &params, short).err(),
                            Some(RunError::OverBudget),
                            "{what}"
                        );
                    }
                }
            }
        }
    }
}

/// Chameleon LAPACK (layout conversions) and cuBLAS-MG (staging) add fixed
/// seconds around their simulation, and simulate within what the budget
/// leaves: the verdict still turns on the run's whole `seconds`, and a
/// budget those seconds alone exceed is refused.
#[test]
fn a_budget_covers_the_seconds_a_model_adds_around_its_simulation() {
    for topo in fabrics::gallery() {
        for lib in [Library::ChameleonLapack, Library::CublasMg] {
            for routine in Routine::ALL.into_iter().filter(|&r| lib.supports(r)) {
                for data_on_device in [false, true] {
                    let params = RunParams { routine, n: 8192, tile: 2048, data_on_device };
                    let what = format!("{} {lib:?} {routine:?} dod={data_on_device}", topo.name());
                    let full = run(lib, &topo, &params).unwrap();
                    for budget in [full.seconds, full.seconds * (1.0 + 1e-6)] {
                        let within = run_within(lib, &topo, &params, budget)
                            .unwrap_or_else(|e| panic!("{what}: budget {budget} refused: {e}"));
                        assert_eq!(within.seconds.to_bits(), full.seconds.to_bits(), "{what}");
                        assert_eq!(within.tflops.to_bits(), full.tflops.to_bits(), "{what}");
                        assert_eq!(
                            (within.bytes_h2d, within.bytes_d2h, within.bytes_p2p),
                            (full.bytes_h2d, full.bytes_d2h, full.bytes_p2p),
                            "{what}"
                        );
                        assert_eq!(within.trace.spans(), full.trace.spans(), "{what}");
                    }
                    for budget in [full.seconds * (1.0 - 1e-6), full.seconds * 1e-3] {
                        assert_eq!(
                            run_within(lib, &topo, &params, budget).err(),
                            Some(RunError::OverBudget),
                            "{what}: budget {budget}"
                        );
                    }
                }
            }
        }
    }
}
