//! `Library::tflops_ceiling` is what lets the best-tile search skip a
//! candidate without running it, so it must never be tighter than what a
//! run can reach: checked against the compute term of the oracle-checked
//! makespan bound on the graphs themselves, and against real runs.

use xk_baselines::{build_run_graph, run, Library, RunParams, XkVariant};
use xk_kernels::Routine;
use xk_runtime::makespan_lower_bound;
use xk_topo::{dgx1, fabrics};

/// Every library simulated on the shared runtime.
const RUNTIME_BACKED: [Library; 8] = [
    Library::XkBlas(XkVariant::Full),
    Library::XkBlas(XkVariant::NoHeuristic),
    Library::XkBlas(XkVariant::NoHeuristicNoTopo),
    Library::ChameleonTile,
    Library::ChameleonLapack,
    Library::CublasMg,
    Library::Dplasma,
    Library::Blasx,
];

#[test]
fn ceiling_is_never_tighter_than_the_compute_bound() {
    let topo = dgx1();
    // Tiles that divide n and tiles that leave a ragged edge.
    let shapes = [(4096, 1024), (5000, 1024), (8192, 2048), (12288, 4096), (12345, 2048)];
    for routine in Routine::ALL {
        for (n, tile) in shapes {
            let ceiling = Library::XkBlas(XkVariant::Full).tflops_ceiling(&topo, tile).unwrap();
            for data_on_device in [false, true] {
                let params = RunParams { routine, n, tile, data_on_device };
                let cfg = XkVariant::Full.runtime_config();
                let graph = build_run_graph(&topo, &params, &cfg, false);
                let compute = makespan_lower_bound(&graph, &topo, &cfg).compute;
                let reachable = routine.flops_square(n as u64) / (compute * 1e12);
                assert!(
                    reachable <= ceiling,
                    "{routine:?} n={n} tile={tile} dod={data_on_device}: {reachable} > {ceiling}"
                );
            }
        }
    }
}

#[test]
fn no_run_exceeds_its_ceiling() {
    for topo in fabrics::gallery() {
        for lib in RUNTIME_BACKED {
            for routine in Routine::ALL.into_iter().filter(|&r| lib.supports(r)) {
                for n in [4096, 8192] {
                    for &tile in lib.tile_candidates() {
                        let params = RunParams { routine, n, tile, data_on_device: false };
                        let ceiling = lib.tflops_ceiling(&topo, tile).unwrap();
                        let r = run(lib, &topo, &params).unwrap();
                        assert!(
                            r.tflops <= ceiling,
                            "{} {lib:?} {routine:?} n={n} tile={tile}: {} > {ceiling}",
                            topo.name(),
                            r.tflops
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn self_scheduled_drivers_have_no_ceiling() {
    let topo = dgx1();
    for lib in [Library::CublasXt, Library::Slate] {
        for &tile in lib.tile_candidates() {
            assert_eq!(lib.tflops_ceiling(&topo, tile), None, "{lib:?}");
        }
    }
    for lib in RUNTIME_BACKED {
        assert!(lib.tflops_ceiling(&topo, 1024).is_some(), "{lib:?}");
    }
}
