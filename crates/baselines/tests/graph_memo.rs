//! The shared-runtime libraries simulate each thread's memoized graph of a
//! call: whatever family the thread ran before, a `run`/`run_within` result
//! is the one a freshly built graph and prep give.

use xk_baselines::{
    build_run_graph, run, run_prepped, run_within, Library, RunError, RunParams, RunResult,
    XkVariant,
};
use xk_kernels::Routine;
use xk_runtime::SimPrep;
use xk_topo::{dgx1, fabrics, FabricSpec};

/// Every library simulated on the shared runtime. Neighbours that share a
/// graph family (same methodology and layout) follow each other, so the
/// sequence both hits the memo and switches family.
const SHARED_RUNTIME: [Library; 8] = [
    Library::XkBlas(XkVariant::Full),
    Library::XkBlas(XkVariant::NoHeuristic),
    Library::XkBlas(XkVariant::NoHeuristicNoTopo),
    Library::Blasx,
    Library::ChameleonTile,
    Library::Dplasma,
    Library::ChameleonLapack,
    Library::CublasMg,
];

/// Asserts two results are the same run: time and throughput to the bit,
/// byte counters, and the spans (label ids, not label text).
fn assert_same(got: &RunResult, want: &RunResult, what: &str) {
    assert_eq!(got.seconds.to_bits(), want.seconds.to_bits(), "{what}");
    assert_eq!(got.tflops.to_bits(), want.tflops.to_bits(), "{what}");
    assert_eq!(
        (got.bytes_h2d, got.bytes_d2h, got.bytes_p2p),
        (want.bytes_h2d, want.bytes_d2h, want.bytes_p2p),
        "{what}"
    );
    assert_eq!(got.trace.len(), want.trace.len(), "{what}");
    assert_eq!(got.trace.spans(), want.trace.spans(), "{what}");
}

fn assert_same_outcome(
    got: &Result<RunResult, RunError>,
    want: &Result<RunResult, RunError>,
    what: &str,
) {
    match (got, want) {
        (Ok(got), Ok(want)) => assert_same(got, want, what),
        _ => assert_eq!(got.as_ref().err(), want.as_ref().err(), "{what}"),
    }
}

/// `run_within` on a thread of its own, whose memo starts empty: it builds
/// the call's graph with [`build_run_graph`] and its [`SimPrep`] afresh.
fn cold(
    lib: Library,
    topo: &FabricSpec,
    params: &RunParams,
    budget: f64,
) -> Result<RunResult, RunError> {
    std::thread::scope(|s| {
        s.spawn(|| run_within(lib, topo, params, budget))
            .join()
            .expect("a cold run does not panic")
    })
}

#[test]
fn interleaved_families_give_the_fresh_graphs_results() {
    let dual = fabrics::dual_node_ib(2);
    let family_a = (dgx1(), 3072, 1024);
    let family_b = (dual, 2048, 512);
    let mut over_budget = 0;
    for (topo, n, tile) in [&family_a, &family_b, &family_a] {
        for routine in [Routine::Gemm, Routine::Syrk] {
            for data_on_device in [false, true] {
                let params = RunParams { routine, n: *n, tile: *tile, data_on_device };
                for lib in SHARED_RUNTIME.into_iter().filter(|lib| lib.supports(routine)) {
                    let what = format!("{} {lib:?} {params:?}", topo.name());
                    let fresh = cold(lib, topo, &params, f64::INFINITY).expect("fresh run");
                    assert_same(&run(lib, topo, &params).unwrap(), &fresh, &what);
                    for budget in [fresh.seconds, fresh.seconds * 0.5] {
                        let within = run_within(lib, topo, &params, budget);
                        let want = cold(lib, topo, &params, budget);
                        assert_same_outcome(&within, &want, &format!("{what} budget {budget}"));
                        over_budget += usize::from(within.err() == Some(RunError::OverBudget));
                    }
                    if let Library::XkBlas(variant) = lib {
                        let cfg = variant.runtime_config();
                        let graph = build_run_graph(topo, &params, &cfg, false);
                        let prep = SimPrep::new(&graph);
                        let prepped = run_prepped(topo, &params, cfg, &graph, &prep);
                        assert_same(&prepped, &fresh, &what);
                    }
                }
            }
        }
    }
    assert!(over_budget > 0, "no budget stopped a run");
}
