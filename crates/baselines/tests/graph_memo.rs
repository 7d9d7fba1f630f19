//! The shared-runtime libraries simulate each thread's memoized graph of a
//! call: whatever family the thread ran before, a `run`/`run_within` result
//! is the one a freshly built graph gives.

use xk_baselines::{
    build_run_graph, run, run_within, Library, RunError, RunParams, RunResult, XkVariant,
};
use xk_kernels::Routine;
use xk_runtime::SimSession;
use xk_topo::{dgx1, fabrics, FabricSpec};

/// Every library simulated on the shared runtime. A memo family is one
/// `(fabric, routine, n)`; within it, neighbours of the same layout share a
/// graph and the others need their own, so the sequence hits the memo,
/// adds entries to a family (layouts here, methodologies in the loop
/// around it) and switches family.
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
/// the call's graph with [`build_run_graph`] afresh.
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
                        let sim = SimSession::on(topo).config(cfg).run(&graph).into_outcome();
                        let flops = routine.flops_square(*n as u64);
                        let simulated = RunResult {
                            seconds: sim.makespan,
                            tflops: sim.tflops(flops),
                            trace: sim.trace,
                            bytes_h2d: sim.bytes_h2d,
                            bytes_d2h: sim.bytes_d2h,
                            bytes_p2p: sim.bytes_p2p,
                            obs: sim.obs,
                        };
                        assert_same(&simulated, &fresh, &what);
                    }
                }
            }
        }
    }
    assert!(over_budget > 0, "no budget stopped a run");
}
