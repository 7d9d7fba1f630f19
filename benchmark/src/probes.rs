//! The layer probes of a traced run: every per-layer metric, measured from
//! outside by timing calls into each layer's public functions, with a span
//! around each call.
//!
//! The probes are the same whichever workload the traced run is for (the
//! pipeline asks every traced run for every per-layer metric); what is
//! workload-specific in a traced run are the `harness.*` metrics and the
//! pass spans in its Chrome trace. Each probe is sized after the workload
//! whose `pass_s` it is meant to explain — `README.md` has the table.

use std::collections::BTreeMap;
use std::hint::black_box;

use xk_baselines::{build_run_graph, run, run_prepped, Library, RunParams, XkVariant};
use xk_bench::best_tile_run_with;
use xk_check::{explore_random_batch, RandomController};
use xk_kernels::Routine;
use xk_runtime::{ObsLevel, SimExecutor, SimPrep, SimSession};
use xk_sim::{EventQueue, SimTime};
use xk_topo::{Device, FabricSpec};

use crate::harness::{Checks, Workload};
use crate::rng::Rng;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{
    bound_gallery, check_matrix, des_large, numeric_blas3, paper_small, serve_zipf,
};

type Values = BTreeMap<String, f64>;

fn put(values: &mut Values, name: impl Into<String>, v: f64) {
    values.insert(name.into(), v);
}

/// Median seconds of `reps` timed calls of `f`, one span each.
fn median_secs<R>(
    tr: &Tracer,
    layer: &'static str,
    name: &str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (r, secs) = tr.timed(layer, name, &mut f);
            black_box(r);
            secs
        })
        .collect();
    median(&samples)
}

/// GEMM on the DGX-1 at the size of the `paper_small` trace figures and
/// the serve universe's smallest key: the many-small-runs regime.
const SMALL: RunParams = RunParams {
    routine: Routine::Gemm,
    n: 16384,
    tile: 2048,
    data_on_device: false,
};

/// GEMM at `des_large`'s dimension with the finest candidate tile: the
/// 110 592-task graph where that workload spends most of its pass.
const LARGE: RunParams = RunParams {
    routine: Routine::Gemm,
    n: des_large::N,
    tile: 1024,
    data_on_device: false,
};

/// The libraries of `baselines.run_ms.<slug>`: Fig. 5's eight and the two
/// ablations.
const LIBRARIES: [(&str, Library); 10] = [
    ("blasx", Library::Blasx),
    ("chameleon_lapack", Library::ChameleonLapack),
    ("chameleon_tile", Library::ChameleonTile),
    ("cublas_mg", Library::CublasMg),
    ("cublas_xt", Library::CublasXt),
    ("dplasma", Library::Dplasma),
    ("slate", Library::Slate),
    ("xkblas", Library::XkBlas(XkVariant::Full)),
    (
        "xkblas_no_heuristic",
        Library::XkBlas(XkVariant::NoHeuristic),
    ),
    (
        "xkblas_no_heuristic_no_topo",
        Library::XkBlas(XkVariant::NoHeuristicNoTopo),
    ),
];

/// `topo.*`: building the gallery, and routing between all device pairs.
fn topo_probe(tr: &Tracer, values: &mut Values) {
    tr.next_op();
    put(
        values,
        "topo.gallery_build_s",
        median_secs(tr, "topo", "gallery", 15, xk_topo::fabrics::gallery),
    );
    let gallery = xk_topo::fabrics::gallery();
    let devices = |t: &FabricSpec| -> Vec<Device> {
        std::iter::once(Device::Host)
            .chain((0..t.n_gpus()).map(Device::Gpu))
            .collect()
    };
    let pairs: usize = gallery.iter().map(|t| devices(t).len().pow(2)).sum();
    let secs = median_secs(tr, "topo", "route_all_pairs", 15, || {
        for t in &gallery {
            let devs = devices(t);
            for &a in &devs {
                for &b in &devs {
                    black_box(t.route(a, b));
                }
            }
        }
    });
    put(values, "topo.route_ns", secs * 1e9 / pairs as f64);
}

/// `core.*`, `runtime.prep/sim_*`, `trace.*`, `baselines.*` and
/// `bench.tile_search_s`: one simulated run taken apart stage by stage.
fn pipeline_probe(tr: &Tracer, values: &mut Values, checks: &mut Checks) {
    tr.next_op();
    let topo = xk_topo::dgx1();
    let cfg = XkVariant::Full.runtime_config();

    // The small run, stage by stage. A fresh graph per repeat: SimPrep
    // finalizes the successor CSR on first use.
    let reps = 7;
    let mut build = Vec::new();
    let mut prep_s = Vec::new();
    let mut sim_s = Vec::new();
    let mut shape = (0, 0);
    for _ in 0..reps {
        let (graph, t) = tr.timed("core", "graph_build", || {
            build_run_graph(&topo, &SMALL, &cfg, false)
        });
        build.push(t);
        let (prep, t) = tr.timed("runtime", "prep", || SimPrep::new(&graph));
        prep_s.push(t);
        let (r, t) = tr.timed("runtime", "sim_full small", || {
            run_prepped(&topo, &SMALL, cfg.clone(), &graph, &prep)
        });
        sim_s.push(t);
        black_box(r);
        shape = (graph.len(), graph.n_edges());
    }
    put(values, "core.graph_build_s", median(&build));
    put(values, "core.tasks_built", shape.0 as f64);
    put(values, "core.edges_built", shape.1 as f64);
    put(values, "runtime.prep_s", median(&prep_s));

    // The same run through each library's driver.
    for (slug, library) in LIBRARIES {
        let secs = median_secs(tr, "baselines", slug, 5, || run(library, &topo, &SMALL));
        put(values, format!("baselines.run_ms.{slug}"), secs * 1e3);
    }
    let staged = median(&build) + median(&prep_s) + median(&sim_s);
    put(
        values,
        "baselines.self_ms.xkblas",
        values["baselines.run_ms.xkblas"] - staged * 1e3,
    );
    put(
        values,
        "bench.tile_search_s",
        median_secs(tr, "bench", "best_tile_run", 3, || {
            best_tile_run_with(
                Library::XkBlas(XkVariant::Full),
                &topo,
                SMALL.routine,
                SMALL.n,
                false,
                None,
                false,
            )
        }),
    );

    // The large run: the event loop with and without observability.
    tr.next_op();
    let graph = tr.span("core", "graph_build large", || {
        build_run_graph(&topo, &LARGE, &cfg, false)
    });
    let prep = tr.span("runtime", "prep large", || SimPrep::new(&graph));
    let session = |level| SimSession::on(&topo).config(cfg.clone()).observe(level);
    let off = median_secs(tr, "runtime", "sim_off large", 2, || {
        session(ObsLevel::Off).run_prepped(&graph, &prep)
    });
    let mut last = None;
    let full = median_secs(tr, "runtime", "sim_full large", 2, || {
        last = Some(session(ObsLevel::Full).run_prepped(&graph, &prep));
    });
    let outcome = last.expect("the large run was simulated").into_outcome();
    checks.check(outcome.tasks_run == graph.len(), || {
        format!(
            "probe: the large GEMM ran {} of {} tasks",
            outcome.tasks_run,
            graph.len()
        )
    });
    put(values, "runtime.sim_off_s", off);
    put(values, "runtime.sim_full_s", full);
    put(values, "runtime.obs_overhead_ratio", full / off);
    put(
        values,
        "runtime.sim_tasks_per_s",
        outcome.tasks_run as f64 / off,
    );
    put(values, "runtime.tasks_run", outcome.tasks_run as f64);
    put(values, "runtime.steals", outcome.steals as f64);
    put(values, "runtime.bytes_h2d", outcome.bytes_h2d as f64);
    put(values, "runtime.bytes_p2p", outcome.bytes_p2p as f64);
    put(values, "runtime.bytes_d2h", outcome.bytes_d2h as f64);

    // Its trace: export and aggregation.
    let trace = &outcome.trace;
    let mut bytes = 0;
    let export = median_secs(tr, "trace", "chrome_json", 3, || {
        bytes = xk_trace::export::chrome_json(trace).len();
    });
    put(values, "trace.spans", trace.len() as f64);
    put(values, "trace.export_s", export);
    put(values, "trace.export_bytes", bytes as f64);
    put(
        values,
        "trace.breakdown_s",
        median_secs(tr, "trace", "breakdown", 3, || {
            (trace.breakdown(), trace.breakdown_per_device())
        }),
    );
}

/// `runtime.bound_s`, `runtime.attribution_s`, `lp.*`: the makespan lower
/// bound of `bound_gallery`'s GEMM on every gallery fabric, and the link
/// attribution on the DGX-1.
fn bound_probe(tr: &Tracer, seed: u64, values: &mut Values, checks: &mut Checks) {
    tr.next_op();
    let cfg = XkVariant::Full.runtime_config();
    let params = bound_gallery::params(Routine::Gemm);
    let scenarios: Vec<_> = xk_topo::fabrics::gallery()
        .into_iter()
        .map(|topo| {
            let graph = build_run_graph(&topo, &params, &cfg, false);
            (topo, graph)
        })
        .collect();
    let mut iterations = 0;
    let secs = median_secs(tr, "runtime", "lower_bound gallery", 3, || {
        iterations = scenarios
            .iter()
            .map(|(topo, graph)| {
                SimSession::on(topo)
                    .config(cfg.clone())
                    .lower_bound(graph)
                    .lp_iterations
            })
            .sum();
    });
    checks.check(iterations > 0, || {
        "probe: the gallery bounds solved no LP".to_string()
    });
    put(values, "runtime.bound_s", secs);
    put(values, "lp.iterations", iterations as f64);
    put(
        values,
        "lp.us_per_iteration",
        secs * 1e6 / iterations.max(1) as f64,
    );
    let (dgx1, graph) = &scenarios[0];
    put(
        values,
        "runtime.attribution_s",
        median_secs(tr, "runtime", "attribute_links dgx1", 3, || {
            SimSession::on(dgx1).config(cfg.clone()).attribute_links(
                graph,
                bound_gallery::ATTRIBUTION_SAMPLES,
                seed,
            )
        }),
    );
}

/// `sim.queue_hold_ns_per_event`: the classic hold model on the selected
/// event-queue backend — 10⁴ events pending, each step pops the earliest
/// and schedules a successor a random increment later.
fn queue_probe(tr: &Tracer, seed: u64, values: &mut Values) {
    const PENDING: usize = 10_000;
    const HOLDS: usize = 200_000;
    tr.next_op();
    let mut samples = Vec::new();
    for _ in 0..5 {
        let mut rng = Rng::new(seed);
        let mut queue: EventQueue<u32> = EventQueue::with_capacity(PENDING);
        for i in 0..PENDING {
            queue.push(SimTime::new(rng.next_f64()), i as u32);
        }
        let (_, hold) = tr.timed("sim", "queue_hold", || {
            for _ in 0..HOLDS {
                let (t, e) = queue.pop().expect("the hold model never drains");
                queue.push(SimTime::new(t.seconds() + rng.next_f64()), e);
            }
            black_box(queue.len())
        });
        samples.push(hold);
    }
    put(
        values,
        "sim.queue_hold_ns_per_event",
        median(&samples) * 1e9 / HOLDS as f64,
    );
}

/// `check.*` and `sim.replicas_speedup`: the most contended cell of the
/// `check_matrix` workload (both heuristics, 8 GPUs, tiles on the devices).
fn check_probe(tr: &Tracer, seed: u64, threads: usize, values: &mut Values, checks: &mut Checks) {
    tr.next_op();
    let cell = check_matrix::cells(seed)
        .into_iter()
        .find(|c| c.label == "full/8gpu/device")
        .expect("the matrix has the full/8gpu/device cell");
    let seeds = || 0..check_matrix::SEEDS_PER_CELL;
    let mut report = None;
    let serial = median_secs(tr, "check", "explore threads=1", 3, || {
        report = Some(explore_random_batch(
            &cell.graph,
            &cell.topo,
            &cell.cfg,
            seeds(),
            None,
            1,
        ));
    });
    let report = report.expect("the exploration ran");
    checks.check(report.failures.is_empty(), || {
        format!(
            "probe: {} oracle failures in cell {}",
            report.failures.len(),
            cell.label
        )
    });
    let fanned = median_secs(tr, "sim", "explore over run_replicas", 3, || {
        explore_random_batch(&cell.graph, &cell.topo, &cell.cfg, seeds(), None, threads)
    });
    // The same schedules without the witness, the bound and the oracles.
    let prep = SimPrep::new(&cell.graph);
    let bare = median_secs(tr, "runtime", "bare controlled runs", 3, || {
        for s in seeds() {
            let mut ctrl = RandomController::new(s);
            black_box(
                SimExecutor::with_prep(&cell.graph, &cell.topo, &cell.cfg, &prep)
                    .control(&mut ctrl)
                    .run()
                    .makespan,
            );
        }
    });
    put(values, "check.schedules", report.runs as f64);
    put(
        values,
        "check.distinct_ratio",
        report.distinct as f64 / report.runs.max(1) as f64,
    );
    put(values, "check.schedules_per_s", report.runs as f64 / serial);
    put(values, "check.witness_overhead_ratio", serial / bare);
    put(values, "sim.replicas_speedup", serial / fanned);
}

/// `bench.fig_s.*`, `bench.cache_*`, `bench.render_s`: one traced pass of
/// the `paper_small` workload, read back from its spans.
fn bench_probe(tr: &Tracer, values: &mut Values, checks: &mut Checks) {
    tr.next_op();
    let mut w = paper_small::PaperSmall::setup(0, 1);
    w.reset();
    let first = tr.len();
    let out = w.pass(tr);
    let mut by_name: BTreeMap<String, f64> = BTreeMap::new();
    for span in &tr.spans()[first..] {
        *by_name.entry(span.name.clone()).or_insert(0.0) += span.dur_ns() as f64 * 1e-9;
    }
    for (span, secs) in by_name {
        match span.as_str() {
            "render" => put(values, "bench.render_s", secs),
            fig => put(values, format!("bench.fig_s.{fig}"), secs),
        }
    }
    let s = out.cache;
    put(values, "bench.cache_hits", s.hits as f64);
    put(values, "bench.cache_misses", s.misses as f64);
    put(values, "bench.cache_hit_ratio", s.hit_rate());
    w.check(out, checks);
    w.reset(); // leave the global run cache empty
}

/// `serve.*`: one pass of the `serve_zipf` workload, plus direct runs of a
/// third of its keys to split a miss into simulation and service.
fn serve_probe(tr: &Tracer, seed: u64, threads: usize, values: &mut Values, checks: &mut Checks) {
    tr.next_op();
    let mut w = serve_zipf::ServeZipf::setup(seed, threads);
    let out = w.pass(tr);
    w.check(out, checks);
    w.extra_cold(tr);
    w.extra_cold(tr);
    checks.check(w.tails_supported(), || {
        "probe: a serve latency percentile has fewer than ten samples beyond it".to_string()
    });
    for (name, _, v) in w.latency_values() {
        put(values, format!("serve.{name}"), v);
    }
    let acc = &w.acc;
    put(values, "serve.interp_served_ratio", acc.interp_served_ratio);
    put(
        values,
        "serve.resident_entries",
        acc.resident_entries as f64,
    );
    put(values, "serve.hits", acc.last_stats.hits as f64);
    put(values, "serve.misses", acc.last_stats.misses as f64);
    put(values, "serve.coalesced", acc.batch_coalesced as f64);
    put(
        values,
        "serve.interpolated",
        acc.last_stats.interpolated as f64,
    );
    put(values, "serve.batch_groups", w.batch_groups() as f64);

    // Miss latency minus a direct run of the same key, over every third key
    // of the first cold replay.
    let overheads: Vec<f64> = acc
        .miss_s
        .iter()
        .take(w.universe().len())
        .filter(|(key, _)| key % 3 == 0)
        .map(|&(key, miss)| {
            let (library, params) = w.universe()[key];
            let (r, direct) = tr.timed("baselines", "direct run", || {
                run(library, w.topo(), &params)
            });
            black_box(r.is_ok());
            (miss - direct) * 1e3
        })
        .collect();
    put(values, "serve.miss_self_ms", median(&overheads));
}

/// `runtime.par_*` and `kernels.*_gflops_2048_par`: one pass of the
/// `numeric_blas3` workload.
fn numeric_probe(tr: &Tracer, seed: u64, threads: usize, values: &mut Values, checks: &mut Checks) {
    tr.next_op();
    let mut w = numeric_blas3::NumericBlas3::setup(seed, threads);
    w.reset();
    let out = w.pass(tr);
    // The first six calls run on `threads` workers; GEMM's repeat on one
    // worker (absent when `threads` is 1) gives the speed-up.
    let routines = Routine::ALL.len();
    for (call, result) in w.calls.iter().zip(&out).take(routines) {
        let metric = format!(
            "kernels.{}_gflops_2048_par",
            call.routine.name().to_lowercase()
        );
        let flops = call.routine.flops_square(numeric_blas3::N as u64);
        put(values, metric, flops / result.seconds / 1e9);
    }
    let gemm_seconds = |from: usize| {
        w.calls
            .iter()
            .zip(&out)
            .skip(from)
            .find(|(call, _)| call.routine == Routine::Gemm)
            .map(|(_, result)| result.seconds)
    };
    let parallel = gemm_seconds(0).expect("the pass runs GEMM");
    put(values, "runtime.par_exec_s", parallel);
    put(
        values,
        "runtime.par_speedup",
        gemm_seconds(routines).map_or(1.0, |serial| serial / parallel),
    );
    w.check(out, checks);
}

/// `kernels.*_gflops_1024`, the microkernel peak and GEMM's share of it:
/// serial kernels through the repository's own `kernelbench`.
fn kernels_probe(tr: &Tracer, values: &mut Values) {
    tr.next_op();
    let perf = tr.span("kernels", "measure_routines", || {
        xk_bench::kernelbench::measure_routines(2)
    });
    for p in &perf {
        let metric = format!("kernels.{}_gflops_1024", p.routine.name().to_lowercase());
        put(values, metric, p.gflops[2]);
    }
    let peak = tr.span("kernels", "microkernel_peak", || {
        xk_kernels::simd::microkernel_peak_gflops::<f64>(xk_kernels::selected_isa(), 100)
    });
    put(values, "kernels.microkernel_peak_gflops", peak);
    put(
        values,
        "kernels.gemm_fraction_of_peak",
        values["kernels.gemm_gflops_1024"] / peak,
    );
}

/// Runs every probe, filling `values` with one entry per per-layer metric
/// (the `harness.*` ones are the caller's).
pub fn run_all(tr: &Tracer, seed: u64, threads: usize, values: &mut Values, checks: &mut Checks) {
    tr.set_enabled(true);
    topo_probe(tr, values);
    pipeline_probe(tr, values, checks);
    bound_probe(tr, seed, values, checks);
    queue_probe(tr, seed, values);
    check_probe(tr, seed, threads, values, checks);
    bench_probe(tr, values, checks);
    serve_probe(tr, seed, threads, values, checks);
    numeric_probe(tr, seed, threads, values, checks);
    kernels_probe(tr, values);
}
