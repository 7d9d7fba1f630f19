//! Machine-readable performance snapshot of the simulator itself.
//!
//! Times the four layers this harness optimizes — the discrete-event
//! queue, one full library simulation, the small best-tile sweep
//! (serial/uncached vs rayon-parallel/memoized), and the blocked host
//! compute kernels — and writes the numbers to `BENCH_sim.json` (or the
//! path given as the first argument).

use std::time::Instant;

use rayon::prelude::*;
use xk_baselines::{Library, XkVariant};
use xk_bench::graphgen::{build_gemm_graph_legacy, build_wide_dag, gemm_graph_shell, submit_gemm_tasks};
use xk_bench::{sweep_series, sweep_series_par, RunCache, SeriesPoint, PAPER_DIMS_SMALL};
use xk_runtime::{run_parallel, RuntimeConfig, SimExecutor, SimPrep, SimSession};
use xk_kernels::parallel::{par_fill_pattern, par_gemm, par_gemm_naive};
use xk_kernels::{
    gemm, syrk, trsm, Diag, MatMut, MatRef, Routine, Side, Trans, Uplo,
};
use xk_sim::{default_replica_threads, run_replicas, selected_backend, EventQueue, QueueBackend, SimTime};
use xk_trace::SpanKind;

const QUEUE_EVENTS: usize = 1_000_000;

/// Fig. 3's library set: the sweep the snapshot times end to end.
const SWEEP_LIBS: [Library; 4] = [
    Library::CublasXt,
    Library::XkBlas(XkVariant::Full),
    Library::XkBlas(XkVariant::NoHeuristic),
    Library::XkBlas(XkVariant::NoHeuristicNoTopo),
];

/// Wall time of one fill-then-drain pass over `QUEUE_EVENTS` events on the
/// given backend.
fn queue_fill_drain(backend: QueueBackend) -> f64 {
    let mut q = EventQueue::with_backend_capacity(backend, QUEUE_EVENTS);
    let t0 = Instant::now();
    // Knuth-hash timestamps: scattered but reproducible.
    q.push_batch((0..QUEUE_EVENTS).map(|i| {
        let t = (i.wrapping_mul(2654435761) % 1_000_003) as f64 * 1e-6;
        (SimTime::new(t), i as u32)
    }));
    let mut checksum = 0u64;
    while let Some((_, e)) = q.pop() {
        checksum = checksum.wrapping_add(e as u64);
    }
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        checksum,
        (QUEUE_EVENTS as u64 - 1) * QUEUE_EVENTS as u64 / 2
    );
    secs
}

/// Wall time of the classic hold model: `pending` events stay queued while
/// `total` events transit as pop-min / push-future pairs. `burst > 1`
/// schedules groups of that many same-time events — the tie pattern the
/// simulator's `pop_tied` exploration produces — which a binary heap pays
/// a full sift per event for.
fn queue_hold(backend: QueueBackend, pending: usize, burst: usize, total: u64) -> f64 {
    let mut rng = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        (rng >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut q = EventQueue::with_backend_capacity(backend, pending);
    for g in 0..pending / burst {
        let t = SimTime::new(next());
        for i in 0..burst {
            q.push(t, (g * burst + i) as u32);
        }
    }
    let t0 = Instant::now();
    let mut done = 0u64;
    let mut checksum = 0u64;
    while done < total {
        let (t, e) = q.pop().expect("hold keeps the queue non-empty");
        checksum = checksum.wrapping_add(e as u64);
        let mut n = 1u64;
        while q.peek_time() == Some(t) {
            let (_, e) = q.pop().expect("peeked");
            checksum = checksum.wrapping_add(e as u64);
            n += 1;
        }
        done += n;
        let nt = SimTime::new(t.seconds() + next());
        for i in 0..n {
            q.push(nt, i as u32);
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(checksum);
    secs
}

/// Heap-vs-calendar head-to-head over the three shapes the simulator
/// exercises; each entry carries both timings and the resulting speedup.
fn bench_event_queue() -> serde_json::Value {
    let shape = |name: &str, events: u64, f: &dyn Fn(QueueBackend) -> f64| {
        let heap = f(QueueBackend::Heap);
        let calendar = f(QueueBackend::Calendar);
        serde_json::json!({
            "shape": name,
            "events": events,
            "heap_seconds": heap,
            "heap_events_per_sec": events as f64 / heap,
            "calendar_seconds": calendar,
            "calendar_events_per_sec": events as f64 / calendar,
            "calendar_speedup": heap / calendar,
        })
    };
    const HOLD_EVENTS: u64 = 2_000_000;
    serde_json::json!({
        "default_backend": format!("{:?}", selected_backend()).to_lowercase(),
        "fill_drain_1e6": shape("fill_drain_1e6", 2 * QUEUE_EVENTS as u64, &|b| {
            queue_fill_drain(b)
        }),
        "hold_1e4": shape("hold_1e4", HOLD_EVENTS, &|b| queue_hold(b, 10_000, 1, HOLD_EVENTS)),
        "hold_1e6": shape("hold_1e6", HOLD_EVENTS, &|b| {
            queue_hold(b, 1_000_000, 1, HOLD_EVENTS)
        }),
        "tie_burst_1e5": shape("tie_burst_1e5", HOLD_EVENTS, &|b| {
            queue_hold(b, 100_000, 16, HOLD_EVENTS)
        }),
    })
}

/// Cross-seed batch layer: K replicas of one ~4k-task GEMM simulation,
/// serial per-replica prep vs the shared-[`SimPrep`] replica driver.
fn bench_batch_replicas(topo: &xk_topo::FabricSpec) -> serde_json::Value {
    const NT: usize = 16; // 16^3 = 4096 tasks
    const REPLICAS: usize = 24;
    let (mut g, handles) = gemm_graph_shell(NT);
    submit_gemm_tasks(&mut g, &handles, NT);
    let cfg = RuntimeConfig::xkblas();

    let t0 = Instant::now();
    let serial: Vec<u64> = (0..REPLICAS)
        .map(|_| SimExecutor::new(&g, topo, &cfg).run().makespan.to_bits())
        .collect();
    let serial_secs = t0.elapsed().as_secs_f64();

    // Thread sweep: the same batch at 1, 2, 4 and all-cores workers (0),
    // each checked bit-identical against the serial reference.
    let prep = SimPrep::new(&g);
    let mut sweep = Vec::new();
    let mut default_batch_secs = f64::NAN;
    for threads in [1usize, 2, 4, 0] {
        let t0 = Instant::now();
        let batched: Vec<u64> = run_replicas(REPLICAS, threads, |_| {
            SimExecutor::with_prep(&g, topo, &cfg, &prep)
                .run()
                .makespan
                .to_bits()
        });
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(serial, batched, "batch replicas diverged from serial runs");
        if threads == 0 {
            default_batch_secs = secs;
        }
        sweep.push(serde_json::json!({
            "threads": threads,
            "effective_threads": if threads == 0 { default_replica_threads() } else { threads },
            "seconds": secs,
            "runs_per_sec": REPLICAS as f64 / secs,
            "speedup_vs_serial": serial_secs / secs,
        }));
    }

    serde_json::json!({
        "replicas": REPLICAS,
        "tasks_per_replica": NT * NT * NT,
        "threads": default_replica_threads(),
        "serial_seconds": serial_secs,
        "serial_runs_per_sec": REPLICAS as f64 / serial_secs,
        "batch_seconds": default_batch_secs,
        "batch_runs_per_sec": REPLICAS as f64 / default_batch_secs,
        "speedup": serial_secs / default_batch_secs,
        "thread_sweep": sweep,
    })
}

/// Spans/second of one full GEMM simulation.
fn bench_gemm_sim(topo: &xk_topo::FabricSpec, n: usize, tile: usize) -> (usize, f64, f64) {
    let params = xk_baselines::RunParams {
        routine: Routine::Gemm,
        n,
        tile,
        data_on_device: false,
    };
    let t0 = Instant::now();
    let r = xk_baselines::run(Library::XkBlas(XkVariant::Full), topo, &params)
        .expect("xkblas gemm runs");
    let secs = t0.elapsed().as_secs_f64();
    let spans = r.trace.len();
    (spans, secs, spans as f64 / secs)
}

/// Best-of-`reps` wall time of `f`, in seconds.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// GFLOP/s of the sequential blocked kernels (`gemm`, `syrk`, `trsm`) at
/// square sizes, plus blocked vs pre-blocking parallel GEMM at `n = 1024`.
fn bench_kernels() -> serde_json::Value {
    const REPS: usize = 3;
    let gflops = |routine: Routine, n: usize, secs: f64| {
        routine.flops_square(n as u64) / secs / 1e9
    };

    let mut per_size = Vec::new();
    for &n in &[256usize, 512, 1024] {
        let mut a = vec![0.0f64; n * n];
        let mut b = vec![0.0f64; n * n];
        par_fill_pattern(MatMut::from_slice(&mut a, n, n, n), 101);
        par_fill_pattern(MatMut::from_slice(&mut b, n, n, n), 102);
        let mut c = vec![0.0f64; n * n];

        let gemm_secs = best_secs(REPS, || {
            gemm(
                Trans::No,
                Trans::No,
                1.0,
                MatRef::from_slice(&a, n, n, n),
                MatRef::from_slice(&b, n, n, n),
                0.5,
                MatMut::from_slice(&mut c, n, n, n),
            );
        });

        let syrk_secs = best_secs(REPS, || {
            syrk(
                Uplo::Lower,
                Trans::No,
                1.0,
                MatRef::from_slice(&a, n, n, n),
                0.5,
                MatMut::from_slice(&mut c, n, n, n),
            );
        });

        // Dominant diagonal keeps the solve well-conditioned over reps.
        let mut tri = a.clone();
        for i in 0..n {
            tri[i + i * n] = 4.0;
        }
        let trsm_secs = best_secs(REPS, || {
            c.copy_from_slice(&b);
            trsm(
                Side::Left,
                Uplo::Lower,
                Trans::No,
                Diag::NonUnit,
                1.0,
                MatRef::from_slice(&tri, n, n, n),
                MatMut::from_slice(&mut c, n, n, n),
            );
        });

        per_size.push(serde_json::json!({
            "n": n,
            "gemm_gflops": gflops(Routine::Gemm, n, gemm_secs),
            "syrk_gflops": gflops(Routine::Syrk, n, syrk_secs),
            "trsm_gflops": gflops(Routine::Trsm, n, trsm_secs),
        }));
    }

    // Blocked vs pre-blocking parallel GEMM at the acceptance size.
    let n = 1024usize;
    let mut a = vec![0.0f64; n * n];
    let mut b = vec![0.0f64; n * n];
    par_fill_pattern(MatMut::from_slice(&mut a, n, n, n), 103);
    par_fill_pattern(MatMut::from_slice(&mut b, n, n, n), 104);
    let mut c = vec![0.0f64; n * n];
    let blocked_secs = best_secs(REPS, || {
        par_gemm(
            Trans::No,
            Trans::No,
            1.0,
            MatRef::from_slice(&a, n, n, n),
            MatRef::from_slice(&b, n, n, n),
            0.0,
            MatMut::from_slice(&mut c, n, n, n),
        );
    });
    let naive_secs = best_secs(REPS, || {
        par_gemm_naive(
            Trans::No,
            Trans::No,
            1.0,
            MatRef::from_slice(&a, n, n, n),
            MatRef::from_slice(&b, n, n, n),
            0.0,
            MatMut::from_slice(&mut c, n, n, n),
        );
    });

    serde_json::json!({
        "reps": REPS,
        "detected_isa": xk_kernels::detected_isa().name(),
        "dispatched_isa": xk_kernels::selected_isa().name(),
        "microkernel": kernel_shape_json(),
        "sequential": per_size,
        "par_gemm_1024": {
            "blocked_gflops": gflops(Routine::Gemm, n, blocked_secs),
            "naive_gflops": gflops(Routine::Gemm, n, naive_secs),
            "speedup_vs_naive": naive_secs / blocked_secs,
        },
    })
}

/// The dispatched microkernel's shape, for the snapshot header.
fn kernel_shape_json() -> serde_json::Value {
    let s = xk_kernels::kernel_shape::<f64>(xk_kernels::selected_isa());
    serde_json::json!({
        "name": s.name,
        "mr": s.mr,
        "nr": s.nr,
        "kc": s.kc,
        "mc": s.mc,
        "nc": s.nc,
    })
}

/// Build rate of a ~110k-task tiled-GEMM graph: the seed's HashMap +
/// per-task-Vec + eager-label representation vs the CSR fast path.
fn bench_graph_build() -> serde_json::Value {
    const REPS: usize = 3;
    // 48³ = 110,592 tasks — the paper's N=49152 / tile-1024 sweep point.
    let nt = 48;
    let tasks = nt * nt * nt;

    let legacy_secs = best_secs(REPS, || {
        let g = build_gemm_graph_legacy(nt);
        assert_eq!(g.len(), tasks);
    });
    // Tile registration is identical in both representations and stays
    // outside the timed region (the legacy replica doesn't model it).
    let mut bytes_per_task = 0.0;
    let mut csr_secs = f64::INFINITY;
    for _ in 0..REPS {
        let (mut g, handles) = gemm_graph_shell(nt);
        let t0 = Instant::now();
        submit_gemm_tasks(&mut g, &handles, nt);
        csr_secs = csr_secs.min(t0.elapsed().as_secs_f64());
        assert_eq!(g.len(), tasks);
        bytes_per_task = g.memory_bytes() as f64 / tasks as f64;
    }

    serde_json::json!({
        "tasks": tasks,
        "reps": REPS,
        "legacy_seconds": legacy_secs,
        "legacy_tasks_per_sec": tasks as f64 / legacy_secs,
        "csr_seconds": csr_secs,
        "csr_tasks_per_sec": tasks as f64 / csr_secs,
        "speedup": legacy_secs / csr_secs,
        "bytes_per_task": bytes_per_task,
    })
}

/// Raw task throughput of the parking work-stealing executor on a wide
/// (100-layer × 1000-task) bodyless DAG: pure claim/release overhead.
fn bench_par_exec() -> serde_json::Value {
    const LAYERS: usize = 100;
    const WIDTH: usize = 1000;
    let tasks = LAYERS * WIDTH;
    let mut g = build_wide_dag(LAYERS, WIDTH);
    let t0 = Instant::now();
    let out = run_parallel(&mut g, 0);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(out.tasks_run, tasks);
    serde_json::json!({
        "tasks": tasks,
        "layers": LAYERS,
        "width": WIDTH,
        "threads": out.threads,
        "seconds": secs,
        "tasks_per_sec": tasks as f64 / secs,
        "parks": out.parks,
    })
}

/// Observability digest per routine: top-3 hot links and critical-path
/// composition of the XKBlas run (the critical-path invariant is asserted
/// on every entry).
fn bench_obs(topo: &xk_topo::FabricSpec) -> serde_json::Value {
    let per_routine: Vec<serde_json::Value> = Routine::ALL
        .into_iter()
        .map(|routine| {
            let params = xk_baselines::RunParams {
                routine,
                n: 8192,
                tile: 2048,
                data_on_device: false,
            };
            let r = xk_baselines::run(Library::XkBlas(XkVariant::Full), topo, &params)
                .expect("xkblas runs every routine");
            let obs = r.obs.expect("xkblas records observability");
            let cp = obs.critical_path.as_ref().expect("full level records the critical path");
            assert_eq!(
                cp.length.to_bits(),
                obs.makespan.to_bits(),
                "{routine:?}: critical path != makespan"
            );
            serde_json::json!({
                "routine": routine.name(),
                "n": params.n,
                "tile": params.tile,
                "makespan_s": obs.makespan,
                "hot_links": obs
                    .hot_links(3)
                    .iter()
                    .map(|l| serde_json::json!({
                        "name": l.name,
                        "busy_s": l.busy,
                        "utilization": l.utilization,
                        "contention_wait_s": l.wait,
                        "bytes": l.bytes,
                        "cp_seconds": l.cp_seconds,
                    }))
                    .collect::<Vec<_>>(),
                "critical_path": {
                    "length_s": cp.length,
                    "kernel_s": cp.kind_seconds(SpanKind::Kernel),
                    "h2d_s": cp.kind_seconds(SpanKind::H2D),
                    "d2h_s": cp.kind_seconds(SpanKind::D2H),
                    "p2p_s": cp.kind_seconds(SpanKind::P2P),
                    "runtime_gap_s": cp.runtime_gap,
                    "spans": cp.total_segments,
                },
            })
        })
        .collect();
    serde_json::json!(per_routine)
}

/// GEMM GFLOP/s per gallery fabric × heuristic variant, one fixed problem
/// and tile (no tile search), so the numbers are cheap and directly
/// comparable across fabrics. This is where a topology-blind reading of
/// the snapshot would miss that the heuristics rank differently on an
/// NVSwitch or PCIe-only machine than on the DGX-1.
fn bench_fabrics() -> serde_json::Value {
    const N: usize = 8192;
    const TILE: usize = 2048;
    let per_fabric: Vec<serde_json::Value> = xk_topo::fabrics::gallery()
        .iter()
        .map(|topo| {
            let gflops = |v: XkVariant| {
                let params = xk_baselines::RunParams {
                    routine: Routine::Gemm,
                    n: N,
                    tile: TILE,
                    data_on_device: false,
                };
                let r = xk_baselines::run(Library::XkBlas(v), topo, &params)
                    .expect("xkblas runs on every gallery fabric");
                r.tflops * 1000.0
            };
            serde_json::json!({
                "fabric": topo.name(),
                "fingerprint": format!("{:016x}", topo.fingerprint()),
                "n_gpus": topo.n_gpus(),
                "n_nodes": topo.n_nodes(),
                "gemm_gflops": {
                    "full": gflops(XkVariant::Full),
                    "no_heuristic": gflops(XkVariant::NoHeuristic),
                    "no_heuristic_no_topo": gflops(XkVariant::NoHeuristicNoTopo),
                },
            })
        })
        .collect();
    serde_json::json!({ "n": N, "tile": TILE, "per_fabric": per_fabric })
}

/// Optimality audit: the schedule-free LP makespan lower bound against the
/// simulated makespan per routine × gallery fabric × heuristic variant.
/// Every cell asserts a positive finite bound and a finite non-negative
/// gap — the snapshot doubles as a physics check of the DES. A sampled
/// Shapley attribution of the DGX-1 NVLink mesh on the GEMM graph rides
/// along (which physical links buy the throughput).
fn bench_optimality() -> serde_json::Value {
    const N: usize = 8192;
    const TILE: usize = 2048;
    const VARIANTS: [(&str, XkVariant); 3] = [
        ("full", XkVariant::Full),
        ("no_heuristic", XkVariant::NoHeuristic),
        ("no_heuristic_no_topo", XkVariant::NoHeuristicNoTopo),
    ];
    let per_fabric: Vec<serde_json::Value> = xk_topo::fabrics::gallery()
        .iter()
        .map(|topo| {
            let per_routine: Vec<serde_json::Value> = Routine::ALL
                .into_iter()
                .map(|routine| {
                    let params = xk_baselines::RunParams {
                        routine,
                        n: N,
                        tile: TILE,
                        data_on_device: false,
                    };
                    let variants: Vec<serde_json::Value> = VARIANTS
                        .iter()
                        .map(|&(vname, v)| {
                            let cfg = v.runtime_config();
                            let g = xk_baselines::build_run_graph(topo, &params, &cfg, false);
                            let run = SimSession::on(topo).config(cfg).run_bounded(&g);
                            let bound = run.lower_bound().expect("bounded run carries its bound");
                            assert!(
                                bound.total > 0.0 && bound.total.is_finite(),
                                "{} {} {vname}: degenerate bound {bound:?}",
                                topo.name(),
                                routine.name(),
                            );
                            let gap = run.optimality_gap().expect("bound is positive");
                            assert!(
                                gap >= 0.0 && gap.is_finite(),
                                "{} {} {vname}: makespan {} beats the lower bound {}",
                                topo.name(),
                                routine.name(),
                                run.outcome().makespan,
                                bound.total,
                            );
                            serde_json::json!({
                                "variant": vname,
                                "makespan_s": run.outcome().makespan,
                                "bound_s": bound.total,
                                "critical_path_s": bound.critical_path,
                                "link_lp_s": bound.link_lp,
                                "compute_s": bound.compute,
                                "lp_iterations": bound.lp_iterations,
                                "gap": gap,
                            })
                        })
                        .collect();
                    serde_json::json!({ "routine": routine.name(), "variants": variants })
                })
                .collect();
            serde_json::json!({
                "fabric": topo.name(),
                "n_gpus": topo.n_gpus(),
                "per_routine": per_routine,
            })
        })
        .collect();

    // Sampled Shapley attribution (24 permutations, fixed seed) of the
    // DGX-1 NVLink mesh under the full-heuristics GEMM run.
    let topo = xk_topo::dgx1();
    let params = xk_baselines::RunParams {
        routine: Routine::Gemm,
        n: N,
        tile: TILE,
        data_on_device: false,
    };
    let cfg = XkVariant::Full.runtime_config();
    let g = xk_baselines::build_run_graph(&topo, &params, &cfg, false);
    let attr = SimSession::on(&topo).config(cfg).attribute_links(&g, 24, 7);
    let attribution = serde_json::json!({
        "fabric": topo.name(),
        "routine": "gemm",
        "exact": attr.exact,
        "evaluations": attr.evaluations,
        "full_gflops": attr.full_value,
        "baseline_gflops": attr.baseline_value,
        "mesh_gflops": attr.mesh_value(),
        "links": attr
            .links
            .iter()
            .map(|l| serde_json::json!({
                "a": l.a,
                "b": l.b,
                "class": l.class.label(),
                "gflops": l.value,
                "share": l.share,
            }))
            .collect::<Vec<_>>(),
    });

    serde_json::json!({
        "n": N,
        "tile": TILE,
        "per_fabric": per_fabric,
        "attribution": attribution,
    })
}

fn series_equal(a: &[Vec<SeriesPoint>], b: &[Vec<SeriesPoint>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(sa, sb)| {
            sa.len() == sb.len()
                && sa.iter().zip(sb).all(|(pa, pb)| {
                    pa.n == pb.n
                        && pa.tile == pb.tile
                        && pa.tflops.map(f64::to_bits) == pb.tflops.map(f64::to_bits)
                })
        })
}

fn main() {
    let out = std::env::args().nth(1).unwrap_or_else(|| "BENCH_sim.json".to_string());
    let topo = xk_topo::dgx1();

    eprintln!("event queue: heap vs calendar over {QUEUE_EVENTS}-event shapes ...");
    let event_queue = bench_event_queue();

    eprintln!("batch replicas: serial vs shared-prep driver ...");
    let batch_replicas = bench_batch_replicas(&topo);

    eprintln!("single GEMM simulation ...");
    let (spans, sim_secs, spans_per_sec) = bench_gemm_sim(&topo, 16384, 2048);

    eprintln!(
        "small sweep ({} libraries x {:?}), serial reference ...",
        SWEEP_LIBS.len(),
        PAPER_DIMS_SMALL
    );
    let t0 = Instant::now();
    let serial: Vec<Vec<SeriesPoint>> = SWEEP_LIBS
        .iter()
        .map(|&lib| sweep_series(lib, &topo, Routine::Gemm, &PAPER_DIMS_SMALL, false))
        .collect();
    let serial_secs = t0.elapsed().as_secs_f64();

    eprintln!("small sweep, parallel + memoized (cold cache) ...");
    let cache = RunCache::new();
    let t0 = Instant::now();
    let parallel: Vec<Vec<SeriesPoint>> = SWEEP_LIBS
        .par_iter()
        .map(|&lib| sweep_series_par(lib, &topo, Routine::Gemm, &PAPER_DIMS_SMALL, false, Some(&cache)))
        .collect();
    let parallel_secs = t0.elapsed().as_secs_f64();
    let identical = series_equal(&serial, &parallel);
    assert!(identical, "parallel sweep diverged from the serial reference");

    eprintln!("host compute kernels (gemm/syrk/trsm GFLOP/s) ...");
    let kernels = bench_kernels();

    eprintln!("graph build rate (legacy vs CSR, ~110k tasks) ...");
    let graph = bench_graph_build();

    eprintln!("parallel executor throughput (wide bodyless DAG) ...");
    let par_exec = bench_par_exec();

    eprintln!("observability digest (per-routine hot links + critical path) ...");
    let obs = bench_obs(&topo);

    eprintln!("fabric gallery (GEMM GFLOP/s per fabric x heuristic) ...");
    let fabrics = bench_fabrics();

    eprintln!("optimality audit (LP lower bound vs makespan + link attribution) ...");
    let optimality = bench_optimality();

    eprintln!("small sweep, warm cache ...");
    let t0 = Instant::now();
    let warm: Vec<Vec<SeriesPoint>> = SWEEP_LIBS
        .par_iter()
        .map(|&lib| sweep_series_par(lib, &topo, Routine::Gemm, &PAPER_DIMS_SMALL, false, Some(&cache)))
        .collect();
    let warm_secs = t0.elapsed().as_secs_f64();
    assert!(series_equal(&parallel, &warm));
    let stats = cache.stats();

    let snapshot = serde_json::json!({
        "event_queue": event_queue,
        "batch_replicas": batch_replicas,
        "gemm_sim": {
            "n": 16384,
            "tile": 2048,
            "spans": spans,
            "seconds": sim_secs,
            "spans_per_sec": spans_per_sec,
        },
        "small_sweep": {
            "libraries": SWEEP_LIBS.len(),
            "dims": PAPER_DIMS_SMALL,
            "routine": "gemm",
            "serial_seconds": serial_secs,
            "parallel_seconds": parallel_secs,
            "speedup": serial_secs / parallel_secs,
            "warm_cache_seconds": warm_secs,
            "series_identical_to_serial": identical,
        },
        "kernels": kernels,
        "graph": graph,
        "par_exec": par_exec,
        "obs": obs,
        "fabrics": fabrics,
        "optimality": optimality,
        "run_cache": {
            "entries": cache.len(),
            "shards": cache.n_shards(),
            "hits": stats.hits,
            "coalesced": stats.coalesced,
            "misses": stats.misses,
            "hit_rate": stats.hit_rate(),
        },
        "rayon_threads": rayon::current_num_threads(),
    });
    let pretty = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    std::fs::write(&out, pretty.as_bytes()).expect("snapshot written");
    println!("{pretty}");
    eprintln!("wrote {out}");

    // The dedicated kernel/ISA snapshot rides along: same numbers the
    // standalone `bench_kernels` binary produces.
    let kernels_out = "BENCH_kernels.json";
    eprintln!("kernel/ISA snapshot ...");
    std::fs::write(
        kernels_out,
        xk_bench::kernelbench::snapshot_json(3, 200).as_bytes(),
    )
    .expect("kernel snapshot written");
    eprintln!("wrote {kernels_out}");
}
