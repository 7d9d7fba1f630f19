//! Failure/degradation injection: the model must respond physically to
//! broken links, shrunken memory and serialized execution.

use xkblas_repro::baselines::{run, Library, RunParams, XkVariant};
use xkblas_repro::prelude::*;
use xkblas_repro::runtime::{SimOutcome, SimSession, TaskGraph};
use xkblas_repro::topo::{builders, LinkSpec, FabricSpec};

/// All simulated runs go through the session front door.
fn simulate(graph: &TaskGraph, topo: &FabricSpec, cfg: &RuntimeConfig) -> SimOutcome {
    SimSession::on(topo).config(cfg.clone()).run(graph).into_outcome()
}

fn gemm_params(n: usize, tile: usize) -> RunParams {
    RunParams {
        routine: Routine::Gemm,
        n,
        tile,
        data_on_device: false,
    }
}

/// A DGX-1 whose NVLinks are degraded to a fraction of their bandwidth.
fn degraded_dgx1(factor: f64) -> FabricSpec {
    let base = dgx1();
    let m = base.bandwidth_matrix_gbs();
    let degraded: Vec<Vec<f64>> = m
        .iter()
        .enumerate()
        .map(|(i, row)| {
            row.iter()
                .enumerate()
                .map(|(j, &v)| {
                    if i == j || base.perf_rank(i, j) == 0 {
                        v
                    } else {
                        // Keep the class (thresholds) but shrink bandwidth
                        // to the lower class boundary times the factor.
                        v * factor
                    }
                })
                .collect()
        })
        .collect();
    builders::from_bandwidth_matrix_gbs("degraded", &degraded)
}

/// Slower NVLinks must slow down the heuristic-heavy runs (they route
/// traffic over exactly those links).
#[test]
fn degraded_nvlink_hurts_xkblas() {
    let healthy = dgx1();
    let sick = degraded_dgx1(0.55); // x2 bricks drop to ~53 GB/s
    let p = gemm_params(16384, 2048);
    let a = run(Library::XkBlas(XkVariant::Full), &healthy, &p).unwrap();
    let b = run(Library::XkBlas(XkVariant::Full), &sick, &p).unwrap();
    assert!(
        b.tflops < a.tflops,
        "degraded links did not hurt: {} vs {}",
        b.tflops,
        a.tflops
    );
    // cuBLAS-XT never touches NVLink: immune to the degradation.
    let xa = run(Library::CublasXt, &healthy, &p).unwrap();
    let xb = run(Library::CublasXt, &sick, &p).unwrap();
    assert!((xa.seconds - xb.seconds).abs() < 1e-9);
}

/// Shrinking GPU memory forces evictions and write-backs but must never
/// deadlock or change the task count.
#[test]
fn memory_pressure_degrades_gracefully() {
    let topo = dgx1();
    // Shallow window so the pinned working set stays below the tight
    // capacity (otherwise the launch-time acquire legitimately
    // oversubscribes and nothing is evictable).
    let mut base_cfg = RuntimeConfig::xkblas();
    base_cfg.window = 4;
    let build = || {
        let mut ctx = Context::<f64>::new(topo.clone(), base_cfg.clone(), 2048);
        ctx.set_simulation_only(true);
        let a = Matrix::<f64>::phantom(16384, 16384);
        let b = Matrix::<f64>::phantom(16384, 16384);
        let c = Matrix::<f64>::phantom(16384, 16384);
        gemm_async(&mut ctx, Trans::No, Trans::No, 1.0, &a, &b, 0.5, &c);
        ctx.memory_coherent_async(&c);
        ctx
    };

    let roomy = build().run_simulated();

    let mut tight_cfg = base_cfg.clone();
    // GEMM executes wave-by-wave (k outer), so its streaming working set is
    // ~14 tiles per GPU; only a capacity *below* that forces the C tiles
    // out (dirty write-backs) and back in every wave.
    tight_cfg.gpu_memory = 300 << 20; // ~9 tiles of 32 MiB
    let mut ctx = Context::<f64>::new(topo.clone(), tight_cfg, 2048);
    ctx.set_simulation_only(true);
    let a = Matrix::<f64>::phantom(16384, 16384);
    let b = Matrix::<f64>::phantom(16384, 16384);
    let c = Matrix::<f64>::phantom(16384, 16384);
    gemm_async(&mut ctx, Trans::No, Trans::No, 1.0, &a, &b, 0.5, &c);
    ctx.memory_coherent_async(&c);
    let tight = ctx.run_simulated();

    assert_eq!(roomy.tasks_run, tight.tasks_run, "tasks lost under pressure");
    // Evicted tiles must be re-acquired — from the host or from a peer
    // that still holds them.
    let roomy_traffic = roomy.bytes_h2d + roomy.bytes_p2p;
    let tight_traffic = tight.bytes_h2d + tight.bytes_p2p;
    assert!(
        tight_traffic > roomy_traffic,
        "evictions must force re-reads: {tight_traffic} vs {roomy_traffic}"
    );
    assert!(
        tight.bytes_d2h > roomy.bytes_d2h,
        "dirty evictions must write back: {} vs {}",
        tight.bytes_d2h,
        roomy.bytes_d2h
    );
    assert!(tight.makespan >= roomy.makespan);
}

/// A single-GPU topology still completes everything (no peer to talk to).
#[test]
fn single_gpu_degenerate_platform() {
    let topo = builders::pcie_only(1);
    let p = gemm_params(8192, 2048);
    let r = run(Library::XkBlas(XkVariant::Full), &topo, &p).unwrap();
    assert!(r.tflops > 0.0);
    assert_eq!(r.bytes_p2p, 0);
    // All kernels on the one GPU.
    let loads = r.trace.kernel_load_per_gpu(1);
    assert!(loads[0] > 0.0);
}

/// An asymmetric custom topology validates and runs (route symmetry is
/// enforced by construction, bandwidth by symmetrization).
#[test]
fn custom_topology_runs() {
    let m = vec![
        vec![700.0, 90.0, 45.0, 10.0],
        vec![90.0, 700.0, 10.0, 45.0],
        vec![45.0, 10.0, 700.0, 90.0],
        vec![10.0, 45.0, 90.0, 700.0],
    ];
    let topo = builders::from_bandwidth_matrix_gbs("custom4", &m);
    let p = gemm_params(8192, 1024);
    let r = run(Library::XkBlas(XkVariant::Full), &topo, &p).unwrap();
    assert!(r.tflops > 0.0);
    assert!(r.bytes_p2p > 0, "replicated tiles should travel P2P");
}

/// Zero-bandwidth links are rejected at topology construction.
#[test]
fn invalid_topology_rejected() {
    let local = LinkSpec::new(xkblas_repro::topo::LinkClass::Local, 1e11);
    let dead = LinkSpec::new(xkblas_repro::topo::LinkClass::Pcie, 0.0);
    let host = LinkSpec::new(xkblas_repro::topo::LinkClass::Pcie, 1e10);
    let result = FabricSpec::from_parts(
        "dead-link".into(),
        2,
        vec![local, dead, dead, local],
        vec![host, host],
        vec![0, 0],
        vec![0],
        Vec::new(),
        1,
        None,
        None,
    );
    assert!(result.is_err());
}

/// A fabric without GPUs used to construct, and then `SimSession::run`
/// divided by zero placing the first task while the LP bound came back
/// infinite. Construction refuses it now, through both constructors.
#[test]
fn zero_gpu_fabric_rejected() {
    let err = FabricSpec::from_parts(
        "empty".into(),
        0,
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        1,
        None,
        None,
    )
    .expect_err("a fabric without GPUs must not construct");
    assert!(err.contains("at least one GPU"), "{err}");
    assert!(FabricBuilder::named("empty").try_build().is_err());
}

/// A host or peer link whose latency is NaN, negative or infinite used to
/// build, and the first simulation on the fabric then panicked in
/// `Duration::new` (from `acquire_inputs`, through `run`). Construction
/// refuses it now, so there is no such fabric to hand to `run`.
#[test]
fn hostile_latency_rejected_before_any_run() {
    use xkblas_repro::topo::LinkClass;
    let local = LinkSpec::new(LinkClass::Local, 1e11);
    let peer = LinkSpec::new(LinkClass::Pcie, 1e10);
    for latency in [f64::NAN, -1e-6, f64::INFINITY] {
        let host = LinkSpec {
            latency,
            ..LinkSpec::new(LinkClass::Pcie, 1e10)
        };
        let err = FabricSpec::from_parts(
            "hostile-host".into(),
            2,
            vec![local, peer, peer, local],
            vec![host, host],
            vec![0, 0],
            vec![0],
            Vec::new(),
            1,
            None,
            None,
        )
        .expect_err("a hostile host latency must not yield a fabric");
        assert!(err.contains("host link of gpu0") && err.contains("latency"), "{err}");
        let err = dgx1()
            .map_gpu_links("hostile-peer", |_, _, l| LinkSpec { latency, ..*l })
            .expect_err("a hostile peer latency must not yield a fabric");
        assert!(err.contains("gpu0↔gpu1") && err.contains("latency"), "{err}");
    }
}

/// A link dying while an optimistic-D2D forward would use it: the waiting
/// task must surface `LinkDown` instead of hanging on the in-flight
/// transfer, the unaffected task stays healthy, and the run drains.
#[test]
fn link_failure_during_optimistic_d2d() {
    use xkblas_repro::kernels::perfmodel::TileOp;
    use xkblas_repro::runtime::task::{Access, TaskAccess};
    use xkblas_repro::runtime::{DataInfo, Error, LinkFault, SchedulerKind};

    let topo = dgx1();
    let mb = 1u64 << 20;
    let mut g = TaskGraph::new();
    let shared = g.add_host_tile(32 * mb, true, "A");
    let c0 = g.add_data(DataInfo::host(32 * mb, true, "C0").with_owner(0));
    let c1 = g.add_data(DataInfo::host(32 * mb, true, "C1").with_owner(4));
    let op = TileOp::Gemm { m: 2048, n: 2048, k: 2048 };
    let read = |h| TaskAccess { handle: h, access: Access::Read };
    let rw = |h| TaskAccess { handle: h, access: Access::ReadWrite };
    g.add_task(op, vec![read(shared), rw(c0)], "t0");
    g.add_task(op, vec![read(shared), rw(c1)], "t1");

    let mut cfg = RuntimeConfig::xkblas();
    cfg.scheduler = SchedulerKind::StaticOwner;

    // Healthy baseline: t1's copy of the shared tile arrives as an
    // optimistic device-to-device forward out of GPU 0.
    let healthy = SimSession::on(&topo).config(cfg.clone()).run(&g).into_outcome();
    assert!(healthy.failures.is_empty());
    assert!(healthy.bytes_p2p > 0, "expected an optimistic forward");

    // Same run with the 0->4 link dead from t=0, through the facade.
    let out = SimSession::on(&topo)
        .config(cfg)
        .link_fault(LinkFault { src: 0, dst: 4, at: 0.0 })
        .run(&g)
        .into_outcome();
    assert_eq!(out.tasks_run, 2, "run must drain, not deadlock");
    assert_eq!(
        out.failures,
        vec![(1, Error::LinkDown { src: 0, dst: 4 })],
        "the waiter fails over the dead link, its peer stays healthy"
    );
}

/// A graph with a long serial chain is dominated by the critical path on
/// any topology — parallel hardware cannot help.
#[test]
fn serial_chain_bound_by_critical_path() {
    use xkblas_repro::kernels::perfmodel::TileOp;
    use xkblas_repro::runtime::task::{Access, TaskAccess};

    let topo = dgx1();
    let mut g = TaskGraph::new();
    let h = g.add_host_tile(32 << 20, true, "chain");
    for i in 0..64 {
        g.add_task(
            TileOp::Gemm { m: 2048, n: 2048, k: 2048 },
            vec![TaskAccess { handle: h, access: Access::ReadWrite }],
            format!("k{i}"),
        );
    }
    let cfg = RuntimeConfig::xkblas();
    let cp = g.critical_path_seconds(&cfg.gpu_model);
    let out = simulate(&g, &topo, &cfg);
    assert!(out.makespan >= cp);
    // And not much more: the chain pipelines on one device.
    assert!(out.makespan < cp * 1.5, "{} vs cp {}", out.makespan, cp);
}
