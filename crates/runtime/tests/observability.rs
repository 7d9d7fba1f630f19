//! Integration tests of the observability layer: golden Chrome-JSON
//! export, `trace_event` schema validation, counter/trace consistency and
//! the critical-path invariant across runtime configurations.

use xk_kernels::perfmodel::TileOp;
use xk_runtime::task::{Access, TaskAccess};
use xk_runtime::{
    DataInfo, Heuristics, Machine, ObsLevel, RuntimeConfig, SchedulerKind, SimSession, TaskGraph,
};
use xk_topo::builders::nvlink_all_to_all;
use xk_topo::dgx1;
use xk_trace::export::{chrome_json, jsonck};
use xk_trace::{Place, SpanKind};

const MB: u64 = 1 << 20;

/// The 2-GPU GEMM of the golden trace: one shared input tile pulled over
/// PCIe once and forwarded device-to-device, one output tile per GPU,
/// results flushed back to the host.
fn two_gpu_gemm() -> TaskGraph {
    let mut g = TaskGraph::new();
    let a = g.add_host_tile(32 * MB, false, "A(0,0)");
    let mut outs = Vec::new();
    for i in 0..2usize {
        let c = g.add_data(DataInfo::host(32 * MB, false, format!("C({i},0)")).with_owner(i));
        g.add_task(
            TileOp::Gemm { m: 2048, n: 2048, k: 2048 },
            vec![
                TaskAccess { handle: a, access: Access::Read },
                TaskAccess { handle: c, access: Access::ReadWrite },
            ],
            format!("gemm C({i},0)"),
        );
        outs.push(c);
    }
    for (i, c) in outs.into_iter().enumerate() {
        g.add_flush(&[c], format!("coherent C({i},0)"));
    }
    g
}

/// A broadcast graph on the DGX-1: one shared tile read by one task per
/// GPU (exercises PCIe, switch uplinks and NVLink forwards).
fn broadcast(n: usize) -> TaskGraph {
    let mut g = TaskGraph::new();
    let a = g.add_host_tile(32 * MB, true, "A");
    for i in 0..n {
        let c = g.add_data(DataInfo::host(32 * MB, true, format!("C{i}")).with_owner(i));
        g.add_task(
            TileOp::Gemm { m: 2048, n: 2048, k: 2048 },
            vec![
                TaskAccess { handle: a, access: Access::Read },
                TaskAccess { handle: c, access: Access::ReadWrite },
            ],
            format!("t{i}"),
        );
    }
    g
}

/// The exported Chrome JSON of the 2-GPU GEMM is byte-identical to the
/// checked-in golden file (and the golden is schema-valid). On a mismatch
/// the fresh export is left in the temp directory; after an intentional
/// format change, copy it over `tests/golden/two_gpu_gemm.trace.json`.
#[test]
fn golden_chrome_json_two_gpu_gemm() {
    let topo = nvlink_all_to_all(2);
    let run = SimSession::on(&topo).observe(ObsLevel::Full).run(&two_gpu_gemm());
    let json = chrome_json(run.trace());
    let golden = include_str!("golden/two_gpu_gemm.trace.json");
    if json != golden {
        let fresh = std::env::temp_dir().join("two_gpu_gemm.trace.json");
        std::fs::write(&fresh, &json).expect("fresh export written");
        panic!("chrome export drifted from the golden file; fresh export: {}", fresh.display());
    }
    let events = jsonck::validate_trace_events(&json).expect("golden is schema-valid");
    assert!(events > 0);
}

/// Every exported trace of a full DGX-1 run passes the `trace_event`
/// schema check: metadata first, complete events with non-negative
/// durations, flow events with ids and correct binding points.
#[test]
fn dgx1_export_is_schema_valid() {
    let topo = dgx1();
    let run = SimSession::on(&topo).observe(ObsLevel::Full).run(&broadcast(8));
    let json = chrome_json(run.trace());
    let events = jsonck::validate_trace_events(&json).expect("schema-valid export");
    // At least: 9 process + 9*lane thread metadata, one X per span.
    assert!(events > run.trace().len(), "{events} events for {} spans", run.trace().len());
}

/// Per-link occupancy equals the sum of span durations on that engine:
/// kernel engines against kernel spans per GPU, and utilization stays in
/// `[0, 1]` with `busy <= makespan` everywhere.
#[test]
fn link_busy_matches_span_duration_sums() {
    let topo = dgx1();
    let run = SimSession::on(&topo).observe(ObsLevel::Full).run(&broadcast(8));
    let obs = run.metrics().expect("full observability");
    let machine = Machine::new(&topo);
    for g in 0..topo.n_gpus() {
        let spans_sum: f64 = run
            .trace()
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Kernel && s.place == Place::Gpu(g as u32))
            .map(|s| s.duration())
            .sum();
        let kernel = machine.name(machine.kernel(g));
        let link = obs.link(&kernel).expect("kernel engine reported");
        assert!(
            (link.busy - spans_sum).abs() <= 1e-9 * spans_sum.max(1.0),
            "gpu{g}: busy {} != span sum {spans_sum}",
            link.busy
        );
    }
    for l in &obs.links {
        assert!((0.0..=1.0 + 1e-12).contains(&l.utilization), "{}: utilization {}", l.name, l.utilization);
        assert!(l.busy <= obs.makespan + 1e-12, "{}: busy {} > makespan {}", l.name, l.busy, obs.makespan);
        assert!(l.wait >= 0.0);
    }
}

/// The critical-path invariant holds across schedulers and heuristic
/// ablations: the chain's end equals the makespan bit-for-bit and its
/// per-kind composition plus the runtime gap tiles `[0, makespan]`.
#[test]
fn critical_path_invariant_across_configs() {
    let topo = dgx1();
    let configs = [
        RuntimeConfig::xkblas(),
        RuntimeConfig::default().with_scheduler(SchedulerKind::Dmdas),
        RuntimeConfig::default().with_scheduler(SchedulerKind::StaticOwner),
        RuntimeConfig::default().with_heuristics(Heuristics::none()),
        RuntimeConfig::default().with_heuristics(Heuristics::host_only()),
    ];
    for cfg in configs {
        let run = SimSession::on(&topo)
            .config(cfg.clone())
            .observe(ObsLevel::Full)
            .run(&broadcast(8));
        let obs = run.metrics().expect("full observability");
        let cp = &obs.critical_path;
        assert_eq!(
            cp.length.to_bits(),
            obs.makespan.to_bits(),
            "critical path {} != makespan {} under {cfg:?}",
            cp.length,
            obs.makespan
        );
        let covered: f64 = cp.by_kind.values().sum::<f64>() + cp.runtime_gap;
        assert!(
            (covered - obs.makespan).abs() <= 1e-9 * obs.makespan.max(1.0),
            "chain covers {covered} of makespan {} under {cfg:?}",
            obs.makespan
        );
    }
}

/// `ObsLevel::Off` records nothing and perturbs nothing: the outcome's
/// report is `None` while the trace stays bit-identical to a full run.
#[test]
fn off_level_is_free_and_identical() {
    let topo = dgx1();
    let g = broadcast(8);
    let off = SimSession::on(&topo).observe(ObsLevel::Off).run(&g);
    let full = SimSession::on(&topo).observe(ObsLevel::Full).run(&g);
    assert!(off.metrics().is_none());
    assert!(full.metrics().is_some());
    assert_eq!(off.outcome().makespan.to_bits(), full.outcome().makespan.to_bits());
    assert_eq!(off.trace().len(), full.trace().len());
    for (a, b) in off.trace().spans().iter().zip(full.trace().spans()) {
        assert_eq!(a.start.to_bits(), b.start.to_bits());
        assert_eq!(a.end.to_bits(), b.end.to_bits());
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.flow, b.flow);
    }
}
