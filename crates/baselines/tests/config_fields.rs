//! Every `RuntimeConfig` field acts on a run: changing it alone moves the
//! makespan, the bytes moved or the steal count of a representative run.
//! A field that moves nothing is a knob the model does not have.

use xk_baselines::{build_run_graph, RunParams, XkVariant};
use xk_kernels::perfmodel::GpuModel;
use xk_kernels::Routine;
use xk_runtime::{Heuristics, RuntimeConfig, SchedulerKind, SimSession, TaskGraph};
use xk_topo::{dgx1, FabricSpec};

/// Makespan bits, H2D, P2P and D2H bytes, steals.
type Fingerprint = (u64, u64, u64, u64, usize);

fn fingerprint(topo: &FabricSpec, graph: &TaskGraph, cfg: RuntimeConfig) -> Fingerprint {
    let out = SimSession::on(topo).config(cfg).run(graph).into_outcome();
    (out.makespan.to_bits(), out.bytes_h2d, out.bytes_p2p, out.bytes_d2h, out.steals)
}

#[test]
fn every_config_field_moves_a_run() {
    let topo = dgx1();
    let params = RunParams { routine: Routine::Gemm, n: 8192, tile: 1024, data_on_device: false };
    let base = XkVariant::Full.runtime_config();
    let graph = build_run_graph(&topo, &params, &base, false);
    // Naming every field without `..` makes a new field a compile error
    // here until it gets a case below.
    let RuntimeConfig { heuristics, scheduler, window, gpu_memory, gpu_model, cache_inputs } =
        base.clone();
    assert_ne!(heuristics, Heuristics::host_only());
    assert_ne!(scheduler, SchedulerKind::RoundRobin);
    assert_ne!(window, 1);
    assert!(gpu_memory > 64 << 20);
    assert!(cache_inputs);

    let host_only = RuntimeConfig { heuristics: Heuristics::host_only(), ..base.clone() };
    let half_peak = GpuModel { peak_flops: gpu_model.peak_flops * 0.5, ..gpu_model };
    // (field, reference config, the reference with that field changed)
    let cases = [
        ("heuristics", &base, host_only.clone()),
        ("scheduler", &base, base.clone().with_scheduler(SchedulerKind::RoundRobin)),
        ("window", &base, RuntimeConfig { window: 1, ..base.clone() }),
        ("gpu_memory", &base, RuntimeConfig { gpu_memory: 64 << 20, ..base.clone() }),
        ("gpu_model", &base, RuntimeConfig { gpu_model: half_peak, ..base.clone() }),
        // Host-staged, as the `ablations` input-caching table measures it:
        // every re-read of a dropped input is a host read.
        ("cache_inputs", &host_only, RuntimeConfig { cache_inputs: false, ..host_only.clone() }),
    ];
    for (field, reference, changed) in cases {
        let before = fingerprint(&topo, &graph, reference.clone());
        let after = fingerprint(&topo, &graph, changed);
        assert_ne!(before, after, "changing `{field}` alone left the run unchanged");
    }
}
