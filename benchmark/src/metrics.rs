//! The metric registry: every name, unit, direction and regression bound
//! the benchmark prints. `BENCHMARK.json` at the repository root lists the
//! same metrics for the pipeline; a unit test keeps the two in step.

/// Whether a larger or a smaller value is the better one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates, speed-ups).
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, measured with tracing off on every workload.
///
/// The time bounds are wide because the machine is not quiet: on the
/// 2-vCPU KVM guest this was written on, speed drifts by ±20 % in phases
/// of several seconds, and the run-to-run spread (inter-quartile distance
/// over the median, ten runs) of `pass_s` was 3.4–12.7 %. A bound inside
/// that spread would reject changes at random.
pub const END_TO_END: &[MetricDef] = &[
    // Median wall time of one pass: the time to get the workload's answers.
    e2e("pass_s", "s", 0.25),
    // Median time from nothing to the end of the first pass: build, inputs
    // and the cold pass. Three samples a run, so the noisiest of the three.
    e2e("setup_s", "s", 0.25),
    // Peak resident set of the whole run (VmHWM).
    e2e("peak_rss_mb", "MB", 0.10),
];

use Better::{Higher, Lower};

/// Per-layer metrics, measured by the traced run's layer probes (see
/// `probes.rs`); the name's first component is the layer (crate).
pub const PER_LAYER: &[MetricDef] = &[
    layer("core.graph_build_s", "s", Lower),
    layer("core.tasks_built", "count", Lower),
    layer("core.edges_built", "count", Lower),
    layer("runtime.prep_s", "s", Lower),
    layer("runtime.sim_off_s", "s", Lower),
    layer("runtime.sim_full_s", "s", Lower),
    layer("runtime.obs_overhead_ratio", "ratio", Lower),
    layer("runtime.sim_tasks_per_s", "1/s", Higher),
    layer("runtime.tasks_run", "count", Lower),
    layer("runtime.steals", "count", Lower),
    layer("runtime.bytes_h2d", "bytes", Lower),
    layer("runtime.bytes_p2p", "bytes", Lower),
    layer("runtime.bytes_d2h", "bytes", Lower),
    layer("runtime.bound_s", "s", Lower),
    layer("runtime.attribution_s", "s", Lower),
    layer("lp.iterations", "count", Lower),
    layer("lp.us_per_iteration", "us", Lower),
    layer("runtime.par_exec_s", "s", Lower),
    layer("runtime.par_speedup", "ratio", Higher),
    layer("sim.queue_hold_ns_per_event", "ns", Lower),
    layer("sim.replicas_speedup", "ratio", Higher),
    layer("topo.gallery_build_s", "s", Lower),
    layer("topo.route_ns", "ns", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.export_s", "s", Lower),
    layer("trace.export_bytes", "bytes", Lower),
    layer("trace.breakdown_s", "s", Lower),
    layer("baselines.run_ms.blasx", "ms", Lower),
    layer("baselines.run_ms.chameleon_lapack", "ms", Lower),
    layer("baselines.run_ms.chameleon_tile", "ms", Lower),
    layer("baselines.run_ms.cublas_mg", "ms", Lower),
    layer("baselines.run_ms.cublas_xt", "ms", Lower),
    layer("baselines.run_ms.dplasma", "ms", Lower),
    layer("baselines.run_ms.slate", "ms", Lower),
    layer("baselines.run_ms.xkblas", "ms", Lower),
    layer("baselines.run_ms.xkblas_no_heuristic", "ms", Lower),
    layer("baselines.run_ms.xkblas_no_heuristic_no_topo", "ms", Lower),
    layer("baselines.self_ms.xkblas", "ms", Lower),
    layer("bench.fig_s.fig2", "s", Lower),
    layer("bench.fig_s.fig3", "s", Lower),
    layer("bench.fig_s.table2", "s", Lower),
    layer("bench.fig_s.fig4", "s", Lower),
    layer("bench.fig_s.fig5", "s", Lower),
    layer("bench.fig_s.fabric_gallery", "s", Lower),
    layer("bench.fig_s.fig6", "s", Lower),
    layer("bench.fig_s.fig7", "s", Lower),
    layer("bench.fig_s.fig8", "s", Lower),
    layer("bench.fig_s.fig9", "s", Lower),
    layer("bench.tile_search_s", "s", Lower),
    layer("bench.cache_hits", "count", Higher),
    layer("bench.cache_misses", "count", Lower),
    layer("bench.cache_hit_ratio", "ratio", Higher),
    layer("bench.render_s", "s", Lower),
    layer("serve.miss_ms_p50", "ms", Lower),
    layer("serve.miss_ms_p90", "ms", Lower),
    layer("serve.hit_us_p50", "us", Lower),
    layer("serve.hit_us_p99", "us", Lower),
    layer("serve.hit_us_p999", "us", Lower),
    layer("serve.batch_s", "s", Lower),
    layer("serve.contended_s", "s", Lower),
    layer("serve.miss_self_ms", "ms", Lower),
    layer("serve.approx_us_p50", "us", Lower),
    layer("serve.interp_served_ratio", "ratio", Higher),
    layer("serve.resident_entries", "count", Lower),
    layer("serve.hits", "count", Higher),
    layer("serve.misses", "count", Lower),
    layer("serve.coalesced", "count", Lower),
    layer("serve.interpolated", "count", Higher),
    layer("serve.batch_groups", "count", Higher),
    layer("check.schedules", "count", Higher),
    layer("check.distinct_ratio", "ratio", Higher),
    layer("check.schedules_per_s", "1/s", Higher),
    layer("check.witness_overhead_ratio", "ratio", Lower),
    layer("kernels.gemm_gflops_1024", "GFlop/s", Higher),
    layer("kernels.symm_gflops_1024", "GFlop/s", Higher),
    layer("kernels.syrk_gflops_1024", "GFlop/s", Higher),
    layer("kernels.syr2k_gflops_1024", "GFlop/s", Higher),
    layer("kernels.trmm_gflops_1024", "GFlop/s", Higher),
    layer("kernels.trsm_gflops_1024", "GFlop/s", Higher),
    layer("kernels.microkernel_peak_gflops", "GFlop/s", Higher),
    layer("kernels.gemm_fraction_of_peak", "ratio", Higher),
    layer("kernels.gemm_gflops_2048_par", "GFlop/s", Higher),
    layer("kernels.symm_gflops_2048_par", "GFlop/s", Higher),
    layer("kernels.syrk_gflops_2048_par", "GFlop/s", Higher),
    layer("kernels.syr2k_gflops_2048_par", "GFlop/s", Higher),
    layer("kernels.trmm_gflops_2048_par", "GFlop/s", Higher),
    layer("kernels.trsm_gflops_2048_par", "GFlop/s", Higher),
    layer("harness.trace_overhead_ratio", "ratio", Lower),
    layer("harness.cold_pass_ratio", "ratio", Lower),
    layer("harness.pass_spans", "count", Lower),
];

/// Looks a metric up by name in both lists.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|def| def.name == name)
}
