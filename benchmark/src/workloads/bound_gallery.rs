//! `bound_gallery` — the optimality-gap oracle across the fabric gallery.
//!
//! `SimSession::run_bounded` for 4 gallery fabrics × 6 routines × 3 XKBlas
//! variants at N = 12288, tile 2048, plus the Shapley link attribution
//! (`attribute_links(…, 8, seed)`) of GEMM on every fabric: 22 416 simplex
//! iterations per pass. The only path where `xk-lp` and `bound.rs`
//! dominate (the 16-GPU NVSwitch fabric alone is two thirds of the pass);
//! an LP speed-up must show here and leave `check_matrix` unmoved.
//!
//! Check: `0 ≤ bound ≤ makespan` for every run, attribution values sum to
//! the mesh value, and `lp_iterations` and the bound values repeat exactly.

use xk_baselines::{build_run_graph, RunParams, XkVariant};
use xk_kernels::Routine;
use xk_runtime::SimSession;
use xk_topo::FabricSpec;

use super::fnv1a;
use crate::harness::{Checks, Counts, Workload};
use crate::spans::Tracer;

/// Matrix dimension and tile of every bounded run.
pub const N: usize = 12288;
/// Tile size of every bounded run.
pub const TILE: usize = 2048;
/// Sampled permutations of the link attribution.
pub const ATTRIBUTION_SAMPLES: usize = 8;
const VARIANTS: [XkVariant; 3] = [
    XkVariant::Full,
    XkVariant::NoHeuristic,
    XkVariant::NoHeuristicNoTopo,
];
/// Same tolerance as xk-check's bound oracle (the LP's own).
const BOUND_RTOL: f64 = xk_check::BOUND_RTOL;

/// The standard square instance of `routine` at the workload's size.
pub fn params(routine: Routine) -> RunParams {
    RunParams {
        routine,
        n: N,
        tile: TILE,
        data_on_device: false,
    }
}

/// One bounded run.
pub struct Bounded {
    label: String,
    makespan: f64,
    bound: f64,
    lp_iterations: usize,
}

/// One fabric's GEMM link attribution.
pub struct Attributed {
    fabric: String,
    mesh_value: f64,
    links_sum: f64,
    evaluations: usize,
}

/// What one pass produced.
pub struct Output {
    bounded: Vec<Bounded>,
    attributed: Vec<Attributed>,
}

/// See the module docs.
pub struct BoundGallery {
    fabrics: Vec<FabricSpec>,
    seed: u64,
}

impl Workload for BoundGallery {
    const NAME: &'static str = "bound_gallery";
    type Output = Output;

    fn setup(seed: u64, _threads: usize) -> Self {
        BoundGallery {
            fabrics: xk_topo::fabrics::gallery(),
            seed,
        }
    }

    fn pass(&mut self, tr: &Tracer) -> Output {
        let mut out = Output {
            bounded: Vec::new(),
            attributed: Vec::new(),
        };
        for topo in &self.fabrics {
            for routine in Routine::ALL {
                for variant in VARIANTS {
                    let cfg = variant.runtime_config();
                    let label = format!("{} {} {variant:?}", topo.name(), routine.name());
                    let graph = tr.span("core", "graph_build", || {
                        build_run_graph(topo, &params(routine), &cfg, false)
                    });
                    let run = tr.span("runtime", &format!("run_bounded {label}"), || {
                        SimSession::on(topo).config(cfg).run_bounded(&graph)
                    });
                    let bound = run.lower_bound().expect("a bounded run carries its bound");
                    out.bounded.push(Bounded {
                        label,
                        makespan: run.outcome().makespan,
                        bound: bound.total,
                        lp_iterations: bound.lp_iterations,
                    });
                }
            }
            let cfg = XkVariant::Full.runtime_config();
            let graph = tr.span("core", "graph_build", || {
                build_run_graph(topo, &params(Routine::Gemm), &cfg, false)
            });
            let a = tr.span(
                "runtime",
                &format!("attribute_links {}", topo.name()),
                || {
                    SimSession::on(topo).config(cfg).attribute_links(
                        &graph,
                        ATTRIBUTION_SAMPLES,
                        self.seed,
                    )
                },
            );
            out.attributed.push(Attributed {
                fabric: topo.name().to_string(),
                mesh_value: a.mesh_value(),
                links_sum: a.links.iter().map(|l| l.value).sum(),
                evaluations: a.evaluations,
            });
        }
        out
    }

    fn check(&mut self, out: Output, checks: &mut Checks) -> Counts {
        let name = Self::NAME;
        for b in &out.bounded {
            checks.check(
                b.bound >= 0.0 && b.makespan >= b.bound * (1.0 - BOUND_RTOL),
                || {
                    format!(
                    "{name}: {}: expected 0 <= bound <= makespan, got bound {:e}, makespan {:e}",
                    b.label, b.bound, b.makespan
                )
                },
            );
        }
        for a in &out.attributed {
            let scale = a.mesh_value.abs().max(1.0);
            checks.check((a.links_sum - a.mesh_value).abs() <= 1e-6 * scale, || {
                format!(
                    "{name}: {}: expected the link values to sum to the mesh value {}, got {}",
                    a.fabric, a.mesh_value, a.links_sum
                )
            });
        }
        let bound_bits: Vec<u8> = out
            .bounded
            .iter()
            .flat_map(|b| b.bound.to_bits().to_le_bytes())
            .collect();
        vec![
            ("bounded_runs", out.bounded.len() as u64),
            (
                "lp_iterations",
                out.bounded.iter().map(|b| b.lp_iterations as u64).sum(),
            ),
            ("bounds_digest", fnv1a(&bound_bits)),
            (
                "attribution_evaluations",
                out.attributed.iter().map(|a| a.evaluations as u64).sum(),
            ),
        ]
    }
}
