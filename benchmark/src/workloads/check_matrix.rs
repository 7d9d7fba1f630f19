//! `check_matrix` — the CI correctness path.
//!
//! `explore_random_batch(threads = 1)` over 2 heuristic presets × {1, 2, 4,
//! 8} GPUs × {host, device} placement × 1100 exploration seeds on a seeded
//! 24-task DAG: 17 600 controlled schedules per pass. `run_controlled`
//! choice points, the `Witness` shadow execution and tiny LPs — the DES in
//! its many-tiny-replicas regime, where per-run set-up dominates and the
//! event loop barely turns.
//!
//! Check: zero oracle failures and at least 1000 distinct schedules in
//! every cell.

use xk_bench::graphgen::{build_random_dag, RandomDagSpec};
use xk_check::topo_util::subtopo;
use xk_check::{explore_random_batch, ExploreReport};
use xk_runtime::{Heuristics, RuntimeConfig, TaskGraph};
use xk_topo::FabricSpec;

use crate::harness::{Checks, Counts, Workload};
use crate::spans::Tracer;

/// Exploration seeds per cell: a little headroom above the distinct floor.
pub const SEEDS_PER_CELL: u64 = 1100;
/// Distinct schedules every cell must reach.
pub const DISTINCT_FLOOR: usize = 1000;
/// GPU counts of the matrix (sub-machines of the DGX-1).
pub const GPU_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One cell of the matrix: a scenario the seeds are explored on.
pub struct Cell {
    /// `<preset>/<gpus>gpu/<placement>`.
    pub label: String,
    /// The sub-machine.
    pub topo: FabricSpec,
    /// Runtime configuration with the cell's heuristics.
    pub cfg: RuntimeConfig,
    /// The DAG, with tiles placed as the cell says.
    pub graph: TaskGraph,
}

/// The matrix for `seed`: the DAG's shape comes from the seed, the rest is
/// fixed.
pub fn cells(seed: u64) -> Vec<Cell> {
    let full = xk_topo::dgx1();
    let mut out = Vec::new();
    for (preset, heuristics) in [("full", Heuristics::full()), ("none", Heuristics::none())] {
        let cfg = RuntimeConfig::default().with_heuristics(heuristics);
        for n_gpus in GPU_COUNTS {
            let topo = subtopo(&full, n_gpus);
            for (placement, on_device) in [("host", None), ("device", Some(n_gpus))] {
                let spec = RandomDagSpec {
                    flush: true,
                    on_device,
                    ..RandomDagSpec::default()
                };
                out.push(Cell {
                    label: format!("{preset}/{n_gpus}gpu/{placement}"),
                    topo: topo.clone(),
                    cfg: cfg.clone(),
                    graph: build_random_dag(seed, &spec),
                });
            }
        }
    }
    out
}

/// See the module docs.
pub struct CheckMatrix {
    cells: Vec<Cell>,
}

impl Workload for CheckMatrix {
    const NAME: &'static str = "check_matrix";
    type Output = Vec<ExploreReport>;

    fn setup(seed: u64, _threads: usize) -> Self {
        CheckMatrix { cells: cells(seed) }
    }

    fn pass(&mut self, tr: &Tracer) -> Vec<ExploreReport> {
        self.cells
            .iter()
            .map(|cell| {
                tr.span("check", &cell.label, || {
                    explore_random_batch(
                        &cell.graph,
                        &cell.topo,
                        &cell.cfg,
                        0..SEEDS_PER_CELL,
                        None,
                        1,
                    )
                })
            })
            .collect()
    }

    fn check(&mut self, out: Vec<ExploreReport>, checks: &mut Checks) -> Counts {
        let name = Self::NAME;
        for (cell, report) in self.cells.iter().zip(&out) {
            checks.count(report.runs as u64);
            for failure in &report.failures {
                checks.check(false, || {
                    format!(
                        "{name}: cell {} exploration seed {}: expected the oracles to pass, got: {}",
                        cell.label, failure.seed, failure.error
                    )
                });
            }
            checks.check(report.runs as u64 == SEEDS_PER_CELL, || {
                format!(
                    "{name}: cell {}: expected {SEEDS_PER_CELL} schedules, ran {}",
                    cell.label, report.runs
                )
            });
            checks.check(report.distinct >= DISTINCT_FLOOR, || {
                format!(
                    "{name}: cell {}: expected at least {DISTINCT_FLOOR} distinct schedules, got {}",
                    cell.label, report.distinct
                )
            });
        }
        vec![
            ("schedules", out.iter().map(|r| r.runs as u64).sum()),
            (
                "distinct_schedules",
                out.iter().map(|r| r.distinct as u64).sum(),
            ),
            (
                "graph_tasks",
                self.cells.iter().map(|c| c.graph.len() as u64).sum(),
            ),
            (
                "graph_edges",
                self.cells.iter().map(|c| c.graph.n_edges() as u64).sum(),
            ),
        ]
    }
}
