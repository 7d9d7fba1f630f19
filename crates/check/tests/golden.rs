//! Every `ExploreReport` of the `check_matrix` benchmark pinned bit for
//! bit: all 16 cells (2 heuristic presets × {1, 2, 4, 8} GPUs × {host,
//! device} placement) of DAG seed 1 × exploration seeds `0..1100`, clean
//! and under the injected stale-read bug. Each report folds `runs`,
//! `distinct`, the `min_makespan` bits and every failure's seed, choice
//! string and error text into one digest, recorded before the witness
//! was prepared once per scenario. Any change to a schedule, a controller
//! stream, an oracle verdict or an error message moves it.

use xk_check::graphgen::{build_random_dag, RandomDagSpec};
use xk_check::topo_util::subtopo;
use xk_check::{explore_random_batch, ExploreReport};
use xk_runtime::cache::CoherenceMutation;
use xk_runtime::{Heuristics, RuntimeConfig};

/// Folds `word` into `acc` (FNV-1a over its eight bytes).
fn fold(acc: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(acc, |a, &b| (a ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Digest of every field of `report`.
fn report_digest(report: &ExploreReport) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325;
    acc = fold(acc, report.runs as u64);
    acc = fold(acc, report.distinct as u64);
    acc = fold(acc, report.min_makespan.map_or(u64::MAX, f64::to_bits));
    for f in &report.failures {
        acc = fold(acc, f.seed);
        acc = fold(acc, f.choices.len() as u64);
        acc = f.choices.iter().fold(acc, |a, &c| fold(a, u64::from(c)));
        acc = f.error.bytes().fold(acc, |a, b| fold(a, u64::from(b)));
    }
    acc
}

/// Digest of the 16-cell matrix, in `check_matrix`'s cell order.
fn matrix_digest(mutation: Option<CoherenceMutation>) -> u64 {
    let full = xk_topo::dgx1();
    let mut acc = 0u64;
    for heuristics in [Heuristics::full(), Heuristics::none()] {
        let cfg = RuntimeConfig::default().with_heuristics(heuristics);
        for n_gpus in [1, 2, 4, 8] {
            let topo = subtopo(&full, n_gpus);
            for on_device in [None, Some(n_gpus)] {
                let spec = RandomDagSpec { flush: true, on_device, ..RandomDagSpec::default() };
                let graph = build_random_dag(1, &spec);
                let report = explore_random_batch(&graph, &topo, &cfg, 0..1100, mutation, 0);
                acc = acc.rotate_left(5) ^ report_digest(&report);
            }
        }
    }
    acc
}

#[test]
fn clean_matrix_reports_are_pinned() {
    assert_eq!(matrix_digest(None), 0x9ee3_e146_8307_9c77);
}

#[test]
fn stale_read_matrix_reports_are_pinned() {
    assert_eq!(matrix_digest(Some(CoherenceMutation::StaleRead)), 0x128a_030b_9683_9627);
}
