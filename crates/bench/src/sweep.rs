//! Parameter sweeps with the paper's best-tile selection.
//!
//! The search runs the largest candidate tile first and skips every smaller
//! one whose [`Library::tflops_ceiling`] lies below that run's TFlop/s: its
//! kernels alone are too slow to win or tie. Without the memo cache, each
//! remaining candidate runs under a makespan budget, the time the largest
//! tile's TFlop/s allows ([`run_within`]): the simulation stops as soon as
//! a lower bound on its makespan passes the budget, and such a provable
//! loser (`RunError::OverBudget`) is never picked or reported — the largest
//! tile's finished run beats it. The cache memoizes whole runs only, so
//! cached searches run every survivor to the end. Every simulated run is
//! deterministic, so evaluating the rest on several threads
//! ([`best_tile_run_with`] with `parallel`) still picks the same winner as
//! the serial loop: candidate results are placed in candidate order and
//! reduced by one strict-`>` fold. The winner, and every result, is the one
//! trying every candidate would give.

use std::sync::Arc;

use xk_baselines::{run_within, Library, RunError, RunParams, RunResult};
use xk_kernels::Routine;
use xk_serve::RunOutcome;
use xk_topo::FabricSpec;

use crate::runcache::RunCache;

/// Matrix dimensions of the paper's x-axes (Fig. 3–5: 4096 … 49152).
pub const PAPER_DIMS: [usize; 7] = [4096, 8192, 16384, 24576, 32768, 40960, 49152];

/// A reduced sweep for quick runs / CI.
pub const PAPER_DIMS_SMALL: [usize; 4] = [4096, 8192, 16384, 24576];

/// One point of a performance series.
#[derive(Clone, Debug)]
pub struct SeriesPoint {
    /// Matrix dimension.
    pub n: usize,
    /// Best-performing tile size among the library's candidates.
    pub tile: usize,
    /// Achieved TFlop/s (None when the library errors at this point, e.g.
    /// BLASX out-of-memory above N = 45000).
    pub tflops: Option<f64>,
    /// The run with the winning tile, shared with the memo cache when one
    /// was used (None on error).
    pub result: Option<Arc<RunResult>>,
}

/// One run, through the memo cache when one is given (the answer is the
/// cache's own copy); an uncached run is wrapped once, here. The cache
/// memoizes whole runs only, so `budget` (see [`run_within`]) binds
/// uncached runs alone.
pub(crate) fn run_point(
    lib: Library,
    topo: &FabricSpec,
    params: &RunParams,
    cache: Option<&RunCache>,
    budget: f64,
) -> RunOutcome {
    match cache {
        Some(c) => c.run(lib, topo, params),
        None => run_within(lib, topo, params, budget).map(Arc::new),
    }
}

/// Keeps the error that tells the caller the most (the workspace-wide
/// [`RunError::most_informative`] rule: a concrete resource failure beats
/// the catch-all `Unsupported`).
fn more_informative(seen: Option<RunError>, new: RunError) -> Option<RunError> {
    Some(match seen {
        Some(old) => old.most_informative(new),
        None => new,
    })
}

/// Reduces candidate outcomes (in candidate order) to the winning
/// `(tile, result)`. The strict `>` keeps the first tile on ties, exactly
/// like the serial loop, so serial and parallel evaluation agree bitwise.
fn fold_best(outcomes: Vec<(usize, RunOutcome)>) -> Result<(usize, Arc<RunResult>), RunError> {
    let mut best: Option<(usize, Arc<RunResult>)> = None;
    let mut err: Option<RunError> = None;
    for (tile, outcome) in outcomes {
        match outcome {
            Ok(r) => {
                let better = best
                    .as_ref()
                    .map(|(_, b)| r.tflops > b.tflops)
                    .unwrap_or(true);
                if better {
                    best = Some((tile, r));
                }
            }
            Err(e) => err = more_informative(err, e),
        }
    }
    best.ok_or_else(|| err.unwrap_or(RunError::Unsupported))
}

/// [`best_tile_run`] with optional memoization and, with `parallel`, the
/// surviving candidates evaluated as replicas on every core
/// ([`xk_sim::run_replicas`]). The winner is identical to the serial pick.
pub fn best_tile_run_with(
    lib: Library,
    topo: &FabricSpec,
    routine: Routine,
    n: usize,
    data_on_device: bool,
    cache: Option<&RunCache>,
    parallel: bool,
) -> Result<(usize, Arc<RunResult>), RunError> {
    let params = |tile: usize| RunParams {
        routine,
        n,
        tile,
        data_on_device,
    };
    let candidates: Vec<usize> = lib
        .tile_candidates()
        .iter()
        .copied()
        .filter(|&t| t <= n)
        .collect();
    let Some((&largest, rest)) = candidates.split_last() else {
        // Tiny problems where every candidate exceeds n: run one fallback
        // tile and propagate *its* error — not a blanket `Unsupported`.
        let tile = n.max(1);
        return run_point(lib, topo, &params(tile), cache, f64::INFINITY).map(|r| (tile, r));
    };
    // The largest tile first: a smaller one whose throughput ceiling is
    // below that run's TFlop/s can neither win nor tie, so it is not run.
    // The 1e-9 slack keeps a candidate in the race when rounding alone
    // puts its ceiling under that result.
    let first = run_point(lib, topo, &params(largest), cache, f64::INFINITY);
    let to_beat = first.as_ref().map_or(0.0, |r| r.tflops);
    let survivors: Vec<usize> = rest
        .iter()
        .copied()
        .filter(|&t| lib.tflops_ceiling(topo, t).is_none_or(|c| c * (1.0 + 1e-9) >= to_beat))
        .collect();
    // A survivor reaches `to_beat` only within the makespan that rate
    // takes (infinite when the largest tile failed); past it, its run
    // stops as `OverBudget`. The fold never reports that error: the
    // largest tile's run is then a finished winner.
    let budget = routine.flops_square(n as u64) / (to_beat * 1e12);
    let threads = if parallel { 0 } else { 1 };
    let mut outcomes = xk_sim::run_replicas(survivors.len(), threads, |i| {
        let tile = survivors[i];
        (tile, run_point(lib, topo, &params(tile), cache, budget))
    });
    outcomes.push((largest, first));
    fold_best(outcomes)
}

/// Runs `lib` at dimension `n` and keeps the best candidate tile size
/// (§IV-A block-size selection). Candidates whose
/// [`Library::tflops_ceiling`] is below the largest tile's result are
/// skipped; they could not have won, so the answer is the one trying every
/// candidate gives.
pub fn best_tile_run(
    lib: Library,
    topo: &FabricSpec,
    routine: Routine,
    n: usize,
    data_on_device: bool,
) -> Result<(usize, Arc<RunResult>), RunError> {
    best_tile_run_with(lib, topo, routine, n, data_on_device, None, false)
}

fn to_point(n: usize, outcome: Result<(usize, Arc<RunResult>), RunError>) -> SeriesPoint {
    match outcome {
        Ok((tile, r)) => SeriesPoint {
            n,
            tile,
            tflops: Some(r.tflops),
            result: Some(r),
        },
        Err(_) => SeriesPoint {
            n,
            tile: 0,
            tflops: None,
            result: None,
        },
    }
}

/// Sweeps a whole series of dimensions for one `(library, routine)`,
/// through the memo cache when one is given.
pub fn sweep_series(
    lib: Library,
    topo: &FabricSpec,
    routine: Routine,
    dims: &[usize],
    data_on_device: bool,
    cache: Option<&RunCache>,
) -> Vec<SeriesPoint> {
    dims.iter()
        .map(|&n| {
            to_point(
                n,
                best_tile_run_with(lib, topo, routine, n, data_on_device, cache, false),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xk_baselines::XkVariant;
    use xk_topo::dgx1;

    #[test]
    fn best_tile_is_from_candidate_set() {
        let topo = dgx1();
        let (tile, r) =
            best_tile_run(Library::XkBlas(XkVariant::Full), &topo, Routine::Gemm, 8192, false)
                .unwrap();
        assert!(Library::XkBlas(XkVariant::Full)
            .tile_candidates()
            .contains(&tile));
        assert!(r.tflops > 1.0);
    }

    #[test]
    fn series_reports_oom_as_none() {
        let topo = dgx1();
        let pts = sweep_series(Library::Blasx, &topo, Routine::Gemm, &[8192, 49152], false, None);
        assert!(pts[0].tflops.is_some());
        assert!(pts[1].tflops.is_none());
    }

    #[test]
    fn small_problem_fallback_tile() {
        let topo = dgx1();
        let (tile, _) =
            best_tile_run(Library::XkBlas(XkVariant::Full), &topo, Routine::Gemm, 512, false)
                .unwrap();
        assert_eq!(tile, 512);
    }

    #[test]
    fn oom_is_reported_not_unsupported() {
        // BLASX runs out of aggregate device memory at N = 49152; the sweep
        // must surface that, not the catch-all `Unsupported`.
        let topo = dgx1();
        let err = best_tile_run(Library::Blasx, &topo, Routine::Gemm, 49152, false).unwrap_err();
        assert_eq!(err, RunError::OutOfMemory);
    }

    #[test]
    fn unsupported_routine_is_reported() {
        let topo = dgx1();
        let err = best_tile_run(Library::Dplasma, &topo, Routine::Syrk, 8192, false).unwrap_err();
        assert_eq!(err, RunError::Unsupported);
        // The small-problem fallback path propagates the run's real error
        // as well.
        let err = best_tile_run(Library::Dplasma, &topo, Routine::Syrk, 512, false).unwrap_err();
        assert_eq!(err, RunError::Unsupported);
    }

    #[test]
    fn parallel_and_cached_match_serial() {
        let topo = dgx1();
        let cache = RunCache::new();
        let lib = Library::XkBlas(XkVariant::Full);
        let serial = best_tile_run(lib, &topo, Routine::Gemm, 8192, false).unwrap();
        let par = best_tile_run_with(lib, &topo, Routine::Gemm, 8192, false, Some(&cache), true)
            .unwrap();
        assert_eq!(serial.0, par.0);
        assert_eq!(serial.1.tflops.to_bits(), par.1.tflops.to_bits());
        assert_eq!(serial.1.bytes_h2d, par.1.bytes_h2d);
        // A second cached evaluation answers every candidate from the memo.
        let again = best_tile_run_with(lib, &topo, Routine::Gemm, 8192, false, Some(&cache), true)
            .unwrap();
        assert_eq!(again.1.seconds.to_bits(), par.1.seconds.to_bits());
        let s = cache.stats();
        assert_eq!(s.hits, s.misses);
    }
}
