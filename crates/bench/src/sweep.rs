//! Parameter sweeps with the paper's best-tile selection.
//!
//! Sweeps are embarrassingly parallel across `(dimension, tile)` points and
//! every simulated run is deterministic, so [`sweep_series_par`] fans the
//! grid over a rayon pool and still produces bit-identical series to the
//! serial [`sweep_series`]: candidate results are collected in candidate
//! order and reduced by the same strict-`>` fold the serial loop uses.

use std::sync::Arc;

use rayon::prelude::*;
use xk_baselines::{run, Library, RunError, RunParams, RunResult};
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
/// cache's own copy); an uncached run is wrapped once, here.
pub(crate) fn run_point(
    lib: Library,
    topo: &FabricSpec,
    params: &RunParams,
    cache: Option<&RunCache>,
) -> RunOutcome {
    match cache {
        Some(c) => c.run(lib, topo, params),
        None => run(lib, topo, params).map(Arc::new),
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

/// [`best_tile_run`] with optional memoization and parallel evaluation of
/// the tile candidates. The winner is identical to the serial pick.
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
    if candidates.is_empty() {
        // Tiny problems where every candidate exceeds n: run one fallback
        // tile and propagate *its* error — not a blanket `Unsupported`.
        let tile = n.max(1);
        return run_point(lib, topo, &params(tile), cache).map(|r| (tile, r));
    }
    let outcomes: Vec<(usize, RunOutcome)> = if parallel {
        candidates
            .par_iter()
            .map(|&tile| (tile, run_point(lib, topo, &params(tile), cache)))
            .collect()
    } else {
        candidates
            .iter()
            .map(|&tile| (tile, run_point(lib, topo, &params(tile), cache)))
            .collect()
    };
    fold_best(outcomes)
}

/// [`best_tile_run_with`] fanned over the cross-seed replica driver
/// ([`xk_sim::run_replicas`]) instead of the rayon pool: every tile
/// candidate is one replica, `threads` caps the worker count (0 = all
/// cores). Outcomes are placed by candidate index and reduced by the same
/// strict-`>` fold as the serial loop, so the winner is bit-identical.
pub fn best_tile_run_batch(
    lib: Library,
    topo: &FabricSpec,
    routine: Routine,
    n: usize,
    data_on_device: bool,
    cache: Option<&RunCache>,
    threads: usize,
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
    if candidates.is_empty() {
        let tile = n.max(1);
        return run_point(lib, topo, &params(tile), cache).map(|r| (tile, r));
    }
    let outcomes: Vec<(usize, RunOutcome)> = xk_sim::run_replicas(candidates.len(), threads, |i| {
        let tile = candidates[i];
        (tile, run_point(lib, topo, &params(tile), cache))
    });
    fold_best(outcomes)
}

/// Runs `lib` at dimension `n`, trying every candidate tile size and
/// keeping the best (§IV-A block-size selection).
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

/// Sweeps a whole series of dimensions for one `(library, routine)`.
pub fn sweep_series(
    lib: Library,
    topo: &FabricSpec,
    routine: Routine,
    dims: &[usize],
    data_on_device: bool,
) -> Vec<SeriesPoint> {
    dims.iter()
        .map(|&n| to_point(n, best_tile_run(lib, topo, routine, n, data_on_device)))
        .collect()
}

/// The parallel [`sweep_series`]: dimensions fan out across the rayon
/// pool and each dimension evaluates its tile candidates in parallel too.
/// The returned series is ordered like `dims` and bit-identical to the
/// serial sweep.
pub fn sweep_series_par(
    lib: Library,
    topo: &FabricSpec,
    routine: Routine,
    dims: &[usize],
    data_on_device: bool,
    cache: Option<&RunCache>,
) -> Vec<SeriesPoint> {
    dims.par_iter()
        .map(|&n| {
            to_point(
                n,
                best_tile_run_with(lib, topo, routine, n, data_on_device, cache, true),
            )
        })
        .collect()
}

/// The replica-driver [`sweep_series`]: dimensions fan out as one replica
/// each over [`xk_sim::run_replicas`] (`threads` = 0 uses every core), and
/// each dimension evaluates its tile candidates serially inside its
/// replica. Results are placed by dimension index, so the series is
/// ordered like `dims` and bit-identical to the serial sweep.
pub fn sweep_series_batch(
    lib: Library,
    topo: &FabricSpec,
    routine: Routine,
    dims: &[usize],
    data_on_device: bool,
    cache: Option<&RunCache>,
    threads: usize,
) -> Vec<SeriesPoint> {
    xk_sim::run_replicas(dims.len(), threads, |i| {
        let n = dims[i];
        to_point(
            n,
            best_tile_run_with(lib, topo, routine, n, data_on_device, cache, false),
        )
    })
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
        let pts = sweep_series(Library::Blasx, &topo, Routine::Gemm, &[8192, 49152], false);
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

    #[test]
    fn parallel_series_matches_serial() {
        let topo = dgx1();
        let dims = [4096, 8192];
        let s = sweep_series(Library::CublasXt, &topo, Routine::Gemm, &dims, false);
        let p = sweep_series_par(Library::CublasXt, &topo, Routine::Gemm, &dims, false, None);
        assert_eq!(s.len(), p.len());
        for (a, b) in s.iter().zip(&p) {
            assert_eq!(a.n, b.n);
            assert_eq!(a.tile, b.tile);
            assert_eq!(a.tflops.map(f64::to_bits), b.tflops.map(f64::to_bits));
        }
    }

    #[test]
    fn batched_series_matches_serial() {
        let topo = dgx1();
        let dims = [4096, 8192, 16384];
        let lib = Library::XkBlas(XkVariant::Full);
        let s = sweep_series(lib, &topo, Routine::Gemm, &dims, false);
        for threads in [1, 3] {
            let b = sweep_series_batch(lib, &topo, Routine::Gemm, &dims, false, None, threads);
            assert_eq!(s.len(), b.len());
            for (a, b) in s.iter().zip(&b) {
                assert_eq!(a.n, b.n);
                assert_eq!(a.tile, b.tile);
                assert_eq!(a.tflops.map(f64::to_bits), b.tflops.map(f64::to_bits));
            }
        }
    }

    #[test]
    fn batched_best_tile_matches_serial() {
        let topo = dgx1();
        let lib = Library::XkBlas(XkVariant::Full);
        let serial = best_tile_run(lib, &topo, Routine::Gemm, 8192, false).unwrap();
        let batch = best_tile_run_batch(lib, &topo, Routine::Gemm, 8192, false, None, 2).unwrap();
        assert_eq!(serial.0, batch.0);
        assert_eq!(serial.1.tflops.to_bits(), batch.1.tflops.to_bits());
        // The error paths agree with the serial reduction as well.
        let e = best_tile_run_batch(lib, &topo, Routine::Syrk, 512, false, None, 2);
        let se = best_tile_run(lib, &topo, Routine::Syrk, 512, false);
        assert_eq!(e.map(|(t, _)| t), se.map(|(t, _)| t));
    }
}
