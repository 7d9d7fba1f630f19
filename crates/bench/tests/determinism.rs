//! The run cache and the parallel tile search must be pure wall-clock
//! optimizations: every series point and every recorded trace must match
//! the uncached serial reference bit for bit (modulo process-global matrix
//! ids in labels).

use std::sync::Arc;

use xk_baselines::{Library, RunError, RunParams, RunResult, XkVariant};
use xk_bench::{best_tile_run, best_tile_run_with, fmt_tflops, RunCache};
use xk_kernels::Routine;
use xk_topo::{dgx1, fabrics, FabricSpec};
use xk_trace::Trace;

const DIMS: [usize; 2] = [4096, 8192];

/// Matrix handles are labelled `M<id>(i,j)` with a process-wide counter,
/// so the id differs between two otherwise identical runs: strip the
/// digit run after each `M` before comparing labels.
fn normalize(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut chars = label.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c == 'M' {
            while matches!(chars.peek(), Some(d) if d.is_ascii_digit()) {
                chars.next();
            }
        }
    }
    out
}

fn assert_traces_identical(a: &Trace, b: &Trace) {
    assert_eq!(a.len(), b.len(), "span counts differ");
    for (sa, sb) in a.spans().iter().zip(b.spans()) {
        assert_eq!(sa.place, sb.place);
        assert_eq!(sa.lane, sb.lane);
        assert_eq!(sa.kind, sb.kind);
        assert_eq!(sa.start.to_bits(), sb.start.to_bits());
        assert_eq!(sa.end.to_bits(), sb.end.to_bits());
        assert_eq!(sa.bytes, sb.bytes);
        assert_eq!(normalize(a.label(sa.label)), normalize(b.label(sb.label)));
    }
}

#[test]
fn cached_sweep_matches_uncached_bitwise() {
    let topo = dgx1();
    for lib in [Library::XkBlas(XkVariant::Full), Library::CublasXt] {
        for routine in [Routine::Gemm, Routine::Syr2k] {
            if !lib.supports(routine) {
                continue;
            }
            let cache = RunCache::new();
            for n in DIMS {
                let serial = best_tile_run_with(lib, &topo, routine, n, false, None, false);
                let cached = best_tile_run_with(lib, &topo, routine, n, false, Some(&cache), false);
                match (serial, cached) {
                    (Ok((s_tile, a)), Ok((p_tile, b))) => {
                        let what = format!("{lib:?} {routine:?} N={n}");
                        assert_eq!(s_tile, p_tile, "{what}");
                        assert_eq!(a.tflops.to_bits(), b.tflops.to_bits(), "{what}");
                        assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
                        assert_eq!(a.bytes_h2d, b.bytes_h2d);
                        assert_eq!(a.bytes_d2h, b.bytes_d2h);
                        assert_eq!(a.bytes_p2p, b.bytes_p2p);
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    _ => panic!("uncached and cached disagree on success"),
                }
            }
        }
    }
}

#[test]
fn traces_identical_serial_vs_parallel_and_cached() {
    let topo = dgx1();
    let lib = Library::XkBlas(XkVariant::Full);
    let (serial_tile, serial) = best_tile_run(lib, &topo, Routine::Gemm, 4096, false).unwrap();
    let cache = RunCache::new();
    let (par_tile, par) =
        best_tile_run_with(lib, &topo, Routine::Gemm, 4096, false, Some(&cache), true).unwrap();
    assert_eq!(serial_tile, par_tile);
    assert_traces_identical(&serial.trace, &par.trace);
    // The memoized replay hands back the very same trace.
    let (_, cached) =
        best_tile_run_with(lib, &topo, Routine::Gemm, 4096, false, Some(&cache), true).unwrap();
    assert!(cache.stats().hits > 0, "second evaluation must hit the memo");
    assert!(std::sync::Arc::ptr_eq(&par, &cached), "shared, not copied");
}

/// The search without pruning: every candidate tile run, the first strictly
/// best kept.
fn every_candidate(
    lib: Library,
    topo: &FabricSpec,
    routine: Routine,
    n: usize,
    data_on_device: bool,
    cache: &RunCache,
) -> (usize, Arc<RunResult>) {
    let mut best: Option<(usize, Arc<RunResult>)> = None;
    for &tile in lib.tile_candidates().iter().filter(|&&t| t <= n) {
        let params = RunParams { routine, n, tile, data_on_device };
        let r = cache.run_within(lib, topo, &params, f64::INFINITY).unwrap();
        if best.as_ref().is_none_or(|(_, b)| r.tflops > b.tflops) {
            best = Some((tile, r));
        }
    }
    best.expect("some candidate runs")
}

fn assert_same_pick(got: &(usize, Arc<RunResult>), want: &(usize, Arc<RunResult>), what: &str) {
    assert_eq!(got.0, want.0, "{what}: tile");
    assert_eq!(got.1.seconds.to_bits(), want.1.seconds.to_bits(), "{what}: seconds");
    assert_eq!(got.1.tflops.to_bits(), want.1.tflops.to_bits(), "{what}: tflops");
    assert_eq!(
        (got.1.bytes_h2d, got.1.bytes_d2h, got.1.bytes_p2p),
        (want.1.bytes_h2d, want.1.bytes_d2h, want.1.bytes_p2p),
        "{what}: bytes"
    );
    assert_eq!(got.1.trace.len(), want.1.trace.len(), "{what}: spans");
}

/// Both searches skip tiles by their ceiling and budget every survivor,
/// which stops the provable losers mid-run; the cached one keeps that
/// verdict instead of a run.
#[test]
fn pruned_search_equals_trying_every_candidate() {
    let libs = Library::FIG5.into_iter().chain([
        Library::XkBlas(XkVariant::NoHeuristic),
        Library::XkBlas(XkVariant::NoHeuristicNoTopo),
    ]);
    // A one-GPU box reaches its ceiling with data on device, so the small
    // tiles really are skipped there.
    let topos = [dgx1(), fabrics::pcie_box(4), fabrics::pcie_box(1)];
    let cache = RunCache::new();
    let (mut candidates, mut simulated) = (0, 0);
    for lib in libs {
        for routine in Routine::ALL.into_iter().filter(|&r| lib.supports(r)) {
            for topo in &topos {
                for n in [4096, 8192] {
                    for dod in [false, true] {
                        let what = format!("{lib:?} {routine:?} {} n={n} dod={dod}", topo.name());
                        let before = cache.stats().misses;
                        let serial = best_tile_run_with(lib, topo, routine, n, dod, Some(&cache), false);
                        if serial.as_ref().err() == Some(&RunError::Unsupported) {
                            // A methodology the library does not model: every search says so.
                            for (cache, parallel) in [(Some(&cache), true), (None, false), (None, true)] {
                                let got = best_tile_run_with(lib, topo, routine, n, dod, cache, parallel);
                                assert_eq!(got.err(), Some(RunError::Unsupported), "{what}");
                            }
                            continue;
                        }
                        let serial = serial.unwrap();
                        simulated += cache.stats().misses - before;
                        candidates += lib.tile_candidates().iter().filter(|&&t| t <= n).count() as u64;
                        let reference = every_candidate(lib, topo, routine, n, dod, &cache);
                        assert_same_pick(&serial, &reference, &what);
                        for (cache, parallel) in [(Some(&cache), true), (None, false), (None, true)] {
                            let got = best_tile_run_with(lib, topo, routine, n, dod, cache, parallel)
                                .unwrap();
                            let how = format!("{what} cached={} parallel={parallel}", cache.is_some());
                            assert_same_pick(&got, &reference, &how);
                        }
                    }
                }
            }
        }
    }
    assert!(simulated < candidates, "nothing pruned: {simulated} of {candidates} simulated");
}

#[test]
fn large_uncached_search_stops_the_losing_tile_1024_run() {
    // At N = 49152 the NoHeuristic GEMM's tile-4096 run (50.88 TFlop/s,
    // Fig. 3) is below what eight GPUs can reach with 1024 tiles (52.42),
    // so tile 1024 runs — under a budget it overruns (it reaches 35.05).
    let (lib, topo) = (Library::XkBlas(XkVariant::NoHeuristic), dgx1());
    let (tile, r) = best_tile_run_with(lib, &topo, Routine::Gemm, 49152, false, None, false).unwrap();
    assert_eq!(tile, 4096);
    assert_eq!(fmt_tflops(Some(r.tflops)), "50.88");
    assert!(lib.tflops_ceiling(&topo, 1024).unwrap() > r.tflops, "tile 1024 must survive the ceiling");
}

#[test]
fn large_cached_search_stops_the_losing_tile_1024_run() {
    // The cached twin of the search above: tile 1024 still survives the
    // ceiling and runs under the budget, and the cache keeps only the proof
    // that it loses. An unbudgeted lookup then runs it to the end.
    let (lib, topo) = (Library::XkBlas(XkVariant::NoHeuristic), dgx1());
    let cache = RunCache::new();
    let (tile, r) =
        best_tile_run_with(lib, &topo, Routine::Gemm, 49152, false, Some(&cache), false).unwrap();
    assert_eq!(tile, 4096);
    assert_eq!(fmt_tflops(Some(r.tflops)), "50.88");
    let params = RunParams { routine: Routine::Gemm, n: 49152, tile: 1024, data_on_device: false };
    let key = xk_serve::QueryKey::new(lib, &topo, &params);
    assert!(cache.peek(&key).is_none(), "the losing run is not resident");
    let full = cache.run_within(lib, &topo, &params, f64::INFINITY).unwrap();
    assert_eq!(fmt_tflops(Some(full.tflops)), "35.05");
}

#[test]
fn large_gemm_search_skips_the_tile_1024_run() {
    // At N = 49152 the tile-4096 run (54.53 TFlop/s, Fig. 3) beats what
    // eight GPUs can reach with 1024 tiles (52.42), so only two of the three
    // candidates are simulated.
    let cache = RunCache::new();
    let lib = Library::XkBlas(XkVariant::Full);
    let (tile, r) = best_tile_run_with(lib, &dgx1(), Routine::Gemm, 49152, false, Some(&cache), false)
        .unwrap();
    assert_eq!(tile, 4096);
    assert_eq!(fmt_tflops(Some(r.tflops)), "54.53");
    assert_eq!(cache.stats().misses, 2);
}
