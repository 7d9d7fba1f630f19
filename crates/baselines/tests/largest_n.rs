//! The largest `n` that `RunParams::validate` accepts, at a tile of `n`
//! and of `n / 2`, reaches every library and routine without overflow in a
//! debug build: a tile of `n` (128 TiB) is `OutOfMemory` everywhere, and
//! any other answer must be a finished run or that refusal.

use xk_baselines::{run, Library, RunError, RunParams, XkVariant};
use xk_kernels::Routine;

fn params(n: usize, tile: usize, routine: Routine) -> RunParams {
    RunParams { routine, n, tile, data_on_device: false }
}

/// The largest `n` (at `tile = n`) that validates, by bisection.
fn largest_accepted_n() -> usize {
    let valid = |n| params(n, n, Routine::Gemm).validate().is_ok();
    let (mut ok, mut bad) = (1usize, usize::MAX);
    while bad - ok > 1 {
        let mid = ok + (bad - ok) / 2;
        if valid(mid) {
            ok = mid;
        } else {
            bad = mid;
        }
    }
    ok
}

#[test]
fn the_largest_accepted_n_runs_every_library_without_overflow() {
    let n = largest_accepted_n();
    assert!(n >= 49_152, "the paper's largest N must validate, got {n}");
    assert_eq!(
        params(n + 1, n + 1, Routine::Gemm).validate(),
        Err(RunError::InvalidParams { n: n + 1, tile: n + 1 })
    );
    let topo = xk_topo::dgx1();
    let libraries = Library::FIG5.into_iter().chain([
        Library::XkBlas(XkVariant::NoHeuristic),
        Library::XkBlas(XkVariant::NoHeuristicNoTopo),
    ]);
    for lib in libraries {
        for routine in Routine::ALL.into_iter().filter(|&r| lib.supports(r)) {
            let whole = run(lib, &topo, &params(n, n, routine));
            assert_eq!(whole.err(), Some(RunError::OutOfMemory), "{lib:?} {routine:?} tile n");
            match run(lib, &topo, &params(n, n / 2, routine)) {
                Ok(r) => assert!(r.seconds > 0.0, "{lib:?} {routine:?} tile n / 2"),
                Err(e) => assert_eq!(e, RunError::OutOfMemory, "{lib:?} {routine:?} tile n / 2"),
            }
        }
    }
}
