//! The run cache and the parallel tile search must be pure wall-clock
//! optimizations: every series point and every recorded trace must match
//! the uncached serial reference bit for bit (modulo process-global matrix
//! ids in labels).

use xk_baselines::{Library, XkVariant};
use xk_bench::{best_tile_run, best_tile_run_with, sweep_series, RunCache};
use xk_kernels::Routine;
use xk_topo::dgx1;
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
            let serial = sweep_series(lib, &topo, routine, &DIMS, false, None);
            let cache = RunCache::new();
            let cached = sweep_series(lib, &topo, routine, &DIMS, false, Some(&cache));
            assert_eq!(serial.len(), cached.len());
            for (s, p) in serial.iter().zip(&cached) {
                assert_eq!(s.n, p.n);
                assert_eq!(s.tile, p.tile, "{lib:?} {routine:?} N={}", s.n);
                assert_eq!(
                    s.tflops.map(f64::to_bits),
                    p.tflops.map(f64::to_bits),
                    "{lib:?} {routine:?} N={}",
                    s.n
                );
                match (&s.result, &p.result) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
                        assert_eq!(a.bytes_h2d, b.bytes_h2d);
                        assert_eq!(a.bytes_d2h, b.bytes_d2h);
                        assert_eq!(a.bytes_p2p, b.bytes_p2p);
                    }
                    (None, None) => {}
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
