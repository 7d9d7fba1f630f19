//! A `RunResult` reports one run three ways — its counters and `seconds`,
//! its trace, and its `obs` report — and every figure trusts them to
//! agree. Over DGX-1, every library configuration, every routine it
//! supports, N ∈ {4096, 8192}, tile ∈ {1024, 2048} and both methodologies,
//! every finished run obeys:
//! - each byte counter equals the bytes of its kind in the trace;
//! - the trace ends at `seconds` (to a relative 1e-12);
//! - `obs.makespan ≤ seconds`, to the bit equal where the library adds no
//!   host work around its simulation.
//!
//! The host-work rows are the regression rows: cuBLAS-MG's staging spans
//! must carry the bytes its counters add, and Chameleon LAPACK's layout
//! conversion must be in the trace. A methodology a library does not model
//! is `Unsupported`, never an answer for the other one.
//!
//! There is no "D2H is the output once" law: cuBLAS-XT's TRSM writes the
//! output back once per pivot step, and SLATE's SYRK and SYR2K return all
//! of C, not its triangle.

use xk_baselines::{run, Library, RunError, RunParams, RunResult, XkVariant};
use xk_kernels::Routine;
use xk_topo::dgx1;
use xk_trace::{Place, SpanKind};

const LIBRARIES: [Library; 10] = [
    Library::XkBlas(XkVariant::Full),
    Library::XkBlas(XkVariant::NoHeuristic),
    Library::XkBlas(XkVariant::NoHeuristicNoTopo),
    Library::Blasx,
    Library::ChameleonTile,
    Library::ChameleonLapack,
    Library::CublasMg,
    Library::CublasXt,
    Library::Dplasma,
    Library::Slate,
];

/// The stream drivers model data on the host only.
const HOST_DATA_ONLY: [Library; 2] = [Library::CublasXt, Library::Slate];

/// Every cell of the grid: each library with each routine it supports.
fn grid() -> impl Iterator<Item = (Library, RunParams)> {
    let cells = [(4096, 1024), (4096, 2048), (8192, 1024), (8192, 2048)];
    LIBRARIES.into_iter().flat_map(move |lib| {
        let routines = Routine::ALL.into_iter().filter(move |&r| lib.supports(r));
        routines.flat_map(move |routine| {
            cells.into_iter().flat_map(move |(n, tile)| {
                [false, true]
                    .map(|data_on_device| (lib, RunParams { routine, n, tile, data_on_device }))
            })
        })
    })
}

/// Checks the three accounts of `r` agree. `host_work`: the library adds
/// seconds around its simulation, which the simulation's `obs` does not
/// see.
fn check_laws(r: &RunResult, host_work: bool, what: &str) {
    let bytes = r.trace.bytes_by_kind();
    let traced = |kind| bytes.get(&kind).copied().unwrap_or(0);
    assert_eq!(r.bytes_h2d, traced(SpanKind::H2D), "{what}: H2D counter vs trace");
    assert_eq!(r.bytes_d2h, traced(SpanKind::D2H), "{what}: D2H counter vs trace");
    assert_eq!(r.bytes_p2p, traced(SpanKind::P2P), "{what}: P2P counter vs trace");
    let makespan = r.trace.makespan();
    assert!(
        (makespan - r.seconds).abs() <= 1e-12 * r.seconds,
        "{what}: trace ends at {makespan}, seconds {}",
        r.seconds
    );
    if let Some(obs) = &r.obs {
        assert!(obs.makespan <= r.seconds, "{what}: obs {} > seconds {}", obs.makespan, r.seconds);
        if !host_work {
            assert_eq!(obs.makespan.to_bits(), r.seconds.to_bits(), "{what}: obs vs seconds");
        }
    }
}

#[test]
fn every_run_reports_one_account() {
    let topo = dgx1();
    let (mut checked, mut refused) = (0, 0);
    for (lib, params) in grid() {
        let what = format!("{lib:?} {params:?}");
        let dod = params.data_on_device;
        if dod && HOST_DATA_ONLY.contains(&lib) {
            assert_eq!(run(lib, &topo, &params).err(), Some(RunError::Unsupported), "{what}");
            refused += 1;
            continue;
        }
        let r = run(lib, &topo, &params).unwrap_or_else(|e| panic!("{what}: {e}"));
        let host_work = lib == Library::ChameleonLapack || (lib == Library::CublasMg && !dod);
        check_laws(&r, host_work, &what);
        checked += 1;
    }
    // 45 (library, routine) pairs × 8 cells; the two stream drivers refuse
    // their 48 data-on-device cells.
    assert_eq!((checked, refused), (312, 48));
}

/// Host work is in the trace: Chameleon LAPACK's conversion as host spans
/// before and after the call, cuBLAS-MG's staging as the bytes it moves.
#[test]
fn host_work_is_recorded_as_spans() {
    let topo = dgx1();
    let n = 8192;
    let params = RunParams { routine: Routine::Gemm, n, tile: 2048, data_on_device: false };
    let lapack = run(Library::ChameleonLapack, &topo, &params).unwrap();
    let spans = lapack.trace.spans();
    let host: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::HostWork).collect();
    assert_eq!(host.len(), 2);
    assert!(host.iter().all(|s| s.place == Place::Host));
    let gpu_spans = spans.iter().filter(|s| s.kind != SpanKind::HostWork);
    let call_start = gpu_spans.map(|s| s.start).fold(f64::INFINITY, f64::min);
    assert_eq!(host[0].start, 0.0);
    assert!(host[0].end <= call_start && host[1].end == lapack.trace.makespan());

    let mg = run(Library::CublasMg, &topo, &params).unwrap();
    let matrix = 8 * (n * n) as u64;
    assert_eq!((mg.bytes_h2d, mg.bytes_d2h), (3 * matrix, matrix));
}
