//! A library answers only for the methodologies it models. cuBLAS-XT and
//! SLATE model data on the host, so a data-on-device query comes back
//! `Unsupported` — memoised like any other outcome — and never as the
//! host-data answer.

use xk_baselines::{Library, RunError, RunParams};
use xk_kernels::Routine;
use xk_serve::{Query, ServeEngine};
use xk_topo::dgx1;

#[test]
fn stream_drivers_refuse_data_on_device_queries() {
    let engine = ServeEngine::new(dgx1());
    for library in [Library::CublasXt, Library::Slate] {
        let host = RunParams { routine: Routine::Gemm, n: 4096, tile: 1024, data_on_device: false };
        let device = RunParams { data_on_device: true, ..host };
        for _ in 0..2 {
            let answer = engine.query(Query::exact(library, device));
            assert_eq!(answer.err(), Some(RunError::Unsupported), "{library:?}");
        }
        assert!(engine.query(Query::exact(library, host)).is_ok(), "{library:?}");
    }
    let st = engine.stats();
    assert_eq!((st.misses, st.hits), (4, 2), "each refusal led once, then hit");
}
