//! A planner query is outside input: parameters that describe no run must
//! come back as an error — memoised like any other outcome — and never
//! panic the serving thread or strand a waiter.

use xk_baselines::{Library, RunError, RunParams, XkVariant};
use xk_kernels::Routine;
use xk_serve::{AnswerSource, Query, ServeEngine};
use xk_topo::dgx1;

/// One library per code path that used to fail differently: the shared
/// runtime (`assert!(tile > 0)`), the two hand-written models (division by
/// zero), and a second XKBlas variant so the batch path would group.
const LIBRARIES: [Library; 5] = [
    Library::XkBlas(XkVariant::Full),
    Library::XkBlas(XkVariant::NoHeuristic),
    Library::ChameleonTile,
    Library::CublasXt,
    Library::Slate,
];
const HOSTILE: [(usize, usize); 2] = [(0, 1024), (4096, 0)];

fn gemm(n: usize, tile: usize) -> RunParams {
    RunParams {
        routine: Routine::Gemm,
        n,
        tile,
        data_on_device: false,
    }
}

fn hostile_queries() -> Vec<Query> {
    let mut out = Vec::new();
    for (n, tile) in HOSTILE {
        for library in LIBRARIES {
            out.push(Query::exact(library, gemm(n, tile)));
            out.push(Query::approx(library, gemm(n, tile), 0.1));
        }
    }
    out
}

fn assert_invalid(q: &Query, answer: Result<xk_serve::Answer, RunError>) {
    let (n, tile) = (q.params.n, q.params.tile);
    match answer {
        Err(e) => assert_eq!(e, RunError::InvalidParams { n, tile }, "{q:?}"),
        Ok(a) => panic!("{q:?} answered {} s / {} TFlop/s", a.seconds, a.tflops),
    }
}

#[test]
fn single_queries_return_an_error_and_the_engine_stays_usable() {
    let engine = ServeEngine::new(dgx1());
    for q in hostile_queries() {
        assert_invalid(&q, engine.query(q));
    }
    // Each distinct hostile key led once and resolved its flight: the
    // error is resident, and the approximate twin hit it.
    let distinct = (HOSTILE.len() * LIBRARIES.len()) as u64;
    let st = engine.stats();
    assert_eq!((st.misses, st.hits, st.coalesced), (distinct, distinct, 0));
    assert_eq!(engine.cache().len() as u64, distinct);

    let good = engine
        .query(Query::exact(Library::CublasXt, gemm(4096, 1024)))
        .expect("a well-formed query still answers");
    assert_eq!(good.source, AnswerSource::Miss);
    assert!(good.tflops > 0.0);
}

#[test]
fn a_batch_with_hostile_members_answers_every_slot() {
    let engine = ServeEngine::new(dgx1());
    // Well-formed XKBlas variants that share a graph, interleaved with the
    // hostile ones (whose XKBlas variants would share a graph too).
    let good = [
        Query::exact(Library::XkBlas(XkVariant::Full), gemm(4096, 1024)),
        Query::exact(Library::XkBlas(XkVariant::NoHeuristic), gemm(4096, 1024)),
    ];
    let hostile = hostile_queries();
    let mut queries = vec![good[0]];
    queries.extend(&hostile);
    queries.push(good[1]);

    let answers = engine.query_batch(&queries, 2);
    assert_eq!(answers.len(), queries.len());
    let last = answers.len() - 1;
    for (i, (q, a)) in queries.iter().zip(answers).enumerate() {
        if i == 0 || i == last {
            assert!(a.expect("well-formed batch member answers").tflops > 0.0);
        } else {
            assert_invalid(q, a);
        }
    }
    // Nothing is left in flight: a repeat is served from resident entries.
    let before = engine.stats();
    for (q, a) in queries.iter().zip(engine.query_batch(&queries, 2)) {
        assert_eq!(a.is_err(), q.params.n == 0 || q.params.tile == 0);
    }
    let after = engine.stats();
    assert_eq!(after.misses, before.misses);
    assert_eq!(after.hits - before.hits, queries.len() as u64);
}
