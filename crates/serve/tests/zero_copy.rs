//! A hit is a lock, a probe and a reference-count bump: asserted with a
//! counting allocator, not assumed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Barrier};

use xk_baselines::{run, Library, RunParams, XkVariant};
use xk_kernels::Routine;
use xk_serve::{AnswerSource, Query, QueryKey, ServeEngine, ShardedCache};
use xk_topo::dgx1;

thread_local! {
    /// Bytes this thread has requested from the allocator. Per thread, so
    /// tests running beside this one (and the harness) do not pollute it;
    /// const-initialised and without a destructor, so reading it inside
    /// `alloc` never allocates itself.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down may allocate after its
        // thread-locals are gone.
        let _ = REQUESTED.try_with(|b| b.set(b.get() + layout.size() as u64));
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = REQUESTED.try_with(|b| b.set(b.get() + new_size as u64));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn requested() -> u64 {
    REQUESTED.with(Cell::get)
}

fn universe() -> Vec<Query> {
    let mut out = Vec::new();
    for library in [Library::XkBlas(XkVariant::Full), Library::CublasXt] {
        for routine in [Routine::Gemm, Routine::Syrk] {
            for n in [4096, 8192] {
                let params = RunParams {
                    routine,
                    n,
                    tile: 1024,
                    data_on_device: false,
                };
                out.push(Query::exact(library, params));
            }
        }
    }
    out
}

/// After one cold pass, warm queries — exact, and approximate ones that
/// find the key resident — allocate nothing, and answer with the very run
/// the leader stored.
#[test]
fn warm_queries_allocate_nothing() {
    const ROUNDS: usize = 250;
    let engine = ServeEngine::new(dgx1());
    let queries = universe();
    let cold: Vec<_> = queries
        .iter()
        .map(|&q| engine.query(q).expect("cold query runs"))
        .collect();
    assert!(cold.iter().all(|a| a.source == AnswerSource::Miss));
    assert!(
        cold.iter()
            .any(|a| a.exact.as_ref().unwrap().trace.len() > 1000),
        "the universe holds runs whose traces would be expensive to copy"
    );

    let before = requested();
    let mut served = 0usize;
    for round in 0..ROUNDS {
        for (q, led) in queries.iter().zip(&cold) {
            let q = if round % 2 == 0 {
                *q
            } else {
                Query::approx(q.library, q.params, 0.05)
            };
            let a = engine.query(q).expect("warm query answers");
            served += usize::from(
                a.source == AnswerSource::Hit
                    && Arc::ptr_eq(a.exact.as_ref().unwrap(), led.exact.as_ref().unwrap()),
            );
        }
    }
    let allocated = requested() - before;
    assert_eq!(
        served,
        ROUNDS * queries.len(),
        "every warm query is a shared hit"
    );
    assert_eq!(
        allocated, 0,
        "{served} warm queries requested {allocated} bytes"
    );
}

/// Once the answers are dropped the cache holds the only reference: no
/// copy stays parked in a finished flight, a batch or an answer.
#[test]
fn resident_runs_are_uniquely_owned_once_answers_drop() {
    // One herd per key straight on the cache: a leader plus parked waiters.
    const THREADS: usize = 4;
    let topo = dgx1();
    let cache = ShardedCache::new();
    let params = RunParams {
        routine: Routine::Gemm,
        n: 4096,
        tile: 1024,
        data_on_device: false,
    };
    let key = QueryKey::new(Library::CublasXt, &topo, &params);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                barrier.wait();
                let (outcome, _) =
                    cache.get_or_compute(key, || run(Library::CublasXt, &topo, &params));
                outcome.expect("the herd's key runs");
            });
        }
    });
    let resident = cache.peek(&key).expect("resident").unwrap();
    assert_eq!(Arc::strong_count(&resident), 2, "the slot and this handle");

    // Through the engine: single queries, then a batch with duplicates.
    let engine = ServeEngine::new(topo);
    let queries = universe();
    for &q in &queries {
        engine.query(q).expect("cold");
        engine.query(q).expect("warm");
    }
    let doubled: Vec<Query> = queries.iter().chain(&queries).copied().collect();
    let batch_engine = ServeEngine::new(dgx1());
    drop(batch_engine.query_batch(&doubled, 2));
    for engine in [&engine, &batch_engine] {
        assert_eq!(engine.cache().len(), queries.len());
        for q in &queries {
            let key = QueryKey::new(q.library, engine.topology(), &q.params);
            let resident = engine.cache().peek(&key).expect("resident").unwrap();
            assert_eq!(Arc::strong_count(&resident), 2, "{key:?}");
        }
    }
}
