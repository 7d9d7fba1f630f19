//! Single-flight admission, shard spread, and batched query execution.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use xk_baselines::{run, Library, RunError, RunParams, RunResult, XkVariant};
use xk_kernels::Routine;
use xk_serve::{Query, QueryKey, ServeEngine, ShardedCache, Source};
use xk_topo::{builders, dgx1};

fn gemm_params(n: usize, tile: usize) -> RunParams {
    RunParams {
        routine: Routine::Gemm,
        n,
        tile,
        data_on_device: false,
    }
}

/// N threads race on one cold key: the probe observes exactly one DES
/// execution and every caller gets the leader's result itself — the same
/// allocation, not an equal copy.
#[test]
fn thundering_herd_runs_one_simulation() {
    const THREADS: usize = 8;
    let topo = dgx1();
    let cache = ShardedCache::new();
    let params = gemm_params(8192, 2048);
    let key = QueryKey::new(Library::CublasXt, &topo, &params);
    let executions = AtomicUsize::new(0);
    let barrier = Barrier::new(THREADS);

    let outcomes: Vec<(Arc<RunResult>, Source)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let (outcome, source) = cache.get_or_compute(key, || {
                        executions.fetch_add(1, Ordering::SeqCst);
                        run(Library::CublasXt, &topo, &params)
                    });
                    (outcome.unwrap(), source)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(
        executions.load(Ordering::SeqCst),
        1,
        "single flight: the herd must cost exactly one simulation"
    );
    let resident = cache.peek(&key).expect("resident").unwrap();
    assert!(
        outcomes.iter().all(|(r, _)| Arc::ptr_eq(r, &resident)),
        "leader, waiters and late hits must all share the resident run"
    );
    assert_eq!(
        outcomes.iter().filter(|(_, s)| *s == Source::Miss).count(),
        1,
        "exactly one caller led"
    );
    let st = cache.stats();
    assert_eq!(st.misses, 1);
    assert_eq!(st.hits + st.coalesced, THREADS as u64 - 1);
    assert_eq!(cache.len(), 1);
}

/// Concurrent writers of distinct keys land every entry correctly.
#[test]
fn concurrent_distinct_keys_all_land() {
    let topo = dgx1();
    let cache = ShardedCache::new();
    let dims = [4096usize, 6144, 8192, 10240, 12288, 16384];
    std::thread::scope(|s| {
        for &n in &dims {
            let cache = &cache;
            let topo = &topo;
            s.spawn(move || {
                let params = gemm_params(n, 2048);
                let key = QueryKey::new(Library::CublasXt, topo, &params);
                cache
                    .get_or_compute(key, || run(Library::CublasXt, topo, &params))
                    .0
                    .unwrap();
            });
        }
    });
    assert_eq!(cache.len(), dims.len());
    assert_eq!(cache.stats().misses, dims.len() as u64);
    // Every entry is individually retrievable and matches a fresh run.
    for &n in &dims {
        let params = gemm_params(n, 2048);
        let key = QueryKey::new(Library::CublasXt, &topo, &params);
        let cached = cache.peek(&key).expect("resident").unwrap();
        let fresh = run(Library::CublasXt, &topo, &params).unwrap();
        assert_eq!(cached.seconds.to_bits(), fresh.seconds.to_bits());
    }
}

/// Distinct `(topology, library, routine)` families spread over many
/// shards, while every `(N, tile)` point of one family shares its shard.
#[test]
fn families_spread_over_shards() {
    let topos = [
        dgx1(),
        builders::pcie_only(8),
        builders::nvlink_all_to_all(8),
        builders::summit_node(),
        builders::nvlink_ring(8),
    ];
    let cache = ShardedCache::new();
    let mut family_shards = std::collections::HashSet::new();
    let mut families = 0usize;
    for topo in &topos {
        for lib in Library::FIG5 {
            for routine in [Routine::Gemm, Routine::Syrk, Routine::Trsm] {
                if !lib.supports(routine) {
                    continue;
                }
                families += 1;
                let mut shard = None;
                for n in [4096usize, 8192, 16384] {
                    for tile in [1024usize, 2048] {
                        let key = QueryKey::new(
                            lib,
                            topo,
                            &RunParams {
                                routine,
                                n,
                                tile,
                                data_on_device: false,
                            },
                        );
                        let idx = cache.shard_index(&key);
                        assert_eq!(
                            *shard.get_or_insert(idx),
                            idx,
                            "one family must stay on one shard"
                        );
                    }
                }
                family_shards.insert((topo.fingerprint(), shard.unwrap()));
            }
        }
    }
    // With 64 stripes and well-mixed hashes the families must not pile up
    // on a few locks: require at least half the stripes in use.
    let distinct: std::collections::HashSet<usize> =
        family_shards.iter().map(|&(_, s)| s).collect();
    assert!(families > 64, "corpus covers more families than stripes");
    assert!(
        distinct.len() >= cache.n_shards() / 2,
        "families landed on only {} of {} shards",
        distinct.len(),
        cache.n_shards()
    );
}

/// `query_batch` returns bit-identical answers to issuing each query
/// alone, in query order.
#[test]
fn batch_matches_sequential_bitwise() {
    let topo = dgx1();
    let libs = [
        Library::XkBlas(XkVariant::Full),
        Library::XkBlas(XkVariant::NoHeuristic),
        Library::XkBlas(XkVariant::NoHeuristicNoTopo),
        Library::CublasXt,
        Library::Slate,
    ];
    let queries: Vec<Query> = libs
        .iter()
        .flat_map(|&lib| {
            [8192usize, 12288].map(|n| Query::exact(lib, gemm_params(n, 2048)))
        })
        .collect();

    let batch_engine = ServeEngine::new(topo.clone());
    let batched = batch_engine.query_batch(&queries, 0);

    let seq_engine = ServeEngine::new(topo);
    for (q, b) in queries.iter().zip(&batched) {
        let b = b.as_ref().expect("batch query runnable");
        let s = seq_engine.query(*q).expect("sequential query runnable");
        assert_eq!(b.key, s.key);
        assert_eq!(b.seconds.to_bits(), s.seconds.to_bits());
        assert_eq!(b.tflops.to_bits(), s.tflops.to_bits());
        let (be, se) = (b.exact.as_ref().unwrap(), s.exact.as_ref().unwrap());
        assert_eq!(be.bytes_h2d, se.bytes_h2d);
        assert_eq!(be.bytes_d2h, se.bytes_d2h);
        assert_eq!(be.bytes_p2p, se.bytes_p2p);
        assert_eq!(be.trace.len(), se.trace.len());
    }
    // The XKBlas variants of each (n, tile) shared one graph + prep.
    assert_eq!(batch_engine.stats().misses, queries.len() as u64);
}

/// A batch of 16 copies of one cold key costs one simulation: 1 miss and
/// 15 coalesced answers, all handles on the one resident run.
#[test]
fn batch_coalesces_duplicate_keys() {
    let topo = dgx1();
    let engine = ServeEngine::new(topo);
    let queries = vec![Query::exact(Library::CublasXt, gemm_params(8192, 2048)); 16];
    let answers = engine.query_batch(&queries, 0);

    let st = engine.stats();
    assert_eq!(st.misses, 1, "one simulation for the whole batch");
    assert_eq!(st.coalesced, 15);
    assert_eq!(st.hits, 0);
    assert_eq!(engine.cache().len(), 1);

    let key = answers[0].as_ref().unwrap().key;
    let resident = engine.cache().peek(&key).expect("resident").unwrap();
    for a in &answers {
        let a = a.as_ref().unwrap();
        assert_eq!(a.seconds.to_bits(), resident.seconds.to_bits());
        assert!(Arc::ptr_eq(a.exact.as_ref().unwrap(), &resident));
    }
    // A later single query of the same key is a hit on the same run.
    let hit = engine.query(queries[0]).unwrap();
    assert!(Arc::ptr_eq(hit.exact.as_ref().unwrap(), &resident));
}

/// Unsupported routines surface the same memoized error through the batch
/// path as through single queries.
#[test]
fn batch_propagates_errors() {
    let topo = dgx1();
    let engine = ServeEngine::new(topo);
    let mut params = gemm_params(8192, 2048);
    params.routine = Routine::Syrk; // DPLASMA is GEMM-only
    let queries = vec![
        Query::exact(Library::Dplasma, params),
        Query::exact(Library::CublasXt, params),
        Query::exact(Library::Dplasma, params),
    ];
    let answers = engine.query_batch(&queries, 0);
    assert!(answers[0].is_err());
    assert!(answers[1].is_ok());
    assert!(answers[2].is_err());
    let st = engine.stats();
    assert_eq!(st.misses, 2, "error led once, success led once");
    assert_eq!(st.coalesced, 1, "duplicate error coalesced");
}

/// A budgeted lookup that goes over leaves a proof, not a run: budgets up
/// to it are hits, and a larger one (here none at all) leads the run that
/// `xk_baselines::run` gives, bit for bit.
#[test]
fn an_over_budget_proof_answers_smaller_budgets_and_a_larger_one_reruns() {
    let topo = dgx1();
    let cache = ShardedCache::new();
    let lib = Library::XkBlas(XkVariant::Full);
    let params = gemm_params(4096, 1024);
    let fresh = run(lib, &topo, &params).unwrap();
    let budget = fresh.seconds * 0.5;
    for b in [budget, budget, budget * 0.5] {
        let over = cache.run_within(lib, &topo, &params, b);
        assert_eq!(over.err(), Some(RunError::OverBudget));
    }
    assert_eq!(cache.stats().misses, 1, "one run proved all three verdicts");
    assert_eq!(cache.stats().hits, 2);
    assert_eq!(cache.len(), 0);
    let key = QueryKey::new(lib, &topo, &params);
    assert!(cache.peek(&key).is_none(), "a proof is not resident");

    let finished = cache.run_within(lib, &topo, &params, f64::INFINITY).unwrap();
    assert_eq!(finished.seconds.to_bits(), fresh.seconds.to_bits());
    assert_eq!(finished.tflops.to_bits(), fresh.tflops.to_bits());
    assert_eq!(
        (finished.bytes_h2d, finished.bytes_d2h, finished.bytes_p2p),
        (fresh.bytes_h2d, fresh.bytes_d2h, fresh.bytes_p2p)
    );
    assert_eq!(finished.trace.spans(), fresh.trace.spans());
    assert_eq!(cache.stats().misses, 2);
    let resident = cache.peek(&key).expect("the finished run replaced the proof").unwrap();
    assert!(Arc::ptr_eq(&resident, &finished));
    // Every budget reads the finished run now.
    let hit = cache.run_within(lib, &topo, &params, budget).unwrap();
    assert!(Arc::ptr_eq(&hit, &finished));
    assert_eq!(cache.stats().hits, 3);
}
