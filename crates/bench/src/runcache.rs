//! Memoization of simulated runs.
//!
//! The paper's evaluation re-derives many identical configurations: the
//! best-tile selection re-runs the `(library, routine, n, tile)` points it
//! cannot rule out, Table II re-runs Fig. 3/4 points, and the trace
//! figures re-simulate the winners. Every simulation is deterministic in its inputs, so a run is
//! fully identified by `(library, routine, n, tile, data_on_device,
//! topology fingerprint)` — the [`RunCache`] maps that key to the finished
//! [`xk_baselines::RunResult`] and never simulates the same configuration
//! twice.
//!
//! The table is `xk-serve`'s lock-striped, single-flight [`ShardedCache`]
//! itself (the same exact tier the planner service uses; `RunCache` is its
//! name on this side): lookups of different configuration families take
//! different locks, concurrent misses of the *same* key coalesce onto one
//! leader's DES run instead of simulating twice, and every lookup shares
//! the one `Arc<RunResult>` the leader stored — the figure drivers read a
//! memoized trace, they never copy it. [`CacheStats::coalesced`] counts
//! the parked lookups separately from plain hits and misses.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub use xk_serve::{CacheStats, QueryKey as RunKey, ShardedCache, ShardedCache as RunCache};

static GLOBAL: OnceLock<RunCache> = OnceLock::new();
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(true);

/// The process-wide cache shared by the figure binaries.
pub fn global() -> &'static RunCache {
    GLOBAL.get_or_init(RunCache::new)
}

/// Enables or disables the global cache (the `--serial` baseline mode of
/// `run_all` turns it off so every point really simulates; the figure
/// sweeps then also run on the calling thread).
pub fn set_global_enabled(enabled: bool) {
    GLOBAL_ENABLED.store(enabled, Ordering::Relaxed);
}

/// The global cache, unless disabled via [`set_global_enabled`].
pub fn global_if_enabled() -> Option<&'static RunCache> {
    if GLOBAL_ENABLED.load(Ordering::Relaxed) {
        Some(global())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xk_baselines::{Library, RunError, RunParams};
    use xk_kernels::Routine;
    use xk_topo::dgx1;

    fn params(n: usize, tile: usize) -> RunParams {
        RunParams {
            routine: Routine::Gemm,
            n,
            tile,
            data_on_device: false,
        }
    }

    #[test]
    fn second_lookup_hits_and_matches() {
        let topo = dgx1();
        let cache = RunCache::new();
        let lib = Library::CublasXt;
        let a = cache.run(lib, &topo, &params(4096, 2048)).unwrap();
        let b = cache.run(lib, &topo, &params(4096, 2048)).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&a, &b),
            "a hit shares the memoized run"
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn errors_are_memoized_too() {
        let topo = dgx1();
        let cache = RunCache::new();
        // DPLASMA is GEMM-only: SYRK is Unsupported.
        let e1 = cache.run(Library::Dplasma, &topo, &{
            let mut p = params(4096, 2048);
            p.routine = Routine::Syrk;
            p
        });
        let e2 = cache.run(Library::Dplasma, &topo, &{
            let mut p = params(4096, 2048);
            p.routine = Routine::Syrk;
            p
        });
        assert!(matches!(e1, Err(RunError::Unsupported)));
        assert!(matches!(e2, Err(RunError::Unsupported)));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let topo = dgx1();
        let cache = RunCache::new();
        let lib = Library::CublasXt;
        let a = cache.run(lib, &topo, &params(4096, 1024)).unwrap();
        let b = cache.run(lib, &topo, &params(4096, 2048)).unwrap();
        assert_ne!(a.seconds.to_bits(), b.seconds.to_bits());
        assert_eq!(cache.stats().misses, 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn concurrent_same_key_coalesces() {
        let topo = dgx1();
        let cache = RunCache::new();
        let lib = Library::CublasXt;
        let p = params(4096, 2048);
        let bits: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| cache.run(lib, &topo, &p).unwrap().seconds.to_bits()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(bits.windows(2).all(|w| w[0] == w[1]));
        let st = cache.stats();
        assert_eq!(st.misses, 1, "single flight: one DES run");
        assert_eq!(st.hits + st.coalesced, 3);
        assert_eq!(cache.len(), 1);
    }
}
