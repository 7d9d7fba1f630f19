//! Lock-striped concurrent run cache with single-flight admission.
//!
//! One `Mutex<HashMap>` over every memoized run is correct but serializes
//! every lookup of a high-rate query front end, and concurrent misses of
//! the *same* key each pay a full DES run. [`ShardedCache`] fixes both:
//!
//! * **Lock striping** — the table is split over [`ShardedCache::n_shards`]
//!   independent mutexes, indexed by `QueryKey::shard_hash` (topology
//!   fingerprint, then `(library, routine)`). Lookups of different
//!   configuration families proceed in parallel; a lock is only ever held
//!   for a hash-map probe, never across a simulation.
//! * **Single-flight admission** — the first thread to miss a key becomes
//!   its *leader* and simulates; concurrent lookups of the same key park on
//!   the leader's `Flight` and observe the leader's exact result
//!   (bit-identical: the result object is shared, not recomputed). A
//!   thundering herd of N identical queries costs one DES run.
//! * **One replica, many readers** — a finished run is wrapped in an `Arc`
//!   once, when its leader fills the slot, and never copied again: the
//!   slot, the flight and every answer hold the same allocation, so a hit
//!   is a lock, a probe and a reference-count bump however many thousand
//!   spans the run's trace holds.
//!
//! The stats distinguish the three outcomes — [`CacheStats::hits`] (answer
//! was resident), [`CacheStats::coalesced`] (parked on an in-flight
//! leader), [`CacheStats::misses`] (led a computation) — so a waiter is no
//! longer miscounted as a miss.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use xk_baselines::{run, Library, RunError, RunParams, RunResult};
use xk_topo::FabricSpec;

use crate::key::QueryKey;

/// The cached value: the one shared copy of a finished run, or its
/// memoized error.
pub type RunOutcome = Result<Arc<RunResult>, RunError>;

/// How a lookup was answered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// The key was resident in the cache.
    Hit,
    /// Parked on another thread's in-flight computation of the same key.
    Coalesced,
    /// This caller led the computation.
    Miss,
}

/// Hit/coalesce/miss counters, for run reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from resident entries.
    pub hits: u64,
    /// Lookups that parked on an in-flight leader (single-flight).
    pub coalesced: u64,
    /// Lookups that led a computation.
    pub misses: u64,
}

impl CacheStats {
    /// Lookups that did not simulate (hits + coalesced) over all lookups,
    /// in `[0, 1]` (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.coalesced + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.coalesced) as f64 / total as f64
        }
    }
}

/// State of one in-flight computation, shared between its leader and the
/// waiters parked on it.
#[derive(Debug)]
enum FlightState {
    /// The leader is still computing.
    Pending,
    /// The leader finished; every waiter observes this exact outcome.
    Done(RunOutcome),
    /// The leader was dropped without filling (it panicked or was
    /// abandoned); waiters must retry admission.
    Abandoned,
}

/// Rendezvous point of one in-flight computation.
#[derive(Debug)]
pub(crate) struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    /// Parks until the leader resolves this flight. `Some(outcome)` is the
    /// leader's result; `None` means the leader abandoned the computation
    /// and the caller must re-admit.
    pub(crate) fn wait(&self) -> Option<RunOutcome> {
        let mut st = self.state.lock().unwrap();
        loop {
            match &*st {
                FlightState::Pending => st = self.cv.wait(st).unwrap(),
                FlightState::Done(outcome) => return Some(outcome.clone()),
                FlightState::Abandoned => return None,
            }
        }
    }

    fn resolve(&self, to: FlightState) {
        *self.state.lock().unwrap() = to;
        self.cv.notify_all();
    }
}

/// A resident entry or a claim on one being computed.
#[derive(Debug)]
enum Slot {
    Ready(RunOutcome),
    InFlight(Arc<Flight>),
}

/// Outcome of [`ShardedCache::admit`].
pub(crate) enum Admission<'c> {
    /// The key is resident: here is its outcome.
    Hit(RunOutcome),
    /// Another thread is computing this key: park on the flight.
    Wait(Arc<Flight>),
    /// The caller is now the leader: compute, then [`LeadGuard::fill`].
    Lead(LeadGuard<'c>),
}

/// Leadership of one in-flight key. Fill it with the computed outcome;
/// dropping it unfilled (e.g. a panic during the simulation) marks the
/// flight abandoned so parked waiters wake up and retry admission.
pub(crate) struct LeadGuard<'c> {
    cache: &'c ShardedCache,
    key: QueryKey,
    flight: Arc<Flight>,
    filled: bool,
}

impl LeadGuard<'_> {
    /// Publishes the computed outcome: the entry becomes resident and
    /// every parked waiter observes exactly this value. This is the one
    /// place a run is moved to the heap (trimmed of the slack its trace
    /// grew with, since it now stays); everything after shares it.
    pub(crate) fn fill(mut self, outcome: Result<RunResult, RunError>) -> RunOutcome {
        let outcome = outcome.map(|mut run| {
            run.trace.compact();
            Arc::new(run)
        });
        self.filled = true;
        let shard = self.cache.shard(&self.key);
        shard
            .lock()
            .unwrap()
            .insert(self.key, Slot::Ready(outcome.clone()));
        self.flight.resolve(FlightState::Done(outcome.clone()));
        outcome
    }
}

impl Drop for LeadGuard<'_> {
    fn drop(&mut self) {
        if !self.filled {
            let shard = self.cache.shard(&self.key);
            let mut map = shard.lock().unwrap();
            // Only remove our own claim: fill() or clear() may have
            // already replaced the slot.
            if matches!(map.get(&self.key), Some(Slot::InFlight(f)) if Arc::ptr_eq(f, &self.flight))
            {
                map.remove(&self.key);
            }
            drop(map);
            self.flight.resolve(FlightState::Abandoned);
        }
    }
}

/// The lock-striped, single-flight memo table over simulated runs.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Box<[Mutex<HashMap<QueryKey, Slot>>]>,
    mask: u64,
    hits: AtomicU64,
    coalesced: AtomicU64,
    misses: AtomicU64,
}

/// Default shard count: enough stripes that the full `(library, routine)`
/// cross product of one topology spreads out, cheap enough to sit in every
/// figure driver.
pub(crate) const DEFAULT_SHARDS: usize = 64;

impl Default for ShardedCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedCache {
    /// An empty cache with `DEFAULT_SHARDS` stripes.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// An empty cache with `shards` stripes (rounded up to a power of two).
    pub(crate) fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shards: Vec<Mutex<HashMap<QueryKey, Slot>>> =
            (0..n).map(|_| Mutex::new(HashMap::new())).collect();
        ShardedCache {
            shards: shards.into_boxed_slice(),
            mask: (n - 1) as u64,
            hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of stripes.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The stripe `key` maps to (stable; exposed for spread diagnostics).
    pub fn shard_index(&self, key: &QueryKey) -> usize {
        (key.shard_hash() & self.mask) as usize
    }

    fn shard(&self, key: &QueryKey) -> &Mutex<HashMap<QueryKey, Slot>> {
        &self.shards[self.shard_index(key)]
    }

    /// One admission step: hit, park, or lead. Does not touch the
    /// counters — [`ShardedCache::get_or_compute`] (and the batch driver)
    /// count at resolution so an abandoned-leader retry is not counted
    /// twice.
    pub(crate) fn admit(&self, key: QueryKey) -> Admission<'_> {
        let mut map = self.shard(&key).lock().unwrap();
        match map.get(&key) {
            Some(Slot::Ready(outcome)) => Admission::Hit(outcome.clone()),
            Some(Slot::InFlight(flight)) => Admission::Wait(Arc::clone(flight)),
            None => {
                let flight = Arc::new(Flight::new());
                map.insert(key, Slot::InFlight(Arc::clone(&flight)));
                drop(map);
                Admission::Lead(LeadGuard {
                    cache: self,
                    key,
                    flight,
                    filled: false,
                })
            }
        }
    }

    /// Looks `key` up, computing it with `compute` on a miss. Exactly one
    /// concurrent caller per key runs `compute`; the rest park and observe
    /// the leader's outcome. Returns the outcome and how it was obtained.
    pub fn get_or_compute(
        &self,
        key: QueryKey,
        compute: impl FnOnce() -> Result<RunResult, RunError>,
    ) -> (RunOutcome, Source) {
        let mut compute = Some(compute);
        loop {
            match self.admit(key) {
                Admission::Hit(outcome) => {
                    self.record(Source::Hit);
                    return (outcome, Source::Hit);
                }
                Admission::Wait(flight) => {
                    if let Some(outcome) = flight.wait() {
                        self.record(Source::Coalesced);
                        return (outcome, Source::Coalesced);
                    }
                    // Leader abandoned: retry admission (we may lead now).
                }
                Admission::Lead(guard) => {
                    let f = compute.take().expect("leadership is won at most once");
                    let outcome = guard.fill(f());
                    self.record(Source::Miss);
                    return (outcome, Source::Miss);
                }
            }
        }
    }

    /// Runs `lib` with `params` on `topo` through the cache: the memoized
    /// outcome when this exact configuration was simulated before (or is
    /// being simulated right now by another thread), a led
    /// [`xk_baselines::run`] otherwise.
    pub fn run(&self, lib: Library, topo: &FabricSpec, params: &RunParams) -> RunOutcome {
        let key = QueryKey::new(lib, topo, params);
        self.get_or_compute(key, || run(lib, topo, params)).0
    }

    /// Peeks for a resident entry without claiming leadership and without
    /// touching the counters (the interpolation tier peeks before deciding
    /// whether it must simulate; the engine records the resolution).
    pub fn peek(&self, key: &QueryKey) -> Option<RunOutcome> {
        match self.shard(key).lock().unwrap().get(key) {
            Some(Slot::Ready(outcome)) => Some(outcome.clone()),
            _ => None,
        }
    }

    /// Bumps the counter for one resolved lookup (the batch driver
    /// resolves admissions itself and records through this).
    pub(crate) fn record(&self, source: Source) {
        match source {
            Source::Hit => &self.hits,
            Source::Coalesced => &self.coalesced,
            Source::Miss => &self.misses,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Current hit/coalesce/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of resident (finished) entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap()
                    .values()
                    .filter(|slot| matches!(slot, Slot::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every resident entry and resets the counters. In-flight
    /// computations are left to finish; their leaders re-insert on fill.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard
                .lock()
                .unwrap()
                .retain(|_, slot| matches!(slot, Slot::InFlight(_)));
        }
        self.hits.store(0, Ordering::Relaxed);
        self.coalesced.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xk_kernels::Routine;
    use xk_topo::dgx1;

    fn key(n: usize) -> QueryKey {
        QueryKey::new(
            Library::CublasXt,
            &dgx1(),
            &RunParams {
                routine: Routine::Gemm,
                n,
                tile: 1024,
                data_on_device: false,
            },
        )
    }

    fn fake(seconds: f64) -> Result<RunResult, RunError> {
        Ok(RunResult {
            seconds,
            tflops: 1.0 / seconds,
            trace: Default::default(),
            bytes_h2d: 1,
            bytes_d2h: 2,
            bytes_p2p: 3,
            obs: None,
        })
    }

    #[test]
    fn hit_after_miss() {
        let cache = ShardedCache::new();
        let (a, s1) = cache.get_or_compute(key(4096), || fake(2.0));
        let (b, s2) = cache.get_or_compute(key(4096), || panic!("must not recompute"));
        assert_eq!(s1, Source::Miss);
        assert_eq!(s2, Source::Hit);
        assert!(
            Arc::ptr_eq(&a.unwrap(), &b.unwrap()),
            "a hit shares the run"
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                coalesced: 0,
                misses: 1
            }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn abandoned_leader_wakes_waiters_to_retry() {
        let cache = ShardedCache::new();
        let guard = match cache.admit(key(4096)) {
            Admission::Lead(g) => g,
            _ => panic!("fresh key must lead"),
        };
        let flight = match cache.admit(key(4096)) {
            Admission::Wait(f) => f,
            _ => panic!("second admission must wait"),
        };
        drop(guard); // leader dies without filling
        assert!(flight.wait().is_none(), "waiter must see the abandonment");
        // The slot was reclaimed: the next admission leads again.
        match cache.admit(key(4096)) {
            Admission::Lead(g) => {
                g.fill(fake(1.0)).unwrap();
            }
            _ => panic!("abandoned key must be claimable"),
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_keeps_inflight_claims() {
        let cache = ShardedCache::new();
        cache.get_or_compute(key(4096), || fake(2.0)).0.unwrap();
        let guard = match cache.admit(key(8192)) {
            Admission::Lead(g) => g,
            _ => panic!(),
        };
        cache.clear();
        assert_eq!(cache.len(), 0, "resident entries cleared");
        guard.fill(fake(3.0)).unwrap();
        assert_eq!(cache.len(), 1, "in-flight computation still lands");
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn peek_never_touches_counters() {
        let cache = ShardedCache::new();
        assert!(cache.peek(&key(4096)).is_none());
        cache.get_or_compute(key(4096), || fake(2.0)).0.unwrap();
        assert!(cache.peek(&key(4096)).is_some());
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn errors_are_memoized() {
        let cache = ShardedCache::new();
        let (e1, s1) = cache.get_or_compute(key(4096), || Err(RunError::OutOfMemory));
        let (e2, s2) = cache.get_or_compute(key(4096), || panic!("memoized"));
        assert!(matches!(e1, Err(RunError::OutOfMemory)));
        assert!(matches!(e2, Err(RunError::OutOfMemory)));
        assert_eq!((s1, s2), (Source::Miss, Source::Hit));
    }
}
