//! Serially reusable resources ("engines").
//!
//! Copy engines, kernel streams, PCIe switches and host link segments are all
//! modelled as *engines*: resources that execute one operation at a time.
//! An operation that needs several engines at once (e.g. a transfer that
//! crosses a PCIe switch occupies the source copy engine, the switch and the
//! destination copy engine) makes a *joint reservation*: it starts when every
//! involved engine is free and holds all of them for its duration.
//!
//! This "availability time" model is the standard way to keep a DES
//! deterministic while still making shared buses a real bottleneck: two
//! transfers contending for one switch serialize, exactly like DMA on
//! hardware where a PCIe link carries one maximum-rate stream at a time.

use crate::time::{Duration, SimTime};

/// Identifier of an engine inside an [`EnginePool`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EngineId(pub usize);

#[derive(Clone, Debug)]
struct Engine {
    free_at: SimTime,
    busy_total: Duration,
    ops: u64,
}

/// A pool of serially reusable engines with joint-reservation semantics.
///
/// Engines are bare ids: what each one models, and its display name, is
/// the business of whoever lays the pool out (`xk_runtime::Machine`).
#[derive(Clone, Debug)]
pub struct EnginePool {
    engines: Vec<Engine>,
}

/// Outcome of a reservation: the operation runs in `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reservation {
    /// When the operation actually starts (≥ requested earliest time).
    pub start: SimTime,
    /// When the operation completes and the engines become free again.
    pub end: SimTime,
}

impl EnginePool {
    /// Creates a pool of `n` idle engines, ids `EngineId(0)..EngineId(n)`.
    pub fn new(n: usize) -> Self {
        let idle = Engine { free_at: SimTime::ZERO, busy_total: Duration::ZERO, ops: 0 };
        EnginePool { engines: vec![idle; n] }
    }

    /// Number of engines.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// True when the pool has no engine.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// Earliest time at which `id` is free.
    pub fn free_at(&self, id: EngineId) -> SimTime {
        self.engines[id.0].free_at
    }

    /// Earliest time at which *all* of `ids` are simultaneously free, but not
    /// before `earliest`.
    pub fn earliest_start(&self, ids: &[EngineId], earliest: SimTime) -> SimTime {
        ids.iter()
            .fold(earliest, |acc, id| acc.max(self.engines[id.0].free_at))
    }

    /// The engine of `ids` that *binds* a joint reservation requested at
    /// `earliest`: the one whose `free_at` is latest and strictly after
    /// `earliest`. Returns `None` when no engine delays the start (the
    /// operation is not contended). Ties keep the first engine in `ids`,
    /// so the attribution is deterministic.
    ///
    /// Must be queried *before* [`EnginePool::reserve`] mutates `free_at` —
    /// observability layers use it to charge contention wait to the
    /// saturated link.
    pub fn bottleneck(&self, ids: &[EngineId], earliest: SimTime) -> Option<EngineId> {
        let mut best: Option<(EngineId, SimTime)> = None;
        for &id in ids {
            let f = self.engines[id.0].free_at;
            if f > earliest && best.map(|(_, bf)| f > bf).unwrap_or(true) {
                best = Some((id, f));
            }
        }
        best.map(|(id, _)| id)
    }

    /// Jointly reserves every engine in `ids` for `duration`, starting no
    /// earlier than `earliest`. Returns the realized `[start, end)` window.
    ///
    /// All engines become free at `end`; each accumulates `duration` of busy
    /// time for utilization accounting.
    ///
    /// # Panics
    /// Panics if `ids` contains a duplicate (a single op cannot hold the same
    /// engine twice) — enforced in debug builds only, as the check is O(n²).
    pub fn reserve(&mut self, ids: &[EngineId], earliest: SimTime, duration: Duration) -> Reservation {
        debug_assert!(
            ids.iter()
                .enumerate()
                .all(|(i, a)| ids[i + 1..].iter().all(|b| a != b)),
            "duplicate engine in joint reservation: {ids:?}"
        );
        let start = self.earliest_start(ids, earliest);
        let end = start + duration;
        for id in ids {
            let e = &mut self.engines[id.0];
            e.free_at = end;
            e.busy_total = e.busy_total + duration;
            e.ops += 1;
        }
        Reservation { start, end }
    }

    /// Total busy time accumulated by `id`.
    pub fn busy_total(&self, id: EngineId) -> Duration {
        self.engines[id.0].busy_total
    }

    /// Number of operations executed on `id`.
    pub fn ops(&self, id: EngineId) -> u64 {
        self.engines[id.0].ops
    }

    /// Utilization of `id` over the horizon `[0, horizon)`, in `[0, 1]`.
    /// Returns 0 for a zero horizon.
    pub fn utilization(&self, id: EngineId, horizon: SimTime) -> f64 {
        if horizon.seconds() <= 0.0 {
            return 0.0;
        }
        (self.engines[id.0].busy_total.seconds() / horizon.seconds()).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_engine_serializes() {
        let mut pool = EnginePool::new(1);
        let e = EngineId(0);
        let r1 = pool.reserve(&[e], SimTime::ZERO, Duration::new(2.0));
        assert_eq!(r1.start, SimTime::ZERO);
        assert_eq!(r1.end, SimTime::new(2.0));
        // A second op requested at t=1 must wait until t=2.
        let r2 = pool.reserve(&[e], SimTime::new(1.0), Duration::new(1.0));
        assert_eq!(r2.start, SimTime::new(2.0));
        assert_eq!(r2.end, SimTime::new(3.0));
        assert_eq!(pool.busy_total(e), Duration::new(3.0));
        assert_eq!(pool.ops(e), 2);
    }

    #[test]
    fn joint_reservation_waits_for_all() {
        let mut pool = EnginePool::new(2);
        let (a, b) = (EngineId(0), EngineId(1));
        pool.reserve(&[a], SimTime::ZERO, Duration::new(5.0));
        // Joint op on (a, b) requested at t=0 must wait for a.
        let r = pool.reserve(&[a, b], SimTime::ZERO, Duration::new(1.0));
        assert_eq!(r.start, SimTime::new(5.0));
        assert_eq!(pool.free_at(b), SimTime::new(6.0));
    }

    #[test]
    fn earliest_start_respects_request_time() {
        let pool = EnginePool::new(1);
        let a = EngineId(0);
        assert_eq!(
            pool.earliest_start(&[a], SimTime::new(7.0)),
            SimTime::new(7.0)
        );
    }

    #[test]
    fn utilization_bounds() {
        let mut pool = EnginePool::new(1);
        let a = EngineId(0);
        pool.reserve(&[a], SimTime::ZERO, Duration::new(1.0));
        assert!((pool.utilization(a, SimTime::new(2.0)) - 0.5).abs() < 1e-12);
        assert_eq!(pool.utilization(a, SimTime::ZERO), 0.0);
        assert_eq!(pool.utilization(a, SimTime::new(0.5)), 1.0);
    }

    #[test]
    fn bottleneck_identifies_binding_engine() {
        let mut pool = EnginePool::new(2);
        let (a, b) = (EngineId(0), EngineId(1));
        pool.reserve(&[a], SimTime::ZERO, Duration::new(2.0));
        pool.reserve(&[b], SimTime::ZERO, Duration::new(5.0));
        // b frees last: it binds a joint request at t=0.
        assert_eq!(pool.bottleneck(&[a, b], SimTime::ZERO), Some(b));
        // Requested after both free: nothing binds.
        assert_eq!(pool.bottleneck(&[a, b], SimTime::new(6.0)), None);
        // Only a binds when the request lands between the two frees.
        assert_eq!(pool.bottleneck(&[a], SimTime::new(1.0)), Some(a));
    }

    #[test]
    fn independent_engines_overlap() {
        let mut pool = EnginePool::new(2);
        let (a, b) = (EngineId(0), EngineId(1));
        let ra = pool.reserve(&[a], SimTime::ZERO, Duration::new(2.0));
        let rb = pool.reserve(&[b], SimTime::ZERO, Duration::new(2.0));
        assert_eq!(ra.start, rb.start);
    }
}
