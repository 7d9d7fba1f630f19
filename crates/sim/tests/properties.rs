//! Seeded property tests of the DES core invariants. The event queue is
//! checked against a model: a plain `Vec` searched for its `(time, seq)`
//! minimum, run in lockstep with [`EventQueue`] over randomized op scripts.

use std::collections::BTreeSet;

use xk_lp::{for_each_seed, SplitMix64};
use xk_sim::{Clock, Duration, EngineId, EnginePool, EventQueue, SimTime};

/// The queue's contract, spelled out: entries are `(time, seq, payload)`
/// in push order, the next event is the `(time, seq)` minimum, and a tied
/// pop removes the `k`-th member (clamped) of the FIFO-ordered minimum-time
/// group, leaving the others in place.
#[derive(Default)]
struct Model {
    entries: Vec<(SimTime, u64, u64)>,
    seq: u64,
}

impl Model {
    fn push(&mut self, time: SimTime, payload: u64) {
        self.entries.push((time, self.seq, payload));
        self.seq += 1;
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.entries.iter().map(|e| e.0).min()
    }

    /// Size of the minimum-time group and the event `pick` selects from it.
    fn pop_tied(&mut self, pick: impl FnOnce(usize) -> usize) -> Option<(usize, (SimTime, u64))> {
        let t = self.peek_time()?;
        // `entries` is in seq order, so the filtered positions are FIFO.
        let tied: Vec<usize> = (0..self.entries.len())
            .filter(|&i| self.entries[i].0 == t)
            .collect();
        let k = if tied.len() == 1 {
            0
        } else {
            pick(tied.len()).min(tied.len() - 1)
        };
        let (time, _, payload) = self.entries.remove(tied[k]);
        Some((tied.len(), (time, payload)))
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.pop_tied(|_| 0).map(|(_, e)| e)
    }
}

/// Push-time distributions, each adversarial to a different shortcut a
/// priority queue might take.
#[derive(Clone, Copy, Debug)]
enum Dist {
    /// Uniform over one second.
    Uniform,
    /// A handful of distinct timestamps: large same-time tie groups.
    Bursts,
    /// Mostly a dense cluster, occasionally 6-9 orders of magnitude out.
    FarFuture,
    /// Tiny gaps around a huge base.
    DenseClusterFarOrigin,
    /// Monotonically shrinking times: every push is the new minimum.
    Decreasing,
    /// Dense 3 : quantized 2 : far-future 1.
    Mixed,
}

impl Dist {
    fn sample(self, rng: &mut SplitMix64, step: usize) -> SimTime {
        SimTime::new(match self {
            Dist::Uniform => rng.next_f64(),
            Dist::Bursts => rng.next_below(7) as f64 * 0.125,
            Dist::FarFuture if rng.next_below(16) == 0 => rng.f64_in(1e6, 1e9),
            Dist::FarFuture => rng.next_f64() * 1e-3,
            Dist::DenseClusterFarOrigin => 5e8 + rng.next_f64() * 1e-6,
            Dist::Decreasing => 1e3 - step as f64 * 1e-3,
            Dist::Mixed => match rng.next_below(6) {
                0..=2 => rng.next_f64(),
                3..=4 => rng.next_below(8) as f64 * 0.25,
                _ => rng.f64_in(1e6, 1e12),
            },
        })
    }
}

/// One lockstep script of `ops` steps — push 4, same-time burst 1, pop 2,
/// tied pop with a random pick 2, observe 1, so queues grow and are drained
/// at the end: every result of `queue` must equal the model's.
fn lockstep(rng: &mut SplitMix64, dist: Dist, ops: usize, mut queue: EventQueue<u64>) {
    let mut model = Model::default();
    let mut next_id: u64 = 0;
    for step in 0..ops {
        match rng.next_below(10) {
            0..=3 => {
                let t = dist.sample(rng, step);
                queue.push(t, next_id);
                model.push(t, next_id);
                next_id += 1;
            }
            4 => {
                let t = dist.sample(rng, step);
                for _ in 0..rng.usize_in(1, 33) {
                    queue.push(t, next_id);
                    model.push(t, next_id);
                    next_id += 1;
                }
            }
            5..=6 => assert_eq!(queue.pop(), model.pop(), "{dist:?} step {step}"),
            7..=8 => {
                let pick = rng.next_u64();
                let mut offered = None;
                let got = queue.pop_tied(&mut |n| {
                    offered = Some(n);
                    (pick % n as u64) as usize
                });
                let want = model.pop_tied(|n| (pick % n as u64) as usize);
                assert_eq!(got, want.map(|(_, e)| e), "{dist:?} step {step}");
                // `tie` sees the whole group, and only when it is a choice.
                assert_eq!(offered, want.map(|(n, _)| n).filter(|&n| n > 1));
            }
            _ => {}
        }
        assert_eq!(queue.peek_time(), model.peek_time(), "{dist:?} step {step}");
        assert_eq!(queue.len(), model.entries.len());
        assert_eq!(queue.is_empty(), model.entries.is_empty());
    }
    while let Some(want) = model.pop() {
        assert_eq!(queue.pop(), Some(want), "drain tail diverged ({dist:?})");
    }
    assert_eq!(queue.pop(), None);
}

#[test]
fn lockstep_uniform() {
    for_each_seed(8, |rng| {
        lockstep(rng, Dist::Uniform, 2000, EventQueue::new())
    });
}

#[test]
fn lockstep_same_time_bursts() {
    for_each_seed(8, |rng| {
        lockstep(rng, Dist::Bursts, 2000, EventQueue::new())
    });
}

#[test]
fn lockstep_far_future_outliers() {
    for_each_seed(8, |rng| {
        lockstep(rng, Dist::FarFuture, 2000, EventQueue::new())
    });
}

#[test]
fn lockstep_dense_cluster_far_origin() {
    for_each_seed(8, |rng| {
        lockstep(rng, Dist::DenseClusterFarOrigin, 2000, EventQueue::new())
    });
}

#[test]
fn lockstep_decreasing_times() {
    for_each_seed(4, |rng| {
        lockstep(rng, Dist::Decreasing, 2000, EventQueue::new())
    });
}

/// Many short free-form scripts over the mixed distribution.
#[test]
fn lockstep_mixed_short_scripts() {
    for_each_seed(256, |rng| {
        let ops = rng.usize_in(1, 400);
        lockstep(rng, Dist::Mixed, ops, EventQueue::new());
    });
}

/// A capacity hint, smaller or larger than the script needs, changes
/// nothing observable.
#[test]
fn lockstep_with_capacity_hint() {
    for_each_seed(8, |rng| {
        let hint = rng.pick(&[1, 64, 4096]);
        lockstep(rng, Dist::Uniform, 1000, EventQueue::with_capacity(hint));
    });
}

/// Events always pop in non-decreasing time order regardless of the
/// scheduling order.
#[test]
fn events_pop_monotonically() {
    for_each_seed(256, |rng| {
        let mut clock: Clock<usize> = Clock::new();
        for i in 0..rng.usize_in(1, 200) {
            clock.schedule(SimTime::new(rng.f64_in(0.0, 1e6)), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = clock.next_with(&mut |_| 0) {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(clock.pending(), 0);
    });
}

/// Joint reservations never overlap on any engine: for a random sequence
/// of operations over a random engine subset, the reserved windows on
/// each engine are pairwise disjoint.
#[test]
fn reservations_never_overlap() {
    for_each_seed(256, |rng| {
        let mut pool = EnginePool::new(6);
        let engines: Vec<_> = (0..6).map(EngineId).collect();
        let mut windows: Vec<Vec<(f64, f64)>> = vec![Vec::new(); 6];
        for _ in 0..rng.usize_in(1, 60) {
            let mut subset = BTreeSet::new();
            let size = rng.usize_in(1, 4);
            while subset.len() < size {
                subset.insert(rng.usize_in(0, 6));
            }
            let (earliest, dur) = (rng.f64_in(0.0, 10.0), rng.f64_in(1e-6, 5.0));
            let ids: Vec<_> = subset.iter().map(|&i| engines[i]).collect();
            let r = pool.reserve(&ids, SimTime::new(earliest), Duration::new(dur));
            assert!(r.start >= SimTime::new(earliest));
            assert!((r.end.seconds() - r.start.seconds() - dur).abs() < 1e-9);
            for &i in &subset {
                windows[i].push((r.start.seconds(), r.end.seconds()));
            }
        }
        for w in &mut windows {
            w.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for pair in w.windows(2) {
                assert!(pair[0].1 <= pair[1].0 + 1e-9, "overlapping reservations: {pair:?}");
            }
        }
    });
}

/// Busy-time accounting equals the sum of requested durations.
#[test]
fn busy_accounting_is_exact() {
    for_each_seed(256, |rng| {
        let mut pool = EnginePool::new(1);
        let e = EngineId(0);
        let n = rng.usize_in(1, 50);
        let mut total = 0.0;
        for _ in 0..n {
            let d = rng.f64_in(1e-6, 2.0);
            pool.reserve(&[e], SimTime::ZERO, Duration::new(d));
            total += d;
        }
        assert!((pool.busy_total(e).seconds() - total).abs() < 1e-6);
        assert_eq!(pool.ops(e), n as u64);
        // With all ops requested at t=0, a single engine back-to-back
        // schedule means free_at == total busy time.
        assert!((pool.free_at(e).seconds() - total).abs() < 1e-6);
    });
}

/// Two identical simulations produce identical pop sequences (determinism).
#[test]
fn determinism_same_inputs_same_order() {
    let build = || {
        let mut clock: Clock<u32> = Clock::new();
        for i in 0..1000u32 {
            // Lots of ties on purpose.
            clock.schedule(SimTime::new(f64::from(i % 7)), i);
        }
        std::iter::from_fn(|| clock.next_with(&mut |_| 0).map(|(_, e)| e)).collect::<Vec<_>>()
    };
    assert_eq!(build(), build());
}
