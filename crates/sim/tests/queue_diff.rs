//! Heap-vs-calendar differential suite (deterministic edition).
//!
//! Runs identical randomized op scripts — pushes from adversarial time
//! distributions, pops, tied pops with pseudo-random picks, peeks —
//! against both [`QueueBackend`]s in lockstep and asserts every observable
//! result is identical. `tests/properties.rs` explores the same space with
//! free-form seeded op scripts; here each script targets one time
//! distribution.

use xk_sim::{EventQueue, QueueBackend, SimTime};

/// SplitMix64: small, seedable, and identical everywhere.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Time distributions that stress different calendar-queue mechanisms.
#[derive(Clone, Copy, Debug)]
enum Dist {
    /// Uniform over one second: the calendar's happy path.
    Uniform,
    /// A handful of distinct timestamps: large same-time tie groups.
    Bursts,
    /// Mostly a dense cluster, occasionally 6-9 orders of magnitude out:
    /// exercises the overflow ladder and post-drain migration.
    FarFuture,
    /// Tiny gaps around a huge base: stale-width and re-estimation path.
    DenseClusterFarOrigin,
    /// Monotonically shrinking times: front-insert path and cursor moves.
    Decreasing,
}

impl Dist {
    fn sample(self, rng: &mut Rng, step: usize) -> SimTime {
        let t = match self {
            Dist::Uniform => rng.unit(),
            Dist::Bursts => rng.below(7) as f64 * 0.125,
            Dist::FarFuture => {
                if rng.below(16) == 0 {
                    1e6 + rng.unit() * 1e9
                } else {
                    rng.unit() * 1e-3
                }
            }
            Dist::DenseClusterFarOrigin => 5e8 + rng.unit() * 1e-6,
            Dist::Decreasing => 1e3 - step as f64 * 1e-3,
        };
        SimTime::new(t)
    }
}

/// One lockstep script: every push/pop/peek/len result must agree between
/// the two backends at every step.
fn lockstep(seed: u64, dist: Dist, ops: usize) {
    let mut rng = Rng(seed);
    let mut heap = EventQueue::with_backend(QueueBackend::Heap);
    let mut cal = EventQueue::with_backend(QueueBackend::Calendar);
    let mut next_id: u64 = 0;
    for step in 0..ops {
        match rng.below(10) {
            // Pushes are weighted so queues grow, then drain at the end.
            0..=4 => {
                let t = dist.sample(&mut rng, step);
                heap.push(t, next_id);
                cal.push(t, next_id);
                next_id += 1;
            }
            5 => {
                let n = 1 + rng.below(32) as usize;
                let batch: Vec<(SimTime, u64)> = (0..n)
                    .map(|i| (dist.sample(&mut rng, step), next_id + i as u64))
                    .collect();
                next_id += n as u64;
                heap.push_batch(batch.iter().copied());
                cal.push_batch(batch);
            }
            6..=7 => {
                assert_eq!(heap.pop(), cal.pop(), "{dist:?} seed {seed} step {step}");
            }
            8 => {
                // Both backends present the same FIFO-ordered tie group,
                // so feeding one pick sequence to both must select the
                // same event and leave the same queue behind.
                let mut picks_h = Vec::new();
                let mut picks_c = Vec::new();
                let pick = rng.next();
                let h = heap.pop_tied(&mut |n| {
                    picks_h.push(n);
                    (pick % n as u64) as usize
                });
                let c = cal.pop_tied(&mut |n| {
                    picks_c.push(n);
                    (pick % n as u64) as usize
                });
                assert_eq!(h, c, "{dist:?} seed {seed} step {step}");
                assert_eq!(
                    picks_h, picks_c,
                    "tie-group sizes diverged ({dist:?} seed {seed} step {step})"
                );
            }
            _ => {
                assert_eq!(heap.peek_time(), cal.peek_time());
                assert_eq!(heap.len(), cal.len());
                assert_eq!(heap.is_empty(), cal.is_empty());
            }
        }
    }
    // Drain both completely: the tails must agree too.
    loop {
        let (h, c) = (heap.pop(), cal.pop());
        assert_eq!(h, c, "drain tail diverged ({dist:?} seed {seed})");
        if h.is_none() {
            break;
        }
    }
}

#[test]
fn lockstep_uniform() {
    for seed in 0..8 {
        lockstep(seed, Dist::Uniform, 4000);
    }
}

#[test]
fn lockstep_same_time_bursts() {
    for seed in 0..8 {
        lockstep(100 + seed, Dist::Bursts, 4000);
    }
}

#[test]
fn lockstep_far_future_outliers() {
    for seed in 0..8 {
        lockstep(200 + seed, Dist::FarFuture, 4000);
    }
}

#[test]
fn lockstep_dense_cluster_far_origin() {
    for seed in 0..8 {
        lockstep(300 + seed, Dist::DenseClusterFarOrigin, 4000);
    }
}

#[test]
fn lockstep_decreasing_times() {
    for seed in 0..4 {
        lockstep(400 + seed, Dist::Decreasing, 2000);
    }
}

/// Capacity-constructed queues follow the same contract (the calendar
/// pre-sizes its bucket array from the hint; nothing observable changes).
#[test]
fn lockstep_with_capacity_hint() {
    let mut rng = Rng(9);
    let mut heap = EventQueue::with_backend_capacity(QueueBackend::Heap, 4096);
    let mut cal = EventQueue::with_backend_capacity(QueueBackend::Calendar, 4096);
    for i in 0..4096u64 {
        let t = SimTime::new(rng.unit() * 60.0);
        heap.push(t, i);
        cal.push(t, i);
    }
    while let Some(h) = heap.pop() {
        assert_eq!(Some(h), cal.pop());
    }
    assert!(cal.is_empty());
}
