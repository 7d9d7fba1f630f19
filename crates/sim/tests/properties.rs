//! Seeded property tests of the DES core invariants, including the
//! heap-vs-calendar differential property (free-form op scripts; the
//! per-distribution lockstep scripts live in `tests/queue_diff.rs`).

use std::collections::BTreeSet;

use xk_lp::{for_each_seed, SplitMix64};
use xk_sim::{Clock, Duration, EnginePool, EventQueue, QueueBackend, SimTime};

/// One step of a differential op script. Times mix a dense uniform range,
/// coarse quantized values (same-time tie bursts) and far-future outliers
/// (overflow-ladder residents) — the distributions a calendar queue finds
/// adversarial.
#[derive(Clone, Copy, Debug)]
enum QOp {
    Push(f64),
    PushBurst(u8, u8),
    Pop,
    PopTied(u64),
    Peek,
}

/// Weights: push 4, burst 1, pop 3, tied pop 2, peek 1; push times are
/// dense 3 : quantized 2 : far-future 1.
fn qop(rng: &mut SplitMix64) -> QOp {
    match rng.next_below(11) {
        0..=3 => QOp::Push(match rng.next_below(6) {
            0..=2 => rng.next_f64(),
            3..=4 => rng.next_below(8) as f64 * 0.25,
            _ => rng.f64_in(1e6, 1e12),
        }),
        4 => QOp::PushBurst(rng.next_below(8) as u8, rng.usize_in(1, 16) as u8),
        5..=7 => QOp::Pop,
        8..=9 => QOp::PopTied(rng.next_u64()),
        _ => QOp::Peek,
    }
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
        while let Some((t, _)) = clock.next() {
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
        let mut pool = EnginePool::new();
        let engines: Vec<_> = (0..6).map(|i| pool.add(format!("e{i}"))).collect();
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
        let mut pool = EnginePool::new();
        let e = pool.add("only");
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

/// The calendar backend is bit-for-bit interchangeable with the binary
/// heap: any interleaving of pushes (dense, tied, far-future), pops,
/// tied pops with arbitrary picks and peeks observes identical results
/// from both, and both drain to identical tails.
#[test]
fn calendar_matches_heap_bit_for_bit() {
    for_each_seed(256, |rng| {
        let mut heap = EventQueue::with_backend(QueueBackend::Heap);
        let mut cal = EventQueue::with_backend(QueueBackend::Calendar);
        let mut next_id: u64 = 0;
        for _ in 0..rng.usize_in(1, 400) {
            match qop(rng) {
                QOp::Push(t) => {
                    let t = SimTime::new(t);
                    heap.push(t, next_id);
                    cal.push(t, next_id);
                    next_id += 1;
                }
                QOp::PushBurst(q, n) => {
                    // Same-time burst through the batch path.
                    let t = SimTime::new(f64::from(q) * 0.25);
                    let batch: Vec<(SimTime, u64)> =
                        (0..u64::from(n)).map(|i| (t, next_id + i)).collect();
                    next_id += u64::from(n);
                    heap.push_batch(batch.iter().copied());
                    cal.push_batch(batch);
                }
                QOp::Pop => assert_eq!(heap.pop(), cal.pop()),
                QOp::PopTied(pick) => {
                    let mut sizes = (None, None);
                    let h = heap.pop_tied(&mut |n| {
                        sizes.0 = Some(n);
                        (pick % n as u64) as usize
                    });
                    let c = cal.pop_tied(&mut |n| {
                        sizes.1 = Some(n);
                        (pick % n as u64) as usize
                    });
                    assert_eq!(h, c);
                    assert_eq!(sizes.0, sizes.1, "tie-group sizes diverged");
                }
                QOp::Peek => {
                    assert_eq!(heap.peek_time(), cal.peek_time());
                    assert_eq!(heap.len(), cal.len());
                }
            }
        }
        loop {
            let (h, c) = (heap.pop(), cal.pop());
            assert_eq!(&h, &c, "drain tail diverged");
            if h.is_none() {
                break;
            }
        }
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
        let mut order = Vec::new();
        while let Some((_, e)) = clock.next() {
            order.push(e);
        }
        order
    };
    assert_eq!(build(), build());
}
