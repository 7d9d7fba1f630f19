//! Cross-seed batch replica driver.
//!
//! Schedule-space exploration (xk-check's 1100-seed matrices) and best-tile
//! sweeps run the *same* simulation many times with only a seed, controller
//! or tile parameter varying — an embarrassingly parallel replica workload.
//! [`run_replicas`] fans those replicas out over a bounded worker pool,
//! sharing the immutable inputs (task graph, topology, config) by reference
//! and collecting one result per replica **in replica-index order**, so a
//! batched caller observes exactly the vectors a serial loop would have
//! produced (structure-of-arrays over the replica axis: callers index
//! result fields by replica, not by completion order).
//!
//! Determinism: each replica is a pure function of its index; worker
//! scheduling only changes *when* a result is computed, never *what* it is
//! or *where* it lands. Panics inside a replica propagate to the caller
//! once the pool joins, like a serial loop's panic would.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Number of worker threads [`run_replicas`] uses when the caller passes
/// `0` ("auto"): the machine's available parallelism, or 1 when that is
/// unknown.
pub fn default_replica_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f(0..replicas)` over a pool of `threads` workers (0 = auto via
/// [`default_replica_threads`]) and returns the results indexed by replica.
///
/// `f` must be a pure function of the replica index over shared immutable
/// state — that is what makes the batched result identical to the serial
/// `(0..replicas).map(f).collect()`: results are placed by index, not by
/// completion order. With `threads <= 1` (or a single replica) it *is* that
/// serial loop, with no pool spun up at all.
pub fn run_replicas<T, F>(replicas: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = if threads == 0 {
        default_replica_threads()
    } else {
        threads
    };
    let workers = threads.min(replicas);
    if workers <= 1 {
        return (0..replicas).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let mut slots: Vec<Option<T>> = Vec::with_capacity(replicas);
    slots.resize_with(replicas, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= replicas {
                        break;
                    }
                    // A send can only fail if the receiver was dropped,
                    // which happens when a sibling worker panicked and the
                    // scope is unwinding — stop quietly and let the scope
                    // re-raise that panic.
                    if tx.send((i, f(i))).is_err() {
                        break;
                    }
                })
            })
            .collect();
        drop(tx);
        for (i, result) in rx {
            slots[i] = Some(result);
        }
        // Join rather than let the scope wait: the scope returns once the
        // closures finish, while the threads may still be exiting. A
        // thread's malloc arena is only released for reuse at exit, so the
        // next batch's workers could each open a fresh arena (a run cache
        // refilled pass after pass then held ~35 % more resident memory).
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every replica sends exactly one result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_replica_order() {
        // Uneven per-replica work so completion order differs from index
        // order; results must come back indexed anyway.
        let out = run_replicas(64, 4, |i| {
            let spin = (i * 2654435761) % 1000;
            let mut acc = i as u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
            }
            let _ = acc;
            i * 3
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = run_replicas(33, 1, |i| i as u64 * i as u64);
        let parallel = run_replicas(33, 8, |i| i as u64 * i as u64);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_replicas_and_auto_threads() {
        let out: Vec<u32> = run_replicas(0, 0, |_| unreachable!());
        assert!(out.is_empty());
        let out = run_replicas(3, 0, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "replica 3 failed")]
    fn a_replica_panic_reaches_the_caller_with_its_message() {
        run_replicas(8, 2, |i| assert!(i != 3, "replica {i} failed"));
    }

    #[test]
    fn shares_immutable_state_by_reference() {
        let table: Vec<u64> = (0..100).map(|i| i * 7).collect();
        let out = run_replicas(100, 4, |i| table[i] + 1);
        assert_eq!(out, (0..100).map(|i| i * 7 + 1).collect::<Vec<_>>());
    }
}
