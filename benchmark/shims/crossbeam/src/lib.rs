//! Stand-in for `crossbeam`: the `deque` surface `xk_runtime::par_exec`
//! uses, backed by `Mutex<VecDeque>` instead of lock-free Chase-Lev deques.
//! Semantics match (FIFO workers, stealers take from the front, the
//! injector hands a batch to the thief); contention costs a lock, and
//! `Steal::Retry` is never returned.

pub mod deque {
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex, MutexGuard};

    /// Largest batch `steal_batch_and_pop` moves, as in crossbeam.
    const MAX_BATCH: usize = 32;

    fn lock<T>(q: &Mutex<VecDeque<T>>) -> MutexGuard<'_, VecDeque<T>> {
        // A queue of plain task ids is valid at every step, so a panic in
        // another worker must not wedge the survivors.
        q.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Outcome of a steal attempt.
    #[derive(Debug, PartialEq, Eq)]
    pub enum Steal<T> {
        Empty,
        Success(T),
        Retry,
    }

    /// The shared queue new work enters through.
    #[derive(Debug, Default)]
    pub struct Injector<T> {
        queue: Mutex<VecDeque<T>>,
    }

    impl<T> Injector<T> {
        pub fn new() -> Self {
            Injector {
                queue: Mutex::new(VecDeque::new()),
            }
        }

        pub fn push(&self, task: T) {
            lock(&self.queue).push_back(task);
        }

        /// Pops one task for the caller and moves up to half of the rest
        /// (at most `MAX_BATCH`) into `dest`.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            let mut queue = lock(&self.queue);
            let Some(first) = queue.pop_front() else {
                return Steal::Empty;
            };
            let batch = (queue.len() / 2).min(MAX_BATCH);
            if batch > 0 {
                lock(&dest.queue).extend(queue.drain(..batch));
            }
            Steal::Success(first)
        }
    }

    /// A worker's own FIFO queue.
    #[derive(Debug)]
    pub struct Worker<T> {
        queue: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Worker<T> {
        pub fn new_fifo() -> Self {
            Worker {
                queue: Arc::new(Mutex::new(VecDeque::new())),
            }
        }

        pub fn push(&self, task: T) {
            lock(&self.queue).push_back(task);
        }

        pub fn pop(&self) -> Option<T> {
            lock(&self.queue).pop_front()
        }

        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }
    }

    /// A handle other workers steal through.
    #[derive(Debug)]
    pub struct Stealer<T> {
        queue: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }
    }

    impl<T> Stealer<T> {
        pub fn steal(&self) -> Steal<T> {
            match lock(&self.queue).pop_front() {
                Some(task) => Steal::Success(task),
                None => Steal::Empty,
            }
        }
    }
}
