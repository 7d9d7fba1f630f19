//! Deterministic event queue.
//!
//! A classic discrete-event priority queue keyed by [`SimTime`], stored in
//! a `BinaryHeap`. Ties are broken by a monotonically increasing sequence
//! number so that two events scheduled for the same instant always pop in
//! scheduling order — this is what makes whole-simulation runs bit-for-bit
//! reproducible.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest (time, seq).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Name of the environment variable that once selected an event-queue
/// backend. Nothing reads the variable any more; the constant remains only
/// because the frozen `benchmark/src/envstamp.rs` names it, and a
/// `benchmark` PR removes it together with [`selected_backend`].
pub const QUEUE_ENV: &str = "XK_EVENT_QUEUE";

/// The storage behind an [`EventQueue`]: only the binary heap. Kept, like
/// [`QUEUE_ENV`], for the benchmark's environment stamp.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueBackend {
    /// `std::collections::BinaryHeap` — O(log n) per op.
    Heap,
}

/// Always [`QueueBackend::Heap`]. The benchmark's environment stamp
/// formats this with `{:?}`; a `benchmark` PR removes it.
pub fn selected_backend() -> QueueBackend {
    QueueBackend::Heap
}

/// A deterministic discrete-event queue.
///
/// Events of type `E` are scheduled at absolute [`SimTime`]s and popped in
/// non-decreasing time order, FIFO among equal times.
///
/// A tied pop ([`EventQueue::pop_tied`]) moves the whole minimum-time group
/// out of the heap into `group`, in FIFO order, where it stays until it is
/// drained: later picks from it are a `VecDeque::remove`, not a heap
/// round-trip per loser. Invariant: while `group` is non-empty it holds
/// every pending event at its time, and the heap holds only later ones.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    group: VecDeque<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with space for `capacity` events, so the hot
    /// loop of a simulation never reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            group: VecDeque::new(),
            seq: 0,
        }
    }

    /// Pre-reserves space for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { time, seq, event };
        match self.group.front().map(|e| e.time) {
            // Its seq is the largest yet: appending keeps the group FIFO.
            Some(t) if time == t => self.group.push_back(entry),
            // A new minimum: the group is no longer the earliest events.
            Some(t) if time < t => {
                self.heap.extend(self.group.drain(..));
                self.heap.push(entry);
            }
            _ => self.heap.push(entry),
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = match self.group.pop_front() {
            Some(e) => e,
            None => self.heap.pop()?,
        };
        Some((e.time, e.event))
    }

    /// Removes and returns one of the earliest-time events, letting `tie`
    /// pick among them when several share the minimum timestamp.
    ///
    /// The tied events are presented to `tie` in FIFO (sequence) order, so
    /// `tie(_) == 0` reproduces [`EventQueue::pop`] exactly, and the events
    /// not picked keep that order for later pops. `tie` is only consulted
    /// when two or more events are tied; out-of-range picks are clamped to
    /// the last candidate.
    pub fn pop_tied(&mut self, tie: &mut dyn FnMut(usize) -> usize) -> Option<(SimTime, E)> {
        if self.group.is_empty() {
            let first = self.heap.pop()?;
            let t = first.time;
            if self.heap.peek().is_none_or(|e| e.time != t) {
                return Some((first.time, first.event));
            }
            // BinaryHeap pops the tie group in seq order.
            self.group.push_back(first);
            while self.heap.peek().is_some_and(|e| e.time == t) {
                self.group.push_back(self.heap.pop().expect("peeked entry"));
            }
        }
        let n = self.group.len();
        let pick = if n == 1 { 0 } else { tie(n).min(n - 1) };
        // The canonical pick is the common one; `pop_front` costs less
        // than the general `remove(0)`.
        let e = match pick {
            0 => self.group.pop_front(),
            k => self.group.remove(k),
        };
        let e = e.expect("pick is in range");
        Some((e.time, e.event))
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.group.front().or_else(|| self.heap.peek()).map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.group.len() + self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.group.is_empty() && self.heap.is_empty()
    }
}

/// The simulation driver: a clock plus an event queue.
///
/// [`Clock::schedule`] enforces monotonicity; popping through the clock
/// keeps `now()` consistent with the last delivered event.
pub struct Clock<E> {
    now: SimTime,
    queue: EventQueue<E>,
}

impl<E> Default for Clock<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Clock<E> {
    /// A clock at time zero with an empty queue.
    pub fn new() -> Self {
        Clock {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// A clock at time zero whose queue pre-reserves space for `capacity`
    /// pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        Clock {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(capacity),
        }
    }

    /// Pre-reserves queue space for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.queue.reserve(additional);
    }

    /// Current simulated time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is in the past — scheduling into the past would break
    /// causality and always indicates a model bug.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule event in the past: {:?} < {:?}",
            time,
            self.now
        );
        self.queue.push(time, event);
    }

    /// Pops one of the earliest-time events, advancing the clock to its
    /// timestamp; `tie` picks among same-time candidates (see
    /// [`EventQueue::pop_tied`]). With `tie(_) == 0` events come in
    /// `(time, FIFO)` order; other picks are how schedule-space checkers
    /// explore event orderings without giving up determinism.
    pub fn next_with(&mut self, tie: &mut dyn FnMut(usize) -> usize) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop_tied(tie)?;
        debug_assert!(t >= self.now, "event queue returned a past event");
        self.now = t;
        Some((t, e))
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Time of the earliest pending event, if any — without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical tie pick: FIFO.
    fn fifo(_: usize) -> usize {
        0
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(3.0), "c");
        q.push(SimTime::new(1.0), "a");
        q.push(SimTime::new(2.0), "b");
        assert_eq!(q.pop(), Some((SimTime::new(1.0), "a")));
        assert_eq!(q.pop(), Some((SimTime::new(2.0), "b")));
        assert_eq!(q.pop(), Some((SimTime::new(3.0), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::new(1.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime::new(1.0), i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut c = Clock::new();
        c.schedule(SimTime::new(5.0), ());
        c.schedule(SimTime::new(2.0), ());
        assert_eq!(c.now(), SimTime::ZERO);
        assert_eq!(c.peek_time(), Some(SimTime::new(2.0)));
        assert!(!c.is_empty());
        c.next_with(&mut fifo);
        assert_eq!(c.now(), SimTime::new(2.0));
        c.next_with(&mut fifo);
        assert_eq!(c.now(), SimTime::new(5.0));
        assert!(c.next_with(&mut fifo).is_none());
        assert!(c.is_empty());
        assert_eq!(c.peek_time(), None);
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut c = Clock::new();
        c.schedule(SimTime::new(2.0), ());
        c.next_with(&mut fifo);
        c.schedule(SimTime::new(1.0), ());
    }

    #[test]
    fn reserve_does_not_disturb_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(2.0), 1u8);
        q.reserve(1000);
        q.push(SimTime::new(1.0), 2u8);
        assert_eq!(q.pop(), Some((SimTime::new(1.0), 2u8)));
        assert_eq!(q.pop(), Some((SimTime::new(2.0), 1u8)));
    }

    #[test]
    fn pop_tied_zero_is_fifo() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for (t, e) in [(1.0, 0), (1.0, 1), (2.0, 2), (1.0, 3), (2.0, 4)] {
            a.push(SimTime::new(t), e);
            b.push(SimTime::new(t), e);
        }
        let mut canonical = |_n: usize| 0;
        while let Some(ea) = a.pop() {
            assert_eq!(Some(ea), b.pop_tied(&mut canonical));
        }
        assert!(b.pop_tied(&mut canonical).is_none());
    }

    #[test]
    fn pop_tied_picks_and_preserves_rest() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.push(SimTime::new(1.0), i);
        }
        q.push(SimTime::new(2.0), 9);
        let mut ns = Vec::new();
        let got = q
            .pop_tied(&mut |n| {
                ns.push(n);
                2
            })
            .unwrap();
        assert_eq!(got, (SimTime::new(1.0), 2));
        assert_eq!(ns, vec![4]);
        // Remaining tied events keep FIFO order among themselves.
        assert_eq!(q.pop(), Some((SimTime::new(1.0), 0)));
        assert_eq!(q.pop(), Some((SimTime::new(1.0), 1)));
        assert_eq!(q.pop(), Some((SimTime::new(1.0), 3)));
        assert_eq!(q.pop(), Some((SimTime::new(2.0), 9)));
    }

    #[test]
    fn pop_tied_out_of_range_clamps_and_singleton_skips_tie() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(1.0), 'a');
        // Single candidate: tie must not be consulted.
        let mut called = false;
        let got = q.pop_tied(&mut |_| {
            called = true;
            0
        });
        assert_eq!(got, Some((SimTime::new(1.0), 'a')));
        assert!(!called);
        q.push(SimTime::new(3.0), 'x');
        q.push(SimTime::new(3.0), 'y');
        assert_eq!(q.pop_tied(&mut |_| 99), Some((SimTime::new(3.0), 'y')));
    }

    #[test]
    fn pushes_beside_an_open_tie_group_keep_the_order() {
        let mut q = EventQueue::new();
        for i in 0..3 {
            q.push(SimTime::new(2.0), i);
        }
        // Opens the group {0, 1, 2} at t = 2 and takes 1.
        assert_eq!(q.pop_tied(&mut |_| 1), Some((SimTime::new(2.0), 1)));
        q.push(SimTime::new(2.0), 3); // joins the group, last
        q.push(SimTime::new(3.0), 4); // stays in the heap
        assert_eq!(q.pop_tied(&mut |n| n - 1), Some((SimTime::new(2.0), 3)));
        q.push(SimTime::new(1.0), 5); // earlier: the group goes back
        assert_eq!((q.len(), q.peek_time()), (4, Some(SimTime::new(1.0))));
        let rest: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, [5, 0, 2, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(4.0), 1u8);
        q.push(SimTime::new(2.0), 2u8);
        assert_eq!(q.peek_time(), Some(SimTime::new(2.0)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::new(2.0));
    }

    /// What `benchmark/src/envstamp.rs` prints as `queue_backend`.
    #[test]
    fn backend_reports_and_defaults() {
        assert_eq!(format!("{:?}", selected_backend()).to_lowercase(), "heap");
    }
}
