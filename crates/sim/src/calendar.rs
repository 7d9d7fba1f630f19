//! Calendar-queue backend for the deterministic event queue.
//!
//! A calendar queue (Brown 1988) spreads pending events over an array of
//! time buckets, each `width` seconds wide, walked cyclically by a dequeue
//! cursor — giving O(1) amortized push/pop when the bucket width tracks the
//! typical inter-event gap. This implementation adds the two refinements a
//! schedule-space checker needs:
//!
//! - **Exact `(time, seq)` order.** Buckets are kept sorted, the cursor
//!   never skips a bucket whose front belongs to the current "year", and a
//!   far-future **overflow ladder** (a plain binary heap) absorbs outliers
//!   that would otherwise force a huge bucket span. Every pop compares the
//!   calendar candidate against the overflow front, so the pop sequence is
//!   bit-identical to a binary heap over the same entries.
//! - **Deterministic resizing.** Bucket count and width are recomputed only
//!   from the queue's own contents (median inter-event gap of a strided
//!   sample) and from operation counters — never from wall-clock time or
//!   randomness — so replaying the same push/pop script rebuilds the same
//!   structure every run.
//!
//! The queue is an internal backend: [`crate::EventQueue`] owns sequence
//! numbering and tie-group semantics and forwards storage here.

use std::collections::{BinaryHeap, VecDeque};

use crate::event::Entry;
use crate::time::SimTime;

/// Minimum number of buckets (power of two).
const MIN_BUCKETS: usize = 16;
/// Maximum number of buckets (power of two); bounds rebuild cost.
const MAX_BUCKETS: usize = 1 << 20;
/// Fallback bucket width when the contents give no usable gap estimate
/// (e.g. every pending event shares one timestamp).
const FALLBACK_WIDTH: f64 = 1.0;
/// Smallest admissible bucket width; keeps `1.0 / width` finite.
const MIN_WIDTH: f64 = 1e-12;
/// Scan/shift work (in probe steps and shifted entries) each operation is
/// allowed for free; anything beyond accrues as rebuild debt.
const COST_BUDGET_PER_OP: u64 = 2;
/// Number of operations between adaptive-rebuild debt checks.
const COST_WINDOW: u64 = 64;
/// Target average entries per occupied bucket. Densities near 1 minimize
/// scan work but scatter entries over so many tiny heap blocks that cache
/// and TLB misses dominate at large queue sizes; a handful of entries per
/// bucket keeps the bucket array compact while insertion shifts stay a few
/// cache lines.
const DENSITY: usize = 4;

/// A time-bucketed priority queue over [`Entry`] values, pop-identical to a
/// min-heap ordered by `(time, seq)`.
pub(crate) struct CalendarQueue<E> {
    /// `nbuckets` deques, each sorted ascending by `(time, seq)`.
    buckets: Vec<VecDeque<Entry<E>>>,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: u64,
    /// Bucket width in seconds and its cached reciprocal.
    width: f64,
    inv_width: f64,
    /// Absolute time of virtual bucket 0.
    start: SimTime,
    /// Dequeue cursor: no calendar entry lives in a virtual bucket below
    /// this (pushes into the past move it back).
    cur_vb: u64,
    /// Entries in `buckets` (excludes the overflow ladder).
    cal_len: usize,
    /// Far-future ladder rung: entries at least a full calendar "year"
    /// past the cursor. `Entry`'s inverted `Ord` makes this a min-heap.
    overflow: BinaryHeap<Entry<E>>,
    /// Scan steps (pop) and shift distance (push) with the operation count
    /// for the current window, plus the excess over the per-op budget
    /// accumulated since the last rebuild. A stale bucket width shows up as
    /// growing debt and triggers a deterministic re-estimate — but only
    /// once the debt rivals the rebuild's own O(len) cost, so rebuilds are
    /// amortized O(1) per operation and a workload the width cannot improve
    /// (e.g. heavy same-time bursts) cannot thrash.
    cost: u64,
    ops: u64,
    debt: u64,
    rebuilds: u64,
}

impl<E> CalendarQueue<E> {
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::with_capacity(0)
    }

    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let nbuckets = buckets_for(capacity);
        CalendarQueue {
            buckets: (0..nbuckets).map(|_| VecDeque::new()).collect(),
            mask: nbuckets as u64 - 1,
            width: FALLBACK_WIDTH,
            inv_width: 1.0 / FALLBACK_WIDTH,
            start: SimTime::ZERO,
            cur_vb: 0,
            cal_len: 0,
            overflow: BinaryHeap::new(),
            cost: 0,
            ops: 0,
            debt: 0,
            rebuilds: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.cal_len + self.overflow.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Grows the bucket array ahead of `additional` expected pushes so the
    /// hot loop does not pay for incremental doublings.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let target = buckets_for(self.len().saturating_add(additional));
        if target > self.buckets.len() {
            self.rebuild(target);
        }
    }

    #[inline]
    fn vb(&self, t: SimTime) -> u64 {
        t.virtual_bucket(self.start, self.inv_width)
    }

    /// Inserts `e` keeping its original sequence number (used both for new
    /// pushes and for re-inserting unpicked tie-group members).
    pub(crate) fn push_entry(&mut self, e: Entry<E>) {
        let vb = self.vb(e.time);
        if vb >= self.cur_vb.saturating_add(self.buckets.len() as u64) {
            // More than a calendar year ahead: ladder it. Migrated back on
            // the next rebuild once the cursor catches up.
            self.overflow.push(e);
            return;
        }
        if vb < self.cur_vb {
            // EventQueue permits pushes at times earlier than the last pop
            // (the Clock forbids it, but the queue contract does not).
            self.cur_vb = vb;
        }
        let bucket = &mut self.buckets[(vb & self.mask) as usize];
        let key = (e.time, e.seq);
        if bucket.back().is_none_or(|last| (last.time, last.seq) < key) {
            bucket.push_back(e); // common case: roughly increasing times
        } else if bucket.front().is_some_and(|first| key < (first.time, first.seq)) {
            bucket.push_front(e); // decreasing pattern stays O(1) too
        } else {
            let idx = bucket.partition_point(|x| (x.time, x.seq) < key);
            // Shifting is a contiguous memmove, far cheaper per entry than
            // the pointer-chasing probe steps pops pay — charge it per
            // couple of cache lines, not per entry, so same-time burst
            // groups landing mid-bucket do not masquerade as a stale width.
            self.cost += ((bucket.len() - idx) as u64) >> 3;
            bucket.insert(idx, e);
        }
        self.cal_len += 1;
        self.ops += 1;
        if self.cal_len > DENSITY * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.rebuild(self.buckets.len() * 2);
        } else {
            self.maybe_adaptive_rebuild();
        }
    }

    /// Where the minimum entry lives, plus the scan steps spent finding it.
    fn locate_min(&self) -> (u64, Option<MinLoc>) {
        let mut steps = 0;
        let mut cal: Option<(SimTime, u64, u64)> = None; // (time, seq, vb)
        if self.cal_len > 0 {
            // Walk at most one calendar year from the cursor; a sorted
            // bucket's front is its minimum, and a front belonging to the
            // scanned virtual bucket is the calendar-wide minimum.
            let nb = self.buckets.len() as u64;
            for step in 0..nb {
                steps += 1;
                let vbv = self.cur_vb.saturating_add(step);
                let front = self.buckets[(vbv & self.mask) as usize].front();
                if let Some(f) = front {
                    if self.vb(f.time) == vbv {
                        cal = Some((f.time, f.seq, vbv));
                        break;
                    }
                }
            }
            if cal.is_none() {
                // Everything is over a year ahead of the cursor (stale
                // width). Fall back to a direct min over bucket fronts.
                for bucket in &self.buckets {
                    if let Some(f) = bucket.front() {
                        if cal.is_none_or(|(t, s, _)| (f.time, f.seq) < (t, s)) {
                            cal = Some((f.time, f.seq, self.vb(f.time)));
                        }
                    }
                }
            }
        }
        let loc = match (cal, self.overflow.peek()) {
            (None, None) => None,
            (Some((_, _, vbv)), None) => Some(MinLoc::Calendar(vbv)),
            (None, Some(_)) => Some(MinLoc::Overflow),
            (Some((t, s, vbv)), Some(o)) => {
                if (o.time, o.seq) < (t, s) {
                    Some(MinLoc::Overflow)
                } else {
                    Some(MinLoc::Calendar(vbv))
                }
            }
        };
        (steps, loc)
    }

    /// Time of the earliest pending entry (read-only; the cursor is not
    /// advanced).
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        match self.locate_min().1? {
            MinLoc::Overflow => self.overflow.peek().map(|e| e.time),
            MinLoc::Calendar(vbv) => self.buckets[(vbv & self.mask) as usize]
                .front()
                .map(|e| e.time),
        }
    }

    /// Removes and returns the minimum entry by `(time, seq)`.
    pub(crate) fn pop(&mut self) -> Option<Entry<E>> {
        let (steps, loc) = self.locate_min();
        self.cost += steps;
        self.ops += 1;
        let e = match loc? {
            MinLoc::Overflow => self.overflow.pop().expect("peeked overflow entry"),
            MinLoc::Calendar(vbv) => {
                self.cur_vb = vbv;
                self.cal_len -= 1;
                self.buckets[(vbv & self.mask) as usize]
                    .pop_front()
                    .expect("located calendar entry")
            }
        };
        // All remaining entries are at or after the popped time, so the
        // cursor may jump straight to its bucket (skipping drained years).
        self.cur_vb = self.vb(e.time);
        self.after_pop();
        Some(e)
    }

    /// Removes *every* entry whose time equals the current minimum into
    /// `out` (bucket run first, overflow entries after; both in `seq`
    /// order) and returns that time. This is the tie-group primitive
    /// behind [`crate::EventQueue::pop_tied`].
    pub(crate) fn drain_min_time_into(&mut self, out: &mut Vec<Entry<E>>) -> Option<SimTime> {
        let (steps, loc) = self.locate_min();
        self.cost += steps;
        self.ops += 1;
        let t = match loc? {
            MinLoc::Overflow => self.overflow.peek().expect("peeked overflow entry").time,
            MinLoc::Calendar(vbv) => self.buckets[(vbv & self.mask) as usize]
                .front()
                .expect("located calendar entry")
                .time,
        };
        // Equal times share one virtual bucket, and `t` is the global
        // minimum, so the whole calendar-side tie group is the front run
        // of exactly this bucket.
        let vbt = self.vb(t);
        self.cur_vb = vbt;
        let bucket = &mut self.buckets[(vbt & self.mask) as usize];
        while bucket.front().is_some_and(|f| f.time == t) {
            out.push(bucket.pop_front().expect("front run entry"));
            self.cal_len -= 1;
        }
        while self.overflow.peek().is_some_and(|f| f.time == t) {
            out.push(self.overflow.pop().expect("peeked overflow entry"));
        }
        self.after_pop();
        Some(t)
    }

    /// Post-pop maintenance: migrate the ladder when the calendar drains,
    /// shrink when mostly empty, re-estimate a stale width.
    fn after_pop(&mut self) {
        if self.cal_len == 0 && !self.overflow.is_empty() {
            // The cursor caught up with the ladder: re-seat the calendar
            // around the far-future cluster.
            self.rebuild(self.buckets.len());
        } else if self.len() < DENSITY * self.buckets.len() / 8 && self.buckets.len() > MIN_BUCKETS {
            self.rebuild((self.buckets.len() / 2).max(MIN_BUCKETS));
        } else {
            self.maybe_adaptive_rebuild();
        }
    }

    /// Rebuilds when recent operations paid too much scan/shift work per
    /// op — the deterministic signal that the bucket width went stale
    /// (too narrow: long empty scans; too wide: long sorted inserts).
    fn maybe_adaptive_rebuild(&mut self) {
        if self.ops >= COST_WINDOW {
            self.debt = self
                .debt
                .saturating_add(self.cost.saturating_sub(COST_BUDGET_PER_OP * self.ops));
            self.cost = 0;
            self.ops = 0;
            // Rebuild only when the excess work since the last rebuild
            // rivals what the rebuild itself costs. A tiny queue with a
            // degenerate width (everything piled into one bucket) heals
            // within O(len) operations; a large queue whose residual cost
            // the width cannot remove never rebuilds at all.
            if self.debt > self.len() as u64 && self.len() >= MIN_BUCKETS {
                self.rebuild(self.buckets.len());
            }
        }
    }

    /// Loads a whole batch of entries in one rebuild-style pass: a single
    /// sort over old-plus-new followed by sequential distribution, instead
    /// of one sorted insert per entry. Bucket access is monotonic in sorted
    /// order, so the pass is cache-friendly even for millions of entries.
    /// Callers gate on batch size — the pass touches every stored entry,
    /// so it only pays off when the batch is comparable to the queue.
    pub(crate) fn push_bulk(&mut self, extra: Vec<Entry<E>>) {
        if extra.is_empty() {
            return;
        }
        let target = buckets_for(self.len() + extra.len()).max(self.buckets.len());
        self.rebuild_with(target, extra);
    }

    /// Collects every entry, re-estimates the bucket width from the
    /// contents, and redistributes over `nbuckets` buckets (power of two).
    /// Purely a function of the stored entries — deterministic.
    fn rebuild(&mut self, nbuckets: usize) {
        self.rebuild_with(nbuckets, Vec::new());
    }

    fn rebuild_with(&mut self, nbuckets: usize, extra: Vec<Entry<E>>) {
        self.rebuilds += 1;
        self.cost = 0;
        self.ops = 0;
        self.debt = 0;
        debug_assert!(nbuckets.is_power_of_two());
        let mut all: Vec<Entry<E>> = Vec::with_capacity(self.len() + extra.len());
        for b in &mut self.buckets {
            all.extend(b.drain(..));
        }
        all.extend(std::mem::take(&mut self.overflow));
        all.extend(extra);
        if self.buckets.len() != nbuckets {
            self.buckets = (0..nbuckets).map(|_| VecDeque::new()).collect();
            self.mask = nbuckets as u64 - 1;
        }
        self.cal_len = 0;
        self.cur_vb = 0;
        self.cost = 0;
        self.ops = 0;
        // Sorting once lets each bucket be rebuilt by pure push_backs, and
        // the sample below reuses the ordered times. SimTime is
        // non-negative and finite, so the IEEE bit pattern orders exactly
        // like the float and the sort runs on plain integer keys.
        all.sort_unstable_by_key(|e| (e.time.seconds().to_bits(), e.seq));
        self.start = all.first().map_or(SimTime::ZERO, |e| e.time);
        self.width = estimate_width(&all);
        self.inv_width = 1.0 / self.width;
        let horizon = nbuckets as u64; // cur_vb == 0
        for e in all {
            let vb = self.vb(e.time);
            if vb >= horizon {
                self.overflow.push(e);
            } else {
                self.buckets[(vb & self.mask) as usize].push_back(e);
                self.cal_len += 1;
            }
        }
    }
}

enum MinLoc {
    /// Minimum is `overflow.peek()`.
    Overflow,
    /// Minimum is the front of the bucket for this virtual bucket index.
    Calendar(u64),
}

/// Power-of-two bucket count sized so that `len` entries average about
/// [`DENSITY`] per occupied bucket with a 2x margin (so one calendar year
/// spans roughly twice the pending window), clamped to
/// `[MIN_BUCKETS, MAX_BUCKETS]`.
fn buckets_for(len: usize) -> usize {
    (2 * len / DENSITY).next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS)
}

/// Bucket width from the median positive inter-event gap of a strided
/// sample of `sorted` (ascending by time). Median, not mean: one far-future
/// outlier must not blow up the width for the dense cluster. Falls back to
/// [`FALLBACK_WIDTH`] when every sampled gap is zero (equal-time bursts sit
/// in a single bucket at O(1) per op regardless of width).
fn estimate_width<E>(sorted: &[Entry<E>]) -> f64 {
    const MAX_SAMPLE: usize = 1024;
    if sorted.len() < 2 {
        return FALLBACK_WIDTH;
    }
    let stride = sorted.len().div_ceil(MAX_SAMPLE).max(1);
    let mut gaps: Vec<f64> = Vec::with_capacity(MAX_SAMPLE);
    let mut prev: Option<f64> = None;
    for e in sorted.iter().step_by(stride) {
        let t = e.time.seconds();
        if let Some(p) = prev {
            let g = t - p;
            if g > 0.0 {
                gaps.push(g);
            }
        }
        prev = Some(t);
    }
    if gaps.is_empty() {
        return FALLBACK_WIDTH;
    }
    gaps.sort_unstable_by(|a, b| a.partial_cmp(b).expect("gaps are finite"));
    // A sampled gap spans `stride` consecutive entries, so the per-event
    // gap is `gap / stride`. A bucket width of `DENSITY` per-event gaps
    // pairs with `buckets_for`'s count so that one calendar year covers
    // about twice the pending window.
    (DENSITY as f64 * gaps[gaps.len() / 2] / stride as f64).max(MIN_WIDTH)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(t: f64, seq: u64) -> Entry<u64> {
        Entry {
            time: SimTime::new(t),
            seq,
            event: seq,
        }
    }

    /// Reference pop order: sort by (time, seq).
    fn drain(q: &mut CalendarQueue<u64>) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.time.seconds(), e.seq));
        }
        out
    }

    #[test]
    fn pops_sorted_across_resizes() {
        let mut q = CalendarQueue::new();
        // Enough entries to force several grow rebuilds.
        let mut expect = Vec::new();
        for i in 0..500u64 {
            let t = ((i * 2654435761) % 1000) as f64 * 1e-3;
            q.push_entry(entry(t, i));
            expect.push((t, i));
        }
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(drain(&mut q), expect);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_outliers_go_to_overflow_and_come_back() {
        let mut q = CalendarQueue::new();
        for i in 0..64u64 {
            q.push_entry(entry(i as f64 * 1e-6, i));
        }
        // Outliers millions of bucket-widths ahead.
        q.push_entry(entry(1e6, 64));
        q.push_entry(entry(2e6, 65));
        assert!(
            !q.overflow.is_empty(),
            "outliers should land in the overflow ladder"
        );
        let order = drain(&mut q);
        assert_eq!(order.len(), 66);
        assert_eq!(order[64], (1e6, 64));
        assert_eq!(order[65], (2e6, 65));
    }

    #[test]
    fn same_time_burst_pops_in_seq_order() {
        let mut q = CalendarQueue::new();
        for i in 0..1000u64 {
            q.push_entry(entry(1.0, i));
        }
        let order = drain(&mut q);
        assert_eq!(order, (0..1000u64).map(|i| (1.0, i)).collect::<Vec<_>>());
    }

    #[test]
    fn push_below_cursor_moves_it_back() {
        let mut q = CalendarQueue::new();
        q.push_entry(entry(10.0, 0));
        assert_eq!(q.pop().unwrap().seq, 0);
        // The queue contract (unlike the Clock) allows pushing a time
        // earlier than the last pop.
        q.push_entry(entry(1.0, 1));
        q.push_entry(entry(5.0, 2));
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn shrink_keeps_order() {
        let mut q = CalendarQueue::with_capacity(4096);
        let before = q.buckets.len();
        for i in 0..4096u64 {
            q.push_entry(entry(i as f64, i));
        }
        // Drain most of the queue; the bucket array should shrink.
        for i in 0..4090u64 {
            assert_eq!(q.pop().unwrap().seq, i);
        }
        assert!(q.buckets.len() < before, "expected shrink rebuild");
        for i in 4090..4096u64 {
            assert_eq!(q.pop().unwrap().seq, i);
        }
    }

    #[test]
    fn drain_min_time_collects_bucket_and_overflow() {
        let mut q = CalendarQueue::new();
        for i in 0..8u64 {
            q.push_entry(entry(1.0, i));
        }
        q.push_entry(entry(2.0, 8));
        // A far-future outlier sits in the overflow ladder and must not
        // join (or disturb) the minimum-time group.
        q.push_entry(entry(1e9, 9));
        let mut out = Vec::new();
        assert_eq!(q.drain_min_time_into(&mut out), Some(SimTime::new(1.0)));
        assert_eq!(out.iter().map(|e| e.seq).collect::<Vec<_>>(), (0..8).collect::<Vec<_>>());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn peek_does_not_advance_cursor() {
        let mut q = CalendarQueue::new();
        q.push_entry(entry(3.0, 0));
        q.push_entry(entry(1.0, 1));
        assert_eq!(q.peek_time(), Some(SimTime::new(1.0)));
        assert_eq!(q.peek_time(), Some(SimTime::new(1.0)));
        // A push earlier than the peeked minimum must still win.
        q.push_entry(entry(0.5, 2));
        assert_eq!(q.pop().unwrap().seq, 2);
    }
}
