//! The trace container and its aggregations.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::labels::LabelTable;
use crate::span::{FlowId, Label, Place, Span, SpanKind};

/// Longest hole in a set of `(start, end)` intervals, ignoring the idle
/// lead-in before the first interval starts (`[0, first_start)` is warm-up —
/// e.g. host-side setup — not a synchronization gap).
fn longest_interval_gap(mut intervals: Vec<(f64, f64)>) -> f64 {
    if intervals.is_empty() {
        return 0.0;
    }
    intervals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut gap: f64 = 0.0;
    let mut covered_until = intervals[0].0;
    for (s, e) in intervals {
        if s > covered_until {
            gap = gap.max(s - covered_until);
        }
        covered_until = covered_until.max(e);
    }
    gap
}

/// A complete execution trace: every engine operation of a simulated run.
///
/// Each [`Span`] carries a [`Label`] index into this trace's symbol table
/// ([`Trace::label`]), so recording a span never clones a `String`. The
/// table is either handed in whole ([`Trace::with_labels`]) or grown by
/// [`Trace::intern`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    /// Symbol table: `Label(i)` resolves to `labels.get(i)`. A table from
    /// `with_labels` stays shared until `intern` adds to it.
    labels: Arc<LabelTable>,
    /// Reverse lookup for `intern`, built on its first call and dropped by
    /// `compact`.
    index: HashMap<Box<str>, u32>,
}

/// Per-kind cumulated busy time, in seconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Seconds per span kind.
    pub by_kind: BTreeMap<SpanKind, f64>,
}

impl Breakdown {
    /// Total seconds across all kinds.
    pub fn total(&self) -> f64 {
        self.by_kind.values().sum()
    }

    /// Seconds spent in transfers (H2D + D2H + P2P).
    pub fn transfer(&self) -> f64 {
        SpanKind::ALL
            .iter()
            .filter(|k| k.is_transfer())
            .map(|k| self.by_kind.get(k).copied().unwrap_or(0.0))
            .sum()
    }

    /// Fraction of total time spent in transfers, in `[0, 1]`
    /// (the paper's Fig. 6 right-hand metric: XKBlas ≈ 25.4 %,
    /// Chameleon Tile ≈ 41.2 % on GEMM N=32768).
    pub fn transfer_ratio(&self) -> f64 {
        let t = self.total();
        if t <= 0.0 {
            0.0
        } else {
            self.transfer() / t
        }
    }

    /// Normalized share of each kind, in `[0, 1]`, report order.
    pub fn normalized(&self) -> Vec<(SpanKind, f64)> {
        let t = self.total();
        SpanKind::ALL
            .iter()
            .map(|k| {
                let v = self.by_kind.get(k).copied().unwrap_or(0.0);
                (*k, if t <= 0.0 { 0.0 } else { v / t })
            })
            .collect()
    }

    /// Seconds recorded for one kind.
    pub fn get(&self, kind: SpanKind) -> f64 {
        self.by_kind.get(&kind).copied().unwrap_or(0.0)
    }
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Empty trace whose symbol table is `labels`, shared rather than
    /// copied: an executor that interned every label of a graph once
    /// records each run's spans against that table without interning.
    pub fn with_labels(labels: Arc<LabelTable>) -> Self {
        Trace { spans: Vec::new(), labels, index: HashMap::new() }
    }

    /// Interns `label`, returning its stable [`Label`] index. Interning the
    /// same string twice returns the same index (the first one, in a table
    /// from [`Trace::with_labels`] that repeats it); the empty string maps
    /// to [`Label::NONE`] without occupying a table slot.
    pub fn intern(&mut self, label: &str) -> Label {
        if label.is_empty() {
            return Label::NONE;
        }
        if self.index.is_empty() {
            for (id, text) in self.labels.iter().enumerate() {
                self.index.entry(text.into()).or_insert(id as u32);
            }
        }
        if let Some(&id) = self.index.get(label) {
            return Label(id);
        }
        let id = Arc::make_mut(&mut self.labels).push(label);
        self.index.insert(label.into(), id);
        Label(id)
    }

    /// Resolves an interned label back to its text. [`Label::NONE`] and
    /// out-of-range labels resolve to `""`.
    pub fn label(&self, l: Label) -> &str {
        self.labels.get(l.0 as usize).unwrap_or("")
    }

    /// The symbol table, indexed by `Label(i)`; clone the `Arc` to share
    /// it with [`Trace::with_labels`].
    pub fn labels(&self) -> &Arc<LabelTable> {
        &self.labels
    }

    /// Records one span.
    ///
    /// # Panics
    /// Panics if `end < start` (debug builds) — a negative-duration span is
    /// always an executor bug.
    pub fn push(&mut self, span: Span) {
        debug_assert!(
            span.end >= span.start,
            "negative-duration span: {span:?}"
        );
        self.spans.push(span);
    }

    /// All recorded spans, unsorted.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Latest end time over all spans (the makespan), 0 for empty traces.
    pub fn makespan(&self) -> f64 {
        self.spans.iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// Cumulated busy seconds per kind over the whole trace
    /// (paper Fig. 6 left).
    pub fn breakdown(&self) -> Breakdown {
        let mut b = Breakdown::default();
        for s in &self.spans {
            *b.by_kind.entry(s.kind).or_insert(0.0) += s.duration();
        }
        b
    }

    /// Cumulated busy seconds per kind for each device (paper Fig. 7).
    pub fn breakdown_per_device(&self) -> BTreeMap<Place, Breakdown> {
        let mut out: BTreeMap<Place, Breakdown> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.place)
                .or_default()
                .by_kind
                .entry(s.kind)
                .or_insert(0.0) += s.duration();
        }
        out
    }

    /// Total bytes moved, per transfer kind.
    pub fn bytes_by_kind(&self) -> BTreeMap<SpanKind, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            if s.kind.is_transfer() {
                *out.entry(s.kind).or_insert(0) += s.bytes;
            }
        }
        out
    }

    /// Per-device kernel busy seconds — the load vector used for the
    /// imbalance analysis of §IV-E.
    pub fn kernel_load_per_gpu(&self, n_gpus: usize) -> Vec<f64> {
        let mut loads = vec![0.0; n_gpus];
        for s in &self.spans {
            if s.kind == SpanKind::Kernel {
                if let Place::Gpu(g) = s.place {
                    if (g as usize) < n_gpus {
                        loads[g as usize] += s.duration();
                    }
                }
            }
        }
        loads
    }

    /// Spans of one device sorted by start time (Gantt input).
    pub fn device_spans_sorted(&self, place: Place) -> Vec<&Span> {
        let mut v: Vec<&Span> = self.spans.iter().filter(|s| s.place == place).collect();
        v.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        v
    }

    /// The longest gap with *no* span active anywhere, within `[0, makespan]`.
    /// The composition analysis (Fig. 9) uses this: XKBlas keeps GPUs busy
    /// across routine calls while Chameleon shows synchronization gaps.
    /// Idle time before the first span starts does not count as a gap.
    pub fn longest_global_gap(&self) -> f64 {
        longest_interval_gap(self.spans.iter().map(|s| (s.start, s.end)).collect())
    }

    /// The longest interval with no *kernel* running on any device, within
    /// the span of kernel activity — the measure of the synchronization
    /// holes in the composition Gantt (Fig. 9): during Chameleon's
    /// inter-call redistribution every GPU computes nothing.
    pub fn longest_kernel_gap(&self) -> f64 {
        longest_interval_gap(
            self.spans
                .iter()
                .filter(|s| s.kind == SpanKind::Kernel)
                .map(|s| (s.start, s.end))
                .collect(),
        )
    }

    /// Merges another trace into this one (used when composing calls).
    /// The other trace's labels are re-interned into this trace's symbol
    /// table and its spans remapped accordingly; its flow chains are
    /// renumbered past this trace's highest flow id so that chains from the
    /// two runs never merge in a viewer.
    pub fn extend(&mut self, other: Trace) {
        let map: Vec<Label> = other.labels.iter().map(|s| self.intern(s)).collect();
        let flow_base = self
            .spans
            .iter()
            .filter(|s| s.flow != FlowId::NONE)
            .map(|s| s.flow.0 + 1)
            .max()
            .unwrap_or(0);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.label = map.get(s.label.0 as usize).copied().unwrap_or(Label::NONE);
            if s.flow != FlowId::NONE {
                s.flow = FlowId(s.flow.0 + flow_base);
            }
            s
        }));
    }

    /// Shifts every span by `dt` seconds (sequencing synchronous calls,
    /// e.g. Chameleon's back-to-back TRSM + GEMM in Fig. 9).
    pub fn shift(&mut self, dt: f64) {
        for s in &mut self.spans {
            s.start += dt;
            s.end += dt;
        }
    }

    /// Moves the span table (and a symbol table no other trace shares)
    /// into exact-fit allocations and drops the `intern` index, which the
    /// next `intern` rebuilds: call it on a finished trace that is about to
    /// be kept for long. A trace is built by `push`, so up to half its span
    /// storage is spare. This copies once rather than `Vec::shrink_to_fit`,
    /// which trims in place and leaves the freed tails scattered between
    /// the blocks that stay (a run cache refilled a few times held 6 % more
    /// resident memory so).
    pub fn compact(&mut self) {
        if self.spans.capacity() > self.spans.len() {
            self.spans = self.spans.as_slice().into();
        }
        if let Some(table) = Arc::get_mut(&mut self.labels) {
            table.compact();
        }
        self.index = HashMap::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(place: Place, kind: SpanKind, start: f64, end: f64) -> Span {
        Span {
            place,
            lane: 0,
            kind,
            start,
            end,
            bytes: if kind.is_transfer() { 100 } else { 0 },
            label: Label::NONE,
            flow: FlowId::NONE,
            subject: Span::NO_SUBJECT,
            peer: Span::NO_PEER,
        }
    }

    #[test]
    fn breakdown_accumulates_by_kind() {
        let mut t = Trace::new();
        t.push(span(Place::Gpu(0), SpanKind::H2D, 0.0, 1.0));
        t.push(span(Place::Gpu(0), SpanKind::H2D, 1.0, 3.0));
        t.push(span(Place::Gpu(1), SpanKind::Kernel, 0.0, 4.0));
        let b = t.breakdown();
        assert!((b.get(SpanKind::H2D) - 3.0).abs() < 1e-12);
        assert!((b.get(SpanKind::Kernel) - 4.0).abs() < 1e-12);
        assert!((b.total() - 7.0).abs() < 1e-12);
        assert!((b.transfer_ratio() - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn compact_drops_the_slack_and_nothing_else() {
        let mut t = Trace::new();
        for i in 0..5 {
            t.push(span(
                Place::Gpu(0),
                SpanKind::Kernel,
                i as f64,
                i as f64 + 1.0,
            ));
        }
        let before = t.spans().to_vec();
        assert!(t.spans.capacity() > t.spans.len());
        t.compact();
        assert_eq!(t.spans(), before);
        assert_eq!(t.spans.capacity(), t.spans.len());
    }

    #[test]
    fn per_device_breakdown_splits() {
        let mut t = Trace::new();
        t.push(span(Place::Gpu(0), SpanKind::Kernel, 0.0, 1.0));
        t.push(span(Place::Gpu(1), SpanKind::Kernel, 0.0, 2.0));
        let per = t.breakdown_per_device();
        assert_eq!(per.len(), 2);
        assert!((per[&Place::Gpu(1)].get(SpanKind::Kernel) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_and_loads() {
        let mut t = Trace::new();
        t.push(span(Place::Gpu(0), SpanKind::Kernel, 0.0, 1.0));
        t.push(span(Place::Gpu(1), SpanKind::Kernel, 2.0, 5.0));
        assert!((t.makespan() - 5.0).abs() < 1e-12);
        let loads = t.kernel_load_per_gpu(2);
        assert!((loads[0] - 1.0).abs() < 1e-12);
        assert!((loads[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn longest_gap_detects_sync_holes() {
        let mut t = Trace::new();
        t.push(span(Place::Gpu(0), SpanKind::Kernel, 0.0, 1.0));
        t.push(span(Place::Gpu(1), SpanKind::Kernel, 0.5, 1.2));
        t.push(span(Place::Gpu(0), SpanKind::Kernel, 3.0, 4.0));
        assert!((t.longest_global_gap() - 1.8).abs() < 1e-12);
    }

    #[test]
    fn pre_first_span_idle_is_not_a_gap() {
        // A run that warms up on the host before the first span at t=5 has
        // no synchronization gap: [0, 5) is lead-in, not a hole.
        let mut t = Trace::new();
        t.push(span(Place::Gpu(0), SpanKind::Kernel, 5.0, 6.0));
        t.push(span(Place::Gpu(0), SpanKind::Kernel, 6.0, 7.0));
        assert_eq!(t.longest_global_gap(), 0.0);
        assert_eq!(t.longest_kernel_gap(), 0.0);
        // A genuine hole after the first span still registers.
        t.push(span(Place::Gpu(0), SpanKind::Kernel, 9.0, 10.0));
        assert!((t.longest_global_gap() - 2.0).abs() < 1e-12);
        assert!((t.longest_kernel_gap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gap_is_zero_when_dense() {
        let mut t = Trace::new();
        t.push(span(Place::Gpu(0), SpanKind::Kernel, 0.0, 2.0));
        t.push(span(Place::Gpu(1), SpanKind::Kernel, 1.0, 3.0));
        assert_eq!(t.longest_global_gap(), 0.0);
    }

    #[test]
    fn normalized_shares_sum_to_one() {
        let mut t = Trace::new();
        t.push(span(Place::Gpu(0), SpanKind::H2D, 0.0, 1.0));
        t.push(span(Place::Gpu(0), SpanKind::Kernel, 0.0, 3.0));
        let shares = t.breakdown().normalized();
        let sum: f64 = shares.iter().map(|(_, v)| v).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = Trace::new();
        assert_eq!(t.makespan(), 0.0);
        assert_eq!(t.longest_global_gap(), 0.0);
        assert_eq!(t.breakdown().transfer_ratio(), 0.0);
        assert!(t.is_empty());
    }

    fn table(texts: &[&str]) -> Arc<LabelTable> {
        let mut table = LabelTable::new();
        for text in texts {
            table.push(text);
        }
        Arc::new(table)
    }

    #[test]
    fn intern_deduplicates_and_resolves() {
        let mut t = Trace::new();
        let a = t.intern("gemm(0,1)");
        let b = t.intern("gemm(2,3)");
        let a2 = t.intern("gemm(0,1)");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.label(a), "gemm(0,1)");
        assert_eq!(t.label(b), "gemm(2,3)");
        assert_eq!(t.labels().len(), 2);
        assert_eq!(t.labels().iter().collect::<Vec<_>>(), ["gemm(0,1)", "gemm(2,3)"]);
    }

    #[test]
    fn with_labels_shares_one_allocation() {
        let shared = table(&["t0", "A"]);
        let a = Trace::with_labels(Arc::clone(&shared));
        let b = a.clone();
        assert!(Arc::ptr_eq(a.labels(), &shared));
        assert!(Arc::ptr_eq(b.labels(), &shared));
        assert_eq!(Arc::strong_count(&shared), 3);
    }

    #[test]
    fn a_shared_table_resolves_and_interns_copy_on_write() {
        let shared = table(&["t0", "A", "t0"]);
        let mut t = Trace::with_labels(Arc::clone(&shared));
        assert_eq!(t.label(Label(1)), "A");
        assert_eq!(t.intern("t0"), Label(0), "a repeated text interns to its first slot");
        assert_eq!(t.intern("B"), Label(3));
        assert!(!Arc::ptr_eq(t.labels(), &shared), "the write copied the table");
        assert_eq!(shared.len(), 3, "the shared table is never written");
        // Every earlier id resolves as before in the copy.
        for (i, text) in shared.iter().enumerate() {
            assert_eq!(t.label(Label(i as u32)), text);
        }
        assert_eq!(t.label(Label(3)), "B");
    }

    #[test]
    fn none_and_out_of_range_labels_resolve_to_empty() {
        let t = Trace::with_labels(table(&["", "x"]));
        assert_eq!(t.label(Label::NONE), "");
        assert_eq!(t.label(Label(0)), "");
        assert_eq!(t.label(Label(1)), "x");
        assert_eq!(t.label(Label(2)), "");
        assert_eq!(t.labels().get(2), None);
    }

    #[test]
    fn compact_drops_the_index_and_intern_still_dedups() {
        let mut t = Trace::new();
        let a = t.intern("a");
        let b = t.intern("bb");
        assert!(!t.index.is_empty());
        t.compact();
        assert!(t.index.is_empty());
        assert_eq!(t.labels().iter().collect::<Vec<_>>(), ["a", "bb"]);
        assert_eq!((t.intern("bb"), t.intern("a")), (b, a));
        assert_eq!(t.intern("c"), Label(2));
        assert_eq!(t.labels().len(), 3);
    }

    #[test]
    fn empty_label_is_none() {
        let mut t = Trace::new();
        assert_eq!(t.intern(""), Label::NONE);
        assert_eq!(t.label(Label::NONE), "");
        assert!(t.labels().is_empty());
    }

    #[test]
    fn extend_remaps_labels() {
        let mut a = Trace::new();
        let la = a.intern("shared");
        let mut sa = span(Place::Gpu(0), SpanKind::Kernel, 0.0, 1.0);
        sa.label = la;
        a.push(sa);

        let mut b = Trace::new();
        let _ = b.intern("only-in-b");
        let lb = b.intern("shared");
        let mut sb = span(Place::Gpu(1), SpanKind::Kernel, 1.0, 2.0);
        sb.label = lb;
        b.push(sb);

        a.extend(b);
        assert_eq!(a.spans().len(), 2);
        // Both spans must resolve to "shared" in the merged table.
        for s in a.spans() {
            assert_eq!(a.label(s.label), "shared");
        }
        assert_eq!(a.labels().iter().collect::<Vec<_>>(), ["shared", "only-in-b"]);
    }

    #[test]
    fn extend_renumbers_flows_past_existing_chains() {
        let mut a = Trace::new();
        let mut sa = span(Place::Gpu(0), SpanKind::H2D, 0.0, 1.0);
        sa.flow = FlowId(0);
        a.push(sa);

        let mut b = Trace::new();
        let mut sb0 = span(Place::Gpu(1), SpanKind::H2D, 0.0, 1.0);
        sb0.flow = FlowId(0);
        let mut sb1 = span(Place::Gpu(1), SpanKind::Kernel, 1.0, 2.0);
        sb1.flow = FlowId::NONE;
        b.push(sb0);
        b.push(sb1);

        a.extend(b);
        // b's chain 0 must not collide with a's chain 0; NONE stays NONE.
        assert_eq!(a.spans()[0].flow, FlowId(0));
        assert_eq!(a.spans()[1].flow, FlowId(1));
        assert_eq!(a.spans()[2].flow, FlowId::NONE);
    }
}
