//! In-memory spans recorded by the benchmark around its calls into the
//! layer crates, written out as Chrome `trace_event` JSON when a traced run
//! ends.
//!
//! A span is `{name, layer, start, end, parent, op}`: `layer` is the crate
//! the call goes into, `parent` the span that was open when this one
//! started, `op` an identifier shared by the spans of one operation. A
//! span's *self time* is its duration minus the time its direct children
//! cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json::escape;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What ran (`fig3`, `graph_build`, ...).
    pub name: String,
    /// The layer (crate) the call went into; `harness` for the benchmark's
    /// own framing spans.
    pub layer: &'static str,
    /// Start, ns since tracer creation.
    pub start_ns: u64,
    /// End, ns since tracer creation.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation identifier shared by the spans of one operation.
    pub op: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on the calling thread. A disabled tracer records nothing
/// and costs one branch per call, so the untraced passes run the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<u32>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    /// Turns recording on or off (the traced run alternates traced and
    /// untraced passes to price the tracing itself).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    /// Starts a new operation: spans recorded from now on carry a fresh id.
    pub fn next_op(&self) {
        self.op.set(self.op.get() + 1);
    }

    /// Runs `f` inside a span and also returns its wall time in seconds
    /// (measured whether or not the tracer records).
    pub fn timed<R>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.enabled.get() {
            let t0 = Instant::now();
            let r = f();
            return (r, t0.elapsed().as_secs_f64());
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            let index = spans.len();
            spans.push(Span {
                name: name.to_string(),
                layer,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: open.last().copied(),
                op: self.op.get(),
            });
            open.push(index);
            index
        };
        let r = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].end_ns = end_ns;
        let secs = (end_ns - spans[index].start_ns) as f64 * 1e-9;
        (r, secs)
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
        self.timed(layer, name, f).0
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span, ns: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.dur_ns());
        }
    }
    own
}

/// Total self time per layer, seconds.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_layer = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_layer.entry(span.layer).or_insert(0.0) += own as f64 * 1e-9;
    }
    by_layer
}

/// Renders the spans as Chrome `trace_event` JSON (open in Perfetto or
/// `chrome://tracing`): one complete (`X`) event per span, `cat` = layer,
/// `args` carrying the op id, the parent index and the self time.
pub fn chrome_json(process: &str, spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut out = String::with_capacity(128 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{}\"}}}},\n\
         {{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"benchmark\"}}}}",
        escape(process)
    );
    for (i, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{},\"self_us\":{:.3}}}}}",
            escape(&span.name),
            span.layer,
            span.start_ns as f64 / 1e3,
            span.dur_ns() as f64 / 1e3,
            span.op,
            own[i] as f64 / 1e3,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("pass", "harness", 0, 100, None),
            span("run", "baselines", 10, 90, Some(0)),
            span("graph", "core", 10, 30, Some(1)),
            span("sim", "runtime", 30, 80, Some(1)),
            span("render", "bench", 92, 97, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 10, 20, 50, 5]);
        let by_layer = self_seconds_by_layer(&spans);
        assert!((by_layer["runtime"] - 50e-9).abs() < 1e-18);
        assert!((by_layer["harness"] - 15e-9).abs() < 1e-18);
        // Self times partition the root span.
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn tracer_nests_spans_and_shares_op_ids() {
        let tr = Tracer::new(true);
        tr.next_op();
        tr.span("harness", "outer", || {
            tr.span("core", "inner \"a\"", || ());
            tr.span("runtime", "inner b", || ());
        });
        tr.next_op();
        tr.span("harness", "second", || ());
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!((spans[0].op, spans[2].op, spans[3].op), (1, 1, 2));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert!(spans[1].end_ns <= spans[2].start_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let tr = Tracer::new(false);
        let (value, secs) = tr.timed("core", "x", || 7);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn chrome_export_passes_the_trace_event_validator() {
        let tr = Tracer::new(true);
        tr.span("harness", "pass", || {
            tr.span("bench", "fig\"3\"\\", || ());
        });
        let json = chrome_json("paper_small", &tr.spans());
        // 2 metadata events + 2 spans, parsed back by xk-trace's own checker.
        assert_eq!(
            xk_trace::export::jsonck::validate_trace_events(&json),
            Ok(4)
        );
        let doc = xk_trace::export::jsonck::parse(&json).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events[3].get("cat").and_then(|c| c.as_str()), Some("bench"));
        assert_eq!(
            events[3].get("name").and_then(|c| c.as_str()),
            Some("fig\"3\"\\")
        );
    }
}
