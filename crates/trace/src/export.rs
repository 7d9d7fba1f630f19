//! CSV / JSON export of traces and breakdowns, including Chrome
//! `trace_event` JSON for ui.perfetto.dev / `chrome://tracing`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::span::{FlowId, Place, SpanKind};
use crate::trace::Trace;

/// Serializes the full trace to CSV
/// (`place,lane,kind,start,end,bytes,label`).
pub fn trace_to_csv(trace: &Trace) -> String {
    let mut out = String::from("place,lane,kind,start,end,bytes,label\n");
    for s in trace.spans() {
        let _ = writeln!(
            out,
            "{},{},{},{:.9},{:.9},{},{}",
            s.place,
            s.lane,
            s.kind.label(),
            s.start,
            s.end,
            s.bytes,
            trace.label(s.label).replace(',', ";")
        );
    }
    out
}

/// Serializes the per-kind breakdown to CSV (`kind,seconds,share`).
pub fn breakdown_to_csv(trace: &Trace) -> String {
    let b = trace.breakdown();
    let mut out = String::from("kind,seconds,share\n");
    for (kind, share) in b.normalized() {
        let _ = writeln!(out, "{},{:.9},{:.6}", kind.label(), b.get(kind), share);
    }
    out
}

/// `trace_event` process id of a place: host is pid 0, `gpuN` is pid N+1.
fn chrome_pid(place: Place) -> u32 {
    match place {
        Place::Host => 0,
        Place::Gpu(g) => g + 1,
    }
}

/// Human name of an engine lane, used as the track (thread) name.
fn lane_name(place: Place, lane: u8) -> String {
    match (place, lane) {
        (Place::Host, l) => format!("host lane {l}"),
        (_, 0) => "copy in (H2D/P2P)".to_string(),
        (_, 2) => "copy out (D2H)".to_string(),
        (_, l) if l >= 3 => format!("kernel stream {}", l - 3),
        (_, l) => format!("lane {l}"),
    }
}

/// Appends `s` to `out` as a JSON string literal (quotes included).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes the trace to Chrome `trace_event` JSON, loadable in
/// ui.perfetto.dev or `chrome://tracing`.
///
/// Layout: one *process* per device (host = pid 0, `gpuN` = pid N+1), one
/// *track* (thread) per engine lane, one `"X"` complete event per span
/// (`ts`/`dur` in microseconds, `cat` = the span kind's paper-legend label,
/// `args.bytes` for transfers). Spans sharing a [`FlowId`] are linked with
/// flow arrows (`"s"`/`"t"`/`"f"` events named `tile-flow`), so a tile's
/// H2D read, its device-to-device forwards and the kernels that consumed it
/// render as one connected chain — the optimistic D2D heuristic made
/// visible. The output is deterministic: same trace, same bytes.
pub fn chrome_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(128 + trace.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push('\n');
    };

    // Metadata: name every process and track, sorted for determinism.
    let mut pids: BTreeSet<Place> = BTreeSet::new();
    let mut tracks: BTreeSet<(Place, u8)> = BTreeSet::new();
    for s in trace.spans() {
        pids.insert(s.place);
        tracks.insert((s.place, s.lane));
    }
    for place in &pids {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"{place}\"}}}}",
            chrome_pid(*place)
        );
    }
    for (place, lane) in &tracks {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":{lane},\
             \"args\":{{\"name\":",
            chrome_pid(*place)
        );
        push_json_str(&mut out, &lane_name(*place, *lane));
        out.push_str("}}");
    }

    // One "X" complete event per span, in recording order.
    for s in trace.spans() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":",
            chrome_pid(s.place),
            s.lane,
            s.start * 1e6,
            s.duration() * 1e6
        );
        let label = trace.label(s.label);
        push_json_str(&mut out, if label.is_empty() { s.kind.label() } else { label });
        out.push_str(",\"cat\":");
        push_json_str(&mut out, s.kind.label());
        if s.bytes > 0 {
            let _ = write!(out, ",\"args\":{{\"bytes\":{}}}", s.bytes);
        }
        out.push('}');
    }

    // Flow arrows: group spans by FlowId, order each chain by (start, idx).
    let mut chains: BTreeMap<FlowId, Vec<usize>> = BTreeMap::new();
    for (i, s) in trace.spans().iter().enumerate() {
        if s.flow != FlowId::NONE {
            chains.entry(s.flow).or_default().push(i);
        }
    }
    for (flow, mut idxs) in chains {
        if idxs.len() < 2 {
            continue; // a chain of one span has no arrow to draw
        }
        idxs.sort_by(|&a, &b| {
            let (sa, sb) = (&trace.spans()[a], &trace.spans()[b]);
            sa.start.partial_cmp(&sb.start).unwrap().then(a.cmp(&b))
        });
        let last = idxs.len() - 1;
        for (pos, &i) in idxs.iter().enumerate() {
            let s = &trace.spans()[i];
            let ph = match pos {
                0 => "s",
                p if p == last => "f",
                _ => "t",
            };
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"{ph}\",\"id\":{},\"name\":\"tile-flow\",\"cat\":\"flow\",\
                 \"pid\":{},\"tid\":{},\"ts\":{}",
                flow.0,
                chrome_pid(s.place),
                s.lane,
                s.start * 1e6
            );
            if ph == "f" {
                out.push_str(",\"bp\":\"e\"");
            }
            out.push('}');
        }
    }
    out.push_str("\n]}");
    out
}

/// A minimal JSON parser + Chrome `trace_event` schema checker.
///
/// Exists so tests (here and in dependent crates) can validate
/// [`chrome_json`] output without an external JSON crate. Not a
/// general-purpose parser — no number edge cases beyond
/// what `f64::from_str` accepts, no `\u` surrogate pairs.
#[doc(hidden)]
pub mod jsonck {
    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number, as `f64`.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, preserving key order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Object field lookup (first match).
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => {
                    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
                }
                _ => None,
            }
        }

        /// The string payload, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric payload, if this is a number.
        pub fn as_num(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected '{}' at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(_) => self.number(),
                None => Err("unexpected end of input".to_string()),
            }
        }

        fn literal(&mut self, text: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(text.as_bytes()) {
                self.pos += text.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.pos))
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while self.peek().is_some_and(|b| {
                b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
            }) {
                self.pos += 1;
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let code = std::str::from_utf8(hex)
                                    .ok()
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or("bad \\u escape")?;
                                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                                self.pos += 4;
                            }
                            other => {
                                return Err(format!("bad escape {other:?}"));
                            }
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Copy one UTF-8 scalar (the input is a &str upstream,
                        // so slicing on char boundaries is safe).
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|e| e.to_string())?;
                        let c = rest.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                    None => return Err("unterminated string".to_string()),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    other => return Err(format!("bad array delimiter {other:?}")),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let val = self.value()?;
                fields.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    other => return Err(format!("bad object delimiter {other:?}")),
                }
            }
        }
    }

    /// Parses a JSON document.
    pub fn parse(json: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: json.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Validates a Chrome `trace_event` document: top-level object with a
    /// `traceEvents` array whose every element has the fields its phase
    /// requires. Returns the number of events.
    pub fn validate_trace_events(json: &str) -> Result<usize, String> {
        let doc = parse(json)?;
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .ok_or("missing traceEvents array")?;
        for (i, ev) in events.iter().enumerate() {
            let ph = ev
                .get("ph")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("event {i}: missing ph"))?;
            for field in ["pid", "tid"] {
                ev.get(field)
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("event {i}: missing numeric {field}"))?;
            }
            match ph {
                "M" => {
                    let name = ev
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("event {i}: M without name"))?;
                    if !matches!(name, "process_name" | "thread_name") {
                        return Err(format!("event {i}: unknown metadata {name}"));
                    }
                    ev.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("event {i}: M without args.name"))?;
                }
                "X" => {
                    for field in ["ts", "dur"] {
                        let v = ev
                            .get(field)
                            .and_then(Value::as_num)
                            .ok_or_else(|| format!("event {i}: X without {field}"))?;
                        // NaN is refused with the negatives.
                        if v.is_nan() || v < 0.0 {
                            return Err(format!("event {i}: negative {field}"));
                        }
                    }
                    ev.get("name")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("event {i}: X without name"))?;
                }
                "s" | "t" | "f" => {
                    ev.get("id")
                        .and_then(Value::as_num)
                        .ok_or_else(|| format!("event {i}: flow without id"))?;
                    ev.get("ts")
                        .and_then(Value::as_num)
                        .ok_or_else(|| format!("event {i}: flow without ts"))?;
                    if ph == "f" && ev.get("bp").and_then(Value::as_str) != Some("e") {
                        return Err(format!("event {i}: f without bp:e"));
                    }
                }
                other => return Err(format!("event {i}: unknown phase {other}")),
            }
        }
        Ok(events.len())
    }
}

/// Renders a per-device stacked table: one row per device, one column per
/// span kind, seconds (the numbers behind Fig. 7).
pub fn per_device_table(trace: &Trace) -> String {
    let per = trace.breakdown_per_device();
    let mut out = String::from("device");
    for k in SpanKind::ALL {
        let _ = write!(out, ",{}", k.label());
    }
    out.push('\n');
    for (place, b) in per {
        let _ = write!(out, "{place}");
        for k in SpanKind::ALL {
            let _ = write!(out, ",{:.6}", b.get(k));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Label, Place, Span};

    fn t() -> Trace {
        let mut t = Trace::new();
        let tile = t.intern("tile(0,0)");
        t.push(Span {
            place: Place::Gpu(0),
            lane: 0,
            kind: SpanKind::H2D,
            start: 0.0,
            end: 0.5,
            bytes: 128,
            label: tile,
            flow: FlowId(0),
            subject: Span::NO_SUBJECT,
            peer: Span::NO_PEER,
        });
        let dgemm = t.intern("dgemm");
        t.push(Span {
            place: Place::Gpu(1),
            lane: 2,
            kind: SpanKind::Kernel,
            start: 0.5,
            end: 1.5,
            bytes: 0,
            label: dgemm,
            flow: FlowId(0),
            subject: Span::NO_SUBJECT,
            peer: Span::NO_PEER,
        });
        t
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = trace_to_csv(&t());
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("place,lane,kind"));
        assert!(csv.contains("gpu1,2,GPU Kernel"));
    }

    #[test]
    fn breakdown_csv_shares_sum_to_one() {
        let csv = breakdown_to_csv(&t());
        let total: f64 = csv
            .lines()
            .skip(1)
            .map(|l| l.rsplit(',').next().unwrap().parse::<f64>().unwrap())
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn per_device_table_rows() {
        let table = per_device_table(&t());
        assert!(table.lines().count() >= 3);
        assert!(table.contains("gpu0"));
        assert!(table.contains("gpu1"));
    }

    #[test]
    fn labels_with_commas_are_sanitized() {
        let mut tr = Trace::new();
        let label = tr.intern("a,b");
        tr.push(Span {
            place: Place::Gpu(0),
            lane: 0,
            kind: SpanKind::Kernel,
            start: 0.0,
            end: 1.0,
            bytes: 0,
            label,
            flow: FlowId::NONE,
            subject: Span::NO_SUBJECT,
            peer: Span::NO_PEER,
        });
        let csv = trace_to_csv(&tr);
        let data_line = csv.lines().nth(1).unwrap();
        assert_eq!(data_line.matches(',').count(), 6);
    }

    #[test]
    fn chrome_json_is_valid_trace_event() {
        let json = chrome_json(&t());
        // 2 process_name + 2 thread_name + 2 X + 2 flow events.
        assert_eq!(jsonck::validate_trace_events(&json).unwrap(), 8);
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains("\"name\":\"tile(0,0)\""));
        assert!(json.contains("\"cat\":\"GPU Kernel\""));
        assert!(json.contains("\"args\":{\"bytes\":128}"));
    }

    #[test]
    fn chrome_json_escapes_and_skips_lone_flows() {
        let mut tr = Trace::new();
        let label = tr.intern("quote\"back\\slash");
        tr.push(Span {
            place: Place::Host,
            lane: 0,
            kind: SpanKind::HostWork,
            start: 0.0,
            end: 1.0,
            bytes: 0,
            label,
            flow: FlowId(7),
            subject: Span::NO_SUBJECT,
            peer: Span::NO_PEER,
        });
        let json = chrome_json(&tr);
        let n = jsonck::validate_trace_events(&json).unwrap();
        // process_name + thread_name + X; the single-span flow draws nothing.
        assert_eq!(n, 3);
        let doc = jsonck::parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let x = events
            .iter()
            .find(|e| e.get("ph").and_then(jsonck::Value::as_str) == Some("X"))
            .unwrap();
        assert_eq!(
            x.get("name").and_then(jsonck::Value::as_str),
            Some("quote\"back\\slash")
        );
    }

    #[test]
    fn chrome_json_flow_chain_order_follows_time() {
        // Chain recorded out of time order must still emit s → t → f by start.
        let mut tr = Trace::new();
        let mk = |start: f64, end: f64, kind| Span {
            place: Place::Gpu(0),
            lane: 0,
            kind,
            start,
            end,
            bytes: 1,
            label: Label::NONE,
            flow: FlowId(3),
            subject: Span::NO_SUBJECT,
            peer: Span::NO_PEER,
        };
        tr.push(mk(2.0, 3.0, SpanKind::Kernel));
        tr.push(mk(0.0, 1.0, SpanKind::H2D));
        tr.push(mk(1.0, 2.0, SpanKind::P2P));
        let json = chrome_json(&tr);
        jsonck::validate_trace_events(&json).unwrap();
        let doc = jsonck::parse(&json).unwrap();
        let phases: Vec<(String, f64)> = doc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(|e| {
                let ph = e.get("ph")?.as_str()?;
                if matches!(ph, "s" | "t" | "f") {
                    Some((ph.to_string(), e.get("ts")?.as_num()?))
                } else {
                    None
                }
            })
            .collect();
        assert_eq!(
            phases,
            vec![
                ("s".to_string(), 0.0),
                ("t".to_string(), 1e6),
                ("f".to_string(), 2e6)
            ]
        );
    }

    #[test]
    fn jsonck_rejects_malformed_documents() {
        assert!(jsonck::parse("{\"a\":1,}").is_err());
        assert!(jsonck::parse("[1 2]").is_err());
        assert!(jsonck::parse("{} garbage").is_err());
        assert!(jsonck::validate_trace_events("{\"traceEvents\":7}").is_err());
        assert!(jsonck::validate_trace_events(
            "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0}]}"
        )
        .is_err());
        assert_eq!(
            jsonck::parse("{\"a\":[1,true,null,\"s\"]}").unwrap().get("a"),
            Some(&jsonck::Value::Arr(vec![
                jsonck::Value::Num(1.0),
                jsonck::Value::Bool(true),
                jsonck::Value::Null,
                jsonck::Value::Str("s".to_string()),
            ]))
        );
    }
}
