//! One run's result: the single line the pipeline reads from stdout, and
//! the fuller result file `compare` works from.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use xk_trace::export::jsonck::{self, Value};

use crate::envstamp::EnvStamp;
use crate::harness::{Checks, Counts, RunOptions};
use crate::json::{escape, number};
use crate::stats::Summary;

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricValue {
    /// Name from the registry.
    pub name: String,
    /// Unit from the registry.
    pub unit: &'static str,
    /// The reported value (the median, where there are samples).
    pub value: f64,
    /// Median, quartiles and count of the samples behind `value`, when it
    /// is a median over repeats within the run.
    pub summary: Option<Summary>,
    /// The samples themselves, in the order they were taken.
    pub samples: Vec<f64>,
}

impl MetricValue {
    /// A metric measured once in the run.
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        MetricValue {
            name: name.into(),
            unit,
            value,
            summary: None,
            samples: Vec::new(),
        }
    }

    /// A metric reported as the median of `samples`.
    pub fn median_of(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Self {
        let summary = Summary::of(samples);
        MetricValue {
            name: name.into(),
            unit,
            value: summary.median,
            summary: Some(summary),
            samples: samples.to_vec(),
        }
    }
}

/// Everything one run reports.
#[derive(Clone, Debug)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub trace: bool,
    /// `--seconds` the run was given.
    pub seconds: f64,
    /// Environment stamp.
    pub env: EnvStamp,
    /// Passes made (warm-up included in traced runs).
    pub passes: usize,
    /// Checks and operations attempted.
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<MetricValue>,
    /// Workload-specific timings that are reported but not gated.
    pub extras: Vec<MetricValue>,
    /// Values that must repeat exactly between runs of the same seed.
    pub counts: Counts,
    /// The Chrome trace a traced run wrote.
    pub trace_file: Option<String>,
}

impl Report {
    /// An empty report for `workload` run as `opts` asks.
    pub fn new(workload: &str, opts: &RunOptions, env: EnvStamp) -> Self {
        Report {
            workload: workload.to_string(),
            trace: opts.trace,
            seconds: opts.seconds,
            env,
            passes: 0,
            attempted: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            extras: Vec::new(),
            counts: Counts::new(),
            trace_file: None,
        }
    }

    /// Takes over the outcome of the run's checks.
    pub fn absorb(&mut self, checks: Checks) {
        self.attempted = checks.attempted.max(1);
        self.failures = checks.failures;
    }

    /// True when no check failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The one-line JSON object the pipeline reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failures.len()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The result file: the result line's content plus the environment
    /// stamp, per-metric quartiles, extras, exact-repeat counts and the
    /// failed checks.
    pub fn to_json(&self) -> String {
        fn metrics_json(out: &mut String, key: &str, metrics: &[MetricValue]) {
            let _ = write!(out, "  \"{key}\": {{");
            for (i, m) in metrics.iter().enumerate() {
                let sep = if i == 0 { "\n" } else { ",\n" };
                let _ = write!(
                    out,
                    "{sep}    \"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                    escape(&m.name),
                    number(m.value),
                    m.unit
                );
                if let Some(s) = m.summary {
                    let _ = write!(
                        out,
                        ", \"n\": {}, \"q1\": {}, \"q3\": {}",
                        s.n,
                        number(s.q1),
                        number(s.q3)
                    );
                }
                if !m.samples.is_empty() {
                    let list: Vec<String> = m.samples.iter().map(|&v| number(v)).collect();
                    let _ = write!(out, ", \"samples\": [{}]", list.join(", "));
                }
                out.push('}');
            }
            out.push_str("\n  },\n");
        }

        let mut out = String::from("{\n  \"schema\": \"xk-benchmark/1\",\n");
        let _ = writeln!(out, "  \"workload\": \"{}\",", escape(&self.workload));
        let _ = writeln!(out, "  \"trace\": {},", u8::from(self.trace));
        let _ = writeln!(out, "  \"seconds\": {},", number(self.seconds));
        let e = &self.env;
        let _ = writeln!(
            out,
            "  \"env\": {{\"commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, \"isa\": \"{}\", \
             \"queue_backend\": \"{}\", \"threads\": {}, \"seed\": {}}},",
            escape(&e.commit),
            escape(&e.rustc),
            e.nproc,
            escape(&e.isa),
            escape(&e.queue_backend),
            e.threads,
            e.seed
        );
        let _ = writeln!(out, "  \"passes\": {},", self.passes);
        let _ = writeln!(out, "  \"correct\": {},", self.correct());
        let _ = writeln!(out, "  \"attempted\": {},", self.attempted);
        let _ = writeln!(out, "  \"failed\": {},", self.failures.len());
        metrics_json(&mut out, "metrics", &self.metrics);
        metrics_json(&mut out, "extras", &self.extras);
        out.push_str("  \"counts\": {");
        for (i, (name, v)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": {v}", escape(name));
        }
        out.push_str("},\n");
        if let Some(path) = &self.trace_file {
            let _ = writeln!(out, "  \"trace_file\": \"{}\",", escape(path));
        }
        out.push_str("  \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\"", escape(f));
        }
        out.push_str("]\n}\n");
        out
    }
}

/// What `compare` needs from a result file.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedReport {
    /// Workload name.
    pub workload: String,
    /// Traced or untraced run.
    pub trace: bool,
    /// Input seed.
    pub seed: u64,
    /// Whether every check passed.
    pub correct: bool,
    /// Metric and extra values by name.
    pub values: BTreeMap<String, f64>,
    /// Exact-repeat counts by name.
    pub counts: BTreeMap<String, u64>,
}

fn field<'v>(doc: &'v Value, key: &str) -> Result<&'v Value, String> {
    doc.get(key).ok_or_else(|| format!("missing \"{key}\""))
}

fn object_fields<'v>(doc: &'v Value, key: &str) -> Result<&'v [(String, Value)], String> {
    match field(doc, key)? {
        Value::Obj(fields) => Ok(fields),
        _ => Err(format!("\"{key}\" is not an object")),
    }
}

/// Reads back a result file written by [`Report::to_json`].
pub fn parse_report(json: &str) -> Result<ParsedReport, String> {
    let doc = jsonck::parse(json)?;
    if field(&doc, "schema")?.as_str() != Some("xk-benchmark/1") {
        return Err("not an xk-benchmark/1 result file".to_string());
    }
    let num = |v: &Value, what: &str| v.as_num().ok_or_else(|| format!("{what} is not a number"));
    let mut values = BTreeMap::new();
    for section in ["metrics", "extras"] {
        for (name, m) in object_fields(&doc, section)? {
            // A non-finite measurement was written as null; leave it out.
            if let Some(v) = field(m, "value")?.as_num() {
                values.insert(name.clone(), v);
            }
        }
    }
    let mut counts = BTreeMap::new();
    for (name, v) in object_fields(&doc, "counts")? {
        counts.insert(name.clone(), num(v, name)? as u64);
    }
    Ok(ParsedReport {
        workload: field(&doc, "workload")?
            .as_str()
            .ok_or("workload is not a string")?
            .to_string(),
        trace: num(field(&doc, "trace")?, "trace")? != 0.0,
        seed: num(field(field(&doc, "env")?, "seed")?, "seed")? as u64,
        correct: matches!(field(&doc, "correct")?, Value::Bool(true)),
        values,
        counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sample() -> Report {
        let opts = RunOptions {
            seed: 7,
            seconds: 2.5,
            trace: false,
            out_dir: PathBuf::from("out"),
        };
        let env = EnvStamp {
            commit: "abc1234".into(),
            rustc: "rustc 1.95.0 (\"quoted\")".into(),
            nproc: 2,
            isa: "avx2".into(),
            queue_backend: "calendar".into(),
            threads: 2,
            seed: 7,
        };
        let mut r = Report::new("paper_small", &opts, env);
        r.passes = 4;
        r.attempted = 12;
        r.metrics = vec![
            MetricValue::median_of("pass_s", "s", &[2.1, 2.1455123456789, 2.1455123456789, 2.2]),
            MetricValue::single("peak_rss_mb", "MB", 81.25),
        ];
        r.extras = vec![MetricValue::single("hit_us_p50", "us", 57.0)];
        r.counts.push(("cache_lookups", 977));
        r
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = sample().result_line();
        assert!(!line.contains('\n'));
        let doc = jsonck::parse(&line).unwrap();
        let Value::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Value::as_num), Some(12.0));
        let pass = doc.get("metrics").and_then(|m| m.get("pass_s")).unwrap();
        assert_eq!(
            pass.get("value").and_then(Value::as_num),
            Some(2.1455123456789)
        );
        assert_eq!(pass.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn result_file_round_trips() {
        let mut r = sample();
        r.failures
            .push("paper_small: fig3_gemm.csv row \"XKBlas\": expected 1, got 2".into());
        let parsed = parse_report(&r.to_json()).unwrap();
        assert_eq!(parsed.workload, "paper_small");
        assert!(!parsed.trace);
        assert_eq!(parsed.seed, 7);
        assert!(!parsed.correct);
        assert_eq!(
            parsed.values["pass_s"].to_bits(),
            2.1455123456789f64.to_bits()
        );
        assert_eq!(parsed.values["hit_us_p50"], 57.0);
        assert_eq!(parsed.counts["cache_lookups"], 977);
    }

    #[test]
    fn foreign_json_is_rejected() {
        assert!(parse_report("{\"schema\": \"other\"}").is_err());
        assert!(parse_report("[1, 2").is_err());
    }
}
