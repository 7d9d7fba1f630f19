//! The run shape every workload shares: set-up, one untimed warm-up pass,
//! then timed passes that repeat identical work for the requested time.
//!
//! An *untraced* run yields the end-to-end metrics; a *traced* run
//! alternates untraced and traced passes (their ratio prices the tracing),
//! then runs the layer probes and writes the spans out as a Chrome trace.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::report::{MetricValue, Report};
use crate::spans::{chrome_json, self_seconds_by_layer, Tracer};
use crate::stats::median;
use crate::{envstamp, probes};

/// Fewest timed passes a run makes, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;
/// How often an untraced run sets up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Outcome of the correctness checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks and operations attempted.
    pub attempted: u64,
    /// One line per failed check: operation, expected, actual.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `describe` is only called when it failed.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(describe());
        }
    }

    /// Counts `n` operations that completed without a check of their own.
    pub fn count(&mut self, n: u64) {
        self.attempted += n;
    }
}

/// Values a pass must reproduce exactly, pass after pass and run after run.
pub type Counts = Vec<(&'static str, u64)>;

/// One benchmark workload.
pub trait Workload: Sized {
    /// Name, as `BENCHMARK.json` lists it.
    const NAME: &'static str;
    /// What a pass hands to [`Workload::check`].
    type Output;

    /// Builds fabrics, engines and the inputs derived from `seed`.
    fn setup(seed: u64, threads: usize) -> Self;

    /// Untimed: puts the state back so the next pass repeats the same work
    /// (clear a cache, restore an in/out matrix).
    fn reset(&mut self) {}

    /// One timed pass. Spans go to `tr`, which is disabled in untraced runs.
    fn pass(&mut self, tr: &Tracer) -> Self::Output;

    /// Untimed: checks the pass's outputs and returns its exact-repeat counts.
    fn check(&mut self, out: Self::Output, checks: &mut Checks) -> Counts;

    /// Extra workload-specific timings for the result file (not gated).
    fn extras(&self) -> Vec<MetricValue> {
        Vec::new()
    }
}

/// What to run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Input seed.
    pub seed: u64,
    /// How long the timed passes run, seconds.
    pub seconds: f64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub trace: bool,
    /// Where a traced run writes `trace_<workload>.json`.
    pub out_dir: std::path::PathBuf,
}

/// `min(2, nproc)`: every layer that takes a thread count gets this.
pub fn bench_threads() -> usize {
    envstamp::nproc().min(2)
}

/// Peak resident set of this process so far (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one pass (reset, pass, then the untimed check) and folds its counts
/// into `reference`: the first pass defines them, later ones must repeat
/// them exactly. Returns the seconds spent in `reset` and in `pass`.
fn one_pass<W: Workload>(
    w: &mut W,
    tr: &Tracer,
    checks: &mut Checks,
    reference: &mut Option<Counts>,
) -> (f64, f64) {
    let t0 = Instant::now();
    w.reset();
    let reset_secs = t0.elapsed().as_secs_f64();
    tr.next_op();
    let (out, secs) = tr.timed("harness", "pass", || w.pass(tr));
    let counts = w.check(out, checks);
    match reference {
        None => *reference = Some(counts),
        Some(first) => checks.check(*first == counts, || {
            format!(
                "{}: exact-repeat counts changed between passes: expected {first:?}, got {counts:?}",
                W::NAME
            )
        }),
    }
    (reset_secs, secs)
}

/// Timed passes until `seconds` have gone by (a pass starts only while at
/// least half of it still fits), never fewer than [`MIN_PASSES`].
fn timed_passes(seconds: f64, mut pass: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut samples: Vec<f64> = Vec::new();
    loop {
        samples.push(pass());
        let fits = start.elapsed().as_secs_f64() + 0.5 * median(&samples) <= seconds;
        if samples.len() >= MIN_PASSES && !fits {
            return samples;
        }
    }
}

fn def(list: &'static [MetricDef], name: &str) -> &'static MetricDef {
    list.iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
}

/// Runs workload `W` as `opts` asks and returns the filled-in report.
pub fn run<W: Workload>(opts: &RunOptions) -> Report {
    let threads = bench_threads();
    let mut report = Report::new(
        W::NAME,
        opts,
        envstamp::EnvStamp::capture(threads, opts.seed),
    );
    if opts.trace {
        run_traced::<W>(opts, threads, &mut report);
    } else {
        run_untraced::<W>(opts, threads, &mut report);
    }
    report
}

fn run_untraced<W: Workload>(opts: &RunOptions, threads: usize, report: &mut Report) {
    let tr = Tracer::new(false);
    let mut checks = Checks::default();

    // Set-up, several times over: build the workload from the seed and run
    // its first pass, the one that pays every lazy initialisation. One
    // instance is alive at a time, so the peak resident set is that of a
    // single set-up; the last instance goes on to the timed passes.
    let mut reference = None;
    let mut setup_samples = Vec::new();
    let mut w = None;
    for _ in 0..SETUP_REPEATS {
        drop(w.take());
        let t0 = Instant::now();
        let mut instance = W::setup(opts.seed, threads);
        let build = t0.elapsed().as_secs_f64();
        let (reset, first_pass) = one_pass(&mut instance, &tr, &mut checks, &mut reference);
        setup_samples.push(build + reset + first_pass);
        w = Some(instance);
    }
    let mut w = w.expect("set-up ran at least once");

    let pass_samples = timed_passes(opts.seconds, || {
        one_pass(&mut w, &tr, &mut checks, &mut reference).1
    });

    report.passes = pass_samples.len();
    let unit = |name| def(END_TO_END, name).unit;
    report.metrics = vec![
        MetricValue::median_of("pass_s", unit("pass_s"), &pass_samples),
        MetricValue::median_of("setup_s", unit("setup_s"), &setup_samples),
        MetricValue::single("peak_rss_mb", unit("peak_rss_mb"), peak_rss_mb()),
    ];
    report.extras = w.extras();
    report.counts = reference.unwrap_or_default();
    report.absorb(checks);
}

fn run_traced<W: Workload>(opts: &RunOptions, threads: usize, report: &mut Report) {
    let tr = Tracer::new(false);
    let mut checks = Checks::default();
    let mut w = W::setup(opts.seed, threads);

    // The first pass after set-up pays every lazy initialisation.
    let mut reference = None;
    let cold = one_pass(&mut w, &tr, &mut checks, &mut reference).1;

    // Pairs of an untraced and a traced pass for a quarter of the time (at
    // least one pair); the layer probes take the rest.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut spans_per_pass = 0usize;
    let start = Instant::now();
    while plain.is_empty() || start.elapsed().as_secs_f64() < opts.seconds / 4.0 {
        tr.set_enabled(false);
        plain.push(one_pass(&mut w, &tr, &mut checks, &mut reference).1);
        let before = tr.len();
        tr.set_enabled(true);
        traced.push(one_pass(&mut w, &tr, &mut checks, &mut reference).1);
        spans_per_pass = tr.len() - before;
    }
    drop(w);
    // How the traced passes split by layer, as far as calls made from
    // outside can tell: self time per layer, per pass.
    report.extras = self_seconds_by_layer(&tr.spans())
        .into_iter()
        .map(|(layer, secs)| {
            MetricValue::single(
                format!("pass_self_s.{layer}"),
                "s",
                secs / traced.len() as f64,
            )
        })
        .collect();

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    values.insert(
        "harness.trace_overhead_ratio".to_string(),
        median(&traced) / median(&plain),
    );
    values.insert("harness.cold_pass_ratio".to_string(), cold / median(&plain));
    values.insert("harness.pass_spans".to_string(), spans_per_pass as f64);
    probes::run_all(&tr, opts.seed, threads, &mut values, &mut checks);

    let spans = tr.spans();
    let json = chrome_json(W::NAME, &spans);
    checks.check(
        xk_trace::export::jsonck::validate_trace_events(&json) == Ok(spans.len() + 2),
        || format!("{}: the Chrome trace does not validate", W::NAME),
    );
    let path = opts.out_dir.join(format!("trace_{}.json", W::NAME));
    report.trace_file = write_file(&path, &json, &mut checks);

    report.passes = plain.len() + traced.len() + 1;
    report.metrics = PER_LAYER
        .iter()
        .map(|d| {
            let v = values.get(d.name).copied();
            checks.check(v.is_some_and(f64::is_finite), || {
                format!("{}: per-layer metric {} was not measured", W::NAME, d.name)
            });
            MetricValue::single(d.name, d.unit, v.unwrap_or(f64::NAN))
        })
        .collect();
    report.counts = reference.unwrap_or_default();
    report.absorb(checks);
}

/// Writes `content` to `path` (creating its directory); a failure is a
/// failed check, not a panic. Returns the path written.
pub fn write_file(path: &Path, content: &str, checks: &mut Checks) -> Option<String> {
    let result = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, content));
    checks.check(result.is_ok(), || {
        format!(
            "cannot write {}: {}",
            path.display(),
            result.as_ref().unwrap_err()
        )
    });
    result.ok().map(|()| path.display().to_string())
}
