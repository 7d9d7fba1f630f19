//! `serve_zipf` — the planner service under a closed loop of one client.
//!
//! A fresh `ServeEngine` on the DGX-1 and a universe of 4 libraries ×
//! {GEMM, SYRK, TRSM} × 6 dimensions (tile 2048) = 72 keys. Per pass:
//!
//! * **cold** — 10 000 zipf(0.9) queries; the 72 first sightings are
//!   misses (cache writes, one DES run each), the rest hits;
//! * **warm** — the same trace again, all hits (cache reads);
//! * **approx** — 2 000 off-grid `Approx{0.30}` queries (interpolation tier);
//! * **batch** — 500 queries through `query_batch(threads)` on a fresh
//!   engine;
//! * **contended** — the cold trace split over `threads` clients on a
//!   fresh engine.
//!
//! Reads and writes of the same cache sit side by side, so a faster hit
//! that slows a miss (or the reverse) shows. The seed draws the zipf
//! traces; which keys are hot is fixed (library-major, so the hot head is
//! the XKBlas family with its large traces), because a hit costs what its
//! trace weighs and a seed-dependent head would make runs with different
//! seeds time different work.
//!
//! Check: exact counter accounting in every phase (misses = distinct keys,
//! hits + coalesced + misses + interpolated = requests), warm and batch
//! answers bit-identical to the cold ones.

use std::time::Instant;

use xk_baselines::{Library, RunParams, XkVariant};
use xk_kernels::Routine;
use xk_serve::{AnswerSource, EngineStats, Query, ServeEngine};
use xk_topo::FabricSpec;

use crate::harness::{Checks, Counts, Workload};
use crate::report::MetricValue;
use crate::rng::{zipf_trace, Rng};
use crate::spans::Tracer;
use crate::stats::{highest_supported_percentile, median, percentile, sorted};

/// Exact-grid dimensions: the sample points of the GFLOP/s-vs-N curves.
pub const GRID_N: [usize; 6] = [16384, 20480, 24576, 28672, 32768, 36864];
/// Off-grid dimensions of the approximate phase.
pub const MID_N: [usize; 5] = [18432, 22528, 26624, 30720, 34816];
const TILE: usize = 2048;
const ROUTINES: [Routine; 3] = [Routine::Gemm, Routine::Syrk, Routine::Trsm];
const LIBRARIES: [Library; 4] = [
    Library::XkBlas(XkVariant::Full),
    Library::XkBlas(XkVariant::NoHeuristic),
    Library::CublasXt,
    Library::Slate,
];
const ZIPF_EXPONENT: f64 = 0.9;
/// Tolerance of the approximate phase: loose enough that the smooth
/// families serve from their fits, tight enough that the steppiest is
/// refused by the leave-one-out gate and falls back to an exact run.
const APPROX_TOL: f64 = 0.30;
const COLD_REQUESTS: usize = 10_000;
const APPROX_REQUESTS: usize = 2_000;
const BATCH_REQUESTS: usize = 500;

/// The configurations over `dims`, library-major.
fn configs(dims: &[usize]) -> Vec<(Library, RunParams)> {
    let mut out = Vec::new();
    for library in LIBRARIES {
        for routine in ROUTINES {
            for &n in dims {
                out.push((
                    library,
                    RunParams {
                        routine,
                        n,
                        tile: TILE,
                        data_on_device: false,
                    },
                ));
            }
        }
    }
    out
}

/// The generated request traces (indices into the universes).
#[derive(Clone, Debug, PartialEq)]
pub struct Traces {
    /// Cold/warm trace: the universe once, then the zipf tail.
    pub exact: Vec<usize>,
    /// Approximate-phase trace over the off-grid configurations.
    pub approx: Vec<usize>,
}

/// The traces `seed` generates.
pub fn traces(seed: u64) -> Traces {
    let mut rng = Rng::new(seed);
    let universe = configs(&GRID_N).len();
    // Enumerate the universe once, so every curve family gets all its grid
    // points and the distinct-key count is exact, then draw the zipf tail.
    let mut exact: Vec<usize> = (0..universe).collect();
    exact.extend(zipf_trace(
        universe,
        COLD_REQUESTS - universe,
        ZIPF_EXPONENT,
        &mut rng,
    ));
    let approx = zipf_trace(
        configs(&MID_N).len(),
        APPROX_REQUESTS,
        ZIPF_EXPONENT,
        &mut rng,
    );
    Traces { exact, approx }
}

fn delta(after: EngineStats, before: EngineStats) -> EngineStats {
    EngineStats {
        hits: after.hits - before.hits,
        coalesced: after.coalesced - before.coalesced,
        misses: after.misses - before.misses,
        interpolated: after.interpolated - before.interpolated,
    }
}

fn accounted(s: EngineStats) -> u64 {
    s.hits + s.coalesced + s.misses + s.interpolated
}

/// One replayed phase: per-request latency, answer bits and source.
#[derive(Default)]
pub struct Phase {
    seconds: f64,
    latency_s: Vec<f64>,
    answer_bits: Vec<u64>,
    sources: Vec<AnswerSource>,
    stats: EngineStats,
    errors: u64,
}

/// Replays `queries` one at a time against `engine`, timing each request.
fn replay(engine: &ServeEngine, queries: &[Query]) -> Phase {
    let before = engine.stats();
    let mut phase = Phase {
        latency_s: Vec::with_capacity(queries.len()),
        answer_bits: Vec::with_capacity(queries.len()),
        sources: Vec::with_capacity(queries.len()),
        ..Phase::default()
    };
    let t0 = Instant::now();
    for &q in queries {
        let tq = Instant::now();
        let answer = engine.query(q);
        phase.latency_s.push(tq.elapsed().as_secs_f64());
        match answer {
            Ok(a) => {
                phase.answer_bits.push(a.seconds.to_bits());
                phase.sources.push(a.source);
            }
            Err(_) => {
                phase.errors += 1;
                phase.answer_bits.push(0);
                phase.sources.push(AnswerSource::Miss);
            }
        }
    }
    phase.seconds = t0.elapsed().as_secs_f64();
    phase.stats = delta(engine.stats(), before);
    phase
}

/// What one pass produced.
pub struct Output {
    cold: Phase,
    warm: Phase,
    approx: Phase,
    batch_s: f64,
    batch_bits: Vec<u64>,
    batch_errors: u64,
    batch_stats: EngineStats,
    contended_s: f64,
    contended_stats: EngineStats,
    contended_errors: u64,
    resident_entries: usize,
}

/// Latencies and counters accumulated over the passes of one run.
#[derive(Default)]
pub struct Accumulated {
    /// `(universe index, seconds)` of every cold-phase miss.
    pub miss_s: Vec<(usize, f64)>,
    /// Seconds of every warm-phase hit.
    pub hit_s: Vec<f64>,
    /// Seconds of every approximate-phase request.
    pub approx_s: Vec<f64>,
    /// Seconds of each batch phase.
    pub batch_s: Vec<f64>,
    /// Seconds of each contended phase.
    pub contended_s: Vec<f64>,
    /// Counters of the last pass's main engine (cold + warm + approx).
    pub last_stats: EngineStats,
    /// Interpolated answers / approximate requests, last pass.
    pub interp_served_ratio: f64,
    /// Entries resident in the main engine's exact tier, last pass.
    pub resident_entries: usize,
    /// In-batch duplicates coalesced onto one simulation, last pass.
    pub batch_coalesced: u64,
}

/// See the module docs.
pub struct ServeZipf {
    topo: FabricSpec,
    threads: usize,
    universe: Vec<(Library, RunParams)>,
    exact_queries: Vec<Query>,
    exact_trace: Vec<usize>,
    approx_queries: Vec<Query>,
    approx_trace: Vec<usize>,
    /// What the passes so far measured.
    pub acc: Accumulated,
}

impl ServeZipf {
    /// The exact-grid universe, hot configurations first.
    pub fn universe(&self) -> &[(Library, RunParams)] {
        &self.universe
    }

    /// The engine's platform.
    pub fn topo(&self) -> &FabricSpec {
        &self.topo
    }

    /// XKBlas-variant keys of the batch that share a task graph with
    /// another variant: the groups `query_batch` simulates from one prep.
    pub fn batch_groups(&self) -> usize {
        let mut shapes: Vec<(usize, usize, Vec<Library>)> = Vec::new();
        for q in &self.exact_queries[..BATCH_REQUESTS] {
            if !matches!(q.library, Library::XkBlas(_)) {
                continue;
            }
            let shape = (q.params.routine as usize, q.params.n);
            match shapes.iter_mut().find(|(r, n, _)| (*r, *n) == shape) {
                Some((_, _, libs)) => {
                    if !libs.contains(&q.library) {
                        libs.push(q.library);
                    }
                }
                None => shapes.push((shape.0, shape.1, vec![q.library])),
            }
        }
        shapes.iter().filter(|(_, _, libs)| libs.len() > 1).count()
    }
}

impl Workload for ServeZipf {
    const NAME: &'static str = "serve_zipf";
    type Output = Output;

    fn setup(seed: u64, threads: usize) -> Self {
        let (universe, off_grid) = (configs(&GRID_N), configs(&MID_N));
        let traces = traces(seed);
        let exact_queries = traces
            .exact
            .iter()
            .map(|&i| Query::exact(universe[i].0, universe[i].1))
            .collect();
        let approx_queries = traces
            .approx
            .iter()
            .map(|&i| Query::approx(off_grid[i].0, off_grid[i].1, APPROX_TOL))
            .collect();
        ServeZipf {
            topo: xk_topo::dgx1(),
            threads,
            universe,
            exact_queries,
            exact_trace: traces.exact,
            approx_queries,
            approx_trace: traces.approx,
            acc: Accumulated::default(),
        }
    }

    fn pass(&mut self, tr: &Tracer) -> Output {
        let engine = tr.span("serve", "engine_new", || {
            ServeEngine::new(self.topo.clone())
        });
        let cold = tr.span("serve", "cold", || replay(&engine, &self.exact_queries));
        let warm = tr.span("serve", "warm", || replay(&engine, &self.exact_queries));
        let approx = tr.span("serve", "approx", || replay(&engine, &self.approx_queries));

        let batch_engine = ServeEngine::new(self.topo.clone());
        let batch_queries = &self.exact_queries[..BATCH_REQUESTS];
        let (answers, batch_s) = tr.timed("serve", "batch", || {
            batch_engine.query_batch(batch_queries, self.threads)
        });
        let batch_errors = answers.iter().filter(|a| a.is_err()).count() as u64;
        let batch_bits = answers
            .iter()
            .map(|a| a.as_ref().map_or(0, |a| a.seconds.to_bits()))
            .collect();

        let contended_engine = ServeEngine::new(self.topo.clone());
        let (contended_errors, contended_s) = tr.timed("serve", "contended", || {
            let (engine, queries, clients) = (&contended_engine, &self.exact_queries, self.threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        scope.spawn(move || {
                            queries
                                .iter()
                                .skip(c)
                                .step_by(clients)
                                .filter(|&&q| engine.query(q).is_err())
                                .count() as u64
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a serve client panicked"))
                    .sum()
            })
        });

        Output {
            cold,
            warm,
            approx,
            batch_s,
            batch_bits,
            batch_errors,
            batch_stats: batch_engine.stats(),
            contended_s,
            contended_stats: contended_engine.stats(),
            contended_errors,
            resident_entries: engine.cache().len(),
        }
    }

    fn check(&mut self, out: Output, checks: &mut Checks) -> Counts {
        let name = Self::NAME;
        let distinct = self.universe.len() as u64;
        let requests = self.exact_queries.len() as u64;

        let errors = out.cold.errors
            + out.warm.errors
            + out.approx.errors
            + out.batch_errors
            + out.contended_errors;
        checks.count(
            2 * requests
                + out.approx.latency_s.len() as u64
                + out.batch_bits.len() as u64
                + requests,
        );
        checks.check(errors == 0, || {
            format!("{name}: {errors} queries returned an error, expected 0")
        });

        let mut phase = |label: &str, s: EngineStats, want_requests: u64, want_misses: u64| {
            checks.check(accounted(s) == want_requests, || {
                format!(
                    "{name}: {label}: hits+coalesced+misses+interpolated: expected {want_requests}, got {} ({s:?})",
                    accounted(s)
                )
            });
            checks.check(s.misses == want_misses, || {
                format!(
                    "{name}: {label}: misses: expected {want_misses} (distinct keys), got {}",
                    s.misses
                )
            });
        };
        phase("cold", out.cold.stats, requests, distinct);
        phase("warm", out.warm.stats, requests, 0);
        // Off-grid keys the interpolation tier refuses fall back to exact
        // runs: one miss per distinct refused key.
        let mut refused: Vec<usize> = self
            .approx_trace
            .iter()
            .zip(&out.approx.sources)
            .filter(|(_, s)| **s == AnswerSource::Miss)
            .map(|(&config, _)| config)
            .collect();
        refused.sort_unstable();
        refused.dedup();
        phase(
            "approx",
            out.approx.stats,
            self.approx_queries.len() as u64,
            refused.len() as u64,
        );
        let batch_distinct = {
            let mut seen: Vec<usize> = self.exact_trace[..BATCH_REQUESTS].to_vec();
            seen.sort_unstable();
            seen.dedup();
            seen.len() as u64
        };
        phase(
            "batch",
            out.batch_stats,
            BATCH_REQUESTS as u64,
            batch_distinct,
        );
        phase("contended", out.contended_stats, requests, distinct);

        checks.check(out.warm.answer_bits == out.cold.answer_bits, || {
            let at = out.warm.answer_bits.iter().zip(&out.cold.answer_bits).position(|(a, b)| a != b);
            format!("{name}: warm answers are not bit-identical to cold (first difference at request {at:?})")
        });
        checks.check(
            out.batch_bits[..] == out.cold.answer_bits[..BATCH_REQUESTS],
            || {
                format!(
                    "{name}: batch answers are not bit-identical to the sequential cold answers"
                )
            },
        );
        checks.check(
            out.warm.sources.iter().all(|s| *s == AnswerSource::Hit),
            || format!("{name}: a warm request was not served as a hit"),
        );

        // Accumulate what the latency metrics are computed from.
        self.absorb_misses(&out.cold);
        self.acc.hit_s.extend_from_slice(&out.warm.latency_s);
        self.acc.approx_s.extend_from_slice(&out.approx.latency_s);
        self.acc.batch_s.push(out.batch_s);
        self.acc.contended_s.push(out.contended_s);
        let main = EngineStats {
            hits: out.cold.stats.hits + out.warm.stats.hits + out.approx.stats.hits,
            coalesced: out.cold.stats.coalesced
                + out.warm.stats.coalesced
                + out.approx.stats.coalesced,
            misses: out.cold.stats.misses + out.warm.stats.misses + out.approx.stats.misses,
            interpolated: out.approx.stats.interpolated,
        };
        self.acc.last_stats = main;
        self.acc.interp_served_ratio = main.interpolated as f64 / self.approx_queries.len() as f64;
        self.acc.resident_entries = out.resident_entries;
        self.acc.batch_coalesced = out.batch_stats.coalesced;

        vec![
            (
                "requests",
                accounted(main) + accounted(out.batch_stats) + accounted(out.contended_stats),
            ),
            ("hits", main.hits),
            ("misses", main.misses),
            ("interpolated", main.interpolated),
            ("batch_coalesced", out.batch_stats.coalesced),
            ("batch_misses", out.batch_stats.misses),
            ("contended_misses", out.contended_stats.misses),
            ("resident_entries", out.resident_entries as u64),
            (
                "cold_answers_digest",
                super::fnv1a(
                    &out.cold
                        .answer_bits
                        .iter()
                        .flat_map(|b| b.to_le_bytes())
                        .collect::<Vec<u8>>(),
                ),
            ),
        ]
    }

    fn extras(&self) -> Vec<MetricValue> {
        self.latency_values()
            .into_iter()
            .map(|(name, unit, value)| MetricValue::single(name, unit, value))
            .collect()
    }
}

impl ServeZipf {
    /// One more cold replay on a fresh engine, adding its misses to the
    /// accumulated sample (the layer probe makes one pass only and tops the
    /// miss sample up to what the p90 needs).
    pub fn extra_cold(&mut self, tr: &Tracer) {
        let engine = ServeEngine::new(self.topo.clone());
        let cold = tr.span("serve", "cold", || replay(&engine, &self.exact_queries));
        self.absorb_misses(&cold);
    }

    fn absorb_misses(&mut self, cold: &Phase) {
        for ((&key, &secs), source) in self
            .exact_trace
            .iter()
            .zip(&cold.latency_s)
            .zip(&cold.sources)
        {
            if *source == AnswerSource::Miss {
                self.acc.miss_s.push((key, secs));
            }
        }
    }

    /// True when the accumulated samples leave at least ten beyond every
    /// percentile [`ServeZipf::latency_values`] reports.
    pub fn tails_supported(&self) -> bool {
        highest_supported_percentile(self.acc.miss_s.len()) >= Some(90.0)
            && highest_supported_percentile(self.acc.hit_s.len()) >= Some(99.9)
            && highest_supported_percentile(self.acc.approx_s.len()) >= Some(50.0)
    }

    /// The latency figures of the passes so far: `(name, unit, value)`.
    /// Percentiles follow the ten-samples-beyond rule for a run of at
    /// least three passes (216 misses, 30 000 hits); see
    /// [`ServeZipf::tails_supported`].
    pub fn latency_values(&self) -> Vec<(&'static str, &'static str, f64)> {
        let a = &self.acc;
        let miss_ms = sorted(&a.miss_s.iter().map(|(_, s)| s * 1e3).collect::<Vec<_>>());
        let hit_us = sorted(&a.hit_s.iter().map(|s| s * 1e6).collect::<Vec<_>>());
        let approx_us = sorted(&a.approx_s.iter().map(|s| s * 1e6).collect::<Vec<_>>());
        vec![
            ("miss_ms_p50", "ms", percentile(&miss_ms, 50.0)),
            ("miss_ms_p90", "ms", percentile(&miss_ms, 90.0)),
            ("hit_us_p50", "us", percentile(&hit_us, 50.0)),
            ("hit_us_p99", "us", percentile(&hit_us, 99.0)),
            ("hit_us_p999", "us", percentile(&hit_us, 99.9)),
            ("approx_us_p50", "us", percentile(&approx_us, 50.0)),
            ("batch_s", "s", median(&a.batch_s)),
            ("contended_s", "s", median(&a.contended_s)),
        ]
    }
}
