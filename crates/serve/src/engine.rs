//! The query engine: a long-running planner front end over the simulator.
//!
//! One [`ServeEngine`] per topology answers "what does `(library, routine,
//! N, tile)` achieve on this platform" queries for many concurrent callers:
//!
//! 1. **Exact tier** — the sharded single-flight cache ([`ShardedCache`]):
//!    resident answers return immediately, identical in-flight misses
//!    coalesce onto one DES run, and every answer shares the cached run
//!    (`Arc<RunResult>`) instead of copying its trace.
//! 2. **Interpolation tier** — when the caller passes a tolerance
//!    ([`QueryMode::Approx`]), an in-range query is answered from the
//!    family's GFLOP/s-vs-N fit without touching the DES at all.
//!    Approximate answers are marked [`AnswerSource::Interpolated`] and
//!    never enter the exact cache.
//! 3. **Batched miss execution** — [`ServeEngine::query_batch`] drains
//!    distinct misses into the cross-seed replica driver
//!    ([`xk_sim::run_replicas`]); XKBlas-variant misses that share a task
//!    graph are simulated from one hoisted [`xk_runtime::SimPrep`]
//!    (see [`xk_baselines::run_prepped`]) instead of re-preparing per
//!    query.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xk_baselines::{
    build_run_graph, run, run_prepped, Library, RunError, RunParams, RunResult, XkVariant,
};
use xk_topo::FabricSpec;

use crate::interp::CurveTable;
use crate::key::QueryKey;
use crate::shard::{Admission, Flight, LeadGuard, RunOutcome, ShardedCache, Source};

/// How exact the caller needs the answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryMode {
    /// Full DES fidelity: cache hit, coalesced wait, or a real simulation.
    Exact,
    /// The answer may come from the interpolation tier when its estimated
    /// relative error is within `rel_err`; falls back to exact otherwise.
    Approx {
        /// Largest acceptable relative error of the returned throughput.
        rel_err: f64,
    },
}

/// One planner query against the engine's topology.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    /// Library policy model.
    pub library: Library,
    /// Routine, dimension, tile, methodology.
    pub params: RunParams,
    /// Exactness contract.
    pub mode: QueryMode,
}

impl Query {
    /// An [`QueryMode::Exact`] query.
    pub fn exact(library: Library, params: RunParams) -> Self {
        Query {
            library,
            params,
            mode: QueryMode::Exact,
        }
    }

    /// An [`QueryMode::Approx`] query with relative tolerance `rel_err`.
    pub fn approx(library: Library, params: RunParams, rel_err: f64) -> Self {
        Query {
            library,
            params,
            mode: QueryMode::Approx { rel_err },
        }
    }
}

/// Where an answer came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerSource {
    /// Resident in the exact cache.
    Hit,
    /// Coalesced onto another caller's in-flight simulation.
    Coalesced,
    /// This query led a DES run.
    Miss,
    /// Served by the interpolation fast tier (approximate, marked).
    Interpolated,
}

impl From<Source> for AnswerSource {
    fn from(s: Source) -> Self {
        match s {
            Source::Hit => AnswerSource::Hit,
            Source::Coalesced => AnswerSource::Coalesced,
            Source::Miss => AnswerSource::Miss,
        }
    }
}

/// The engine's reply to one query.
#[derive(Clone, Debug)]
pub struct Answer {
    /// The configuration this answers.
    pub key: QueryKey,
    /// Predicted/observed end-to-end seconds.
    pub seconds: f64,
    /// Predicted/observed TFlop/s.
    pub tflops: f64,
    /// How the answer was produced. [`AnswerSource::Interpolated`] answers
    /// are approximate within the query's tolerance contract.
    pub source: AnswerSource,
    /// The full exact run (trace, byte counters, observability), shared
    /// with the cache and every other answer for this key — `None` for
    /// interpolated answers, which never touch the DES.
    pub exact: Option<Arc<RunResult>>,
}

/// Monotonic engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Exact-cache hits.
    pub hits: u64,
    /// Lookups coalesced onto an in-flight simulation.
    pub coalesced: u64,
    /// Simulations led.
    pub misses: u64,
    /// Queries answered by the interpolation tier.
    pub interpolated: u64,
}

/// A sharded, single-flight, two-tier query engine over one topology.
#[derive(Debug)]
pub struct ServeEngine {
    topo: FabricSpec,
    cache: ShardedCache,
    curves: CurveTable,
    interpolated: AtomicU64,
}

fn params_of(key: &QueryKey) -> RunParams {
    RunParams {
        routine: key.routine,
        n: key.n,
        tile: key.tile,
        data_on_device: key.data_on_device,
    }
}

fn answer_from_exact(key: QueryKey, result: Arc<RunResult>, source: Source) -> Answer {
    Answer {
        key,
        seconds: result.seconds,
        tflops: result.tflops,
        source: source.into(),
        exact: Some(result),
    }
}

impl ServeEngine {
    /// A fresh engine on `topo`.
    pub fn new(topo: FabricSpec) -> Self {
        ServeEngine {
            topo,
            cache: ShardedCache::new(),
            curves: CurveTable::new(),
            interpolated: AtomicU64::new(0),
        }
    }

    /// The engine's platform.
    pub fn topology(&self) -> &FabricSpec {
        &self.topo
    }

    /// The exact-tier cache (diagnostics: shard spread, residency).
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// Current counters.
    pub fn stats(&self) -> EngineStats {
        let c = self.cache.stats();
        EngineStats {
            hits: c.hits,
            coalesced: c.coalesced,
            misses: c.misses,
            interpolated: self.interpolated.load(Ordering::Relaxed),
        }
    }

    /// Answers one query.
    pub fn query(&self, q: Query) -> Result<Answer, RunError> {
        let key = QueryKey::new(q.library, &self.topo, &q.params);
        if let QueryMode::Approx { rel_err } = q.mode {
            if let Some(answer) = self.try_fast_tier(&key, rel_err) {
                return Ok(answer);
            }
        }
        let (outcome, source) = self.exact_with_curve(key);
        outcome.map(|r| answer_from_exact(key, r, source))
    }

    /// The approx fast path: a resident exact entry (better than any fit),
    /// else the family's curve fit when it meets the tolerance.
    fn try_fast_tier(&self, key: &QueryKey, rel_err: f64) -> Option<Answer> {
        match self.cache.peek(key) {
            Some(Ok(result)) => {
                self.cache.record(Source::Hit);
                return Some(answer_from_exact(*key, result, Source::Hit));
            }
            // A memoized error: let the exact path return it.
            Some(Err(_)) => return None,
            None => {}
        }
        let gflops = self.curves.predict_within(key, rel_err)?;
        self.interpolated.fetch_add(1, Ordering::Relaxed);
        let flops = key.routine.flops_square(key.n as u64);
        let seconds = flops / (gflops * 1e9);
        Some(Answer {
            key: *key,
            seconds,
            tflops: gflops / 1000.0,
            source: AnswerSource::Interpolated,
            exact: None,
        })
    }

    /// Exact lookup through the single-flight cache; a led simulation
    /// feeds the family's interpolation curve.
    fn exact_with_curve(&self, key: QueryKey) -> (RunOutcome, Source) {
        let params = params_of(&key);
        let (outcome, source) = self
            .cache
            .get_or_compute(key, || run(key.library, &self.topo, &params));
        if source == Source::Miss {
            if let Ok(r) = &outcome {
                self.curves.observe(&key, r.tflops * 1000.0);
            }
        }
        (outcome, source)
    }

    /// Answers a whole batch, draining cache misses into the replica
    /// driver: distinct misses simulate concurrently over `threads`
    /// workers (0 = all cores), and XKBlas-variant misses sharing a task
    /// graph are simulated from one hoisted prep. Answers land in query
    /// order and are identical to issuing each query alone.
    pub fn query_batch(
        &self,
        queries: &[Query],
        threads: usize,
    ) -> Vec<Result<Answer, RunError>> {
        let mut answers: Vec<Option<Result<Answer, RunError>>> = vec![None; queries.len()];

        // Fast tiers inline: interpolation and resident entries.
        let mut unresolved: Vec<(usize, QueryKey)> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let key = QueryKey::new(q.library, &self.topo, &q.params);
            if let QueryMode::Approx { rel_err } = q.mode {
                if let Some(answer) = self.try_fast_tier(&key, rel_err) {
                    answers[i] = Some(Ok(answer));
                    continue;
                }
            }
            unresolved.push((i, key));
        }

        // Admit each distinct unresolved key once.
        let mut key_queries: HashMap<QueryKey, Vec<usize>> = HashMap::new();
        let mut order: Vec<QueryKey> = Vec::new();
        for (i, key) in &unresolved {
            let entry = key_queries.entry(*key).or_default();
            if entry.is_empty() {
                order.push(*key);
            }
            entry.push(*i);
        }
        enum Unit<'c> {
            Solo(QueryKey, LeadGuard<'c>),
            Group(Vec<(QueryKey, LeadGuard<'c>)>),
            WaitFor(QueryKey, Arc<Flight>),
        }
        let mut resolved: Vec<(QueryKey, RunOutcome, Source)> = Vec::new();
        let mut leads: Vec<(QueryKey, LeadGuard<'_>)> = Vec::new();
        let mut waits: Vec<(QueryKey, Arc<Flight>)> = Vec::new();
        for key in order {
            match self.cache.admit(key) {
                Admission::Hit(outcome) => resolved.push((key, outcome, Source::Hit)),
                Admission::Wait(flight) => waits.push((key, flight)),
                Admission::Lead(guard) => leads.push((key, guard)),
            }
        }

        // Group XKBlas-variant leads that share a task graph: same
        // (routine, n, tile, methodology), different heuristics.
        type GraphKey = (u8, usize, usize, bool);
        let mut groups: HashMap<GraphKey, Vec<(QueryKey, LeadGuard<'_>)>> = HashMap::new();
        let mut solos: Vec<(QueryKey, LeadGuard<'_>)> = Vec::new();
        for (key, guard) in leads {
            // Only checked parameters may reach `build_run_graph`; a
            // malformed key goes solo, where `run` reports the error.
            if matches!(key.library, Library::XkBlas(_)) && params_of(&key).validate().is_ok() {
                groups
                    .entry((key.routine as u8, key.n, key.tile, key.data_on_device))
                    .or_default()
                    .push((key, guard));
            } else {
                solos.push((key, guard));
            }
        }
        let mut units: Vec<Unit<'_>> = Vec::new();
        for (key, flight) in waits {
            units.push(Unit::WaitFor(key, flight));
        }
        for (key, guard) in solos {
            units.push(Unit::Solo(key, guard));
        }
        for (_, members) in groups {
            if members.len() == 1 {
                let (key, guard) = members.into_iter().next().unwrap();
                units.push(Unit::Solo(key, guard));
            } else {
                units.push(Unit::Group(members));
            }
        }

        // Drain the misses through the replica driver.
        let slots: Vec<Mutex<Option<Unit<'_>>>> =
            units.into_iter().map(|u| Mutex::new(Some(u))).collect();
        let computed: Vec<Vec<(QueryKey, RunOutcome, Source)>> =
            xk_sim::run_replicas(slots.len(), threads, |i| {
                let unit = slots[i].lock().unwrap().take().expect("unit taken once");
                match unit {
                    Unit::Solo(key, guard) => {
                        let params = params_of(&key);
                        let outcome = guard.fill(run(key.library, &self.topo, &params));
                        vec![(key, outcome, Source::Miss)]
                    }
                    Unit::Group(members) => {
                        let params = params_of(&members[0].0);
                        let base = XkVariant::Full.runtime_config();
                        let graph = build_run_graph(&self.topo, &params, &base, false);
                        let prep = xk_runtime::SimPrep::new(&graph);
                        members
                            .into_iter()
                            .map(|(key, guard)| {
                                let Library::XkBlas(variant) = key.library else {
                                    unreachable!("groups hold only XKBlas variants");
                                };
                                let result = run_prepped(
                                    &self.topo,
                                    &params_of(&key),
                                    variant.runtime_config(),
                                    &graph,
                                    &prep,
                                );
                                (key, guard.fill(Ok(result)), Source::Miss)
                            })
                            .collect()
                    }
                    Unit::WaitFor(key, flight) => {
                        let (outcome, source) = match flight.wait() {
                            Some(outcome) => (outcome, Source::Coalesced),
                            // The outside leader abandoned: re-admit (the
                            // distribute loop below does the counting and
                            // curve feeding, so don't go through the
                            // self-recording exact path).
                            None => loop {
                                match self.cache.admit(key) {
                                    Admission::Hit(o) => break (o, Source::Hit),
                                    Admission::Wait(f) => {
                                        if let Some(o) = f.wait() {
                                            break (o, Source::Coalesced);
                                        }
                                    }
                                    Admission::Lead(guard) => {
                                        let params = params_of(&key);
                                        let o = guard
                                            .fill(run(key.library, &self.topo, &params));
                                        break (o, Source::Miss);
                                    }
                                }
                            },
                        };
                        vec![(key, outcome, source)]
                    }
                }
            });
        resolved.extend(computed.into_iter().flatten());

        // Feed curves and distribute answers in query order. The first
        // query of a led key is the miss; its batch duplicates coalesced
        // onto the same run.
        for (key, outcome, source) in resolved {
            if source == Source::Miss {
                if let Ok(r) = &outcome {
                    self.curves.observe(&key, r.tflops * 1000.0);
                }
            }
            let idxs = &key_queries[&key];
            for (dup, &i) in idxs.iter().enumerate() {
                let per_query = if dup == 0 {
                    source
                } else {
                    match source {
                        Source::Hit => Source::Hit,
                        _ => Source::Coalesced,
                    }
                };
                self.cache.record(per_query);
                answers[i] = Some(
                    outcome
                        .clone()
                        .map(|r| answer_from_exact(key, r, per_query)),
                );
            }
        }

        answers
            .into_iter()
            .map(|a| a.expect("every query resolved"))
            .collect()
    }
}
