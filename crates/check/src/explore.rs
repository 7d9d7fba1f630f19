//! Exploration loops: run many controlled schedules of one (graph,
//! topology, config) scenario, feed every one through the differential
//! oracle, and count distinct schedules by choice-log fingerprint.
//!
//! Seeds are independent replicas over shared immutable inputs, so the
//! batched entry points ([`explore_random_batch`], [`explore_pct_batch`])
//! fan them over `xk_sim::run_replicas` with one [`SimPrep`] hoisted out
//! of the per-seed loop. Results come back indexed by seed position and
//! are merged in that order, so a batched report is identical to the
//! serial one — same `runs`, same `distinct` fingerprint count, same
//! failures in the same order. The serial functions are the
//! single-threaded special case of the batched ones.

use std::collections::HashSet;

use xk_runtime::cache::CoherenceMutation;
use xk_runtime::{
    makespan_lower_bound, MakespanBound, RuntimeConfig, SimExecutor, SimOutcome, SimPrep,
    TaskGraph,
};
use xk_sim::run_replicas;
use xk_topo::FabricSpec;

use crate::controllers::{RandomController, ReplayController};
use crate::witness;

/// One failing schedule, fully replayable.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Seed of the random or PCT controller that found it.
    pub seed: u64,
    /// The exact decision sequence; [`replay`] reproduces the schedule.
    pub choices: Vec<u32>,
    /// Human-readable oracle verdict.
    pub error: String,
}

/// Result of a random exploration.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Schedules run.
    pub runs: usize,
    /// Distinct schedules among them (choice-log fingerprints).
    pub distinct: usize,
    /// Oracle failures, one per failing seed.
    pub failures: Vec<Failure>,
    /// Best (smallest) makespan seen across the explored schedules —
    /// with the scenario's [`MakespanBound`], the empirical optimality
    /// gap of the whole explored schedule space. `None` for empty runs.
    pub min_makespan: Option<f64>,
}

fn run_one(
    graph: &TaskGraph,
    topo: &FabricSpec,
    cfg: &RuntimeConfig,
    mutation: Option<CoherenceMutation>,
    ctrl: &mut dyn xk_runtime::ScheduleController,
) -> SimOutcome {
    let mut ex = SimExecutor::new(graph, topo, cfg);
    if let Some(m) = mutation {
        ex = ex.inject_cache_mutation(m);
    }
    ex.control(ctrl).run()
}

/// Checks one outcome against the structural part of the differential
/// oracle (every task ran, none failed; the simulated clock advanced for
/// non-empty graphs). It runs first: the witness is defined for fault-free
/// runs only.
fn structural_check(graph: &TaskGraph, out: &SimOutcome) -> Result<(), String> {
    if out.tasks_run != graph.len() {
        return Err(format!("{} of {} tasks ran", out.tasks_run, graph.len()));
    }
    // NaN is not positive either.
    let positive = out.makespan.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
    if !graph.is_empty() && !positive {
        return Err(format!("makespan {} not positive", out.makespan));
    }
    if !out.failures.is_empty() {
        return Err(format!("unexpected task failures: {:?}", out.failures));
    }
    Ok(())
}

/// Relative tolerance of the bound oracle, matching the LP solver's own
/// feasibility tolerance: a schedule may undercut the lower bound by at
/// most one part in 10⁹ before it counts as a physics violation.
pub const BOUND_RTOL: f64 = 1e-9;

/// The standing bound oracle: every schedule of the scenario must respect
/// the schedule-free [`MakespanBound`]. A violation means either the DES
/// moved data faster than the fabric allows or the bound over-claims —
/// both are bugs worth a shrunk regression.
fn bound_check(bound: &MakespanBound, out: &SimOutcome) -> Result<(), String> {
    if bound.admits(out.makespan, BOUND_RTOL) {
        Ok(())
    } else {
        Err(format!(
            "makespan {:.9e} beats the lower bound {:.9e} (cp {:.3e}, lp {:.3e}, compute {:.3e})",
            out.makespan, bound.total, bound.critical_path, bound.link_lp, bound.compute
        ))
    }
}

/// The three oracles on one outcome: structure, bound, witness.
fn verdict(graph: &TaskGraph, bound: &MakespanBound, out: &SimOutcome) -> Result<(), String> {
    structural_check(graph, out)?;
    bound_check(bound, out)?;
    witness::check(graph, &out.trace).map_err(|e| e.to_string())
}

/// Per-seed replica result: the SoA element [`run_replicas`] hands back in
/// seed order (fingerprints and verdicts indexed by seed position).
struct SeedResult {
    fingerprint: u64,
    makespan: f64,
    failure: Option<Failure>,
}

/// Folds seed-ordered replica results into an [`ExploreReport`] exactly
/// the way the serial loops do: runs counted, fingerprints deduplicated,
/// failures kept in seed order.
fn merge_seed_results(results: Vec<SeedResult>) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut fingerprints = HashSet::new();
    for r in results {
        report.runs += 1;
        fingerprints.insert(r.fingerprint);
        report.min_makespan = Some(match report.min_makespan {
            Some(m) => m.min(r.makespan),
            None => r.makespan,
        });
        if let Some(f) = r.failure {
            report.failures.push(f);
        }
    }
    report.distinct = fingerprints.len();
    report
}

/// Explores one random schedule per seed in `seeds`, checking each against
/// the differential oracle. `mutation` injects a deliberate coherence bug
/// (the oracle is then expected to report failures — that expectation is
/// the checker's own mutation test).
pub fn explore_random(
    graph: &TaskGraph,
    topo: &FabricSpec,
    cfg: &RuntimeConfig,
    seeds: impl IntoIterator<Item = u64>,
    mutation: Option<CoherenceMutation>,
) -> ExploreReport {
    explore_random_batch(graph, topo, cfg, seeds, mutation, 1)
}

/// [`explore_random`] fanned over `threads` replica workers (0 = one per
/// available core). Seeds are independent replicas of one prepared
/// scenario; the report is identical to the serial one.
pub fn explore_random_batch(
    graph: &TaskGraph,
    topo: &FabricSpec,
    cfg: &RuntimeConfig,
    seeds: impl IntoIterator<Item = u64>,
    mutation: Option<CoherenceMutation>,
    threads: usize,
) -> ExploreReport {
    let seeds: Vec<u64> = seeds.into_iter().collect();
    let prep = SimPrep::new(graph);
    // One bound serves every schedule of the scenario: it is a function of
    // (graph, topo, model) only, never of controller decisions.
    let bound = makespan_lower_bound(graph, topo, cfg);
    merge_seed_results(run_replicas(seeds.len(), threads, |i| {
        let seed = seeds[i];
        let mut rng = RandomController::new(seed);
        let mut ex = SimExecutor::with_prep(graph, topo, cfg, &prep);
        if let Some(m) = mutation {
            ex = ex.inject_cache_mutation(m);
        }
        let out = ex.control(&mut rng).run();
        let log = &rng.log;
        SeedResult {
            fingerprint: log.fingerprint(),
            makespan: out.makespan,
            failure: verdict(graph, &bound, &out)
                .err()
                .map(|error| Failure { seed, choices: log.choices(), error }),
        }
    }))
}

/// Like [`explore_random_batch`] but with PCT-style controllers (hashed
/// priorities, reshuffled every `change_every` decisions): reaches
/// systematically-skewed orderings a uniform sampler is unlikely to hit.
/// Seeds fan out over `threads` replica workers (0 = one per available
/// core; 1 = the serial loop).
pub fn explore_pct_batch(
    graph: &TaskGraph,
    topo: &FabricSpec,
    cfg: &RuntimeConfig,
    seeds: impl IntoIterator<Item = u64>,
    change_every: u64,
    threads: usize,
) -> ExploreReport {
    let seeds: Vec<u64> = seeds.into_iter().collect();
    let prep = SimPrep::new(graph);
    let bound = makespan_lower_bound(graph, topo, cfg);
    merge_seed_results(run_replicas(seeds.len(), threads, |i| {
        let seed = seeds[i];
        let mut pct = crate::controllers::PctController::new(seed, change_every);
        let out = SimExecutor::with_prep(graph, topo, cfg, &prep)
            .control(&mut pct)
            .run();
        SeedResult {
            fingerprint: pct.log.fingerprint(),
            makespan: out.makespan,
            failure: verdict(graph, &bound, &out)
                .err()
                .map(|error| Failure { seed, choices: pct.log.choices(), error }),
        }
    }))
}

/// Replays a recorded decision sequence and re-runs the differential
/// oracle. Returns the outcome and the oracle verdict.
pub fn replay(
    graph: &TaskGraph,
    topo: &FabricSpec,
    cfg: &RuntimeConfig,
    choices: &[u32],
    mutation: Option<CoherenceMutation>,
) -> (SimOutcome, Result<(), String>) {
    let bound = makespan_lower_bound(graph, topo, cfg);
    let mut rep = ReplayController::new(choices.to_vec());
    let out = run_one(graph, topo, cfg, mutation, &mut rep);
    let v = verdict(graph, &bound, &out);
    (out, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controllers::DfsController;
    use crate::graphgen::{build_random_dag, RandomDagSpec};

    #[test]
    fn canonical_schedule_passes_the_oracle() {
        let g = build_random_dag(1, &RandomDagSpec { flush: true, ..RandomDagSpec::default() });
        let topo = xk_topo::dgx1();
        let cfg = RuntimeConfig::default();
        let (out, verdict) = replay(&g, &topo, &cfg, &[], None);
        assert_eq!(out.tasks_run, g.len());
        assert_eq!(verdict, Ok(()));
    }

    #[test]
    fn random_exploration_finds_many_schedules_and_no_bugs() {
        let g = build_random_dag(2, &RandomDagSpec::default());
        let topo = xk_topo::dgx1();
        let cfg = RuntimeConfig::default();
        let r = explore_random(&g, &topo, &cfg, 0..40, None);
        assert_eq!(r.runs, 40);
        assert!(r.distinct > 10, "only {} distinct schedules in 40 runs", r.distinct);
        assert!(r.failures.is_empty(), "spurious failures: {:?}", r.failures);
    }

    #[test]
    fn dfs_exhausts_a_tiny_dag() {
        let g = build_random_dag(
            3,
            &RandomDagSpec { tasks: 3, handles: 2, max_reads: 1, ..RandomDagSpec::default() },
        );
        let topo = xk_topo::builders::pcie_only(2);
        let cfg = RuntimeConfig::default();
        // Enumerate the choice tree depth-first: every schedule passes the
        // oracle and none repeats.
        let bound = makespan_lower_bound(&g, &topo, &cfg);
        let mut fingerprints = HashSet::new();
        let mut runs = 0usize;
        let mut prefix = Some(Vec::new());
        while let Some(p) = prefix {
            assert!(runs < 50_000, "tiny tree not exhausted in {runs} runs");
            let mut dfs = DfsController::new(p);
            let out = run_one(&g, &topo, &cfg, None, &mut dfs);
            assert_eq!(verdict(&g, &bound, &out), Ok(()), "schedule {:?}", dfs.log.choices());
            runs += 1;
            fingerprints.insert(dfs.log.fingerprint());
            prefix = DfsController::next_prefix(&dfs.log);
        }
        assert_eq!(fingerprints.len(), runs, "DFS repeated a schedule");
    }

    #[test]
    fn batched_exploration_matches_serial() {
        let g = build_random_dag(5, &RandomDagSpec::default());
        let topo = xk_topo::dgx1();
        let cfg = RuntimeConfig::default();
        let serial = explore_random(&g, &topo, &cfg, 0..24, None);
        let batched = explore_random_batch(&g, &topo, &cfg, 0..24, None, 4);
        assert_eq!(serial.runs, batched.runs);
        assert_eq!(serial.distinct, batched.distinct);
        assert_eq!(serial.failures.len(), batched.failures.len());
        let sp = explore_pct_batch(&g, &topo, &cfg, 0..12, 7, 1);
        let bp = explore_pct_batch(&g, &topo, &cfg, 0..12, 7, 4);
        assert_eq!(sp.runs, bp.runs);
        assert_eq!(sp.distinct, bp.distinct);
        assert_eq!(sp.failures.len(), bp.failures.len());
    }

    #[test]
    fn exploration_reports_min_makespan_above_the_bound() {
        let g = build_random_dag(7, &RandomDagSpec { flush: true, ..RandomDagSpec::default() });
        let topo = xk_topo::dgx1();
        let cfg = RuntimeConfig::default();
        let r = explore_random(&g, &topo, &cfg, 0..20, None);
        assert!(r.failures.is_empty(), "failures: {:?}", r.failures);
        let bound = makespan_lower_bound(&g, &topo, &cfg);
        let min = r.min_makespan.expect("20 runs recorded a makespan");
        assert!(bound.total > 0.0);
        assert!(
            min >= bound.total * (1.0 - BOUND_RTOL),
            "best explored makespan {min} beats bound {}",
            bound.total
        );
    }

    #[test]
    fn replay_reproduces_a_random_run() {
        let g = build_random_dag(4, &RandomDagSpec::default());
        let topo = xk_topo::dgx1();
        let cfg = RuntimeConfig::default();
        let mut rng = RandomController::new(99);
        let out1 = run_one(&g, &topo, &cfg, None, &mut rng);
        let (out2, verdict) = replay(&g, &topo, &cfg, &rng.log.choices(), None);
        assert_eq!(out1.makespan.to_bits(), out2.makespan.to_bits());
        assert_eq!(out1.bytes_p2p, out2.bytes_p2p);
        assert_eq!(verdict, Ok(()));
    }
}
