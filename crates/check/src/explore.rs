//! Exploration loops: run many controlled schedules of one (graph,
//! topology, config) scenario, feed every one through the differential
//! oracle, and count distinct schedules by choice-log fingerprint.
//!
//! Seeds are independent replicas over shared immutable inputs, so the
//! batched entry points ([`explore_random_batch`], [`explore_pct_batch`])
//! fan them over `xk_sim::run_replicas` with one finalized graph, one
//! makespan bound and one witness hoisted out of the per-seed loop. Results
//! come back indexed by seed position and are merged in that order, so a
//! batched report is identical to the serial one — same `runs`, same
//! `distinct` fingerprint count, same failures in the same order. The
//! serial functions are the single-threaded special case of the batched
//! ones.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use xk_runtime::cache::CoherenceMutation;
use xk_runtime::{
    makespan_lower_bound, MakespanBound, ObsLevel, RuntimeConfig, ScheduleController, SimExecutor,
    SimOutcome, TaskGraph,
};
use xk_sim::run_replicas;
use xk_topo::FabricSpec;

use crate::controllers::{ChoiceLog, PctController, RandomController, ReplayController};
use crate::witness::Witness;

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
    ctrl: &mut dyn ScheduleController,
) -> SimOutcome {
    let mut ex = SimExecutor::new(graph, topo, cfg).observe(ObsLevel::Off);
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

/// What every schedule of one (graph, topology, config) scenario is
/// checked against, built once per scenario: the makespan bound (a
/// function of graph, topology and model only, never of controller
/// decisions) and the graph's witness.
struct Oracles<'g> {
    graph: &'g TaskGraph,
    bound: MakespanBound,
    witness: Witness,
}

impl<'g> Oracles<'g> {
    fn new(graph: &'g TaskGraph, topo: &FabricSpec, cfg: &RuntimeConfig) -> Self {
        let bound = makespan_lower_bound(graph, topo, cfg);
        Oracles { graph, bound, witness: Witness::new(graph) }
    }

    /// The three oracles on one outcome: structure, bound, witness.
    fn verdict(&self, out: &SimOutcome) -> Result<(), String> {
        structural_check(self.graph, out)?;
        bound_check(&self.bound, out)?;
        self.witness.check(&out.trace).map_err(|e| e.to_string())
    }
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
/// available core). Seeds are independent replicas of one scenario; the
/// report is identical to the serial one.
pub fn explore_random_batch(
    graph: &TaskGraph,
    topo: &FabricSpec,
    cfg: &RuntimeConfig,
    seeds: impl IntoIterator<Item = u64>,
    mutation: Option<CoherenceMutation>,
    threads: usize,
) -> ExploreReport {
    let make = RandomController::new;
    explore(graph, topo, cfg, seeds, mutation, threads, make, |c| &mut c.log)
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
    let make = |seed| PctController::new(seed, change_every);
    explore(graph, topo, cfg, seeds, None, threads, make, |c| &mut c.log)
}

/// The one exploration loop: one schedule per seed under the controller
/// `make(seed)` builds (whose choice log `log` reaches), fanned over
/// `threads` replica workers, every outcome checked against the
/// scenario's oracles.
#[allow(clippy::too_many_arguments)]
fn explore<C: ScheduleController>(
    graph: &TaskGraph,
    topo: &FabricSpec,
    cfg: &RuntimeConfig,
    seeds: impl IntoIterator<Item = u64>,
    mutation: Option<CoherenceMutation>,
    threads: usize,
    make: impl Fn(u64) -> C + Sync,
    log: fn(&mut C) -> &mut ChoiceLog,
) -> ExploreReport {
    let seeds: Vec<u64> = seeds.into_iter().collect();
    graph.finalize();
    let oracles = Oracles::new(graph, topo, cfg);
    // The longest choice log so far sizes each new one, instead of every
    // seed growing its log from empty; it moves capacities, never a result.
    let log_len = AtomicUsize::new(0);
    let mut results = run_replicas(seeds.len(), threads, |i| {
        let seed = seeds[i];
        let mut ctrl = make(seed);
        log(&mut ctrl).0.reserve(log_len.load(Ordering::Relaxed));
        let out = run_one(graph, topo, cfg, mutation, &mut ctrl);
        let log = log(&mut ctrl);
        log_len.fetch_max(log.0.len(), Ordering::Relaxed);
        let verdict = oracles.verdict(&out);
        let failure = verdict.err().map(|error| Failure { seed, choices: log.choices(), error });
        (log.fingerprint(), out.makespan, failure)
    });
    // Results come back in seed order, so the report is the serial one.
    let fingerprints: HashSet<u64> = results.iter().map(|r| r.0).collect();
    ExploreReport {
        runs: results.len(),
        distinct: fingerprints.len(),
        min_makespan: results.iter().map(|r| r.1).reduce(f64::min),
        // Not `into_iter`: collecting in place would keep the results buffer
        // alive as the capacity of a (usually empty) failure list.
        failures: results.iter_mut().filter_map(|r| r.2.take()).collect(),
    }
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
    let oracles = Oracles::new(graph, topo, cfg);
    let mut rep = ReplayController::new(choices.to_vec());
    let out = run_one(graph, topo, cfg, mutation, &mut rep);
    let v = oracles.verdict(&out);
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
        let oracles = Oracles::new(&g, &topo, &cfg);
        let mut fingerprints = HashSet::new();
        let mut runs = 0usize;
        let mut prefix = Some(Vec::new());
        while let Some(p) = prefix {
            assert!(runs < 50_000, "tiny tree not exhausted in {runs} runs");
            let mut dfs = DfsController::new(p);
            let out = run_one(&g, &topo, &cfg, None, &mut dfs);
            assert_eq!(oracles.verdict(&out), Ok(()), "schedule {:?}", dfs.log.choices());
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
