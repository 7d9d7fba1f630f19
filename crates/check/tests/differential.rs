//! The tentpole differential matrix: every explored schedule of a
//! generated DAG must produce the same final tile values as the serial
//! single-stream reference — heuristics on and off, data starting on the
//! host and on the devices, 1 to 8 GPUs of the DGX-1.
//!
//! Each configuration runs a fixed 1100-seed random exploration; the
//! acceptance bar is at least 1000 *distinct* schedules per (DAG, config)
//! with zero oracle failures. A failure prints its seed and choice string,
//! which `xk_check::replay` reproduces exactly.
//!
//! Seeds fan out over the batch replica driver (one worker per core,
//! shared graph/topology/prep) — reports are identical to the serial
//! loops, which `serial_and_batched_reports_agree` pins on a full matrix
//! cell.

use xk_check::graphgen::{build_random_dag, RandomDagSpec};
use xk_check::topo_util::subtopo;
use xk_check::{
    explore_random, explore_random_batch, explore_pct_batch, replay, shrink_case,
    write_regression, Failure, ReplayCase, BOUND_RTOL,
};
use xk_runtime::{makespan_lower_bound, Heuristics, RuntimeConfig};

/// Seeds per configuration — a little headroom above the 1000-distinct
/// bar. The nightly CI job raises it via `XK_CHECK_SEEDS` for a much
/// deeper (non-blocking) exploration of the same matrix.
fn seeds() -> std::ops::Range<u64> {
    let n = std::env::var("XK_CHECK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1100);
    0..n
}

const DISTINCT_FLOOR: usize = 1000;

fn spec(on_device: Option<usize>) -> RandomDagSpec {
    RandomDagSpec {
        flush: true,
        on_device,
        ..RandomDagSpec::default()
    }
}

fn first_failures(failures: &[Failure]) -> &[Failure] {
    &failures[..failures.len().min(3)]
}

/// Runs the 1100-seed exploration for one heuristics preset across
/// placements (host / on-device) and 1, 2, 4, 8 GPUs of the DGX-1.
fn sweep(dag_seed: u64, h: Heuristics) {
    let full = xk_topo::dgx1();
    let cfg = RuntimeConfig::default().with_heuristics(h);
    for n_gpus in [1usize, 2, 4, 8] {
        let topo = subtopo(&full, n_gpus);
        for on_device in [None, Some(n_gpus)] {
            let g = build_random_dag(dag_seed, &spec(on_device));
            let r = explore_random_batch(&g, &topo, &cfg, seeds(), None, 0);
            let place = on_device.map_or("host", |_| "device");
            assert!(
                r.failures.is_empty(),
                "{n_gpus} GPUs, {place} placement, {h:?}: {} oracle failures, first: {:#?}",
                r.failures.len(),
                first_failures(&r.failures),
            );
            assert!(
                r.distinct >= DISTINCT_FLOOR,
                "{n_gpus} GPUs, {place} placement, {h:?}: only {} distinct schedules in {} runs",
                r.distinct,
                r.runs,
            );
        }
    }
}

#[test]
fn full_heuristics_matrix() {
    sweep(1, Heuristics::full());
}

#[test]
fn no_optimistic_matrix() {
    sweep(1, Heuristics::no_optimistic());
}

#[test]
fn no_heuristics_matrix() {
    sweep(1, Heuristics::none());
}

#[test]
fn host_staged_only_matrix() {
    // No device-to-device communication at all: the protocol must still
    // deliver reference results under every explored schedule.
    sweep(1, Heuristics::host_only());
}

#[test]
fn second_dag_spot_check() {
    // A structurally different DAG on the most contended configuration.
    sweep(2, Heuristics::full());
}

#[test]
fn pct_style_exploration_passes_the_oracle() {
    // PCT-style controllers bias hard toward hashed priorities, reaching
    // systematically-skewed corners uniform sampling underweights.
    let topo = xk_topo::dgx1();
    let cfg = RuntimeConfig::default();
    let g = build_random_dag(1, &spec(Some(8)));
    for change_every in [1u64, 7, 64] {
        let r = explore_pct_batch(&g, &topo, &cfg, 0..200, change_every, 0);
        assert!(
            r.failures.is_empty(),
            "PCT change_every={change_every}: {:#?}",
            first_failures(&r.failures),
        );
        assert!(r.distinct > 100, "PCT degenerate: {} distinct", r.distinct);
    }
}

/// Seeds per cell for the bound-oracle legs: these stack a second oracle
/// on the same exploration machinery, so a shallower sweep per cell keeps
/// the wall-clock sane across the whole gallery × preset matrix. The
/// nightly job raises it via `XK_BOUND_SEEDS`.
fn bound_seeds() -> std::ops::Range<u64> {
    let n = std::env::var("XK_BOUND_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(150);
    0..n
}

#[test]
fn bound_oracle_across_the_fabric_gallery() {
    // Every fabric of the gallery × three heuristic presets: the LP
    // makespan lower bound must be positive, and no explored schedule may
    // beat it (the exploration itself enforces that per run; the report's
    // min_makespan re-asserts it end to end).
    let presets = [
        ("full", Heuristics::full()),
        ("none", Heuristics::none()),
        ("host_only", Heuristics::host_only()),
    ];
    for topo in xk_topo::fabrics::gallery() {
        for (hname, h) in presets {
            let cfg = RuntimeConfig::default().with_heuristics(h);
            let g = build_random_dag(3, &spec(None));
            let bound = makespan_lower_bound(&g, &topo, &cfg);
            assert!(
                bound.total > 0.0 && bound.total.is_finite(),
                "{} {hname}: degenerate bound {bound:?}",
                topo.name(),
            );
            let r = explore_random_batch(&g, &topo, &cfg, bound_seeds(), None, 0);
            assert!(
                r.failures.is_empty(),
                "{} {hname}: {} bound/oracle failures, first: {:#?}",
                topo.name(),
                r.failures.len(),
                first_failures(&r.failures),
            );
            let min = r.min_makespan.expect("non-empty exploration");
            assert!(
                min >= bound.total * (1.0 - BOUND_RTOL),
                "{} {hname}: best makespan {min} beats bound {}",
                topo.name(),
                bound.total,
            );
        }
    }
}

#[test]
fn bound_oracle_on_dgx1_slices_shrinks_violations() {
    // The dgx1 sub-machine cells are replayable as ReplayCase files, so a
    // bound violation here is shrunk and pinned into the corpus before the
    // test fails — the next session starts from a minimized reproducer.
    let full = xk_topo::dgx1();
    let cfg = RuntimeConfig::default().with_heuristics(Heuristics::full());
    let fails = |c: &ReplayCase| {
        let (g, t, cfg) = c.scenario();
        replay(&g, &t, &cfg, &c.choices, None).1.is_err()
    };
    for n_gpus in [1usize, 2, 4, 8] {
        let topo = subtopo(&full, n_gpus);
        for on_device in [None, Some(n_gpus)] {
            let g = build_random_dag(4, &spec(on_device));
            let r = explore_random_batch(&g, &topo, &cfg, bound_seeds(), None, 0);
            if let Some(f) = r.failures.first() {
                let case = ReplayCase {
                    name: "bound-violation".into(),
                    seed: 4,
                    spec: spec(on_device),
                    n_gpus,
                    heuristics: "full".into(),
                    choices: f.choices.clone(),
                    error: f.error.clone(),
                };
                if fails(&case) {
                    let shrunk = shrink_case(case, fails);
                    let dir = std::path::Path::new(
                        option_env!("CARGO_MANIFEST_DIR").unwrap_or("crates/check"),
                    )
                    .join("regressions");
                    if let Ok(path) = write_regression(&dir, &shrunk) {
                        eprintln!("pinned shrunk bound violation at {}", path.display());
                    }
                }
                panic!(
                    "{n_gpus} GPUs, on_device={on_device:?}: bound violation, seed {} — {}",
                    f.seed, f.error,
                );
            }
        }
    }
}

#[test]
fn serial_and_batched_reports_agree() {
    // One matrix cell, both drivers: the batched fan-out must reproduce
    // the serial report exactly (runs, distinct fingerprints, failures).
    let topo = subtopo(&xk_topo::dgx1(), 4);
    let cfg = RuntimeConfig::default().with_heuristics(Heuristics::full());
    let g = build_random_dag(1, &spec(Some(4)));
    let serial = explore_random(&g, &topo, &cfg, 0..64, None);
    let batched = explore_random_batch(&g, &topo, &cfg, 0..64, None, 0);
    assert_eq!(serial.runs, batched.runs);
    assert_eq!(serial.distinct, batched.distinct);
    assert!(serial.failures.is_empty() && batched.failures.is_empty());
}
