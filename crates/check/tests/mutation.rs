//! Mutation testing of the checker itself: inject a known coherence bug
//! into the runtime (`mark_written` forgetting to invalidate peer
//! replicas — a classic MSI protocol slip) and prove the differential
//! oracle catches it with a replayable seed, that the shrinker minimizes
//! the failing case, and that the regression file round-trips through the
//! replay machinery.

use xk_check::graphgen::RandomDagSpec;
use xk_check::shrink::{from_text, to_text};
use xk_check::{
    explore_random, load_regressions, replay, shrink_case, write_regression, ReplayCase,
};
use xk_runtime::cache::CoherenceMutation;

/// A scenario with enough cross-GPU write/read traffic for a missing
/// invalidation to matter: tiles homed across all 8 GPUs, read/write
/// chains between them, and a final flush that reads everything back.
fn buggy_case(seed: u64, choices: Vec<u32>, error: String) -> ReplayCase {
    ReplayCase {
        name: "stale-read-injection".into(),
        seed,
        spec: RandomDagSpec {
            on_device: Some(8),
            flush: true,
            ..RandomDagSpec::default()
        },
        n_gpus: 8,
        heuristics: "full".into(),
        choices,
        error,
    }
}

fn case_fails_with_mutation(case: &ReplayCase) -> bool {
    let (g, topo, cfg) = case.scenario();
    let (_, verdict) = replay(&g, &topo, &cfg, &case.choices, Some(CoherenceMutation::StaleRead));
    verdict.is_err()
}

#[test]
fn injected_stale_read_is_caught_with_a_replayable_seed() {
    let probe = buggy_case(1, Vec::new(), String::new());
    let (g, topo, cfg) = probe.scenario();

    // The same exploration that passes cleanly in differential.rs must
    // report failures once the bug is injected.
    let clean = explore_random(&g, &topo, &cfg, 0..50, None);
    assert!(clean.failures.is_empty(), "clean run failed: {:#?}", clean.failures.first());
    let buggy = explore_random(&g, &topo, &cfg, 0..50, Some(CoherenceMutation::StaleRead));
    assert!(
        !buggy.failures.is_empty(),
        "stale-read mutation survived 50 explored schedules undetected",
    );

    // Every reported failure is replayable: the recorded choices reproduce
    // the verdict with the bug present, and pass without it.
    let f = &buggy.failures[0];
    let (_, with_bug) = replay(&g, &topo, &cfg, &f.choices, Some(CoherenceMutation::StaleRead));
    assert_eq!(with_bug, Err(f.error.clone()), "replay did not reproduce seed {}", f.seed);
    let (_, without_bug) = replay(&g, &topo, &cfg, &f.choices, None);
    assert_eq!(without_bug, Ok(()), "the failure was not the mutation's fault");
}

#[test]
fn failing_case_shrinks_and_round_trips_as_a_regression_file() {
    let probe = buggy_case(1, Vec::new(), String::new());
    let (g, topo, cfg) = probe.scenario();
    let buggy = explore_random(&g, &topo, &cfg, 0..50, Some(CoherenceMutation::StaleRead));
    let f = buggy
        .failures
        .first()
        .expect("stale-read mutation survived 50 explored schedules undetected");

    let case = buggy_case(1, f.choices.clone(), f.error.clone());
    assert!(case_fails_with_mutation(&case));
    let shrunk = shrink_case(case.clone(), case_fails_with_mutation);
    assert!(case_fails_with_mutation(&shrunk), "shrinker returned a passing case");
    assert!(
        shrunk.spec.tasks <= case.spec.tasks && shrunk.choices.len() <= case.choices.len(),
        "shrinker grew the case: {shrunk:?}",
    );

    // Round-trip through the regression file format and a temp corpus dir.
    let reparsed = from_text(&to_text(&shrunk)).expect("shrunken case serializes");
    assert_eq!(reparsed, shrunk);
    let dir = std::env::temp_dir().join(format!("xkcheck-mutation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_regression(&dir, &shrunk).expect("writable temp corpus");
    let loaded = load_regressions(&dir);
    assert_eq!(loaded, vec![shrunk.clone()]);
    let _ = std::fs::remove_dir_all(&dir);

    // The minimized case still reproduces from the loaded file, and the
    // fixed (unmutated) runtime passes it — exactly what the checked-in
    // corpus under crates/check/regressions/ asserts on every run.
    assert!(case_fails_with_mutation(&loaded[0]));
    let (g2, topo2, cfg2) = loaded[0].scenario();
    let (_, verdict) = replay(&g2, &topo2, &cfg2, &loaded[0].choices, None);
    assert_eq!(verdict, Ok(()));
}
