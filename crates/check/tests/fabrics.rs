//! The differential and metamorphic suites replayed on the non-DGX-1
//! members of the fabric gallery: an NVSwitch machine (all-to-all through
//! a switch tier), a PCIe-only commodity box, and a two-node NIC/IB
//! fabric. The DGX-1 versions of these properties live in
//! `differential.rs` / `metamorphic.rs`; this suite proves the redesigned
//! fabric layer did not bake DGX-1 assumptions into the runtime.

use xk_check::graphgen::{build_random_dag, build_random_dag_placed, RandomDagSpec};
use xk_check::topo_util::automorphisms;
use xk_check::{explore_random_batch, replay, Failure};
use xk_runtime::{Heuristics, RuntimeConfig, SchedulerKind};
use xk_topo::{fabrics, FabricSpec};

/// Seeds per (fabric, preset) cell — smaller than the DGX-1 matrix since
/// this suite multiplies over fabrics; `XK_CHECK_SEEDS` deepens it.
fn seeds() -> std::ops::Range<u64> {
    let n = std::env::var("XK_CHECK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    0..n
}

fn gallery_non_dgx1() -> Vec<FabricSpec> {
    vec![fabrics::dgx2(8), fabrics::pcie_box(4), fabrics::dual_node_ib(4)]
}

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

/// The differential oracle on every new fabric: explored schedules must
/// reproduce the serial reference values, data starting on the host and
/// on the devices, heuristics on and off.
#[test]
fn differential_oracle_per_fabric() {
    for topo in gallery_non_dgx1() {
        let n = topo.n_gpus();
        for h in [Heuristics::full(), Heuristics::none()] {
            let cfg = RuntimeConfig::default().with_heuristics(h);
            for on_device in [None, Some(n)] {
                let g = build_random_dag(1, &spec(on_device));
                let r = explore_random_batch(&g, &topo, &cfg, seeds(), None, 0);
                let place = on_device.map_or("host", |_| "device");
                assert!(
                    r.failures.is_empty(),
                    "{} ({place}, {h:?}): {} oracle failures, first: {:#?}",
                    topo.name(),
                    r.failures.len(),
                    first_failures(&r.failures),
                );
                assert!(
                    r.distinct >= r.runs / 2,
                    "{} ({place}, {h:?}): only {} distinct schedules in {} runs",
                    topo.name(),
                    r.distinct,
                    r.runs,
                );
            }
        }
    }
}

/// Satellite 3: the relabeling metamorphic suite on the NVSwitch fabric,
/// driven by *generated* automorphisms instead of the hand-derived DGX-1
/// list. The machine is vertex-transitive, so the generator has plenty to
/// offer; under placement-driven scheduling each relabeling must preserve
/// the makespan bit-for-bit.
#[test]
fn nvswitch_relabeling_preserves_makespan_under_static_owner() {
    let topo = fabrics::dgx2(8);
    let perms = automorphisms(&topo, 6);
    assert!(!perms.is_empty(), "NVSwitch fabric has no automorphisms?");
    let cfg = RuntimeConfig::default().with_scheduler(SchedulerKind::StaticOwner);
    for seed in 1u64..=6 {
        let spec = spec(Some(8));
        let base = build_random_dag(seed, &spec);
        let (base_out, base_verdict) = replay(&base, &topo, &cfg, &[], None);
        assert_eq!(base_verdict, Ok(()), "seed {seed} base run failed the oracle");
        for (pi, perm) in perms.iter().enumerate() {
            let permuted = build_random_dag_placed(seed, &spec, |g| perm[g]);
            let (out, verdict) = replay(&permuted, &topo, &cfg, &[], None);
            assert_eq!(verdict, Ok(()), "seed {seed} perm#{pi} failed the oracle");
            assert_eq!(
                out.makespan.to_bits(),
                base_out.makespan.to_bits(),
                "seed {seed} perm#{pi} {perm:?}: makespan {} != base {}",
                out.makespan,
                base_out.makespan,
            );
            assert_eq!(out.tasks_run, base_out.tasks_run);
        }
    }
}

/// The same relabeling property on the two-node fabric: its automorphisms
/// are node-preserving by construction (the generator keeps co-location
/// patterns), so a relabeled placement is the same machine there too.
#[test]
fn dual_node_relabeling_preserves_makespan_under_static_owner() {
    let topo = fabrics::dual_node_ib(4);
    let perms = automorphisms(&topo, 4);
    assert!(!perms.is_empty(), "dual-node fabric has no automorphisms?");
    let cfg = RuntimeConfig::default().with_scheduler(SchedulerKind::StaticOwner);
    for seed in 1u64..=4 {
        let spec = spec(Some(8));
        let base = build_random_dag(seed, &spec);
        let (base_out, base_verdict) = replay(&base, &topo, &cfg, &[], None);
        assert_eq!(base_verdict, Ok(()), "seed {seed} base run failed the oracle");
        for (pi, perm) in perms.iter().enumerate() {
            let permuted = build_random_dag_placed(seed, &spec, |g| perm[g]);
            let (out, verdict) = replay(&permuted, &topo, &cfg, &[], None);
            assert_eq!(verdict, Ok(()), "seed {seed} perm#{pi} failed the oracle");
            assert_eq!(
                out.makespan.to_bits(),
                base_out.makespan.to_bits(),
                "seed {seed} perm#{pi} {perm:?}",
            );
        }
    }
}

/// Disabling the optimistic D2D heuristic must preserve results and
/// liveness on every new fabric — including the two-node machine, where a
/// forward may now cross both NICs.
#[test]
fn disabling_optimistic_d2d_stays_correct_per_fabric() {
    for topo in gallery_non_dgx1() {
        let n = topo.n_gpus();
        let g = build_random_dag(3, &spec(Some(n)));
        for h in [Heuristics::full(), Heuristics::no_optimistic()] {
            let cfg = RuntimeConfig::default().with_heuristics(h);
            let r = explore_random_batch(&g, &topo, &cfg, 0..100, None, 0);
            assert_eq!(r.runs, 100);
            assert!(
                r.failures.is_empty(),
                "{} {h:?}: {:#?}",
                topo.name(),
                first_failures(&r.failures),
            );
        }
    }
}
