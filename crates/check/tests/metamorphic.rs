//! Metamorphic properties of the simulated runtime.
//!
//! Each property transforms the scenario in a way whose effect on the
//! outcome is known in advance, then checks the runtime honours it:
//!
//! 1. Relabeling GPUs along a DGX-1 automorphism (the machine's tables are
//!    bit-identical, only the data placement moves) preserves the makespan
//!    exactly — for placement-driven scheduling (`StaticOwner`). Index
//!    tie-breaks make work-stealing schedulers placement-sensitive, so for
//!    those the property is weakened to "still correct": every permuted
//!    run passes the differential oracle.
//! 2. Uniformly scaling every link bandwidth by `k` (with latencies at
//!    zero) scales every transfer span by exactly `1/k` whenever the
//!    canonical schedule keeps its structure.
//! 3. The disjoint union of `k` copies of a DAG scales the link-LP and
//!    compute components of the lower bound by `k` and leaves the critical
//!    path alone.
//! 4. Disabling optimistic device-to-device forwarding never changes the
//!    computed values and never deadlocks a waiter on an in-flight
//!    transfer: every explored schedule drains and passes the oracle.
//! 5. On one GPU there is no peer to fetch from, so every heuristic preset
//!    runs the same schedule: same choices, same spans.
//! 6. With data on device, owner placement and every task touching only
//!    its own GPU's tiles, nothing has to move: no schedule has a transfer.

use xk_check::graphgen::{build_random_dag, build_random_dag_placed, RandomDagSpec};
use xk_check::topo_util::{scaled_bandwidth, subtopo, DGX1_AUTOMORPHISMS};
use xk_check::{explore_random, replay, RandomController};
use xk_kernels::perfmodel::TileOp;
use xk_lp::SplitMix64;
use xk_runtime::{
    link_attribution, makespan_lower_bound, Access, DataInfo, HandleId, Heuristics,
    RuntimeConfig, SchedulerKind, SimExecutor, SimPrep, TaskAccess, TaskGraph, TaskKind,
    TaskLabel,
};
use xk_topo::{bw, dgx1, FabricBuilder, FabricSpec, LinkClass};

fn device_spec() -> RandomDagSpec {
    RandomDagSpec {
        on_device: Some(8),
        flush: true,
        ..RandomDagSpec::default()
    }
}

#[test]
fn gpu_relabeling_preserves_makespan_under_static_owner() {
    let topo = dgx1();
    let cfg = RuntimeConfig::default().with_scheduler(SchedulerKind::StaticOwner);
    for seed in 1u64..=12 {
        let spec = device_spec();
        let base = build_random_dag(seed, &spec);
        let (base_out, base_verdict) = replay(&base, &topo, &cfg, &[], None);
        assert_eq!(base_verdict, Ok(()), "seed {seed} base run failed the oracle");
        for (pi, perm) in DGX1_AUTOMORPHISMS.iter().enumerate() {
            let permuted = build_random_dag_placed(seed, &spec, |g| perm[g]);
            let (out, verdict) = replay(&permuted, &topo, &cfg, &[], None);
            assert_eq!(verdict, Ok(()), "seed {seed} perm#{pi} failed the oracle");
            assert_eq!(
                out.makespan.to_bits(),
                base_out.makespan.to_bits(),
                "seed {seed} perm#{pi}: makespan {} != base {}",
                out.makespan,
                base_out.makespan,
            );
            assert_eq!(out.tasks_run, base_out.tasks_run);
        }
    }
}

#[test]
fn gpu_relabeling_stays_correct_under_work_stealing() {
    // LocalityWorkStealing breaks ties on GPU index, so the permuted
    // makespan legitimately drifts — but correctness must not: every
    // explored schedule of every permuted placement passes the oracle.
    let topo = dgx1();
    let cfg = RuntimeConfig::default();
    for seed in 1u64..=4 {
        for perm in DGX1_AUTOMORPHISMS.iter() {
            let g = build_random_dag_placed(seed, &device_spec(), |g| perm[g]);
            let r = explore_random(&g, &topo, &cfg, 0..60, None);
            assert!(
                r.failures.is_empty(),
                "seed {seed} perm {perm:?}: {:#?}",
                &r.failures[..r.failures.len().min(3)],
            );
        }
    }
}

#[test]
fn bandwidth_scaling_scales_transfer_spans_by_inverse_k() {
    // Zero-latency machines make each transfer exactly bytes/(k*bw). The
    // property needs the canonical schedule to keep its structure under
    // the rescale; these DAG seeds are structure-stable for every k below
    // (checked empirically and guarded by the structure assertions).
    let base_topo = scaled_bandwidth(&dgx1(), 1.0, true);
    let cfg = RuntimeConfig::default();
    let spec = RandomDagSpec {
        flush: true,
        ..RandomDagSpec::default()
    };
    for seed in [1u64, 7, 12] {
        let g = build_random_dag(seed, &spec);
        let (base, base_verdict) = replay(&g, &base_topo, &cfg, &[], None);
        assert_eq!(base_verdict, Ok(()));
        let base_transfers: Vec<_> = base
            .trace
            .spans()
            .iter()
            .filter(|s| s.kind.is_transfer())
            .map(|s| (s.kind, s.bytes, s.duration()))
            .collect();
        assert!(!base_transfers.is_empty(), "seed {seed} moved no data");
        for k in [2.0f64, 4.0, 0.5] {
            let scaled = scaled_bandwidth(&dgx1(), k, true);
            let (out, verdict) = replay(&g, &scaled, &cfg, &[], None);
            assert_eq!(verdict, Ok(()), "seed {seed} k={k} failed the oracle");
            let transfers: Vec<_> = out
                .trace
                .spans()
                .iter()
                .filter(|s| s.kind.is_transfer())
                .map(|s| (s.kind, s.bytes, s.duration()))
                .collect();
            assert_eq!(
                transfers.len(),
                base_transfers.len(),
                "seed {seed} k={k}: schedule structure changed",
            );
            for (i, (a, b)) in base_transfers.iter().zip(&transfers).enumerate() {
                assert_eq!((a.0, a.1), (b.0, b.1), "seed {seed} k={k} transfer {i}");
                let ratio = a.2 / (b.2 * k);
                assert!(
                    (ratio - 1.0).abs() < 1e-9,
                    "seed {seed} k={k} transfer {i}: span {} !~ base {} / {k}",
                    b.2,
                    a.2,
                );
            }
        }
    }
}

#[test]
fn topology_rescale_is_exact_on_the_bandwidth_matrix() {
    // The topo-level half of the scaling property: every matrix entry is
    // exactly k times the original (bit-level, not approximate).
    let t = dgx1();
    for k in [2.0f64, 4.0, 0.5] {
        let s = scaled_bandwidth(&t, k, false);
        let m0 = t.bandwidth_matrix_gbs();
        let m1 = s.bandwidth_matrix_gbs();
        for (r0, r1) in m0.iter().zip(&m1) {
            for (a, b) in r0.iter().zip(r1) {
                assert_eq!(b.to_bits(), (a * k).to_bits());
            }
        }
    }
}

#[test]
fn uniform_bandwidth_scaling_scales_the_lp_bound_inversely() {
    // The link-LP component of the makespan lower bound is a pure function
    // of bytes/bandwidth coefficients, so scaling every link by k must
    // scale it by exactly 1/k (the compute component, kernel-only, must
    // not move at all). This pins the LP against the same transformation
    // the transfer-span property above pins the DES against.
    let cfg = RuntimeConfig::default();
    let spec = RandomDagSpec {
        flush: true,
        ..RandomDagSpec::default()
    };
    for seed in [1u64, 7, 12] {
        let g = build_random_dag(seed, &spec);
        let base = makespan_lower_bound(&g, &scaled_bandwidth(&dgx1(), 1.0, true), &cfg);
        assert!(base.link_lp > 0.0, "seed {seed}: host-placed DAG moved no mandatory bytes");
        for k in [2.0f64, 4.0, 0.5] {
            let b = makespan_lower_bound(&g, &scaled_bandwidth(&dgx1(), k, true), &cfg);
            let ratio = b.link_lp * k / base.link_lp;
            assert!(
                (ratio - 1.0).abs() < 1e-9,
                "seed {seed} k={k}: link_lp {} !~ base {} / {k}",
                b.link_lp,
                base.link_lp,
            );
            assert_eq!(
                b.compute.to_bits(),
                base.compute.to_bits(),
                "seed {seed} k={k}: compute bound moved with bandwidth",
            );
        }
    }
}

/// `k` independent copies of `base` in one graph, submitted copy by copy.
fn disjoint_union(base: &TaskGraph, k: usize) -> TaskGraph {
    let mut g = TaskGraph::new();
    for _ in 0..k {
        let offset = g.data().len();
        for (_, info) in base.data().iter() {
            g.add_data(info.clone());
        }
        let shifted = |h: HandleId| HandleId(h.0 + offset);
        for task in base.tasks() {
            match task.kind {
                TaskKind::Kernel => {
                    let accesses: Vec<TaskAccess> = task
                        .accesses
                        .iter()
                        .map(|a| TaskAccess {
                            handle: shifted(a.handle),
                            access: a.access,
                        })
                        .collect();
                    g.add_task(
                        task.op.expect("kernel tasks carry an op"),
                        accesses,
                        TaskLabel::None,
                    );
                }
                TaskKind::Flush => {
                    let handles: Vec<HandleId> = task.read_handles().map(shifted).collect();
                    g.add_flush(&handles, TaskLabel::None);
                }
            }
        }
    }
    g
}

#[test]
fn disjoint_copies_scale_the_lp_and_compute_bounds_by_k() {
    // k copies of a DAG carry k times the tiles of every (direction, size,
    // pitch) class — exactly the counts the class LP multiplies its engine
    // coefficients by — and k times the kernel seconds, while no dependency
    // chain gets longer.
    let cfg = RuntimeConfig::default();
    for topo in xk_topo::fabrics::gallery() {
        for (seed, on_device, tile_bytes) in [
            (1u64, None, 1u64 << 20),
            (7, None, 8 << 20),
            (12, Some(topo.n_gpus()), 2 << 20),
        ] {
            let spec = RandomDagSpec {
                on_device,
                tile_bytes,
                flush: true,
                ..RandomDagSpec::default()
            };
            let g = build_random_dag(seed, &spec);
            let base = makespan_lower_bound(&g, &topo, &cfg);
            assert!(
                base.link_lp > 0.0,
                "{} seed {seed}: no mandatory bytes",
                topo.name()
            );
            for k in [2usize, 3] {
                let b = makespan_lower_bound(&disjoint_union(&g, k), &topo, &cfg);
                for (what, got, want) in [
                    ("link_lp", b.link_lp, base.link_lp * k as f64),
                    ("compute", b.compute, base.compute * k as f64),
                ] {
                    assert!(
                        (got - want).abs() <= 1e-9 * want,
                        "{} seed {seed} k={k}: {what} {got} !~ {k} x base = {want}",
                        topo.name(),
                    );
                }
                assert_eq!(
                    b.critical_path.to_bits(),
                    base.critical_path.to_bits(),
                    "{} seed {seed} k={k}: critical path moved",
                    topo.name(),
                );
            }
        }
    }
}

/// A 4-GPU NVLink fabric with a known symmetry group: (0,1)/(2,3) carry
/// 2× NVLink, (0,2)/(1,3) 1× — small enough for exhaustive Shapley.
fn quad() -> FabricSpec {
    FabricBuilder::named("quad")
        .gpus(4)
        .links(&[(0, 1), (2, 3)], LinkClass::NvLink2, bw::NVLINK2)
        .links(&[(0, 2), (1, 3)], LinkClass::NvLink1, bw::NVLINK1)
        .build()
}

/// Non-identity automorphisms of [`quad`]: each preserves the link tables
/// AND the switch grouping {0,1}/{2,3}, so the fabric is bit-identical
/// after relabeling.
const QUAD_AUTOMORPHISMS: [[usize; 4]; 3] = [
    [1, 0, 3, 2], // swap within NVLink2 pairs
    [2, 3, 0, 1], // swap the pairs wholesale
    [3, 2, 1, 0], // both
];

#[test]
fn gpu_relabeling_permutes_link_attributions_without_changing_the_multiset() {
    // Relabeling GPUs along a fabric automorphism maps each NVLink edge to
    // its image; under placement-driven scheduling every coalition's
    // throughput is preserved, so the Shapley value of edge (a, b) in the
    // base scenario must reappear at (π(a), π(b)) in the permuted one —
    // and the multiset of values must be unchanged.
    let topo = quad();
    let cfg = RuntimeConfig::default().with_scheduler(SchedulerKind::StaticOwner);
    let spec = RandomDagSpec {
        on_device: Some(4),
        flush: true,
        ..RandomDagSpec::default()
    };
    for seed in [1u64, 5] {
        let base_g = build_random_dag(seed, &spec);
        let base = link_attribution(&base_g, &topo, &cfg, 0, 0);
        assert!(base.exact, "quad mesh should be exhaustively attributable");
        assert_eq!(base.links.len(), 4);
        let value_at = |attr: &xk_runtime::Attribution, a: usize, b: usize| {
            attr.links
                .iter()
                .find(|l| (l.a, l.b) == (a.min(b), a.max(b)))
                .unwrap_or_else(|| panic!("edge ({a},{b}) missing"))
                .value
        };
        for perm in QUAD_AUTOMORPHISMS.iter() {
            let perm_g = build_random_dag_placed(seed, &spec, |g| perm[g]);
            let attr = link_attribution(&perm_g, &topo, &cfg, 0, 0);
            // Edge-wise: the value follows the relabeling.
            for l in &base.links {
                let (pa, pb) = (perm[l.a], perm[l.b]);
                let moved = value_at(&attr, pa, pb);
                assert!(
                    (moved - l.value).abs() <= 1e-9 * l.value.abs().max(1.0),
                    "seed {seed} perm {perm:?}: edge ({},{}) value {} != image ({pa},{pb}) {moved}",
                    l.a,
                    l.b,
                    l.value,
                );
            }
            // Multiset: sorted value lists agree, as do the endpoints.
            let mut vb: Vec<f64> = base.links.iter().map(|l| l.value).collect();
            let mut vp: Vec<f64> = attr.links.iter().map(|l| l.value).collect();
            vb.sort_by(|x, y| x.partial_cmp(y).unwrap());
            vp.sort_by(|x, y| x.partial_cmp(y).unwrap());
            for (x, y) in vb.iter().zip(&vp) {
                assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0));
            }
            assert!(
                (base.full_value - attr.full_value).abs()
                    <= 1e-9 * base.full_value.abs().max(1.0),
                "seed {seed} perm {perm:?}: achieved throughput moved under relabeling",
            );
        }
    }
}

#[test]
fn disabling_optimistic_d2d_preserves_results_and_liveness() {
    // The §III-C heuristic is a pure latency optimisation: turning it off
    // must not change any computed value (both variants must match the
    // serial reference) and must never strand a waiter — every explored
    // schedule drains completely, which explore_random's structural check
    // asserts (tasks_run == graph.len()).
    let topo = dgx1();
    for on_device in [None, Some(8)] {
        let g = build_random_dag(
            3,
            &RandomDagSpec {
                on_device,
                flush: true,
                ..RandomDagSpec::default()
            },
        );
        for h in [Heuristics::full(), Heuristics::no_optimistic()] {
            let cfg = RuntimeConfig::default().with_heuristics(h);
            let r = explore_random(&g, &topo, &cfg, 0..150, None);
            assert_eq!(r.runs, 150);
            assert!(
                r.failures.is_empty(),
                "{h:?} on_device={on_device:?}: {:#?}",
                &r.failures[..r.failures.len().min(3)],
            );
        }
    }
}

#[test]
fn on_one_gpu_every_heuristic_preset_runs_the_same_schedule() {
    // The heuristics only choose *which GPU* supplies a tile; with one GPU
    // there is none to choose, so the presets must not even differ in the
    // choice points they offer a controller.
    let topo = subtopo(&dgx1(), 1);
    let presets = [
        ("full", Heuristics::full()),
        ("no_optimistic", Heuristics::no_optimistic()),
        ("none", Heuristics::none()),
        ("host_only", Heuristics::host_only()),
    ];
    for on_device in [None, Some(1)] {
        let spec = RandomDagSpec { on_device, flush: true, ..RandomDagSpec::default() };
        let graph = build_random_dag(1, &spec);
        let prep = SimPrep::new(&graph);
        for seed in 0..50 {
            let run = |h: Heuristics| {
                let cfg = RuntimeConfig::default().with_heuristics(h);
                let mut rng = RandomController::new(seed);
                let out = SimExecutor::with_prep(&graph, &topo, &cfg, &prep)
                    .control(&mut rng)
                    .run();
                let spans: Vec<_> = out
                    .trace
                    .spans()
                    .iter()
                    .map(|s| {
                        let times = (s.start.to_bits(), s.end.to_bits());
                        (s.place, s.lane, s.kind, times, s.bytes, s.label, s.flow, s.subject, s.peer)
                    })
                    .collect();
                (rng.log.fingerprint(), spans)
            };
            let (fingerprint, spans) = run(presets[0].1);
            assert!(!spans.is_empty());
            for (name, h) in &presets[1..] {
                let (f, s) = run(*h);
                let what = format!("{name} vs full, on_device={on_device:?}, seed {seed}");
                assert_eq!(f, fingerprint, "{what}: choice fingerprint");
                assert_eq!(s, spans, "{what}: spans");
            }
        }
    }
}

/// 24 tasks on a data-on-device graph of three tiles per GPU, tile `i` on
/// GPU `i % n_gpus`: each task read-writes one tile of a random GPU and
/// reads up to two more tiles of that same GPU.
fn gpu_local_graph(seed: u64, n_gpus: usize) -> TaskGraph {
    let mut rng = SplitMix64::new(seed);
    let mut g = TaskGraph::new();
    let handles: Vec<HandleId> = (0..3 * n_gpus)
        .map(|i| g.add_data(DataInfo::on_gpu(1 << 20, i % n_gpus, format!("d{i}"))))
        .collect();
    for t in 0..24 {
        let gpu = rng.next_below(n_gpus as u64) as usize;
        let local = |rng: &mut SplitMix64| handles[gpu + n_gpus * rng.next_below(3) as usize];
        let target = local(&mut rng);
        let mut accesses = vec![TaskAccess { handle: target, access: Access::ReadWrite }];
        for _ in 0..rng.next_below(3) {
            let h = local(&mut rng);
            if accesses.iter().all(|a| a.handle != h) {
                accesses.push(TaskAccess { handle: h, access: Access::Read });
            }
        }
        g.add_task(TileOp::Gemm { m: 256, n: 256, k: 256 }, accesses, TaskLabel::tile("loc", 't', t, 0));
    }
    g
}

#[test]
fn gpu_local_work_on_device_moves_no_byte_under_any_schedule() {
    let cfg = RuntimeConfig::default().with_scheduler(SchedulerKind::StaticOwner);
    for topo in xk_topo::fabrics::gallery() {
        let graph = gpu_local_graph(topo.n_gpus() as u64, topo.n_gpus());
        let prep = SimPrep::new(&graph);
        let mut choices = 0;
        for seed in 0..50 {
            let mut rng = RandomController::new(seed);
            let out = SimExecutor::with_prep(&graph, &topo, &cfg, &prep).control(&mut rng).run();
            let what = format!("{} seed {seed}", topo.name());
            assert_eq!(out.tasks_run, graph.len(), "{what}");
            let moved: Vec<_> = out.trace.spans().iter().filter(|s| s.kind.is_transfer()).collect();
            assert!(moved.is_empty(), "{what}: {moved:?}");
            assert_eq!((out.bytes_h2d, out.bytes_p2p, out.bytes_d2h), (0, 0, 0), "{what}");
            choices += rng.log.0.len();
        }
        assert!(choices > 0, "{}: no schedule choice was offered", topo.name());
    }
}
