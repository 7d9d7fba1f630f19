//! Seeded property tests of the runtime: dependency safety, cache protocol
//! invariants, and simulator conservation laws on random task graphs.

use xk_kernels::perfmodel::TileOp;
use xk_lp::{for_each_seed, SplitMix64};
use xk_runtime::task::{Access, TaskAccess};
use xk_runtime::{
    DataInfo, Heuristics, RuntimeConfig, SchedulerKind, SimOutcome, SimSession, TaskGraph,
};
use xk_topo::{dgx1, FabricSpec};
use xk_trace::SpanKind;

/// All simulated runs go through the session front door.
fn simulate(graph: &TaskGraph, topo: &FabricSpec, cfg: &RuntimeConfig) -> SimOutcome {
    SimSession::on(topo).config(cfg.clone()).run(graph).into_outcome()
}

const MB: u64 = 1 << 20;

/// A random but well-formed graph: `n_tiles` tiles, `ops` random accesses.
fn build_graph(n_tiles: usize, ops: &[(usize, usize, u8)]) -> TaskGraph {
    let mut g = TaskGraph::new();
    let tiles: Vec<_> = (0..n_tiles)
        .map(|i| g.add_data(DataInfo::host(4 * MB, i % 2 == 0, format!("t{i}")).with_owner(i % 8)))
        .collect();
    for (idx, &(a, b, mode)) in ops.iter().enumerate() {
        let ha = tiles[a % n_tiles];
        let hb = tiles[b % n_tiles];
        let accesses = match mode % 3 {
            0 => vec![
                TaskAccess { handle: ha, access: Access::Read },
                TaskAccess { handle: hb, access: Access::ReadWrite },
            ],
            1 => vec![TaskAccess { handle: hb, access: Access::Write }],
            _ => {
                if ha == hb {
                    vec![TaskAccess { handle: ha, access: Access::ReadWrite }]
                } else {
                    vec![
                        TaskAccess { handle: ha, access: Access::Read },
                        TaskAccess { handle: hb, access: Access::Read },
                        // Reads need a written tile somewhere to anchor
                        // scheduling; use hb as output too.
                        TaskAccess { handle: tiles[(a + b) % n_tiles], access: Access::ReadWrite },
                    ]
                }
            }
        };
        // Deduplicate handles (a task must not access one tile twice).
        let mut seen = Vec::new();
        let accesses: Vec<_> = accesses
            .into_iter()
            .filter(|acc| {
                if seen.contains(&acc.handle) {
                    false
                } else {
                    seen.push(acc.handle);
                    true
                }
            })
            .collect();
        g.add_task(TileOp::Gemm { m: 256, n: 256, k: 256 }, accesses, format!("op{idx}"));
    }
    g
}

/// `1..max_ops` random `(tile a, tile b, mode)` accesses over `0..span`.
fn random_ops(rng: &mut SplitMix64, span: usize, max_ops: usize) -> Vec<(usize, usize, u8)> {
    (0..rng.usize_in(1, max_ops))
        .map(|_| (rng.usize_in(0, span), rng.usize_in(0, span), rng.next_below(3) as u8))
        .collect()
}

/// Every random graph completes on every scheduler with no deadlock,
/// and per-engine spans never overlap.
#[test]
fn random_graphs_complete_everywhere() {
    let topo = dgx1();
    for_each_seed(24, |rng| {
        let n_tiles = rng.usize_in(1, 12);
        let ops = random_ops(rng, 12, 40);
        let sched = rng.pick(&[
            SchedulerKind::LocalityWorkStealing,
            SchedulerKind::Dmdas,
            SchedulerKind::RoundRobin,
            SchedulerKind::StaticOwner,
        ]);
        let g = build_graph(n_tiles, &ops);
        let n_tasks = g.len();
        let out = simulate(&g, &topo, &RuntimeConfig::default().with_scheduler(sched));
        assert_eq!(out.tasks_run, n_tasks);
        assert!(out.makespan >= 0.0);
        // Kernel spans on one (gpu, lane) never overlap.
        let mut by_lane: std::collections::BTreeMap<(xk_trace::Place, u8), Vec<(f64, f64)>> =
            Default::default();
        for s in out.trace.spans() {
            if s.kind == SpanKind::Kernel {
                by_lane.entry((s.place, s.lane)).or_default().push((s.start, s.end));
            }
        }
        for spans in by_lane.values_mut() {
            spans.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0 + 1e-9, "kernel overlap {w:?}");
            }
        }
    });
}

/// Determinism: identical graphs and configs produce identical traces.
#[test]
fn simulation_is_deterministic() {
    let topo = dgx1();
    let cfg = RuntimeConfig::default();
    for_each_seed(24, |rng| {
        let n_tiles = rng.usize_in(1, 10);
        let ops = random_ops(rng, 10, 30);
        let o1 = simulate(&build_graph(n_tiles, &ops), &topo, &cfg);
        let o2 = simulate(&build_graph(n_tiles, &ops), &topo, &cfg);
        assert_eq!(o1.makespan, o2.makespan);
        assert_eq!(o1.bytes_h2d, o2.bytes_h2d);
        assert_eq!(o1.bytes_p2p, o2.bytes_p2p);
        assert_eq!(o1.trace.len(), o2.trace.len());
    });
}

/// The heuristics can only reduce host traffic, never break completion;
/// and disabling them never *reduces* H2D bytes on read-shared graphs.
#[test]
fn heuristics_never_increase_host_traffic() {
    let topo = dgx1();
    for_each_seed(24, |rng| {
        let n_readers = rng.usize_in(2, 8);
        let tile_mb = 1 + rng.next_below(31);
        let build = || {
            let mut g = TaskGraph::new();
            let shared = g.add_host_tile(tile_mb * MB, true, "A");
            for i in 0..n_readers {
                let c = g.add_data(DataInfo::host(tile_mb * MB, true, format!("C{i}")).with_owner(i));
                g.add_task(
                    TileOp::Gemm { m: 512, n: 512, k: 512 },
                    vec![
                        TaskAccess { handle: shared, access: Access::Read },
                        TaskAccess { handle: c, access: Access::ReadWrite },
                    ],
                    format!("t{i}"),
                );
            }
            g
        };
        let on = simulate(&build(), &topo, &RuntimeConfig::default());
        let off = simulate(
            &build(),
            &topo,
            &RuntimeConfig::default().with_heuristics(Heuristics::none()),
        );
        assert!(on.bytes_h2d <= off.bytes_h2d,
            "heuristics increased H2D: {} > {}", on.bytes_h2d, off.bytes_h2d);
        assert_eq!(on.tasks_run, off.tasks_run);
    });
}

/// Makespan is never below the critical path (conservation law).
#[test]
fn makespan_at_least_critical_path() {
    let topo = dgx1();
    let cfg = RuntimeConfig::default();
    for_each_seed(24, |rng| {
        let n_tiles = rng.usize_in(1, 8);
        let g = build_graph(n_tiles, &random_ops(rng, 8, 25));
        let cp = g.critical_path_seconds(&cfg.gpu_model);
        let out = simulate(&g, &topo, &cfg);
        assert!(out.makespan >= cp - 1e-9, "makespan {} < cp {}", out.makespan, cp);
    });
}

/// Transfer byte accounting matches the trace.
#[test]
fn byte_accounting_matches_trace() {
    let topo = dgx1();
    let mut g = TaskGraph::new();
    let a = g.add_host_tile(8 * MB, true, "A");
    for i in 0..4 {
        let c = g.add_data(DataInfo::host(8 * MB, true, format!("C{i}")).with_owner(i));
        g.add_task(
            TileOp::Gemm { m: 512, n: 512, k: 512 },
            vec![
                TaskAccess { handle: a, access: Access::Read },
                TaskAccess { handle: c, access: Access::ReadWrite },
            ],
            format!("t{i}"),
        );
    }
    g.add_flush(&[a], "flush");
    let out = simulate(&g, &topo, &RuntimeConfig::default());
    let traced = out.trace.bytes_by_kind();
    assert_eq!(
        traced.get(&SpanKind::H2D).copied().unwrap_or(0),
        out.bytes_h2d
    );
    assert_eq!(
        traced.get(&SpanKind::P2P).copied().unwrap_or(0),
        out.bytes_p2p
    );
    assert_eq!(
        traced.get(&SpanKind::D2H).copied().unwrap_or(0),
        out.bytes_d2h
    );
}
