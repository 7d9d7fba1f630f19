//! Schedule-free makespan lower bound: `max(critical path, LP link load,
//! aggregate compute)`.
//!
//! Every quantity here is a *relaxation* — true for any schedule the
//! simulator can produce, under any controller, heuristic set or event
//! ordering — so `bound ≤ makespan` is a free correctness oracle for the
//! DES (asserted across the whole differential matrix by `xk-check`) and
//! the denominator of the optimality gap (`Run::optimality_gap`).
//!
//! The three components:
//!
//! * **Critical path** — longest dependency chain where each kernel costs
//!   its model time, first reads of host-resident tiles cost at least the
//!   cheapest H2D route, and dirty tiles drained by a flush cost at least
//!   the cheapest D2H route after their last writer. Purely combinatorial.
//! * **Link LP** — mandatory host traffic (tiles whose first access is a
//!   read of host data must cross some host uplink once; dirty flush
//!   reads must cross back) scheduled fractionally over GPUs to minimize
//!   the bottleneck engine's busy time. Solved with `xk-lp`'s revised
//!   simplex; rows are the executor's actual [`Machine`] engines (PCIe
//!   in/out per GPU, switch uplinks, inter-socket, NICs) with coefficients
//!   from its duration rule, pitched-copy derating included. A tile's
//!   column depends only on its direction, byte size and pitch (the route
//!   depends on the GPU alone), so variables are per-(tile *class*, GPU)
//!   delivered fractions and engine coefficients carry the class's tile
//!   count. This is the per-tile LP exactly, not a relaxation (route every
//!   tile like its class, or average a tile solution over each class:
//!   engine loads are kept), at a size set by the tile shapes, not by `N`.
//!   Latency is dropped (transfers could be batched), which only lowers
//!   the bound.
//! * **Compute** — each GPU serializes kernels on one model stream, so
//!   `Σ kernel_time / n_gpus` is unbeatable even by a perfect scheduler.
//!
//! What is deliberately *not* in the bound: submission-window ordering
//! (the work-stealing path re-acquires tasks in ways that break a
//! serialization argument) and any claim about which GPU runs what — the
//! LP lets every byte take its cheapest route, every task its free GPU.

use std::collections::BTreeMap;

use xk_lp::{Lp, LpResult};
use xk_topo::{Device, FabricSpec};

use crate::config::RuntimeConfig;
use crate::data::{DataInfo, HandleId};
use crate::graph::TaskGraph;
use crate::machine::Machine;
use crate::task::TaskKind;

/// A makespan lower bound, broken into its component relaxations.
///
/// `total` is the binding value (`max` of the components); the parts are
/// kept so reports can say *why* a run cannot be faster — link-capacity
/// bound problems and dependency-chain bound problems call for different
/// optimizations.
#[derive(Clone, Debug, PartialEq)]
pub struct MakespanBound {
    /// `max(critical_path, link_lp, compute)` — the usable bound, seconds.
    pub total: f64,
    /// Longest dependency chain with mandatory-transfer floors, seconds.
    pub critical_path: f64,
    /// LP bottleneck-engine optimum over mandatory host traffic, seconds.
    pub link_lp: f64,
    /// Aggregate kernel time over all GPUs, seconds.
    pub compute: f64,
    /// Simplex pivots spent on the link LP (0 when no mandatory traffic).
    pub lp_iterations: usize,
}

impl MakespanBound {
    /// Relative optimality gap of an achieved `makespan` against this
    /// bound: `makespan / total − 1` (`0` = provably optimal schedule).
    /// Returns `None` for empty workloads with a zero bound.
    pub(crate) fn gap(&self, makespan: f64) -> Option<f64> {
        (self.total > 0.0).then(|| makespan / self.total - 1.0)
    }

    /// True when `makespan` respects the bound within `rel_tol`
    /// (`makespan ≥ total · (1 − rel_tol)`). The differential harness
    /// uses `1e-9`, matching the LP solver's own tolerance.
    pub fn admits(&self, makespan: f64, rel_tol: f64) -> bool {
        makespan >= self.total * (1.0 - rel_tol)
    }
}

/// Computes the schedule-free lower bound on the makespan of `graph` on
/// `topo` under `cfg`'s performance model.
///
/// The result only depends on the graph, the fabric and the kernel model
/// — never on heuristics, scheduler kind or controller decisions — so one
/// bound serves every explored schedule of a scenario.
pub fn makespan_lower_bound(
    graph: &TaskGraph,
    topo: &FabricSpec,
    cfg: &RuntimeConfig,
) -> MakespanBound {
    let n = topo.n_gpus();
    let machine = Machine::new(topo);
    let data = graph.data();
    let n_handles = data.len();

    // ---- Mandatory transfers -------------------------------------------
    // H2D: a tile whose *first* access (in submission order, which is
    // dependency order) reads host-initial data must be delivered from the
    // host at least once — no schedule can conjure it from a device.
    // D2H: a tile a flush reads while dirty (written on device, or
    // device-initial) must be written back at least once.
    let mut first_touch_reads: Vec<Option<bool>> = vec![None; n_handles];
    let mut last_writer: Vec<Option<usize>> = vec![None; n_handles];
    let mut flushed: Vec<bool> = vec![false; n_handles];
    let mut d2h_mandatory: Vec<bool> = vec![false; n_handles];

    // Critical-path state, filled in the same submission-order pass.
    let kernel_seconds = graph.kernel_seconds(&cfg.gpu_model);
    let mut finish = vec![0.0f64; graph.len()];
    let mut flush_tail = 0.0f64;
    // Cheapest H2D/D2H per handle, lazily materialized.
    let mut h2d_floor: Vec<f64> = vec![f64::NAN; n_handles];
    let mut d2h_floor: Vec<f64> = vec![f64::NAN; n_handles];
    let floor = |cache: &mut Vec<f64>, h: usize, is_d2h: bool| -> f64 {
        if cache[h].is_nan() {
            let info = data.info(HandleId(h));
            let mut best = f64::INFINITY;
            for g in 0..n {
                let (src, dst) = host_route(is_d2h, g);
                best = best.min(machine.transfer_seconds(src, dst, info.bytes, info.pitched));
            }
            cache[h] = best;
        }
        cache[h]
    };

    for (t, task) in graph.tasks().iter().enumerate() {
        let mut ready = 0.0f64;
        for p in graph.predecessors(crate::task::TaskId(t)) {
            ready = ready.max(finish[p.0]);
        }
        match task.kind {
            TaskKind::Kernel => {
                for a in task.accesses.iter() {
                    let h = a.handle.0;
                    if first_touch_reads[h].is_none() {
                        first_touch_reads[h] = Some(a.access.reads());
                    }
                    if a.access.reads()
                        && last_writer[h].is_none()
                        && data.info(a.handle).initial.is_host()
                    {
                        ready = ready.max(floor(&mut h2d_floor, h, false));
                    }
                }
                finish[t] = ready + kernel_seconds[t];
                for h in task.written_handles() {
                    last_writer[h.0] = Some(t);
                    flushed[h.0] = false;
                }
            }
            TaskKind::Flush => {
                // The flush itself completes at `ready`; the write-backs it
                // (or eager flushing) forces end at least one cheapest-D2H
                // after the last writer, bounding the *makespan* rather
                // than the flush's successors (eager mode drains early).
                finish[t] = ready;
                for h in task.read_handles() {
                    let hi = h.0;
                    if flushed[hi] {
                        continue;
                    }
                    let dirty_since = match (last_writer[hi], data.info(h).initial) {
                        (Some(w), _) => Some(finish[w]),
                        (None, Device::Gpu(_)) => Some(0.0),
                        (None, _) => None,
                    };
                    if let Some(since) = dirty_since {
                        d2h_mandatory[hi] = true;
                        flushed[hi] = true;
                        flush_tail = flush_tail.max(since + floor(&mut d2h_floor, hi, true));
                    }
                }
            }
        }
    }
    let critical_path = finish
        .iter()
        .fold(flush_tail, |acc, &f| acc.max(f));

    // ---- Aggregate compute ---------------------------------------------
    // A validated fabric has at least one GPU.
    let compute = graph
        .tasks()
        .iter()
        .zip(&kernel_seconds)
        .filter(|(t, _)| t.op.is_some())
        .map(|(_, &secs)| secs)
        .sum::<f64>()
        / n as f64;

    // ---- Link LP --------------------------------------------------------
    let info = |h: usize| data.info(HandleId(h));
    let h2d = (0..n_handles)
        .filter(|&h| first_touch_reads[h] == Some(true) && info(h).initial.is_host())
        .map(|h| (false, info(h)));
    let d2h = (0..n_handles).filter(|&h| d2h_mandatory[h]).map(|h| (true, info(h)));
    let (link_lp, lp_iterations) = link_lp_bound(&machine, h2d.chain(d2h));

    let total = critical_path.max(compute).max(link_lp);
    MakespanBound { total, critical_path, link_lp, compute, lp_iterations }
}

/// `(src, dst)` of a transfer between the host and GPU `g`: H2D, or D2H
/// when `is_d2h`.
fn host_route(is_d2h: bool, g: usize) -> (Device, Device) {
    if is_d2h {
        (Device::Gpu(g), Device::Host)
    } else {
        (Device::Host, Device::Gpu(g))
    }
}

/// Adds `busy ≤ M` for every engine that carries traffic, `M` being the
/// last column. Row order fixes the simplex's pivot path, so it stays what
/// it was before the rows were indexed by [`Machine`] ids: every
/// `pcie_in`, every `pcie_out`, then uplinks, inter-socket and NICs (the
/// kernel and brick rows are empty for host traffic).
fn bottleneck_rows(machine: &Machine, lp: &mut Lp, mut rows: Vec<Vec<f64>>) {
    let n = machine.topo().n_gpus();
    let pcie_in = (0..n).map(|g| machine.pcie_in(g));
    let pcie_out = (0..n).map(|g| machine.pcie_out(g));
    for e in pcie_in.chain(pcie_out).chain(machine.fabric_engines()) {
        let mut row = std::mem::take(&mut rows[e.0]);
        if row.iter().any(|&c| c != 0.0) {
            *row.last_mut().expect("M column") = -1.0;
            lp.le(row, 0.0);
        }
    }
}

/// Builds and solves the bottleneck-engine LP over the mandatory `(is D2H,
/// tile)` transfers, one column per (tile class, GPU): minimize `M` with
/// every class fully delivered and every shared engine busy at most `M`.
fn link_lp_bound<'a>(
    machine: &Machine,
    transfers: impl Iterator<Item = (bool, &'a DataInfo)>,
) -> (f64, usize) {
    let n = machine.topo().n_gpus();
    // (is D2H, bytes, pitched) → number of tiles; ordered, so the LP and
    // its pivot count repeat from run to run.
    let mut classes = BTreeMap::new();
    for (is_d2h, tile) in transfers {
        *classes.entry((is_d2h, tile.bytes, tile.pitched)).or_insert(0.0) += 1.0;
    }
    if classes.is_empty() {
        return (0.0, 0);
    }
    let n_vars = classes.len() * n + 1;

    // Variables are delivered *fractions* of each class (well-scaled into
    // [0, 1]); engine-row coefficients are whole-class seconds.
    let mut objective = vec![0.0; n_vars];
    objective[n_vars - 1] = 1.0;
    let mut lp = Lp::minimize(objective);
    let mut engine_rows = vec![vec![0.0; n_vars]; machine.n_engines()];
    for (c, (&(is_d2h, bytes, pitched), &tiles)) in classes.iter().enumerate() {
        let mut row = vec![0.0; n_vars];
        for g in 0..n {
            row[c * n + g] = 1.0;
            // Latency is dropped: transfers could be batched.
            let (src, dst) = host_route(is_d2h, g);
            let secs = tiles * machine.wire_seconds(src, dst, bytes, pitched);
            for e in machine.transfer_engines(src, dst) {
                engine_rows[e.0][c * n + g] += secs;
            }
        }
        lp.ge(row, 1.0);
    }
    bottleneck_rows(machine, &mut lp, engine_rows);

    match xk_lp::solve(&lp) {
        LpResult::Optimal(s) => (s.value.max(0.0), s.iterations),
        // The LP is feasible (route everything through GPU 0) and bounded
        // (M ≥ 0 minimized); anything else is a solver bug — fall back to
        // the trivial bound rather than poisoning the oracle.
        other => {
            debug_assert!(false, "link LP not optimal: {other:?}");
            (0.0, 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::sim_exec::SimExecutor;
    use crate::task::{Access, TaskAccess};
    use xk_kernels::perfmodel::TileOp;
    use xk_lp::SplitMix64;
    use xk_topo::fabrics::{dgx2, gallery, pcie_box};

    const MB32: u64 = 32 << 20;

    /// The per-tile formulation the class LP replaced — one column per
    /// (tile, GPU), one delivery row per tile — kept as the reference the
    /// differential test compares against.
    fn per_tile_link_lp(topo: &FabricSpec, transfers: &[(bool, &DataInfo)]) -> f64 {
        let n = topo.n_gpus();
        if transfers.is_empty() {
            return 0.0;
        }
        let machine = Machine::new(topo);
        let n_vars = transfers.len() * n + 1;
        let mut objective = vec![0.0; n_vars];
        objective[n_vars - 1] = 1.0;
        let mut lp = Lp::minimize(objective);
        let mut engine_rows = vec![vec![0.0; n_vars]; machine.n_engines()];
        for (t, &(is_d2h, info)) in transfers.iter().enumerate() {
            let mut row = vec![0.0; n_vars];
            for g in 0..n {
                row[t * n + g] = 1.0;
                let (src, dst) = host_route(is_d2h, g);
                let secs = machine.wire_seconds(src, dst, info.bytes, info.pitched);
                for e in machine.transfer_engines(src, dst) {
                    engine_rows[e.0][t * n + g] += secs;
                }
            }
            lp.ge(row, 1.0);
        }
        bottleneck_rows(&machine, &mut lp, engine_rows);
        xk_lp::solve(&lp).optimal().expect("reference link LP is feasible and bounded").value
    }

    /// A seeded graph of `tiles` independent tiles, one kernel each, then a
    /// flush of everything; returns it with the mandatory `(is D2H, handle)`
    /// transfers its construction implies, H2D first. `sizes` is the byte
    /// palette.
    fn mixed_graph(
        rng: &mut SplitMix64,
        tiles: usize,
        n_gpus: usize,
        sizes: &[u64],
    ) -> (TaskGraph, Vec<(bool, HandleId)>) {
        let mut g = TaskGraph::new();
        let (mut handles, mut h2d, mut d2h) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..tiles {
            let bytes = sizes[rng.next_below(sizes.len() as u64) as usize];
            let on_host = rng.next_below(3) > 0;
            let h = if on_host {
                g.add_host_tile(bytes, rng.next_below(2) == 0, format!("T{i}"))
            } else {
                let gpu = rng.next_below(n_gpus as u64) as usize;
                g.add_data(DataInfo::on_gpu(bytes, gpu, format!("T{i}")))
            };
            let access =
                [Access::Read, Access::ReadWrite, Access::Write][rng.next_below(3) as usize];
            g.add_task(gemm(), vec![TaskAccess { handle: h, access }], format!("t{i}"));
            if on_host && access.reads() {
                h2d.push((false, h));
            }
            if !on_host || access.writes() {
                d2h.push((true, h));
            }
            handles.push(h);
        }
        g.add_flush(&handles, "flush");
        h2d.append(&mut d2h);
        (g, h2d)
    }

    /// Resolves `(is D2H, handle)` pairs to the tiles the LP builders take.
    fn tiles_of<'a>(g: &'a TaskGraph, transfers: &[(bool, HandleId)]) -> Vec<(bool, &'a DataInfo)> {
        transfers.iter().map(|&(is_d2h, h)| (is_d2h, g.data().info(h))).collect()
    }

    /// Gallery fabrics plus 1-, 2- and 4-GPU machines: 1/2/4/8/16 GPUs.
    fn fabrics() -> Vec<FabricSpec> {
        let mut all = gallery();
        all.extend([dgx2(1), dgx2(2), dgx2(4), pcie_box(1), pcie_box(2)]);
        all
    }

    fn gemm() -> TileOp {
        TileOp::Gemm { m: 2048, n: 2048, k: 2048 }
    }

    fn chain_graph(len: usize) -> TaskGraph {
        let mut g = TaskGraph::new();
        let c = g.add_host_tile(MB32, true, "C");
        for i in 0..len {
            g.add_task(
                gemm(),
                vec![TaskAccess { handle: c, access: Access::ReadWrite }],
                format!("t{i}"),
            );
        }
        g
    }

    fn fan_graph(width: usize) -> TaskGraph {
        let mut g = TaskGraph::new();
        let shared = g.add_host_tile(MB32, true, "A");
        let mut handles = vec![shared];
        for i in 0..width {
            let c = g.add_host_tile(MB32, true, format!("C{i}"));
            handles.push(c);
            g.add_task(
                gemm(),
                vec![
                    TaskAccess { handle: shared, access: Access::Read },
                    TaskAccess { handle: c, access: Access::ReadWrite },
                ],
                format!("t{i}"),
            );
        }
        g.add_flush(&handles, "flush");
        g
    }

    #[test]
    fn bound_is_positive_and_below_makespan() {
        let topo = xk_topo::dgx1();
        let cfg = RuntimeConfig::xkblas();
        for g in [chain_graph(6), fan_graph(12)] {
            let bound = makespan_lower_bound(&g, &topo, &cfg);
            assert!(bound.total > 0.0);
            let out = SimExecutor::new(&g, &topo, &cfg).run();
            assert!(
                bound.admits(out.makespan, 1e-9),
                "bound {} > makespan {}",
                bound.total,
                out.makespan,
            );
            assert!(bound.gap(out.makespan).unwrap() >= -1e-9);
        }
    }

    #[test]
    fn chain_bound_is_dominated_by_the_critical_path() {
        let topo = xk_topo::dgx1();
        let cfg = RuntimeConfig::xkblas();
        let g = chain_graph(8);
        let b = makespan_lower_bound(&g, &topo, &cfg);
        assert_eq!(b.total, b.critical_path);
        // 8 dependent kernels: at least 8 kernel times end to end.
        assert!(b.critical_path >= 8.0 * cfg.gpu_model.kernel_time(gemm()));
        // One GPU's worth of compute spread over 8: strictly smaller.
        assert!(b.compute < b.critical_path);
    }

    #[test]
    fn pure_write_first_tiles_need_no_h2d() {
        // First access writes: host data is never read, so the LP sees no
        // mandatory H2D for it.
        let mut g = TaskGraph::new();
        let c = g.add_host_tile(MB32, true, "C");
        g.add_task(gemm(), vec![TaskAccess { handle: c, access: Access::Write }], "w");
        g.add_task(gemm(), vec![TaskAccess { handle: c, access: Access::Read }], "r");
        let topo = xk_topo::dgx1();
        let cfg = RuntimeConfig::xkblas();
        let b = makespan_lower_bound(&g, &topo, &cfg);
        assert_eq!(b.link_lp, 0.0);
        assert_eq!(b.lp_iterations, 0);
        // Two dependent kernels still chain.
        assert!(b.critical_path >= 2.0 * cfg.gpu_model.kernel_time(gemm()));
    }

    #[test]
    fn device_initial_dirty_tiles_force_a_writeback_bound() {
        let mut g = TaskGraph::new();
        let c = g.add_data(DataInfo::on_gpu(MB32, 0, "C"));
        g.add_task(gemm(), vec![TaskAccess { handle: c, access: Access::Read }], "r");
        g.add_flush(&[c], "flush");
        let topo = xk_topo::dgx1();
        let cfg = RuntimeConfig::xkblas();
        let b = makespan_lower_bound(&g, &topo, &cfg);
        assert!(b.link_lp > 0.0, "flush of a dirty device tile moves bytes");
        let out = SimExecutor::new(&g, &topo, &cfg).run();
        assert!(b.admits(out.makespan, 1e-9));
    }

    #[test]
    fn bound_is_schedule_independent() {
        let topo = xk_topo::dgx1();
        let g = fan_graph(8);
        let a = makespan_lower_bound(&g, &topo, &RuntimeConfig::xkblas());
        let b = makespan_lower_bound(
            &g,
            &topo,
            &RuntimeConfig::xkblas().with_heuristics(crate::config::Heuristics::none()),
        );
        // Heuristics do not enter the bound (same model, same graph).
        assert_eq!(a, b);
    }

    #[test]
    fn class_lp_matches_the_per_tile_lp() {
        let cfg = RuntimeConfig::xkblas();
        // Down to 64 KiB: transfer seconds far closer to xk-lp's absolute
        // 1e-9 tolerance than that are lost to it in either formulation.
        let sizes = [8 << 20, MB32, 2 << 20, 12_345_678, 64 << 10];
        let mut rng = SplitMix64::new(0x7153_c1a5);
        for topo in fabrics() {
            for round in 0..6 {
                let tiles = 1 + rng.next_below(40) as usize;
                let (g, transfers) = mixed_graph(&mut rng, tiles, topo.n_gpus(), &sizes);
                let transfers = tiles_of(&g, &transfers);
                let b = makespan_lower_bound(&g, &topo, &cfg);
                // The transfers the construction implies are the ones the bound derives.
                assert_eq!(
                    link_lp_bound(&Machine::new(&topo), transfers.iter().copied()),
                    (b.link_lp, b.lp_iterations)
                );
                let want = per_tile_link_lp(&topo, &transfers);
                assert!(
                    (b.link_lp - want).abs() <= 1e-9 * want,
                    "{} round {round}: class LP {} vs per-tile LP {want}",
                    topo.name(),
                    b.link_lp,
                );
            }
        }
    }

    #[test]
    fn class_lp_degenerate_cases() {
        let cfg = RuntimeConfig::xkblas();
        for topo in fabrics() {
            // No mandatory traffic at all.
            assert_eq!(link_lp_bound(&Machine::new(&topo), std::iter::empty()), (0.0, 0));
            // A single tile, and one class per tile (all sizes distinct).
            for tiles in [1usize, 7] {
                let sizes: Vec<u64> = (1..=tiles as u64).map(|k| k << 20).collect();
                let mut g = TaskGraph::new();
                let mut h2d = Vec::new();
                for (i, &bytes) in sizes.iter().enumerate() {
                    let h = g.add_host_tile(bytes, false, format!("T{i}"));
                    g.add_task(
                        gemm(),
                        vec![TaskAccess { handle: h, access: Access::Read }],
                        format!("t{i}"),
                    );
                    h2d.push((false, h));
                }
                let b = makespan_lower_bound(&g, &topo, &cfg);
                let want = per_tile_link_lp(&topo, &tiles_of(&g, &h2d));
                assert!(
                    b.link_lp > 0.0 && (b.link_lp - want).abs() <= 1e-9 * want,
                    "{} {tiles} tile(s): class LP {} vs per-tile LP {want}",
                    topo.name(),
                    b.link_lp,
                );
            }
        }
    }

    #[test]
    fn mandatory_traffic_always_yields_a_solved_lp() {
        // The non-Optimal fallback is (0.0, 0) behind a debug_assert that
        // release test runs compile out: pin that it is never taken.
        let cfg = RuntimeConfig::xkblas();
        for topo in gallery() {
            for g in [chain_graph(3), fan_graph(12)] {
                let b = makespan_lower_bound(&g, &topo, &cfg);
                assert!(
                    b.link_lp > 0.0 && b.lp_iterations > 0,
                    "{}: link LP fell back to the trivial bound: {b:?}",
                    topo.name(),
                );
            }
        }
    }
}
