//! Shapley-style per-link value attribution: how much of a scenario's
//! achieved throughput does each NVLink edge buy?
//!
//! The paper's Fig. 2 bandwidth matrix makes the fabric's *structure*
//! visible; this module makes its *value* visible. Treat every NVLink
//! edge of the fabric as a player in a cooperative game whose
//! characteristic function `v(S)` is the throughput the DES achieves when
//! only the edges in coalition `S` keep their NVLink class and every
//! other edge is downgraded to the PCIe-P2P fallback (what the hardware
//! does when peer access is disabled). The Shapley value of an edge is
//! then its marginal GFLOP/s contribution averaged over orders of
//! addition — a principled "this 2×NVLink is worth 31% of the speedup"
//! number to rank next to the `hot_links` occupancy report.
//!
//! Exact Shapley needs `2^p` coalition evaluations; for small fabrics
//! (`p ≤ 12` edges) we do exactly that. Larger fabrics use permutation
//! sampling with the crate-local [`SplitMix64`] stream, so results are a
//! pure function of `(graph, fabric, config, samples, seed)` — no clocks,
//! no global RNG. Per-permutation telescoping makes the attributions sum
//! to `v(full) − v(none)` *exactly* even under sampling.

use std::collections::HashMap;

use xk_lp::SplitMix64;
use xk_topo::{bw, FabricSpec, LinkClass, LinkSpec};

use crate::config::RuntimeConfig;
use crate::graph::TaskGraph;
use crate::sim_exec::{SimExecutor, SimPrep};

/// Exhaustive coalition enumeration is used up to this many NVLink edges
/// (`2^12 = 4096` DES runs); beyond it, permutation sampling kicks in.
pub(crate) const EXACT_ATTRIBUTION_EDGES: usize = 12;

/// Hard cap on the number of players: fabrics with more NVLink edges than
/// bits in the coalition bitmask keep only the first 64 (in `(a, b)`
/// lexicographic order) and lump the rest into the always-on background.
pub(crate) const MAX_ATTRIBUTION_EDGES: usize = 64;

/// Shapley value of one NVLink edge.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkValue {
    /// Lower GPU index of the edge.
    pub a: usize,
    /// Higher GPU index of the edge.
    pub b: usize,
    /// Link class of the edge in the undowngraded fabric.
    pub class: LinkClass,
    /// Shapley value in GFLOP/s: the edge's average marginal contribution
    /// to the achieved throughput.
    pub value: f64,
    /// `value` as a fraction of `v(full) − v(none)` (the total throughput
    /// the NVLink mesh adds over an all-PCIe fabric). Zero when the mesh
    /// adds nothing.
    pub share: f64,
}

/// Full attribution report for one scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Attribution {
    /// Achieved GFLOP/s with every NVLink edge present.
    pub full_value: f64,
    /// Achieved GFLOP/s with every NVLink edge downgraded to PCIe.
    pub baseline_value: f64,
    /// Per-edge Shapley values, sorted by descending `value` (ties by
    /// `(a, b)`). Their sum equals `full_value − baseline_value` up to
    /// floating-point roundoff.
    pub links: Vec<LinkValue>,
    /// Distinct coalitions the DES actually evaluated (cache hits and
    /// repeated prefixes excluded) — the cost knob to watch.
    pub evaluations: usize,
    /// True when the exhaustive formula was used; false under sampling.
    pub exact: bool,
}

impl Attribution {
    /// Throughput the NVLink mesh adds over the all-PCIe baseline.
    pub fn mesh_value(&self) -> f64 {
        self.full_value - self.baseline_value
    }
}

/// Computes the per-NVLink-edge Shapley attribution of the throughput the
/// DES achieves for `graph` on `topo` under `cfg`.
///
/// `samples` requests that many sampled permutations; pass `0` to let the
/// module pick (exhaustive for `p ≤` `EXACT_ATTRIBUTION_EDGES`, else
/// `8·p` permutations). `seed` feeds the [`SplitMix64`] stream and only
/// matters in the sampled regime. A fabric with no NVLink edges yields an
/// empty `links` list with `full_value == baseline_value`.
pub fn link_attribution(
    graph: &TaskGraph,
    topo: &FabricSpec,
    cfg: &RuntimeConfig,
    samples: usize,
    seed: u64,
) -> Attribution {
    let mut edges: Vec<(usize, usize, LinkClass)> = topo.nvlink_edges();
    edges.truncate(MAX_ATTRIBUTION_EDGES);
    let p = edges.len();
    let flops = graph.total_flops();
    let prep = SimPrep::new(graph);

    // v(S): throughput with exactly the coalition's edges kept.
    let full_mask: u64 = if p == 64 { u64::MAX } else { (1u64 << p) - 1 };
    let mut cache: HashMap<u64, f64> = HashMap::new();
    let mut evaluations = 0usize;
    let mut value_of = |mask: u64, evals: &mut usize| -> f64 {
        if let Some(&v) = cache.get(&mask) {
            return v;
        }
        let fabric = downgrade(topo, &edges, mask);
        let out = SimExecutor::with_prep(graph, &fabric, cfg, &prep).run();
        let v = if out.makespan > 0.0 {
            flops / out.makespan / 1e9
        } else {
            0.0
        };
        cache.insert(mask, v);
        *evals += 1;
        v
    };

    let full_value = value_of(full_mask, &mut evaluations);
    let baseline_value = value_of(0, &mut evaluations);

    let mut phi = vec![0.0f64; p];
    let exact = p > 0 && samples == 0 && p <= EXACT_ATTRIBUTION_EDGES;
    if exact {
        // φ_i = Σ_{S ∌ i} |S|!·(p−1−|S|)!/p! · (v(S ∪ {i}) − v(S)).
        let weights = subset_weights(p);
        for mask in 0..(1u64 << p) {
            let s = mask.count_ones() as usize;
            if s == p {
                continue;
            }
            let base = value_of(mask, &mut evaluations);
            for (i, phi_i) in phi.iter_mut().enumerate() {
                if mask & (1 << i) == 0 {
                    let with = value_of(mask | (1 << i), &mut evaluations);
                    *phi_i += weights[s] * (with - base);
                }
            }
        }
    } else if p > 0 {
        let rounds = if samples == 0 { 8 * p } else { samples };
        let mut rng = SplitMix64::new(seed);
        let mut order: Vec<usize> = (0..p).collect();
        for _ in 0..rounds {
            rng.shuffle(&mut order);
            let mut mask = 0u64;
            let mut prev = baseline_value;
            for &i in &order {
                mask |= 1 << i;
                let next = value_of(mask, &mut evaluations);
                phi[i] += next - prev;
                prev = next;
            }
        }
        for v in &mut phi {
            *v /= rounds as f64;
        }
    }

    let mesh = full_value - baseline_value;
    let mut links: Vec<LinkValue> = edges
        .iter()
        .zip(&phi)
        .map(|(&(a, b, class), &value)| LinkValue {
            a,
            b,
            class,
            value,
            share: if mesh.abs() > 0.0 { value / mesh } else { 0.0 },
        })
        .collect();
    links.sort_by(|x, y| {
        y.value
            .partial_cmp(&x.value)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
    });

    Attribution { full_value, baseline_value, links, evaluations, exact }
}

/// The fabric with every player edge *outside* `mask`'s coalition
/// downgraded to the PCIe peer-to-peer fallback.
fn downgrade(topo: &FabricSpec, edges: &[(usize, usize, LinkClass)], mask: u64) -> FabricSpec {
    let dropped: Vec<(usize, usize)> = edges
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) == 0)
        .map(|(_, &(a, b, _))| (a, b))
        .collect();
    if dropped.is_empty() {
        return topo.clone();
    }
    topo.map_gpu_links(format!("{}~coalition", topo.name()), |a, b, spec| {
        if dropped.contains(&(a, b)) {
            LinkSpec::new(LinkClass::Pcie, bw::PCIE_P2P)
        } else {
            *spec
        }
    })
    .expect("downgrading NVLink edges keeps the fabric valid")
}

/// Shapley subset weights `w(s) = s!·(p−1−s)!/p!` for `s = 0..p`,
/// computed with ratio recurrences to stay exact in f64 for small `p`.
fn subset_weights(p: usize) -> Vec<f64> {
    let mut w = vec![0.0; p];
    // w(0) = (p-1)!/p! = 1/p; w(s+1) = w(s) · (s+1)/(p−1−s).
    let mut cur = 1.0 / p as f64;
    for (s, ws) in w.iter_mut().enumerate() {
        *ws = cur;
        if s + 1 < p {
            cur *= (s + 1) as f64 / (p - 1 - s) as f64;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Access, TaskAccess};
    use xk_kernels::perfmodel::TileOp;
    use xk_topo::FabricBuilder;

    /// A 4-GPU NVLink ring (two 2× and two 1× edges): four players, small
    /// enough for the exhaustive formula.
    fn quad() -> FabricSpec {
        FabricBuilder::named("quad")
            .gpus(4)
            .links(&[(0, 1), (2, 3)], LinkClass::NvLink2, bw::NVLINK2)
            .links(&[(0, 2), (1, 3)], LinkClass::NvLink1, bw::NVLINK1)
            .build()
    }

    /// A transfer-heavy graph: GPUs must exchange tiles, so NVLink edges
    /// carry real value.
    fn exchange_graph(n_gpus: usize) -> TaskGraph {
        let mut g = TaskGraph::new();
        let tiles: Vec<_> = (0..n_gpus)
            .map(|i| g.add_host_tile(32 << 20, true, format!("T{i}")))
            .collect();
        let op = TileOp::Gemm { m: 2048, n: 2048, k: 2048 };
        for round in 0..2 {
            for (i, &t) in tiles.iter().enumerate() {
                let peer = tiles[(i + 1) % n_gpus];
                g.add_task(
                    op,
                    vec![
                        TaskAccess { handle: peer, access: Access::Read },
                        TaskAccess { handle: t, access: Access::ReadWrite },
                    ],
                    format!("x{round}.{i}"),
                );
            }
        }
        g.add_flush(&tiles, "flush");
        g
    }

    #[test]
    fn exhaustive_attribution_is_efficient() {
        let topo = quad();
        let cfg = RuntimeConfig::xkblas();
        let g = exchange_graph(4);
        let attr = link_attribution(&g, &topo, &cfg, 0, 1);
        assert!(attr.exact);
        assert!(!attr.links.is_empty());
        let sum: f64 = attr.links.iter().map(|l| l.value).sum();
        let mesh = attr.mesh_value();
        assert!(
            (sum - mesh).abs() <= 1e-9 * mesh.abs().max(1.0),
            "Shapley efficiency violated: {sum} vs {mesh}",
        );
    }

    #[test]
    fn sampled_attribution_telescopes_to_the_mesh_value() {
        let topo = quad();
        let cfg = RuntimeConfig::xkblas();
        let g = exchange_graph(4);
        let attr = link_attribution(&g, &topo, &cfg, 5, 42);
        assert!(!attr.exact);
        let sum: f64 = attr.links.iter().map(|l| l.value).sum();
        let mesh = attr.mesh_value();
        assert!((sum - mesh).abs() <= 1e-9 * mesh.abs().max(1.0));
    }

    #[test]
    fn sampled_attribution_is_deterministic_in_the_seed() {
        let topo = quad();
        let cfg = RuntimeConfig::xkblas();
        let g = exchange_graph(4);
        let a = link_attribution(&g, &topo, &cfg, 3, 7);
        let b = link_attribution(&g, &topo, &cfg, 3, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn no_nvlink_fabric_attributes_nothing() {
        // A single-GPU fabric has no GPU↔GPU edges at all.
        let topo = FabricBuilder::named("uno").gpus(1).build();
        let cfg = RuntimeConfig::xkblas();
        let g = exchange_graph(1);
        let attr = link_attribution(&g, &topo, &cfg, 0, 0);
        assert!(attr.links.is_empty());
        assert_eq!(attr.full_value, attr.baseline_value);
    }

    #[test]
    fn subset_weights_sum_over_subsets_to_one() {
        for p in 1..=8usize {
            let w = subset_weights(p);
            // Σ_s C(p−1, s)·w(s) = 1 (probability a fixed player enters at
            // each position sums over positions).
            let mut total = 0.0;
            let mut binom = 1.0;
            for (s, &ws) in w.iter().enumerate() {
                total += binom * ws;
                binom *= (p - 1 - s) as f64 / (s + 1) as f64;
            }
            assert!((total - 1.0).abs() < 1e-12, "p={p}: {total}");
        }
    }
}
