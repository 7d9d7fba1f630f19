//! Fabric surgery for the metamorphic oracles: sub-machines, GPU-id
//! permutations, uniform bandwidth scaling and an automorphism search, all
//! built through [`FabricSpec::from_parts`] so the result revalidates and
//! the extension fields (node map, NIC link, NVSwitch tier) survive.

use xk_topo::{FabricSpec, LinkSpec};

/// Socket table per switch of `t` (switch index -> socket), reconstructed
/// from the per-GPU views.
fn switch_sockets(t: &FabricSpec) -> Vec<usize> {
    let mut out = vec![0usize; t.n_switches()];
    for g in 0..t.n_gpus() {
        out[t.switch_of(g)] = t.socket_of(g);
    }
    out
}

/// The first `n` GPUs of `t` as their own machine — the paper's scaling
/// experiments run 1..=8 GPUs of the DGX-1 exactly this way (CUDA device
/// masking keeps physical ids). Node and tier structure restricts with the
/// GPU set: a sub-machine contained in node 0 is single-node again.
pub fn subtopo(t: &FabricSpec, n: usize) -> FabricSpec {
    assert!(n >= 1 && n <= t.n_gpus(), "bad GPU count {n}");
    let mut gg = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            gg.push(*t.gpu_link(i, j));
        }
    }
    let host: Vec<LinkSpec> = (0..n).map(|g| *t.host_link(g)).collect();
    let switches: Vec<usize> = (0..n).map(|g| t.switch_of(g)).collect();
    let nodes: Vec<usize> = (0..n).map(|g| t.node_of(g)).collect();
    let n_nodes = nodes.iter().copied().max().unwrap_or(0) + 1;
    FabricSpec::from_parts(
        format!("{}-{n}gpu", t.name()),
        n,
        gg,
        host,
        switches,
        switch_sockets(t),
        nodes,
        n_nodes,
        if n_nodes > 1 { t.inter_node().copied() } else { None },
        t.switch_tier().copied(),
    )
    .expect("subtopo of a valid fabric revalidates")
}

/// Relabels GPUs: new GPU `i` is `t`'s GPU `perm[i]`. The machine is
/// physically unchanged — only the ids move — which is exactly what the
/// permutation metamorphic property wants to vary. The tests' oracle for
/// [`automorphisms`].
#[cfg(test)]
pub(crate) fn permuted(t: &FabricSpec, perm: &[usize]) -> FabricSpec {
    let n = t.n_gpus();
    assert_eq!(perm.len(), n, "permutation arity");
    let mut seen = vec![false; n];
    for &p in perm {
        assert!(p < n && !seen[p], "not a permutation: {perm:?}");
        seen[p] = true;
    }
    let mut gg = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            gg.push(*t.gpu_link(perm[i], perm[j]));
        }
    }
    let host: Vec<LinkSpec> = perm.iter().map(|&p| *t.host_link(p)).collect();
    let switches: Vec<usize> = perm.iter().map(|&p| t.switch_of(p)).collect();
    let nodes: Vec<usize> = perm.iter().map(|&p| t.node_of(p)).collect();
    FabricSpec::from_parts(
        format!("{}-perm", t.name()),
        n,
        gg,
        host,
        switches,
        switch_sockets(t),
        nodes,
        t.n_nodes(),
        t.inter_node().copied(),
        t.switch_tier().copied(),
    )
    .expect("permutation of a valid fabric revalidates")
}

/// Uniformly scales every link bandwidth by `k`; `zero_latency` also drops
/// every latency to 0, which makes each transfer time *exactly* `bytes /
/// (k * bw)` — the form the 1/k span-scaling metamorphic property needs to
/// hold bit-for-bit rather than approximately.
pub fn scaled_bandwidth(t: &FabricSpec, k: f64, zero_latency: bool) -> FabricSpec {
    assert!(k.is_finite() && k > 0.0, "bad scale {k}");
    let n = t.n_gpus();
    let scale = |s: &LinkSpec| LinkSpec {
        class: s.class,
        bandwidth: s.bandwidth * k,
        latency: if zero_latency { 0.0 } else { s.latency },
    };
    let mut gg = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            gg.push(scale(t.gpu_link(i, j)));
        }
    }
    let host: Vec<LinkSpec> = (0..n).map(|g| scale(t.host_link(g))).collect();
    let switches: Vec<usize> = (0..n).map(|g| t.switch_of(g)).collect();
    let nodes: Vec<usize> = (0..n).map(|g| t.node_of(g)).collect();
    FabricSpec::from_parts(
        format!("{}-x{k}", t.name()),
        n,
        gg,
        host,
        switches,
        switch_sockets(t),
        nodes,
        t.n_nodes(),
        t.inter_node().map(scale),
        t.switch_tier().copied(),
    )
    .expect("scaled fabric revalidates")
}

/// Nontrivial automorphisms of the DGX-1 hybrid cube mesh (checked by
/// test): relabeling along one preserves every link class and bandwidth
/// table entry, so a canonical run on the permuted machine is the *same
/// machine* — only the data placement moves.
pub const DGX1_AUTOMORPHISMS: [[usize; 8]; 2] = [
    // Swap the two 4-GPU halves (socket mirror).
    [4, 5, 6, 7, 0, 1, 2, 3],
    // Swap each same-switch GPU pair.
    [1, 0, 3, 2, 5, 4, 7, 6],
];

/// Whether extending a partial relabeling with `i -> perm[i]` keeps every
/// already-placed pair's structure: link specs both ways, the diagonal,
/// the host link, and the switch/socket/node co-location pattern.
fn extends(t: &FabricSpec, perm: &[usize], i: usize) -> bool {
    let pi = perm[i];
    if t.gpu_link(pi, pi) != t.gpu_link(i, i) || t.host_link(pi) != t.host_link(i) {
        return false;
    }
    for (j, &pj) in perm.iter().enumerate().take(i) {
        if t.gpu_link(pi, pj) != t.gpu_link(i, j)
            || t.gpu_link(pj, pi) != t.gpu_link(j, i)
            || (t.switch_of(pi) == t.switch_of(pj)) != (t.switch_of(i) == t.switch_of(j))
            || (t.socket_of(pi) == t.socket_of(pj)) != (t.socket_of(i) == t.socket_of(j))
            || (t.node_of(pi) == t.node_of(pj)) != (t.node_of(i) == t.node_of(j))
        {
            return false;
        }
    }
    true
}

/// Enumerates nontrivial automorphisms of any fabric by backtracking
/// search, in lexicographic order, stopping after `cap` results. An
/// automorphism here is a GPU relabeling that yields a machine with
/// identical link tables and co-location structure — the
/// generalization of the hand-derived [`DGX1_AUTOMORPHISMS`] list to
/// arbitrary fabrics (vertex-transitive ones like an NVSwitch all-to-all
/// have factorially many, hence the cap).
pub fn automorphisms(t: &FabricSpec, cap: usize) -> Vec<Vec<usize>> {
    fn search(
        t: &FabricSpec,
        perm: &mut Vec<usize>,
        used: &mut [bool],
        cap: usize,
        out: &mut Vec<Vec<usize>>,
    ) {
        let n = t.n_gpus();
        if out.len() >= cap {
            return;
        }
        if perm.len() == n {
            if perm.iter().enumerate().any(|(i, &p)| p != i) {
                out.push(perm.clone());
            }
            return;
        }
        for cand in 0..n {
            if used[cand] {
                continue;
            }
            perm.push(cand);
            if extends(t, perm, perm.len() - 1) {
                used[cand] = true;
                search(t, perm, used, cap, out);
                used[cand] = false;
            }
            perm.pop();
            if out.len() >= cap {
                return;
            }
        }
    }
    let n = t.n_gpus();
    let mut out = Vec::new();
    if cap > 0 && n > 0 {
        search(t, &mut Vec::with_capacity(n), &mut vec![false; n], cap, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xk_topo::{dgx1, fabrics, Device};

    #[test]
    fn subtopo_keeps_link_specs_and_validates() {
        let t = dgx1();
        for n in 1..=8 {
            let s = subtopo(&t, n);
            assert_eq!(s.n_gpus(), n);
            s.validate().unwrap();
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(s.gpu_link(a, b), t.gpu_link(a, b));
                }
                assert_eq!(s.host_link(a), t.host_link(a));
                assert_eq!(s.switch_of(a), t.switch_of(a));
                assert_eq!(s.socket_of(a), t.socket_of(a));
            }
        }
    }

    #[test]
    fn subtopo_of_one_node_drops_the_nic() {
        let t = fabrics::dual_node_ib(4);
        let s = subtopo(&t, 4);
        s.validate().unwrap();
        assert_eq!(s.n_nodes(), 1);
        assert!(s.inter_node().is_none());
        // A sub-machine that still straddles both nodes keeps the NIC.
        let s = subtopo(&t, 6);
        s.validate().unwrap();
        assert_eq!(s.n_nodes(), 2);
        assert!(s.inter_node().is_some());
    }

    #[test]
    fn dgx1_automorphisms_fix_the_tables() {
        let t = dgx1();
        for perm in DGX1_AUTOMORPHISMS {
            let p = permuted(&t, &perm);
            p.validate().unwrap();
            for a in 0..8 {
                for b in 0..8 {
                    assert_eq!(p.gpu_link(a, b), t.gpu_link(a, b), "{perm:?} at ({a},{b})");
                    // Shared-bus structure is preserved: same-switch pairs
                    // stay paired, same-socket pairs stay co-socketed.
                    assert_eq!(
                        p.switch_of(a) == p.switch_of(b),
                        t.switch_of(a) == t.switch_of(b),
                        "{perm:?} switch pairing ({a},{b})"
                    );
                    assert_eq!(
                        p.socket_of(a) == p.socket_of(b),
                        t.socket_of(a) == t.socket_of(b),
                        "{perm:?} socket pairing ({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn a_non_automorphism_changes_the_tables() {
        // Reversal maps the NV2 edge (0,4) onto (7,3), an NV1 edge: the
        // permuted table must differ — guards the automorphism list against
        // silently accepting any permutation.
        let t = dgx1();
        let p = permuted(&t, &[7, 6, 5, 4, 3, 2, 1, 0]);
        let mut differs = false;
        for a in 0..8 {
            for b in 0..8 {
                differs |= p.gpu_link(a, b) != t.gpu_link(a, b);
            }
        }
        assert!(differs);
    }

    #[test]
    fn generator_finds_the_hand_derived_dgx1_automorphisms() {
        let t = dgx1();
        let found = automorphisms(&t, 64);
        for perm in DGX1_AUTOMORPHISMS {
            assert!(
                found.iter().any(|p| p[..] == perm[..]),
                "missing {perm:?} in {found:?}"
            );
        }
        // Every reported automorphism must actually fix the tables.
        for perm in &found {
            let p = permuted(&t, perm);
            for a in 0..8 {
                for b in 0..8 {
                    assert_eq!(p.gpu_link(a, b), t.gpu_link(a, b), "{perm:?}");
                }
            }
        }
        // And the reversal non-automorphism must not be reported.
        assert!(found.iter().all(|p| p[..] != [7, 6, 5, 4, 3, 2, 1, 0]));
    }

    #[test]
    fn vertex_transitive_fabrics_have_many_automorphisms() {
        // The NVSwitch machine is all-to-all uniform: any switch-pair
        // preserving relabeling qualifies, so the cap binds.
        let t = fabrics::dgx2(8);
        let found = automorphisms(&t, 16);
        assert_eq!(found.len(), 16);
        // The PCIe box (one switch, one socket) is fully symmetric too.
        let t = fabrics::pcie_box(4);
        assert!(!automorphisms(&t, 4).is_empty());
    }

    #[test]
    fn scaling_scales_routes_exactly() {
        let t = dgx1();
        let s = scaled_bandwidth(&t, 2.0, true);
        s.validate().unwrap();
        for a in 0..8 {
            for b in 0..8 {
                let r0 = t.route(Device::Gpu(a), Device::Gpu(b));
                let r1 = s.route(Device::Gpu(a), Device::Gpu(b));
                assert_eq!(r1.class, r0.class);
                assert_eq!(r1.bandwidth.to_bits(), (r0.bandwidth * 2.0).to_bits());
                assert_eq!(r1.latency, 0.0);
            }
            let h0 = t.route(Device::Host, Device::Gpu(a));
            let h1 = s.route(Device::Host, Device::Gpu(a));
            assert_eq!(h1.bandwidth.to_bits(), (h0.bandwidth * 2.0).to_bits());
        }
    }

    #[test]
    fn surgery_preserves_extension_fields() {
        let t = fabrics::dual_node_ib(4);
        let p = permuted(&t, &[1, 0, 3, 2, 5, 4, 7, 6]);
        assert_eq!(p.n_nodes(), 2);
        assert_eq!(p.inter_node().unwrap(), t.inter_node().unwrap());
        let s = scaled_bandwidth(&t, 2.0, false);
        assert_eq!(
            s.inter_node().unwrap().bandwidth.to_bits(),
            (t.inter_node().unwrap().bandwidth * 2.0).to_bits()
        );
        let d = fabrics::dgx2(16);
        let s = subtopo(&d, 8);
        assert!(s.switch_tier().is_some());
    }
}
