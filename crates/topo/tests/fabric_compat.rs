//! Byte-identity of the legacy `Topology` surface through the `FabricSpec`
//! redesign: `dgx1()` routes, perf ranks and fingerprints must be exactly
//! what they were before the fabric API existed.

use xk_topo::{builders, dgx1, fabrics, Device, FabricSpec, LinkClass, LinkSpec};

/// Replays the pre-redesign fingerprint algorithm (name, n_gpus, every link
/// spec's class/bandwidth-bits/latency-bits, switch and socket tables, in
/// that exact sequence) against the new `fingerprint()`. The extension
/// fields are hashed only when present, so every single-node fabric must
/// digest to the legacy value.
fn legacy_fingerprint(t: &FabricSpec) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    t.name().hash(&mut h);
    t.n_gpus().hash(&mut h);
    let links: Vec<&LinkSpec> = (0..t.n_gpus())
        .flat_map(|a| (0..t.n_gpus()).map(move |b| t.gpu_link(a, b)))
        .chain((0..t.n_gpus()).map(|g| t.host_link(g)))
        .collect();
    for l in links {
        l.class.hash(&mut h);
        l.bandwidth.to_bits().hash(&mut h);
        l.latency.to_bits().hash(&mut h);
    }
    let gpu_switch: Vec<usize> = (0..t.n_gpus()).map(|g| t.switch_of(g)).collect();
    let switch_socket: Vec<usize> = (0..t.n_switches()).map(|s| t.socket_of_switch(s)).collect();
    gpu_switch.hash(&mut h);
    switch_socket.hash(&mut h);
    h.finish()
}

#[test]
fn single_node_fingerprints_match_legacy_algorithm() {
    for t in [
        dgx1(),
        builders::pcie_only(4),
        builders::nvlink_all_to_all(8),
        builders::summit_node(),
        builders::nvlink_ring(8),
    ] {
        assert_eq!(t.fingerprint(), legacy_fingerprint(&t), "{}", t.name());
    }
}

#[test]
fn extended_fabrics_diverge_from_legacy_digest() {
    // The extensions must be part of the digest (a dual-node fabric is not
    // the same machine as its node-stripped table dump).
    let t = fabrics::dual_node_ib(4);
    assert_ne!(t.fingerprint(), legacy_fingerprint(&t));
    let t = fabrics::dgx2(16);
    assert_ne!(t.fingerprint(), legacy_fingerprint(&t));
}

/// The full DGX-1 route surface against a hand-rolled legacy-table replica:
/// every device pair, every field, including segment lists.
#[test]
fn dgx1_routes_match_legacy_tables_exactly()  {
    let t = dgx1();
    let legacy = legacy_dgx1_tables();
    assert_eq!(t.fingerprint(), legacy.fingerprint());
    let devices: Vec<Device> = (0..8).map(Device::Gpu).chain([Device::Host]).collect();
    for &s in &devices {
        for &d in &devices {
            assert_eq!(t.route(s, d), legacy.route(s, d), "{s}->{d}");
            assert_eq!(*t.route_ref(s, d), legacy.route(s, d), "{s}->{d} (cached)");
        }
    }
}

fn legacy_dgx1_tables() -> FabricSpec {
    use xk_topo::{bw, DGX1_NVLINK1_EDGES, DGX1_NVLINK2_EDGES};
    let n = 8;
    let local = LinkSpec::new(LinkClass::Local, bw::DEVICE_MEMORY);
    let pcie = LinkSpec::new(LinkClass::Pcie, bw::PCIE_P2P);
    let mut gg = vec![pcie; n * n];
    for i in 0..n {
        gg[i * n + i] = local;
    }
    for &(a, b) in DGX1_NVLINK2_EDGES.iter() {
        let s = LinkSpec::new(LinkClass::NvLink2, bw::NVLINK2);
        gg[a * n + b] = s;
        gg[b * n + a] = s;
    }
    for &(a, b) in DGX1_NVLINK1_EDGES.iter() {
        let s = LinkSpec::new(LinkClass::NvLink1, bw::NVLINK1);
        gg[a * n + b] = s;
        gg[b * n + a] = s;
    }
    let host = LinkSpec::new(LinkClass::Pcie, bw::PCIE_HOST);
    FabricSpec::from_parts(
        "dgx1".into(),
        n,
        gg,
        vec![host; n],
        vec![0, 0, 1, 1, 2, 2, 3, 3],
        vec![0, 0, 1, 1],
        Vec::new(),
        1,
        None,
        None,
    )
    .unwrap()
}

/// Satellite regression: the derived (bandwidth-ladder) perf ranks must pin
/// the paper's DGX-1 ranks exactly — the hard-coded link-class ranks of the
/// pre-redesign implementation, cell by cell.
#[test]
fn dgx1_perf_ranks_pin_table1() {
    let t = dgx1();
    for a in 0..8 {
        for b in 0..8 {
            let expected = t.gpu_link(a, b).class.perf_rank();
            assert_eq!(t.perf_rank(a, b), expected, "pair {a},{b}");
        }
    }
    // Spot values straight from Fig. 2's colours.
    assert_eq!(t.perf_rank(0, 3), 2); // green: 2 NVLinks
    assert_eq!(t.perf_rank(0, 1), 1); // orange: 1 NVLink
    assert_eq!(t.perf_rank(0, 7), 0); // white: PCIe
    assert_eq!(t.perf_rank(5, 5), 3); // diagonal: local
}
