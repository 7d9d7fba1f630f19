//! Properties of built topologies: seeded random bandwidth matrices, the
//! pinned counterexample an earlier random run shrank to, and the fixed
//! facts of the modelled machines.

use xk_lp::for_each_seed;
use xk_topo::{
    builders, bw, dgx1, Device, FabricBuilder, FabricSpec, LinkClass, LinkSpec, SwitchTier,
};

/// A topology built from `m` validates and has symmetric perf ranks,
/// route classes and route bandwidths.
fn assert_builds_symmetric(m: &[Vec<f64>]) {
    let n = m.len();
    let t = builders::from_bandwidth_matrix_gbs("arb", m);
    t.validate().unwrap();
    for a in 0..n {
        for b in 0..n {
            assert_eq!(t.perf_rank(a, b), t.perf_rank(b, a));
            let r1 = t.route(Device::Gpu(a), Device::Gpu(b));
            let r2 = t.route(Device::Gpu(b), Device::Gpu(a));
            assert_eq!(r1.class, r2.class);
            assert!((r1.bandwidth - r2.bandwidth).abs() < 1e-6);
        }
    }
}

/// The shrunken counterexample of an earlier random run: a
/// maximally-asymmetric 2-GPU bandwidth matrix (88.2 GB/s one way, 5 GB/s
/// the other). The builder must symmetrize.
#[test]
fn asymmetric_matrix_builds_symmetric_topology() {
    assert_builds_symmetric(&[vec![700.0, 88.202_144_275_000_01], vec![5.0, 700.0]]);
}

/// 256 arbitrary (asymmetric) bandwidth matrices over 2–7 GPUs.
#[test]
fn matrix_built_topologies_are_symmetric() {
    for_each_seed(256, |rng| {
        let n = rng.usize_in(2, 8);
        let m: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| if i == j { 700.0 } else { rng.f64_in(5.0, 120.0) })
                    .collect()
            })
            .collect();
        assert_builds_symmetric(&m);
    });
}

/// Every route has strictly positive bandwidth, and transfer time is
/// monotone in the byte count.
#[test]
fn transfer_time_monotone() {
    let t = dgx1();
    for_each_seed(256, |rng| {
        let (x, y) = (1 + rng.next_below(1 << 30), 1 + rng.next_below(1 << 30));
        let (lo, hi) = (x.min(y), x.max(y));
        for a in 0..8usize {
            for b in 0..8usize {
                let r = t.route(Device::Gpu(a), Device::Gpu(b));
                assert!(r.bandwidth > 0.0);
                assert!(r.transfer_time(lo) <= r.transfer_time(hi));
            }
        }
    });
}

#[test]
fn dgx1_fig2_full_matrix_classes() {
    // The full class pattern of Fig. 2: 8 green (96) cells per triangle,
    // 8 orange (48), the rest PCIe.
    let t = dgx1();
    let mut nv2 = 0;
    let mut nv1 = 0;
    let mut pcie = 0;
    for a in 0..8 {
        for b in a + 1..8 {
            match t.perf_rank(a, b) {
                2 => nv2 += 1,
                1 => nv1 += 1,
                0 => pcie += 1,
                _ => unreachable!(),
            }
        }
    }
    assert_eq!((nv2, nv1, pcie), (8, 8, 12));
}

#[test]
fn summit_vs_dgx1_host_bandwidth() {
    // §III-C: on Summit the host links are fast NVLink, so host reads are
    // much cheaper than on the DGX-1 — the premise for the optimistic
    // heuristic mattering less there.
    let d = dgx1();
    let s = builders::summit_node();
    let dr = d.route(Device::Host, Device::Gpu(0));
    let sr = s.route(Device::Host, Device::Gpu(0));
    assert!(sr.bandwidth > 2.0 * dr.bandwidth);
}

/// The raw tables of a valid two-node, two-GPU fabric with a switch tier:
/// the smallest spec that carries every latency and bandwidth field
/// `FabricSpec::validate` has to look at.
struct Parts {
    gpu_gpu: Vec<LinkSpec>,
    host_gpu: Vec<LinkSpec>,
    inter_node: LinkSpec,
    tier: SwitchTier,
}

impl Parts {
    fn valid() -> Self {
        let local = LinkSpec::new(LinkClass::Local, bw::DEVICE_MEMORY);
        let nic = LinkSpec::new(LinkClass::InterNode, 12.5e9);
        Parts {
            gpu_gpu: vec![local, nic, nic, local],
            host_gpu: vec![LinkSpec::new(LinkClass::Pcie, bw::PCIE_HOST), nic],
            inter_node: nic,
            tier: SwitchTier {
                port_bandwidth: 150e9,
                hop_latency: 1e-6,
            },
        }
    }

    fn build(self) -> Result<FabricSpec, String> {
        FabricSpec::from_parts(
            "hostile".into(),
            2,
            self.gpu_gpu,
            self.host_gpu,
            vec![0, 1],
            vec![0, 1],
            vec![0, 1],
            2,
            Some(self.inter_node),
            Some(self.tier),
        )
    }
}

/// A latency that is NaN, negative or infinite used to pass `from_parts`
/// and panic in `xk_sim::Duration::new` during the first simulation on the
/// fabric; likewise an unusable `inter_node` or switch-port bandwidth. Each
/// is now an `Err` that names the link.
#[test]
fn from_parts_rejects_hostile_latency_and_bandwidth() {
    Parts::valid()
        .build()
        .expect("the unedited tables are valid");
    // (the link the error must name, the field, whether zero is hostile too)
    type Edit = fn(&mut Parts, f64);
    let fields: [(&str, &str, Edit); 6] = [
        ("gpu0↔gpu1", "latency", |p, v| p.gpu_gpu[1].latency = v),
        ("host link of gpu0", "latency", |p, v| p.host_gpu[0].latency = v),
        ("inter_node", "latency", |p, v| p.inter_node.latency = v),
        ("inter_node", "bandwidth", |p, v| p.inter_node.bandwidth = v),
        ("switch_tier", "latency", |p, v| p.tier.hop_latency = v),
        ("switch_tier", "bandwidth", |p, v| p.tier.port_bandwidth = v),
    ];
    for (link, field, edit) in fields {
        let zero = (field == "bandwidth").then_some(0.0);
        for v in [f64::NAN, -1e-6, f64::INFINITY].into_iter().chain(zero) {
            let mut parts = Parts::valid();
            edit(&mut parts, v);
            let err = parts.build().expect_err("hostile value accepted");
            assert!(err.contains(link) && err.contains(field), "{link} {field} = {v}: {err}");
        }
    }
    // Zero latency is a legal (ideal) link.
    let mut ideal = Parts::valid();
    ideal.host_gpu[0].latency = 0.0;
    ideal.tier.hop_latency = 0.0;
    ideal.build().expect("zero latency is valid");
}

/// The builder expands a switch tier into the pairwise table, so a hostile
/// tier must come back as `Err` from `try_build` — also on a single GPU,
/// where no pair carries the tier's numbers.
#[test]
fn try_build_rejects_a_hostile_switch_tier() {
    for gpus in [1, 4] {
        for (port, hop) in [
            (150e9, f64::NAN),
            (150e9, -1e-6),
            (150e9, f64::INFINITY),
            (0.0, 1e-6),
            (f64::NAN, 1e-6),
        ] {
            let built = FabricBuilder::named("hostile-tier")
                .gpus(gpus)
                .switch_tier(port, hop)
                .try_build();
            assert!(built.is_err(), "{gpus} GPUs, tier ({port}, {hop}) built");
        }
    }
}
