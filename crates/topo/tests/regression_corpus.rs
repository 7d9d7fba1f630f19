//! Properties of built topologies: seeded random bandwidth matrices, the
//! pinned counterexample an earlier random run shrank to, and the fixed
//! facts of the modelled machines.

use xk_lp::for_each_seed;
use xk_topo::{builders, dgx1, Device};

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
