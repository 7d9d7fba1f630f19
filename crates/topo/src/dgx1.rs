//! The NVIDIA DGX-1 (V100) node of the paper: 8 Tesla V100-SXM2 32 GB in a
//! hybrid cube-mesh NVLink-2 network, four PCIe Gen3 switches (two GPUs
//! each) and two Xeon E5-2698 v4 sockets (paper Fig. 1, Fig. 2, Table I).

use crate::builder::FabricBuilder;
use crate::fabric::FabricSpec;
use crate::link::{bw, LinkClass};

/// NVLink edges of the DGX-1 hybrid cube mesh with two bonded bricks
/// (~96 GB/s), extracted from the bandwidth matrix of the paper's Fig. 2.
pub const DGX1_NVLINK2_EDGES: [(usize, usize); 8] = [
    (0, 3),
    (0, 4),
    (1, 2),
    (1, 5),
    (2, 3),
    (4, 7),
    (5, 6),
    (6, 7),
];

/// NVLink edges with a single brick (~48 GB/s), from the same matrix.
pub const DGX1_NVLINK1_EDGES: [(usize, usize); 8] = [
    (0, 1),
    (0, 2),
    (1, 3),
    (2, 6),
    (3, 7),
    (4, 5),
    (4, 6),
    (5, 7),
];

/// GPU memory capacity per V100-SXM2 of the paper's machine, in bytes.
pub const DGX1_GPU_MEMORY: u64 = 32 * 1024 * 1024 * 1024;

/// Double-precision peak of one V100-SXM2, in FLOP/s (paper: 7.8 TFlop/s).
pub const V100_PEAK_DP: f64 = 7.8e12;

/// Human-readable platform summary matching the paper's Table I.
pub const DGX1_TABLE1: &[(&str, &str)] = &[
    ("Name", "Gemini (NVIDIA DGX-1)"),
    ("CPU", "2x Xeon(R) E5-2698 v4, 2.2GHz, 20 cores each"),
    ("GPU", "8x NVIDIA Tesla V100-SXM2, 32GB, CUDA-10.1"),
    ("Main memory", "512 GB"),
    ("CPU-GPU interconnect", "PCIe Gen3 x16, 4 switches, 2 GPUs per switch"),
    ("GPU-GPU interconnect", "NVLink-2 hybrid cube mesh"),
    ("OS", "GNU/Linux, kernel 4.19.146"),
];

/// Builds the DGX-1 fabric of the paper — one instance of the general
/// [`FabricSpec`] schema, declared through [`FabricBuilder`] like every
/// other fabric.
///
/// GPUs 0–3 sit on switches 0–1 (socket 0), GPUs 4–7 on switches 2–3
/// (socket 1); each switch hosts a consecutive GPU pair, matching Fig. 1.
/// The builder defaults (PCIe P2P peers, PCIe host links, two GPUs per
/// switch, two switches per socket) *are* the DGX-1 layout; only the cube
/// mesh's NVLink edges need declaring.
pub fn dgx1() -> FabricSpec {
    FabricBuilder::named("dgx1")
        .gpus(8)
        .links(&DGX1_NVLINK2_EDGES, LinkClass::NvLink2, bw::NVLINK2)
        .links(&DGX1_NVLINK1_EDGES, LinkClass::NvLink1, bw::NVLINK1)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Device;

    #[test]
    fn every_gpu_has_six_nvlink_bricks() {
        // Each V100 on a DGX-1 exposes 6 NVLink bricks: 2 double links + 2
        // single links per GPU.
        let t = dgx1();
        for g in 0..8 {
            let mut bricks = 0;
            for other in 0..8 {
                bricks += match t.gpu_link(g, other).class {
                    LinkClass::NvLink2 => 2,
                    LinkClass::NvLink1 => 1,
                    _ => 0,
                };
            }
            assert_eq!(bricks, 6, "gpu{g} has {bricks} bricks");
        }
    }

    #[test]
    fn edge_sets_are_disjoint() {
        for a in DGX1_NVLINK2_EDGES.iter() {
            assert!(!DGX1_NVLINK1_EDGES.contains(a));
        }
    }

    #[test]
    fn matches_fig2_spot_values() {
        // Spot-check entries of the paper's measured matrix (Fig. 2).
        let t = dgx1();
        let m = t.bandwidth_matrix_gbs();
        // 0-3 and 0-4: double NVLink ~96 GB/s.
        assert!((m[0][3] - 96.4).abs() < 1.0);
        assert!((m[0][4] - 96.4).abs() < 1.0);
        // 0-1 and 0-2: single NVLink ~48 GB/s.
        assert!((m[0][1] - 48.4).abs() < 1.0);
        // 0-5: PCIe ~17 GB/s.
        assert!((m[0][5] - 17.1).abs() < 1.0);
        // Diagonal: device memory ~747 GB/s.
        assert!((m[6][6] - 747.0).abs() < 5.0);
        // Symmetry.
        for (i, row) in m.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert!((v - m[j][i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn sockets_split_four_four() {
        let t = dgx1();
        for g in 0..4 {
            assert_eq!(t.socket_of(g), 0);
        }
        for g in 4..8 {
            assert_eq!(t.socket_of(g), 1);
        }
        assert_eq!(t.n_switches(), 4);
    }

    #[test]
    fn cross_socket_pcie_route_crosses_intersocket_link() {
        let t = dgx1();
        let r = t.route(Device::Gpu(0), Device::Gpu(5));
        assert_eq!(r.class, LinkClass::Pcie);
        assert!(r
            .segments
            .contains(&crate::fabric::BusSegment::InterSocket));
    }

    #[test]
    fn same_switch_pairs_share_uplink() {
        let t = dgx1();
        assert_eq!(t.switch_of(0), t.switch_of(1));
        assert_eq!(t.switch_of(6), t.switch_of(7));
        assert_ne!(t.switch_of(1), t.switch_of(2));
    }

    #[test]
    fn perf_ranks_follow_fig2_colors() {
        let t = dgx1();
        assert_eq!(t.perf_rank(0, 3), 2); // green: 2 NVLinks
        assert_eq!(t.perf_rank(0, 1), 1); // orange: 1 NVLink
        assert_eq!(t.perf_rank(0, 7), 0); // white: PCIe
    }
}
