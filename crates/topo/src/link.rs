//! Link classes and physical constants of the modelled interconnects.

/// Classification of a point-to-point route, ordered by preference.
///
/// The ordering mirrors the *performance rank* reported by CUDA's
/// `cuDeviceGetP2PAttribute(CU_DEVICE_P2P_ATTRIBUTE_PERFORMANCE_RANK)`, which
/// the paper's topology-aware heuristic consumes: a route over two bonded
/// NVLinks beats one NVLink, which beats anything crossing PCIe.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum LinkClass {
    /// Route through host memory / PCIe fabric (lowest rank).
    Pcie,
    /// A single NVLink-2 brick (~48 GB/s measured on DGX-1).
    NvLink1,
    /// Two bonded NVLink-2 bricks (~96 GB/s measured on DGX-1).
    NvLink2,
    /// NVLink between a CPU and a GPU (POWER9/Summit style, ~50 GB/s).
    NvLinkHost,
    /// Same-device copy served by device memory.
    Local,
    // New variants are appended so the discriminants (and therefore the
    // derived `Hash` feeding `FabricSpec::fingerprint`) of the original
    // classes never move. The derived `Ord` is declaration order and is NOT
    // a quality order across the appended variants — rank queries must go
    // through `FabricSpec::perf_rank`, which orders by route bandwidth.
    /// A port into a non-blocking NVSwitch tier (DGX-2 style all-to-all).
    NvSwitch,
    /// An inter-node NIC/IB path (multi-node fabrics).
    InterNode,
}

impl LinkClass {
    /// The peer-to-peer performance rank used by the topology-aware
    /// heuristic. Higher is better. PCIe routes rank 0 — the heuristic only
    /// prefers them over reading from the host because they avoid consuming
    /// host-uplink bandwidth twice.
    pub fn perf_rank(self) -> u8 {
        match self {
            LinkClass::InterNode => 0,
            LinkClass::Pcie => 0,
            LinkClass::NvLink1 | LinkClass::NvLinkHost => 1,
            LinkClass::NvLink2 | LinkClass::NvSwitch => 2,
            LinkClass::Local => 3,
        }
    }

    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            LinkClass::Pcie => "PCIe",
            LinkClass::NvLink1 => "NVLink x1",
            LinkClass::NvLink2 => "NVLink x2",
            LinkClass::NvLinkHost => "NVLink host",
            LinkClass::Local => "local",
            LinkClass::NvSwitch => "NVSwitch",
            LinkClass::InterNode => "NIC",
        }
    }
}

/// Measured bandwidths on the DGX-1 of the paper (Fig. 2), in bytes/second.
pub mod bw {
    /// Two bonded NVLink-2 bricks: ~96.4 GB/s measured.
    pub const NVLINK2: f64 = 96.4e9;
    /// One NVLink-2 brick: ~48.4 GB/s measured.
    pub const NVLINK1: f64 = 48.4e9;
    /// GPU↔GPU over the PCIe fabric: ~17.1 GB/s measured.
    pub const PCIE_P2P: f64 = 17.1e9;
    /// Host↔GPU over one x16 PCIe Gen3 interface. The paper quotes
    /// "4 PCIe 16x Gen3 buses at 16GB/s each" (signalling rate); sustained
    /// concurrent DMA against host memory lands lower.
    pub const PCIE_HOST: f64 = 12.5e9;
    /// V100 device-memory bandwidth as seen by same-device copies
    /// (~744–750 GB/s measured in Fig. 2's diagonal).
    pub const DEVICE_MEMORY: f64 = 747.0e9;
    /// POWER9-style NVLink between CPU and GPU (Summit node).
    pub(crate) const NVLINK_HOST: f64 = 50.0e9;
    /// One GPU port into a DGX-2-style NVSwitch plane: 6 NVLink-2 bricks
    /// bonded through the switch, ~150 GB/s per GPU.
    pub(crate) const NVSWITCH_PORT: f64 = 150.0e9;
    /// One EDR-InfiniBand-class NIC (~100 Gb/s signalling, ~12 GB/s
    /// sustained for GPUDirect-style transfers).
    pub(crate) const IB_NIC: f64 = 12.0e9;
}

/// Link latencies, in seconds.
pub(crate) mod lat {
    /// One-way NVLink latency.
    pub(crate) const NVLINK: f64 = 3.0e-6;
    /// One-way PCIe latency (includes DMA setup).
    pub(crate) const PCIE: f64 = 10.0e-6;
    /// Same-device copy launch overhead.
    pub(crate) const LOCAL: f64 = 1.0e-6;
    /// One hop through an NVSwitch plane (a GPU↔GPU route crosses two).
    pub(crate) const NVSWITCH_HOP: f64 = 1.0e-6;
    /// One hop of an inter-node IB path (NIC, switch, NIC...).
    pub(crate) const IB_HOP: f64 = 1.5e-6;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_ordering_matches_link_quality() {
        assert!(LinkClass::NvLink2.perf_rank() > LinkClass::NvLink1.perf_rank());
        assert!(LinkClass::NvLink1.perf_rank() > LinkClass::Pcie.perf_rank());
        assert!(LinkClass::Local.perf_rank() > LinkClass::NvLink2.perf_rank());
        assert_eq!(
            LinkClass::NvLinkHost.perf_rank(),
            LinkClass::NvLink1.perf_rank()
        );
    }

    #[test]
    fn enum_order_is_rank_order_for_gpu_links() {
        // The derived Ord is used to sort candidate sources.
        assert!(LinkClass::NvLink2 > LinkClass::NvLink1);
        assert!(LinkClass::NvLink1 > LinkClass::Pcie);
    }

    #[test]
    fn bandwidth_constants_sane() {
        // The ladder holds at compile time; the test names it.
        const { assert!(bw::NVLINK2 > bw::NVLINK1) };
        const { assert!(bw::NVLINK1 > bw::PCIE_P2P) };
        const { assert!(bw::PCIE_P2P > bw::PCIE_HOST * 0.5) };
        const { assert!(bw::DEVICE_MEMORY > bw::NVLINK2) };
    }
}
