//! [`FabricBuilder`]: the construction front door for [`FabricSpec`]s,
//! mirroring the `SimSession` builder idiom of `xk-runtime`.
//!
//! A fabric is declared hierarchically — GPUs, link overrides, switch and
//! socket grouping, an optional NVSwitch tier, optional node boundaries —
//! and [`FabricBuilder::build`] expands the declaration into the pairwise
//! tables [`FabricSpec`] routes over.

use crate::fabric::{FabricSpec, LinkSpec, SwitchTier};
use crate::link::{bw, lat, LinkClass};

/// Builder for [`FabricSpec`].
///
/// ```
/// use xk_topo::{bw, FabricBuilder, LinkClass};
///
/// // The paper's DGX-1 is one instance of the schema:
/// let dgx1 = FabricBuilder::named("dgx1")
///     .gpus(8)
///     .links(&[(0, 3), (0, 4), (1, 2), (1, 5), (2, 3), (4, 7), (5, 6), (6, 7)],
///            LinkClass::NvLink2, bw::NVLINK2)
///     .links(&[(0, 1), (0, 2), (1, 3), (2, 6), (3, 7), (4, 5), (4, 6), (5, 7)],
///            LinkClass::NvLink1, bw::NVLINK1)
///     .build();
/// assert_eq!(dgx1.fingerprint(), xk_topo::dgx1().fingerprint());
/// ```
#[derive(Clone, Debug)]
pub struct FabricBuilder {
    name: String,
    n_gpus: usize,
    local: LinkSpec,
    peer_default: LinkSpec,
    links: Vec<(usize, usize, LinkSpec)>,
    peer_table: Option<Vec<LinkSpec>>,
    host: LinkSpec,
    gpus_per_switch: usize,
    switches_per_socket: usize,
    socket_map: Option<Vec<usize>>,
    switch_tier: Option<SwitchTier>,
    n_nodes: usize,
    inter_node: Option<LinkSpec>,
}

impl FabricBuilder {
    /// Starts a fabric declaration with the given display name.
    ///
    /// Defaults: PCIe peer links at [`bw::PCIE_P2P`], PCIe host links at
    /// [`bw::PCIE_HOST`], device-memory local copies, two GPUs per switch,
    /// two switches per socket, a single node.
    pub fn named(name: impl Into<String>) -> Self {
        FabricBuilder {
            name: name.into(),
            n_gpus: 0,
            local: LinkSpec::new(LinkClass::Local, bw::DEVICE_MEMORY),
            peer_default: LinkSpec::new(LinkClass::Pcie, bw::PCIE_P2P),
            links: Vec::new(),
            peer_table: None,
            host: LinkSpec::new(LinkClass::Pcie, bw::PCIE_HOST),
            gpus_per_switch: 2,
            switches_per_socket: 2,
            socket_map: None,
            switch_tier: None,
            n_nodes: 1,
            inter_node: None,
        }
    }

    /// Number of GPUs (required).
    pub fn gpus(mut self, n: usize) -> Self {
        self.n_gpus = n;
        self
    }

    /// Default link for GPU pairs not covered by an override (PCIe P2P
    /// unless changed).
    pub(crate) fn peer_default(mut self, class: LinkClass, bandwidth: f64) -> Self {
        self.peer_default = LinkSpec::new(class, bandwidth);
        self
    }

    /// Symmetric link override for one GPU pair.
    pub fn link(mut self, a: usize, b: usize, class: LinkClass, bandwidth: f64) -> Self {
        self.links.push((a, b, LinkSpec::new(class, bandwidth)));
        self
    }

    /// Symmetric link override for a batch of GPU pairs.
    pub fn links(mut self, pairs: &[(usize, usize)], class: LinkClass, bandwidth: f64) -> Self {
        for &(a, b) in pairs {
            self.links.push((a, b, LinkSpec::new(class, bandwidth)));
        }
        self
    }

    /// Full `n × n` pairwise link table, overriding every per-pair setting
    /// (topology-surgery tools use this to carry a table verbatim).
    pub(crate) fn peer_table(mut self, table: Vec<LinkSpec>) -> Self {
        self.peer_table = Some(table);
        self
    }

    /// Uniform host↔GPU link (PCIe at [`bw::PCIE_HOST`] unless changed).
    pub fn host_link(mut self, class: LinkClass, bandwidth: f64) -> Self {
        self.host = LinkSpec::new(class, bandwidth);
        self
    }

    /// Consecutive GPUs per PCIe switch (default 2, the DGX-1 layout).
    pub(crate) fn gpus_per_switch(mut self, k: usize) -> Self {
        self.gpus_per_switch = k;
        self
    }

    /// Consecutive switches per socket (default 2, the DGX-1 layout).
    pub(crate) fn switches_per_socket(mut self, k: usize) -> Self {
        self.switches_per_socket = k;
        self
    }

    /// Explicit switch→socket table, overriding
    /// [`FabricBuilder::switches_per_socket`].
    pub(crate) fn socket_map(mut self, map: Vec<usize>) -> Self {
        self.socket_map = Some(map);
        self
    }

    /// A non-blocking NVSwitch plane: every same-node GPU pair becomes a
    /// [`LinkClass::NvSwitch`] link at the port bandwidth, crossing two hops
    /// of `hop_latency`.
    pub fn switch_tier(mut self, port_bandwidth: f64, hop_latency: f64) -> Self {
        self.switch_tier = Some(SwitchTier {
            port_bandwidth,
            hop_latency,
        });
        self
    }

    /// Splits the GPUs evenly over `k` nodes (consecutive blocks). Requires
    /// an [`FabricBuilder::inter_node`] link when `k > 1`.
    pub(crate) fn nodes(mut self, k: usize) -> Self {
        self.n_nodes = k;
        self
    }

    /// The NIC/IB path between nodes: NIC-to-NIC bandwidth and a per-hop
    /// latency over `hops` hops (NIC, IB switch, NIC...). Cross-node GPU
    /// pairs get this bandwidth plus a PCIe crossing on each end; host
    /// reads from a remote node also funnel through it.
    pub fn inter_node(mut self, bandwidth: f64, per_hop_latency: f64, hops: usize) -> Self {
        self.inter_node = Some(LinkSpec {
            class: LinkClass::InterNode,
            bandwidth,
            latency: per_hop_latency * hops as f64,
        });
        self
    }

    /// Assembles and validates the fabric.
    pub fn try_build(self) -> Result<FabricSpec, String> {
        let n = self.n_gpus;
        let node_map: Vec<usize> = if self.n_nodes > 1 {
            if !n.is_multiple_of(self.n_nodes) {
                return Err(format!(
                    "{n} GPUs do not split evenly over {} nodes",
                    self.n_nodes
                ));
            }
            (0..n).map(|g| g / (n / self.n_nodes)).collect()
        } else {
            Vec::new()
        };
        let node_of = |g: usize| node_map.get(g).copied().unwrap_or(0);
        if self.n_nodes > 1 && self.inter_node.is_none() {
            return Err("multi-node fabric needs an .inter_node(...) link".into());
        }

        let gg = match self.peer_table {
            Some(t) => t,
            None => {
                let mut gg = vec![self.peer_default; n * n];
                for g in 0..n {
                    gg[g * n + g] = self.local;
                }
                if let Some(tier) = &self.switch_tier {
                    let port = LinkSpec {
                        class: LinkClass::NvSwitch,
                        bandwidth: tier.port_bandwidth,
                        latency: 2.0 * tier.hop_latency,
                    };
                    for a in 0..n {
                        for b in 0..n {
                            if a != b && node_of(a) == node_of(b) {
                                gg[a * n + b] = port;
                            }
                        }
                    }
                }
                for &(a, b, spec) in &self.links {
                    if a.max(b) >= n {
                        return Err(format!("link override {a}↔{b} out of range"));
                    }
                    gg[a * n + b] = spec;
                    gg[b * n + a] = spec;
                }
                if let Some(nic) = &self.inter_node {
                    // Cross-node traffic is NIC-bound regardless of any
                    // same-node override: a PCIe crossing on each end plus
                    // the wire.
                    let cross = LinkSpec {
                        class: LinkClass::InterNode,
                        bandwidth: nic.bandwidth,
                        latency: 2.0 * lat::PCIE + nic.latency,
                    };
                    for a in 0..n {
                        for b in 0..n {
                            if node_of(a) != node_of(b) {
                                gg[a * n + b] = cross;
                            }
                        }
                    }
                }
                gg
            }
        };

        let host: Vec<LinkSpec> = (0..n)
            .map(|g| {
                if node_of(g) != 0 {
                    // Host memory lives on node 0: remote reads are
                    // NIC-bound end to end.
                    let nic = self.inter_node.as_ref().expect("checked above");
                    LinkSpec {
                        class: LinkClass::InterNode,
                        bandwidth: nic.bandwidth.min(self.host.bandwidth),
                        latency: self.host.latency + nic.latency,
                    }
                } else {
                    self.host
                }
            })
            .collect();

        if self.gpus_per_switch == 0 {
            return Err("gpus_per_switch must be at least 1".into());
        }
        let switch_map: Vec<usize> = (0..n).map(|g| g / self.gpus_per_switch).collect();
        let n_switches = switch_map.iter().copied().max().map_or(0, |m| m + 1);
        let socket_map = match self.socket_map {
            Some(m) => m,
            None => {
                if self.switches_per_socket == 0 {
                    return Err("switches_per_socket must be at least 1".into());
                }
                (0..n_switches).map(|s| s / self.switches_per_socket).collect()
            }
        };

        let n_nodes = if node_map.is_empty() { 1 } else { self.n_nodes };
        let inter_node = if n_nodes > 1 { self.inter_node } else { None };
        FabricSpec::from_parts(
            self.name,
            n,
            gg,
            host,
            switch_map,
            socket_map,
            node_map,
            n_nodes,
            inter_node,
            self.switch_tier,
        )
    }

    /// Assembles and validates the fabric.
    ///
    /// # Panics
    /// Panics if the declaration is inconsistent; see
    /// [`FabricBuilder::try_build`] for the fallible variant.
    pub fn build(self) -> FabricSpec {
        match self.try_build() {
            Ok(t) => t,
            Err(e) => panic!("inconsistent fabric declaration: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{BusSegment, Device};

    #[test]
    fn builder_defaults_reproduce_dgx1_tables() {
        // The hand-rolled legacy table construction, byte for byte.
        let n = 8;
        let local = LinkSpec::new(LinkClass::Local, bw::DEVICE_MEMORY);
        let pcie = LinkSpec::new(LinkClass::Pcie, bw::PCIE_P2P);
        let mut gg = vec![pcie; n * n];
        for i in 0..n {
            gg[i * n + i] = local;
        }
        for &(a, b) in crate::DGX1_NVLINK2_EDGES.iter() {
            let s = LinkSpec::new(LinkClass::NvLink2, bw::NVLINK2);
            gg[a * n + b] = s;
            gg[b * n + a] = s;
        }
        for &(a, b) in crate::DGX1_NVLINK1_EDGES.iter() {
            let s = LinkSpec::new(LinkClass::NvLink1, bw::NVLINK1);
            gg[a * n + b] = s;
            gg[b * n + a] = s;
        }
        let host = LinkSpec::new(LinkClass::Pcie, bw::PCIE_HOST);
        let reference = FabricSpec::from_parts(
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
        .unwrap();
        assert_eq!(crate::dgx1().fingerprint(), reference.fingerprint());
    }

    #[test]
    fn empty_declaration_is_rejected() {
        assert!(FabricBuilder::named("empty").try_build().is_err());
        assert!(FabricBuilder::named("nodes-no-nic")
            .gpus(4)
            .nodes(2)
            .try_build()
            .is_err());
        assert!(FabricBuilder::named("uneven")
            .gpus(5)
            .nodes(2)
            .inter_node(bw::IB_NIC, lat::IB_HOP, 3)
            .try_build()
            .is_err());
    }

    #[test]
    fn switch_tier_expands_to_nvswitch_ports() {
        let t = FabricBuilder::named("tiered")
            .gpus(4)
            .switch_tier(bw::NVSWITCH_PORT, lat::NVSWITCH_HOP)
            .build();
        for a in 0..4 {
            for b in 0..4 {
                if a == b {
                    continue;
                }
                let l = t.gpu_link(a, b);
                assert_eq!(l.class, LinkClass::NvSwitch);
                assert!((l.bandwidth - bw::NVSWITCH_PORT).abs() < 1.0);
                assert!((l.latency - 2.0 * lat::NVSWITCH_HOP).abs() < 1e-12);
                // Non-blocking plane: no shared segments.
                assert!(t.route(Device::Gpu(a), Device::Gpu(b)).segments.is_empty());
            }
        }
        assert!(t.switch_tier().is_some());
        assert!(t.nvlink_edges().is_empty());
    }

    #[test]
    fn two_node_fabric_routes_cross_both_nics() {
        let t = FabricBuilder::named("2node")
            .gpus(8)
            .peer_default(LinkClass::NvLink1, bw::NVLINK1)
            .nodes(2)
            .inter_node(bw::IB_NIC, lat::IB_HOP, 3)
            .build();
        assert_eq!(t.n_nodes(), 2);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        // Same-node pair: the NVLink default, no NIC involved.
        let same = t.route(Device::Gpu(0), Device::Gpu(1));
        assert_eq!(same.class, LinkClass::NvLink1);
        // Cross-node pair: NIC-bound, per-hop latency summed, both NICs
        // and both switch uplinks crossed.
        let cross = t.route(Device::Gpu(0), Device::Gpu(4));
        assert_eq!(cross.class, LinkClass::InterNode);
        assert!((cross.bandwidth - bw::IB_NIC).abs() < 1.0);
        assert!((cross.latency - (2.0 * lat::PCIE + 3.0 * lat::IB_HOP)).abs() < 1e-12);
        assert_eq!(
            cross.segments,
            vec![
                BusSegment::HostUplink(0),
                BusSegment::HostUplink(2),
                BusSegment::InterNode(0),
                BusSegment::InterNode(1),
            ]
        );
        // Host reads from the remote node funnel through both NICs too.
        let remote_host = t.route(Device::Host, Device::Gpu(4));
        assert_eq!(remote_host.class, LinkClass::InterNode);
        assert!(remote_host.segments.contains(&BusSegment::InterNode(0)));
        assert!(remote_host.segments.contains(&BusSegment::InterNode(1)));
        let local_host = t.route(Device::Host, Device::Gpu(0));
        assert_eq!(local_host.class, LinkClass::Pcie);
    }

    #[test]
    fn explicit_maps_override_grouping() {
        let t = FabricBuilder::named("mapped")
            .gpus(4)
            .gpus_per_switch(1)
            .socket_map(vec![0, 1, 1, 0])
            .build();
        assert_eq!(t.n_switches(), 4);
        assert_eq!(t.switch_of(2), 2);
        assert_eq!(t.socket_of(0), 0);
        assert_eq!(t.socket_of(2), 1);
        assert_eq!(t.socket_of(3), 0);
    }
}
