//! The fabric description layer: devices, links, switch tiers, shared bus
//! segments, node boundaries and hierarchical routing tables.
//!
//! [`FabricSpec`] is the general machine description; the DGX-1 of the paper
//! ([`crate::dgx1`]) is one instance of it, built through the same
//! [`crate::FabricBuilder`] as every other fabric in [`crate::fabrics`].

use std::fmt;
use std::sync::OnceLock;

use crate::link::{lat, LinkClass};

/// A processing/memory resource of the platform.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Device {
    /// Host CPUs + main memory (a single memory node in this model).
    Host,
    /// GPU with the given index.
    Gpu(usize),
}

impl Device {
    /// GPU index, if this is a GPU.
    pub fn gpu_index(self) -> Option<usize> {
        match self {
            Device::Gpu(i) => Some(i),
            Device::Host => None,
        }
    }

    /// True for [`Device::Host`].
    pub fn is_host(self) -> bool {
        matches!(self, Device::Host)
    }
}

impl std::fmt::Display for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Device::Host => write!(f, "host"),
            Device::Gpu(i) => write!(f, "gpu{i}"),
        }
    }
}

/// A shared bus resource that a route may cross.
///
/// Transfers whose routes cross the same segment contend for it (the
/// simulated executors map each segment to an [`xk_sim`] engine). NVLink
/// bricks are *not* segments: they are dedicated point-to-point and already
/// serialized by the per-device copy engines. NVSwitch planes are not
/// segments either — the tier is non-blocking at full bisection, so the only
/// contention point is each GPU's own port, which the per-GPU copy engines
/// already model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum BusSegment {
    /// The x16 uplink between PCIe switch `sw` and its root complex. On a
    /// DGX-1 two GPUs hang off each switch, so their host traffic shares it.
    HostUplink(usize),
    /// The inter-socket link (QPI on the DGX-1's Xeons).
    InterSocket,
    /// The NIC of node `node`: every transfer entering or leaving the node
    /// funnels through it.
    InterNode(usize),
}

/// Physical characteristics of one point-to-point link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// Link classification (reporting + route segment derivation).
    pub class: LinkClass,
    /// Sustained bandwidth in bytes/second.
    pub bandwidth: f64,
    /// One-way latency in seconds.
    pub latency: f64,
}

impl LinkSpec {
    /// Convenience constructor with the default latency of the class.
    pub fn new(class: LinkClass, bandwidth: f64) -> Self {
        let latency = match class {
            LinkClass::Pcie => lat::PCIE,
            LinkClass::Local => lat::LOCAL,
            LinkClass::InterNode => lat::PCIE + 3.0 * lat::IB_HOP,
            _ => lat::NVLINK,
        };
        LinkSpec {
            class,
            bandwidth,
            latency,
        }
    }
}

/// A non-blocking switch plane connecting every GPU of a node all-to-all
/// (DGX-2 style NVSwitch).
///
/// The [`crate::FabricBuilder`] expands a tier into the pairwise link table
/// (each same-node pair gets a [`LinkClass::NvSwitch`] link at the port
/// bandwidth, crossing two hops); the spec keeps the tier itself so
/// fingerprints, reports and relabeling tools can see the structure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwitchTier {
    /// Bandwidth of one GPU's port into the plane, bytes/second. The plane
    /// itself is full-bisection, so the port is the only bottleneck.
    pub port_bandwidth: f64,
    /// Latency of one hop through the plane; a GPU↔GPU route crosses two.
    pub hop_latency: f64,
}

/// A resolved route between two devices.
#[derive(Clone, Debug, PartialEq)]
pub struct Route {
    /// Classification of the route (that of its weakest hop).
    pub class: LinkClass,
    /// Sustained end-to-end bandwidth in bytes/second.
    pub bandwidth: f64,
    /// End-to-end latency in seconds.
    pub latency: f64,
    /// Shared bus segments crossed, in canonical order, deduplicated.
    pub segments: Vec<BusSegment>,
}

impl Route {
    /// Time in seconds to move `bytes` over this route, ignoring contention
    /// (contention is resolved by the executor's engine reservations).
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// `Err` naming `link` unless its bandwidth is finite and positive and its
/// latency finite and non-negative: a simulation turns `bytes / bandwidth`
/// and the latency into `xk_sim::Duration`s, which panic on anything else.
fn check_link(link: fmt::Arguments<'_>, bandwidth: f64, latency: f64) -> Result<(), String> {
    if !(bandwidth.is_finite() && bandwidth > 0.0) {
        return Err(format!("{link}: bandwidth {bandwidth} is not finite and positive"));
    }
    if !(latency.is_finite() && latency >= 0.0) {
        return Err(format!("{link}: latency {latency} is not finite and non-negative"));
    }
    Ok(())
}

/// A complete multi-GPU fabric description.
///
/// Construct one with [`crate::FabricBuilder`], the named constructors in
/// [`crate::fabrics`] / [`crate::builders`] / [`crate::dgx1()`];
/// [`FabricSpec::validate`] checks internal consistency.
///
/// The spec is hierarchical: GPUs hang off PCIe switches, switches off
/// sockets, and (for multi-node fabrics) GPUs belong to nodes joined by
/// NIC/IB links. [`FabricSpec::route`] resolves any device pair against
/// those tables; [`FabricSpec::route_ref`] serves the same answer from a
/// lazily built routing table without allocating.
#[derive(Clone, Debug)]
pub struct FabricSpec {
    name: String,
    n_gpus: usize,
    /// `n_gpus × n_gpus`, row-major; diagonal entries are `Local`.
    gpu_gpu: Vec<LinkSpec>,
    /// Host link per GPU.
    host_gpu: Vec<LinkSpec>,
    /// PCIe switch per GPU.
    gpu_switch: Vec<usize>,
    /// Socket per PCIe switch.
    switch_socket: Vec<usize>,
    /// Node per GPU; empty means "all on node 0" (single-node fabrics).
    gpu_node: Vec<usize>,
    /// Number of nodes (1 for every single-node fabric).
    n_nodes: usize,
    /// The NIC/IB link joining nodes, when `n_nodes > 1`.
    inter_node: Option<LinkSpec>,
    /// The NVSwitch plane the pairwise table was expanded from, if any.
    switch_tier: Option<SwitchTier>,
    /// Sorted distinct GPU↔GPU route bandwidths; `perf_rank` is the index
    /// into this ladder. Derived lazily.
    rank_levels: OnceLock<Vec<f64>>,
    /// Flattened routing table over all device pairs. Derived lazily.
    routes: OnceLock<Box<[Route]>>,
    /// Memoised [`FabricSpec::fingerprint`]. The tables are private and
    /// only [`FabricSpec::from_parts`] assembles them, so it cannot go
    /// stale. Derived lazily.
    fingerprint: OnceLock<u64>,
}

impl FabricSpec {
    /// Builds a fabric from every table, including the multi-node and
    /// switch-tier extensions. This is the single assembly point used by
    /// [`crate::FabricBuilder::try_build`] and topology-surgery tools.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        name: String,
        n_gpus: usize,
        gpu_gpu: Vec<LinkSpec>,
        host_gpu: Vec<LinkSpec>,
        gpu_switch: Vec<usize>,
        switch_socket: Vec<usize>,
        gpu_node: Vec<usize>,
        n_nodes: usize,
        inter_node: Option<LinkSpec>,
        switch_tier: Option<SwitchTier>,
    ) -> Result<Self, String> {
        let t = FabricSpec {
            name,
            n_gpus,
            gpu_gpu,
            host_gpu,
            gpu_switch,
            switch_socket,
            gpu_node,
            n_nodes,
            inter_node,
            switch_tier,
            rank_levels: OnceLock::new(),
            routes: OnceLock::new(),
            fingerprint: OnceLock::new(),
        };
        t.validate()?;
        Ok(t)
    }

    /// Checks internal consistency: at least one GPU, table sizes,
    /// symmetric GPU↔GPU links,
    /// `Local` diagonal, finite positive bandwidths and finite non-negative
    /// latencies on every link, valid switch/socket indices, and — for
    /// multi-node fabrics — that exactly the cross-node pairs use NIC links.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n_gpus;
        if n == 0 {
            return Err("fabric needs at least one GPU".into());
        }
        if self.gpu_gpu.len() != n * n {
            return Err(format!("gpu_gpu has {} entries, want {}", self.gpu_gpu.len(), n * n));
        }
        if self.host_gpu.len() != n {
            return Err(format!("host_gpu has {} entries, want {n}", self.host_gpu.len()));
        }
        if self.gpu_switch.len() != n {
            return Err(format!("gpu_switch has {} entries, want {n}", self.gpu_switch.len()));
        }
        for (i, &sw) in self.gpu_switch.iter().enumerate() {
            if sw >= self.switch_socket.len() {
                return Err(format!("gpu{i} references unknown switch {sw}"));
            }
        }
        for i in 0..n {
            let d = &self.gpu_gpu[i * n + i];
            if d.class != LinkClass::Local {
                return Err(format!("diagonal entry for gpu{i} is {:?}, want Local", d.class));
            }
            for j in 0..n {
                let a = &self.gpu_gpu[i * n + j];
                let b = &self.gpu_gpu[j * n + i];
                if a.class != b.class {
                    return Err(format!("asymmetric link class between gpu{i} and gpu{j}"));
                }
                if (a.bandwidth - b.bandwidth).abs() > 1e-3 {
                    return Err(format!("asymmetric bandwidth between gpu{i} and gpu{j}"));
                }
                check_link(format_args!("link gpu{i}↔gpu{j}"), a.bandwidth, a.latency)?;
            }
        }
        for (i, h) in self.host_gpu.iter().enumerate() {
            check_link(format_args!("host link of gpu{i}"), h.bandwidth, h.latency)?;
        }
        if let Some(nic) = &self.inter_node {
            check_link(format_args!("inter_node link"), nic.bandwidth, nic.latency)?;
        }
        if let Some(tier) = &self.switch_tier {
            check_link(format_args!("switch_tier port"), tier.port_bandwidth, tier.hop_latency)?;
        }
        // Multi-node extension invariants.
        if self.n_nodes == 0 {
            return Err("n_nodes must be at least 1".into());
        }
        if !self.gpu_node.is_empty() && self.gpu_node.len() != n {
            return Err(format!("gpu_node has {} entries, want {n} or 0", self.gpu_node.len()));
        }
        for (i, &nd) in self.gpu_node.iter().enumerate() {
            if nd >= self.n_nodes {
                return Err(format!("gpu{i} references unknown node {nd}"));
            }
        }
        if self.n_nodes > 1 && self.inter_node.is_none() {
            return Err("multi-node fabric without an inter_node link".into());
        }
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let cross = self.node_of(i) != self.node_of(j);
                let is_nic = self.gpu_gpu[i * n + j].class == LinkClass::InterNode;
                if cross && !is_nic {
                    return Err(format!("gpu{i}↔gpu{j} cross nodes but are not a NIC link"));
                }
                if !cross && is_nic {
                    return Err(format!("gpu{i}↔gpu{j} share a node but use a NIC link"));
                }
            }
        }
        for (i, h) in self.host_gpu.iter().enumerate() {
            if (h.class == LinkClass::InterNode) != (self.node_of(i) != 0) {
                return Err(format!(
                    "host link of gpu{i} must be a NIC link iff the GPU is on a remote node"
                ));
            }
        }
        Ok(())
    }

    /// Fabric display name (e.g. `"dgx1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of GPUs.
    pub fn n_gpus(&self) -> usize {
        self.n_gpus
    }

    /// Number of PCIe switches.
    pub fn n_switches(&self) -> usize {
        self.switch_socket.len()
    }

    /// Number of nodes (1 for single-node fabrics).
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// PCIe switch hosting `gpu`.
    pub fn switch_of(&self, gpu: usize) -> usize {
        self.gpu_switch[gpu]
    }

    /// Socket hosting `gpu` (through its PCIe switch).
    pub fn socket_of(&self, gpu: usize) -> usize {
        self.switch_socket[self.gpu_switch[gpu]]
    }

    /// Socket hosting PCIe switch `sw`.
    pub fn socket_of_switch(&self, sw: usize) -> usize {
        self.switch_socket[sw]
    }

    /// Node hosting `gpu` (0 for single-node fabrics; the host memory of a
    /// multi-node fabric lives on node 0).
    pub fn node_of(&self, gpu: usize) -> usize {
        self.gpu_node.get(gpu).copied().unwrap_or(0)
    }

    /// The NIC/IB link joining nodes, when this is a multi-node fabric.
    pub fn inter_node(&self) -> Option<&LinkSpec> {
        self.inter_node.as_ref()
    }

    /// The NVSwitch plane the pairwise table was expanded from, if any.
    pub fn switch_tier(&self) -> Option<&SwitchTier> {
        self.switch_tier.as_ref()
    }

    /// Raw GPU↔GPU link spec.
    pub fn gpu_link(&self, a: usize, b: usize) -> &LinkSpec {
        &self.gpu_gpu[a * self.n_gpus + b]
    }

    /// Raw host↔GPU link spec.
    pub fn host_link(&self, gpu: usize) -> &LinkSpec {
        &self.host_gpu[gpu]
    }

    /// The peer-to-peer performance rank between two GPUs, as the paper's
    /// heuristic reads it from `cuDeviceGetP2PAttribute`. Higher is better.
    ///
    /// The rank is *derived*: it is the position of the pair's link
    /// bandwidth in the sorted ladder of distinct GPU↔GPU link bandwidths
    /// of this fabric. On the DGX-1 that reproduces the paper's ranks
    /// exactly (PCIe = 0, one NVLink brick = 1, two bricks = 2, local = 3);
    /// on other fabrics it adapts to whatever bandwidth classes exist
    /// instead of hard-coding DGX-1 link classes.
    pub fn perf_rank(&self, a: usize, b: usize) -> u8 {
        let bw = self.gpu_link(a, b).bandwidth;
        let levels = self.rank_levels.get_or_init(|| {
            let mut v: Vec<f64> = self.gpu_gpu.iter().map(|l| l.bandwidth).collect();
            v.sort_by(|x, y| x.partial_cmp(y).expect("validated: finite bandwidths"));
            v.dedup_by(|x, y| x.to_bits() == y.to_bits());
            v
        });
        let idx = levels
            .iter()
            .position(|l| l.to_bits() == bw.to_bits())
            .expect("gpu_gpu bandwidth missing from its own ladder");
        idx.min(u8::MAX as usize) as u8
    }

    /// Resolves the route between two devices.
    ///
    /// * GPU↔GPU over NVLink or an NVSwitch port: the dedicated path, no
    ///   shared segments.
    /// * GPU↔GPU over PCIe: bandwidth of the P2P PCIe path; crosses the host
    ///   uplinks of both switches and, across sockets, the inter-socket link.
    /// * GPU↔GPU across nodes: crosses both switch uplinks and both NICs.
    /// * Host↔GPU over PCIe: crosses the GPU's switch uplink.
    /// * Host↔GPU over host NVLink (POWER9-style): dedicated, no segments.
    /// * Host↔GPU across nodes: host memory lives on node 0, so the route
    ///   crosses the GPU's uplink and both nodes' NICs.
    /// * Same device: local copy.
    pub fn route(&self, src: Device, dst: Device) -> Route {
        match (src, dst) {
            (Device::Host, Device::Host) => Route {
                class: LinkClass::Local,
                bandwidth: crate::link::bw::DEVICE_MEMORY,
                latency: lat::LOCAL,
                segments: Vec::new(),
            },
            (Device::Gpu(a), Device::Gpu(b)) if a == b => {
                let spec = self.gpu_link(a, a);
                Route {
                    class: LinkClass::Local,
                    bandwidth: spec.bandwidth,
                    latency: spec.latency,
                    segments: Vec::new(),
                }
            }
            (Device::Gpu(a), Device::Gpu(b)) => {
                let spec = self.gpu_link(a, b);
                let segments = match spec.class {
                    LinkClass::Pcie => self.pcie_p2p_segments(a, b),
                    LinkClass::InterNode => self.inter_node_segments(a, b),
                    _ => Vec::new(),
                };
                Route {
                    class: spec.class,
                    bandwidth: spec.bandwidth,
                    latency: spec.latency,
                    segments,
                }
            }
            (Device::Host, Device::Gpu(g)) | (Device::Gpu(g), Device::Host) => {
                let spec = self.host_link(g);
                let segments = match spec.class {
                    LinkClass::Pcie => vec![BusSegment::HostUplink(self.gpu_switch[g])],
                    LinkClass::InterNode => vec![
                        BusSegment::HostUplink(self.gpu_switch[g]),
                        BusSegment::InterNode(0),
                        BusSegment::InterNode(self.node_of(g)),
                    ],
                    _ => Vec::new(),
                };
                Route {
                    class: spec.class,
                    bandwidth: spec.bandwidth,
                    latency: spec.latency,
                    segments,
                }
            }
        }
    }

    /// The same answer as [`FabricSpec::route`], served from a lazily built
    /// flattened routing table — the executors' hot path, free of per-call
    /// allocation.
    pub fn route_ref(&self, src: Device, dst: Device) -> &Route {
        let n = self.n_gpus;
        let routes = self.routes.get_or_init(|| {
            let dev = |i: usize| if i == n { Device::Host } else { Device::Gpu(i) };
            let mut v = Vec::with_capacity((n + 1) * (n + 1));
            for s in 0..=n {
                for d in 0..=n {
                    v.push(self.route(dev(s), dev(d)));
                }
            }
            v.into_boxed_slice()
        });
        let idx = |d: Device| d.gpu_index().unwrap_or(n);
        &routes[idx(src) * (n + 1) + idx(dst)]
    }

    fn pcie_p2p_segments(&self, a: usize, b: usize) -> Vec<BusSegment> {
        let (sa, sb) = (self.gpu_switch[a], self.gpu_switch[b]);
        let mut segs = Vec::with_capacity(3);
        if sa == sb {
            // Peer traffic can stay inside the switch but still shares its
            // internal fabric with host traffic of that switch.
            segs.push(BusSegment::HostUplink(sa));
        } else {
            segs.push(BusSegment::HostUplink(sa.min(sb)));
            segs.push(BusSegment::HostUplink(sa.max(sb)));
            if self.switch_socket[sa] != self.switch_socket[sb] {
                segs.push(BusSegment::InterSocket);
            }
        }
        segs
    }

    fn inter_node_segments(&self, a: usize, b: usize) -> Vec<BusSegment> {
        let (sa, sb) = (self.gpu_switch[a], self.gpu_switch[b]);
        let (na, nb) = (self.node_of(a), self.node_of(b));
        vec![
            BusSegment::HostUplink(sa.min(sb)),
            BusSegment::HostUplink(sa.max(sb)),
            BusSegment::InterNode(na.min(nb)),
            BusSegment::InterNode(na.max(nb)),
        ]
    }

    /// Analytic GPU↔GPU bandwidth matrix in GB/s (the model's version of the
    /// paper's Fig. 2, before any contention).
    pub fn bandwidth_matrix_gbs(&self) -> Vec<Vec<f64>> {
        let n = self.n_gpus;
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| self.gpu_link(i, j).bandwidth / 1e9)
                    .collect()
            })
            .collect()
    }

    /// A deterministic 64-bit digest of every table that influences routing
    /// and timing: the memoization key component that distinguishes runs on
    /// different platforms (`xk-bench`'s `RunCache`, `xk-serve`'s query
    /// keys).
    ///
    /// Stable within a process (and across processes, since the hasher is
    /// keyed with zeros); floats are hashed by their bit patterns. The
    /// multi-node and switch-tier extensions are hashed only when present,
    /// so every fingerprint minted before they existed — the DGX-1's in
    /// particular — is unchanged. Hashed once per spec and memoised: a
    /// query key costs a word copy, not a pass over the link tables.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.hash_tables())
    }

    fn hash_tables(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.name.hash(&mut h);
        self.n_gpus.hash(&mut h);
        for l in self.gpu_gpu.iter().chain(&self.host_gpu) {
            l.class.hash(&mut h);
            l.bandwidth.to_bits().hash(&mut h);
            l.latency.to_bits().hash(&mut h);
        }
        self.gpu_switch.hash(&mut h);
        self.switch_socket.hash(&mut h);
        if self.n_nodes > 1 {
            self.n_nodes.hash(&mut h);
            self.gpu_node.hash(&mut h);
            if let Some(l) = &self.inter_node {
                l.class.hash(&mut h);
                l.bandwidth.to_bits().hash(&mut h);
                l.latency.to_bits().hash(&mut h);
            }
        }
        if let Some(tier) = &self.switch_tier {
            tier.port_bandwidth.to_bits().hash(&mut h);
            tier.hop_latency.to_bits().hash(&mut h);
        }
        h.finish()
    }

    /// All GPU pairs `(a, b)` with `a < b` connected by at least one
    /// dedicated point-to-point NVLink. NVSwitch ports are intentionally
    /// excluded: a GPU's bricks are bonded into one port into the plane, so
    /// concurrent transfers of one GPU share that port (the per-GPU copy
    /// engines), unlike cube-mesh bricks which are per-peer.
    pub fn nvlink_edges(&self) -> Vec<(usize, usize, LinkClass)> {
        let mut edges = Vec::new();
        for a in 0..self.n_gpus {
            for b in a + 1..self.n_gpus {
                let c = self.gpu_link(a, b).class;
                if matches!(c, LinkClass::NvLink1 | LinkClass::NvLink2) {
                    edges.push((a, b, c));
                }
            }
        }
        edges
    }

    /// Topology surgery: a copy of this fabric with every off-diagonal
    /// GPU↔GPU link rewritten by `f`. The rewrite is applied once per
    /// unordered pair `(a < b)` and mirrored, so link symmetry — which
    /// [`FabricSpec::validate`] enforces — is preserved by construction.
    /// Every other table (host links, switches, nodes, tiers) is kept.
    ///
    /// This is the primitive behind link-coalition valuation: the Shapley
    /// attribution layer re-runs the simulator on fabrics where subsets of
    /// NVLink edges are downgraded to their PCIe fallback, and the caller
    /// must not be able to produce an inconsistent spec while doing so —
    /// hence a closure over pairs rather than raw table access.
    pub fn map_gpu_links(
        &self,
        name: impl Into<String>,
        mut f: impl FnMut(usize, usize, &LinkSpec) -> LinkSpec,
    ) -> Result<Self, String> {
        let n = self.n_gpus;
        let mut gpu_gpu = self.gpu_gpu.clone();
        for a in 0..n {
            for b in a + 1..n {
                let link = f(a, b, &self.gpu_gpu[a * n + b]);
                gpu_gpu[a * n + b] = link;
                gpu_gpu[b * n + a] = link;
            }
        }
        FabricSpec::from_parts(
            name.into(),
            n,
            gpu_gpu,
            self.host_gpu.clone(),
            self.gpu_switch.clone(),
            self.switch_socket.clone(),
            self.gpu_node.clone(),
            self.n_nodes,
            self.inter_node,
            self.switch_tier,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::bw;

    fn tiny() -> FabricSpec {
        // 2 GPUs on one switch, NVLink2 between them.
        let local = LinkSpec::new(LinkClass::Local, bw::DEVICE_MEMORY);
        let nv2 = LinkSpec::new(LinkClass::NvLink2, bw::NVLINK2);
        let host = LinkSpec::new(LinkClass::Pcie, bw::PCIE_HOST);
        FabricSpec::from_parts(
            "tiny".into(),
            2,
            vec![local, nv2, nv2, local],
            vec![host, host],
            vec![0, 0],
            vec![0],
            Vec::new(),
            1,
            None,
            None,
        )
        .unwrap()
    }

    #[test]
    fn nvlink_route_has_no_segments() {
        let t = tiny();
        let r = t.route(Device::Gpu(0), Device::Gpu(1));
        assert_eq!(r.class, LinkClass::NvLink2);
        assert!(r.segments.is_empty());
        assert!((r.bandwidth - bw::NVLINK2).abs() < 1.0);
    }

    #[test]
    fn host_route_crosses_uplink() {
        let t = tiny();
        let r = t.route(Device::Host, Device::Gpu(1));
        assert_eq!(r.class, LinkClass::Pcie);
        assert_eq!(r.segments, vec![BusSegment::HostUplink(0)]);
    }

    #[test]
    fn local_route() {
        let t = tiny();
        let r = t.route(Device::Gpu(0), Device::Gpu(0));
        assert_eq!(r.class, LinkClass::Local);
        assert!(r.segments.is_empty());
    }

    #[test]
    fn transfer_time_includes_latency() {
        let t = tiny();
        let r = t.route(Device::Host, Device::Gpu(0));
        let time = r.transfer_time(16_000_000);
        assert!((time - (lat::PCIE + 16e6 / bw::PCIE_HOST)).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_asymmetry() {
        let local = LinkSpec::new(LinkClass::Local, bw::DEVICE_MEMORY);
        let nv2 = LinkSpec::new(LinkClass::NvLink2, bw::NVLINK2);
        let nv1 = LinkSpec::new(LinkClass::NvLink1, bw::NVLINK1);
        let host = LinkSpec::new(LinkClass::Pcie, bw::PCIE_HOST);
        let t = FabricSpec::from_parts(
            "bad".into(),
            2,
            vec![local, nv2, nv1, local],
            vec![host, host],
            vec![0, 0],
            vec![0],
            Vec::new(),
            1,
            None,
            None,
        );
        assert!(t.is_err());
    }

    #[test]
    fn perf_rank_is_bandwidth_ladder_position() {
        let t = tiny();
        // Ladder: {NVLINK2, DEVICE_MEMORY} → peer rank 0, local rank 1.
        assert_eq!(t.perf_rank(0, 1), 0);
        assert_eq!(t.perf_rank(0, 0), 1);
    }

    #[test]
    fn route_ref_matches_route() {
        let t = crate::dgx1();
        let n = t.n_gpus();
        let devices: Vec<Device> = (0..n).map(Device::Gpu).chain([Device::Host]).collect();
        for &s in &devices {
            for &d in &devices {
                assert_eq!(*t.route_ref(s, d), t.route(s, d), "{s}->{d}");
            }
        }
    }

    #[test]
    fn fingerprint_distinguishes_topologies() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_ne!(a.fingerprint(), crate::dgx1().fingerprint());
    }

    #[test]
    fn fingerprint_memo_equals_a_fresh_hash() {
        for t in crate::fabrics::gallery() {
            assert!(t.fingerprint.get().is_none(), "{}: memo is lazy", t.name());
            let fp = t.fingerprint();
            assert_eq!(fp, t.hash_tables(), "{}", t.name());
            assert_eq!(t.fingerprint.get(), Some(&fp));
            assert_eq!(t.clone().fingerprint(), fp);
            let same = t.map_gpu_links(t.name(), |_, _, l| *l).unwrap();
            assert!(
                same.fingerprint.get().is_none(),
                "surgery starts unmemoised"
            );
            assert_eq!(same.fingerprint(), fp);
            let halved = |a, b, l: &LinkSpec| LinkSpec {
                bandwidth: if (a, b) == (0, 1) {
                    l.bandwidth / 2.0
                } else {
                    l.bandwidth
                },
                ..*l
            };
            let cut = t.map_gpu_links(t.name(), halved).unwrap();
            assert_ne!(cut.fingerprint(), fp, "{}: one-link surgery", t.name());
        }
    }

    #[test]
    fn map_gpu_links_rewrites_pairs_symmetrically() {
        let t = crate::dgx1();
        let pcie = LinkSpec::new(LinkClass::Pcie, bw::PCIE_P2P);
        let cut = t
            .map_gpu_links("dgx1-cut01", |a, b, l| {
                if (a, b) == (0, 1) {
                    pcie
                } else {
                    *l
                }
            })
            .expect("surgery keeps the spec valid");
        assert_eq!(cut.gpu_link(0, 1).class, LinkClass::Pcie);
        assert_eq!(cut.gpu_link(1, 0).class, LinkClass::Pcie);
        // Everything else untouched, including the diagonal.
        assert_eq!(cut.gpu_link(0, 0).class, LinkClass::Local);
        assert_eq!(cut.gpu_link(2, 3).class, t.gpu_link(2, 3).class);
        assert_eq!(cut.nvlink_edges().len(), t.nvlink_edges().len() - 1);
        // Identity surgery reproduces the link tables bit-for-bit.
        let same = t.map_gpu_links("dgx1", |_, _, l| *l).unwrap();
        assert_eq!(same.fingerprint(), t.fingerprint());
    }
}
