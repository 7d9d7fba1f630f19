//! # xk-topo — multi-GPU fabric descriptions
//!
//! Models the communication fabric of a multi-GPU platform as a general
//! [`FabricSpec`]: point-to-point links with class/bandwidth/latency, PCIe
//! switches with shared host uplinks, the inter-socket link, non-blocking
//! NVSwitch tiers, and node boundaries joined by NIC/IB links. The DGX-1
//! hybrid cube mesh of the paper ([`dgx1`]) is one instance of the schema —
//! declared through the same [`FabricBuilder`] as the NVSwitch, PCIe-only
//! and two-node machines in the [`fabrics`] gallery.
//!
//! Two queries drive the paper's heuristics:
//!
//! * [`FabricSpec::perf_rank`] — the P2P performance rank between two GPUs
//!   (the model of `cuDeviceGetP2PAttribute` that the topology-aware source
//!   selection consumes), derived from the fabric's own ladder of link
//!   bandwidths rather than hard-coded link classes.
//! * [`FabricSpec::route`] — the end-to-end bandwidth/latency of a transfer
//!   plus the *shared bus segments* it crosses, which the simulated
//!   executor turns into engine reservations so that PCIe (and NIC)
//!   contention is physical, not statistical.
//!
//! ```
//! use xk_topo::{dgx1, Device};
//!
//! let t = dgx1();
//! // GPU0-GPU3 have a double NVLink: the preferred source for GPU3.
//! assert_eq!(t.perf_rank(0, 3), 2);
//! // Host->GPU crosses the GPU's PCIe switch uplink (shared by two GPUs).
//! let route = t.route(Device::Host, Device::Gpu(0));
//! assert_eq!(route.segments.len(), 1);
//! ```

#![warn(missing_docs)]

mod builder;
pub mod builders;
mod dgx1;
mod fabric;
pub mod fabrics;
mod link;

pub use builder::FabricBuilder;
pub use dgx1::{dgx1, DGX1_NVLINK1_EDGES, DGX1_NVLINK2_EDGES, DGX1_TABLE1};
pub use fabric::{BusSegment, Device, FabricSpec, LinkSpec, Route, SwitchTier};
pub use link::{bw, LinkClass};
