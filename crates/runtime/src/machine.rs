//! The engine table of a fabric: which serially reusable engines a machine
//! has, which of them a transfer reserves, and for how long.
//!
//! Every model that charges a transfer to engines reads this one table:
//! the runtime executor ([`crate::SimExecutor`]), the custom baseline
//! drivers (cuBLAS-XT, SLATE) and the link LP of [`crate::bound`]. A
//! comparison between two of them — a library against XKBlas, a run
//! against its lower bound — therefore holds on the same links.
//!
//! **Id layout.** Per GPU `g`, in GPU order: `pcie_in`, `pcie_out`,
//! `kernel`. Then one uplink per PCIe switch, then the inter-socket link,
//! then the directed NVLink bricks in [`FabricSpec::nvlink_edges`] order
//! (`a->b` before `b->a`), then one NIC per node — present only when the
//! fabric has more than one node. NVSwitch peers have no brick: their
//! traffic rides the per-GPU copy engines.
//!
//! **Endpoint rule** for a transfer `src → dst`: host-to-device reserves
//! `pcie_in(dst)`, device-to-host `pcie_out(src)`, and device-to-device
//! the brick when one joins the pair, `pcie_out(src)` and `pcie_in(dst)`
//! otherwise. Every transfer also reserves the engines of its route's
//! [`BusSegment`]s.
//!
//! **Duration rule:** `latency + bytes / bw`, with the route's bandwidth
//! derated by [`PITCHED_COPY_FACTOR`] for pitched host↔GPU copies (device
//! copies are compacted tiles and run at full link bandwidth).

use xk_kernels::PITCHED_COPY_FACTOR;
use xk_sim::EngineId;
use xk_topo::{BusSegment, Device, FabricSpec, Route};

/// The engine table of one fabric (see the module docs).
#[derive(Debug)]
pub struct Machine<'a> {
    topo: &'a FabricSpec,
    /// Brick engine per ordered GPU pair, indexed `src * n + dst`; `None`
    /// where no dedicated NVLink joins the pair.
    bricks: Vec<Option<EngineId>>,
    /// Id of the first NIC engine (one past the last brick).
    first_nic: usize,
    n_engines: usize,
}

impl<'a> Machine<'a> {
    /// The engine table of `topo`.
    pub fn new(topo: &'a FabricSpec) -> Self {
        let n = topo.n_gpus();
        let mut next = 3 * n + topo.n_switches() + 1;
        let mut bricks = vec![None; n * n];
        for (a, b, _) in topo.nvlink_edges() {
            bricks[a * n + b] = Some(EngineId(next));
            bricks[b * n + a] = Some(EngineId(next + 1));
            next += 2;
        }
        let nics = if topo.n_nodes() > 1 {
            topo.n_nodes()
        } else {
            0
        };
        Machine {
            topo,
            bricks,
            first_nic: next,
            n_engines: next + nics,
        }
    }

    /// The fabric this table was derived from.
    pub(crate) fn topo(&self) -> &'a FabricSpec {
        self.topo
    }

    /// Number of engines; ids run `0..n_engines()`.
    pub fn n_engines(&self) -> usize {
        self.n_engines
    }

    /// Inbound PCIe copy engine of GPU `g` (host reads, PCIe peer traffic).
    pub(crate) fn pcie_in(&self, g: usize) -> EngineId {
        EngineId(3 * g)
    }

    /// Outbound PCIe copy engine of GPU `g` (write-backs, PCIe peer traffic).
    pub(crate) fn pcie_out(&self, g: usize) -> EngineId {
        EngineId(3 * g + 1)
    }

    /// Compute engine of GPU `g`: CUDA streams share the SMs, so
    /// concurrent kernels time-share one engine.
    pub fn kernel(&self, g: usize) -> EngineId {
        EngineId(3 * g + 2)
    }

    /// The directed NVLink brick `src -> dst`, if the pair has one.
    pub(crate) fn brick(&self, src: usize, dst: usize) -> Option<EngineId> {
        self.bricks[src * self.topo.n_gpus() + dst]
    }

    /// The engines not owned by one GPU — uplinks, inter-socket, bricks,
    /// NICs — in id order.
    pub(crate) fn fabric_engines(&self) -> impl Iterator<Item = EngineId> {
        (3 * self.topo.n_gpus()..self.n_engines).map(EngineId)
    }

    fn segment(&self, s: BusSegment) -> EngineId {
        let uplinks = 3 * self.topo.n_gpus();
        EngineId(match s {
            BusSegment::HostUplink(sw) => uplinks + sw,
            BusSegment::InterSocket => uplinks + self.topo.n_switches(),
            BusSegment::InterNode(nd) => self.first_nic + nd,
        })
    }

    /// The engines a `src → dst` transfer reserves: its endpoint engines,
    /// then its route's segments.
    pub fn transfer_engines(
        &self,
        src: Device,
        dst: Device,
    ) -> impl Iterator<Item = EngineId> + '_ {
        let endpoints = match (src, dst) {
            (Device::Host, Device::Gpu(d)) => [Some(self.pcie_in(d)), None],
            (Device::Gpu(s), Device::Host) => [Some(self.pcie_out(s)), None],
            (Device::Gpu(s), Device::Gpu(d)) => match self.brick(s, d) {
                Some(brick) => [Some(brick), None],
                None => [Some(self.pcie_out(s)), Some(self.pcie_in(d))],
            },
            (Device::Host, Device::Host) => [None, None],
        };
        let segments = self.topo.route_ref(src, dst).segments.iter();
        endpoints
            .into_iter()
            .flatten()
            .chain(segments.map(|&s| self.segment(s)))
    }

    /// Seconds a `src → dst` transfer of `bytes` holds its engines: the
    /// route's latency plus its wire time (`bytes / bw`, derated for a
    /// `pitched` host↔GPU copy).
    pub fn transfer_seconds(&self, src: Device, dst: Device, bytes: u64, pitched: bool) -> f64 {
        let route = self.topo.route_ref(src, dst);
        route.latency + wire(route, bytes, pitched && src.is_host() != dst.is_host())
    }

    /// `bytes / bw` of a `src → dst` transfer, without latency; `pitched`
    /// derates host↔GPU routes only.
    pub(crate) fn wire_seconds(&self, src: Device, dst: Device, bytes: u64, pitched: bool) -> f64 {
        let route = self.topo.route_ref(src, dst);
        wire(route, bytes, pitched && src.is_host() != dst.is_host())
    }

    /// Display name of engine `id` (`"gpu3.pcie_in"`, `"switch0.uplink"`,
    /// `"intersocket"`, `"nvlink0->3"`, `"node1.nic"`), rendered on demand.
    pub fn name(&self, id: EngineId) -> String {
        let (n, i) = (self.topo.n_gpus(), id.0);
        let uplinks = 3 * n;
        let intersocket = uplinks + self.topo.n_switches();
        if i < uplinks {
            let path = ["pcie_in", "pcie_out", "kernel"][i % 3];
            format!("gpu{}.{path}", i / 3)
        } else if i < intersocket {
            format!("switch{}.uplink", i - uplinks)
        } else if i == intersocket {
            "intersocket".to_string()
        } else if i < self.first_nic {
            let pair = self
                .bricks
                .iter()
                .position(|&b| b == Some(id))
                .expect("brick id");
            format!("nvlink{}->{}", pair / n, pair % n)
        } else {
            format!("node{}.nic", i - self.first_nic)
        }
    }
}

fn wire(route: &Route, bytes: u64, derate: bool) -> f64 {
    let mut bw = route.bandwidth;
    if derate {
        bw *= PITCHED_COPY_FACTOR;
    }
    bytes as f64 / bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use xk_topo::fabrics::{dgx2, dual_node_ib, gallery, pcie_box};

    fn names(m: &Machine) -> Vec<String> {
        (0..m.n_engines()).map(|i| m.name(EngineId(i))).collect()
    }

    /// FNV-1a over the names joined by newlines.
    fn digest(names: &[String]) -> u64 {
        names
            .join("\n")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// The names, in id order, that the executor registered one `format!`
    /// at a time before the table existed — the strings every `ObsReport`
    /// and `run_all --small` hot-link summary prints.
    #[test]
    fn names_match_the_historical_engine_registration() {
        let topo = xk_topo::dgx1();
        let mut want: Vec<String> = (0..8)
            .flat_map(|g| ["pcie_in", "pcie_out", "kernel"].map(|p| format!("gpu{g}.{p}")))
            .collect();
        want.extend((0..4).map(|s| format!("switch{s}.uplink")));
        want.push("intersocket".into());
        let edges = [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 3),
            (1, 5),
            (2, 3),
            (2, 6),
            (3, 7),
            (4, 5),
            (4, 6),
            (4, 7),
            (5, 6),
            (5, 7),
            (6, 7),
        ];
        for (a, b) in edges {
            want.extend([format!("nvlink{a}->{b}"), format!("nvlink{b}->{a}")]);
        }
        assert_eq!(names(&Machine::new(&topo)), want);

        let mut all = gallery();
        all.extend([dgx2(1), dgx2(2), dgx2(4), pcie_box(1), pcie_box(2)]);
        let pinned: [(&str, usize, u64); 9] = [
            ("dgx1", 61, 0xb295_6a9a_1592_2fa8),
            ("dgx2-16", 57, 0x4ce2_3f9b_c8b3_0146),
            ("pcie-box-4", 14, 0x2e45_1d3f_0038_7d57),
            ("dual-node-4x2", 55, 0x573f_0fc9_56d8_80ff),
            ("dgx2-1", 5, 0xb6c5_8faf_358c_24cd),
            ("dgx2-2", 8, 0x1f18_4e9f_e167_20fe),
            ("dgx2-4", 15, 0x85a8_9ed5_7071_082b),
            ("pcie-box-1", 5, 0xb6c5_8faf_358c_24cd),
            ("pcie-box-2", 8, 0x1f18_4e9f_e167_20fe),
        ];
        for (topo, (name, count, fnv)) in all.iter().zip(pinned) {
            let got = names(&Machine::new(topo));
            assert_eq!((topo.name(), got.len(), digest(&got)), (name, count, fnv));
        }
    }

    #[test]
    fn endpoint_rule() {
        let topo = xk_topo::dgx1();
        let m = Machine::new(&topo);
        let engines = |src, dst| {
            m.transfer_engines(src, dst)
                .map(|e| m.name(e))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            engines(Device::Host, Device::Gpu(2)),
            ["gpu2.pcie_in", "switch1.uplink"]
        );
        assert_eq!(
            engines(Device::Gpu(5), Device::Host),
            ["gpu5.pcie_out", "switch2.uplink"]
        );
        assert_eq!(engines(Device::Gpu(0), Device::Gpu(3)), ["nvlink0->3"]);
        assert_eq!(engines(Device::Gpu(3), Device::Gpu(0)), ["nvlink3->0"]);
        assert_eq!(
            engines(Device::Gpu(0), Device::Gpu(5)),
            [
                "gpu0.pcie_out",
                "gpu5.pcie_in",
                "switch0.uplink",
                "switch2.uplink",
                "intersocket"
            ]
        );
        // NVSwitch peers have no brick: they use the per-GPU copy engines.
        let topo = dgx2(4);
        let m = Machine::new(&topo);
        let got: Vec<EngineId> = m.transfer_engines(Device::Gpu(1), Device::Gpu(2)).collect();
        assert_eq!(got, [m.pcie_out(1), m.pcie_in(2)]);
        // Inter-node routes hold both NICs.
        let topo = dual_node_ib(4);
        let m = Machine::new(&topo);
        let names = m
            .transfer_engines(Device::Gpu(0), Device::Gpu(4))
            .map(|e| m.name(e));
        let nics: Vec<String> = names.filter(|s| s.ends_with(".nic")).collect();
        assert_eq!(nics, ["node0.nic", "node1.nic"]);
    }

    #[test]
    fn duration_rule_derates_only_pitched_host_copies() {
        let topo = xk_topo::dgx1();
        let m = Machine::new(&topo);
        let bytes = 1 << 28;
        let (host, gpu) = (Device::Host, Device::Gpu(0));
        let route = topo.route_ref(host, gpu);
        let plain = m.transfer_seconds(host, gpu, bytes, false);
        assert_eq!(plain, route.latency + bytes as f64 / route.bandwidth);
        let derated = bytes as f64 / (route.bandwidth * PITCHED_COPY_FACTOR);
        assert_eq!(
            m.transfer_seconds(gpu, host, bytes, true),
            route.latency + derated
        );
        assert_eq!(m.wire_seconds(host, gpu, bytes, true), derated);
        // Device copies ignore the pitch.
        let (a, b) = (Device::Gpu(0), Device::Gpu(3));
        assert_eq!(
            m.transfer_seconds(a, b, bytes, true),
            m.transfer_seconds(a, b, bytes, false)
        );
    }
}
