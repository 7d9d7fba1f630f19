//! A bare engine fabric for the custom baseline drivers (cuBLAS-XT, SLATE)
//! that do not use the task runtime: the same per-GPU copy engines, kernel
//! streams and shared PCIe uplinks as `xk_runtime::sim_exec`, without any
//! software cache or heuristics.

use xk_sim::{Duration, EngineId, EnginePool, Reservation, SimTime};
use xk_topo::{BusSegment, Device, FabricSpec};
use xk_trace::{FlowId, Place, Span, SpanKind, Trace};

/// The engine fabric of a custom baseline simulation.
pub struct Fabric {
    pool: EnginePool,
    per_gpu_in: Vec<EngineId>,
    per_gpu_out: Vec<EngineId>,
    /// One compute engine per GPU: CUDA streams share the SMs.
    kernels: Vec<EngineId>,
    uplinks: Vec<EngineId>,
    intersocket: EngineId,
    /// One NIC engine per node (empty on single-node fabrics, keeping
    /// legacy engine tables bit-identical).
    nics: Vec<EngineId>,
    /// Recorded spans.
    pub trace: Trace,
    /// Byte counters (H2D, D2H, P2P).
    pub bytes: (u64, u64, u64),
}

impl Fabric {
    /// Builds the fabric of `topo`.
    pub fn new(topo: &FabricSpec) -> Self {
        let mut pool = EnginePool::new();
        let n = topo.n_gpus();
        let per_gpu_in = (0..n).map(|g| pool.add(format!("gpu{g}.in"))).collect();
        let per_gpu_out = (0..n).map(|g| pool.add(format!("gpu{g}.out"))).collect();
        let kernels = (0..n).map(|g| pool.add(format!("gpu{g}.kernel"))).collect();
        let uplinks = (0..topo.n_switches())
            .map(|s| pool.add(format!("switch{s}.uplink")))
            .collect();
        let intersocket = pool.add("intersocket");
        let nics = if topo.n_nodes() > 1 {
            (0..topo.n_nodes())
                .map(|nd| pool.add(format!("node{nd}.nic")))
                .collect()
        } else {
            Vec::new()
        };
        Fabric {
            pool,
            per_gpu_in,
            per_gpu_out,
            kernels,
            uplinks,
            intersocket,
            nics,
            trace: Trace::new(),
            bytes: (0, 0, 0),
        }
    }

    fn segments(&self, segs: &[BusSegment]) -> Vec<EngineId> {
        segs.iter()
            .map(|s| match s {
                BusSegment::HostUplink(sw) => self.uplinks[*sw],
                BusSegment::InterSocket => self.intersocket,
                BusSegment::InterNode(nd) => self.nics[*nd],
            })
            .collect()
    }

    /// Reserves a transfer between two devices; returns its window.
    /// `pitched` applies the `cudaMemcpy2D` derating on host routes.
    pub fn transfer(
        &mut self,
        topo: &FabricSpec,
        src: Device,
        dst: Device,
        bytes: u64,
        earliest: SimTime,
        pitched: bool,
        label: &str,
    ) -> Reservation {
        let route = topo.route(src, dst);
        let mut bw = route.bandwidth;
        if pitched {
            bw *= xk_kernels::PITCHED_COPY_FACTOR;
        }
        let dur = Duration::new(route.latency + bytes as f64 / bw);
        let mut engines = Vec::with_capacity(4);
        let (kind, place, lane) = match (src, dst) {
            (Device::Host, Device::Gpu(g)) => {
                engines.push(self.per_gpu_in[g]);
                (SpanKind::H2D, Place::Gpu(g as u32), 0)
            }
            (Device::Gpu(g), Device::Host) => {
                engines.push(self.per_gpu_out[g]);
                (SpanKind::D2H, Place::Gpu(g as u32), 2)
            }
            (Device::Gpu(s), Device::Gpu(d)) => {
                engines.push(self.per_gpu_out[s]);
                engines.push(self.per_gpu_in[d]);
                (SpanKind::P2P, Place::Gpu(d as u32), 0)
            }
            (Device::Host, Device::Host) => (SpanKind::H2D, Place::Host, 0),
        };
        engines.extend(self.segments(&route.segments));
        let res = self.pool.reserve(&engines, earliest, dur);
        match kind {
            SpanKind::H2D => self.bytes.0 += bytes,
            SpanKind::D2H => self.bytes.1 += bytes,
            SpanKind::P2P => self.bytes.2 += bytes,
            _ => {}
        }
        let label = self.trace.intern(label);
        self.trace.push(Span {
            place,
            lane,
            kind,
            start: res.start.seconds(),
            end: res.end.seconds(),
            bytes,
            label,
            flow: FlowId::NONE,
        });
        res
    }

    /// Reserves a kernel of `seconds` on `gpu`'s compute engine.
    pub fn kernel(
        &mut self,
        gpu: usize,
        earliest: SimTime,
        seconds: f64,
        label: &str,
    ) -> Reservation {
        let engine = [self.kernels[gpu]];
        let res = self.pool.reserve(&engine, earliest, Duration::new(seconds));
        let label = self.trace.intern(label);
        self.trace.push(Span {
            place: Place::Gpu(gpu as u32),
            lane: 3,
            kind: SpanKind::Kernel,
            start: res.start.seconds(),
            end: res.end.seconds(),
            bytes: 0,
            label,
            flow: FlowId::NONE,
        });
        res
    }

    /// The makespan recorded so far.
    pub fn makespan(&self) -> f64 {
        self.trace.makespan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xk_topo::dgx1;

    #[test]
    fn transfers_contend_on_shared_uplink() {
        let topo = dgx1();
        let mut f = Fabric::new(&topo);
        // GPUs 0 and 1 share switch 0: their H2D transfers serialize.
        let r0 = f.transfer(&topo, Device::Host, Device::Gpu(0), 1 << 28, SimTime::ZERO, false, "a");
        let r1 = f.transfer(&topo, Device::Host, Device::Gpu(1), 1 << 28, SimTime::ZERO, false, "b");
        assert!(r1.start >= r0.end);
        // GPU 2 is on another switch: overlaps.
        let r2 = f.transfer(&topo, Device::Host, Device::Gpu(2), 1 << 28, SimTime::ZERO, false, "c");
        assert_eq!(r2.start, SimTime::ZERO);
        assert_eq!(f.bytes.0, 3 << 28);
    }

    #[test]
    fn kernels_serialize_per_gpu() {
        // One compute engine per GPU: streams time-share the SMs, so two
        // kernels on gpu0 serialize, while another GPU overlaps freely.
        let topo = dgx1();
        let mut f = Fabric::new(&topo);
        let r0 = f.kernel(0, SimTime::ZERO, 1.0, "k0");
        let r1 = f.kernel(0, SimTime::ZERO, 1.0, "k1");
        let r2 = f.kernel(1, SimTime::ZERO, 1.0, "k2");
        assert_eq!(r1.start, r0.end);
        assert_eq!(r2.start, SimTime::ZERO);
        assert!((f.makespan() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cross_node_transfers_contend_on_the_nics() {
        // Two P2P transfers between different GPU pairs that both cross
        // the inter-node link serialize on the shared NIC engines, while a
        // same-node transfer on untouched engines overlaps.
        let topo = xk_topo::fabrics::dual_node_ib(4);
        let mut f = Fabric::new(&topo);
        let r0 = f.transfer(&topo, Device::Gpu(0), Device::Gpu(4), 1 << 28, SimTime::ZERO, false, "a");
        let r1 = f.transfer(&topo, Device::Gpu(1), Device::Gpu(5), 1 << 28, SimTime::ZERO, false, "b");
        assert!(r1.start >= r0.end, "both cross the NICs: must serialize");
        let r2 = f.transfer(&topo, Device::Gpu(2), Device::Gpu(3), 1 << 28, SimTime::ZERO, false, "c");
        assert_eq!(r2.start, SimTime::ZERO, "same-node pair is unaffected");
    }

    #[test]
    fn pitched_transfers_are_slower() {
        let topo = dgx1();
        let mut f = Fabric::new(&topo);
        let plain = f.transfer(&topo, Device::Host, Device::Gpu(4), 1 << 28, SimTime::ZERO, false, "p");
        let t_plain = plain.end.seconds() - plain.start.seconds();
        let pitched = f.transfer(&topo, Device::Host, Device::Gpu(6), 1 << 28, SimTime::ZERO, true, "q");
        let t_pitched = pitched.end.seconds() - pitched.start.seconds();
        assert!(t_pitched > t_plain);
    }
}
