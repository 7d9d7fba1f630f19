//! The engine fabric of the custom baseline drivers (cuBLAS-XT, SLATE): the
//! runtime's [`Machine`] engines and transfer rules, no cache or heuristics.

use xk_runtime::Machine;
use xk_sim::{Duration, EngineId, EnginePool, Reservation, SimTime};
use xk_topo::{Device, FabricSpec};
use xk_trace::{FlowId, Span, SpanKind, Trace};

/// The engine fabric of a custom baseline simulation.
pub(crate) struct Fabric<'t> {
    machine: Machine<'t>,
    pool: EnginePool,
    /// Recorded spans.
    pub trace: Trace,
}

impl<'t> Fabric<'t> {
    /// Builds the fabric of `topo`.
    pub(crate) fn new(topo: &'t FabricSpec) -> Self {
        let machine = Machine::new(topo);
        Fabric { pool: EnginePool::new(machine.n_engines()), machine, trace: Trace::new() }
    }

    /// Reserves a transfer between two GPUs or a GPU and the host from `at`
    /// on; `pitched` applies the `cudaMemcpy2D` derating on host routes.
    pub(crate) fn transfer(
        &mut self,
        src: Device,
        dst: Device,
        bytes: u64,
        at: SimTime,
        pitched: bool,
        label: &str,
    ) -> Reservation {
        let (kind, gpu, lane) = match (src, dst) {
            (Device::Host, Device::Gpu(g)) => (SpanKind::H2D, g, 0),
            (Device::Gpu(g), Device::Host) => (SpanKind::D2H, g, 2),
            (Device::Gpu(_), Device::Gpu(d)) => (SpanKind::P2P, d, 0),
            (Device::Host, Device::Host) => unreachable!("no baseline copies host to host"),
        };
        let engines: Vec<EngineId> = self.machine.transfer_engines(src, dst).collect();
        let secs = self.machine.transfer_seconds(src, dst, bytes, pitched);
        let span = Span::on_gpu(gpu, lane, kind, bytes, self.trace.intern(label), FlowId::NONE);
        self.record(&engines, at, secs, span)
    }

    /// Reserves a kernel of `secs` on `gpu`'s compute engine from `at` on.
    pub(crate) fn kernel(
        &mut self,
        gpu: usize,
        at: SimTime,
        secs: f64,
        label: &str,
    ) -> Reservation {
        let label = self.trace.intern(label);
        let span = Span::on_gpu(gpu, 3, SpanKind::Kernel, 0, label, FlowId::NONE);
        self.record(&[self.machine.kernel(gpu)], at, secs, span)
    }

    fn record(&mut self, engines: &[EngineId], at: SimTime, secs: f64, span: Span) -> Reservation {
        let res = self.pool.reserve(engines, at, Duration::new(secs));
        self.trace.push(Span { start: res.start.seconds(), end: res.end.seconds(), ..span });
        res
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
        let r0 = f.transfer(Device::Host, Device::Gpu(0), 1 << 28, SimTime::ZERO, false, "a");
        let r1 = f.transfer(Device::Host, Device::Gpu(1), 1 << 28, SimTime::ZERO, false, "b");
        assert!(r1.start >= r0.end);
        // GPU 2 is on another switch: overlaps.
        let r2 = f.transfer(Device::Host, Device::Gpu(2), 1 << 28, SimTime::ZERO, false, "c");
        assert_eq!(r2.start, SimTime::ZERO);
        assert_eq!(f.trace.bytes_by_kind()[&SpanKind::H2D], 3 << 28);
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
        assert!((f.trace.makespan() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cross_node_transfers_contend_on_the_nics() {
        // Two P2P transfers between different GPU pairs that both cross
        // the inter-node link serialize on the shared NIC engines, while a
        // same-node transfer on untouched engines overlaps.
        let topo = xk_topo::fabrics::dual_node_ib(4);
        let mut f = Fabric::new(&topo);
        let r0 = f.transfer(Device::Gpu(0), Device::Gpu(4), 1 << 28, SimTime::ZERO, false, "a");
        let r1 = f.transfer(Device::Gpu(1), Device::Gpu(5), 1 << 28, SimTime::ZERO, false, "b");
        assert!(r1.start >= r0.end, "both cross the NICs: must serialize");
        let r2 = f.transfer(Device::Gpu(2), Device::Gpu(3), 1 << 28, SimTime::ZERO, false, "c");
        assert_eq!(r2.start, SimTime::ZERO, "same-node pair is unaffected");
    }

    #[test]
    fn pitched_transfers_are_slower() {
        let topo = dgx1();
        let mut f = Fabric::new(&topo);
        let plain = f.transfer(Device::Host, Device::Gpu(4), 1 << 28, SimTime::ZERO, false, "p");
        let t_plain = plain.end.seconds() - plain.start.seconds();
        let pitched = f.transfer(Device::Host, Device::Gpu(6), 1 << 28, SimTime::ZERO, true, "q");
        let t_pitched = pitched.end.seconds() - pitched.start.seconds();
        assert!(t_pitched > t_plain);
    }
}
