//! Trace spans: one timed operation on one engine of one device.

/// Category of a traced operation, matching the categories of the paper's
/// nvprof-based figures (Fig. 6, 7, 9).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum SpanKind {
    /// `CUDA memcpy HtoD` — host to device transfer.
    H2D,
    /// `CUDA memcpy DtoH` — device to host transfer.
    D2H,
    /// `CUDA memcpy PtoP` — device to device transfer.
    P2P,
    /// `GPU Kernel` — compute kernel execution.
    Kernel,
    /// Host-side work (e.g. Chameleon's LAPACK↔tile layout conversion).
    HostWork,
}

impl SpanKind {
    /// Label used in reports, matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::H2D => "CUDA memcpy HtoD",
            SpanKind::D2H => "CUDA memcpy DtoH",
            SpanKind::P2P => "CUDA memcpy PtoP",
            SpanKind::Kernel => "GPU Kernel",
            SpanKind::HostWork => "Host work",
        }
    }

    /// True for the three transfer kinds.
    pub fn is_transfer(self) -> bool {
        matches!(self, SpanKind::H2D | SpanKind::D2H | SpanKind::P2P)
    }

    /// All kinds, in report order.
    pub const ALL: [SpanKind; 5] = [
        SpanKind::D2H,
        SpanKind::H2D,
        SpanKind::P2P,
        SpanKind::Kernel,
        SpanKind::HostWork,
    ];
}

/// Location of a span: which device, or the host.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Place {
    /// Host CPU / main memory.
    Host,
    /// GPU with the given index.
    Gpu(u32),
}

impl std::fmt::Display for Place {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Place::Host => write!(f, "host"),
            Place::Gpu(i) => write!(f, "gpu{i}"),
        }
    }
}

/// A span label: an index into the owning [`crate::Trace`]'s symbol table.
///
/// Simulated executors record hundreds of thousands of spans whose labels
/// come from a fixed set of strings (tile coordinates, kernel names).
/// Storing a `u32` per span instead of a cloned `String` keeps the DES hot
/// loop allocation-free; the text is resolved once, at export, via
/// [`crate::Trace::label`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Label(pub u32);

impl Label {
    /// The empty label: resolves to `""` without occupying a table slot.
    pub const NONE: Label = Label(u32::MAX);
}

impl Default for Label {
    fn default() -> Self {
        Label::NONE
    }
}

/// A data-flow chain identifier linking the spans of one tile broadcast:
/// the H2D read that brought a tile on device, every device-to-device
/// forward of that copy, and the kernels that consumed it.
///
/// Flow ids are dense per trace (executors use the span index of the chain
/// root). [`FlowId::NONE`] marks spans that belong to no chain. The Chrome
/// `trace_event` export renders each chain as flow arrows, making the
/// optimistic D2D forwarding (paper §III-C) directly visible in a viewer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FlowId(pub u32);

impl FlowId {
    /// No flow membership.
    pub const NONE: FlowId = FlowId(u32::MAX);
}

impl Default for FlowId {
    fn default() -> Self {
        FlowId::NONE
    }
}

/// One timed operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Device the operation is attributed to. Transfers are attributed to
    /// their *destination* device (as nvprof attributes memcpys to the
    /// stream's device).
    pub place: Place,
    /// Engine lane within the device (e.g. `"h2d"`, `"kernel0"`), used to
    /// group spans into Gantt rows.
    pub lane: u8,
    /// Operation category.
    pub kind: SpanKind,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// Payload size for transfers, 0 for kernels.
    pub bytes: u64,
    /// Short description (kernel name, tile coordinates...), an index into
    /// the owning [`crate::Trace`]'s table — resolve with
    /// [`crate::Trace::label`].
    pub label: Label,
    /// Data-flow chain membership ([`FlowId::NONE`] when unlinked).
    pub flow: FlowId,
    /// What the operation acts on: the task id of a kernel span, the data
    /// handle id of a transfer span, [`Span::NO_SUBJECT`] when the recorder
    /// tracks neither. With it a checker replays a run's data flow from
    /// the trace alone.
    pub subject: u32,
    /// Source GPU of a P2P span (`place` is the destination);
    /// [`Span::NO_PEER`] on every other span.
    pub peer: u16,
}

impl Span {
    /// `subject` of a span that acts on no task or handle.
    pub const NO_SUBJECT: u32 = u32::MAX;
    /// `peer` of a span that is not a P2P transfer.
    pub const NO_PEER: u16 = u16::MAX;

    /// A span on GPU `gpu`, with no subject or peer, whose `start`/`end`
    /// are still to be filled in (executors take them from the engine
    /// reservation).
    pub fn on_gpu(
        gpu: usize,
        lane: u8,
        kind: SpanKind,
        bytes: u64,
        label: Label,
        flow: FlowId,
    ) -> Span {
        let place = Place::Gpu(gpu as u32);
        let (subject, peer) = (Span::NO_SUBJECT, Span::NO_PEER);
        Span { place, lane, kind, start: 0.0, end: 0.0, bytes, label, flow, subject, peer }
    }

    /// Span duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_match_paper_legend() {
        assert_eq!(SpanKind::H2D.label(), "CUDA memcpy HtoD");
        assert_eq!(SpanKind::Kernel.label(), "GPU Kernel");
        assert!(SpanKind::P2P.is_transfer());
        assert!(!SpanKind::Kernel.is_transfer());
    }

    #[test]
    fn duration_is_end_minus_start() {
        let s = Span {
            place: Place::Gpu(0),
            lane: 0,
            kind: SpanKind::Kernel,
            start: 1.0,
            end: 3.5,
            bytes: 0,
            label: Label::NONE,
            flow: FlowId::NONE,
            subject: Span::NO_SUBJECT,
            peer: Span::NO_PEER,
        };
        assert!((s.duration() - 2.5).abs() < 1e-12);
    }

    /// The subject and the peer live in what was the struct's padding: the
    /// span list of a large run costs no more than before they existed.
    #[test]
    fn span_stays_48_bytes() {
        assert_eq!(std::mem::size_of::<Span>(), 48);
    }

    #[test]
    fn label_none_is_default() {
        assert_eq!(Label::default(), Label::NONE);
        assert_ne!(Label(0), Label::NONE);
        assert_eq!(FlowId::default(), FlowId::NONE);
    }

    #[test]
    fn place_display() {
        assert_eq!(Place::Host.to_string(), "host");
        assert_eq!(Place::Gpu(3).to_string(), "gpu3");
    }
}
