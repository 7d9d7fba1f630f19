//! # xk-trace — execution traces for simulated runs
//!
//! Every simulated executor in this workspace records a [`Span`] per engine
//! operation (kernel, HtoD/DtoH/PtoP memcpy, host work). This crate holds
//! the container plus the aggregations that regenerate the paper's trace
//! figures:
//!
//! * [`Trace::breakdown`] — cumulated seconds per kind and the transfer
//!   ratio of Fig. 6.
//! * [`Trace::breakdown_per_device`] — the per-GPU stacked bars of Fig. 7.
//! * [`gantt::render`] — the ASCII Gantt chart standing in for Fig. 9.
//! * [`Trace::longest_global_gap`] — quantifies the synchronization holes
//!   visible in Chameleon's composition Gantt.
//!
//! Each [`Span`] stores a `u32` [`Label`] into the owning [`Trace`]'s
//! symbol table instead of a cloned `String`, keeping span recording
//! allocation-free in the DES hot loop: the table (a [`LabelTable`], every
//! text in one buffer) is shared in whole ([`Trace::with_labels`]) or grown
//! by [`Trace::intern`], and resolved at export ([`Trace::label`]). A span's `subject` names the task (kernels) or
//! data handle (transfers) it acts on, and `peer` the source GPU of a P2P
//! copy, so the trace alone carries a run's data flow.
//!
//! ```
//! use xk_trace::{Trace, Span, SpanKind, Place, FlowId};
//!
//! let mut trace = Trace::new();
//! let a00 = trace.intern("A(0,0)");
//! trace.push(Span { place: Place::Gpu(0), lane: 0, kind: SpanKind::H2D,
//!                   start: 0.0, end: 0.1, bytes: 1 << 20, label: a00,
//!                   flow: FlowId(0), subject: 0, peer: Span::NO_PEER });
//! let dgemm = trace.intern("dgemm");
//! trace.push(Span { place: Place::Gpu(0), lane: 1, kind: SpanKind::Kernel,
//!                   start: 0.1, end: 0.5, bytes: 0, label: dgemm,
//!                   flow: FlowId(0), subject: 0, peer: Span::NO_PEER });
//! assert!(trace.breakdown().transfer_ratio() < 0.5);
//! assert_eq!(trace.label(dgemm), "dgemm");
//! // One click in ui.perfetto.dev away:
//! let json = xk_trace::export::chrome_json(&trace);
//! assert!(json.contains("traceEvents"));
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod gantt;
mod labels;
mod span;
#[allow(clippy::module_inception)]
mod trace;

pub use gantt::GanttOptions;
pub use labels::LabelTable;
pub use span::{FlowId, Label, Place, Span, SpanKind};
pub use trace::{Breakdown, Trace};
