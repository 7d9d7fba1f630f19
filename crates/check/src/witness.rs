//! The differential oracle: a semantic shadow execution of a run's trace.
//!
//! [`check`] reads every H2D/P2P/D2H transfer and every kernel of a
//! simulated run from its [`Trace`] — the span's task or handle
//! (`subject`), its GPU (`place`, and `peer` for the source of a P2P copy)
//! and its simulated start/end — and replays that data flow over *shadow
//! values*: each `(location, handle)` replica carries a `u64` value,
//! transfers copy the source value sampled at transfer start into the
//! destination at transfer end, and kernels fold their sampled input values
//! (plus the task id) into every written replica. The shadow values the
//! schedule actually produces are compared against a serial single-stream
//! reference (topological task order, host-only values) — the executor
//! equivalent of comparing output tiles bit for bit, at a cost independent
//! of tile size.
//!
//! What this catches, for *any* explored schedule:
//! - stale reads (a kernel consuming a replica that missed an
//!   invalidation),
//! - lost or misrouted forwards (optimistic D2D delivering the wrong
//!   version),
//! - use-before-arrival (a kernel starting before its input transfer
//!   committed — the sampled value is the pre-transfer one, or missing),
//! - wrong write-back (a flush racing the kernel that produces the final
//!   version).
//!
//! The witness is defined for fault-free runs only: under an injected link
//! fault the trace also holds the spans of transfers that delivered
//! poison. The exploration loops never get that far — their structural
//! check rejects any outcome with task failures first.

use xk_lp::SplitMix64;
use xk_runtime::{HandleId, TaskGraph, TaskId, TaskKind};
use xk_topo::Device;
use xk_trace::{Place, Span, SpanKind, Trace};

/// Value mixer for shadow state: collision-resistant enough that a stale
/// version virtually never aliases the correct one.
fn mix(a: u64, b: u64) -> u64 {
    SplitMix64::new(a.rotate_left(29) ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Initial shadow value of handle `h`.
fn initial_value(h: usize) -> u64 {
    mix(0xD1EA_5EED, h as u64)
}

/// What one span does to the shadow state, decoded from its kind, place,
/// subject and peer.
#[derive(Clone, Copy)]
enum Op {
    H2d { h: usize, dst: usize },
    P2p { h: usize, src: usize, dst: usize },
    D2h { h: usize, src: usize },
    Kernel { t: usize, gpu: usize },
}

impl Op {
    /// The data-flow operation of `s`; `None` for host-side work.
    fn of(s: &Span) -> Option<Op> {
        let Place::Gpu(g) = s.place else { return None };
        let (g, x) = (g as usize, s.subject as usize);
        Some(match s.kind {
            SpanKind::H2D => Op::H2d { h: x, dst: g },
            SpanKind::P2P => Op::P2p { h: x, src: s.peer as usize, dst: g },
            SpanKind::D2H => Op::D2h { h: x, src: g },
            SpanKind::Kernel => Op::Kernel { t: x, gpu: g },
            SpanKind::HostWork => return None,
        })
    }

    /// Highest GPU index the operation touches.
    fn max_gpu(self) -> usize {
        match self {
            Op::H2d { dst: g, .. } | Op::D2h { src: g, .. } | Op::Kernel { gpu: g, .. } => g,
            Op::P2p { src, dst, .. } => src.max(dst),
        }
    }
}

/// A witness failure: the schedule produced values the serial reference
/// does not.
#[derive(Clone, Debug, PartialEq)]
pub enum WitnessError {
    /// An operation consumed a replica no transfer or kernel ever
    /// established at that location.
    UseBeforeArrival {
        /// Handle read.
        handle: usize,
        /// Location read (`None` = host, `Some(g)` = GPU `g`).
        gpu: Option<usize>,
        /// What read it ("kernel task 3", "p2p", ...).
        reader: String,
        /// Simulated time of the read.
        at: f64,
    },
    /// The last kernel-written value of a handle differs from the serial
    /// reference — some input along the way was stale.
    FinalMismatch {
        /// Handle with the wrong final value.
        handle: usize,
        /// Value the schedule produced.
        got: u64,
        /// Value the serial reference produces.
        want: u64,
    },
    /// A write-back left host memory holding a non-final version.
    HostMismatch {
        /// Handle whose host copy is wrong.
        handle: usize,
        /// Host value after the run.
        got: u64,
        /// Expected final reference value.
        want: u64,
    },
}

impl std::fmt::Display for WitnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WitnessError::UseBeforeArrival { handle, gpu, reader, at } => write!(
                f,
                "handle {handle} read at {} by {reader} at t={at:.9}s before any value arrived",
                gpu.map_or("host".into(), |g| format!("gpu{g}"))
            ),
            WitnessError::FinalMismatch { handle, got, want } => write!(
                f,
                "final value of handle {handle} is {got:#x}, reference says {want:#x} (stale input upstream)"
            ),
            WitnessError::HostMismatch { handle, got, want } => write!(
                f,
                "host copy of handle {handle} is {got:#x} after write-back, reference says {want:#x}"
            ),
        }
    }
}

/// Replays the data flow of `trace`, the trace of a fault-free simulated
/// run of `graph`, over shadow values and compares the outcome against the
/// serial single-stream reference for `graph`.
///
/// Checks, per handle: the last kernel-committed value equals the
/// reference's final value, and — when a write-back to host happened after
/// that last kernel — the host copy does too. Handles never written by a
/// kernel are exempt from the final check (their value is the initial one
/// by construction).
pub fn check(graph: &TaskGraph, trace: &Trace) -> Result<(), WitnessError> {
    let reference = serial_reference(graph);
    let spans = trace.spans();
    let n_h = graph.data().len();
    let initial = |h| graph.data().info(HandleId(h)).initial;
    let n_gpus = (0..n_h)
        .filter_map(|h| match initial(h) {
            Device::Gpu(g) => Some(g),
            Device::Host => None,
        })
        .chain(spans.iter().filter_map(Op::of).map(Op::max_gpu))
        .max()
        .map_or(0, |g| g + 1);

    // Shadow state: `host[h]` and `dev[g * n_h + h]`, `None` where no
    // value has arrived. Host starts holding every host-resident tile;
    // device-resident tiles (the paper's Fig. 4 protocol) start on their
    // initial GPU instead.
    let mut host: Vec<Option<u64>> = vec![None; n_h];
    let mut dev: Vec<Option<u64>> = vec![None; n_gpus * n_h];
    for h in 0..n_h {
        match initial(h) {
            Device::Host => host[h] = Some(initial_value(h)),
            Device::Gpu(g) => dev[g * n_h + h] = Some(initial_value(h)),
        }
    }

    // Interleave sample (at start) and commit (at end) actions of all
    // spans in time order; at equal times commits land before samples (a
    // kernel starting exactly when its input transfer ends must see the
    // transferred value), span order breaking the remaining ties. An
    // instantaneous span samples just before its own commit, so it too
    // sees every earlier span's commit at that time.
    // Sort key after the time: (late sample?, span, commit?).
    let mut actions: Vec<(f64, bool, usize, bool)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        actions.push((s.start, s.start != s.end, i, false));
        actions.push((s.end, false, i, true));
    }
    actions.sort_unstable_by(|a, b| {
        a.0.total_cmp(&b.0).then_with(|| (a.1, a.2, a.3).cmp(&(b.1, b.2, b.3)))
    });

    // Per span: the sampled source value of a copy, or the output a kernel
    // folds from its sampled inputs; written at sample time, consumed at
    // commit time.
    let mut value = vec![0u64; spans.len()];
    // Last kernel-committed value per handle, in action order.
    let mut kernel_final: Vec<Option<u64>> = vec![None; n_h];
    // Handles whose host copy was refreshed after their last kernel.
    let mut host_after_kernel = vec![false; n_h];
    let missing = |handle, gpu, reader: String, at| WitnessError::UseBeforeArrival {
        handle,
        gpu,
        reader,
        at,
    };

    for (time, _, i, commit) in actions {
        let Some(op) = Op::of(&spans[i]) else { continue };
        match (commit, op) {
            (false, Op::H2d { h, .. }) => {
                value[i] = host[h].ok_or_else(|| missing(h, None, "h2d".into(), time))?;
            }
            (false, Op::P2p { h, src, .. }) => {
                value[i] =
                    dev[src * n_h + h].ok_or_else(|| missing(h, Some(src), "p2p".into(), time))?;
            }
            (false, Op::D2h { h, src }) => {
                value[i] =
                    dev[src * n_h + h].ok_or_else(|| missing(h, Some(src), "d2h".into(), time))?;
            }
            (false, Op::Kernel { t, gpu }) => {
                let mut out = mix(0xC0DE, t as u64);
                for h in graph.task(TaskId(t)).read_handles() {
                    let v = dev[gpu * n_h + h.0].ok_or_else(|| {
                        missing(h.0, Some(gpu), format!("kernel task {t}"), time)
                    })?;
                    out = mix(out, v);
                }
                value[i] = out;
            }
            (true, Op::H2d { h, dst } | Op::P2p { h, dst, .. }) => {
                dev[dst * n_h + h] = Some(value[i]);
            }
            (true, Op::D2h { h, .. }) => {
                host[h] = Some(value[i]);
                host_after_kernel[h] = true;
            }
            (true, Op::Kernel { t, gpu }) => {
                for h in graph.task(TaskId(t)).written_handles() {
                    dev[gpu * n_h + h.0] = Some(value[i]);
                    kernel_final[h.0] = Some(value[i]);
                    host_after_kernel[h.0] = false;
                }
            }
        }
    }

    // Lowest handle id first, so the reported mismatch is the same on
    // every replay of the same schedule.
    for h in 0..n_h {
        let Some(got) = kernel_final[h] else {
            continue;
        };
        let want = reference[h];
        if got != want {
            return Err(WitnessError::FinalMismatch { handle: h, got, want });
        }
        if host_after_kernel[h] {
            let hv = host[h].expect("host copy written");
            if hv != want {
                return Err(WitnessError::HostMismatch { handle: h, got: hv, want });
            }
        }
    }
    Ok(())
}

/// The serial single-stream reference: tasks in topological (id) order,
/// one value space (graph task ids are topologically sorted by
/// construction — dependencies always point backwards). Returns the final
/// value of every handle.
pub(crate) fn serial_reference(graph: &TaskGraph) -> Vec<u64> {
    let mut vals: Vec<u64> = (0..graph.data().len()).map(initial_value).collect();
    for t in 0..graph.len() {
        let task = graph.task(TaskId(t));
        if task.kind != TaskKind::Kernel {
            continue;
        }
        let out = task
            .read_handles()
            .fold(mix(0xC0DE, t as u64), |acc, h| mix(acc, vals[h.0]));
        for h in task.written_handles() {
            vals[h.0] = out;
        }
    }
    vals
}

#[cfg(test)]
mod tests {
    use super::*;
    use xk_kernels::perfmodel::TileOp;
    use xk_runtime::{Access, TaskAccess};
    use xk_trace::{FlowId, Label};

    /// A `kind` span on GPU `gpu` acting on `subject` over `[start, end]`.
    fn span(kind: SpanKind, subject: u32, gpu: u32, (start, end): (f64, f64)) -> Span {
        let (label, flow, peer) = (Label::NONE, FlowId::NONE, Span::NO_PEER);
        let place = Place::Gpu(gpu);
        Span { place, lane: 0, kind, start, end, bytes: 64, label, flow, subject, peer }
    }
    fn h2d(h: u32, dst: u32, at: (f64, f64)) -> Span {
        span(SpanKind::H2D, h, dst, at)
    }
    fn p2p(h: u32, src: u16, dst: u32, at: (f64, f64)) -> Span {
        Span { peer: src, ..span(SpanKind::P2P, h, dst, at) }
    }
    fn d2h(h: u32, src: u32, at: (f64, f64)) -> Span {
        span(SpanKind::D2H, h, src, at)
    }
    fn kernel(t: u32, gpu: u32, at: (f64, f64)) -> Span {
        span(SpanKind::Kernel, t, gpu, at)
    }

    /// The witness verdict on a trace of `spans`, in recording order.
    fn verdict(graph: &TaskGraph, spans: impl IntoIterator<Item = Span>) -> Result<(), WitnessError> {
        let mut trace = Trace::new();
        spans.into_iter().for_each(|s| trace.push(s));
        check(graph, &trace)
    }

    /// A graph of host tiles `0..n_tiles` and one task per `accesses` entry.
    fn graph(n_tiles: usize, tasks: &[&[(usize, Access)]]) -> TaskGraph {
        let mut g = TaskGraph::new();
        for h in 0..n_tiles {
            g.add_host_tile(64, false, format!("h{h}"));
        }
        for (t, accesses) in tasks.iter().enumerate() {
            let accesses: Vec<TaskAccess> = accesses
                .iter()
                .map(|&(h, access)| TaskAccess { handle: HandleId(h), access })
                .collect();
            g.add_task(TileOp::Gemm { m: 8, n: 8, k: 8 }, accesses, format!("t{t}"));
        }
        g.finalize();
        g
    }

    /// One tile, one task updating it.
    fn one_update() -> TaskGraph {
        graph(1, &[&[(0, Access::ReadWrite)]])
    }

    #[test]
    fn mix_separates_versions() {
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(initial_value(0), initial_value(1));
    }

    #[test]
    fn empty_run_on_empty_graph_passes() {
        assert_eq!(verdict(&graph(0, &[]), []), Ok(()));
    }

    #[test]
    fn hand_built_correct_flow_passes_and_stale_read_fails() {
        // t0 writes h0; t1 reads h0 and writes h1.
        let g = graph(2, &[&[(0, Access::ReadWrite)], &[(1, Access::ReadWrite), (0, Access::Read)]]);

        // Correct flow on one GPU: h2d both tiles, run t0 then t1.
        let loads = [h2d(0, 0, (0.0, 1.0)), h2d(1, 0, (0.0, 1.0))];
        let run = [kernel(0, 0, (1.0, 2.0)), kernel(1, 0, (2.0, 3.0))];
        assert_eq!(verdict(&g, loads.iter().chain(&run).cloned()), Ok(()));

        // Stale read: t1 samples h0 at t=2.0, before t0 commits at 2.5.
        let overlap = [kernel(0, 0, (1.0, 2.5)), kernel(1, 0, (2.0, 3.0))];
        match verdict(&g, loads.iter().chain(&overlap).cloned()) {
            Err(WitnessError::FinalMismatch { handle: 1, .. }) => {}
            other => panic!("want FinalMismatch on h1, got {other:?}"),
        }

        // Use before arrival: kernel on a GPU that never received h0.
        match verdict(&g, [h2d(1, 1, (0.0, 1.0)), kernel(1, 1, (1.0, 2.0))]) {
            Err(WitnessError::UseBeforeArrival { handle: 0, .. }) => {}
            other => panic!("want UseBeforeArrival on h0, got {other:?}"),
        }
    }

    #[test]
    fn commit_at_sample_time_is_visible() {
        // A kernel starting exactly when its transfer ends sees the value.
        let spans = [h2d(0, 0, (0.0, 1.0)), kernel(0, 0, (1.0, 2.0))];
        assert_eq!(verdict(&one_update(), spans), Ok(()));
    }

    #[test]
    fn zero_duration_event_samples_before_it_commits() {
        // An instantaneous H2D: its own sample must precede its commit,
        // and the kernel starting at that instant sees the value.
        let spans = [h2d(0, 0, (1.0, 1.0)), kernel(0, 0, (1.0, 2.0))];
        assert_eq!(verdict(&one_update(), spans), Ok(()));
    }

    #[test]
    fn wrong_writeback_is_flagged() {
        let g = one_update();
        let run = [h2d(0, 0, (0.0, 1.0)), kernel(0, 0, (1.0, 2.0))];
        // The write-back samples at t=0.5, before the h2d commits at 1.0.
        match verdict(&g, run.iter().cloned().chain([d2h(0, 0, (0.5, 2.5))])) {
            Err(WitnessError::UseBeforeArrival { .. }) => {}
            other => panic!("want UseBeforeArrival, got {other:?}"),
        }
        // The write-back samples between the h2d and the kernel commits:
        // host ends with the pre-kernel value.
        match verdict(&g, run.iter().cloned().chain([d2h(0, 0, (1.5, 2.5))])) {
            Err(WitnessError::HostMismatch { handle: 0, .. }) => {}
            other => panic!("want HostMismatch, got {other:?}"),
        }
    }

    #[test]
    fn a_forward_carries_the_value_to_its_destination() {
        let spans = [h2d(0, 0, (0.0, 1.0)), p2p(0, 0, 1, (1.0, 2.0)), kernel(0, 1, (2.0, 3.0))];
        assert_eq!(verdict(&one_update(), spans), Ok(()));
    }

    #[test]
    fn a_forward_reads_its_source_gpu() {
        // The forward samples gpu0 at t=0.5, before gpu0's h2d commits:
        // the missing replica is named on the *source*, read from `peer`.
        let spans = [h2d(0, 0, (0.0, 1.0)), p2p(0, 0, 1, (0.5, 1.5)), kernel(0, 1, (1.5, 2.5))];
        match verdict(&one_update(), spans) {
            Err(WitnessError::UseBeforeArrival { handle: 0, gpu: Some(0), .. }) => {}
            other => panic!("want UseBeforeArrival on gpu0, got {other:?}"),
        }
    }
}
