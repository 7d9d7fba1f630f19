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
//! of tile size. The exploration loops build one `Witness` per scenario
//! (serial reference, initial replica tables, per-task handle lists) and
//! check every schedule's trace against it; [`check`] builds one per call.
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

use std::sync::{Mutex, PoisonError};

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
    H2d { h: u32, dst: u32 },
    P2p { h: u32, src: u32, dst: u32 },
    D2h { h: u32, src: u32 },
    Kernel { t: u32, gpu: u32 },
}

impl Op {
    /// The data-flow operation of `s` in a run of a graph of `n_tasks`
    /// tasks and `n_handles` handles: `Ok(None)` for host-side work, `Err`
    /// saying what is out of range.
    fn of(s: &Span, n_tasks: usize, n_handles: usize) -> Result<Option<Op>, &'static str> {
        let Place::Gpu(g) = s.place else { return Ok(None) };
        if s.kind == SpanKind::HostWork {
            return Ok(None);
        }
        // The executor records GPUs in `u16` lanes; a larger index would
        // also size the shadow tables past memory.
        if g >= u32::from(Span::NO_PEER) {
            return Err("GPU index out of range");
        }
        let x = s.subject;
        let handle = if (x as usize) < n_handles {
            Ok(x)
        } else {
            Err("subject names no handle of the graph")
        };
        Ok(Some(match s.kind {
            SpanKind::H2D => Op::H2d { h: handle?, dst: g },
            SpanKind::P2P if s.peer == Span::NO_PEER => return Err("P2P span without a source GPU"),
            SpanKind::P2P => Op::P2p { h: handle?, src: u32::from(s.peer), dst: g },
            SpanKind::D2H => Op::D2h { h: handle?, src: g },
            SpanKind::Kernel if (x as usize) < n_tasks => Op::Kernel { t: x, gpu: g },
            SpanKind::Kernel => return Err("subject names no task of the graph"),
            SpanKind::HostWork => return Ok(None),
        }))
    }

    /// Highest GPU index the operation touches.
    fn max_gpu(self) -> u32 {
        match self {
            Op::H2d { dst: g, .. } | Op::D2h { src: g, .. } | Op::Kernel { gpu: g, .. } => g,
            Op::P2p { src, dst, .. } => src.max(dst),
        }
    }
}

/// Sort key of one replay action: the time in `f64::total_cmp` order as an
/// unsigned integer (every bit of a negative flipped, the sign bit of a
/// positive), then `late`, the step (numbered in span order) and `commit`.
/// Keys compare as the tuple `(time, late, step, commit)` does under
/// `total_cmp`, and none reaches `u128::MAX`.
fn action_key(time: f64, late: bool, step: usize, commit: bool) -> u128 {
    debug_assert!(step < (1 << 62) - 1, "step {step} does not fit the key");
    let bits = time.to_bits();
    let ordered = bits ^ ((((bits as i64) >> 63) as u64) | 1 << 63);
    u128::from(ordered) << 64 | u128::from(late) << 63 | (step as u128) << 1 | u128::from(commit)
}

/// The step and commit flag of an [`action_key`].
fn action_of(key: u128) -> (usize, bool) {
    let low = key as u64;
    (((low & !(1 << 63)) >> 1) as usize, low & 1 == 1)
}

/// The keys of two sorted lists that each end in a `u128::MAX` marker,
/// merged into one ascending sequence without the markers.
fn merged<'k>(samples: &'k [u128], commits: &'k [u128]) -> impl Iterator<Item = u128> + 'k {
    let (mut next_sample, mut next_commit) = (0, 0);
    (2..samples.len() + commits.len()).map(move |_| {
        let (sample, commit) = (samples[next_sample], commits[next_commit]);
        next_sample += usize::from(sample < commit);
        next_commit += usize::from(sample >= commit);
        sample.min(commit)
    })
}

/// Sorts `keys`, which are expected to be nearly sorted: an insertion sort
/// in time linear in the length plus the inversions, handing over to
/// `sort_unstable` once the inversions pass a few per key.
fn sort_nearly_sorted(keys: &mut [u128]) {
    let mut budget = 4 * keys.len();
    for i in 1..keys.len() {
        let key = keys[i];
        let mut j = i;
        while j > 0 && keys[j - 1] > key {
            keys[j] = keys[j - 1];
            j -= 1;
        }
        keys[j] = key;
        budget = match budget.checked_sub(i - j) {
            Some(b) => b,
            None => return keys.sort_unstable(),
        };
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
    /// A span the witness cannot replay against this graph: its subject
    /// names no task or handle of the graph (a trace of another graph, a
    /// span recorded without a subject), a P2P span names no source, or
    /// a GPU index is out of range.
    MalformedSpan {
        /// Index of the span in the trace.
        span: usize,
        /// What is out of range.
        reason: &'static str,
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
            WitnessError::MalformedSpan { span, reason } => {
                write!(f, "trace span {span} cannot be replayed: {reason}")
            }
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
/// by construction). A span whose task, handle or GPU is out of range for
/// `graph` is a [`WitnessError::MalformedSpan`].
pub fn check(graph: &TaskGraph, trace: &Trace) -> Result<(), WitnessError> {
    Witness::new(graph).check(trace)
}

/// One span that acts on the shadow state, decoded.
#[derive(Clone, Copy)]
struct Step {
    op: Op,
    start: f64,
    end: f64,
    /// The sampled source value of a copy, or the output a kernel folds
    /// from its sampled inputs: written at sample time, consumed at
    /// commit time.
    value: u64,
}

/// Working memory of one check. A witness keeps the scratch of finished
/// checks, so the checks of a scenario allocate only while their traces
/// still grow.
#[derive(Default)]
struct Scratch {
    steps: Vec<Step>,
    /// Action keys: the samples, an end marker, the commits, an end marker.
    keys: Vec<u128>,
    handles: Vec<HandleState>,
    /// Device replicas, `dev[g * n_h + h]`.
    dev: Vec<Option<u64>>,
}

/// Shadow state of one handle outside the device replicas.
#[derive(Clone, Copy)]
struct HandleState {
    /// Host replica; `None` until a value has arrived.
    host: Option<u64>,
    /// Last kernel-committed value, in action order.
    kernel_final: Option<u64>,
    /// The host copy was refreshed after the last kernel.
    host_after_kernel: bool,
}

/// Per-task handle lists in one flat slice: task `t`'s are
/// `items[at[t]..at[t + 1]]`.
struct Lists {
    at: Vec<u32>,
    items: Vec<u32>,
}

impl Lists {
    fn new() -> Self {
        Lists { at: vec![0], items: Vec::new() }
    }

    /// Appends the next task's list.
    fn push(&mut self, handles: impl Iterator<Item = HandleId>) {
        self.items.extend(handles.map(|h| h.0 as u32));
        self.at.push(self.items.len() as u32);
    }

    fn of(&self, t: usize) -> &[u32] {
        &self.items[self.at[t] as usize..self.at[t + 1] as usize]
    }
}

/// The witness of one graph: everything [`Witness::check`] reads that
/// depends on the graph alone, built once per explored scenario.
pub(crate) struct Witness {
    /// Final value of every handle under the serial reference.
    reference: Vec<u64>,
    /// Every handle's state before the run: the host holds each
    /// host-resident tile.
    handles: Vec<HandleState>,
    /// Device replicas before the run, `dev[g * n_h + h]` up to the
    /// highest GPU a tile starts on: each device-resident tile (the
    /// paper's Fig. 4 protocol) holds its value on its initial GPU.
    dev: Vec<Option<u64>>,
    /// GPUs `dev` covers.
    initial_gpus: usize,
    /// Value each task's kernel folds its sampled inputs into.
    kernel_seed: Vec<u64>,
    /// Handles each task reads.
    reads: Lists,
    /// Handles each task writes.
    writes: Lists,
    /// Working memory of the checks not running now.
    scratch: Mutex<Vec<Scratch>>,
}

impl Witness {
    /// The witness of `graph`, with its serial reference.
    pub(crate) fn new(graph: &TaskGraph) -> Self {
        let n_h = graph.data().len();
        let initial = |h| graph.data().info(HandleId(h)).initial;
        let initial_gpus = (0..n_h)
            .filter_map(|h| match initial(h) {
                Device::Gpu(g) => Some(g + 1),
                Device::Host => None,
            })
            .max()
            .unwrap_or(0);
        let empty = HandleState { host: None, kernel_final: None, host_after_kernel: false };
        let mut handles = vec![empty; n_h];
        let mut dev = vec![None; initial_gpus * n_h];
        for h in 0..n_h {
            match initial(h) {
                Device::Host => handles[h].host = Some(initial_value(h)),
                Device::Gpu(g) => dev[g * n_h + h] = Some(initial_value(h)),
            }
        }
        let (mut reads, mut writes) = (Lists::new(), Lists::new());
        for t in (0..graph.len()).map(TaskId) {
            let accesses = graph.accesses(t);
            reads.push(accesses.clone().filter(|a| a.access.reads()).map(|a| a.handle));
            writes.push(accesses.filter(|a| a.access.writes()).map(|a| a.handle));
        }
        let kernel_seed: Vec<u64> = (0..graph.len()).map(|t| mix(0xC0DE, t as u64)).collect();

        // The serial single-stream reference: tasks in topological (id)
        // order, one value space (graph task ids are topologically sorted
        // by construction — dependencies always point backwards).
        let mut reference: Vec<u64> = (0..n_h).map(initial_value).collect();
        for (t, &seed) in kernel_seed.iter().enumerate() {
            if graph.kind(TaskId(t)) != TaskKind::Kernel {
                continue;
            }
            let inputs = reads.of(t).iter().map(|&h| reference[h as usize]);
            let out = inputs.fold(seed, mix);
            for &h in writes.of(t) {
                reference[h as usize] = out;
            }
        }
        let scratch = Mutex::default();
        Witness { reference, handles, dev, initial_gpus, kernel_seed, reads, writes, scratch }
    }

    /// [`check`] of `trace` against the witness's graph.
    pub(crate) fn check(&self, trace: &Trace) -> Result<(), WitnessError> {
        let pool = || self.scratch.lock().unwrap_or_else(PoisonError::into_inner);
        let mut scratch = pool().pop().unwrap_or_default();
        let verdict = self.check_with(trace, &mut scratch);
        pool().push(scratch);
        verdict
    }

    /// [`Witness::check`] in the working memory `scratch`.
    fn check_with(&self, trace: &Trace, scratch: &mut Scratch) -> Result<(), WitnessError> {
        let spans = trace.spans();
        let n_h = self.handles.len();
        let mut n_gpus = self.initial_gpus;
        // One step per span that acts on the shadow state, in span order.
        // `keys` holds each step's sample (at start) action key, then a
        // `u128::MAX` end marker, then each step's commit (at end) key and
        // another end marker.
        let Scratch { steps, keys, handles, dev } = scratch;
        steps.clear();
        keys.clear();
        for (span, s) in spans.iter().enumerate() {
            let op = Op::of(s, self.kernel_seed.len(), n_h)
                .map_err(|reason| WitnessError::MalformedSpan { span, reason })?;
            let Some(op) = op else { continue };
            n_gpus = n_gpus.max(op.max_gpu() as usize + 1);
            keys.push(action_key(s.start, s.start != s.end, steps.len(), false));
            steps.push(Step { op, start: s.start, end: s.end, value: 0 });
        }
        keys.push(u128::MAX);
        for (i, step) in steps.iter().enumerate() {
            keys.push(action_key(step.end, false, i, true));
        }
        keys.push(u128::MAX);

        // Interleave sample and commit actions in time order; at equal
        // times commits land before samples (a kernel starting exactly
        // when its input transfer ends must see the transferred value),
        // span order breaking the remaining ties. An instantaneous span
        // samples just before its own commit, so it too sees every earlier
        // span's commit at that time. A run records its spans nearly in
        // start and in end order, so each half is sorted on its own and
        // the two are merged.
        let (samples, commits) = keys.split_at_mut(steps.len() + 1);
        sort_nearly_sorted(samples);
        sort_nearly_sorted(commits);

        // Shadow state: `handles[h].host` and `dev[g * n_h + h]`, `None`
        // where no value has arrived.
        handles.clone_from(&self.handles);
        dev.clear();
        dev.extend_from_slice(&self.dev);
        dev.resize(n_gpus * n_h, None);
        let missing = |handle: u32, gpu: Option<u32>, reader: String, at: f64| {
            WitnessError::UseBeforeArrival {
                handle: handle as usize,
                gpu: gpu.map(|g| g as usize),
                reader,
                at,
            }
        };
        let at = |g: u32, h: u32| g as usize * n_h + h as usize;

        for key in merged(samples, commits) {
            let (i, commit) = action_of(key);
            let Step { op, start, value, .. } = steps[i];
            match (commit, op) {
                (false, Op::H2d { h, .. }) => {
                    steps[i].value = handles[h as usize]
                        .host
                        .ok_or_else(|| missing(h, None, "h2d".into(), start))?;
                }
                (false, Op::P2p { h, src, .. }) => {
                    steps[i].value =
                        dev[at(src, h)].ok_or_else(|| missing(h, Some(src), "p2p".into(), start))?;
                }
                (false, Op::D2h { h, src }) => {
                    steps[i].value =
                        dev[at(src, h)].ok_or_else(|| missing(h, Some(src), "d2h".into(), start))?;
                }
                (false, Op::Kernel { t, gpu }) => {
                    let mut out = self.kernel_seed[t as usize];
                    for &h in self.reads.of(t as usize) {
                        let reader = || format!("kernel task {t}");
                        let v = dev[at(gpu, h)];
                        let v = v.ok_or_else(|| missing(h, Some(gpu), reader(), start))?;
                        out = mix(out, v);
                    }
                    steps[i].value = out;
                }
                (true, Op::H2d { h, dst } | Op::P2p { h, dst, .. }) => {
                    dev[at(dst, h)] = Some(value);
                }
                (true, Op::D2h { h, .. }) => {
                    let state = &mut handles[h as usize];
                    state.host = Some(value);
                    state.host_after_kernel = true;
                }
                (true, Op::Kernel { t, gpu }) => {
                    for &h in self.writes.of(t as usize) {
                        dev[at(gpu, h)] = Some(value);
                        let state = &mut handles[h as usize];
                        state.kernel_final = Some(value);
                        state.host_after_kernel = false;
                    }
                }
            }
        }

        // Lowest handle id first, so the reported mismatch is the same on
        // every replay of the same schedule.
        for (h, (state, &want)) in handles.iter().zip(&self.reference).enumerate() {
            let Some(got) = state.kernel_final else {
                continue;
            };
            if got != want {
                return Err(WitnessError::FinalMismatch { handle: h, got, want });
            }
            if state.host_after_kernel {
                let hv = state.host.expect("host copy written");
                if hv != want {
                    return Err(WitnessError::HostMismatch { handle: h, got: hv, want });
                }
            }
        }
        Ok(())
    }
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

    /// `spans` as a trace, in order.
    fn trace_of(spans: &[Span]) -> Trace {
        let mut trace = Trace::new();
        spans.iter().for_each(|s| trace.push(s.clone()));
        trace
    }

    #[test]
    fn out_of_range_spans_are_errors_naming_the_span() {
        let g = one_update();
        let ok = [h2d(0, 0, (0.0, 1.0)), kernel(0, 0, (1.0, 2.0))];
        let malformed = [
            (kernel(Span::NO_SUBJECT, 0, (1.0, 2.0)), "no task"),
            (kernel(1, 0, (1.0, 2.0)), "no task"),
            (h2d(Span::NO_SUBJECT, 0, (0.0, 1.0)), "no handle"),
            (d2h(1, 0, (2.0, 3.0)), "no handle"),
            (Span { peer: Span::NO_PEER, ..p2p(0, 0, 1, (1.0, 2.0)) }, "without a source"),
            (h2d(0, u32::MAX, (0.0, 1.0)), "GPU index"),
            (h2d(0, u32::from(Span::NO_PEER), (0.0, 1.0)), "GPU index"),
        ];
        for (bad, reason) in malformed {
            match verdict(&g, ok.iter().cloned().chain([bad])) {
                Err(WitnessError::MalformedSpan { span: 2, reason: r }) if r.contains(reason) => {}
                other => panic!("want MalformedSpan on span 2 ({reason}), got {other:?}"),
            }
        }
        // Host-side work names no task or handle, and is not replayed.
        let host_work =
            Span { kind: SpanKind::HostWork, ..kernel(Span::NO_SUBJECT, 0, (0.0, 1.0)) };
        assert_eq!(verdict(&g, ok.iter().cloned().chain([host_work])), Ok(()));
        let reason = "subject names no task of the graph";
        let error = WitnessError::MalformedSpan { span: 2, reason };
        assert_eq!(error.to_string(), format!("trace span 2 cannot be replayed: {reason}"));
    }

    #[test]
    fn a_trace_of_another_graph_is_an_error_not_a_panic() {
        let big = graph(2, &[&[(0, Access::ReadWrite)], &[(1, Access::ReadWrite)]]);
        let spans = [h2d(0, 0, (0.0, 1.0)), h2d(1, 0, (0.0, 1.0)), kernel(0, 0, (1.0, 2.0))];
        assert_eq!(verdict(&big, spans.clone()), Ok(()));
        match verdict(&one_update(), spans) {
            Err(WitnessError::MalformedSpan { span: 1, .. }) => {}
            other => panic!("want MalformedSpan on span 1, got {other:?}"),
        }
    }

    #[test]
    fn a_witness_checks_each_trace_on_its_own() {
        // One witness, reused across traces of different sizes and
        // verdicts, answers each as a fresh one does.
        let g = graph(2, &[&[(0, Access::ReadWrite)], &[(1, Access::ReadWrite), (0, Access::Read)]]);
        let loads = [h2d(0, 0, (0.0, 1.0)), h2d(1, 0, (0.0, 1.0))];
        let run = |t0: (f64, f64)| [kernel(0, 0, t0), kernel(1, 0, (2.0, 3.0))];
        let good = [loads.as_slice(), &run((1.0, 2.0))].concat();
        let stale = [loads.as_slice(), &run((1.0, 2.5))].concat();
        let forward = [
            loads.as_slice(),
            &[kernel(0, 0, (1.0, 2.0)), p2p(0, 0, 3, (2.0, 3.0)), h2d(1, 3, (0.0, 1.0))],
            &[kernel(1, 3, (3.0, 4.0)), d2h(1, 3, (4.0, 5.0))],
        ]
        .concat();
        let early = [h2d(1, 1, (0.0, 1.0)), kernel(1, 1, (1.0, 2.0))];
        let witness = Witness::new(&g);
        for spans in [&forward[..], &stale, &good, &early, &forward, &good, &[]] {
            let trace = trace_of(spans);
            assert_eq!(witness.check(&trace), check(&g, &trace), "{} spans", spans.len());
        }
        assert_eq!(witness.check(&trace_of(&forward)), Ok(()));
        assert!(witness.check(&trace_of(&stale)).is_err());
    }

    /// The order the witness replays the actions of spans `(start, end)`
    /// in, as `(span, commit)`.
    fn packed_order(spans: &[(f64, f64)]) -> Vec<(usize, bool)> {
        let mut samples: Vec<u128> =
            spans.iter().enumerate().map(|(i, &(s, e))| action_key(s, s != e, i, false)).collect();
        let mut commits: Vec<u128> =
            spans.iter().enumerate().map(|(i, &(_, e))| action_key(e, false, i, true)).collect();
        samples.push(u128::MAX);
        commits.push(u128::MAX);
        sort_nearly_sorted(&mut samples);
        sort_nearly_sorted(&mut commits);
        merged(&samples, &commits).map(action_of).collect()
    }

    /// The same order under the comparator the witness sorted with before
    /// its keys were packed: `(time, late sample, span, commit)`, times by
    /// `f64::total_cmp`.
    fn tuple_order(spans: &[(f64, f64)]) -> Vec<(usize, bool)> {
        let mut actions: Vec<(f64, bool, usize, bool)> = Vec::new();
        for (i, &(s, e)) in spans.iter().enumerate() {
            actions.push((s, s != e, i, false));
            actions.push((e, false, i, true));
        }
        actions.sort_unstable_by(|a, b| {
            a.0.total_cmp(&b.0).then_with(|| (a.1, a.2, a.3).cmp(&(b.1, b.2, b.3)))
        });
        actions.iter().map(|a| (a.2, a.3)).collect()
    }

    #[test]
    fn packed_keys_replay_in_the_tuple_comparators_order() {
        // Equal times, zero-length spans, both zeros, subnormal and huge
        // times, in nearly sorted and in shuffled span orders.
        let palette = [0.0, -0.0, 5e-324, 1e-300, 1.0, 1.0, 2.5, 3.0, 1e300, f64::MAX, -1.0];
        xk_lp::for_each_seed(400, |rng| {
            let n = rng.next_below(48) as usize;
            let time = |rng: &mut SplitMix64| match rng.next_below(3) {
                0 => rng.next_f64() * 4.0,
                _ => palette[rng.next_below(palette.len() as u64) as usize],
            };
            let mut spans: Vec<(f64, f64)> = (0..n)
                .map(|_| {
                    let start = time(rng);
                    let end = match rng.next_below(4) {
                        0 => start,
                        1 => time(rng),
                        _ => start + rng.next_f64(),
                    };
                    (start, end)
                })
                .collect();
            if rng.next_below(2) == 0 {
                spans.sort_by(|a, b| a.0.total_cmp(&b.0));
                for i in 1..n {
                    if rng.next_below(4) == 0 {
                        spans.swap(i - 1, i);
                    }
                }
            }
            assert_eq!(packed_order(&spans), tuple_order(&spans), "spans {spans:?}");
        });
    }

    #[test]
    fn nearly_sorted_sort_sorts_any_order() {
        xk_lp::for_each_seed(100, |rng| {
            let n = rng.next_below(200) as usize;
            let mut keys: Vec<u128> = (0..n).map(|_| u128::from(rng.next_below(50))).collect();
            if rng.next_below(2) == 0 {
                keys.sort_unstable_by(|a, b| b.cmp(a));
            }
            let mut want = keys.clone();
            want.sort_unstable();
            sort_nearly_sorted(&mut keys);
            assert_eq!(keys, want);
        });
    }
}
