//! The differential oracle: a semantic shadow execution.
//!
//! [`Witness`] wraps any inner [`ScheduleController`] and records the
//! executor's observer callbacks — every H2D/P2P/D2H transfer and every
//! kernel, with simulated start/end times. After the run,
//! [`Witness::check`] replays that data flow over *shadow values*: each
//! `(location, handle)` replica carries a `u64` value, transfers copy the
//! source value sampled at transfer start into the destination at transfer
//! end, and kernels fold their sampled input values (plus the task id)
//! into every written replica. The shadow values the schedule actually
//! produces are compared against a serial single-stream reference
//! (topological task order, host-only values) — the executor equivalent of
//! comparing output tiles bit for bit, at a cost independent of tile size.
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

use xk_lp::SplitMix64;
use xk_runtime::{ChoicePoint, ScheduleController, TaskGraph, TaskKind};

/// Value mixer for shadow state: collision-resistant enough that a stale
/// version virtually never aliases the correct one.
fn mix(a: u64, b: u64) -> u64 {
    SplitMix64::new(a.rotate_left(29) ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Initial shadow value of handle `h`.
fn initial_value(h: usize) -> u64 {
    mix(0xD1EA_5EED, h as u64)
}

/// One observed semantic event.
#[derive(Clone, Copy, Debug)]
enum Ev {
    H2d { h: usize, dst: usize, start: f64, end: f64 },
    P2p { h: usize, src: usize, dst: usize, start: f64, end: f64 },
    D2h { h: usize, src: usize, start: f64, end: f64 },
    Kernel { t: usize, gpu: usize, start: f64, end: f64 },
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

/// Controller wrapper recording semantic events for the differential
/// oracle. Choice points pass through to the inner controller untouched.
pub struct Witness<'c> {
    inner: &'c mut dyn ScheduleController,
    events: Vec<Ev>,
}

impl<'c> Witness<'c> {
    /// Wraps `inner`.
    pub fn new(inner: &'c mut dyn ScheduleController) -> Self {
        Witness { inner, events: Vec::new() }
    }

    /// Number of semantic events observed.
    pub fn n_events(&self) -> usize {
        self.events.len()
    }

    /// Replays the observed data flow over shadow values and compares the
    /// outcome against the serial single-stream reference for `graph`.
    ///
    /// Checks, per handle: the last kernel-committed value equals the
    /// reference's final value, and — when a write-back to host happened
    /// after that last kernel — the host copy does too. Handles never
    /// written by a kernel are exempt from the final check (their value is
    /// the initial one by construction).
    pub fn check(&self, graph: &TaskGraph) -> Result<(), WitnessError> {
        let reference = serial_reference(graph);
        let n_h = graph.data().len();
        let initial = |h| graph.data().info(xk_runtime::HandleId(h)).initial;
        let n_gpus = (0..n_h)
            .filter_map(|h| match initial(h) {
                xk_topo::Device::Gpu(g) => Some(g),
                xk_topo::Device::Host => None,
            })
            .chain(self.events.iter().map(|e| match *e {
                Ev::H2d { dst: g, .. } | Ev::D2h { src: g, .. } | Ev::Kernel { gpu: g, .. } => g,
                Ev::P2p { src, dst, .. } => src.max(dst),
            }))
            .max()
            .map_or(0, |g| g + 1);

        // Shadow state: `host[h]` and `dev[g * n_h + h]`, `None` where no
        // value has arrived. Host starts holding every host-resident tile;
        // device-resident tiles (the paper's Fig. 4 protocol) start on
        // their initial GPU instead.
        let mut host: Vec<Option<u64>> = vec![None; n_h];
        let mut dev: Vec<Option<u64>> = vec![None; n_gpus * n_h];
        for h in 0..n_h {
            match initial(h) {
                xk_topo::Device::Host => host[h] = Some(initial_value(h)),
                xk_topo::Device::Gpu(g) => dev[g * n_h + h] = Some(initial_value(h)),
            }
        }

        // Interleave sample (at start) and commit (at end) actions of all
        // events in time order; at equal times commits land before samples
        // (a kernel starting exactly when its input transfer ends must see
        // the transferred value), event order breaking the remaining ties.
        // An instantaneous event samples just before its own commit, so it
        // too sees every earlier event's commit at that time.
        // Sort key after the time: (late sample?, event, commit?).
        let mut actions: Vec<(f64, bool, usize, bool)> = Vec::with_capacity(self.events.len() * 2);
        for (i, e) in self.events.iter().enumerate() {
            let (s, t) = match *e {
                Ev::H2d { start, end, .. }
                | Ev::P2p { start, end, .. }
                | Ev::D2h { start, end, .. }
                | Ev::Kernel { start, end, .. } => (start, end),
            };
            actions.push((s, s != t, i, false));
            actions.push((t, false, i, true));
        }
        actions.sort_unstable_by(|a, b| {
            a.0.total_cmp(&b.0).then_with(|| (a.1, a.2, a.3).cmp(&(b.1, b.2, b.3)))
        });

        // Per event: the sampled source value of a copy, or the output a
        // kernel folds from its sampled inputs; written at sample time,
        // consumed at commit time.
        let mut value = vec![0u64; self.events.len()];
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
            match (commit, self.events[i]) {
                (false, Ev::H2d { h, .. }) => {
                    value[i] = host[h].ok_or_else(|| missing(h, None, "h2d".into(), time))?;
                }
                (false, Ev::P2p { h, src, .. }) => {
                    value[i] = dev[src * n_h + h]
                        .ok_or_else(|| missing(h, Some(src), "p2p".into(), time))?;
                }
                (false, Ev::D2h { h, src, .. }) => {
                    value[i] = dev[src * n_h + h]
                        .ok_or_else(|| missing(h, Some(src), "d2h".into(), time))?;
                }
                (false, Ev::Kernel { t, gpu, .. }) => {
                    let mut out = mix(0xC0DE, t as u64);
                    for h in graph.task(xk_runtime::TaskId(t)).read_handles() {
                        let v = dev[gpu * n_h + h.0].ok_or_else(|| {
                            missing(h.0, Some(gpu), format!("kernel task {t}"), time)
                        })?;
                        out = mix(out, v);
                    }
                    value[i] = out;
                }
                (true, Ev::H2d { h, dst, .. } | Ev::P2p { h, dst, .. }) => {
                    dev[dst * n_h + h] = Some(value[i]);
                }
                (true, Ev::D2h { h, .. }) => {
                    host[h] = Some(value[i]);
                    host_after_kernel[h] = true;
                }
                (true, Ev::Kernel { t, gpu, .. }) => {
                    for h in graph.task(xk_runtime::TaskId(t)).written_handles() {
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
}

impl ScheduleController for Witness<'_> {
    fn choose(&mut self, point: ChoicePoint, n: usize) -> usize {
        self.inner.choose(point, n)
    }

    fn on_h2d(&mut self, h: usize, dst: usize, start: f64, end: f64) {
        self.events.push(Ev::H2d { h, dst, start, end });
    }

    fn on_p2p(&mut self, h: usize, src: usize, dst: usize, start: f64, end: f64) {
        self.events.push(Ev::P2p { h, src, dst, start, end });
    }

    fn on_d2h(&mut self, h: usize, src: usize, start: f64, end: f64) {
        self.events.push(Ev::D2h { h, src, start, end });
    }

    fn on_kernel(&mut self, t: usize, gpu: usize, start: f64, end: f64) {
        self.events.push(Ev::Kernel { t, gpu, start, end });
    }
}

/// The serial single-stream reference: tasks in topological (id) order,
/// one value space (graph task ids are topologically sorted by
/// construction — dependencies always point backwards). Returns the final
/// value of every handle.
pub(crate) fn serial_reference(graph: &TaskGraph) -> Vec<u64> {
    let mut vals: Vec<u64> = (0..graph.data().len()).map(initial_value).collect();
    for t in 0..graph.len() {
        let task = graph.task(xk_runtime::TaskId(t));
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
    use xk_runtime::CanonicalController;

    #[test]
    fn mix_separates_versions() {
        assert_ne!(mix(1, 2), mix(2, 1));
        assert_ne!(initial_value(0), initial_value(1));
    }

    #[test]
    fn empty_run_on_empty_graph_passes() {
        let g = TaskGraph::new();
        g.finalize();
        let mut inner = CanonicalController;
        let w = Witness::new(&mut inner);
        assert_eq!(w.check(&g), Ok(()));
    }

    #[test]
    fn hand_built_correct_flow_passes_and_stale_read_fails() {
        // Graph: t0 writes h0 on some GPU; t1 reads h0 and writes h1.
        let mut g = TaskGraph::new();
        let h0 = g.add_host_tile(64, false, "h0");
        let h1 = g.add_host_tile(64, false, "h1");
        use xk_kernels::perfmodel::TileOp;
        use xk_runtime::{Access, TaskAccess};
        g.add_task(
            TileOp::Gemm { m: 8, n: 8, k: 8 },
            [TaskAccess { handle: h0, access: Access::ReadWrite }],
            "t0",
        );
        g.add_task(
            TileOp::Gemm { m: 8, n: 8, k: 8 },
            [
                TaskAccess { handle: h1, access: Access::ReadWrite },
                TaskAccess { handle: h0, access: Access::Read },
            ],
            "t1",
        );
        g.finalize();

        // Correct flow on one GPU: h2d both tiles, run t0 then t1.
        let mut inner = CanonicalController;
        let mut w = Witness::new(&mut inner);
        w.on_h2d(0, 0, 0.0, 1.0);
        w.on_h2d(1, 0, 0.0, 1.0);
        w.on_kernel(0, 0, 1.0, 2.0);
        w.on_kernel(1, 0, 2.0, 3.0);
        assert_eq!(w.check(&g), Ok(()));

        // Stale read: t1 consumes h0 *before* t0's commit (kernel overlap).
        let mut inner2 = CanonicalController;
        let mut w2 = Witness::new(&mut inner2);
        w2.on_h2d(0, 0, 0.0, 1.0);
        w2.on_h2d(1, 0, 0.0, 1.0);
        w2.on_kernel(0, 0, 1.0, 2.5);
        w2.on_kernel(1, 0, 2.0, 3.0); // samples h0 at t=2.0 < 2.5
        match w2.check(&g) {
            Err(WitnessError::FinalMismatch { handle: 1, .. }) => {}
            other => panic!("want FinalMismatch on h1, got {other:?}"),
        }

        // Use before arrival: kernel on a GPU that never received h0.
        let mut inner3 = CanonicalController;
        let mut w3 = Witness::new(&mut inner3);
        w3.on_h2d(1, 1, 0.0, 1.0);
        w3.on_kernel(1, 1, 1.0, 2.0);
        match w3.check(&g) {
            Err(WitnessError::UseBeforeArrival { handle: 0, .. }) => {}
            other => panic!("want UseBeforeArrival on h0, got {other:?}"),
        }
    }

    #[test]
    fn commit_at_sample_time_is_visible() {
        // A kernel starting exactly when its transfer ends sees the value.
        let mut g = TaskGraph::new();
        let h0 = g.add_host_tile(64, false, "h0");
        use xk_kernels::perfmodel::TileOp;
        use xk_runtime::{Access, TaskAccess};
        g.add_task(
            TileOp::Gemm { m: 8, n: 8, k: 8 },
            [TaskAccess { handle: h0, access: Access::ReadWrite }],
            "t0",
        );
        g.finalize();
        let mut inner = CanonicalController;
        let mut w = Witness::new(&mut inner);
        w.on_h2d(0, 0, 0.0, 1.0);
        w.on_kernel(0, 0, 1.0, 2.0);
        assert_eq!(w.check(&g), Ok(()));
    }

    #[test]
    fn zero_duration_event_samples_before_it_commits() {
        // An instantaneous H2D: its own sample must precede its commit,
        // and the kernel starting at that instant sees the value.
        let mut g = TaskGraph::new();
        let h0 = g.add_host_tile(64, false, "h0");
        use xk_kernels::perfmodel::TileOp;
        use xk_runtime::{Access, TaskAccess};
        g.add_task(
            TileOp::Gemm { m: 8, n: 8, k: 8 },
            [TaskAccess { handle: h0, access: Access::ReadWrite }],
            "t0",
        );
        g.finalize();
        let mut inner = CanonicalController;
        let mut w = Witness::new(&mut inner);
        w.on_h2d(0, 0, 1.0, 1.0);
        w.on_kernel(0, 0, 1.0, 2.0);
        assert_eq!(w.check(&g), Ok(()));
    }

    #[test]
    fn wrong_writeback_is_flagged() {
        // d2h of the *pre-kernel* value after the kernel: host ends stale.
        let mut g = TaskGraph::new();
        let h0 = g.add_host_tile(64, false, "h0");
        use xk_kernels::perfmodel::TileOp;
        use xk_runtime::{Access, TaskAccess};
        g.add_task(
            TileOp::Gemm { m: 8, n: 8, k: 8 },
            [TaskAccess { handle: h0, access: Access::ReadWrite }],
            "t0",
        );
        g.finalize();
        let mut inner = CanonicalController;
        let mut w = Witness::new(&mut inner);
        w.on_h2d(0, 0, 0.0, 1.0);
        w.on_kernel(0, 0, 1.0, 2.0);
        // Write-back sampled the replica before the kernel committed but
        // lands after it: host holds the stale version.
        w.on_d2h(0, 0, 0.5, 2.5);
        match w.check(&g) {
            // The d2h sample at t=0.5 happens before the kernel ran, so the
            // replica exists (h2d committed at 1.0)? No: sample at 0.5 is
            // before the h2d commit at 1.0 -> use-before-arrival.
            Err(WitnessError::UseBeforeArrival { .. }) => {}
            other => panic!("want UseBeforeArrival, got {other:?}"),
        }
        // Same shape, but the d2h samples between h2d-commit and
        // kernel-commit: host ends with the pre-kernel value.
        let mut inner2 = CanonicalController;
        let mut w2 = Witness::new(&mut inner2);
        w2.on_h2d(0, 0, 0.0, 1.0);
        w2.on_kernel(0, 0, 1.0, 2.0);
        w2.on_d2h(0, 0, 1.5, 2.5);
        match w2.check(&g) {
            Err(WitnessError::HostMismatch { handle: 0, .. }) => {}
            other => panic!("want HostMismatch, got {other:?}"),
        }
    }
}
