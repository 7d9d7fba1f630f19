//! Deep observability for simulated runs: per-link occupancy/contention
//! counters and a critical-path analysis over the executed span DAG.
//!
//! The DES (see `sim_exec`) makes every operation a joint
//! reservation over a set of engines (copy paths, switch uplinks, NVLink
//! bricks, kernel streams). The recorder in this module piggybacks on those
//! reservations with flat per-engine tables — no per-event heap allocation —
//! and turns them into an [`ObsReport`] at the end of the run:
//!
//! * **occupancy**: busy seconds, op count, bytes and utilization per
//!   engine ([`LinkStats`]);
//! * **contention**: wait seconds charged to the engine that *bound* each
//!   reservation ([`xk_sim::EnginePool::bottleneck`], queried before the
//!   reservation mutates the pool);
//! * **critical path** ([`CriticalPath`], [`ObsLevel::Full`] only): the
//!   chain of spans that determines the makespan, found by walking
//!   backwards from the last-finishing span over data dependencies and
//!   engine-occupancy predecessors. Timestamps in the DES are exact `f64`s
//!   (`SimTime::max` returns an operand bit-for-bit), so "predecessor ends
//!   exactly when this span starts" is an equality test, not a tolerance.
//!   Chain time not covered by any span is reported as `runtime_gap`
//!   (host-side submission serialization, scheduling).
//!
//! The invariant `critical_path.length == report.makespan` is what
//! validates the walk: the chain's span durations plus the runtime gap must
//! tile `[0, makespan]` exactly.

use std::collections::BTreeMap;

use xk_sim::{EngineId, EnginePool, SimTime};
use xk_trace::{Place, SpanKind, Trace};

use crate::machine::Machine;

/// Sentinel for "no node" in the flat observability tables.
const NONE: u32 = u32::MAX;

/// How much observability a run records.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ObsLevel {
    /// Nothing beyond the trace itself (fastest; `SimOutcome::obs` is
    /// `None`).
    Off,
    /// Per-link occupancy/contention counters, no critical path.
    #[default]
    Counters,
    /// Counters plus the span-DAG node table and critical-path analysis.
    Full,
}

/// Occupancy and contention of one engine (PCIe copy path, switch uplink,
/// inter-socket link, NVLink brick or kernel stream).
#[derive(Clone, Debug, PartialEq)]
pub struct LinkStats {
    /// Engine name, as [`Machine::name`] renders it (e.g.
    /// `"switch0.uplink"`, `"nvlink0->3"`, `"gpu2.kernel"`).
    pub name: String,
    /// Total busy seconds.
    pub busy: f64,
    /// Number of reservations that held this engine.
    pub ops: u64,
    /// Seconds of start-delay charged to this engine as the *bottleneck* of
    /// contended reservations (shared-bus wait attributable to contention).
    pub wait: f64,
    /// Bytes carried (0 for kernel streams).
    pub bytes: u64,
    /// `busy / makespan`, in `[0, 1]`.
    pub utilization: f64,
    /// Seconds the critical path spent on operations holding this engine
    /// ([`ObsLevel::Full`] only) — an upper bound on how much an infinitely
    /// fast replacement of this link could shorten the run.
    pub cp_seconds: f64,
}

/// Per-GPU scheduling pressure counters.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuObs {
    /// GPU index.
    pub gpu: usize,
    /// Kernel-engine busy seconds.
    pub kernel_busy: f64,
    /// High-water mark of the ready-task queue depth.
    pub max_queue: usize,
    /// High-water mark of concurrently launched kernels (window pressure).
    pub max_in_flight: usize,
}

/// One link of the makespan-dominating chain.
#[derive(Clone, Debug, PartialEq)]
pub struct CpSegment {
    /// Operation category.
    pub kind: SpanKind,
    /// Device the span was attributed to.
    pub place: Place,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// Resolved span label.
    pub label: String,
}

/// The critical path: the chain of operations whose durations (plus
/// runtime gaps) exactly tile `[0, makespan]`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalPath {
    /// End time of the chain — equals the makespan (the validated
    /// invariant).
    pub length: f64,
    /// Seconds the chain spends in each span kind (the chain's
    /// *composition*: is the run compute-, transfer- or submission-bound?).
    pub by_kind: BTreeMap<SpanKind, f64>,
    /// Chain seconds covered by no span: host-side submission
    /// serialization, scheduler latency, event plumbing.
    pub runtime_gap: f64,
    /// The chain in time order, truncated to `CriticalPath::MAX_SEGMENTS`
    /// entries so reports stay cheap to clone and cache.
    pub segments: Vec<CpSegment>,
    /// Untruncated chain length in spans.
    pub total_segments: usize,
}

impl CriticalPath {
    /// Cap on retained [`CriticalPath::segments`].
    pub(crate) const MAX_SEGMENTS: usize = 64;

    /// Seconds the chain spends in one kind.
    pub fn kind_seconds(&self, kind: SpanKind) -> f64 {
        self.by_kind.get(&kind).copied().unwrap_or(0.0)
    }

    /// Seconds the chain spends in transfers (H2D + D2H + P2P).
    pub fn transfer_seconds(&self) -> f64 {
        SpanKind::ALL
            .iter()
            .filter(|k| k.is_transfer())
            .map(|k| self.kind_seconds(*k))
            .sum()
    }
}

/// Everything the observability layer learned about one run.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsReport {
    /// Level the run was recorded at.
    pub level: ObsLevel,
    /// Makespan of the run, seconds (duplicated here so the report is
    /// self-contained even when the caller post-processes the trace).
    pub makespan: f64,
    /// One entry per engine, in [`Machine`] id order.
    pub links: Vec<LinkStats>,
    /// One entry per GPU.
    pub gpus: Vec<GpuObs>,
    /// The makespan-dominating chain ([`ObsLevel::Full`] only).
    pub critical_path: Option<CriticalPath>,
}

impl ObsReport {
    /// The `k` busiest links, excluding kernel streams (those are compute,
    /// not interconnect), sorted by busy seconds descending. Ties keep
    /// registration order, so the result is deterministic.
    pub fn hot_links(&self, k: usize) -> Vec<&LinkStats> {
        let mut links: Vec<&LinkStats> = self
            .links
            .iter()
            .filter(|l| !l.name.ends_with(".kernel"))
            .collect();
        links.sort_by(|a, b| b.busy.partial_cmp(&a.busy).unwrap());
        links.truncate(k);
        links
    }

    /// Looks a link up by its engine name.
    pub fn link(&self, name: &str) -> Option<&LinkStats> {
        self.links.iter().find(|l| l.name == name)
    }
}

/// One reservation's observability record: the engines it held, the last
/// reservation seen on each of those engines before it, and its semantic
/// (data-dependency) predecessor. Indices are span indices in the run's
/// trace — the node table is parallel to `trace.spans()`.
#[derive(Clone, Copy, Debug)]
struct ObsNode {
    /// Engines held (as `EngineId.0`), `NONE`-padded. A reservation holds
    /// at most 2 copy paths + 3 bus segments.
    engines: [u32; 6],
    /// Previous node on each corresponding engine (occupancy predecessor).
    engine_preds: [u32; 6],
    /// Semantic predecessor: the transfer/kernel whose completion this
    /// reservation's `earliest` was derived from ([`NONE`] when the input
    /// was host-resident or unconstrained).
    dep: u32,
}

/// Flat-table recorder living inside the executor. All per-event work is
/// O(engines-held) array writes; the analysis runs once, after the event
/// loop.
pub(crate) struct ObsRecorder {
    level: ObsLevel,
    /// Contention wait seconds per engine.
    wait: Vec<f64>,
    /// Bytes carried per engine.
    bytes: Vec<u64>,
    /// Node table, parallel to the trace spans ([`ObsLevel::Full`] only).
    nodes: Vec<ObsNode>,
    /// Last node recorded on each engine.
    last_on_engine: Vec<u32>,
    /// Node that made handle `h` valid on GPU `g`, indexed `h * n_gpus + g`
    /// ([`ObsLevel::Full`] only).
    valid_node: Vec<u32>,
    n_gpus: usize,
}

impl ObsRecorder {
    pub(crate) fn new(
        level: ObsLevel,
        n_engines: usize,
        n_handles: usize,
        n_gpus: usize,
        n_tasks: usize,
    ) -> Self {
        let full = level == ObsLevel::Full;
        ObsRecorder {
            level,
            wait: if level == ObsLevel::Off { Vec::new() } else { vec![0.0; n_engines] },
            bytes: if level == ObsLevel::Off { Vec::new() } else { vec![0; n_engines] },
            // ~3 spans per task (H2D + kernel + write-back) is a generous
            // starting size; growth past it is amortized like the trace's
            // own span vector.
            nodes: if full { Vec::with_capacity(n_tasks.saturating_mul(3).max(64)) } else { Vec::new() },
            last_on_engine: if full { vec![NONE; n_engines] } else { Vec::new() },
            valid_node: if full { vec![NONE; n_handles * n_gpus] } else { Vec::new() },
            n_gpus,
        }
    }

    /// True when any counters are being recorded.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.level != ObsLevel::Off
    }

    /// True when the node table (critical-path input) is being recorded.
    #[inline]
    pub(crate) fn full(&self) -> bool {
        self.level == ObsLevel::Full
    }

    /// Node that made `h` valid on `g`, or [`NONE`].
    #[inline]
    pub(crate) fn valid_node(&self, h: usize, g: usize) -> u32 {
        if self.full() {
            self.valid_node[h * self.n_gpus + g]
        } else {
            NONE
        }
    }

    /// Marks `node` as the op that made `h` valid on `g`.
    #[inline]
    pub(crate) fn set_valid_node(&mut self, h: usize, g: usize, node: u32) {
        if self.full() {
            self.valid_node[h * self.n_gpus + g] = node;
        }
    }

    /// Records one reservation. `idx` is the index of the span just pushed
    /// (node table stays parallel to the trace); `bound` is the
    /// pre-reservation [`EnginePool::bottleneck`]; `waited` is
    /// `start - earliest` in seconds; `dep` is the semantic predecessor
    /// node.
    #[inline]
    pub(crate) fn record(
        &mut self,
        idx: u32,
        engines: &[EngineId],
        bound: Option<EngineId>,
        waited: f64,
        bytes: u64,
        dep: u32,
    ) {
        if !self.enabled() {
            return;
        }
        if let Some(e) = bound {
            self.wait[e.0] += waited;
        }
        if bytes > 0 {
            for e in engines {
                self.bytes[e.0] += bytes;
            }
        }
        if !self.full() {
            return;
        }
        debug_assert!(engines.len() <= 6, "reservation holds >6 engines");
        debug_assert_eq!(idx as usize, self.nodes.len(), "node table out of sync");
        let mut node = ObsNode {
            engines: [NONE; 6],
            engine_preds: [NONE; 6],
            dep,
        };
        for (slot, &e) in engines.iter().enumerate().take(6) {
            node.engines[slot] = e.0 as u32;
            node.engine_preds[slot] = self.last_on_engine[e.0];
            self.last_on_engine[e.0] = idx;
        }
        self.nodes.push(node);
    }

    /// Consumes the recorder into the final report: one row per engine of
    /// `machine`, named by it. `gpus` is prebuilt by the executor.
    pub(crate) fn into_report(
        self,
        trace: &Trace,
        pool: &EnginePool,
        machine: &Machine,
        makespan: f64,
        gpus: Vec<GpuObs>,
    ) -> ObsReport {
        let mut links: Vec<LinkStats> = (0..pool.len())
            .map(EngineId)
            .map(|id| LinkStats {
                name: machine.name(id),
                busy: pool.busy_total(id).seconds(),
                ops: pool.ops(id),
                wait: self.wait.get(id.0).copied().unwrap_or(0.0),
                bytes: self.bytes.get(id.0).copied().unwrap_or(0),
                utilization: pool.utilization(id, SimTime::new(makespan.max(0.0))),
                cp_seconds: 0.0,
            })
            .collect();

        let critical_path = if self.full() {
            Some(self.critical_path(trace, &mut links))
        } else {
            None
        };

        ObsReport {
            level: self.level,
            makespan,
            links,
            gpus,
            critical_path,
        }
    }

    /// Backward walk from the last-finishing span. At each step the
    /// predecessor is, in order of preference:
    ///
    /// 1. the semantic dependency, if it ends *exactly* when this span
    ///    starts (the dependency bound the start);
    /// 2. any occupancy predecessor ending exactly at this start (the
    ///    engine was busy until then — contention bound the start);
    /// 3. otherwise the latest-ending candidate before this start: the
    ///    interval between its end and this start is *runtime gap*
    ///    (submission serialization, scheduling). With no candidate at all
    ///    the remaining `[0, start)` is charged to the runtime.
    fn critical_path(&self, trace: &Trace, links: &mut [LinkStats]) -> CriticalPath {
        let spans = trace.spans();
        let mut cp = CriticalPath::default();
        let Some(start_idx) = spans
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| {
                a.end
                    .partial_cmp(&b.end)
                    .unwrap()
                    // On equal ends prefer the *earlier* span so ties are
                    // deterministic under max_by's "last max wins" rule.
                    .then(ib.cmp(ia))
            })
            .map(|(i, _)| i)
        else {
            return cp; // empty trace: length 0 == makespan 0
        };

        let mut chain: Vec<u32> = Vec::new();
        let mut cur = start_idx as u32;
        cp.length = spans[start_idx].end;
        // Positive-duration spans cannot cycle; the cap guards against
        // degenerate zero-duration chains.
        let mut steps = spans.len() + 1;
        loop {
            chain.push(cur);
            let s = &spans[cur as usize];
            *cp.by_kind.entry(s.kind).or_insert(0.0) += s.duration();
            for &e in &self.nodes[cur as usize].engines {
                if e != NONE {
                    links[e as usize].cp_seconds += s.duration();
                }
            }
            let t = s.start;
            steps -= 1;
            if t <= 0.0 || steps == 0 {
                cp.runtime_gap += t.max(0.0);
                break;
            }
            let node = &self.nodes[cur as usize];
            // 1. Exact semantic predecessor.
            if node.dep != NONE && spans[node.dep as usize].end == t {
                cur = node.dep;
                continue;
            }
            // 2. Exact occupancy predecessor.
            if let Some(&p) = node
                .engine_preds
                .iter()
                .find(|&&p| p != NONE && spans[p as usize].end == t)
            {
                cur = p;
                continue;
            }
            // 3. Runtime gap back to the latest earlier candidate.
            let mut best: Option<u32> = None;
            for &p in std::iter::once(&node.dep).chain(node.engine_preds.iter()) {
                if p != NONE && spans[p as usize].end < t {
                    let better = best
                        .map(|b| spans[p as usize].end > spans[b as usize].end)
                        .unwrap_or(true);
                    if better {
                        best = Some(p);
                    }
                }
            }
            match best {
                Some(p) => {
                    cp.runtime_gap += t - spans[p as usize].end;
                    cur = p;
                }
                None => {
                    cp.runtime_gap += t;
                    break;
                }
            }
        }

        cp.total_segments = chain.len();
        chain.reverse(); // time order
        cp.segments = chain
            .iter()
            .take(CriticalPath::MAX_SEGMENTS)
            .map(|&i| {
                let s = &spans[i as usize];
                CpSegment {
                    kind: s.kind,
                    place: s.place,
                    start: s.start,
                    end: s.end,
                    label: trace.label(s.label).to_string(),
                }
            })
            .collect();
        cp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_level_is_counters() {
        assert_eq!(ObsLevel::default(), ObsLevel::Counters);
    }

    #[test]
    fn critical_path_helpers() {
        let mut cp = CriticalPath::default();
        cp.by_kind.insert(SpanKind::H2D, 1.0);
        cp.by_kind.insert(SpanKind::P2P, 0.5);
        cp.by_kind.insert(SpanKind::Kernel, 2.0);
        assert!((cp.transfer_seconds() - 1.5).abs() < 1e-12);
        assert!((cp.kind_seconds(SpanKind::Kernel) - 2.0).abs() < 1e-12);
        assert_eq!(cp.kind_seconds(SpanKind::D2H), 0.0);
    }

    #[test]
    fn hot_links_exclude_kernel_engines_and_sort_by_busy() {
        let mk = |name: &str, busy: f64| LinkStats {
            name: name.to_string(),
            busy,
            ops: 1,
            wait: 0.0,
            bytes: 0,
            utilization: 0.0,
            cp_seconds: 0.0,
        };
        let report = ObsReport {
            level: ObsLevel::Counters,
            makespan: 1.0,
            links: vec![
                mk("gpu0.pcie_in", 0.2),
                mk("gpu0.kernel", 9.0),
                mk("switch0.uplink", 0.7),
                mk("nvlink0->1", 0.4),
            ],
            gpus: Vec::new(),
            critical_path: None,
        };
        let hot = report.hot_links(2);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].name, "switch0.uplink");
        assert_eq!(hot[1].name, "nvlink0->1");
        assert!(report.link("gpu0.kernel").is_some());
        assert!(report.link("nope").is_none());
    }
}
