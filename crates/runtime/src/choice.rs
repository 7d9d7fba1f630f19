//! Schedule-space choice points: the hook a checker drives to explore
//! interleavings.
//!
//! Both executors are deterministic by default — every tie is broken by a
//! fixed canonical rule. That determinism is great for reproducibility but
//! hides the schedules a real machine would produce. A
//! [`ScheduleController`] makes the nondeterminism explicit: the executors
//! consult it at every point where more than one continuation is legal
//! (which same-time event fires, which queued task launches, which victim
//! an idle GPU steals from, which equally-ranked source supplies a tile,
//! which replica is evicted), and `xk-check` supplies controllers that
//! enumerate, randomize or replay those decisions. A run under a
//! controller is exactly as deterministic as the controller itself, so one
//! failing interleaving is a replayable seed plus choice string.
//!
//! Each choice point is one code path. It lists its candidates in the
//! canonical order and takes the one chosen; "no controller" means
//! candidate 0 on that same path, which is why a controller that always
//! answers 0 reproduces an uncontrolled run bit for bit.
//!
//! A controller only chooses. What the run then did — every transfer and
//! kernel, with its task or handle and simulated times — is in the run's
//! trace, which `xk-check` replays against a serial reference.

/// The kind of nondeterministic decision being resolved.
///
/// Candidates are always presented in a canonical deterministic order
/// (documented per variant), so `choose(_, _) == 0` reproduces the
/// executor's default behaviour exactly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ChoicePoint {
    /// Which of several same-timestamp DES events fires first.
    /// Candidates in FIFO (scheduling) order.
    EventTieBreak,
    /// Which queued ready task a GPU launches next. Candidates in queue
    /// (submission) order.
    ReadyTaskPick,
    /// Which victim an idle GPU steals from. Candidates are the GPUs with
    /// non-empty queues, the thief excluded, sorted longest queue first
    /// (ascending index on ties) so candidate 0 is the canonical victim.
    StealVictim,
    /// Which equally-ranked source GPU supplies a tile
    /// ([`crate::heuristics::select_source`] tie). Candidate 0 is the GPU
    /// whose outgoing channel to the destination frees first (lowest index
    /// on ties); the rest follow ascending by GPU index.
    SourceTieBreak,
    /// Which evictable replica leaves a full cache first. Candidates in the
    /// canonical eviction order (clean before dirty, LRU within a class).
    EvictionPick,
    /// Which virtual worker of the controlled parallel executor takes the
    /// next step. Candidates are the runnable workers, ascending index.
    WorkerStep,
    /// Which newly-ready successor a finishing worker runs inline (the
    /// rest become stealable). Candidate 0 is the canonical inline pick
    /// (the *last* newly-ready successor, matching [`crate::run_parallel`]);
    /// the rest follow in successor (CSR) order.
    InlineSuccessor,
}

/// Resolves nondeterministic choice points.
///
/// `choose` is only consulted when two or more candidates exist; returning
/// an out-of-range index is clamped to the last candidate by every caller.
pub trait ScheduleController {
    /// Picks one of `n >= 2` canonically-ordered candidates at `point`.
    fn choose(&mut self, point: ChoicePoint, n: usize) -> usize;
}

/// The canonical controller: always picks candidate 0, the answer every
/// choice point takes without a controller — so byte-identical to running
/// without one: the tests' oracle for "no controller = candidate 0".
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CanonicalController;

#[cfg(test)]
impl ScheduleController for CanonicalController {
    fn choose(&mut self, _point: ChoicePoint, _n: usize) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_controller_picks_first() {
        let mut c = CanonicalController;
        assert_eq!(c.choose(ChoicePoint::EventTieBreak, 5), 0);
    }
}
