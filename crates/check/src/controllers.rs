//! Schedule controllers: deterministic drivers of the executors'
//! nondeterministic choice points.
//!
//! Every controller records its decisions in a [`ChoiceLog`], so any run —
//! random, DFS, PCT — can be replayed exactly with a
//! [`ReplayController`], and distinct schedules can be counted by log
//! fingerprint.
//!
//! Every seed is expanded by the workspace's one [`SplitMix64`] stream,
//! stable across platforms, so a failing seed printed on one machine
//! reproduces on every other.

use xk_lp::SplitMix64;
use xk_runtime::{ChoicePoint, ScheduleController};

/// One recorded decision: at `point`, `choice` of `n` candidates was taken.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChoiceRec {
    /// Where the decision was made.
    pub point: ChoicePoint,
    /// How many candidates were on offer (always >= 2).
    pub n: u32,
    /// The index taken.
    pub choice: u32,
}

/// The full decision sequence of one run.
#[derive(Clone, Default, Debug)]
pub struct ChoiceLog(pub Vec<ChoiceRec>);

impl ChoiceLog {
    fn tag(p: ChoicePoint) -> u64 {
        match p {
            ChoicePoint::EventTieBreak => 1,
            ChoicePoint::ReadyTaskPick => 2,
            ChoicePoint::StealVictim => 3,
            ChoicePoint::SourceTieBreak => 4,
            ChoicePoint::EvictionPick => 5,
            ChoicePoint::WorkerStep => 6,
            ChoicePoint::InlineSuccessor => 7,
        }
    }

    /// Order-sensitive hash of the decision sequence: two runs with equal
    /// fingerprints made the same choices at the same points, i.e. they
    /// are the same explored schedule.
    pub fn fingerprint(&self) -> u64 {
        let mut state = 0x5EED_CAFE_u64;
        let mut acc = 0u64;
        for r in &self.0 {
            let word = Self::tag(r.point) ^ ((r.n as u64) << 8) ^ ((r.choice as u64) << 40);
            // `word` is mixed into the SplitMix64 stream's state before
            // each step.
            state ^= word;
            acc = acc.rotate_left(7) ^ SplitMix64::new(state).next_u64();
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
        acc ^ self.0.len() as u64
    }

    /// The bare choice indices, for replay files.
    pub fn choices(&self) -> Vec<u32> {
        self.0.iter().map(|r| r.choice).collect()
    }
}

/// Uniformly random choices from a `u64` seed.
pub struct RandomController {
    rng: SplitMix64,
    /// Decisions taken so far.
    pub log: ChoiceLog,
}

impl RandomController {
    /// Controller for `seed`.
    pub fn new(seed: u64) -> Self {
        RandomController { rng: SplitMix64::new(seed), log: ChoiceLog::default() }
    }
}

impl ScheduleController for RandomController {
    fn choose(&mut self, point: ChoicePoint, n: usize) -> usize {
        let c = self.rng.next_below(n as u64) as usize;
        self.log.0.push(ChoiceRec { point, n: n as u32, choice: c as u32 });
        c
    }
}

/// PCT-style controller: decisions follow hashed candidate *priorities*
/// that stay fixed for long stretches and shift at seeded points, the
/// probabilistic concurrency testing recipe — it reaches deep orderings a
/// uniform sampler needs many more runs to hit (e.g. "always last" for a
/// hundred consecutive decisions).
pub struct PctController {
    seed: u64,
    epoch: u64,
    step: u64,
    change_every: u64,
    /// Decisions taken so far.
    pub log: ChoiceLog,
}

impl PctController {
    /// Controller for `seed`; priorities reshuffle every `change_every`
    /// decisions (>= 1).
    pub fn new(seed: u64, change_every: u64) -> Self {
        PctController {
            seed,
            epoch: 0,
            step: 0,
            change_every: change_every.max(1),
            log: ChoiceLog::default(),
        }
    }
}

impl ScheduleController for PctController {
    fn choose(&mut self, point: ChoicePoint, n: usize) -> usize {
        self.step += 1;
        if self.step.is_multiple_of(self.change_every) {
            self.epoch += 1;
        }
        // Highest hashed priority wins; the hash depends on the epoch and
        // the candidate index only, so within an epoch the same rank is
        // preferred at every decision of the same arity.
        let c = (0..n)
            .max_by_key(|&i| {
                let key = self.seed ^ self.epoch.rotate_left(17) ^ (i as u64) << 3;
                SplitMix64::new(key).next_u64()
            })
            .unwrap_or(0);
        self.log.0.push(ChoiceRec { point, n: n as u32, choice: c as u32 });
        c
    }
}

/// Bounded depth-first enumeration of the whole choice tree.
///
/// Each run follows a prescribed `prefix` of choices and takes candidate 0
/// (the canonical pick) beyond it; the recorded log then yields the next
/// prefix in DFS order via [`DfsController::next_prefix`]. Driving runs
/// until `next_prefix` returns `None` visits every schedule of the tree
/// exactly once — feasible for small DAGs, and exhaustive where it is.
pub struct DfsController {
    prefix: Vec<u32>,
    /// Decisions taken so far.
    pub log: ChoiceLog,
}

impl DfsController {
    /// Controller replaying `prefix` then canonical-0.
    pub fn new(prefix: Vec<u32>) -> Self {
        DfsController { prefix, log: ChoiceLog::default() }
    }

    /// The DFS successor of a completed run's decision sequence: the
    /// longest prefix whose last decision can still be incremented, with
    /// that decision incremented. `None` when the tree is exhausted.
    pub fn next_prefix(log: &ChoiceLog) -> Option<Vec<u32>> {
        let mut cs = log.choices();
        for i in (0..cs.len()).rev() {
            if log.0[i].choice + 1 < log.0[i].n {
                cs.truncate(i + 1);
                cs[i] += 1;
                return Some(cs);
            }
        }
        None
    }
}

impl ScheduleController for DfsController {
    fn choose(&mut self, point: ChoicePoint, n: usize) -> usize {
        let c = self
            .prefix
            .get(self.log.0.len())
            .map_or(0, |&p| (p as usize).min(n - 1));
        self.log.0.push(ChoiceRec { point, n: n as u32, choice: c as u32 });
        c
    }
}

/// Replays a recorded choice sequence; canonical-0 once exhausted (so a
/// truncated sequence is still a complete, deterministic schedule — the
/// property the shrinker leans on).
pub struct ReplayController {
    choices: Vec<u32>,
    cursor: usize,
    /// Decisions taken so far.
    pub log: ChoiceLog,
}

impl ReplayController {
    /// Controller replaying `choices`.
    pub fn new(choices: Vec<u32>) -> Self {
        ReplayController { choices, cursor: 0, log: ChoiceLog::default() }
    }
}

impl ScheduleController for ReplayController {
    fn choose(&mut self, point: ChoicePoint, n: usize) -> usize {
        let c = self
            .choices
            .get(self.cursor)
            .map_or(0, |&p| (p as usize).min(n - 1));
        self.cursor += 1;
        self.log.0.push(ChoiceRec { point, n: n as u32, choice: c as u32 });
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stable() {
        // Reference values of SplitMix64 from the published algorithm —
        // seeds must mean the same schedule on every platform forever.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn random_controller_is_deterministic_per_seed() {
        let mut a = RandomController::new(7);
        let mut b = RandomController::new(7);
        let mut c = RandomController::new(8);
        let seq_a: Vec<usize> =
            (2..20).map(|n| a.choose(ChoicePoint::ReadyTaskPick, n)).collect();
        let seq_b: Vec<usize> =
            (2..20).map(|n| b.choose(ChoicePoint::ReadyTaskPick, n)).collect();
        let seq_c: Vec<usize> =
            (2..20).map(|n| c.choose(ChoicePoint::ReadyTaskPick, n)).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
        assert_eq!(a.log.fingerprint(), b.log.fingerprint());
        assert_ne!(a.log.fingerprint(), c.log.fingerprint());
    }

    #[test]
    fn dfs_prefix_enumeration_counts_the_tree() {
        // A synthetic decision tree: every run makes 3 binary decisions —
        // DFS must visit exactly 2^3 = 8 distinct schedules, each once.
        let mut prefix = Some(Vec::new());
        let mut seen = std::collections::HashSet::new();
        let mut runs = 0;
        while let Some(p) = prefix {
            let mut c = DfsController::new(p);
            for _ in 0..3 {
                c.choose(ChoicePoint::EventTieBreak, 2);
            }
            assert!(seen.insert(c.log.choices()), "duplicate schedule");
            runs += 1;
            assert!(runs <= 8, "runaway enumeration");
            prefix = DfsController::next_prefix(&c.log);
        }
        assert_eq!(runs, 8);
    }

    #[test]
    fn dfs_handles_varying_arity() {
        // Arity can depend on earlier choices; enumeration must still
        // terminate and never repeat. Tree: first decision of 3; branch 0
        // has a follow-up of 2, others none -> 4 leaves.
        let mut prefix = Some(Vec::new());
        let mut seen = std::collections::HashSet::new();
        while let Some(p) = prefix {
            let mut c = DfsController::new(p);
            let first = c.choose(ChoicePoint::ReadyTaskPick, 3);
            if first == 0 {
                c.choose(ChoicePoint::StealVictim, 2);
            }
            assert!(seen.insert(c.log.choices()));
            prefix = DfsController::next_prefix(&c.log);
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn replay_reproduces_and_pads_with_canonical() {
        let mut orig = RandomController::new(3);
        let ns = [2usize, 5, 3, 7, 2];
        let seq: Vec<usize> =
            ns.iter().map(|&n| orig.choose(ChoicePoint::EventTieBreak, n)).collect();
        let mut rep = ReplayController::new(orig.log.choices());
        let seq2: Vec<usize> =
            ns.iter().map(|&n| rep.choose(ChoicePoint::EventTieBreak, n)).collect();
        assert_eq!(seq, seq2);
        // Beyond the recorded sequence: canonical pick.
        assert_eq!(rep.choose(ChoicePoint::EventTieBreak, 9), 0);
    }

    #[test]
    fn pct_prefers_one_rank_within_an_epoch() {
        let mut c = PctController::new(11, 1000);
        let first = c.choose(ChoicePoint::ReadyTaskPick, 4);
        for _ in 0..50 {
            assert_eq!(c.choose(ChoicePoint::ReadyTaskPick, 4), first);
        }
        // Across epochs the preference eventually moves.
        let mut d = PctController::new(11, 1);
        let picks: std::collections::HashSet<usize> =
            (0..64).map(|_| d.choose(ChoicePoint::ReadyTaskPick, 4)).collect();
        assert!(picks.len() > 1, "priorities never shifted");
    }

    #[test]
    fn fingerprint_distinguishes_point_kind() {
        let mut a = ChoiceLog::default();
        a.0.push(ChoiceRec { point: ChoicePoint::ReadyTaskPick, n: 2, choice: 1 });
        let mut b = ChoiceLog::default();
        b.0.push(ChoiceRec { point: ChoicePoint::StealVictim, n: 2, choice: 1 });
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
