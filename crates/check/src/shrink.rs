//! Shrinking and regression replay.
//!
//! A failing exploration run is a `(DAG spec, seed, choice sequence)`
//! triple. [`shrink_case`] minimizes it — fewer tasks, fewer handles,
//! shorter choice sequence — while the caller's predicate keeps failing,
//! then [`write_regression`] pins the minimized case as a plain text file
//! under `crates/check/regressions/` that [`load_regressions`] replays on
//! every test run.

use std::path::{Path, PathBuf};

use xk_runtime::{Heuristics, RuntimeConfig, TaskGraph};
use xk_topo::FabricSpec;

use crate::graphgen::{build_random_dag, RandomDagSpec};
use crate::topo_util::subtopo;

/// A fully replayable failing case.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayCase {
    /// Short kebab-case name (file stem under `regressions/`).
    pub name: String,
    /// Graph-structure seed for [`build_random_dag`].
    pub seed: u64,
    /// Graph shape.
    pub spec: RandomDagSpec,
    /// GPUs of the (DGX-1 prefix) machine the case runs on.
    pub n_gpus: usize,
    /// Heuristics preset name: `full`, `no_optimistic` or `none`.
    pub heuristics: String,
    /// Recorded schedule decisions (canonical-0 past the end).
    pub choices: Vec<u32>,
    /// The oracle verdict that made this a failure, for the file header.
    pub error: String,
}

impl ReplayCase {
    /// The [`Heuristics`] preset this case names.
    pub(crate) fn heuristics_preset(&self) -> Heuristics {
        match self.heuristics.as_str() {
            "full" => Heuristics::full(),
            "no_optimistic" => Heuristics::no_optimistic(),
            "none" => Heuristics::none(),
            "host_only" => Heuristics::host_only(),
            other => panic!("unknown heuristics preset {other:?} in case {:?}", self.name),
        }
    }

    /// Rebuilds the scenario the case describes: the generated DAG, the
    /// first-`n_gpus` DGX-1 sub-machine, and the runtime configuration.
    pub fn scenario(&self) -> (TaskGraph, FabricSpec, RuntimeConfig) {
        (
            build_random_dag(self.seed, &self.spec),
            subtopo(&xk_topo::dgx1(), self.n_gpus),
            RuntimeConfig::default().with_heuristics(self.heuristics_preset()),
        )
    }
}

/// Minimizes `case` while `fails` keeps returning `true` for it.
///
/// Two phases, in order: shrink the DAG (tasks, handles, extra reads —
/// re-deriving the schedule from the same seed each time), then shrink the
/// choice sequence of the *final* DAG (truncate the tail, then zero
/// individual entries; a zeroed or missing choice is the canonical pick,
/// so every candidate stays a complete valid schedule).
pub fn shrink_case(mut case: ReplayCase, fails: impl Fn(&ReplayCase) -> bool) -> ReplayCase {
    assert!(fails(&case), "shrink_case needs a failing case to start from");

    // Phase 1: structural shrink, greedily halving toward 1.
    loop {
        let mut improved = false;
        let mut candidates: Vec<RandomDagSpec> = Vec::new();
        if case.spec.tasks > 1 {
            candidates.push(RandomDagSpec { tasks: case.spec.tasks / 2, ..case.spec });
            candidates.push(RandomDagSpec { tasks: case.spec.tasks - 1, ..case.spec });
        }
        if case.spec.handles > 1 {
            candidates.push(RandomDagSpec { handles: case.spec.handles / 2, ..case.spec });
            candidates.push(RandomDagSpec { handles: case.spec.handles - 1, ..case.spec });
        }
        if case.spec.max_reads > 0 {
            candidates.push(RandomDagSpec { max_reads: case.spec.max_reads - 1, ..case.spec });
        }
        for spec in candidates {
            let mut c = case.clone();
            c.spec = spec;
            // A different graph makes the recorded choices meaningless;
            // phase 1 relies on the seed to re-derive the schedule.
            c.choices.clear();
            if fails(&c) {
                case = c;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }

    // Phase 2: choice-sequence shrink (only meaningful when the failure is
    // choice-driven rather than seed-driven).
    let mut lo = 0usize;
    let mut hi = case.choices.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let mut c = case.clone();
        c.choices.truncate(mid);
        if fails(&c) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    case.choices.truncate(hi);
    let mut i = 0;
    while i < case.choices.len() {
        if case.choices[i] != 0 {
            let mut c = case.clone();
            c.choices[i] = 0;
            if fails(&c) {
                case = c;
            }
        }
        i += 1;
    }
    case
}

/// Serializes `case` as the plain-text replay format.
pub fn to_text(case: &ReplayCase) -> String {
    let choices: Vec<String> = case.choices.iter().map(|c| c.to_string()).collect();
    format!(
        "# xk-check regression: replayed by crates/check/tests/regressions.rs\n\
         # error: {}\n\
         name = {}\n\
         seed = {}\n\
         tasks = {}\n\
         handles = {}\n\
         max_reads = {}\n\
         tile_bytes = {}\n\
         on_device = {}\n\
         flush = {}\n\
         n_gpus = {}\n\
         heuristics = {}\n\
         choices = {}\n",
        case.error.replace('\n', " "),
        case.name,
        case.seed,
        case.spec.tasks,
        case.spec.handles,
        case.spec.max_reads,
        case.spec.tile_bytes,
        case.spec.on_device.map_or_else(|| "host".into(), |n| n.to_string()),
        case.spec.flush,
        case.n_gpus,
        case.heuristics,
        choices.join(","),
    )
}

/// Parses the format written by [`to_text`].
pub fn from_text(text: &str) -> Result<ReplayCase, String> {
    let mut case = ReplayCase {
        name: String::new(),
        seed: 0,
        spec: RandomDagSpec::default(),
        n_gpus: 1,
        heuristics: "full".into(),
        choices: Vec::new(),
        error: String::new(),
    };
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            if let Some(e) = line.strip_prefix("# error: ") {
                case.error = e.to_string();
            }
            continue;
        }
        let (key, val) = line.split_once('=').ok_or_else(|| format!("bad line: {line}"))?;
        let (key, val) = (key.trim(), val.trim());
        let parse = |v: &str| v.parse::<u64>().map_err(|e| format!("{key}: {e}"));
        match key {
            "name" => case.name = val.to_string(),
            "seed" => case.seed = parse(val)?,
            "tasks" => case.spec.tasks = parse(val)? as usize,
            "handles" => case.spec.handles = parse(val)? as usize,
            "max_reads" => case.spec.max_reads = parse(val)? as usize,
            "tile_bytes" => case.spec.tile_bytes = parse(val)?,
            "on_device" => {
                case.spec.on_device =
                    if val == "host" { None } else { Some(parse(val)? as usize) }
            }
            "flush" => case.spec.flush = val == "true",
            "n_gpus" => case.n_gpus = parse(val)? as usize,
            "heuristics" => case.heuristics = val.to_string(),
            "choices" => {
                case.choices = if val.is_empty() {
                    Vec::new()
                } else {
                    val.split(',')
                        .map(|c| c.trim().parse::<u32>().map_err(|e| format!("choices: {e}")))
                        .collect::<Result<_, _>>()?
                }
            }
            other => return Err(format!("unknown key: {other}")),
        }
    }
    if case.name.is_empty() {
        return Err("missing name".into());
    }
    Ok(case)
}

/// Writes `case` under `dir` (created if absent) as `<name>.txt`; returns
/// the path.
pub fn write_regression(dir: &Path, case: &ReplayCase) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.txt", case.name));
    std::fs::write(&path, to_text(case))?;
    Ok(path)
}

/// Loads every `*.txt` replay case under `dir`, sorted by file name.
/// A missing directory is an empty corpus, not an error.
pub fn load_regressions(dir: &Path) -> Vec<ReplayCase> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p)
                .unwrap_or_else(|e| panic!("unreadable regression {}: {e}", p.display()));
            from_text(&text)
                .unwrap_or_else(|e| panic!("malformed regression {}: {e}", p.display()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReplayCase {
        ReplayCase {
            name: "sample-case".into(),
            seed: 42,
            spec: RandomDagSpec {
                tasks: 24,
                handles: 8,
                max_reads: 2,
                tile_bytes: 1 << 20,
                on_device: Some(4),
                flush: true,
            },
            n_gpus: 4,
            heuristics: "no_optimistic".into(),
            choices: vec![0, 3, 1, 0, 2],
            error: "final value of handle 3 is 0x1, reference says 0x2".into(),
        }
    }

    #[test]
    fn text_round_trip() {
        let c = sample();
        let parsed = from_text(&to_text(&c)).unwrap();
        assert_eq!(parsed, c);
        // Host placement and empty choices round-trip too.
        let mut c2 = c;
        c2.spec.on_device = None;
        c2.choices.clear();
        assert_eq!(from_text(&to_text(&c2)).unwrap(), c2);
    }

    #[test]
    fn malformed_text_is_rejected() {
        assert!(from_text("name = x\nbogus_key = 1\n").is_err());
        assert!(from_text("seed = 1\n").is_err(), "missing name must fail");
        assert!(from_text("name = x\nseed = notanumber\n").is_err());
    }

    #[test]
    fn shrinker_minimizes_against_a_synthetic_predicate() {
        // "Fails" whenever tasks >= 5 and choices contain a value >= 2 at
        // position 1 — the shrinker must find tasks = 5 and a 2-element
        // canonical-except-last choice list.
        let fails = |c: &ReplayCase| {
            c.spec.tasks >= 5 && c.choices.len() >= 2 && c.choices[1] >= 2
        };
        let start = ReplayCase {
            choices: vec![3, 2, 1, 4, 0, 2],
            ..sample()
        };
        // Phase 1 clears choices, so this predicate must keep failing on a
        // cleared-choices case only via... it will not: choices.clear()
        // makes it pass, so phase 1 keeps the original spec. Use a
        // spec-only predicate for phase 1 behaviour instead.
        let spec_fails = |c: &ReplayCase| c.spec.tasks * c.spec.handles >= 6;
        let shrunk = shrink_case(start.clone(), spec_fails);
        assert!(spec_fails(&shrunk));
        assert!(
            shrunk.spec.tasks * shrunk.spec.handles < 12,
            "barely shrunk: {:?}",
            shrunk.spec
        );

        // Choice-driven predicate: structure cannot shrink (phase 1 clears
        // choices and the predicate then passes), choices must.
        let shrunk2 = shrink_case(start, fails);
        assert!(fails(&shrunk2));
        assert_eq!(shrunk2.choices.len(), 2, "tail not truncated: {:?}", shrunk2.choices);
        assert_eq!(shrunk2.choices[0], 0, "head not canonicalized");
    }

    #[test]
    fn write_and_load_regressions() {
        let dir = std::env::temp_dir().join(format!("xkcheck-shrink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(load_regressions(&dir).is_empty(), "missing dir = empty corpus");
        let c = sample();
        let path = write_regression(&dir, &c).unwrap();
        assert!(path.ends_with("sample-case.txt"));
        let loaded = load_regressions(&dir);
        assert_eq!(loaded, vec![c]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
