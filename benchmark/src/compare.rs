//! `compare <setA> <setB>`: do two sets of runs agree within the
//! benchmark's own bounds?
//!
//! A set is a directory of result files (any number of runs per workload).
//! For every (workload, metric) the two sets' medians and quartiles are put
//! side by side with the relative change, the metric's bound and a verdict;
//! exact-repeat counts of runs with the same seed are compared for equality.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

use crate::metrics::{find, Better, END_TO_END};
use crate::report::{parse_report, ParsedReport};
use crate::stats::Summary;

/// How one metric compares between the two sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is not worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Run-to-run spread exceeds the bound, so the medians cannot tell.
    Unresolved,
    /// A metric without a bound (per-layer, extras): reported, not judged.
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's own
/// direction (positive = worse).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judges one metric from its values in set A and set B.
///
/// `unresolved` when either set's inter-quartile spread exceeds the bound —
/// unless every run of B reads better than every run of A, which no spread
/// can explain away.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    if worsening(sa.median, sb.median, better) > bound {
        return Verdict::Worse;
    }
    let b_always_better = match better {
        Better::Lower => {
            b.iter().cloned().fold(f64::MIN, f64::max) < a.iter().cloned().fold(f64::MAX, f64::min)
        }
        Better::Higher => {
            b.iter().cloned().fold(f64::MAX, f64::min) > a.iter().cloned().fold(f64::MIN, f64::max)
        }
    };
    if (sa.spread() > bound || sb.spread() > bound) && !b_always_better {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

/// Every result file under `dir`, parsed; unreadable files are an error.
pub fn load_set(dir: &Path) -> Result<Vec<ParsedReport>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && !p
                    .file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("trace_"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_report(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// The comparison of two sets.
pub struct Comparison {
    /// The printable table.
    pub text: String,
    /// True when no gated metric is `worse` or `unresolved`, every run was
    /// correct and every exact-repeat count is equal.
    pub agrees: bool,
}

type Key = (String, bool); // (workload, traced)

fn group(set: &[ParsedReport]) -> BTreeMap<Key, Vec<&ParsedReport>> {
    let mut by_key: BTreeMap<Key, Vec<&ParsedReport>> = BTreeMap::new();
    for r in set {
        by_key
            .entry((r.workload.clone(), r.trace))
            .or_default()
            .push(r);
    }
    by_key
}

/// Compares set `a` (the reference) with set `b`.
pub fn compare_sets(a: &[ParsedReport], b: &[ParsedReport]) -> Comparison {
    let (ga, gb) = (group(a), group(b));
    let mut text = String::new();
    let mut agrees = true;

    for r in a.iter().chain(b) {
        if !r.correct {
            agrees = false;
            let _ = writeln!(
                text,
                "INCORRECT RUN: {} seed {} (trace {})",
                r.workload,
                r.seed,
                u8::from(r.trace)
            );
        }
    }
    let _ = writeln!(
        text,
        "{:<16} {:<44} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6} {:>3}/{:<3} verdict",
        "workload",
        "metric",
        "A median",
        "A iqr/med",
        "B median",
        "B iqr/med",
        "worse%",
        "bound%",
        "nA",
        "nB"
    );
    for (key, runs_a) in &ga {
        let Some(runs_b) = gb.get(key) else {
            agrees = false;
            let _ = writeln!(
                text,
                "{:<16} (trace {}) is missing from set B",
                key.0,
                u8::from(key.1)
            );
            continue;
        };
        // End-to-end metrics first, in registry order, then the rest by name.
        let names: BTreeSet<&String> = runs_a.iter().flat_map(|r| r.values.keys()).collect();
        let mut ordered: Vec<&String> = names.iter().copied().collect();
        ordered.sort_by_key(|n| {
            END_TO_END
                .iter()
                .position(|d| d.name == n.as_str())
                .unwrap_or(usize::MAX)
        });
        for name in ordered {
            let values = |runs: &[&ParsedReport]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.values.get(name).copied())
                    .collect()
            };
            let (va, vb) = (values(runs_a), values(runs_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let def = find(name);
            let better = def.map_or(Better::Lower, |d| d.better);
            let bound = def.and_then(|d| d.bound);
            let verdict = judge(&va, &vb, better, bound);
            agrees &= matches!(verdict, Verdict::Ok | Verdict::Info);
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let _ = writeln!(
                text,
                "{:<16} {:<44} {:>12.6} {:>11.2}% {:>12.6} {:>11.2}% {:>+8.2} {:>6} {:>3}/{:<3} {}",
                key.0,
                name,
                sa.median,
                sa.spread() * 100.0,
                sb.median,
                sb.spread() * 100.0,
                worsening(sa.median, sb.median, better) * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.0}", b * 100.0)),
                sa.n,
                sb.n,
                verdict.as_str()
            );
        }
        // Counts repeat exactly between runs of the same seed.
        for ra in runs_a {
            for rb in runs_b.iter().filter(|rb| rb.seed == ra.seed) {
                for (name, va) in &ra.counts {
                    let vb = rb.counts.get(name);
                    if vb != Some(va) {
                        agrees = false;
                        let _ = writeln!(
                            text,
                            "{:<16} count {name} (seed {}): expected {va}, got {}  DIFFERS",
                            key.0,
                            ra.seed,
                            vb.map_or("nothing".to_string(), u64::to_string)
                        );
                    }
                }
            }
        }
    }
    for key in gb.keys().filter(|k| !ga.contains_key(*k)) {
        let _ = writeln!(
            text,
            "{:<16} (trace {}) is only in set B",
            key.0,
            u8::from(key.1)
        );
    }
    let _ = writeln!(
        text,
        "{}",
        if agrees {
            "the two sets agree: every gated metric ok, every exact-repeat count equal"
        } else {
            "the two sets DISAGREE"
        }
    );
    Comparison { text, agrees }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: u64, pass_s: f64, lookups: u64) -> ParsedReport {
        ParsedReport {
            workload: workload.into(),
            trace: false,
            seed,
            correct: true,
            values: [
                ("pass_s".to_string(), pass_s),
                ("hit_us_p50".to_string(), 57.0),
            ]
            .into(),
            counts: [("cache_lookups".to_string(), lookups)].into(),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            judge(&steady, &steady, Better::Lower, Some(0.10)),
            Verdict::Ok
        );
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            judge(&steady, &slower, Better::Lower, Some(0.10)),
            Verdict::Worse
        );
        // A rate that drops is worse; one that rises is not.
        assert_eq!(
            judge(&slower, &steady, Better::Higher, Some(0.10)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &slower, Better::Higher, Some(0.10)),
            Verdict::Ok
        );
        // Wide spread: the medians cannot tell...
        let noisy = [0.8, 1.0, 1.3, 0.9, 1.2];
        assert_eq!(
            judge(&noisy, &steady, Better::Lower, Some(0.10)),
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A.
        let faster = [0.5, 0.6, 0.55, 0.5, 0.7];
        assert_eq!(
            judge(&noisy, &faster, Better::Lower, Some(0.10)),
            Verdict::Ok
        );
        assert_eq!(judge(&steady, &slower, Better::Lower, None), Verdict::Info);
        assert!((worsening(2.0, 2.5, Better::Lower) - 0.25).abs() < 1e-12);
        assert!((worsening(2.0, 2.5, Better::Higher) + 0.25).abs() < 1e-12);
    }

    #[test]
    fn sets_agree_when_within_bounds_and_counts_equal() {
        let a: Vec<_> = (1..=5)
            .map(|s| run("paper_small", s, 2.0 + s as f64 * 0.01, 977))
            .collect();
        let b: Vec<_> = (1..=5)
            .map(|s| run("paper_small", s, 2.05 + s as f64 * 0.01, 977))
            .collect();
        let c = compare_sets(&a, &b);
        assert!(c.agrees, "{}", c.text);
        assert!(
            c.text.contains("pass_s") && c.text.contains(" ok"),
            "{}",
            c.text
        );
        // The ungated extra is listed, not judged.
        assert!(
            c.text
                .lines()
                .any(|l| l.contains("hit_us_p50") && l.trim_end().ends_with('-')),
            "{}",
            c.text
        );
    }

    #[test]
    fn a_regression_a_changed_count_or_a_missing_workload_disagrees() {
        let a: Vec<_> = (1..=5).map(|s| run("paper_small", s, 2.0, 977)).collect();
        let slow: Vec<_> = (1..=5).map(|s| run("paper_small", s, 2.6, 977)).collect();
        let c = compare_sets(&a, &slow);
        assert!(!c.agrees && c.text.contains("worse"), "{}", c.text);

        let recount: Vec<_> = (1..=5).map(|s| run("paper_small", s, 2.0, 978)).collect();
        let c = compare_sets(&a, &recount);
        assert!(
            !c.agrees && c.text.contains("expected 977, got 978"),
            "{}",
            c.text
        );

        let other: Vec<_> = (1..=5).map(|s| run("des_large", s, 2.0, 977)).collect();
        assert!(!compare_sets(&a, &other).agrees);

        let mut wrong = a.clone();
        wrong[0].correct = false;
        assert!(!compare_sets(&wrong, &a).agrees);
    }
}
