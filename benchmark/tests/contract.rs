//! `BENCHMARK.json` against the code: same workloads, same metrics, and
//! inside the limits the pipeline sets for the file.

use xk_benchmark::cli::DEFAULT_SECONDS;
use xk_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use xk_benchmark::workloads::NAMES;
use xk_benchmark::BENCHMARK_JSON;
use xk_trace::export::jsonck::{self, Value};

fn doc() -> Value {
    jsonck::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

fn text<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string {key:?}"))
}

fn array<'v>(doc: &'v Value, key: &str) -> &'v [Value] {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("missing array {key:?}"))
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn top_level_keys_are_exactly_the_contract() {
    let Value::Obj(fields) = doc() else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
}

#[test]
fn command_runs_the_benchmark_package_and_stays_inside_paths() {
    let doc = doc();
    let command: Vec<&str> = array(&doc, "command")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|s| s.len() <= 200));
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"--offline") && command.contains(&"--release"));
    assert!(command.contains(&"benchmark/Cargo.toml"));
    assert_eq!(command.last(), Some(&"run"));
    assert!(command
        .iter()
        .all(|s| !s.starts_with('/') && !s.contains("..")));
    let paths: Vec<&str> = array(&doc, "paths")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
}

#[test]
fn run_seconds_is_the_default_of_the_command_line() {
    let seconds = doc().get("run_seconds").and_then(Value::as_num).unwrap();
    assert_eq!(seconds, DEFAULT_SECONDS);
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

#[test]
fn workloads_are_the_ones_the_binary_runs() {
    let doc = doc();
    let workloads = array(&doc, "workloads");
    let names: Vec<&str> = workloads.iter().map(|w| text(w, "name")).collect();
    assert_eq!(names, NAMES);
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        let Value::Obj(fields) = w else {
            panic!("workload is not an object")
        };
        assert_eq!(fields.len(), 2, "a workload has exactly name and why");
        let why = text(w, "why");
        assert!(
            valid_name(text(w, "name"))
                && !why.is_empty()
                && why.len() <= 200
                && !why.contains('\n')
        );
    }
}

fn assert_metrics_match(section: &str, defs: &[MetricDef], keys: usize) {
    let doc = doc();
    let listed = array(&doc, section);
    assert_eq!(listed.len(), defs.len(), "{section}");
    for (m, d) in listed.iter().zip(defs) {
        let Value::Obj(fields) = m else {
            panic!("metric is not an object")
        };
        assert_eq!(fields.len(), keys, "{}", d.name);
        assert_eq!(text(m, "name"), d.name);
        assert_eq!(text(m, "unit"), d.unit);
        assert_eq!(text(m, "better"), d.better.as_str());
        assert_eq!(
            m.get("bound").and_then(Value::as_num),
            d.bound,
            "{}",
            d.name
        );
        assert!(valid_name(d.name), "{}", d.name);
        assert!(valid_unit(d.unit), "{} {}", d.name, d.unit);
    }
}

#[test]
fn end_to_end_metrics_match_the_registry() {
    assert_metrics_match("end_to_end", END_TO_END, 4);
    assert!((1..=16).contains(&END_TO_END.len()));
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!(setup.unit, "s");
    let widest = END_TO_END
        .iter()
        .filter_map(|d| d.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(widest),
        "setup_s carries the widest bound"
    );
    assert!(END_TO_END
        .iter()
        .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
}

#[test]
fn per_layer_metrics_match_the_registry() {
    assert_metrics_match("per_layer", PER_LAYER, 3);
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    names.extend(NAMES);
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");
}
