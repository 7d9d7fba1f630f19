//! The command line: `run`, `all`, `list`, `compare`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use xk_trace::export::jsonck::{self, Value};

use crate::compare::{compare_sets, load_set};
use crate::envstamp;
use crate::harness::{write_file, Checks, RunOptions};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::{run_by_name, NAMES};
use crate::BENCHMARK_JSON;

/// Seconds of timed passes when `--seconds` is not given: `run_seconds`
/// of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 8.0;

const USAGE: &str = "\
usage: xk-benchmark <command>

  run --workload <name> --seed <u64> [--seconds <s>] [--trace [0|1]] [--out <file>]
      One run of one workload. Untraced (default) prints the end-to-end
      metrics; --trace 1 prints the per-layer metrics and writes the spans
      to <out dir>/trace_<workload>.json. The last line of stdout is the
      result object; --out (default <out dir>/<workload>.s<seed>.t<0|1>.json)
      receives the full result file.
  all [--seed <u64> | --seeds <a>..<b>] [--seconds <s>] [--trace 0|1|both] [--out-dir <dir>]
      Every workload, one child process per run, result files in <dir>.
  list
      Workloads, metrics, units and bounds.
  compare <setA dir> <setB dir>
      Medians, quartiles, relative change, bound and verdict per
      (workload, metric); exit code 1 when the sets disagree.
";

/// `benchmark/out` from the repository root, `out` from inside `benchmark/`.
fn default_out_dir() -> PathBuf {
    if Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, Option<String>)>,
    words: Vec<String>,
}

impl Args {
    /// `--trace` may stand alone (meaning 1); every other flag takes a value.
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut words = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                words.push(arg.clone());
                continue;
            };
            let takes_value = it.peek().is_some_and(|next| !next.starts_with("--"));
            let value = if name == "trace" {
                it.next_if(|next| matches!(next.as_str(), "0" | "1" | "both"))
                    .cloned()
            } else if takes_value {
                it.next().cloned()
            } else {
                return Err(format!("--{name} needs a value"));
            };
            flags.push((name.to_string(), value));
        }
        Ok(Args { flags, words })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_deref().unwrap_or("1"))
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("--{name} {v}: not a valid value"))
            })
            .transpose()
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !known.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }
}

fn seconds_arg(args: &Args) -> Result<f64, String> {
    let seconds = args.number::<f64>("seconds")?.unwrap_or(DEFAULT_SECONDS);
    if seconds.is_finite() && seconds > 0.0 && seconds <= 600.0 {
        Ok(seconds)
    } else {
        Err(format!(
            "--seconds {seconds}: expected a time between 0 and 600 s"
        ))
    }
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    args.reject_unknown(&["workload", "seed", "seconds", "trace", "out"])?;
    let workload = args
        .get("workload")
        .ok_or("run needs --workload <name> (see `list`)")?;
    let seed = args
        .number::<u64>("seed")?
        .ok_or("run needs --seed <u64>")?;
    let trace = match args.get("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let out = args.get("out").map(PathBuf::from).unwrap_or_else(|| {
        default_out_dir().join(format!("{workload}.s{seed}.t{}.json", u8::from(trace)))
    });
    let opts = RunOptions {
        seed,
        seconds: seconds_arg(args)?,
        trace,
        out_dir: out.parent().map_or_else(default_out_dir, Path::to_path_buf),
    };
    let mut report = run_by_name(workload, &opts)
        .ok_or_else(|| format!("unknown workload {workload:?}; known: {}", NAMES.join(", ")))?;

    let mut io = Checks::default();
    write_file(&out, &report.to_json(), &mut io);
    report.failures.extend(io.failures);

    // Humans first (stderr), then the one line the pipeline reads (stdout).
    let e = &report.env;
    eprintln!(
        "{workload}: seed {seed}, {} passes, commit {}, {}, nproc {}, isa {}, queue {}, threads {}",
        report.passes, e.commit, e.rustc, e.nproc, e.isa, e.queue_backend, e.threads
    );
    for m in report.metrics.iter().chain(&report.extras) {
        match m.summary {
            Some(s) => eprintln!(
                "  {:<44} {:>16.6} {:<8} (n {}, q1 {:.6}, q3 {:.6})",
                m.name, m.value, m.unit, s.n, s.q1, s.q3
            ),
            None => eprintln!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit),
        }
    }
    for (name, v) in &report.counts {
        eprintln!("  count {name:<38} {v:>16}");
    }
    for failure in &report.failures {
        eprintln!("FAILED CHECK: {failure}");
    }
    eprintln!(
        "  checks: {} attempted, {} failed; result file {}",
        report.attempted,
        report.failures.len(),
        out.display()
    );
    println!("{}", report.result_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_all(args: &Args) -> Result<ExitCode, String> {
    args.reject_unknown(&["seed", "seeds", "seconds", "trace", "out-dir"])?;
    let seeds: Vec<u64> = match (args.get("seeds"), args.number::<u64>("seed")?) {
        (Some(range), _) => {
            let (a, b) = range.split_once("..").ok_or("--seeds expects <a>..<b>")?;
            let parse = |s: &str| {
                s.parse::<u64>()
                    .map_err(|_| format!("--seeds {range}: not a range"))
            };
            (parse(a)?..parse(b)?).collect()
        }
        (None, Some(seed)) => vec![seed],
        (None, None) => vec![1],
    };
    let traces: &[&str] = match args.get("trace").unwrap_or("both") {
        "0" => &["0"],
        "1" => &["1"],
        "both" => &["0", "1"],
        other => return Err(format!("--trace {other}: expected 0, 1 or both")),
    };
    let seconds = seconds_arg(args)?;
    let out_dir = args
        .get("out-dir")
        .map_or_else(default_out_dir, PathBuf::from);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut failed = 0usize;
    // One child per run: peak memory and lazy initialisation belong to a
    // single workload, exactly as when the pipeline runs them one by one.
    for &seed in &seeds {
        for workload in NAMES {
            for trace in traces {
                let out = out_dir.join(format!("{workload}.s{seed}.t{trace}.json"));
                let status = Command::new(&exe)
                    .args(["run", "--workload", workload, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string(), "--trace", trace])
                    .arg("--out")
                    .arg(&out)
                    .status()
                    .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
                if !status.success() {
                    failed += 1;
                    eprintln!("{workload} (seed {seed}, trace {trace}) FAILED: {status}");
                }
            }
        }
    }
    eprintln!(
        "{} runs, {failed} failed; result files in {}",
        seeds.len() * NAMES.len() * traces.len(),
        out_dir.display()
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_list() -> Result<ExitCode, String> {
    let doc = jsonck::parse(BENCHMARK_JSON)?;
    println!("workloads:");
    for w in doc
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap_or_default()
    {
        let text = |key| w.get(key).and_then(Value::as_str).unwrap_or("?");
        println!("  {:<16} {}", text("name"), text("why"));
    }
    println!("end-to-end metrics (tracing off; bound = share of the parent's median):");
    for d in END_TO_END {
        println!(
            "  {:<44} {:<8} {} is better, bound {:.2}",
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound.unwrap_or(0.0)
        );
    }
    println!("per-layer metrics (traced run):");
    for d in PER_LAYER {
        println!(
            "  {:<44} {:<8} {} is better",
            d.name,
            d.unit,
            d.better.as_str()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    args.reject_unknown(&[])?;
    let [_, a, b] = args.words.as_slice() else {
        return Err("compare needs two directories: <setA> <setB>".to_string());
    };
    let comparison = compare_sets(&load_set(Path::new(a))?, &load_set(Path::new(b))?);
    print!("{}", comparison.text);
    Ok(if comparison.agrees {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Entry point of the `xk-benchmark` binary.
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(&argv).and_then(|args| {
        let command = args.words.first().map(String::as_str);
        if matches!(command, Some("run" | "all")) {
            if let Some(var) = envstamp::pinned_variable() {
                return Err(format!(
                    "{var} is set: a pinned kernel ISA or event-queue backend would be timed \
                     under the default's metric names; unset it to run the benchmark"
                ));
            }
        }
        match command {
            Some("run") => cmd_run(&args),
            Some("all") => cmd_all(&args),
            Some("list") => cmd_list(),
            Some("compare") => cmd_compare(&args),
            _ => Err(USAGE.to_string()),
        }
    });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
