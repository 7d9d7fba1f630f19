//! The environment stamp every result carries: which code, compiler,
//! machine and dispatch choices produced the numbers.

use std::process::Command;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Environment variables that pin a kernel ISA or an event-queue backend.
/// A run with either set would time a different program under the same
/// metric names, so the benchmark refuses to start.
pub const PINNING_VARS: [&str; 2] = [xk_sim::QUEUE_ENV, xk_kernels::ISA_ENV];

/// The first pinning variable that is set, if any.
pub fn pinned_variable() -> Option<&'static str> {
    PINNING_VARS
        .into_iter()
        .find(|var| std::env::var_os(var).is_some())
}

/// Where and with what a run was made.
#[derive(Clone, Debug, PartialEq)]
pub struct EnvStamp {
    /// `git rev-parse --short HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Cores available.
    pub nproc: usize,
    /// `xk_kernels::selected_isa()`.
    pub isa: String,
    /// `xk_sim::selected_backend()`.
    pub queue_backend: String,
    /// Thread count handed to every layer that takes one.
    pub threads: usize,
    /// Input seed.
    pub seed: u64,
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl EnvStamp {
    /// Captures the stamp of this process.
    pub fn capture(threads: usize, seed: u64) -> Self {
        EnvStamp {
            commit: git_commit(),
            rustc: env!("XK_BENCH_RUSTC").to_string(),
            nproc: nproc(),
            isa: xk_kernels::selected_isa().name().to_string(),
            queue_backend: format!("{:?}", xk_sim::selected_backend()).to_lowercase(),
            threads,
            seed,
        }
    }
}
