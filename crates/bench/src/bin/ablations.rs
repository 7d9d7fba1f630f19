//! Ablations of the reproduction's own design choices (beyond the paper's
//! Fig. 3): window depth, scheduler, input caching — the knobs DESIGN.md
//! calls out. Each sweep isolates one knob on DGEMM data-on-host.
//!
//! Every configuration simulates independently, so each knob sweep runs its
//! values as replicas on every core; rows are placed in value order, so the
//! printed tables are identical to the serial ones. It takes no arguments.

use xk_bench::Table;
use xk_kernels::Routine;
use xk_runtime::{RuntimeConfig, SchedulerKind};
use xkblas_core::{Context, Matrix};

fn run_with(cfg: RuntimeConfig, n: usize, tile: usize) -> f64 {
    let topo = xk_topo::dgx1();
    let mut ctx = Context::<f64>::new(topo, cfg, tile);
    ctx.set_simulation_only(true);
    let a = Matrix::<f64>::phantom(n, n);
    let b = Matrix::<f64>::phantom(n, n);
    let c = Matrix::<f64>::phantom(n, n);
    xkblas_core::gemm_async(&mut ctx, xkblas_core::Trans::No, xkblas_core::Trans::No, 1.0, &a, &b, 0.5, &c);
    ctx.memory_coherent_async(&c);
    let sim = ctx.run_simulated();
    sim.tflops(Routine::Gemm.flops_square(n as u64))
}

/// One knob sweep: a row per value, evaluated as parallel replicas.
fn knob_table<V: Sync>(
    header: &[&str],
    values: &[V],
    row: impl Fn(&V) -> Vec<String> + Sync,
) -> Table {
    let mut t = Table::new(header);
    for r in xk_sim::run_replicas(values.len(), 0, |i| row(&values[i])) {
        t.row(r);
    }
    t
}

fn main() {
    if let Some(bad) = std::env::args().nth(1) {
        eprintln!("ablations: unknown argument {bad:?} (it takes none)");
        std::process::exit(2);
    }
    let (n, tile) = (24576, 2048);
    println!("Ablations on DGEMM N={n}, tile {tile}, data-on-host (TFlop/s)\n");

    // (1) In-flight window depth: inputs are fetched at launch, so the
    // window is the fetch/compute pipeline depth.
    let t = knob_table(&["window", "TFlop/s"], &[1usize, 2, 4, 8, 16, 32], |&w| {
        let mut cfg = RuntimeConfig::xkblas();
        cfg.window = w;
        vec![w.to_string(), format!("{:.2}", run_with(cfg, n, tile))]
    });
    println!("window depth\n{}", t.render());

    // (2) Scheduler.
    let t = knob_table(
        &["scheduler", "TFlop/s"],
        &[
            ("locality work stealing", SchedulerKind::LocalityWorkStealing),
            ("dmdas", SchedulerKind::Dmdas),
            ("static owner", SchedulerKind::StaticOwner),
            ("round robin", SchedulerKind::RoundRobin),
        ],
        |&(name, s)| {
            let cfg = RuntimeConfig::xkblas().with_scheduler(s);
            vec![name.to_string(), format!("{:.2}", run_with(cfg, n, tile))]
        },
    );
    println!("scheduler\n{}", t.render());

    // (3) Input caching — measured without D2D so that every re-read hits
    // the host (the PaRSEC-like configuration of DESIGN.md §6).
    let t = knob_table(
        &["software cache", "TFlop/s"],
        &[("inputs cached", true), ("inputs re-read per task", false)],
        |&(name, cache)| {
            let mut cfg = RuntimeConfig::xkblas();
            cfg.heuristics = xk_runtime::Heuristics::host_only();
            cfg.window = 4;
            cfg.cache_inputs = cache;
            vec![name.to_string(), format!("{:.2}", run_with(cfg, n, tile))]
        },
    );
    println!("input caching (host-staged transfers)\n{}", t.render());
}
