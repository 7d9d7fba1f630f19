//! Ablations of the reproduction's own design choices (beyond the paper's
//! Fig. 3): prefetch depth/policy, scheduler, task overhead — the knobs
//! DESIGN.md calls out. Each sweep isolates one knob on DGEMM data-on-host.
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

    // (1) In-flight window depth. With assignment-time prefetch the window
    // only gates kernels (which serialize anyway), so this sweep uses
    // launch-time fetching, where the window is the pipeline depth.
    let t = knob_table(&["window", "TFlop/s"], &[1usize, 2, 4, 8, 16, 32], |&w| {
        let mut cfg = RuntimeConfig::xkblas();
        cfg.window = w;
        cfg.prefetch_at_assign = false;
        vec![w.to_string(), format!("{:.2}", run_with(cfg, n, tile))]
    });
    println!("window depth (launch-time fetching)\n{}", t.render());

    // (2) Prefetch at assignment vs at launch.
    let t = knob_table(
        &["prefetch", "TFlop/s"],
        &[("at assignment (XKaapi)", true), ("at launch (StarPU-like)", false)],
        |&(name, at_assign)| {
            let mut cfg = RuntimeConfig::xkblas();
            cfg.prefetch_at_assign = at_assign;
            vec![name.to_string(), format!("{:.2}", run_with(cfg, n, tile))]
        },
    );
    println!("prefetch policy\n{}", t.render());

    // (3) Scheduler.
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

    // (4) Per-task submission overhead — at a fine tile size where the
    // task count makes the serial submission thread visible.
    let fine = tile / 4;
    let t = knob_table(
        &["task overhead", "TFlop/s"],
        &[0.0f64, 6.0, 20.0, 60.0, 200.0],
        |&us| {
            let mut cfg = RuntimeConfig::xkblas();
            cfg.task_overhead = us * 1e-6;
            vec![format!("{us} us"), format!("{:.2}", run_with(cfg, n, fine))]
        },
    );
    println!("task creation/scheduling overhead (tile {fine})\n{}", t.render());

    // (5) Input caching — measured without D2D so that every re-read hits
    // the host (the PaRSEC-like configuration of DESIGN.md §6).
    let t = knob_table(
        &["software cache", "TFlop/s"],
        &[("inputs cached", true), ("inputs re-read per task", false)],
        |&(name, cache)| {
            let mut cfg = RuntimeConfig::xkblas();
            cfg.heuristics = xk_runtime::Heuristics::host_only();
            cfg.prefetch_at_assign = false;
            cfg.window = 4;
            cfg.cache_inputs = cache;
            vec![name.to_string(), format!("{:.2}", run_with(cfg, n, tile))]
        },
    );
    println!("input caching (host-staged transfers)\n{}", t.render());

    // (6) Eager flush-back.
    let t = knob_table(
        &["write-back policy", "TFlop/s"],
        &[("lazy (explicit coherency)", false), ("eager per final tile", true)],
        |&(name, eager)| {
            let mut cfg = RuntimeConfig::xkblas();
            cfg.eager_flush = eager;
            vec![name.to_string(), format!("{:.2}", run_with(cfg, n, tile))]
        },
    );
    println!("write-back policy\n{}", t.render());
}
