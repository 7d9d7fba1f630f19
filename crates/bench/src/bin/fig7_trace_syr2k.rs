//! Reproduces Fig. 7: SYR2K FP64 execution trace per GPU at N=49152 for
//! Chameleon Tile, cuBLAS-XT and XKBlas (the paper's load-imbalance view).

use xk_bench::figs;
use xk_bench::write_csv;

fn main() -> Result<(), xk_runtime::Error> {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick { 16384 } else { 49152 };
    let topo = xk_topo::dgx1();
    println!("Fig. 7 — SYR2K N={n} per-GPU time breakdown\n");
    for (lib, table, imbalance) in figs::fig7_trace_syr2k(&topo, n) {
        println!("{} (kernel-load imbalance max/mean-1 = {:.1}%)", lib.name(), imbalance * 100.0);
        println!("{}", table.render());
        write_csv(
            &format!("fig7_{}.csv", lib.name().replace(' ', "_").to_lowercase()),
            &table.to_csv(),
        )?;
    }
    println!("Observability (critical path verified against the makespan):");
    for (lib, summary) in figs::fig7_obs(&topo, n) {
        println!("{}:\n{summary}", lib.name());
    }
    Ok(())
}
