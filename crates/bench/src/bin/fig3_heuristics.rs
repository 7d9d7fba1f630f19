//! Reproduces Fig. 3: FP64 GEMM/SYR2K/TRSM with the device-to-device and
//! topology-aware heuristics disabled, data-on-host, cuBLAS-XT reference.

use xk_bench::figs;
use xk_bench::write_csv;

fn main() -> Result<(), xk_runtime::Error> {
    let quick = std::env::args().any(|a| a == "--quick");
    let topo = xk_topo::dgx1();
    let dims = figs::dims(quick);
    println!("Fig. 3 — impact of the heuristics (TFlop/s, data-on-host, 8 GPUs)\n");
    for (routine, table) in figs::fig3_heuristics(&topo, &dims) {
        println!("{}", routine.name());
        println!("{}", table.render());
        write_csv(
            &format!("fig3_{}.csv", routine.name().to_lowercase()),
            &table.to_csv(),
        )?;
    }
    Ok(())
}
