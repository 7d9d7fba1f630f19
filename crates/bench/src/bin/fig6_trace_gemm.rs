//! Reproduces Fig. 6: cumulative GPU time and normalized per-kind ratio of
//! GEMM FP64 at N=32768 across libraries (paper: XKBlas ~25.4% transfers,
//! Chameleon Tile ~41.2%).

use xk_bench::figs;
use xk_bench::write_csv;

fn main() -> Result<(), xk_runtime::Error> {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick { 16384 } else { 32768 };
    let topo = xk_topo::dgx1();
    let t = figs::fig6_trace_gemm(&topo, n);
    println!("Fig. 6 — GEMM N={n} cumulative execution time / normalized ratio\n");
    println!("{}", t.render());
    println!("Observability (critical path verified against the makespan):");
    for (lib, summary) in figs::fig6_obs(&topo, n) {
        println!("{}:\n{summary}", lib.name());
    }
    write_csv("fig6_trace_gemm.csv", &t.to_csv())?;
    Ok(())
}
