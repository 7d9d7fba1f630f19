//! Reproduces Fig. 9: Gantt chart of the TRSM+GEMM composition at
//! N=32768, block size 2048 — XKBlas composes without synchronization
//! gaps, Chameleon shows an inter-call hole.

use xk_bench::figs;

fn main() -> Result<(), xk_runtime::Error> {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick { 16384 } else { 32768 };
    let topo = xk_topo::dgx1();
    println!("Fig. 9 — composition Gantt (N={n}, block 2048)\n");
    print!("{}", figs::fig9_gantt(&topo, n, 2048, 110));
    for p in figs::fig9_export_traces(&topo, n, 2048)? {
        println!("perfetto trace: {} (open in ui.perfetto.dev)", p.display());
    }
    Ok(())
}
