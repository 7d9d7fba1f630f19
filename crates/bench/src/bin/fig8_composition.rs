//! Reproduces Fig. 8: performance of the TRSM+GEMM composition (block
//! size 2048) for Chameleon Tile vs XKBlas.

use xk_bench::figs;
use xk_bench::write_csv;

fn main() -> Result<(), xk_runtime::Error> {
    let quick = std::env::args().any(|a| a == "--quick");
    let topo = xk_topo::dgx1();
    let dims: Vec<usize> = if quick {
        vec![8192, 16384, 24576]
    } else {
        vec![4096, 8192, 16384, 24576, 32768, 40960, 49152, 57344]
    };
    let t = figs::fig8_composition(&topo, &dims, 2048);
    println!("Fig. 8 — TRSM+GEMM composition (TFlop/s, block 2048, 8 GPUs)\n");
    println!("{}", t.render());
    println!("paper: XKBlas reaches 56.6 TF/s (its GEMM peak is 56.9); Chameleon 36.6 (GEMM peak 51.3)");
    write_csv("fig8_composition.csv", &t.to_csv())?;
    Ok(())
}
