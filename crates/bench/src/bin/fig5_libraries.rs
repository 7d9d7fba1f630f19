//! Reproduces Fig. 5: the six BLAS-3 routines across the eight libraries
//! on the simulated DGX-1, data-on-host methodology.

use xk_bench::figs;
use xk_bench::write_csv;

fn main() -> Result<(), xk_runtime::Error> {
    let quick = std::env::args().any(|a| a == "--quick");
    let topo = xk_topo::dgx1();
    let dims = figs::dims(quick);
    println!("Fig. 5 — library comparison (TFlop/s, data-on-host, 8 GPUs)");
    println!("('-' = not supported or allocation error, per the paper)\n");
    for (routine, table) in figs::fig5_libraries(&topo, &dims) {
        println!("{}", routine.name());
        println!("{}", table.render());
        write_csv(
            &format!("fig5_{}.csv", routine.name().to_lowercase()),
            &table.to_csv(),
        )?;
    }
    Ok(())
}
