//! Reproduces Fig. 4: data-on-device (2D block-cyclic, (4,2) grid, tile =
//! ceil(N / (2*#gpus))) against the data-on-host references.

use xk_bench::figs;
use xk_bench::write_csv;

fn main() -> Result<(), xk_runtime::Error> {
    let quick = std::env::args().any(|a| a == "--quick");
    let topo = xk_topo::dgx1();
    let dims = figs::dims(quick);
    println!("Fig. 4 — data-on-device vs data-on-host (TFlop/s, 8 GPUs)\n");
    for (routine, table) in figs::fig4_data_on_device(&topo, &dims) {
        println!("{}", routine.name());
        println!("{}", table.render());
        write_csv(
            &format!("fig4_{}.csv", routine.name().to_lowercase()),
            &table.to_csv(),
        )?;
    }
    Ok(())
}
