//! Reproduces Table II: maximum loss/gain of the XKBlas variants with
//! respect to baseline XKBlas for matrix dimensions >= 16384.

use xk_bench::figs;
use xk_bench::write_csv;

fn main() -> Result<(), xk_runtime::Error> {
    let quick = std::env::args().any(|a| a == "--quick");
    let topo = xk_topo::dgx1();
    let dims = figs::dims(quick);
    let t = figs::table2_gains(&topo, &dims);
    println!("Table II — max loss/gain vs baseline XKBlas (N >= 16384)\n");
    println!("{}", t.render());
    println!("paper: DGEMM +111.7 / -43.5 / -43; DSYR2K +71.1 / -19.4 / -53.5; DTRSM +52.6 / -29.6 / -29.3 (%)");
    write_csv("table2_gains.csv", &t.to_csv())?;
    Ok(())
}
