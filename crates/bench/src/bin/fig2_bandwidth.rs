//! Reproduces Fig. 2: the GPU↔GPU bandwidth matrix (GB/s), measured by
//! timing 64 MiB point-to-point transfers on the idle simulated machine.

use xk_bench::write_csv;

fn main() -> Result<(), xk_runtime::Error> {
    let topo = xk_topo::dgx1();
    let t = xk_bench::figs::fig2_bandwidth(&topo);
    println!("Fig. 2 — bandwidth (GB/s) between GPUs (simulated DGX-1)");
    println!("{}", t.render());
    println!("paper anchors: x2 NVLink ~96.4, x1 NVLink ~48.4, PCIe ~17.1, self ~747");
    let p = write_csv("fig2_bandwidth.csv", &t.to_csv())?;
    println!("csv: {}", p.display());
    Ok(())
}
