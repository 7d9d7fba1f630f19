//! Runs every table/figure reproduction in sequence and writes all CSV
//! artifacts under results/.
//!
//! Flags:
//! - `--quick`  trims the dimension grid for tests/CI.
//! - `--small`  uses the paper grid truncated at N = 24576 (the
//!   `PAPER_DIMS_SMALL` sweep the benchmark snapshot times).
//! - `--serial` is the fully serial reference: the run cache is off, and
//!   with it the fan-out of each figure's series over every core, so every
//!   point simulates on the calling thread. The default (cached, fanned
//!   out) stdout and CSVs must match it byte for byte; CI compares the two
//!   `--small` outputs. The best-tile search still skips tiles that
//!   provably cannot win, and uncached it also stops a candidate's run once
//!   it provably loses; neither changes a result.

use xk_bench::{figs, runcache, write_csv, PAPER_DIMS_SMALL};

fn main() -> Result<(), xk_runtime::Error> {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let small = args.iter().any(|a| a == "--small");
    let serial = args.iter().any(|a| a == "--serial");
    if serial {
        runcache::set_global_enabled(false);
    }
    let topo = xk_topo::dgx1();
    let dims = if small {
        PAPER_DIMS_SMALL.to_vec()
    } else {
        figs::dims(quick)
    };
    // The trace/composition figures use their reduced problem sizes in
    // either trimmed mode.
    let reduced = quick || small;

    println!("================ Table I / Fig. 1 ================\n");
    print!("{}", figs::table1_platform());

    println!("\n================ Fig. 2 ================\n");
    let t = figs::fig2_bandwidth(&topo);
    println!("{}", t.render());
    write_csv("fig2_bandwidth.csv", &t.to_csv())?;

    println!("\n================ Fig. 3 ================\n");
    for (routine, table) in figs::fig3_heuristics(&topo, &dims) {
        println!("{}\n{}", routine.name(), table.render());
        write_csv(&format!("fig3_{}.csv", routine.name().to_lowercase()), &table.to_csv())?;
    }

    println!("\n================ Table II ================\n");
    let t = figs::table2_gains(&topo, &dims);
    println!("{}", t.render());
    write_csv("table2_gains.csv", &t.to_csv())?;

    println!("\n================ Fig. 4 ================\n");
    for (routine, table) in figs::fig4_data_on_device(&topo, &dims) {
        println!("{}\n{}", routine.name(), table.render());
        write_csv(&format!("fig4_{}.csv", routine.name().to_lowercase()), &table.to_csv())?;
    }

    println!("\n================ Fig. 5 ================\n");
    for (routine, table) in figs::fig5_libraries(&topo, &dims) {
        println!("{}\n{}", routine.name(), table.render());
        write_csv(&format!("fig5_{}.csv", routine.name().to_lowercase()), &table.to_csv())?;
    }

    println!("\n================ Fabric gallery ================\n");
    // GEMM on every gallery fabric; the gallery multiplies the sweep, so
    // it runs the first two grid points only.
    let gallery_dims = &dims[..dims.len().min(2)];
    for (name, table) in figs::fabric_gallery_gemm(gallery_dims) {
        println!("{name}\n{}", table.render());
        let slug = name.split_whitespace().next().unwrap_or("fabric").replace('-', "_");
        write_csv(&format!("fabric_{slug}.csv"), &table.to_csv())?;
    }

    let n6 = if reduced { 16384 } else { 32768 };
    println!("\n================ Fig. 6 (N={n6}) ================\n");
    let t = figs::fig6_trace_gemm(&topo, n6);
    println!("{}", t.render());
    write_csv("fig6_trace_gemm.csv", &t.to_csv())?;

    let n7 = if reduced { 16384 } else { 49152 };
    println!("\n================ Fig. 7 (N={n7}) ================\n");
    for (lib, table, imb) in figs::fig7_trace_syr2k(&topo, n7) {
        println!("{} (imbalance {:.1}%)\n{}", lib.name(), imb * 100.0, table.render());
    }

    println!("\n================ Fig. 8 ================\n");
    let comp_dims: Vec<usize> = if reduced { vec![8192, 16384] } else { vec![8192, 16384, 24576, 32768, 49152] };
    let t = figs::fig8_composition(&topo, &comp_dims, 2048);
    println!("{}", t.render());
    write_csv("fig8_composition.csv", &t.to_csv())?;

    let n9 = if reduced { 16384 } else { 32768 };
    println!("\n================ Fig. 9 (N={n9}) ================\n");
    print!("{}", figs::fig9_gantt(&topo, n9, 2048, 110));

    // Stats go to stderr so stdout stays byte-comparable with --serial.
    if let Some(c) = runcache::global_if_enabled() {
        let s = c.stats();
        eprintln!(
            "\nrun cache: {} entries, {} hits / {} coalesced / {} misses ({:.0}% hit rate)",
            c.len(),
            s.hits,
            s.coalesced,
            s.misses,
            s.hit_rate() * 100.0
        );
    }
    Ok(())
}
