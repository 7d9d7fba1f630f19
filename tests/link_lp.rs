//! The link LP of the makespan bound, pinned on the paper's GEMM: its rows
//! are [`xkblas_repro::runtime::Machine`] engines emitted in a fixed order,
//! and any change to that order or to a coefficient moves the simplex's
//! pivot count or the optimum's bits.

use xkblas_repro::baselines::{build_run_graph, RunParams, XkVariant};
use xkblas_repro::prelude::*;
use xkblas_repro::runtime::makespan_lower_bound;

#[test]
fn gemm_link_lp_is_pinned_on_the_gallery() {
    // (fabric, lp_iterations, total.to_bits()) for GEMM N = 12288, tile 2048.
    let pinned = [
        ("dgx1", 38, 0x3fbc_1ccd_aa6e_194f_u64),
        ("dgx2-16", 73, 0x3fac_1ccd_aa6e_1949),
        ("pcie-box-4", 18, 0x3fdc_1ccd_aa6e_195b),
        ("dual-node-4x2", 39, 0x3fc2_feb4_7a13_0a32),
    ];
    let cfg = XkVariant::Full.runtime_config();
    let params = RunParams {
        routine: Routine::Gemm,
        n: 12288,
        tile: 2048,
        data_on_device: false,
    };
    for (topo, want) in fabrics::gallery().iter().zip(pinned) {
        let graph = build_run_graph(topo, &params, &cfg, false);
        let b = makespan_lower_bound(&graph, topo, &cfg);
        assert_eq!((topo.name(), b.lp_iterations, b.total.to_bits()), want);
    }
}
