//! The BLASX model is the "XKBlas, no heuristic, no topo" ablation: the
//! same graph under the same configuration. Up to BLASX's allocation limit
//! its GEMM runs are that variant's runs to the bit, which is why the BLASX
//! row of Fig. 5's GEMM table repeats Fig. 3's no-topo row; above the
//! limit BLASX alone reports out-of-memory.

use xk_baselines::{run, Library, RunError, RunParams, XkVariant};
use xk_kernels::Routine;
use xk_topo::dgx1;

#[test]
fn blasx_gemm_is_the_no_topo_ablation_bit_for_bit() {
    let topo = dgx1();
    let no_topo = Library::XkBlas(XkVariant::NoHeuristicNoTopo);
    for n in [4096, 8192, 16384, 24576, 32768, 40960] {
        for &tile in Library::Blasx.tile_candidates() {
            let params = RunParams { routine: Routine::Gemm, n, tile, data_on_device: false };
            let blasx = run(Library::Blasx, &topo, &params).unwrap();
            let ablation = run(no_topo, &topo, &params).unwrap();
            assert_eq!(blasx.seconds.to_bits(), ablation.seconds.to_bits(), "n={n} tile={tile}");
            assert_eq!(
                (blasx.bytes_h2d, blasx.bytes_d2h, blasx.bytes_p2p),
                (ablation.bytes_h2d, ablation.bytes_d2h, ablation.bytes_p2p),
                "n={n} tile={tile}"
            );
        }
    }
}

#[test]
fn only_blasx_runs_out_of_memory_above_45000() {
    let topo = dgx1();
    let params = RunParams { routine: Routine::Gemm, n: 49152, tile: 4096, data_on_device: false };
    assert_eq!(run(Library::Blasx, &topo, &params).err(), Some(RunError::OutOfMemory));
    let no_topo = Library::XkBlas(XkVariant::NoHeuristicNoTopo);
    assert!(run(no_topo, &topo, &params).is_ok());
}
