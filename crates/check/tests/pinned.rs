//! Exploration pinned bit for bit: two `check_matrix` cells × 200 seeds
//! fold every schedule's choice-log fingerprint, makespan bits and witness
//! verdict into one digest, compared against the value recorded before the
//! event queue's tie groups and the witness's dense tables landed. Any
//! change to a tie order, a controller stream or an oracle verdict moves
//! it.

use xk_check::graphgen::{build_random_dag, RandomDagSpec};
use xk_check::topo_util::subtopo;
use xk_check::{witness, RandomController};
use xk_runtime::{Heuristics, RuntimeConfig, SimExecutor, SimPrep};

/// Digest of seeds `0..200` of the cell (DAG seed 1, as `check_matrix`
/// seed 1 builds it).
fn digest(n_gpus: usize, heuristics: Heuristics, on_device: bool) -> u64 {
    let topo = subtopo(&xk_topo::dgx1(), n_gpus);
    let cfg = RuntimeConfig::default().with_heuristics(heuristics);
    let spec = RandomDagSpec {
        flush: true,
        on_device: on_device.then_some(n_gpus),
        ..RandomDagSpec::default()
    };
    let graph = build_random_dag(1, &spec);
    let prep = SimPrep::new(&graph);
    let mut acc = 0u64;
    for seed in 0..200 {
        let mut rng = RandomController::new(seed);
        let out = SimExecutor::with_prep(&graph, &topo, &cfg, &prep)
            .control(&mut rng)
            .run();
        let verdict = u64::from(witness::check(&graph, &out.trace).is_err()) << 63;
        acc = acc.rotate_left(5) ^ rng.log.fingerprint() ^ out.makespan.to_bits() ^ verdict;
    }
    acc
}

#[test]
fn full_8gpu_host_is_pinned() {
    assert_eq!(digest(8, Heuristics::full(), false), 0x2cb2_aea5_a7e8_fcb6);
}

#[test]
fn none_4gpu_device_is_pinned() {
    assert_eq!(digest(4, Heuristics::none(), true), 0x458a_5f0b_c9e3_8bfd);
}
