//! Semantics of the asynchronous API: composition, distribution, phantom
//! matrices, and the simulation/numeric duality.

use xk_runtime::RuntimeConfig;
use xk_topo::dgx1;
use xkblas_core::{gemm_async, syrk_async, Context, Matrix, Trans, Uplo};

fn sim_ctx(tile: usize) -> Context<f64> {
    let mut ctx = Context::<f64>::new(dgx1(), RuntimeConfig::xkblas(), tile);
    ctx.set_simulation_only(true);
    ctx
}

#[test]
fn composition_adds_cross_call_dependencies() {
    // Two composed calls where the second reads the first's output must
    // produce more edges than two independent calls.
    let n = 4096;
    let mut ctx = sim_ctx(1024);
    let a = Matrix::<f64>::phantom(n, n);
    let b = Matrix::<f64>::phantom(n, n);
    let c = Matrix::<f64>::phantom(n, n);
    let d = Matrix::<f64>::phantom(n, n);
    gemm_async(&mut ctx, Trans::No, Trans::No, 1.0, &a, &b, 0.0, &c);
    let edges_one = ctx.graph().n_edges();
    gemm_async(&mut ctx, Trans::No, Trans::No, 1.0, &c, &b, 0.0, &d);
    let edges_two = ctx.graph().n_edges();
    // The second call depends on the first's C tiles: cross-call edges.
    let first_call_tasks = 4 * 4 * 4;
    assert_eq!(ctx.calls(), 2);
    assert!(ctx.pending_tasks() >= 2 * first_call_tasks);
    assert!(
        edges_two > 2 * edges_one,
        "expected cross-call dependencies: {edges_one} then {edges_two}"
    );
}

#[test]
fn composition_is_faster_than_two_syncs() {
    // One composed graph vs two synced graphs of the same work.
    let n = 8192;
    let composed = {
        let mut ctx = sim_ctx(2048);
        let a = Matrix::<f64>::phantom(n, n);
        let b = Matrix::<f64>::phantom(n, n);
        let c = Matrix::<f64>::phantom(n, n);
        let d = Matrix::<f64>::phantom(n, n);
        gemm_async(&mut ctx, Trans::No, Trans::No, 1.0, &a, &b, 0.0, &c);
        gemm_async(&mut ctx, Trans::No, Trans::No, 1.0, &c, &b, 0.0, &d);
        ctx.memory_coherent_async(&d);
        ctx.run_simulated().makespan
    };
    let synced = {
        let mut total = 0.0;
        let mut prev: Option<Matrix<f64>> = None;
        for _ in 0..2 {
            let mut ctx = sim_ctx(2048);
            let a = prev.take().unwrap_or_else(|| Matrix::<f64>::phantom(n, n));
            let b = Matrix::<f64>::phantom(n, n);
            let c = Matrix::<f64>::phantom(n, n);
            gemm_async(&mut ctx, Trans::No, Trans::No, 1.0, &a, &b, 0.0, &c);
            ctx.memory_coherent_async(&c);
            total += ctx.run_simulated().makespan;
            prev = Some(c);
        }
        total
    };
    assert!(
        composed < synced,
        "composition must beat sync barriers: {composed} vs {synced}"
    );
}

#[test]
fn distributed_matrices_start_on_devices() {
    let n = 8192;
    let mut ctx = sim_ctx(2048);
    let a = Matrix::<f64>::phantom(n, n);
    let b = Matrix::<f64>::phantom(n, n);
    let c = Matrix::<f64>::phantom(n, n);
    ctx.distribute_2d_block_cyclic_async(&a);
    ctx.distribute_2d_block_cyclic_async(&b);
    ctx.distribute_2d_block_cyclic_async(&c);
    gemm_async(&mut ctx, Trans::No, Trans::No, 1.0, &a, &b, 0.5, &c);
    let out = ctx.run_simulated();
    assert_eq!(out.bytes_h2d, 0);
    assert_eq!(out.bytes_d2h, 0);
}

#[test]
fn grid_override_changes_owners() {
    let mut ctx = sim_ctx(1024);
    ctx.set_grid(8, 1);
    assert_eq!(ctx.grid(), (8, 1));
    let n = 8192;
    let a = Matrix::<f64>::phantom(n, n);
    let b = Matrix::<f64>::phantom(n, n);
    let c = Matrix::<f64>::phantom(n, n);
    gemm_async(&mut ctx, Trans::No, Trans::No, 1.0, &a, &b, 0.5, &c);
    let out = ctx.run_simulated();
    // Row-cyclic over 8 rows: all 8 GPUs get kernel work.
    let loads = out.trace.kernel_load_per_gpu(8);
    assert!(loads.iter().all(|&l| l > 0.0), "{loads:?}");
}

#[test]
#[should_panic(expected = "phantom matrices have no values")]
fn phantom_values_unreachable() {
    let a = Matrix::<f64>::phantom(4, 4);
    let _ = a.at(0, 0);
}

#[test]
fn phantom_allowed_only_in_sim_mode_graphs() {
    // Building a graph with phantoms is fine; it's reading values that
    // panics. Simulation-only contexts never read.
    let mut ctx = sim_ctx(2);
    let a = Matrix::<f64>::phantom(4, 4);
    let c = Matrix::<f64>::phantom(4, 4);
    syrk_async(&mut ctx, Uplo::Lower, Trans::No, 1.0, &a, 0.0, &c);
    let out = ctx.run_simulated();
    assert!(out.tasks_run > 0);
}

#[test]
fn pending_flops_match_routine_formula() {
    let n = 8192usize;
    let mut ctx = sim_ctx(1024);
    let a = Matrix::<f64>::phantom(n, n);
    let b = Matrix::<f64>::phantom(n, n);
    let c = Matrix::<f64>::phantom(n, n);
    gemm_async(&mut ctx, Trans::No, Trans::No, 1.0, &a, &b, 0.5, &c);
    let expected = 2.0 * (n as f64).powi(3);
    let got = ctx.pending_flops();
    assert!(
        (got - expected).abs() / expected < 1e-12,
        "{got} vs {expected}"
    );
}
