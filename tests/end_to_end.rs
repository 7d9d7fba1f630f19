//! Cross-crate integration tests: the paper's qualitative claims, asserted
//! end-to-end through the public API on the simulated DGX-1, plus numeric
//! round trips through the full stack.

use xkblas_repro::baselines::{build_run_graph, run, Library, RunError, RunParams, XkVariant};
use xkblas_repro::bench::{
    best_tile_run, run_chameleon_composition, run_xkblas_composition,
};
use xkblas_repro::kernels::aux::rel_error;
use xkblas_repro::kernels::reference;
use xkblas_repro::prelude::*;

fn params(routine: Routine, n: usize, tile: usize) -> RunParams {
    RunParams {
        routine,
        n,
        tile,
        data_on_device: false,
    }
}

/// §IV-B / Fig. 3: both heuristics on beats both off, for every routine of
/// the ablation, at a communication-bound size.
#[test]
fn heuristics_help_at_moderate_sizes() {
    let topo = dgx1();
    for routine in [Routine::Gemm, Routine::Syr2k, Routine::Trsm] {
        let full = run(Library::XkBlas(XkVariant::Full), &topo, &params(routine, 16384, 2048))
            .unwrap();
        let none = run(
            Library::XkBlas(XkVariant::NoHeuristicNoTopo),
            &topo,
            &params(routine, 16384, 2048),
        )
        .unwrap();
        assert!(
            full.tflops > none.tflops,
            "{routine:?}: full {} <= none {}",
            full.tflops,
            none.tflops
        );
    }
}

/// §IV-B: GEMM is insensitive to the topology-aware ranking once the
/// optimistic heuristic is off (Table II: −43.5% vs −43%).
#[test]
fn gemm_insensitive_to_topology_ranking() {
    let topo = dgx1();
    let noh = run(Library::XkBlas(XkVariant::NoHeuristic), &topo, &params(Routine::Gemm, 16384, 2048)).unwrap();
    let none = run(Library::XkBlas(XkVariant::NoHeuristicNoTopo), &topo, &params(Routine::Gemm, 16384, 2048)).unwrap();
    let rel = (noh.tflops - none.tflops).abs() / none.tflops;
    assert!(rel < 0.05, "GEMM topo sensitivity {rel}");
}

/// §IV-B: SYR2K *is* sensitive to the topology ranking (−53.5% in Table II).
#[test]
fn syr2k_sensitive_to_topology_ranking() {
    let topo = dgx1();
    let noh = run(Library::XkBlas(XkVariant::NoHeuristic), &topo, &params(Routine::Syr2k, 16384, 2048)).unwrap();
    let none = run(Library::XkBlas(XkVariant::NoHeuristicNoTopo), &topo, &params(Routine::Syr2k, 16384, 2048)).unwrap();
    assert!(
        none.tflops < 0.85 * noh.tflops,
        "expected a topology hit: none {} vs noh {}",
        none.tflops,
        noh.tflops
    );
}

/// §IV-C / Fig. 4: data-on-device is faster than data-on-host everywhere,
/// and the gap narrows as N grows (O(N) arithmetic intensity).
#[test]
fn data_on_device_gains_shrink_with_n() {
    let topo = dgx1();
    let gain = |n: usize| {
        let doh = best_tile_run(Library::XkBlas(XkVariant::Full), &topo, Routine::Gemm, n, false)
            .unwrap()
            .1
            .tflops;
        let dod = best_tile_run(Library::XkBlas(XkVariant::Full), &topo, Routine::Gemm, n, true)
            .unwrap()
            .1
            .tflops;
        dod / doh
    };
    let small = gain(16384);
    let large = gain(32768);
    assert!(small > 1.2, "DoD gain at 16384 too small: {small}");
    assert!(large > 1.0, "DoD must not lose at 32768: {large}");
    assert!(small > large, "gap must narrow: {small} vs {large}");
}

/// §IV-D / Fig. 5: on GEMM, XKBlas beats every other library at a
/// communication-bound size.
#[test]
fn xkblas_wins_gemm_at_moderate_size() {
    let topo = dgx1();
    let (_, xk) = best_tile_run(Library::XkBlas(XkVariant::Full), &topo, Routine::Gemm, 24576, false).unwrap();
    for lib in [
        Library::CublasXt,
        Library::CublasMg,
        Library::ChameleonTile,
        Library::ChameleonLapack,
        Library::Slate,
        Library::Dplasma,
        Library::Blasx,
    ] {
        let (_, r) = best_tile_run(lib, &topo, Routine::Gemm, 24576, false).unwrap();
        assert!(
            xk.tflops > r.tflops,
            "{} ({}) >= XKBlas ({})",
            lib.name(),
            r.tflops,
            xk.tflops
        );
    }
}

/// §IV-D: the drop-in-replacement gaps — cuBLAS-XT ~3x, Chameleon LAPACK
/// ~5x behind XKBlas at moderate sizes.
#[test]
fn drop_in_replacement_gaps() {
    let topo = dgx1();
    let (_, xk) = best_tile_run(Library::XkBlas(XkVariant::Full), &topo, Routine::Gemm, 24576, false).unwrap();
    let (_, xt) = best_tile_run(Library::CublasXt, &topo, Routine::Gemm, 24576, false).unwrap();
    let (_, cl) = best_tile_run(Library::ChameleonLapack, &topo, Routine::Gemm, 24576, false).unwrap();
    assert!(xk.tflops / xt.tflops > 2.0, "vs cuBLAS-XT: {}", xk.tflops / xt.tflops);
    assert!(xk.tflops / cl.tflops > 3.5, "vs Chameleon LAPACK: {}", xk.tflops / cl.tflops);
}

/// §II-B / Fig. 5: SLATE never exchanges data GPU-to-GPU; cuBLAS-XT
/// neither — and both re-read far more than the 3·N² minimum.
#[test]
fn pcie_bound_baselines() {
    let topo = dgx1();
    let n = 16384usize;
    let min_bytes = 3 * (n * n * 8) as u64;
    for lib in [Library::Slate, Library::CublasXt] {
        let (_, r) = best_tile_run(lib, &topo, Routine::Gemm, n, false).unwrap();
        assert_eq!(r.bytes_p2p, 0, "{}", lib.name());
        assert!(r.bytes_h2d > min_bytes, "{}", lib.name());
    }
}

/// Fig. 5 caption: BLASX reports allocation errors above N = 45000, and
/// the GEMM-only libraries reject other routines.
#[test]
fn library_limitations_reproduced() {
    let topo = dgx1();
    assert!(matches!(
        run(Library::Blasx, &topo, &params(Routine::Gemm, 49152, 2048)),
        Err(RunError::OutOfMemory)
    ));
    for lib in [Library::Blasx, Library::CublasMg, Library::Dplasma] {
        assert!(matches!(
            run(lib, &topo, &params(Routine::Syrk, 8192, 2048)),
            Err(RunError::Unsupported)
        ));
    }
}

/// §IV-F / Fig. 8-9: the composition beats synchronous calls and has no
/// synchronization hole.
#[test]
fn composition_beats_synchronous_execution() {
    let topo = dgx1();
    let xk = run_xkblas_composition(&topo, 16384, 2048);
    let ch = run_chameleon_composition(&topo, 16384, 2048);
    assert!(xk.tflops > 1.3 * ch.tflops, "{} vs {}", xk.tflops, ch.tflops);
    // The Gantt comparison of Fig. 9 is at N = 32768: there XKBlas has no
    // synchronization hole while Chameleon stalls between the calls.
    let xk_big = run_xkblas_composition(&topo, 32768, 2048);
    let ch_big = run_chameleon_composition(&topo, 32768, 2048);
    assert!(
        xk_big.sync_gap < ch_big.sync_gap,
        "gaps at 32768: {} vs {}",
        xk_big.sync_gap,
        ch_big.sync_gap
    );
}

/// Fig. 6: XKBlas spends a far smaller fraction of GPU time in transfers
/// than cuBLAS-XT (paper: 25.4% vs >60% for the synchronous stacks).
#[test]
fn transfer_ratio_ordering() {
    let topo = dgx1();
    let (_, xk) = best_tile_run(Library::XkBlas(XkVariant::Full), &topo, Routine::Gemm, 16384, false).unwrap();
    let (_, xt) = best_tile_run(Library::CublasXt, &topo, Routine::Gemm, 16384, false).unwrap();
    let rx = xk.trace.breakdown().transfer_ratio();
    let rt = xt.trace.breakdown().transfer_ratio();
    assert!(rx < rt, "XKBlas {rx} vs cuBLAS-XT {rt}");
}

/// Full-stack numeric round trip: compose two routines numerically through
/// the facade crate and verify against the reference.
#[test]
fn facade_numeric_round_trip() {
    let n = 192;
    let mut ctx = Context::<f64>::new(dgx1(), RuntimeConfig::xkblas(), 32);
    let a = Matrix::random(n, n, 21);
    let b = Matrix::random(n, n, 22);
    let c = Matrix::random(n, n, 23);
    // C = 1.0 * A * B + 0 => then SYRK updates C's lower triangle in a
    // second composed call reading the GEMM result.
    gemm_async(&mut ctx, Trans::No, Trans::No, 1.0, &a, &b, 0.0, &c);
    syrk_async(&mut ctx, Uplo::Lower, Trans::No, 1.0, &c, 0.0, &a);
    ctx.memory_coherent_async(&a);
    ctx.run_numeric(0);

    let cd = reference::ref_gemm(Trans::No, Trans::No, 1.0, Matrix::random(n, n, 21).view(), b.view(), 0.0, Matrix::zeros(n, n).view());
    let want = reference::ref_syrk(Trans::No, 1.0, cd.view(), 0.0, Matrix::zeros(n, n).view());
    let err = {
        let mut worst = 0.0f64;
        for j in 0..n {
            for i in j..n {
                worst = worst.max((a.at(i, j) - want.at(i, j)).abs());
            }
        }
        worst / want.data.iter().fold(1.0f64, |m, v| m.max(v.abs()))
    };
    assert!(err < 1e-9, "composed numeric error {err}");
}

/// Determinism across the whole stack: a simulated run repeats bit-for-bit.
#[test]
fn full_stack_determinism() {
    let topo = dgx1();
    let p = params(Routine::Syr2k, 12288, 2048);
    let a = run(Library::XkBlas(XkVariant::Full), &topo, &p).unwrap();
    let b = run(Library::XkBlas(XkVariant::Full), &topo, &p).unwrap();
    assert_eq!(a.seconds, b.seconds);
    assert_eq!(a.bytes_h2d, b.bytes_h2d);
    assert_eq!(a.bytes_p2p, b.bytes_p2p);
    assert_eq!(a.trace.len(), b.trace.len());
}

/// The lower bound at the paper's largest cell: GEMM N = 49152, tile 1024
/// has 9216 mandatory transfers (6912 H2D + 2304 D2H), yet the link LP is
/// built over their few tile classes, so it stays a handful of pivots.
#[test]
fn lower_bound_is_affordable_at_paper_scale() {
    let topo = dgx1();
    let cfg = XkVariant::Full.runtime_config();
    let graph = build_run_graph(&topo, &params(Routine::Gemm, 49152, 1024), &cfg, false);
    let run = SimSession::on(&topo).config(cfg).run_bounded(&graph);
    let bound = run.lower_bound().expect("a bounded run carries its bound");
    let makespan = run.outcome().makespan;
    assert!(
        bound.total > 0.0 && bound.total <= makespan * (1.0 + 1e-9),
        "bound {bound:?} vs makespan {makespan}"
    );
    assert!(
        bound.link_lp > 0.0 && bound.lp_iterations < 200,
        "{bound:?}"
    );
}

/// Why the Fig. 5 crossover (Chameleon overtaking XKBlas on SYR2K) is not
/// reproduced: the model's XKBlas SYR2K at the paper's largest size already
/// runs within 15 % of a lower bound whose binding term is compute, so no
/// scheduling policy (work-stealing victim choice included) can make it
/// lose the ~40 % the crossover needs. Closing the gap needs a mechanism
/// the model lacks, not a parameter.
#[test]
fn syr2k_xkblas_within_15pct_of_bound() {
    let topo = dgx1();
    let cfg = XkVariant::Full.runtime_config();
    let graph = build_run_graph(&topo, &params(Routine::Syr2k, 49152, 4096), &cfg, false);
    let run = SimSession::on(&topo).config(cfg).run_bounded(&graph);
    let bound = run.lower_bound().expect("a bounded run carries its bound");
    let makespan = run.outcome().makespan;
    assert!(
        makespan <= 1.15 * bound.total,
        "makespan {makespan} is {:.3}x the bound {bound:?}",
        makespan / bound.total
    );
    assert_eq!(bound.total, bound.compute, "the bound is not compute-bound: {bound:?}");
}

/// Numeric execution is independent of tile size and thread count.
#[test]
fn numeric_result_invariant_to_tiling() {
    let n = 120;
    let a = Matrix::random(n, n, 31);
    let b = Matrix::random(n, n, 32);
    let mut results = Vec::new();
    for tile in [17, 40, 120] {
        let c = Matrix::random(n, n, 33);
        let mut ctx = Context::<f64>::new(dgx1(), RuntimeConfig::xkblas(), tile);
        gemm_async(&mut ctx, Trans::No, Trans::No, 1.0, &a, &b, 1.0, &c);
        ctx.run_numeric(2);
        results.push(c.to_vec());
    }
    let want = &results[0];
    for r in &results[1..] {
        let worst = want
            .iter()
            .zip(r)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 1e-10, "tiling changed the numbers by {worst}");
    }
    // And against the reference.
    let c0 = Matrix::random(n, n, 33);
    let want_ref = reference::ref_gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 1.0, c0.view());
    let err = rel_error(
        xkblas_repro::kernels::MatRef::from_slice(&results[0], n, n, n),
        want_ref.view(),
    );
    assert!(err < 1e-10);
}
