//! Regression corpus for the simplex core: known-optimum, degenerate,
//! unbounded-detected and infeasible-detected instances, plus a seeded
//! sweep of random small LPs cross-checked against brute-force vertex
//! enumeration.

use std::cell::Cell;

use xk_lp::{brute_force, for_each_seed, solve, Lp, LpResult, SplitMix64, DEFAULT_TOL};

fn optimal_value(lp: &Lp) -> f64 {
    match solve(lp) {
        LpResult::Optimal(s) => s.value,
        other => panic!("expected optimal, got {other:?}"),
    }
}

fn assert_close(a: f64, b: f64) {
    assert!((a - b).abs() < 1e-7, "{a} !~ {b}");
}

#[test]
fn klee_minty_3d_reaches_the_far_vertex() {
    // The classic worst case for greedy pivoting; Bland still terminates
    // at the optimum 2^3·... — for the 3-cube with base 5 the optimum is
    // x3 = 125 at (0, 0, 125).
    let mut lp = Lp::minimize(vec![-4.0, -2.0, -1.0]);
    lp.le(vec![1.0, 0.0, 0.0], 5.0);
    lp.le(vec![4.0, 1.0, 0.0], 25.0);
    lp.le(vec![8.0, 4.0, 1.0], 125.0);
    let s = solve(&lp);
    let s = s.optimal().expect("optimal");
    assert_close(s.value, -125.0);
}

#[test]
fn degenerate_vertex_does_not_cycle() {
    // Beale's cycling example (degenerate at the origin); Bland's rule
    // must terminate. min −0.75x1 + 150x2 − 0.02x3 + 6x4.
    let mut lp = Lp::minimize(vec![-0.75, 150.0, -0.02, 6.0]);
    lp.le(vec![0.25, -60.0, -0.04, 9.0], 0.0);
    lp.le(vec![0.5, -90.0, -0.02, 3.0], 0.0);
    lp.le(vec![0.0, 0.0, 1.0, 0.0], 1.0);
    let s = solve(&lp);
    let s = s.optimal().expect("optimal");
    assert_close(s.value, -0.05);
}

#[test]
fn transport_like_delivery_lp() {
    // The exact shape the makespan bound emits: per-handle delivery
    // fractions over two routes, a shared-engine load row, minimize the
    // bottleneck M. Two handles, each taking 2s on route A or 4s on
    // route B, route A shared: optimum splits to equalize at M = 8/3.
    let mut lp = Lp::minimize(vec![0.0, 0.0, 0.0, 0.0, 1.0]);
    lp.ge(vec![1.0, 1.0, 0.0, 0.0, 0.0], 1.0); // handle 1 delivered
    lp.ge(vec![0.0, 0.0, 1.0, 1.0, 0.0], 1.0); // handle 2 delivered
    lp.le(vec![2.0, 0.0, 2.0, 0.0, -1.0], 0.0); // route A engine
    lp.le(vec![0.0, 4.0, 0.0, 4.0, -1.0], 0.0); // route B engine
    assert_close(optimal_value(&lp), 8.0 / 3.0);
}

#[test]
fn unbounded_is_detected_not_looped() {
    // Feasible cone open along (1, 1).
    let mut lp = Lp::minimize(vec![-1.0, -1.0]);
    lp.ge(vec![1.0, -1.0], -1.0);
    lp.ge(vec![-1.0, 1.0], -1.0);
    assert!(matches!(solve(&lp), LpResult::Unbounded));
}

#[test]
fn infeasible_system_of_equalities() {
    let mut lp = Lp::minimize(vec![0.0, 0.0]);
    lp.eq(vec![1.0, 1.0], 1.0);
    lp.eq(vec![1.0, 1.0], 2.0);
    assert!(matches!(solve(&lp), LpResult::Infeasible));
}

#[test]
fn infeasible_despite_consistent_pairs() {
    // Pairwise satisfiable, jointly not: x ≤ 1, y ≤ 1, x + y ≥ 3.
    let mut lp = Lp::minimize(vec![1.0, 1.0]);
    lp.le(vec![1.0, 0.0], 1.0);
    lp.le(vec![0.0, 1.0], 1.0);
    lp.ge(vec![1.0, 1.0], 3.0);
    assert!(matches!(solve(&lp), LpResult::Infeasible));
}

#[test]
fn equality_only_system_solves_exactly() {
    // min x+y+z over x+y = 3, y+z = 5, x+z = 4 → (1, 2, 3), value 6.
    let mut lp = Lp::minimize(vec![1.0, 1.0, 1.0]);
    lp.eq(vec![1.0, 1.0, 0.0], 3.0);
    lp.eq(vec![0.0, 1.0, 1.0], 5.0);
    lp.eq(vec![1.0, 0.0, 1.0], 4.0);
    let r = solve(&lp);
    let s = r.optimal().expect("optimal");
    assert_close(s.value, 6.0);
    assert_close(s.x[0], 1.0);
    assert_close(s.x[1], 2.0);
    assert_close(s.x[2], 3.0);
}

#[test]
fn tiny_coefficient_spread_stays_within_tolerance() {
    // Second-scale makespans against 1e-2-scale transfer coefficients —
    // the numeric neighbourhood the bound builder produces.
    let mut lp = Lp::minimize(vec![0.0, 0.0, 1.0]);
    lp.ge(vec![1.0, 1.0, 0.0], 1.0);
    lp.le(vec![0.013, 0.0, -1.0], 0.0);
    lp.le(vec![0.0, 0.039, -1.0], 0.0);
    // Split 3:1 equalizes both engines at 0.75·0.013 = 0.009750.
    assert_close(optimal_value(&lp), 0.25 * 0.039);
}

/// A random boxed LP: 1–3 variables, per-variable upper bounds (so the
/// region is a polytope and vertex enumeration is a *complete* oracle: it
/// finds the optimum iff one exists, and nothing iff the program is
/// infeasible), 0–3 extra general rows. Coefficients sit on coarse grids,
/// which makes degenerate and tied vertices — the interesting cases —
/// common.
fn boxed_lp(rng: &mut SplitMix64) -> Lp {
    let n = rng.usize_in(1, 4);
    let c = (0..n).map(|_| (rng.f64_in(-2.0, 2.0) * 2.0).round() / 2.0);
    let mut lp = Lp::minimize(c.collect());
    for j in 0..n {
        let mut row = vec![0.0; n];
        row[j] = 1.0;
        lp.le(row, rng.usize_in(1, 5) as f64);
    }
    for _ in 0..rng.usize_in(0, 4) {
        let row = (0..n).map(|_| rng.f64_in(-2.0, 2.0).round()).collect();
        let rhs = rng.f64_in(-3.0, 3.0).round();
        if rng.next_below(2) == 0 {
            lp.le(row, rhs);
        } else {
            lp.ge(row, rhs);
        }
    }
    lp
}

/// 256 seeded LPs, simplex vs brute force: they must agree on feasibility
/// and, when feasible, on the optimal value; the reported solution must be
/// non-negative, of the right arity and finite.
#[test]
fn seeded_sweep_matches_brute_force() {
    let optima = Cell::new(0usize);
    for_each_seed(256, |rng| {
        let lp = boxed_lp(rng);
        match solve(&lp) {
            LpResult::Optimal(s) => {
                let bf = brute_force(&lp, DEFAULT_TOL)
                    .expect("simplex found an optimum, brute force must find a vertex");
                assert!(
                    (s.value - bf.value).abs() < 1e-6 * (1.0 + bf.value.abs()),
                    "simplex {} != brute force {}",
                    s.value,
                    bf.value,
                );
                assert!(s.x.iter().all(|&v| v >= -1e-7), "negative variable: {:?}", s.x);
                assert_eq!(s.x.len(), lp.n_vars());
                assert!(s.value.is_finite());
                optima.set(optima.get() + 1);
            }
            LpResult::Infeasible => assert!(
                brute_force(&lp, DEFAULT_TOL).is_none(),
                "simplex says infeasible but a feasible vertex exists",
            ),
            LpResult::Unbounded => panic!("boxed variables cannot be unbounded"),
        }
    });
    let optima = optima.get();
    assert!(optima >= 128, "sweep degenerated: only {optima}/256 optimal instances");
}

/// Scaling the objective by a positive constant scales the optimum by the
/// same constant and preserves the feasibility classification.
#[test]
fn objective_scaling_is_linear() {
    for_each_seed(256, |rng| {
        let lp = boxed_lp(rng);
        let k = rng.f64_in(1.0, 8.0);
        let mut scaled = lp.clone();
        scaled.scale_objective(k);
        match (solve(&lp), solve(&scaled)) {
            (LpResult::Optimal(a), LpResult::Optimal(b)) => assert!(
                (a.value * k - b.value).abs() < 1e-6 * (1.0 + (a.value * k).abs()),
                "k={k}: {} * k != {}",
                a.value,
                b.value,
            ),
            (LpResult::Infeasible, LpResult::Infeasible) => {}
            (a, b) => panic!("classification changed under scaling: {a:?} vs {b:?}"),
        }
    });
}
