//! Dense revised simplex with Bland's rule: the solver behind the
//! makespan lower bound and the link-valuation coalitions.
//!
//! The implementation is deliberately boring: two-phase primal simplex
//! over the standard form `min cᵀx, Ax {≤,=,≥} b, x ≥ 0`, with an
//! explicitly maintained dense basis inverse (the "revised" part: pricing
//! and directions go through `B⁻¹`, the constraint matrix itself is never
//! rewritten). Bland's smallest-index rule on both the entering and the
//! leaving choice makes cycling impossible, so the iteration cap is a
//! backstop against NaN poisoning, not a convergence knob.
//!
//! Scale notes: the basis inverse and the constraint matrix are dense, so
//! memory is `O(m·(m+n))` and every pivot `O(m·n)` — the right trade only
//! up to a few hundred rows and columns. Keeping an instance that small
//! is the caller's job: the bound builder has one column per (tile class,
//! GPU), not per tile, so its LPs do not grow with the matrix size.
//! Feasibility and optimality use the same absolute tolerance
//! ([`DEFAULT_TOL`], `1e-9`), chosen to sit far above f64 noise for
//! second-scale makespans and byte-fraction variables in `[0, 1]` —
//! callers are expected to scale their variables into that neighbourhood
//! (the bound builder does). Being absolute, it also sets a floor on
//! usable coefficients: with transfer times below about a microsecond
//! beside millisecond ones (a 4 KiB tile next to a 32 MiB one, in seconds)
//! the link LP has been seen to stop above its analytic optimum, which
//! the same program rescaled to milliseconds reaches exactly. From 16 KiB
//! tiles up the per-tile and per-class link LPs agree to 1e-9.

/// Default feasibility/optimality tolerance.
pub const DEFAULT_TOL: f64 = 1e-9;

/// Iteration backstop: Bland's rule terminates finitely, so hitting this
/// means the instance is numerically poisoned (NaN/Inf coefficients).
const MAX_ITERS_BASE: usize = 50_000;

/// Constraint sense.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `coeffs · x ≤ rhs`
    Le,
    /// `coeffs · x ≥ rhs`
    Ge,
    /// `coeffs · x = rhs`
    Eq,
}

/// A linear program `min cᵀx` over `x ≥ 0` with row constraints.
#[derive(Clone, Debug)]
pub struct Lp {
    objective: Vec<f64>,
    rows: Vec<(Vec<f64>, Cmp, f64)>,
}

impl Lp {
    /// Starts a program minimizing `objective · x` (all variables `≥ 0`).
    pub fn minimize(objective: Vec<f64>) -> Self {
        Lp { objective, rows: Vec::new() }
    }

    /// Number of structural variables.
    pub fn n_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraint rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    fn push(&mut self, coeffs: Vec<f64>, cmp: Cmp, rhs: f64) {
        assert_eq!(coeffs.len(), self.n_vars(), "constraint arity mismatch");
        self.rows.push((coeffs, cmp, rhs));
    }

    /// Adds `coeffs · x ≤ rhs`.
    pub fn le(&mut self, coeffs: Vec<f64>, rhs: f64) {
        self.push(coeffs, Cmp::Le, rhs);
    }

    /// Adds `coeffs · x ≥ rhs`.
    pub fn ge(&mut self, coeffs: Vec<f64>, rhs: f64) {
        self.push(coeffs, Cmp::Ge, rhs);
    }

    /// Adds `coeffs · x = rhs`.
    pub fn eq(&mut self, coeffs: Vec<f64>, rhs: f64) {
        self.push(coeffs, Cmp::Eq, rhs);
    }

    /// Multiplies the objective by `k` in place (metamorphic test hook:
    /// positive scaling must scale the optimum linearly).
    pub fn scale_objective(&mut self, k: f64) {
        for c in &mut self.objective {
            *c *= k;
        }
    }
}

/// An optimal basic solution.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Structural variable values (length [`Lp::n_vars`]).
    pub x: Vec<f64>,
    /// Objective value `c · x`.
    pub value: f64,
    /// Simplex pivots across both phases.
    pub iterations: usize,
}

/// Solver outcome.
#[derive(Clone, Debug)]
pub enum LpResult {
    /// A finite optimum was found.
    Optimal(Solution),
    /// No point satisfies the constraints (phase-1 optimum above tolerance).
    Infeasible,
    /// The objective decreases without bound over the feasible region.
    Unbounded,
}

impl LpResult {
    /// The solution, if optimal.
    pub fn optimal(&self) -> Option<&Solution> {
        match self {
            LpResult::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// The sign-normalized standard form shared by the solver and the
/// brute-force vertex enumerator: `A x = b` with `b ≥ 0`, columns
/// `[structural | slack/surplus]`, one slack (`+1`) per `≤` row and one
/// surplus (`−1`) per `≥` row.
struct Standard {
    /// Row-major `m × ncols`.
    a: Vec<f64>,
    b: Vec<f64>,
    m: usize,
    /// Structural + slack/surplus columns.
    ncols: usize,
    /// Rows whose initial basic column is a slack (`≤` rows); everything
    /// else needs a phase-1 artificial.
    slack_of_row: Vec<Option<usize>>,
}

fn standard_form(lp: &Lp) -> Standard {
    let n = lp.n_vars();
    let m = lp.rows.len();
    let n_slack = lp
        .rows
        .iter()
        .filter(|(_, cmp, _)| matches!(cmp, Cmp::Le | Cmp::Ge))
        .count();
    let ncols = n + n_slack;
    let mut a = vec![0.0; m * ncols];
    let mut b = vec![0.0; m];
    let mut slack_of_row = vec![None; m];
    let mut next_slack = n;
    for (r, (coeffs, cmp, rhs)) in lp.rows.iter().enumerate() {
        // Normalize to b ≥ 0; flipping a row flips its sense.
        let flip = *rhs < 0.0;
        let sign = if flip { -1.0 } else { 1.0 };
        let cmp = match (cmp, flip) {
            (Cmp::Le, true) => Cmp::Ge,
            (Cmp::Ge, true) => Cmp::Le,
            (c, _) => *c,
        };
        for (j, &c) in coeffs.iter().enumerate() {
            assert!(c.is_finite(), "non-finite coefficient in row {r}");
            a[r * ncols + j] = sign * c;
        }
        assert!(rhs.is_finite(), "non-finite rhs in row {r}");
        b[r] = sign * rhs;
        match cmp {
            Cmp::Le => {
                a[r * ncols + next_slack] = 1.0;
                slack_of_row[r] = Some(next_slack);
                next_slack += 1;
            }
            Cmp::Ge => {
                a[r * ncols + next_slack] = -1.0;
                next_slack += 1;
            }
            Cmp::Eq => {}
        }
    }
    Standard { a, b, m, ncols, slack_of_row }
}

/// The revised-simplex working state: constraint matrix (never modified),
/// dense basis inverse, basic solution.
struct Tableau {
    a: Vec<f64>,
    m: usize,
    ncols: usize,
    /// Column index of each basic variable, one per row.
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// Dense `m × m` basis inverse, row-major.
    binv: Vec<f64>,
    /// Basic variable values `B⁻¹ b`.
    xb: Vec<f64>,
    tol: f64,
    iterations: usize,
}

enum PhaseEnd {
    Optimal,
    Unbounded,
}

impl Tableau {
    /// `u = B⁻¹ · A[:, q]`.
    fn direction(&self, q: usize, u: &mut Vec<f64>) {
        u.clear();
        u.resize(self.m, 0.0);
        for k in 0..self.m {
            let aq = self.a[k * self.ncols + q];
            if aq != 0.0 {
                for (i, ui) in u.iter_mut().enumerate() {
                    *ui += self.binv[i * self.m + k] * aq;
                }
            }
        }
    }

    /// Replaces `basis[r]` with column `q` along direction `u` and updates
    /// `B⁻¹` and `x_B` by the standard elementary row operations.
    fn pivot(&mut self, r: usize, q: usize, u: &[f64]) {
        let theta = self.xb[r] / u[r];
        for (i, (xb, &ui)) in self.xb.iter_mut().zip(u).enumerate() {
            if i != r {
                *xb -= theta * ui;
                // Clamp f64 drift: Bland keeps x_B ≥ 0 in exact arithmetic.
                if *xb < 0.0 && *xb > -self.tol {
                    *xb = 0.0;
                }
            }
        }
        self.xb[r] = theta;
        let inv_ur = 1.0 / u[r];
        for k in 0..self.m {
            self.binv[r * self.m + k] *= inv_ur;
        }
        for (i, &f) in u.iter().enumerate() {
            if i != r && f != 0.0 {
                for k in 0..self.m {
                    self.binv[i * self.m + k] -= f * self.binv[r * self.m + k];
                }
            }
        }
        self.in_basis[self.basis[r]] = false;
        self.in_basis[q] = true;
        self.basis[r] = q;
        self.iterations += 1;
    }

    /// Runs the simplex loop for `cost` (length `ncols`), considering only
    /// columns below `enter_below` for entry. Bland's rule on both choices.
    fn run_phase(&mut self, cost: &[f64], enter_below: usize) -> PhaseEnd {
        let max_iters = MAX_ITERS_BASE + 200 * (self.m + self.ncols);
        let mut y = vec![0.0; self.m];
        let mut u = Vec::new();
        loop {
            assert!(
                self.iterations < max_iters,
                "simplex iteration backstop hit ({} pivots): numerically poisoned instance",
                self.iterations,
            );
            // y = c_Bᵀ B⁻¹.
            for (i, yi) in y.iter_mut().enumerate() {
                *yi = 0.0;
                for k in 0..self.m {
                    let cb = cost[self.basis[k]];
                    if cb != 0.0 {
                        *yi += cb * self.binv[k * self.m + i];
                    }
                }
            }
            // Entering column: smallest index with negative reduced cost.
            let mut entering = None;
            for (j, &cost_j) in cost.iter().enumerate().take(enter_below) {
                if self.in_basis[j] {
                    continue;
                }
                let mut rc = cost_j;
                for (i, &yi) in y.iter().enumerate() {
                    rc -= yi * self.a[i * self.ncols + j];
                }
                if rc < -self.tol {
                    entering = Some(j);
                    break;
                }
            }
            let Some(q) = entering else {
                return PhaseEnd::Optimal;
            };
            self.direction(q, &mut u);
            // Leaving row: min ratio; ties by smallest basic column index.
            let mut leave: Option<usize> = None;
            let mut best = f64::INFINITY;
            for (i, &ui) in u.iter().enumerate() {
                if ui > self.tol {
                    let ratio = self.xb[i] / ui;
                    let better = ratio < best - self.tol
                        || (ratio < best + self.tol
                            && leave.is_some_and(|l| self.basis[i] < self.basis[l]));
                    if better {
                        best = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(r) = leave else {
                return PhaseEnd::Unbounded;
            };
            self.pivot(r, q, &u);
        }
    }

    /// Removes constraint row `r` (detected linearly dependent at the end
    /// of phase 1) and rebuilds the basis inverse from scratch.
    fn drop_row(&mut self, r: usize) {
        let ncols = self.ncols;
        self.in_basis[self.basis[r]] = false;
        self.basis.remove(r);
        self.xb.remove(r);
        let start = r * ncols;
        self.a.drain(start..start + ncols);
        self.m -= 1;
        let m = self.m;
        // B⁻¹ := inverse of the surviving basis columns.
        let mut aug = vec![0.0; m * 2 * m];
        for i in 0..m {
            for (k, &bk) in self.basis.iter().enumerate() {
                aug[i * 2 * m + k] = self.a[i * ncols + bk];
            }
            aug[i * 2 * m + m + i] = 1.0;
        }
        assert!(
            gauss_jordan(&mut aug, m),
            "surviving basis singular after redundant-row removal",
        );
        self.binv.truncate(m * m);
        for i in 0..m {
            for k in 0..m {
                self.binv[i * m + k] = aug[i * 2 * m + m + k];
            }
        }
    }
}

/// In-place Gauss–Jordan elimination of an `m × 2m` augmented matrix with
/// partial pivoting; returns false if the left block is singular.
fn gauss_jordan(aug: &mut [f64], m: usize) -> bool {
    let w = 2 * m;
    for col in 0..m {
        let piv = (col..m)
            .max_by(|&i, &j| {
                aug[i * w + col]
                    .abs()
                    .total_cmp(&aug[j * w + col].abs())
            })
            .unwrap();
        if aug[piv * w + col].abs() < 1e-12 {
            return false;
        }
        if piv != col {
            for k in 0..w {
                aug.swap(col * w + k, piv * w + k);
            }
        }
        let inv = 1.0 / aug[col * w + col];
        for k in 0..w {
            aug[col * w + k] *= inv;
        }
        for row in 0..m {
            if row != col && aug[row * w + col] != 0.0 {
                let f = aug[row * w + col];
                for k in 0..w {
                    aug[row * w + k] -= f * aug[col * w + k];
                }
            }
        }
    }
    true
}

/// Solves `lp` with the default tolerance.
pub fn solve(lp: &Lp) -> LpResult {
    solve_with_tol(lp, DEFAULT_TOL)
}

/// Solves `lp` with an explicit feasibility/optimality tolerance.
pub fn solve_with_tol(lp: &Lp, tol: f64) -> LpResult {
    assert!(tol > 0.0 && tol.is_finite(), "tolerance must be positive");
    for c in &lp.objective {
        assert!(c.is_finite(), "non-finite objective coefficient");
    }
    let std = standard_form(lp);
    let n = lp.n_vars();
    let m = std.m;

    // Append one artificial column per row without a natural slack basis.
    let art_rows: Vec<usize> = (0..m).filter(|&r| std.slack_of_row[r].is_none()).collect();
    let real_cols = std.ncols;
    let ncols = real_cols + art_rows.len();
    let mut a = vec![0.0; m * ncols];
    for r in 0..m {
        a[r * ncols..r * ncols + real_cols]
            .copy_from_slice(&std.a[r * real_cols..(r + 1) * real_cols]);
    }
    let mut basis = vec![usize::MAX; m];
    let mut in_basis = vec![false; ncols];
    for (k, &r) in art_rows.iter().enumerate() {
        let col = real_cols + k;
        a[r * ncols + col] = 1.0;
        basis[r] = col;
    }
    for r in 0..m {
        if basis[r] == usize::MAX {
            basis[r] = std.slack_of_row[r].expect("row has slack or artificial");
        }
        in_basis[basis[r]] = true;
    }

    let mut tab = Tableau {
        a,
        m,
        ncols,
        basis,
        in_basis,
        binv: identity(m),
        xb: std.b.clone(),
        tol,
        iterations: 0,
    };

    // Phase 1: drive the artificials to zero.
    if !art_rows.is_empty() {
        let mut cost1 = vec![0.0; ncols];
        for c in cost1.iter_mut().skip(real_cols) {
            *c = 1.0;
        }
        match tab.run_phase(&cost1, ncols) {
            // min Σ artificials ≥ 0 over a cone containing the origin of
            // the artificial block: never unbounded.
            PhaseEnd::Unbounded => unreachable!("phase 1 objective is bounded below by 0"),
            PhaseEnd::Optimal => {}
        }
        let b_scale = 1.0 + std.b.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let infeas: f64 = (0..tab.m)
            .filter(|&i| tab.basis[i] >= real_cols)
            .map(|i| tab.xb[i])
            .sum();
        if infeas > tol * b_scale {
            return LpResult::Infeasible;
        }
        // Pivot surviving (degenerate) artificials out of the basis; a row
        // where no real column can enter is linearly dependent — drop it.
        let mut r = 0;
        let mut u = Vec::new();
        while r < tab.m {
            if tab.basis[r] < real_cols {
                r += 1;
                continue;
            }
            let mut replaced = false;
            for j in 0..real_cols {
                if tab.in_basis[j] {
                    continue;
                }
                tab.direction(j, &mut u);
                if u[r].abs() > tol {
                    tab.pivot(r, j, &u);
                    replaced = true;
                    break;
                }
            }
            if !replaced {
                tab.drop_row(r);
            } else {
                r += 1;
            }
        }
    }

    // Phase 2: the real objective; artificial columns may not re-enter.
    let mut cost2 = vec![0.0; ncols];
    cost2[..n].copy_from_slice(&lp.objective);
    match tab.run_phase(&cost2, real_cols) {
        PhaseEnd::Unbounded => LpResult::Unbounded,
        PhaseEnd::Optimal => {
            let mut x = vec![0.0; n];
            for (i, &bcol) in tab.basis.iter().enumerate() {
                if bcol < n {
                    x[bcol] = tab.xb[i];
                }
            }
            let value = lp
                .objective
                .iter()
                .zip(&x)
                .map(|(c, v)| c * v)
                .sum();
            LpResult::Optimal(Solution { x, value, iterations: tab.iterations })
        }
    }
}

fn identity(m: usize) -> Vec<f64> {
    let mut id = vec![0.0; m * m];
    for i in 0..m {
        id[i * m + i] = 1.0;
    }
    id
}

/// Brute-force optimum by basic-solution enumeration: solves every
/// `m × m` basis system of the standard form and keeps the best feasible
/// one. Exponential in the column count — the cross-check oracle for
/// property tests on *small* instances, never a production path.
///
/// Returns `None` when no feasible basic solution exists. The answer is
/// the true optimum only when the feasible region is bounded (vertex
/// optimality); generate test instances with explicit box constraints.
pub fn brute_force(lp: &Lp, tol: f64) -> Option<Solution> {
    let std = standard_form(lp);
    let (m, ncols, n) = (std.m, std.ncols, lp.n_vars());
    if m == 0 {
        return Some(Solution { x: vec![0.0; n], value: 0.0, iterations: 0 });
    }
    assert!(ncols <= 24, "brute force is for small test instances");
    let mut best: Option<Solution> = None;
    let mut cols: Vec<usize> = (0..m).collect();
    loop {
        // Solve B y = b for the current column subset.
        let w = 2 * m;
        let mut aug = vec![0.0; m * w];
        for i in 0..m {
            for (k, &c) in cols.iter().enumerate() {
                aug[i * w + k] = std.a[i * ncols + c];
            }
            aug[i * w + m + i] = 1.0;
        }
        if gauss_jordan(&mut aug, m) {
            let y: Vec<f64> = (0..m)
                .map(|i| (0..m).map(|k| aug[i * w + m + k] * std.b[k]).sum())
                .collect();
            if y.iter().all(|&v| v >= -tol) {
                let mut x = vec![0.0; n];
                for (k, &c) in cols.iter().enumerate() {
                    if c < n {
                        x[c] = y[k].max(0.0);
                    }
                }
                let value: f64 = lp.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
                if best.as_ref().is_none_or(|b| value < b.value) {
                    best = Some(Solution { x, value, iterations: 0 });
                }
            }
        }
        // Next m-combination of 0..ncols in lexicographic order.
        let mut i = m;
        loop {
            if i == 0 {
                return best;
            }
            i -= 1;
            if cols[i] < ncols - (m - i) {
                cols[i] += 1;
                for k in i + 1..m {
                    cols[k] = cols[k - 1] + 1;
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} !~ {b}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), 36.
        let mut lp = Lp::minimize(vec![-3.0, -5.0]);
        lp.le(vec![1.0, 0.0], 4.0);
        lp.le(vec![0.0, 2.0], 12.0);
        lp.le(vec![3.0, 2.0], 18.0);
        let s = solve(&lp);
        let s = s.optimal().expect("optimal");
        assert_close(s.value, -36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
    }

    #[test]
    fn ge_and_eq_rows_need_phase_one() {
        // min x + y s.t. x + y ≥ 2, x − y = 0 → (1, 1), 2.
        let mut lp = Lp::minimize(vec![1.0, 1.0]);
        lp.ge(vec![1.0, 1.0], 2.0);
        lp.eq(vec![1.0, -1.0], 0.0);
        let r = solve(&lp);
        let s = r.optimal().expect("optimal");
        assert_close(s.value, 2.0);
        assert_close(s.x[0], 1.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = Lp::minimize(vec![1.0]);
        lp.le(vec![1.0], 1.0);
        lp.ge(vec![1.0], 2.0);
        assert!(matches!(solve(&lp), LpResult::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        // min −x s.t. x ≥ 1: x grows forever.
        let mut lp = Lp::minimize(vec![-1.0]);
        lp.ge(vec![1.0], 1.0);
        assert!(matches!(solve(&lp), LpResult::Unbounded));
    }

    #[test]
    fn unconstrained_program() {
        let lp = Lp::minimize(vec![2.0, 0.0]);
        let s = solve(&lp);
        assert_close(s.optimal().expect("optimal").value, 0.0);
        assert!(matches!(solve(&Lp::minimize(vec![-1.0])), LpResult::Unbounded));
    }

    #[test]
    fn redundant_equality_rows_are_dropped() {
        // The duplicated row forces a dependent phase-1 basis.
        let mut lp = Lp::minimize(vec![1.0, 1.0]);
        lp.eq(vec![1.0, 1.0], 2.0);
        lp.eq(vec![2.0, 2.0], 4.0);
        lp.ge(vec![1.0, 0.0], 0.5);
        let r = solve(&lp);
        let s = r.optimal().expect("optimal");
        assert_close(s.value, 2.0);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // −x ≤ −3 ⇔ x ≥ 3.
        let mut lp = Lp::minimize(vec![1.0]);
        lp.le(vec![-1.0], -3.0);
        let r = solve(&lp);
        assert_close(r.optimal().expect("optimal").value, 3.0);
    }

    #[test]
    fn brute_force_agrees_on_a_polytope() {
        let mut lp = Lp::minimize(vec![-1.0, -2.0, 1.0]);
        lp.le(vec![1.0, 1.0, 1.0], 10.0);
        lp.le(vec![1.0, 0.0, 0.0], 4.0);
        lp.le(vec![0.0, 1.0, 0.0], 5.0);
        lp.le(vec![0.0, 0.0, 1.0], 6.0);
        let s = solve(&lp);
        let s = s.optimal().expect("optimal");
        let bf = brute_force(&lp, DEFAULT_TOL).expect("feasible");
        assert_close(s.value, bf.value);
    }
}
