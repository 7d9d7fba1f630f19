//! `numeric_blas3` — real host execution of the six BLAS-3 routines.
//!
//! GEMM, SYMM, SYRK, SYR2K, TRMM and TRSM through `Context::run_numeric`
//! at N = 2048, tile 256, f64, on `threads` workers, then GEMM and TRSM
//! once more on one worker. The only path through pack → microkernel →
//! `par_exec`; the simulation layers do nothing here.
//!
//! Check: a Freivalds probe per call — the output applied to a seeded
//! vector against the operands applied to it, O(n²), relative residual
//! below 1e-10.

use xk_kernels::aux::{lacpy, Part};
use xk_kernels::MatRef;
use xk_runtime::RuntimeConfig;
use xkblas_core::{
    gemm_async, symm_async, syr2k_async, syrk_async, trmm_async, trsm_async, Context, Diag, Matrix,
    Routine, Side, Trans, Uplo,
};

use super::fnv1a;
use crate::harness::{Checks, Counts, Workload};
use crate::rng::Rng;
use crate::spans::Tracer;

/// Matrix dimension.
pub const N: usize = 2048;
/// Tile size.
pub const TILE: usize = 256;
/// Largest relative residual the Freivalds probe accepts.
pub const RESIDUAL_TOL: f64 = 1e-10;
const ALPHA: f64 = 1.0;
const BETA: f64 = 0.5;

/// One routine call of the pass and the matrix it writes.
pub struct Call {
    /// The routine.
    pub routine: Routine,
    /// Workers it runs on.
    pub threads: usize,
    out: Matrix<f64>,
}

/// Wall time and task count of one call.
pub struct CallResult {
    /// Seconds in `run_numeric` (graph build and execution).
    pub seconds: f64,
    /// Tasks the executor ran.
    pub tasks: usize,
}

/// See the module docs.
pub struct NumericBlas3 {
    a: Matrix<f64>,
    b: Matrix<f64>,
    tri: Matrix<f64>,
    c0: Matrix<f64>,
    x: Vec<f64>,
    /// The calls of one pass, in order.
    pub calls: Vec<Call>,
}

/// `y = M·x`.
fn matvec(m: MatRef<'_, f64>, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; m.nrows()];
    for (j, &xj) in x.iter().enumerate() {
        for (yi, &mij) in y.iter_mut().zip(m.col(j)) {
            *yi += mij * xj;
        }
    }
    y
}

/// `y = Mᵀ·x`.
fn matvec_t(m: MatRef<'_, f64>, x: &[f64]) -> Vec<f64> {
    (0..m.ncols())
        .map(|j| m.col(j).iter().zip(x).map(|(a, b)| a * b).sum())
        .collect()
}

/// `y = tril(M)·x`: the lower triangle, diagonal included.
fn matvec_lower(m: MatRef<'_, f64>, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; m.nrows()];
    for (j, &xj) in x.iter().enumerate() {
        let col = m.col(j);
        for i in j..col.len() {
            y[i] += col[i] * xj;
        }
    }
    y
}

/// `y = sym(M)·x`: the symmetric matrix whose lower triangle is `M`'s.
fn matvec_sym_lower(m: MatRef<'_, f64>, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; m.nrows()];
    for (j, &xj) in x.iter().enumerate() {
        let col = m.col(j);
        y[j] += col[j] * xj;
        for i in j + 1..col.len() {
            y[i] += col[i] * xj;
            y[j] += col[i] * x[i];
        }
    }
    y
}

fn axpby(alpha: f64, a: &[f64], beta: f64, b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(a, b)| alpha * a + beta * b).collect()
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

impl NumericBlas3 {
    /// Relative residual of the Freivalds identity for `call`'s output:
    /// both sides of `out·x = op(operands)·x`, each computed in O(n²).
    pub fn freivalds_residual(&self, call: &Call) -> f64 {
        let (a, b, tri, c0) = (
            self.a.view(),
            self.b.view(),
            self.tri.view(),
            self.c0.view(),
        );
        let out = call.out.view();
        let x = &self.x;
        let (got, want) = match call.routine {
            // C = αAB + βC₀
            Routine::Gemm => (
                matvec(out, x),
                axpby(ALPHA, &matvec(a, &matvec(b, x)), BETA, &matvec(c0, x)),
            ),
            // C = α·sym(A)·B + βC₀
            Routine::Symm => (
                matvec(out, x),
                axpby(
                    ALPHA,
                    &matvec_sym_lower(a, &matvec(b, x)),
                    BETA,
                    &matvec(c0, x),
                ),
            ),
            // lower(C) = lower(αAAᵀ + βC₀): compare the symmetric completions.
            Routine::Syrk => (
                matvec_sym_lower(out, x),
                axpby(
                    ALPHA,
                    &matvec(a, &matvec_t(a, x)),
                    BETA,
                    &matvec_sym_lower(c0, x),
                ),
            ),
            // lower(C) = lower(α(ABᵀ + BAᵀ) + βC₀)
            Routine::Syr2k => {
                let abt = matvec(a, &matvec_t(b, x));
                let bat = matvec(b, &matvec_t(a, x));
                (
                    matvec_sym_lower(out, x),
                    axpby(
                        ALPHA,
                        &axpby(1.0, &abt, 1.0, &bat),
                        BETA,
                        &matvec_sym_lower(c0, x),
                    ),
                )
            }
            // B = α·tril(T)·B₀
            Routine::Trmm => (
                matvec(out, x),
                axpby(ALPHA, &matvec_lower(tri, &matvec(b, x)), 0.0, x),
            ),
            // tril(T)·B = αB₀
            Routine::Trsm => (
                matvec_lower(tri, &matvec(out, x)),
                axpby(ALPHA, &matvec(b, x), 0.0, x),
            ),
        };
        norm(&axpby(1.0, &got, -1.0, &want)) / norm(&want).max(f64::MIN_POSITIVE)
    }

    fn submit(&self, ctx: &mut Context<f64>, call: &Call) {
        let (a, b, tri, out) = (&self.a, &self.b, &self.tri, &call.out);
        match call.routine {
            Routine::Gemm => gemm_async(ctx, Trans::No, Trans::No, ALPHA, a, b, BETA, out),
            Routine::Symm => symm_async(ctx, Side::Left, Uplo::Lower, ALPHA, a, b, BETA, out),
            Routine::Syrk => syrk_async(ctx, Uplo::Lower, Trans::No, ALPHA, a, BETA, out),
            Routine::Syr2k => syr2k_async(ctx, Uplo::Lower, Trans::No, ALPHA, a, b, BETA, out),
            Routine::Trmm => trmm_async(
                ctx,
                Side::Left,
                Uplo::Lower,
                Trans::No,
                Diag::NonUnit,
                ALPHA,
                tri,
                out,
            ),
            Routine::Trsm => trsm_async(
                ctx,
                Side::Left,
                Uplo::Lower,
                Trans::No,
                Diag::NonUnit,
                ALPHA,
                tri,
                out,
            ),
        }
        ctx.memory_coherent_async(out);
    }
}

impl Workload for NumericBlas3 {
    const NAME: &'static str = "numeric_blas3";
    type Output = Vec<CallResult>;

    fn setup(seed: u64, threads: usize) -> Self {
        let mut rng = Rng::new(seed);
        let mut matrix_seed = || rng.next_u64() >> 16;
        let a = Matrix::random(N, N, matrix_seed());
        let b = Matrix::random(N, N, matrix_seed());
        let c0 = Matrix::random(N, N, matrix_seed());
        let tri = Matrix::random_diag_dominant(N, matrix_seed());
        let x = (0..N).map(|_| rng.next_f64() - 0.5).collect();
        let mut calls: Vec<Call> = Routine::ALL
            .into_iter()
            .map(|routine| (routine, threads))
            .chain([(Routine::Gemm, 1), (Routine::Trsm, 1)])
            .map(|(routine, threads)| Call {
                routine,
                threads,
                out: Matrix::zeros(N, N),
            })
            .collect();
        // One worker asked for: the single-thread calls would repeat the
        // first six, so there is nothing to compare them with.
        if threads == 1 {
            calls.truncate(Routine::ALL.len());
        }
        NumericBlas3 {
            a,
            b,
            tri,
            c0,
            x,
            calls,
        }
    }

    fn reset(&mut self) {
        // TRMM/TRSM overwrite their right-hand side and the others
        // accumulate into C: restore every output's starting value.
        for call in &self.calls {
            let start = match call.routine {
                Routine::Trmm | Routine::Trsm => &self.b,
                _ => &self.c0,
            };
            lacpy(Part::All, start.view(), call.out.view_mut());
        }
    }

    fn pass(&mut self, tr: &Tracer) -> Vec<CallResult> {
        let topo = xk_topo::dgx1();
        self.calls
            .iter()
            .map(|call| {
                let name = format!("{} x{}", call.routine.name(), call.threads);
                let (outcome, seconds) = tr.timed("core", &name, || {
                    let mut ctx = Context::<f64>::new(topo.clone(), RuntimeConfig::xkblas(), TILE);
                    self.submit(&mut ctx, call);
                    ctx.run_numeric(call.threads)
                });
                CallResult {
                    seconds,
                    tasks: outcome.tasks_run,
                }
            })
            .collect()
    }

    fn check(&mut self, out: Vec<CallResult>, checks: &mut Checks) -> Counts {
        let mut digest = Vec::new();
        for call in &self.calls {
            let residual = self.freivalds_residual(call);
            checks.check(residual < RESIDUAL_TOL, || {
                format!(
                    "{}: {} on {} thread(s): expected a Freivalds residual below {RESIDUAL_TOL:e}, got {residual:e}",
                    Self::NAME,
                    call.routine.name(),
                    call.threads
                )
            });
            // Tile updates are ordered by the task graph, so the values
            // are the same whichever worker ran them.
            let out = call.out.view();
            for j in 0..out.ncols() {
                digest.extend(fnv1a(&f64_bytes(out.col(j))).to_le_bytes());
            }
        }
        vec![
            ("calls", out.len() as u64),
            ("tasks_run", out.iter().map(|r| r.tasks as u64).sum()),
            ("outputs_digest", fnv1a(&digest)),
        ]
    }
}

/// The bytes of `values`, for digesting.
fn f64_bytes(values: &[f64]) -> Vec<u8> {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect()
}
