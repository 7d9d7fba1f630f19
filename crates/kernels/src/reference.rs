//! Independent reference implementations used to validate the kernels and
//! the tiled algorithms.
//!
//! These deliberately take a different route from the production kernels:
//! symmetric/triangular operands are *materialized* into full dense
//! matrices, then a plain `i, j, l` triple loop computes the product. Slow,
//! obviously correct, and structurally unrelated to the code under test.

use crate::scalar::Scalar;
use crate::types::{Diag, Side, Trans, Uplo};
use crate::view::MatRef;

/// Dense column-major owned matrix used by the reference path.
#[derive(Clone, Debug, PartialEq)]
pub struct Dense<T> {
    /// Rows.
    pub m: usize,
    /// Columns.
    pub n: usize,
    /// Column-major data, `ld == m`.
    pub data: Vec<T>,
}

impl<T: Scalar> Dense<T> {
    /// Zero matrix.
    pub fn zeros(m: usize, n: usize) -> Self {
        Dense {
            m,
            n,
            data: vec![T::ZERO; m * n],
        }
    }

    /// Copies a view into an owned dense matrix.
    pub(crate) fn from_view(v: MatRef<'_, T>) -> Self {
        Dense {
            m: v.nrows(),
            n: v.ncols(),
            data: v.to_compact_vec(),
        }
    }

    /// Element access.
    pub fn at(&self, i: usize, j: usize) -> T {
        self.data[i + j * self.m]
    }

    /// Element write.
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        self.data[i + j * self.m] = v;
    }

    /// Borrowed view of the matrix.
    pub fn view(&self) -> MatRef<'_, T> {
        MatRef::from_slice(&self.data, self.m, self.n, self.m)
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Dense<T> {
        let mut t = Dense::zeros(self.n, self.m);
        for j in 0..self.n {
            for i in 0..self.m {
                t.set(j, i, self.at(i, j));
            }
        }
        t
    }
}

/// Materializes `op(A)` as a dense matrix.
pub(crate) fn materialize_op<T: Scalar>(a: MatRef<'_, T>, trans: Trans) -> Dense<T> {
    let d = Dense::from_view(a);
    match trans {
        Trans::No => d,
        Trans::Yes => d.transpose(),
    }
}

/// Materializes a symmetric matrix stored in one triangle into a full one.
pub(crate) fn materialize_sym<T: Scalar>(a: MatRef<'_, T>, uplo: Uplo) -> Dense<T> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n);
    let mut d = Dense::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            let v = crate::helpers::sym_at(&a, uplo, i, j);
            d.set(i, j, v);
        }
    }
    d
}

/// Materializes a triangular matrix (with optional unit diagonal) into a
/// full dense matrix with explicit zeros.
pub(crate) fn materialize_tri<T: Scalar>(a: MatRef<'_, T>, uplo: Uplo, diag: Diag) -> Dense<T> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n);
    let mut d = Dense::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            d.set(i, j, crate::helpers::tri_at(&a, uplo, diag, i, j));
        }
    }
    d
}

/// Plain triple-loop GEMM on dense matrices:
/// `C = alpha * A * B + beta * C`.
pub(crate) fn ref_gemm_dense<T: Scalar>(
    alpha: T,
    a: &Dense<T>,
    b: &Dense<T>,
    beta: T,
    c: &mut Dense<T>,
) {
    assert_eq!(a.n, b.m);
    assert_eq!(c.m, a.m);
    assert_eq!(c.n, b.n);
    for i in 0..c.m {
        for j in 0..c.n {
            let mut acc = T::ZERO;
            for l in 0..a.n {
                acc += a.at(i, l) * b.at(l, j);
            }
            let old = c.at(i, j);
            c.set(i, j, alpha * acc + beta * old);
        }
    }
}

/// Reference GEMM with transposes, against views.
pub fn ref_gemm<T: Scalar>(
    trans_a: Trans,
    trans_b: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatRef<'_, T>,
) -> Dense<T> {
    let fa = materialize_op(a, trans_a);
    let fb = materialize_op(b, trans_b);
    let mut fc = Dense::from_view(c);
    ref_gemm_dense(alpha, &fa, &fb, beta, &mut fc);
    fc
}

/// Reference SYMM.
pub fn ref_symm<T: Scalar>(
    side: Side,
    uplo: Uplo,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatRef<'_, T>,
) -> Dense<T> {
    let fa = materialize_sym(a, uplo);
    let fb = Dense::from_view(b);
    let mut fc = Dense::from_view(c);
    match side {
        Side::Left => ref_gemm_dense(alpha, &fa, &fb, beta, &mut fc),
        Side::Right => ref_gemm_dense(alpha, &fb, &fa, beta, &mut fc),
    }
    fc
}

/// Reference SYRK. The returned matrix is fully formed (both triangles);
/// compare only the `uplo` triangle against the kernel output.
pub fn ref_syrk<T: Scalar>(
    trans: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    beta: T,
    c: MatRef<'_, T>,
) -> Dense<T> {
    let fa = materialize_op(a, trans);
    let fat = fa.transpose();
    let mut fc = Dense::from_view(c);
    ref_gemm_dense(alpha, &fa, &fat, beta, &mut fc);
    fc
}

/// Reference SYR2K (both triangles formed).
pub fn ref_syr2k<T: Scalar>(
    trans: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: MatRef<'_, T>,
) -> Dense<T> {
    let fa = materialize_op(a, trans);
    let fb = materialize_op(b, trans);
    let fbt = fb.transpose();
    let fat = fa.transpose();
    let mut fc = Dense::from_view(c);
    ref_gemm_dense(alpha, &fa, &fbt, beta, &mut fc);
    ref_gemm_dense(alpha, &fb, &fat, T::ONE, &mut fc);
    fc
}

/// Reference TRMM: returns `alpha * op(A) * B` (left) or
/// `alpha * B * op(A)` (right).
pub fn ref_trmm<T: Scalar>(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
) -> Dense<T> {
    let tri = materialize_tri(a, uplo, diag);
    let op = match trans {
        Trans::No => tri,
        Trans::Yes => tri.transpose(),
    };
    let fb = Dense::from_view(b);
    let mut out = Dense::zeros(fb.m, fb.n);
    match side {
        Side::Left => ref_gemm_dense(alpha, &op, &fb, T::ZERO, &mut out),
        Side::Right => ref_gemm_dense(alpha, &fb, &op, T::ZERO, &mut out),
    }
    out
}

/// Residual of a TRSM solution: `max|op(A) * X - alpha * B|` (left) or
/// `max|X * op(A) - alpha * B|` (right), normalized by `max(1, |B|_max)`.
/// A correct solve has a residual near machine epsilon times the problem
/// size. The triangle is described as `trsm` takes it: side, uplo,
/// trans, diag.
pub fn trsm_residual<T: Scalar>(
    (side, uplo, trans, diag): (Side, Uplo, Trans, Diag),
    alpha: T,
    a: MatRef<'_, T>,
    x: MatRef<'_, T>,
    b: MatRef<'_, T>,
) -> f64 {
    let recomposed = ref_trmm(side, uplo, trans, diag, T::ONE, a, x);
    let mut worst = 0.0f64;
    let mut bmax = 1.0f64;
    for j in 0..b.ncols() {
        for i in 0..b.nrows() {
            let want = alpha.to_f64() * b.at(i, j).to_f64();
            let got = recomposed.at(i, j).to_f64();
            worst = worst.max((want - got).abs());
            bmax = bmax.max(want.abs());
        }
    }
    worst / bmax
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_transpose() {
        let d = Dense {
            m: 2,
            n: 3,
            data: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        };
        let t = d.transpose();
        assert_eq!((t.m, t.n), (3, 2));
        assert_eq!(t.at(0, 1), d.at(1, 0));
        assert_eq!(t.at(2, 0), d.at(0, 2));
    }

    #[test]
    fn ref_gemm_identity() {
        let i2 = Dense {
            m: 2,
            n: 2,
            data: vec![1.0, 0.0, 0.0, 1.0],
        };
        let b = Dense {
            m: 2,
            n: 2,
            data: vec![5.0, 6.0, 7.0, 8.0],
        };
        let mut c = Dense::zeros(2, 2);
        ref_gemm_dense(1.0, &i2, &b, 0.0, &mut c);
        assert_eq!(c.data, b.data);
    }

    #[test]
    fn kernel_gemm_matches_reference() {
        let a: Vec<f64> = (0..12).map(|x| x as f64 * 0.5).collect(); // 3x4
        let b: Vec<f64> = (0..20).map(|x| x as f64 - 7.0).collect(); // 4x5
        let c0: Vec<f64> = (0..15).map(|x| x as f64 * 0.1).collect(); // 3x5
        let ar = MatRef::from_slice(&a, 3, 4, 3);
        let br = MatRef::from_slice(&b, 4, 5, 4);
        let want = ref_gemm(
            Trans::No,
            Trans::No,
            1.5,
            ar,
            br,
            -0.5,
            MatRef::from_slice(&c0, 3, 5, 3),
        );
        let mut c = c0.clone();
        crate::gemm::gemm(
            Trans::No,
            Trans::No,
            1.5,
            ar,
            br,
            -0.5,
            crate::view::MatMut::from_slice(&mut c, 3, 5, 3),
        );
        for (x, y) in c.iter().zip(&want.data) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn trsm_residual_detects_wrong_solution() {
        let a = vec![2.0, 1.0, 0.0, 4.0];
        let b = vec![2.0, 9.0];
        let wrong = vec![1.0, 1.0]; // correct is [1, 2]
        let r = trsm_residual(
            (Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit),
            1.0,
            MatRef::from_slice(&a, 2, 2, 2),
            MatRef::from_slice(&wrong, 2, 1, 2),
            MatRef::from_slice(&b, 2, 1, 2),
        );
        assert!(r > 0.1);
    }
}
