//! What `trmm` and `trsm` share: the checked call variant and the 2 × 2
//! partition both recurse on.

use crate::aux::Part;
use crate::blocked::{gemm_packed, Operand};
use crate::scalar::Scalar;
use crate::simd::{selected_isa, Isa};
use crate::types::{Diag, Side, Trans, Uplo};
use crate::view::{MatMut, MatRef};

/// One `trmm`/`trsm` call's variant, and the kernel it dispatched to.
#[derive(Clone, Copy)]
pub(crate) struct TriOp {
    isa: Isa,
    pub side: Side,
    pub uplo: Uplo,
    pub trans: Trans,
    pub diag: Diag,
}

/// A triangular operand halved, and `B` split to match. Whatever the
/// variant, the stored off-diagonal block `r` couples the halves one way
/// only: `target` receives `op(r) * source` (left) or `source * op(r)`
/// (right), and each half meets its own diagonal block.
pub(crate) struct TriSplit<'a, 'b, T> {
    /// Diagonal block of `A` acting on `target`.
    pub a_target: MatRef<'a, T>,
    /// Diagonal block of `A` acting on `source`.
    pub a_source: MatRef<'a, T>,
    /// The off-diagonal block of `A` inside the stored triangle.
    pub r: MatRef<'a, T>,
    /// The rows (left) or columns (right) of `B` that `r` feeds into.
    pub target: MatMut<'b, T>,
    /// The rows (left) or columns (right) of `B` that `r` reads.
    pub source: MatMut<'b, T>,
}

impl TriOp {
    /// Checks `A` against `B` and settles the calls with nothing to compute:
    /// `alpha == 0` clears `B`, an empty `B` is left alone, and both return
    /// `None`.
    ///
    /// # Panics
    /// Panics on inconsistent dimensions.
    pub fn checked<T: Scalar>(
        (side, uplo, trans, diag): (Side, Uplo, Trans, Diag),
        alpha: T,
        a: MatRef<'_, T>,
        b: &mut MatMut<'_, T>,
    ) -> Option<Self> {
        let (m, n) = (b.nrows(), b.ncols());
        match side {
            Side::Left => assert_eq!(a.nrows(), m, "A must be m x m for Side::Left"),
            Side::Right => assert_eq!(a.nrows(), n, "A must be n x n for Side::Right"),
        }
        assert_eq!(a.ncols(), a.nrows(), "A must be square");
        if alpha == T::ZERO {
            b.fill(T::ZERO);
            return None;
        }
        (m > 0 && n > 0).then(|| TriOp {
            isa: selected_isa(),
            side,
            uplo,
            trans,
            diag,
        })
    }

    /// `C = alpha * x * B + beta * C` (left) or `alpha * B * x + beta * C`
    /// (right) on the blocked engine.
    pub fn gemm<T: Scalar>(
        &self,
        alpha: T,
        x: Operand<'_, T>,
        b: MatRef<'_, T>,
        beta: T,
        c: MatMut<'_, T>,
    ) {
        let b = Operand::dense(b, Trans::No);
        let (p, q) = match self.side {
            Side::Left => (x, b),
            Side::Right => (b, x),
        };
        gemm_packed(self.isa, alpha, p, q, beta, c, Part::All);
    }

    /// Splits the triangular dimension at `h` (`0 < h < a.nrows()`).
    pub fn split<'a, 'b, T: Scalar>(
        &self,
        h: usize,
        a: MatRef<'a, T>,
        b: MatMut<'b, T>,
    ) -> TriSplit<'a, 'b, T> {
        let t = a.nrows() - h;
        let (a_head, a_tail) = (a.submatrix(0, 0, h, h), a.submatrix(h, h, t, t));
        let r = match self.uplo {
            Uplo::Lower => a.submatrix(h, 0, t, h),
            Uplo::Upper => a.submatrix(0, h, h, t),
        };
        let (b_head, b_tail) = match self.side {
            Side::Left => b.split_rows_at(h),
            Side::Right => b.split_cols_at(h),
        };
        // A lower-triangular op(A) feeds head rows into tail rows (left) or
        // tail columns into head columns (right); an upper one the reverse.
        let op_lower = (self.uplo == Uplo::Lower) == (self.trans == Trans::No);
        let ((a_target, target), (a_source, source)) = if (self.side == Side::Left) == op_lower {
            ((a_tail, b_tail), (a_head, b_head))
        } else {
            ((a_head, b_head), (a_tail, b_tail))
        };
        TriSplit {
            a_target,
            a_source,
            r,
            target,
            source,
        }
    }
}
