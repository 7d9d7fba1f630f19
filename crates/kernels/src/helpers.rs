//! Element accessors for symmetric/triangular storage: what the reference
//! path materializes operands with, and the oracle the packer is tested
//! against.

use crate::scalar::Scalar;
use crate::types::{Diag, Uplo};
use crate::view::MatRef;

/// Reads element `(i, j)` of a symmetric matrix of which only the `uplo`
/// triangle is stored (the other triangle mirrors it).
#[inline]
pub fn sym_at<T: Scalar>(a: &MatRef<'_, T>, uplo: Uplo, i: usize, j: usize) -> T {
    let stored = match uplo {
        Uplo::Lower => i >= j,
        Uplo::Upper => i <= j,
    };
    if stored {
        a.at(i, j)
    } else {
        a.at(j, i)
    }
}

/// Reads element `(i, j)` of a triangular matrix: zero outside the `uplo`
/// triangle, one on the diagonal when `diag` is [`Diag::Unit`].
#[inline]
pub fn tri_at<T: Scalar>(a: &MatRef<'_, T>, uplo: Uplo, diag: Diag, i: usize, j: usize) -> T {
    if i == j {
        return match diag {
            Diag::Unit => T::ONE,
            Diag::NonUnit => a.at(i, j),
        };
    }
    let stored = match uplo {
        Uplo::Lower => i > j,
        Uplo::Upper => i < j,
    };
    if stored {
        a.at(i, j)
    } else {
        T::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sym_mirrors_opposite_triangle() {
        // Lower-stored 2x2: [1 .; 2 3] (col-major [1,2,*,3])
        let data = vec![1.0, 2.0, -99.0, 3.0];
        let a = MatRef::from_slice(&data, 2, 2, 2);
        assert_eq!(sym_at(&a, Uplo::Lower, 0, 1), 2.0);
        assert_eq!(sym_at(&a, Uplo::Lower, 1, 0), 2.0);
        assert_eq!(sym_at(&a, Uplo::Lower, 1, 1), 3.0);
        // Upper-stored: garbage is in the lower part instead.
        let data_u = vec![1.0, -99.0, 2.0, 3.0];
        let u = MatRef::from_slice(&data_u, 2, 2, 2);
        assert_eq!(sym_at(&u, Uplo::Upper, 1, 0), 2.0);
    }

    #[test]
    fn tri_zeroes_and_unit_diag() {
        let data = vec![5.0, 2.0, -99.0, 7.0];
        let a = MatRef::from_slice(&data, 2, 2, 2);
        assert_eq!(tri_at(&a, Uplo::Lower, Diag::NonUnit, 0, 1), 0.0);
        assert_eq!(tri_at(&a, Uplo::Lower, Diag::NonUnit, 1, 0), 2.0);
        assert_eq!(tri_at(&a, Uplo::Lower, Diag::NonUnit, 0, 0), 5.0);
        assert_eq!(tri_at(&a, Uplo::Lower, Diag::Unit, 0, 0), 1.0);
        assert_eq!(tri_at(&a, Uplo::Upper, Diag::NonUnit, 1, 0), 0.0);
    }
}
