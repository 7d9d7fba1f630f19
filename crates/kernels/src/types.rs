//! BLAS parameter enums shared across the workspace.

/// Transposition of an operand.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

impl Trans {
    /// Dimensions of `op(A)` given the stored dimensions of `A`.
    pub fn apply_dims(self, m: usize, n: usize) -> (usize, usize) {
        match self {
            Trans::No => (m, n),
            Trans::Yes => (n, m),
        }
    }

    /// Flips the transposition.
    pub(crate) fn flip(self) -> Trans {
        match self {
            Trans::No => Trans::Yes,
            Trans::Yes => Trans::No,
        }
    }
}

/// Which triangle of a symmetric/triangular matrix is stored.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Uplo {
    /// Lower triangle.
    Lower,
    /// Upper triangle.
    Upper,
}

impl Uplo {
    /// The opposite triangle.
    pub fn flip(self) -> Uplo {
        match self {
            Uplo::Lower => Uplo::Upper,
            Uplo::Upper => Uplo::Lower,
        }
    }
}

/// Side of a symmetric/triangular multiplication.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Side {
    /// `op(A)` multiplies from the left.
    Left,
    /// `op(A)` multiplies from the right.
    Right,
}

/// Whether a triangular matrix has an implicit unit diagonal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Diag {
    /// Diagonal elements are stored and used.
    NonUnit,
    /// Diagonal elements are assumed to be one.
    Unit,
}

/// The six level-3 BLAS routines evaluated by the paper (Fig. 5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Routine {
    /// General matrix-matrix multiply.
    Gemm,
    /// Symmetric matrix-matrix multiply.
    Symm,
    /// Symmetric rank-k update.
    Syrk,
    /// Symmetric rank-2k update.
    Syr2k,
    /// Triangular matrix-matrix multiply.
    Trmm,
    /// Triangular solve with multiple right-hand sides.
    Trsm,
}

impl Routine {
    /// All six routines in the paper's figure order.
    pub const ALL: [Routine; 6] = [
        Routine::Gemm,
        Routine::Symm,
        Routine::Syr2k,
        Routine::Syrk,
        Routine::Trmm,
        Routine::Trsm,
    ];

    /// Uppercase name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Routine::Gemm => "GEMM",
            Routine::Symm => "SYMM",
            Routine::Syrk => "SYRK",
            Routine::Syr2k => "SYR2K",
            Routine::Trmm => "TRMM",
            Routine::Trsm => "TRSM",
        }
    }

    /// Total floating-point operations for square problems of dimension `n`
    /// (LAPACK working-note flop counts; used to convert simulated times
    /// into the TFlop/s axes of Fig. 3–5, 8).
    pub fn flops_square(self, n: u64) -> f64 {
        let nf = n as f64;
        match self {
            Routine::Gemm => 2.0 * nf * nf * nf,
            Routine::Symm => 2.0 * nf * nf * nf,
            Routine::Syrk => nf * nf * (nf + 1.0),
            Routine::Syr2k => 2.0 * nf * nf * (nf + 1.0),
            Routine::Trmm => nf * nf * nf,
            Routine::Trsm => nf * nf * nf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trans_dims() {
        assert_eq!(Trans::No.apply_dims(3, 5), (3, 5));
        assert_eq!(Trans::Yes.apply_dims(3, 5), (5, 3));
        assert_eq!(Trans::No.flip(), Trans::Yes);
    }

    #[test]
    fn uplo_flip() {
        assert_eq!(Uplo::Lower.flip(), Uplo::Upper);
        assert_eq!(Uplo::Upper.flip(), Uplo::Lower);
    }

    #[test]
    fn routine_names_and_flops() {
        assert_eq!(Routine::Gemm.name(), "GEMM");
        assert_eq!(Routine::ALL.len(), 6);
        let n = 1000u64;
        assert!((Routine::Gemm.flops_square(n) - 2e9).abs() < 1.0);
        assert!(Routine::Syr2k.flops_square(n) > Routine::Syrk.flops_square(n));
        assert!((Routine::Trsm.flops_square(n) - 1e9).abs() < 1.0);
    }
}
