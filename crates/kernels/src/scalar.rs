//! The element type of the public API.
//!
//! Every routine computes in `f64`, the precision of the paper's
//! evaluation. A few public signatures still carry an element-type
//! parameter: [`crate::MatRef`]/[`crate::MatMut`], `xkblas_core`'s
//! `Matrix<T>` and `Context<T>` (implemented for `f64` only) and
//! [`crate::simd::microkernel_peak_gflops`] (bounded by [`Scalar`]). The
//! benchmark crate spells them with `<f64>`; they can go when it next
//! changes.

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
}

/// The element types the public API names: `f64` alone. Sealed, with no
/// methods.
pub trait Scalar: sealed::Sealed {}

impl Scalar for f64 {}
