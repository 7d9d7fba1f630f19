//! Floating-point scalar abstraction.
//!
//! The BLAS layer is generic over [`Scalar`] so that the same tiled
//! algorithms serve `f32` and `f64`. The paper's evaluation is FP64; `f32`
//! comes for free and is exercised by the test-suite.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::aux::Part;
use crate::blocked::Operand;
use crate::simd::{Isa, KernelShape};
use crate::view::MatMut;

/// Expands `$body` with `$MK` bound to the `f64` microkernel type for
/// `$isa`. Variants whose kernel is not compiled for this target (or that
/// have no SIMD kernel at all) bind the scalar fallback.
macro_rules! with_f64_kernel {
    ($isa:expr, $MK:ident, $body:block) => {
        match $isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                type $MK = crate::simd::avx512::Avx512Mk;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                type $MK = crate::simd::avx2::Avx2Mk;
                $body
            }
            #[cfg(target_arch = "aarch64")]
            Isa::Neon => {
                type $MK = crate::simd::neon::NeonMk;
                $body
            }
            _ => {
                type $MK = crate::simd::scalar_mk::ScalarMk;
                $body
            }
        }
    };
}

/// A real floating-point element type usable by the kernels.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + Debug
    + Display
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Size of one element in bytes (drives transfer volumes).
    const WORD: usize;
    /// Machine epsilon, used by accuracy checks.
    const EPSILON: Self;

    /// Lossy conversion from `f64` (exact for representable values).
    fn from_f64(x: f64) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// `max` that propagates the larger value (inputs must not be NaN).
    fn max(self, other: Self) -> Self;

    /// The microkernel geometry `isa` dispatches to for this scalar type
    /// (requests with no kernel for this type/target report the scalar
    /// fallback actually used). Prefer [`crate::simd::kernel_shape`].
    #[doc(hidden)]
    fn kernel_shape(isa: Isa) -> KernelShape;

    /// Runs the blocked engine with `isa`'s microkernel. An unsupported
    /// `isa` is demoted to the scalar kernel, so this is safe to call with
    /// any value; [`crate::blocked::gemm_packed`] is the only intended
    /// caller and is handed a [`crate::simd::selected_isa`].
    #[doc(hidden)]
    fn gemm_engine(
        isa: Isa,
        alpha: Self,
        a: Operand<'_, Self>,
        b: Operand<'_, Self>,
        beta: Self,
        c: MatMut<'_, Self>,
        part: Part,
    );

    /// One bare full-tile microkernel invocation of `isa`'s kernel — the
    /// hook behind [`crate::simd::run_tile`].
    ///
    /// # Safety
    /// Same contract as `MicroKernel::tile` with `mr`/`nr` at the kernel's
    /// full `MR`/`NR` (see [`crate::simd::kernel_shape`]), and the host
    /// must support `isa`.
    #[doc(hidden)]
    #[allow(
        clippy::too_many_arguments,
        reason = "microkernel ABI: raw packed panels, two scalars and a strided C tile"
    )]
    unsafe fn tile_raw(
        isa: Isa,
        kc: usize,
        pa: *const Self,
        pb: *const Self,
        alpha: Self,
        beta: Self,
        c: *mut Self,
        ld: usize,
    );
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const WORD: usize = 8;
    const EPSILON: Self = f64::EPSILON;

    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }

    fn kernel_shape(isa: Isa) -> KernelShape {
        with_f64_kernel!(isa, MK, { crate::simd::shape_of::<f64, MK>() })
    }

    fn gemm_engine(
        isa: Isa,
        alpha: Self,
        a: Operand<'_, Self>,
        b: Operand<'_, Self>,
        beta: Self,
        c: MatMut<'_, Self>,
        part: Part,
    ) {
        // Demote ISAs the host cannot execute (selected_isa never produces
        // one, but this method is reachable with arbitrary values).
        let isa = if crate::simd::supported_isas().contains(&isa) {
            isa
        } else {
            Isa::Scalar
        };
        with_f64_kernel!(isa, MK, {
            crate::blocked::engine::<f64, MK>(alpha, a, b, beta, c, part)
        })
    }

    unsafe fn tile_raw(
        isa: Isa,
        kc: usize,
        pa: *const Self,
        pb: *const Self,
        alpha: Self,
        beta: Self,
        c: *mut Self,
        ld: usize,
    ) {
        use crate::simd::MicroKernel;
        with_f64_kernel!(isa, MK, {
            <MK as MicroKernel<f64>>::tile(
                kc,
                pa,
                pb,
                alpha,
                beta,
                c,
                ld,
                <MK as MicroKernel<f64>>::MR,
                <MK as MicroKernel<f64>>::NR,
            )
        })
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const WORD: usize = 4;
    const EPSILON: Self = f32::EPSILON;

    #[inline]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }

    // The explicit SIMD kernels are f64-only (the paper's evaluation is
    // FP64); f32 always rides the portable scalar kernel, whatever the
    // requested ISA.
    fn kernel_shape(_isa: Isa) -> KernelShape {
        crate::simd::shape_of::<f32, crate::simd::scalar_mk::ScalarMk>()
    }

    fn gemm_engine(
        _isa: Isa,
        alpha: Self,
        a: Operand<'_, Self>,
        b: Operand<'_, Self>,
        beta: Self,
        c: MatMut<'_, Self>,
        part: Part,
    ) {
        type MK = crate::simd::scalar_mk::ScalarMk;
        crate::blocked::engine::<f32, MK>(alpha, a, b, beta, c, part)
    }

    unsafe fn tile_raw(
        _isa: Isa,
        kc: usize,
        pa: *const Self,
        pb: *const Self,
        alpha: Self,
        beta: Self,
        c: *mut Self,
        ld: usize,
    ) {
        use crate::simd::MicroKernel;
        type MK = crate::simd::scalar_mk::ScalarMk;
        MK::tile(kc, pa, pb, alpha, beta, c, ld, <MK as MicroKernel<f32>>::MR, <MK as MicroKernel<f32>>::NR)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Scalar>() {
        assert_eq!(T::from_f64(2.5).to_f64(), 2.5);
        assert_eq!(T::ZERO + T::ONE, T::ONE);
        assert_eq!(T::from_f64(-3.0).abs().to_f64(), 3.0);
        assert_eq!(T::from_f64(9.0).sqrt().to_f64(), 3.0);
        assert_eq!(T::from_f64(1.0).max(T::from_f64(2.0)).to_f64(), 2.0);
    }

    #[test]
    fn f64_impl() {
        roundtrip::<f64>();
        assert_eq!(f64::WORD, 8);
    }

    #[test]
    fn f32_impl() {
        roundtrip::<f32>();
        assert_eq!(f32::WORD, 4);
    }
}
