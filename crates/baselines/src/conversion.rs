//! Host-side LAPACK ↔ tile layout conversion model (Chameleon LAPACK).
//!
//! Chameleon's LAPACK interface converts operands into its internal tile
//! layout before computing and converts the result back after (paper
//! §IV-D: this is why "Chameleon LAPACK" is the slowest stack in Fig. 5).
//! The conversion is a strided host memcpy over every matrix; it runs at
//! memory bandwidth shared with little parallel speedup.

use xk_kernels::Routine;

/// Effective host conversion bandwidth, bytes/second. Strided packing of a
/// large matrix on a two-socket Broadwell lands far below stream bandwidth.
pub(crate) const CONVERSION_BW: f64 = 6.0e9;

/// Number of matrix-sized conversions per routine: inputs converted in,
/// outputs converted out.
fn conversions(routine: Routine) -> (f64, f64) {
    match routine {
        Routine::Gemm => (3.0, 1.0),  // A, B, C in; C out
        Routine::Symm => (3.0, 1.0),
        Routine::Syrk => (2.0, 1.0),  // A, C in; C out
        Routine::Syr2k => (3.0, 1.0),
        Routine::Trmm => (2.0, 1.0),  // A, B in; B out
        Routine::Trsm => (2.0, 1.0),
    }
}

/// Seconds spent converting layouts for one call on square dimension `n`.
pub(crate) fn layout_conversion_seconds(routine: Routine, n: usize) -> f64 {
    let (inputs, outputs) = conversions(routine);
    let matrix_bytes = (n * n * 8) as f64;
    (inputs + outputs) * matrix_bytes / CONVERSION_BW
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_conversion_scales_quadratically() {
        let t1 = layout_conversion_seconds(Routine::Gemm, 10_000);
        let t2 = layout_conversion_seconds(Routine::Gemm, 20_000);
        assert!((t2 / t1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn syrk_converts_fewer_matrices_than_gemm() {
        let g = layout_conversion_seconds(Routine::Gemm, 8192);
        let s = layout_conversion_seconds(Routine::Syrk, 8192);
        assert!(s < g);
    }

    #[test]
    fn magnitude_sanity() {
        // 32768^2 doubles ≈ 8.6 GB per matrix; 4 conversions ≈ 5.7 s at
        // 6 GB/s — the same order as the GEMM compute itself, which is what
        // makes Chameleon LAPACK ~5x slower in the paper.
        let t = layout_conversion_seconds(Routine::Gemm, 32768);
        assert!(t > 3.0 && t < 10.0, "{t}");
    }
}
