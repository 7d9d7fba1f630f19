//! GPU kernel performance model (calibrated to a Tesla V100-SXM2).
//!
//! The simulated executors charge each tile task a duration from this model
//! instead of running cuBLAS. The model is deliberately simple — a peak
//! FLOP rate scaled by an efficiency curve over the tile's effective size,
//! with a per-routine factor — because the paper's phenomena come from the
//! *communication* side; compute only needs to saturate at the right level
//! (≈ 7 TFlop/s DP per GPU at large tiles, much less at small ones).

use crate::types::Routine;

/// Per-task kernel shapes produced by the tiled algorithms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TileOp {
    /// `C(m,n) += op(A)(m,k) op(B)(k,n)`
    Gemm {
        /// Rows of C.
        m: usize,
        /// Columns of C.
        n: usize,
        /// Inner dimension.
        k: usize,
    },
    /// Symmetric diagonal-block multiply, `C(m,n)` with `A(m,m)` (left).
    Symm {
        /// Rows of C.
        m: usize,
        /// Columns of C.
        n: usize,
    },
    /// Rank-k update of a diagonal tile `C(n,n)` with inner dimension `k`.
    Syrk {
        /// Order of C.
        n: usize,
        /// Inner dimension.
        k: usize,
    },
    /// Rank-2k update of a diagonal tile.
    Syr2k {
        /// Order of C.
        n: usize,
        /// Inner dimension.
        k: usize,
    },
    /// Triangular multiply of a `m × n` block by a triangular tile.
    Trmm {
        /// Rows of B.
        m: usize,
        /// Columns of B.
        n: usize,
    },
    /// Triangular solve of a `m × n` block against a diagonal tile.
    Trsm {
        /// Rows of B.
        m: usize,
        /// Columns of B.
        n: usize,
    },
}

impl TileOp {
    /// Floating-point operations of this tile kernel (LAPACK counts).
    pub fn flops(self) -> f64 {
        match self {
            TileOp::Gemm { m, n, k } => 2.0 * m as f64 * n as f64 * k as f64,
            TileOp::Symm { m, n } => 2.0 * m as f64 * m as f64 * n as f64,
            TileOp::Syrk { n, k } => n as f64 * (n as f64 + 1.0) * k as f64,
            TileOp::Syr2k { n, k } => 2.0 * n as f64 * (n as f64 + 1.0) * k as f64,
            TileOp::Trmm { m, n } => m as f64 * m as f64 * n as f64,
            TileOp::Trsm { m, n } => m as f64 * m as f64 * n as f64,
        }
    }

    /// Effective cubic dimension: side of the cube with the same flop
    /// volume as this kernel (drives the efficiency lookup).
    pub(crate) fn effective_dim(self) -> f64 {
        (self.flops() / 2.0).cbrt()
    }

    /// Which routine family the kernel belongs to (for the per-routine
    /// efficiency factor).
    pub(crate) fn family(self) -> Routine {
        match self {
            TileOp::Gemm { .. } => Routine::Gemm,
            TileOp::Symm { .. } => Routine::Symm,
            TileOp::Syrk { .. } => Routine::Syrk,
            TileOp::Syr2k { .. } => Routine::Syr2k,
            TileOp::Trmm { .. } => Routine::Trmm,
            TileOp::Trsm { .. } => Routine::Trsm,
        }
    }
}

/// Measured-shape efficiency of cuBLAS DGEMM on V100 vs (square) tile side.
/// Piecewise log-linear interpolation between these anchors.
const GEMM_EFFICIENCY: [(f64, f64); 9] = [
    (32.0, 0.01),
    (64.0, 0.05),
    (128.0, 0.14),
    (256.0, 0.35),
    (512.0, 0.62),
    (1024.0, 0.84),
    (2048.0, 0.945),
    (4096.0, 0.975),
    (16384.0, 0.99),
];

/// Efficiency factor of each routine's tile kernels relative to DGEMM
/// (diagonal-block kernels of TRSM in particular run far from peak).
fn family_factor(family: Routine) -> f64 {
    match family {
        Routine::Gemm => 1.0,
        Routine::Symm => 0.93,
        Routine::Syrk => 0.90,
        Routine::Syr2k => 0.93,
        Routine::Trmm => 0.80,
        Routine::Trsm => 0.50,
    }
}

/// The GPU compute model: peak rate plus launch overhead.
#[derive(Clone, Copy, Debug)]
pub struct GpuModel {
    /// Peak double-precision rate, FLOP/s.
    pub peak_flops: f64,
    /// Fixed kernel launch overhead, seconds.
    pub launch_overhead: f64,
}

impl Default for GpuModel {
    fn default() -> Self {
        GpuModel::v100()
    }
}

impl GpuModel {
    /// The V100-SXM2 of the paper's DGX-1 (7.8 TFlop/s DP peak).
    pub fn v100() -> Self {
        GpuModel {
            peak_flops: 7.8e12,
            launch_overhead: 5.0e-6,
        }
    }

    /// DGEMM efficiency at a given effective tile side.
    pub fn gemm_efficiency(dim: f64) -> f64 {
        let pts = &GEMM_EFFICIENCY;
        if dim <= pts[0].0 {
            return pts[0].1;
        }
        if dim >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        for w in pts.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if dim <= x1 {
                let t = (dim.ln() - x0.ln()) / (x1.ln() - x0.ln());
                return y0 + t * (y1 - y0);
            }
        }
        unreachable!("interpolation anchors are exhaustive")
    }

    /// Sustained FLOP rate of a tile kernel.
    pub fn rate(&self, op: TileOp) -> f64 {
        let eff = Self::gemm_efficiency(op.effective_dim()) * family_factor(op.family());
        self.peak_flops * eff
    }

    /// Simulated execution time of a tile kernel, seconds.
    pub fn kernel_time(&self, op: TileOp) -> f64 {
        let flops = op.flops();
        if flops <= 0.0 {
            return self.launch_overhead;
        }
        self.launch_overhead + flops / self.rate(op)
    }
}

/// Bandwidth derating of a pitched (`ld != rows`) `cudaMemcpy2D` transfer
/// relative to a contiguous copy. LAPACK-layout sub-matrices pay this on
/// every host transfer; compacted tiles on devices do not.
pub const PITCHED_COPY_FACTOR: f64 = 0.88;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_is_monotone_in_tile_size() {
        let mut last = 0.0;
        for d in [32.0, 64.0, 200.0, 512.0, 1000.0, 2048.0, 5000.0, 20000.0] {
            let e = GpuModel::gemm_efficiency(d);
            assert!(e >= last, "eff({d}) = {e} < {last}");
            assert!((0.0..=1.0).contains(&e));
            last = e;
        }
    }

    #[test]
    fn anchors_reproduced() {
        assert!((GpuModel::gemm_efficiency(2048.0) - 0.945).abs() < 1e-9);
        assert!((GpuModel::gemm_efficiency(1024.0) - 0.84).abs() < 1e-9);
    }

    #[test]
    fn big_tile_gemm_near_peak() {
        let m = GpuModel::v100();
        let op = TileOp::Gemm {
            m: 4096,
            n: 4096,
            k: 4096,
        };
        let t = m.kernel_time(op);
        let achieved = op.flops() / t;
        assert!(achieved > 0.9 * m.peak_flops, "{achieved:.3e}");
    }

    #[test]
    fn small_tile_gemm_far_from_peak() {
        let m = GpuModel::v100();
        let op = TileOp::Gemm {
            m: 128,
            n: 128,
            k: 128,
        };
        let achieved = op.flops() / m.kernel_time(op);
        assert!(achieved < 0.2 * m.peak_flops);
    }

    #[test]
    fn trsm_kernels_slower_than_gemm() {
        let m = GpuModel::v100();
        let g = TileOp::Gemm {
            m: 2048,
            n: 2048,
            k: 2048,
        };
        let t = TileOp::Trsm { m: 2048, n: 2048 };
        assert!(m.rate(t) < m.rate(g));
    }

    #[test]
    fn flop_counts() {
        assert_eq!(TileOp::Gemm { m: 2, n: 3, k: 4 }.flops(), 48.0);
        assert_eq!(TileOp::Trsm { m: 2, n: 3 }.flops(), 12.0);
        let syrk = TileOp::Syrk { n: 10, k: 5 };
        assert_eq!(syrk.flops(), 10.0 * 11.0 * 5.0);
    }

    #[test]
    fn empty_kernel_costs_launch_overhead() {
        let m = GpuModel::v100();
        let t = m.kernel_time(TileOp::Gemm { m: 0, n: 0, k: 0 });
        assert_eq!(t, m.launch_overhead);
    }
}
