//! cuBLAS-XT policy model.
//!
//! Documented behaviour (paper §II, §IV-D): synchronous per-call semantics,
//! output blocks distributed round-robin over the GPUs, operands and
//! kernels enqueued into the *same* stream (two streams per GPU give the
//! only overlap), every block operand re-read from host memory — no
//! software cache, no device-to-device transfers — and results written
//! back after each call.

use xk_kernels::perfmodel::TileOp;
use xk_kernels::{GpuModel, Routine};
use xk_sim::SimTime;
use xk_topo::{Device, FabricSpec};

use crate::fabric::Fabric;
use crate::xkblas_like::trace_to_result;
use crate::{RunParams, RunResult};

const STREAMS: usize = 2;

struct Driver<'t> {
    fabric: Fabric<'t>,
    model: GpuModel,
    /// Per-(gpu, stream) cursor: end of the last in-stream operation.
    cursors: Vec<Vec<SimTime>>,
    n: usize,
    b: usize,
    bt: usize,
    word: u64,
}

impl<'t> Driver<'t> {
    fn new(topo: &'t FabricSpec, n: usize, b: usize) -> Self {
        Driver {
            fabric: Fabric::new(topo),
            model: GpuModel::v100(),
            cursors: vec![vec![SimTime::ZERO; STREAMS]; topo.n_gpus()],
            n,
            b,
            bt: n.div_ceil(b).max(1),
            word: 8,
        }
    }

    fn dim(&self, i: usize) -> usize {
        if i + 1 == self.bt {
            self.n - i * self.b
        } else {
            self.b
        }
    }

    fn block_bytes(&self, i: usize, j: usize) -> u64 {
        (self.dim(i) * self.dim(j)) as u64 * self.word
    }

    /// In-stream H2D of one block.
    fn fetch(&mut self, g: usize, s: usize, bytes: u64, label: &str) {
        let t = self.cursors[g][s];
        let res = self
            .fabric
            .transfer(Device::Host, Device::Gpu(g), bytes, t, true, label);
        self.cursors[g][s] = res.end;
    }

    /// In-stream kernel.
    fn kernel(&mut self, g: usize, s: usize, op: TileOp, label: &str) {
        let t = self.cursors[g][s];
        let res = self.fabric.kernel(g, t, self.model.kernel_time(op), label);
        self.cursors[g][s] = res.end;
    }

    /// In-stream D2H of one block.
    fn writeback(&mut self, g: usize, s: usize, bytes: u64, label: &str) {
        let t = self.cursors[g][s];
        let res = self
            .fabric
            .transfer(Device::Gpu(g), Device::Host, bytes, t, true, label);
        self.cursors[g][s] = res.end;
    }

    /// Barrier across every stream (cuBLAS-XT's internal synchronization
    /// between dependent phases, e.g. TRSM pivot steps).
    fn barrier(&mut self) {
        let latest = self
            .cursors
            .iter()
            .flatten()
            .copied()
            .fold(SimTime::ZERO, SimTime::max);
        for per_gpu in &mut self.cursors {
            for c in per_gpu {
                *c = latest;
            }
        }
    }
}

/// Simulates one cuBLAS-XT routine call.
pub(crate) fn run_cublasxt(topo: &FabricSpec, params: &RunParams) -> RunResult {
    let mut d = Driver::new(topo, params.n, params.tile);
    let n_gpus = topo.n_gpus();
    let mut rr = 0usize; // round-robin slot counter
    let place = |rr: &mut usize| {
        let g = *rr % n_gpus;
        let s = (*rr / n_gpus) % STREAMS;
        *rr += 1;
        (g, s)
    };

    let bt = d.bt;
    match params.routine {
        Routine::Gemm | Routine::Symm => {
            for i in 0..bt {
                for j in 0..bt {
                    let (g, s) = place(&mut rr);
                    let (m, n2) = (d.dim(i), d.dim(j));
                    let cb = d.block_bytes(i, j);
                    d.fetch(g, s, cb, "C");
                    for k in 0..bt {
                        d.fetch(g, s, d.block_bytes(i, k), "A");
                        d.fetch(g, s, d.block_bytes(k, j), "B");
                        let op = if params.routine == Routine::Symm && k == i {
                            TileOp::Symm { m, n: n2 }
                        } else {
                            TileOp::Gemm { m, n: n2, k: d.dim(k) }
                        };
                        d.kernel(g, s, op, "gemm");
                    }
                    d.writeback(g, s, cb, "C");
                }
            }
        }
        Routine::Syrk | Routine::Syr2k => {
            let two = params.routine == Routine::Syr2k;
            for i in 0..bt {
                for j in 0..=i {
                    let (g, s) = place(&mut rr);
                    let (m, n2) = (d.dim(i), d.dim(j));
                    let cb = d.block_bytes(i, j);
                    d.fetch(g, s, cb, "C");
                    for k in 0..bt {
                        d.fetch(g, s, d.block_bytes(i, k), "A");
                        d.fetch(g, s, d.block_bytes(j, k), "A'");
                        if i == j {
                            let op = if two {
                                TileOp::Syr2k { n: n2, k: d.dim(k) }
                            } else {
                                TileOp::Syrk { n: n2, k: d.dim(k) }
                            };
                            d.kernel(g, s, op, "syrk");
                        } else {
                            d.kernel(g, s, TileOp::Gemm { m, n: n2, k: d.dim(k) }, "gemm");
                            if two {
                                d.fetch(g, s, d.block_bytes(i, k), "B");
                                d.fetch(g, s, d.block_bytes(j, k), "B'");
                                d.kernel(g, s, TileOp::Gemm { m, n: n2, k: d.dim(k) }, "gemm");
                            }
                        }
                    }
                    d.writeback(g, s, cb, "C");
                }
            }
        }
        Routine::Trmm => {
            // Out-of-place triangular multiply: every block of the result
            // reads the triangular row of A and the old B from host.
            for i in 0..bt {
                for j in 0..bt {
                    let (g, s) = place(&mut rr);
                    let (m, n2) = (d.dim(i), d.dim(j));
                    let cb = d.block_bytes(i, j);
                    for k in 0..=i {
                        d.fetch(g, s, d.block_bytes(i, k), "A");
                        d.fetch(g, s, d.block_bytes(k, j), "B");
                        let op = if k == i {
                            TileOp::Trmm { m, n: n2 }
                        } else {
                            TileOp::Gemm { m, n: n2, k: d.dim(k) }
                        };
                        d.kernel(g, s, op, "trmm");
                    }
                    d.writeback(g, s, cb, "B'");
                }
            }
        }
        Routine::Trsm => {
            // Pivot steps with internal synchronization: solve block row k,
            // write it back, update the remaining rows from host data.
            for k in 0..bt {
                for j in 0..bt {
                    let (g, s) = place(&mut rr);
                    let (m, n2) = (d.dim(k), d.dim(j));
                    d.fetch(g, s, d.block_bytes(k, k), "Akk");
                    d.fetch(g, s, d.block_bytes(k, j), "B");
                    d.kernel(g, s, TileOp::Trsm { m, n: n2 }, "trsm");
                    d.writeback(g, s, d.block_bytes(k, j), "X");
                }
                d.barrier();
                for i in k + 1..bt {
                    for j in 0..bt {
                        let (g, s) = place(&mut rr);
                        let (m, n2) = (d.dim(i), d.dim(j));
                        d.fetch(g, s, d.block_bytes(i, k), "A");
                        d.fetch(g, s, d.block_bytes(k, j), "X");
                        d.fetch(g, s, d.block_bytes(i, j), "B");
                        d.kernel(g, s, TileOp::Gemm { m, n: n2, k: d.dim(k) }, "update");
                        d.writeback(g, s, d.block_bytes(i, j), "B");
                    }
                }
                d.barrier();
            }
        }
    }

    trace_to_result(d.fabric.trace, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xk_topo::dgx1;

    fn p(routine: Routine, n: usize, tile: usize) -> RunParams {
        RunParams {
            routine,
            n,
            tile,
            data_on_device: false,
        }
    }

    #[test]
    fn gemm_runs_and_is_transfer_heavy() {
        let topo = dgx1();
        let r = run_cublasxt(&topo, &p(Routine::Gemm, 8192, 2048));
        assert!(r.seconds > 0.0);
        assert_eq!(r.bytes_p2p, 0, "cuBLAS-XT never talks GPU-to-GPU");
        // Re-reads inflate H2D way beyond the 3 N^2 minimum.
        let min = 3 * 8192u64 * 8192 * 8;
        assert!(r.bytes_h2d > min, "h2d {} <= {min}", r.bytes_h2d);
        // Transfer-dominated profile like Fig. 6.
        assert!(r.trace.breakdown().transfer_ratio() > 0.4);
    }

    #[test]
    fn all_routines_complete() {
        let topo = dgx1();
        for routine in Routine::ALL {
            let r = run_cublasxt(&topo, &p(routine, 4096, 1024));
            assert!(r.seconds > 0.0, "{routine:?}");
            assert!(r.tflops > 0.0, "{routine:?}");
        }
    }

    #[test]
    fn bigger_blocks_help_gemm() {
        // The paper extends the block sweep to 8192/16384 for cuBLAS-XT
        // because large blocks amortize its re-reads.
        let topo = dgx1();
        let small = run_cublasxt(&topo, &p(Routine::Gemm, 16384, 1024));
        let large = run_cublasxt(&topo, &p(Routine::Gemm, 16384, 8192));
        assert!(large.tflops > small.tflops);
    }
}
