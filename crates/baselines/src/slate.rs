//! SLATE policy model.
//!
//! Documented behaviour (paper §II-B, §IV-D): every algorithm is organized
//! as block outer products on top of batched GEMM; accelerator traffic goes
//! exclusively host↔device over PCIe (its batched-GEMM portability layer
//! "was unable to exploit the capability of 8 GPUs to directly exchange
//! data through the high speed NVLink network"); the asymptotic kernel
//! efficiency is good, but the 4 × 16 GB/s PCIe uplinks bound everything.

use xk_kernels::perfmodel::TileOp;
use xk_kernels::{GpuModel, Routine};
use xk_sim::SimTime;
use xk_topo::{Device, FabricSpec};

use crate::fabric::Fabric;
use crate::{RunParams, RunResult};

/// Simulates one SLATE routine call on `topo`.
pub(crate) fn run_slate(topo: &FabricSpec, params: &RunParams) -> RunResult {
    let n_gpus = topo.n_gpus();
    let mut fabric = Fabric::new(topo);
    let model = GpuModel::v100();
    let b = params.tile;
    let n = params.n;
    let bt = n.div_ceil(b).max(1);
    let word = 8u64;
    let dim = |i: usize| if i + 1 == bt { n - i * b } else { b };

    // C tiles are owned round-robin by block column: GPU g holds the block
    // columns j with j % n_gpus == g, resident for the whole call.
    // Step k of the outer product: broadcast A(:,k) panel and B(k,:) panel
    // to every GPU over PCIe, then one batched GEMM per GPU updating its
    // local C tiles.
    let mut gpu_ready = vec![SimTime::ZERO; n_gpus];

    // Initial C upload (beta != 0 semantics: C is read).
    for j in 0..bt {
        let g = j % n_gpus;
        for i in 0..bt {
            let bytes = (dim(i) * dim(j)) as u64 * word;
            let res = fabric.transfer(Device::Host, Device::Gpu(g), bytes, gpu_ready[g], false, "C");
            gpu_ready[g] = res.end;
        }
    }

    let tri = matches!(params.routine, Routine::Syrk | Routine::Syr2k);
    let factor = match params.routine {
        Routine::Syr2k => 2.0,
        Routine::Trmm | Routine::Trsm => 0.5,
        _ => 1.0,
    };

    for k in 0..bt {
        // Panel broadcast: each GPU pulls the k-th panels of A and B over
        // its own PCIe path (no P2P).
        let panel_a: u64 = (0..bt).map(|i| (dim(i) * dim(k)) as u64 * word).sum();
        let panel_b: u64 = (0..bt).map(|j| (dim(k) * dim(j)) as u64 * word).sum();
        for (g, ready) in gpu_ready.iter_mut().enumerate() {
            let ra = fabric.transfer(Device::Host, Device::Gpu(g), panel_a, *ready, false, "Apanel");
            let rb = fabric.transfer(Device::Host, Device::Gpu(g), panel_b, ra.end, false, "Bpanel");
            *ready = rb.end;
        }
        // Batched GEMM per GPU over its local tiles.
        for (g, ready) in gpu_ready.iter_mut().enumerate() {
            let mut flops = 0.0;
            for j in (0..bt).filter(|j| j % n_gpus == g) {
                for i in 0..bt {
                    if tri && i < j {
                        continue;
                    }
                    flops += 2.0 * dim(i) as f64 * dim(j) as f64 * dim(k) as f64 * factor;
                }
            }
            if flops > 0.0 {
                // Batched GEMM reaches the big-tile efficiency tier.
                let eff_op = TileOp::Gemm { m: b, n: b, k: b };
                let rate = model.rate(eff_op);
                let res = fabric.kernel(g, *ready, flops / rate, "batched gemm");
                *ready = res.end;
            }
        }
        // SLATE executes the block outer product in synchronous steps:
        // every GPU finishes step k before the next panel broadcast
        // starts (no lookahead in its accelerator path).
        let latest = gpu_ready.iter().copied().fold(SimTime::ZERO, SimTime::max);
        gpu_ready.fill(latest);
    }

    // Results home.
    for j in 0..bt {
        let g = j % n_gpus;
        for i in 0..bt {
            let bytes = (dim(i) * dim(j)) as u64 * word;
            let res = fabric.transfer(Device::Gpu(g), Device::Host, bytes, gpu_ready[g], false, "C back");
            gpu_ready[g] = res.end;
        }
    }

    RunResult::from_trace(fabric.trace, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xk_topo::dgx1;

    #[test]
    fn slate_never_uses_p2p() {
        let topo = dgx1();
        let r = run_slate(
            &topo,
            &RunParams {
                routine: Routine::Gemm,
                n: 16384,
                tile: 4096,
                data_on_device: false,
            },
        );
        assert_eq!(r.bytes_p2p, 0);
        assert!(r.seconds > 0.0);
    }

    #[test]
    fn panel_broadcast_inflates_h2d() {
        // Every GPU pulls every panel: H2D ≈ n_gpus × (A + B) + 2 × C.
        let topo = dgx1();
        let n = 8192u64;
        let r = run_slate(
            &topo,
            &RunParams {
                routine: Routine::Gemm,
                n: n as usize,
                tile: 2048,
                data_on_device: false,
            },
        );
        let matrix = n * n * 8;
        assert!(r.bytes_h2d >= 8 * 2 * matrix, "h2d {}", r.bytes_h2d);
    }

    #[test]
    fn all_routines_complete() {
        let topo = dgx1();
        for routine in Routine::ALL {
            let r = run_slate(
                &topo,
                &RunParams {
                    routine,
                    n: 4096,
                    tile: 1024,
                    data_on_device: false,
                },
            );
            assert!(r.seconds > 0.0, "{routine:?}");
        }
    }
}
