//! Portable scalar microkernel — the fallback every target has and the
//! differential oracle the SIMD kernels are tested against.
//!
//! This kernel and its blocking constants reproduce the pre-dispatch
//! engine exactly: same 8×4 register tile, same `KC`/`MC`/`NC`, same
//! accumulation order (depth-outer, column-middle, row-inner) and the
//! same `alpha`/`beta` store expressions. `XK_KERNEL_ISA=scalar` is
//! therefore bit-for-bit identical to the engine as of PR 2 — a property
//! `tests/isa_dispatch.rs` pins.

use crate::simd::{Isa, MicroKernel};

/// The portable 8×4 kernel (autovectorized by the compiler, no
/// `std::arch`). Blocking matches the pre-dispatch engine: `KC = 256`,
/// `MC = 128`, `NC = 2048`.
pub(crate) struct ScalarMk;

impl MicroKernel for ScalarMk {
    const ISA: Isa = Isa::Scalar;
    const MR: usize = 8;
    const NR: usize = 4;
    const KC: usize = 256;
    const MC: usize = 128;
    const NC: usize = 2048;
    const NAME: &'static str = "scalar_8x4";

    #[inline]
    unsafe fn tile(
        kc: usize,
        pa: *const f64,
        pb: *const f64,
        alpha: f64,
        beta: f64,
        c: *mut f64,
        ld: usize,
        mr: usize,
        nr: usize,
    ) {
        const MR: usize = 8;
        const NR: usize = 4;
        // Full-tile accumulation over the zero-padded panels; fixed-size
        // arrays and constant trip counts keep the tile in registers and
        // let the compiler vectorize the row dimension.
        let mut acc = [0.0; MR * NR];
        for p in 0..kc {
            let a: &[f64; MR] = &*(pa.add(p * MR) as *const [f64; MR]);
            let b: &[f64; NR] = &*(pb.add(p * NR) as *const [f64; NR]);
            for (cc, &bv) in b.iter().enumerate() {
                for (r, &av) in a.iter().enumerate() {
                    acc[cc * MR + r] += av * bv;
                }
            }
        }
        // Clipped store with the exact expression forms of the original
        // `store_tile` (bit-for-bit compatibility contract).
        for cc in 0..nr {
            let dst = c.add(cc * ld);
            if beta == 0.0 {
                for r in 0..mr {
                    *dst.add(r) = alpha * acc[cc * MR + r];
                }
            } else if beta == 1.0 {
                for r in 0..mr {
                    let v = *dst.add(r);
                    *dst.add(r) = v + alpha * acc[cc * MR + r];
                }
            } else {
                for r in 0..mr {
                    let v = *dst.add(r);
                    *dst.add(r) = beta * v + alpha * acc[cc * MR + r];
                }
            }
        }
    }
}
