//! # xkblas-core — the asynchronous tiled BLAS-3 library
//!
//! The reproduction of XKBlas itself (paper §III): LAPACK-layout host
//! matrices, tiled algorithms for the six level-3 routines of the paper's
//! evaluation (GEMM, SYMM, SYRK, SYR2K, TRMM, TRSM) with the full
//! `side/uplo/trans/diag` parameter space, and the asynchronous API —
//! `*_async` calls compose into one task graph,
//! [`Context::memory_coherent_async`] brings results back to the host, and
//! a `run_*` call executes everything:
//!
//! * [`Context::run_numeric`] — real multicore execution (values),
//! * [`Context::run_simulated`] — the DGX-1 model (timing + traces).
//!
//! ```
//! use xkblas_core::{Context, Matrix, Trans};
//! use xk_runtime::RuntimeConfig;
//!
//! let mut ctx = Context::<f64>::new(xk_topo::dgx1(), RuntimeConfig::xkblas(), 64);
//! let a = Matrix::random(128, 128, 1);
//! let b = Matrix::random(128, 128, 2);
//! let c = Matrix::zeros(128, 128);
//! xkblas_core::gemm_async(&mut ctx, Trans::No, Trans::No, 1.0, &a, &b, 0.0, &c);
//! ctx.memory_coherent_async(&c);
//! ctx.run_numeric(0); // really computes C = A*B on host threads
//! assert!(c.at(0, 0).is_finite());
//! ```

#![warn(missing_docs)]

pub mod algorithms;
mod ctx;
mod matrix;

pub use algorithms::{gemm_async, symm_async, syr2k_async, syrk_async, trmm_async, trsm_async};
pub use ctx::Context;
pub use matrix::Matrix;

// Re-export the parameter enums so users need only this crate.
pub use xk_kernels::{Diag, Routine, Side, Trans, Uplo};
