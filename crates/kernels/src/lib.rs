//! # xk-kernels — BLAS-3 tile kernels and the GPU performance model
//!
//! Two faces of the same coin:
//!
//! * **Numerics** — real tile kernels over column-major (LAPACK-layout)
//!   views: [`gemm`], [`symm`], [`syrk`], [`syr2k`], [`trmm`], [`trsm`],
//!   plus the `la*` auxiliaries and the thread-parallel matrix fill in
//!   [`parallel`]. Every routine's bulk update runs on a BLIS-style
//!   blocked, packed, register-tiled GEMM engine (MC/KC/NC cache blocking,
//!   thread-local pack buffers, an `MR × NR` microkernel): symmetric and
//!   triangular operands are structure tags its one packer resolves, and
//!   `trmm`/`trsm` halve their triangle recursively around it. The
//!   microkernel is picked per machine by the runtime ISA
//!   dispatcher in [`simd`] (AVX-512 / AVX2 `std::arch` kernels
//!   with a portable scalar fallback, overridable via `XK_KERNEL_ISA`).
//! * **Timing** — [`GpuModel`], a calibrated V100 kernel-time model used by
//!   the simulated executors: the same tile task that *computes* on the CPU
//!   is *charged* the time cuBLAS would take on the paper's GPU.
//!
//! ```
//! use xk_kernels::{gemm, MatMut, MatRef, Trans};
//!
//! let a = [1.0f64, 3.0, 2.0, 4.0]; // [1 2; 3 4] column-major
//! let b = [1.0f64, 0.0, 0.0, 1.0];
//! let mut c = [0.0f64; 4];
//! gemm(Trans::No, Trans::No, 1.0,
//!      MatRef::from_slice(&a, 2, 2, 2),
//!      MatRef::from_slice(&b, 2, 2, 2),
//!      0.0, MatMut::from_slice(&mut c, 2, 2, 2));
//! assert_eq!(c, a);
//! ```

#![warn(missing_docs)]

pub mod aux;
mod blocked;
mod gemm;
mod helpers;
pub mod parallel;
pub mod perfmodel;
pub mod reference;
mod scalar;
pub mod simd;
mod symm;
mod syr2k;
mod syrk;
mod tri;
mod trmm;
mod trsm;
mod types;
mod view;

pub use blocked::{KC, MC, MR, NC, NR, TB};
pub use gemm::gemm;
pub use simd::{detected_isa, kernel_shape, selected_isa, Isa, KernelShape, ISA_ENV};
pub use perfmodel::{GpuModel, TileOp, PITCHED_COPY_FACTOR};
pub use scalar::Scalar;
pub use symm::symm;
pub use syr2k::syr2k;
pub use syrk::syrk;
pub use trmm::trmm;
pub use trsm::trsm;
pub use types::{Diag, Routine, Side, Trans, Uplo};
pub use view::{MatMut, MatRef};
