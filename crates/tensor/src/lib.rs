//! # kaisa-tensor
//!
//! Dense tensor and matrix kernels underpinning the KAISA K-FAC optimizer
//! framework.
//!
//! The crate provides:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix with BLAS-like operations
//!   (blocked GEMM/SYRK banded over a cooperative compute team, transposes,
//!   elementwise kernels).
//! * [`Tensor4`] — an NCHW activation tensor used by convolutional layers,
//!   with the column-layout [`im2col_image`]/[`col2im_image`] lowering.
//! * [`f16`](mod@f16) — a software implementation of IEEE 754 binary16 used to
//!   emulate half-precision *storage and communication* of Kronecker factors
//!   (Section 3.3 of the KAISA paper) on hardware without native fp16.
//! * [`packed_len`] / [`pack_lower_scaled`] / [`unpack_lower`] — the
//!   row-packed lower triangle, the form every K-FAC factor takes from the
//!   capture's Gram kernels to the checkpoint (KAISA's triangular factor
//!   communication, Section 4.3). The square form is rebuilt only for tests
//!   and oracles.
//! * [`Precision`] — storage-precision selection with byte accounting, the
//!   knob KAISA uses to trade accuracy for memory/bandwidth.
//! * [`Rng`] — a deterministic xoshiro256++ generator so every experiment in
//!   the reproduction is bit-reproducible across runs and rank counts.
//!
//! The crate carries no external BLAS dependency: determinism and
//! algorithmic fidelity come first. `unsafe` is confined to the `simd`
//! module (the `std::arch` AVX-512F and AVX2 GEMM microkernels and the
//! binary16 quantizer, behind runtime feature detection) and the calls
//! into it, where every block carries a `SAFETY:` comment and is
//! property-tested bitwise against the safe
//! scalar reference kernels — which remain the permanent oracle, reached
//! through the `_with(GemmKernel::Naive, …)` entry points — and to one
//! lifetime-erased closure reference in the `team` module (the helper
//! threads that claim GEMM bands when a core is idle), whose contract is
//! stated and enforced there.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod f16;
mod gemm;
mod im2col;
pub mod init;
mod matrix;
pub mod ops;
mod precision;
mod rng;
#[cfg(target_arch = "x86_64")]
mod simd;
mod syrk;
mod team;
mod tensor4;
mod triangular;

pub use f16::F16;
pub use gemm::{
    gemm_nn, gemm_nn_on, gemm_nn_with, gemm_nt_blocks, gemm_nt_blocks_with, gemm_nt_on,
    gemm_nt_with, gemm_tn, gemm_tn_with, GemmKernel, Microkernel,
};
pub use im2col::{col2im, col2im_image, im2col, im2col_image, Conv2dGeom};
pub use matrix::Matrix;
pub use precision::Precision;
pub use rng::Rng;
pub use syrk::{gram_nt_lower, gram_tn_lower, syrk_nt_with, syrk_tn_with};
pub use team::inline_bands;
pub use tensor4::Tensor4;
pub use triangular::{pack_lower_scaled, packed_len, unpack_lower};

/// Convenience result alias for shape-checked tensor operations.
pub type Result<T> = std::result::Result<T, ShapeError>;

/// Error raised when operand shapes are incompatible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Human-readable description of the mismatch.
    pub message: String,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shape error: {}", self.message)
    }
}

impl std::error::Error for ShapeError {}

impl ShapeError {
    /// Create a new shape error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}
