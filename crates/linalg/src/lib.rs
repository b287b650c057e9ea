//! # kaisa-linalg
//!
//! Dense linear algebra kernels used by the KAISA K-FAC preconditioner:
//!
//! * [`sym_eig`] / [`sym_eig_with_scratch`] / [`sym_eig_packed`] — symmetric
//!   eigendecomposition
//!   (Householder tridiagonal reduction + implicit-shift QL), the paper's
//!   replacement for matrix inversion (Section 2.1.3). Factor
//!   eigendecompositions produce real eigenvalues and orthogonal
//!   eigenvectors because the Kronecker factors `A = aᵀa` and `G = gᵀg` are
//!   symmetric positive semi-definite. Every O(n³) inner loop is unit-stride
//!   on the row-major workspace ([`EigScratch`], one `n x n` `f64` buffer
//!   plus three `n`-vectors and a sweep's rotation coefficients, reusable
//!   across solves); a NaN/Inf input is refused up front with
//!   [`EigenError::NonFinite`]. The solver body is compiled twice, as is and
//!   for AVX2, and the AVX2 compilation runs when the CPU has it; both give
//!   the same bits (the hidden `sym_eig_portable` / `sym_eig_packed_portable`
//!   keep the portable one reachable for tests and benchmarks). The solver
//!   reads only the lower triangle, so [`sym_eig_packed`] decomposes a
//!   row-packed triangle — the form the running factors are held in — to
//!   the same bits as [`sym_eig`] on the square matrix.
//! * [`sym_eig_reference`] — the same algorithm as the one-to-one EISPACK
//!   transcription with strided inner loops: the oracle [`sym_eig`] must
//!   match bit for bit, called only by tests and `kernel_bench`.
//! * [`lu_inverse`] — general matrix inverse with partial pivoting: the
//!   damped-Kronecker-inverse oracle (Eq. 15–17) the eigen-preconditioned
//!   gradient is tested against.
//!
//! All decompositions compute internally in `f64` for stability (mirroring
//! the paper's practice of casting half-precision factors to single precision
//! before eigendecomposition) and return `f32` results.
//!
//! The crate denies `unsafe` code. Its one exception is the call into the
//! AVX2 compilation of the eigensolver body, made only after
//! `is_x86_feature_detected!("avx2")`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod eigen;
mod inverse;
mod reference;

pub use eigen::{
    sym_eig, sym_eig_packed, sym_eig_packed_portable, sym_eig_portable, sym_eig_with_scratch,
    EigScratch, EigenError, SymEig,
};
pub use inverse::lu_inverse;
pub use reference::sym_eig_reference;
