//! Row-major dense `f32` matrices.

use crate::f16::quantize_slice_f16;
use crate::gemm;
use crate::{Precision, Rng, ShapeError};

/// A dense row-major matrix of `f32`.
///
/// This is the workhorse type of the whole framework: layer weights,
/// gradients, Kronecker factors, and eigendecompositions are all `Matrix`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Rows [`Matrix::gram_tn`] hands the Gram kernels per call (one-shot at
/// 4096 × 288 reads 7.6–10 ms on the 2-core VM, in blocks of 1024 6.2–7.2),
/// and the `k` extent the column-layout products (`syrk_nt_with`,
/// `gemm_nt_blocks_with`) pack per call from short blocks.
pub(crate) const GRAM_BLOCK_ROWS: usize = 1024;

impl Matrix {
    /// Create a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Create a matrix from a row-major data vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Create a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Matrix with i.i.d. standard normal entries scaled by `std`.
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut Rng) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for v in m.data.iter_mut() {
            *v = rng.normal() * std;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Read element `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Write element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = value;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// The underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying row-major data, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the underlying data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Set every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Return the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        // Blocked transpose for cache friendliness.
        const B: usize = 32;
        for rb in (0..self.rows).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                for r in rb..(rb + B).min(self.rows) {
                    for c in cb..(cb + B).min(self.cols) {
                        t.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        t
    }

    /// `self @ other` (no transposition).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.try_matmul(other).expect("matmul shape mismatch")
    }

    /// Shape-checked `self @ other`.
    pub fn try_matmul(&self, other: &Matrix) -> crate::Result<Matrix> {
        if self.cols != other.rows {
            return Err(ShapeError::new(format!(
                "matmul: ({}, {}) @ ({}, {})",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        gemm::gemm_nn(self.rows, self.cols, other.cols, &self.data, &other.data, &mut out.data);
        Ok(out)
    }

    /// `out = self @ other` into a caller-held matrix of the product's
    /// shape, overwriting it — bitwise what [`Matrix::matmul`] returns,
    /// without the allocation.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul_into: inner dimensions differ");
        out.prepare_product(self.rows, other.cols);
        gemm::gemm_nn(self.rows, self.cols, other.cols, &self.data, &other.data, &mut out.data);
    }

    /// `selfᵀ @ other` without materializing the transpose.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn: ({}, {})ᵀ @ ({}, {})",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        gemm::gemm_tn(self.cols, self.rows, other.cols, &self.data, &other.data, &mut out.data);
        out
    }

    /// `out = selfᵀ @ other` into a caller-held matrix (see
    /// [`Matrix::matmul_into`]).
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_tn_into: inner dimensions differ");
        out.prepare_product(self.cols, other.cols);
        gemm::gemm_tn(self.cols, self.rows, other.cols, &self.data, &other.data, &mut out.data);
    }

    /// Check that `self` can receive a `rows x cols` product and zero it
    /// (the GEMM kernels accumulate into `C`).
    fn prepare_product(&mut self, rows: usize, cols: usize) {
        assert_eq!(self.shape(), (rows, cols), "product output has the wrong shape");
        self.fill_zero();
    }

    /// `selfᵀ @ self` — the K-FAC factor-statistic Gram product.
    ///
    /// Runs the symmetric rank-k kernel ([`crate::syrk_tn_with`] on
    /// `GemmKernel::Auto`): only the lower triangle is computed, then
    /// mirrored once, bitwise identical to `self.matmul_tn(self)`, which
    /// stays its oracle.
    ///
    /// A tall matrix (a conv layer's patch rows) is accumulated
    /// 1024 rows (`GRAM_BLOCK_ROWS`) at a time: the kernels pack panels of the
    /// full row extent, which stop fitting the cache long before a patch
    /// matrix ends, and since they accumulate into the live output in
    /// ascending row order the blocks sum to the one-shot product bit for
    /// bit.
    pub fn gram_tn(&self) -> Matrix {
        let n = self.cols;
        let mut out = Matrix::zeros(n, n);
        crate::syrk_tn_with(crate::GemmKernel::Auto, n, self.rows, &self.data, &mut out.data);
        out
    }

    /// `self @ otherᵀ` without materializing the transpose.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt: ({}, {}) @ ({}, {})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        gemm::gemm_nt(self.rows, self.cols, other.rows, &self.data, &other.data, &mut out.data);
        out
    }

    /// `out = self @ otherᵀ` into a caller-held matrix (see
    /// [`Matrix::matmul_into`]).
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_nt_into: inner dimensions differ");
        out.prepare_product(self.rows, other.rows);
        gemm::gemm_nt(self.rows, self.cols, other.rows, &self.data, &other.data, &mut out.data);
    }

    /// Elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// `self = alpha * other + beta * self` (BLAS-style axpby).
    pub fn axpby(&mut self, alpha: f32, other: &Matrix, beta: f32) {
        assert_eq!(self.shape(), other.shape(), "axpby shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = alpha * *b + beta * *a;
        }
    }

    /// Scale every element by `s`.
    pub fn scale(&mut self, s: f32) {
        self.data.iter_mut().for_each(|v| *v *= s);
    }

    /// Return a scaled copy.
    pub fn scaled(&self, s: f32) -> Matrix {
        let mut m = self.clone();
        m.scale(s);
        m
    }

    /// Elementwise (Hadamard) product, in place.
    pub fn hadamard_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a *= *b;
        }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Return a copy with `f` applied elementwise.
    pub fn map(&self, f: impl FnMut(f32) -> f32) -> Matrix {
        let mut m = self.clone();
        m.map_inplace(f);
        m
    }

    /// Add `value` to every diagonal element (Tikhonov damping `A + γI`).
    pub fn add_diag(&mut self, value: f32) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self.data[i * self.cols + i] += value;
        }
    }

    /// Symmetrize in place: `self = (self + selfᵀ) / 2`. Requires square.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        let n = self.rows;
        for r in 0..n {
            for c in (r + 1)..n {
                let avg = 0.5 * (self.data[r * n + c] + self.data[c * n + r]);
                self.data[r * n + c] = avg;
                self.data[c * n + r] = avg;
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Trace (sum of diagonal), defined for any shape as min-dim diagonal.
    pub fn trace(&self) -> f32 {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.data[i * self.cols + i]).sum()
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f32 {
        self.data.iter().map(|v| (*v as f64) * (*v as f64)).sum::<f64>().sqrt() as f32
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Dot product treating both matrices as flat vectors.
    pub fn dot(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "dot shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (*a as f64) * (*b as f64)).sum::<f64>()
            as f32
    }

    /// Outer product `col_vec @ row_vecᵀ` of two vectors.
    pub fn outer(col_vec: &[f32], row_vec: &[f32]) -> Matrix {
        let mut m = Matrix::zeros(col_vec.len(), row_vec.len());
        for (r, &a) in col_vec.iter().enumerate() {
            let row = m.row_mut(r);
            for (c, &b) in row_vec.iter().enumerate() {
                row[c] = a * b;
            }
        }
        m
    }

    /// Quantize the stored values to the given precision (round-trip through
    /// the narrower format). `Fp32` is a no-op.
    pub fn quantize(&mut self, precision: Precision) {
        if precision == Precision::Fp16 {
            quantize_slice_f16(&mut self.data);
        }
    }

    /// Maximum absolute difference from `other`.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data.iter().zip(&other.data).fold(0.0f32, |m, (a, b)| m.max((a - b).abs()))
    }

    /// True if all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Extract a contiguous block of rows `[start, end)` as a new matrix.
    pub fn rows_slice(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows);
        Matrix::from_vec(
            end - start,
            self.cols,
            self.data[start * self.cols..end * self.cols].to_vec(),
        )
    }

    /// Append a constant column (used to fold biases into K-FAC `A` factors:
    /// the activation is augmented with a trailing 1).
    pub fn append_ones_column(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols + 1);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols] = 1.0;
        }
        out
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_show = 8;
        for r in 0..self.rows.min(max_show) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(max_show) {
                write!(f, "{:>10.4} ", self.get(r, c))?;
            }
            if self.cols > max_show {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > max_show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape() && a.max_abs_diff(b) <= tol
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = Rng::seed_from_u64(3);
        let a = Matrix::randn(5, 7, 1.0, &mut rng);
        let i5 = Matrix::identity(5);
        let i7 = Matrix::identity(7);
        assert!(approx_eq(&i5.matmul(&a), &a, 1e-6));
        assert!(approx_eq(&a.matmul(&i7), &a, 1e-6));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = Rng::seed_from_u64(4);
        let a = Matrix::randn(13, 7, 1.0, &mut rng);
        let b = Matrix::randn(13, 9, 1.0, &mut rng);
        let fast = a.matmul_tn(&b);
        let slow = a.transpose().matmul(&b);
        assert!(approx_eq(&fast, &slow, 1e-4));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = Rng::seed_from_u64(5);
        let a = Matrix::randn(6, 11, 1.0, &mut rng);
        let b = Matrix::randn(8, 11, 1.0, &mut rng);
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        assert!(approx_eq(&fast, &slow, 1e-4));
    }

    #[test]
    fn into_variants_overwrite_and_match_allocating_ones_bitwise() {
        let mut rng = Rng::seed_from_u64(9);
        let a = Matrix::randn(23, 17, 1.0, &mut rng);
        let b = Matrix::randn(17, 31, 1.0, &mut rng);
        let bt = b.transpose();
        let at = a.transpose();
        // Stale contents must not leak into the product.
        let mut out = Matrix::full(23, 31, f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        out = Matrix::full(23, 31, 7.0);
        at.matmul_tn_into(&b, &mut out);
        assert_eq!(out, at.matmul_tn(&b));
        out = Matrix::full(23, 31, -1.0);
        a.matmul_nt_into(&bt, &mut out);
        assert_eq!(out, a.matmul_nt(&bt));
    }

    #[test]
    fn gram_tn_in_row_blocks_is_the_one_shot_product_bitwise() {
        // Two full blocks and a ragged third, against `matmul_tn` of the
        // whole matrix (which never blocks).
        let mut rng = Rng::seed_from_u64(77);
        for rows in [1, GRAM_BLOCK_ROWS, 2 * GRAM_BLOCK_ROWS + 37] {
            let a = Matrix::randn(rows, 5, 1.0, &mut rng);
            let (gram, want) = (a.gram_tn(), a.matmul_tn(&a));
            for (g, w) in gram.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(g.to_bits(), w.to_bits(), "rows={rows}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "wrong shape")]
    fn into_variants_reject_a_misshapen_output() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        a.matmul_into(&b, &mut Matrix::zeros(2, 3));
    }

    #[test]
    fn matmul_large_parallel_matches_serial_reference() {
        // Exceeds the parallel kernel threshold; verify against naive.
        let mut rng = Rng::seed_from_u64(6);
        let a = Matrix::randn(150, 90, 0.5, &mut rng);
        let b = Matrix::randn(90, 120, 0.5, &mut rng);
        let c = a.matmul(&b);
        // Naive reference.
        let mut expect = Matrix::zeros(150, 120);
        for i in 0..150 {
            for k in 0..90 {
                let aik = a.get(i, k);
                for j in 0..120 {
                    expect.set(i, j, expect.get(i, j) + aik * b.get(k, j));
                }
            }
        }
        assert!(approx_eq(&c, &expect, 1e-3));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::seed_from_u64(7);
        let a = Matrix::randn(41, 67, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn try_matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(a.try_matmul(&b).is_err());
    }

    #[test]
    fn add_diag_is_tikhonov() {
        let mut a = Matrix::zeros(3, 3);
        a.add_diag(0.5);
        assert!(approx_eq(&a, &Matrix::identity(3).scaled(0.5), 0.0));
    }

    #[test]
    fn symmetrize_produces_symmetric() {
        let mut rng = Rng::seed_from_u64(8);
        let mut a = Matrix::randn(10, 10, 1.0, &mut rng);
        a.symmetrize();
        assert!(approx_eq(&a, &a.transpose(), 1e-7));
    }

    #[test]
    fn outer_product_shape_and_values() {
        let m = Matrix::outer(&[1., 2.], &[3., 4., 5.]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.as_slice(), &[3., 4., 5., 6., 8., 10.]);
    }

    #[test]
    fn append_ones_column_works() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = a.append_ones_column();
        assert_eq!(b.as_slice(), &[1., 2., 1., 3., 4., 1.]);
    }

    #[test]
    fn quantize_fp16_reduces_precision() {
        let mut a = Matrix::from_vec(1, 2, vec![1.0 + 1e-4, 1000.25]);
        a.quantize(Precision::Fp16);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), 1000.0);
    }

    #[test]
    fn frob_norm_known() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((a.frob_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn rows_slice_splits_at_a_row() {
        let v = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(v.rows_slice(0, 2), Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        assert_eq!(v.rows_slice(2, 3), Matrix::from_vec(1, 2, vec![5., 6.]));
    }
}
