//! Symmetric eigendecomposition: Householder tridiagonalization (`tred2`)
//! followed by implicit-shift QL iteration (`tql2`).
//!
//! This is the EISPACK algorithm pair, computed in `f64`. For the factor
//! sizes K-FAC produces (tens to a few thousand), it is robust and its
//! O(n³) cost matches the complexity model KAISA's greedy work distribution
//! assumes (Section 3.2 of the paper).
//!
//! # Access pattern
//!
//! EISPACK's loops are written for column-major Fortran; transcribed onto a
//! row-major array their three O(n³) inner loops stride by `n` (at `n = 512`
//! every access of such a loop lands in one cache set). Here every O(n³)
//! inner loop is unit-stride instead:
//!
//! * the Householder step forms `p = A·u` in one pass over the rows of the
//!   lower triangle — row `r` first finishes its own dot product `p[r]`,
//!   then is added (`axpy`) into `p[0..r)` — rather than walking column `j`
//!   below the diagonal for every `j`;
//! * the back-accumulation of `Q` forms the whole projection `g = uᵀQ` by
//!   row axpys and applies one rank-1 update row by row, rather than a
//!   strided dot and a strided update per column;
//! * `tql2` runs on the transposed accumulator (one in-place square
//!   transpose after `tred2`), so a Givens rotation updates two contiguous
//!   rows and vectorises; the sorted `f32` eigenvector matrix is written
//!   straight from that layout.
//!
//! # Bitwise contract
//!
//! Only the order in which *independent* elements are visited changed. Every
//! output element is produced by the same `f64` operations in the same order
//! as in the one-to-one transcription kept as
//! [`crate::sym_eig_reference`] — no FMA, no reassociation, the same stable
//! ascending sort — so the two agree bit for bit on every finite input
//! (`tests/properties.rs::sym_eig_bitwise_matches_reference`), and every
//! equivalence matrix built on top of `sym_eig` is unaffected.

use kaisa_tensor::Matrix;

/// Result of a symmetric eigendecomposition `M = Q diag(values) Qᵀ`.
#[derive(Debug, Clone)]
pub struct SymEig {
    /// Eigenvalues in ascending order.
    pub values: Vec<f32>,
    /// Orthonormal eigenvectors as *columns*: `vectors.get(i, j)` is
    /// component `i` of the eigenvector for `values[j]`.
    pub vectors: Matrix,
}

/// Why a symmetric eigendecomposition failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EigenError {
    /// The input holds a NaN or an infinity in its lower triangle (the part
    /// the solver reads), first found at `(row, col)`. Reported before any
    /// O(n³) work: QL iteration on such a matrix can only burn its sweep
    /// budget.
    NonFinite {
        /// Row of the first non-finite entry.
        row: usize,
        /// Column of the first non-finite entry (`col <= row`).
        col: usize,
    },
    /// QL iteration used up its 64 sweeps on eigenvalue `index`.
    NoConvergence {
        /// Index of the eigenvalue that failed to converge.
        index: usize,
    },
}

impl std::fmt::Display for EigenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFinite { row, col } => {
                write!(f, "non-finite entry at ({row}, {col}) of the matrix to decompose")
            }
            Self::NoConvergence { index } => {
                write!(f, "QL iteration failed to converge for eigenvalue {index}")
            }
        }
    }
}

impl std::error::Error for EigenError {}

/// Reusable `f64` workspace for [`sym_eig_with_scratch`].
///
/// Every buffer is overwritten before it is read on every solve, so reusing
/// one workspace across a sequence of solves — `Kfac` holds one for all its
/// factor decompositions — is bitwise identical to fresh allocations, and
/// solves no larger than the largest so far never touch the allocator.
#[derive(Debug, Default)]
pub struct EigScratch {
    /// The one `n x n` buffer: the widened input, then `tred2`'s `Q`, then
    /// (transposed in place) `tql2`'s eigenvectors as rows.
    z: Vec<f64>,
    /// Diagonal of the tridiagonal form, then the eigenvalues.
    d: Vec<f64>,
    /// `p = A·u` of the current Householder step, then the sub-diagonal.
    e: Vec<f64>,
    /// The projection `uᵀQ` of the current back-accumulation step.
    g: Vec<f64>,
}

impl EigScratch {
    /// Create an empty workspace; buffers grow to the largest `n` solved.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Compute the eigendecomposition of a symmetric matrix.
///
/// Only the lower triangle of `m` is referenced (the matrix is assumed
/// symmetric; K-FAC factors are symmetric by construction). Eigenvalues are
/// returned in ascending order with matching eigenvector columns.
///
/// # Panics
/// If `m` is not square.
pub fn sym_eig(m: &Matrix) -> Result<SymEig, EigenError> {
    sym_eig_with_scratch(m, &mut EigScratch::new())
}

/// [`sym_eig`] against a caller-held workspace (see [`EigScratch`]).
///
/// # Panics
/// If `m` is not square.
pub fn sym_eig_with_scratch(m: &Matrix, scratch: &mut EigScratch) -> Result<SymEig, EigenError> {
    assert!(m.is_square(), "sym_eig requires a square matrix");
    let n = m.rows();
    if n == 0 {
        return Ok(SymEig { values: vec![], vectors: Matrix::zeros(0, 0) });
    }

    // Work in f64. The upper triangle is widened along with the lower but
    // never read: tred2 writes every upper entry before its first use.
    let EigScratch { z, d, e, g } = scratch;
    z.clear();
    z.reserve(n * n);
    for (row, src) in m.as_slice().chunks_exact(n).enumerate() {
        if let Some(col) = src[..=row].iter().position(|v| !v.is_finite()) {
            return Err(EigenError::NonFinite { row, col });
        }
        z.extend(src.iter().map(|&v| v as f64));
    }
    for buf in [&mut *d, &mut *e, &mut *g] {
        buf.clear();
        buf.resize(n, 0.0);
    }

    tred2(n, z, d, e, g);
    transpose_in_place(n, z);
    tql2(n, d, e, z)?;

    // Sort ascending; eigenvector `old` is row `old` of `z`.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).unwrap_or(std::cmp::Ordering::Equal));

    let values: Vec<f32> = order.iter().map(|&i| d[i] as f32).collect();
    let mut vectors = Matrix::zeros(n, n);
    let out = vectors.as_mut_slice();
    // A band of output rows at a time: each source cache line (8 f64 of one
    // eigenvector) is consumed whole while the band's rows fill left to right.
    for row0 in (0..n).step_by(TILE) {
        let rows = TILE.min(n - row0);
        for (new_col, &old) in order.iter().enumerate() {
            let src = &z[old * n + row0..old * n + row0 + rows];
            for (dr, &v) in src.iter().enumerate() {
                out[(row0 + dr) * n + new_col] = v as f32;
            }
        }
    }
    Ok(SymEig { values, vectors })
}

impl SymEig {
    /// Reconstruct `Q diag(values) Qᵀ` (mainly for testing/validation).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.values.len();
        let mut scaled = self.vectors.clone(); // columns scaled by eigenvalue
        for r in 0..n {
            for c in 0..n {
                scaled.set(r, c, scaled.get(r, c) * self.values[c]);
            }
        }
        scaled.matmul_nt(&self.vectors)
    }

    /// The condition number `|λ_max| / |λ_min|` (infinite if singular).
    pub fn condition_number(&self) -> f32 {
        let max = self.values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let min = self.values.iter().fold(f32::INFINITY, |m, v| m.min(v.abs()));
        if min == 0.0 {
            f32::INFINITY
        } else {
            max / min
        }
    }
}

/// `sqrt(a² + b²)` without destructive overflow.
pub(crate) fn pythag(a: f64, b: f64) -> f64 {
    let (absa, absb) = (a.abs(), b.abs());
    if absa > absb {
        absa * (1.0 + (absb / absa).powi(2)).sqrt()
    } else if absb == 0.0 {
        0.0
    } else {
        absb * (1.0 + (absa / absb).powi(2)).sqrt()
    }
}

/// Edge of the square tiles the transpose and the output scatter work in:
/// 8 `f64` are one cache line.
const TILE: usize = 8;

/// Transpose the row-major `n x n` matrix `a` in place, tile by tile so
/// both sides of every swap stay within a few cache lines.
fn transpose_in_place(n: usize, a: &mut [f64]) {
    for r0 in (0..n).step_by(TILE) {
        for c0 in (r0..n).step_by(TILE) {
            for r in r0..(r0 + TILE).min(n) {
                for c in c0.max(r + 1)..(c0 + TILE).min(n) {
                    a.swap(r * n + c, c * n + r);
                }
            }
        }
    }
}

/// Householder reduction of a real symmetric matrix (row-major in `a`, lower
/// triangle read) to tridiagonal form. On output `a` holds the orthogonal
/// transform `Q`, `d` the diagonal, and `e` the sub-diagonal (with
/// `e[0] = 0`); `proj` is workspace.
fn tred2(n: usize, a: &mut [f64], d: &mut [f64], e: &mut [f64], proj: &mut [f64]) {
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0f64;
        // `lower` = rows 0..i; `u` = row i left of the diagonal, which
        // becomes the Householder vector.
        let (lower, rest) = a.split_at_mut(i * n);
        let u = &mut rest[..i];
        if l > 0 {
            let mut scale = 0.0f64;
            for v in u.iter() {
                scale += v.abs();
            }
            if scale == 0.0 {
                e[i] = u[l];
            } else {
                for v in u.iter_mut() {
                    *v /= scale;
                    h += *v * *v;
                }
                let f = u[l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                u[l] = f - g;
                // e[0..=l] = A·u. Element j sums A[j][k]·u[k] over ascending
                // k: k <= j comes from row j itself, k > j from the rows
                // below it (A[k][j] by symmetry), reached in that order.
                for r in 0..=l {
                    let row = &mut lower[r * n..(r + 1) * n];
                    row[i] = u[r] / h;
                    let mut dot = 0.0f64;
                    for (x, y) in row[..=r].iter().zip(u.iter()) {
                        dot += x * y;
                    }
                    e[r] = dot;
                    let ur = u[r];
                    for (p, x) in e[..r].iter_mut().zip(row.iter()) {
                        *p += x * ur;
                    }
                }
                let mut f = 0.0f64;
                for (p, x) in e[..=l].iter_mut().zip(u.iter()) {
                    *p /= h;
                    f += *p * x;
                }
                let hh = f / (h + h);
                for j in 0..=l {
                    let f = u[j];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    let row = &mut lower[j * n..j * n + j + 1];
                    for ((x, p), y) in row.iter_mut().zip(e.iter()).zip(u.iter()) {
                        *x -= f * p + g * y;
                    }
                }
            }
        } else {
            e[i] = u[l];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    for i in 0..n {
        let (lower, rest) = a.split_at_mut(i * n);
        let u = &mut rest[..=i];
        if d[i] != 0.0 {
            // g = uᵀQ over the leading i x i block (ascending-k row axpys),
            // then Q -= w gᵀ with w = column i, one row at a time.
            let g = &mut proj[..i];
            g.fill(0.0);
            for (row, &uk) in lower.chunks_exact(n).zip(u.iter()) {
                for (gj, x) in g.iter_mut().zip(row.iter()) {
                    *gj += uk * x;
                }
            }
            for row in lower.chunks_exact_mut(n) {
                let w = row[i];
                for (x, gj) in row.iter_mut().zip(g.iter()) {
                    *x -= gj * w;
                }
            }
        }
        d[i] = u[i];
        u[i] = 1.0;
        u[..i].fill(0.0);
        for row in lower.chunks_exact_mut(n) {
            row[i] = 0.0;
        }
    }
}

/// QL iteration with implicit shifts on a tridiagonal matrix, accumulating
/// the eigenvectors into the rows of `z` (which must hold the *transposed*
/// `tred2` transform).
fn tql2(n: usize, d: &mut [f64], e: &mut [f64], z: &mut [f64]) -> Result<(), EigenError> {
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Find a small off-diagonal element to split at.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 64 {
                return Err(EigenError::NoConvergence { index: l });
            }
            // Implicit shift from the 2x2 block at l.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = pythag(g, 1.0);
            let sign_r = if g >= 0.0 { r.abs() } else { -r.abs() };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = pythag(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow: deflate and restart this l.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into eigenvector rows i and i+1.
                let (head, tail) = z.split_at_mut((i + 1) * n);
                for (x, y) in head[i * n..].iter_mut().zip(tail[..n].iter_mut()) {
                    let f = *y;
                    *y = s * *x + c * f;
                    *x = c * *x - s * f;
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaisa_tensor::Rng;

    fn random_symmetric(n: usize, rng: &mut Rng) -> Matrix {
        let a = Matrix::randn(n, n, 1.0, rng);
        let mut s = a.matmul_tn(&a); // aᵀa: symmetric PSD
        s.scale(1.0 / n as f32);
        s
    }

    fn assert_orthonormal(q: &Matrix, tol: f32) {
        let qtq = q.matmul_tn(q);
        let n = q.cols();
        let diff = qtq.max_abs_diff(&Matrix::identity(n));
        assert!(diff < tol, "QᵀQ deviates from I by {diff}");
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let mut m = Matrix::zeros(3, 3);
        m.set(0, 0, 3.0);
        m.set(1, 1, 1.0);
        m.set(2, 2, 2.0);
        let eig = sym_eig(&m).unwrap();
        assert_eq!(eig.values, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn known_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let m = Matrix::from_vec(2, 2, vec![2., 1., 1., 2.]);
        let eig = sym_eig(&m).unwrap();
        assert!((eig.values[0] - 1.0).abs() < 1e-5);
        assert!((eig.values[1] - 3.0).abs() < 1e-5);
        assert_orthonormal(&eig.vectors, 1e-5);
    }

    #[test]
    fn known_3x3_tridiagonal() {
        // Tridiagonal [[2,-1,0],[-1,2,-1],[0,-1,2]]: eigenvalues 2 - sqrt(2),
        // 2, 2 + sqrt(2).
        let m = Matrix::from_vec(3, 3, vec![2., -1., 0., -1., 2., -1., 0., -1., 2.]);
        let eig = sym_eig(&m).unwrap();
        let s2 = 2.0f32.sqrt();
        assert!((eig.values[0] - (2.0 - s2)).abs() < 1e-5);
        assert!((eig.values[1] - 2.0).abs() < 1e-5);
        assert!((eig.values[2] - (2.0 + s2)).abs() < 1e-5);
    }

    #[test]
    fn reconstruction_random_sizes() {
        let mut rng = Rng::seed_from_u64(21);
        for &n in &[1usize, 2, 3, 5, 8, 16, 33, 64] {
            let m = random_symmetric(n, &mut rng);
            let eig = sym_eig(&m).unwrap();
            let rec = eig.reconstruct();
            let err = rec.max_abs_diff(&m);
            let scale = m.max_abs().max(1.0);
            assert!(err < 1e-4 * scale, "n={n}: reconstruction error {err}");
            assert_orthonormal(&eig.vectors, 1e-4);
        }
    }

    #[test]
    fn eigenvalues_ascending() {
        let mut rng = Rng::seed_from_u64(22);
        let m = random_symmetric(20, &mut rng);
        let eig = sym_eig(&m).unwrap();
        for w in eig.values.windows(2) {
            assert!(w[0] <= w[1] + 1e-6);
        }
    }

    #[test]
    fn psd_factor_has_nonnegative_eigenvalues() {
        let mut rng = Rng::seed_from_u64(23);
        let m = random_symmetric(24, &mut rng);
        let eig = sym_eig(&m).unwrap();
        for &v in &eig.values {
            assert!(v > -1e-4, "PSD matrix produced eigenvalue {v}");
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let mut rng = Rng::seed_from_u64(24);
        let m = random_symmetric(17, &mut rng);
        let eig = sym_eig(&m).unwrap();
        let tr = m.trace();
        let ev_sum: f32 = eig.values.iter().sum();
        assert!((tr - ev_sum).abs() < 1e-3 * tr.abs().max(1.0), "tr={tr} sum={ev_sum}");
    }

    #[test]
    fn rank_deficient_matrix() {
        // Outer product vvᵀ has rank 1: one eigenvalue |v|², rest 0.
        let v = [1.0f32, 2.0, 3.0, 4.0];
        let m = Matrix::outer(&v, &v);
        let eig = sym_eig(&m).unwrap();
        assert!((eig.values[3] - 30.0).abs() < 1e-4);
        for &val in &eig.values[..3] {
            assert!(val.abs() < 1e-4);
        }
    }

    #[test]
    fn identity_eigenvectors() {
        let eig = sym_eig(&Matrix::identity(6)).unwrap();
        for &v in &eig.values {
            assert!((v - 1.0).abs() < 1e-6);
        }
        assert_orthonormal(&eig.vectors, 1e-6);
    }

    #[test]
    fn negative_eigenvalues_handled() {
        // [[0, 1], [1, 0]]: eigenvalues -1 and 1.
        let m = Matrix::from_vec(2, 2, vec![0., 1., 1., 0.]);
        let eig = sym_eig(&m).unwrap();
        assert!((eig.values[0] + 1.0).abs() < 1e-6);
        assert!((eig.values[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_and_single() {
        let e0 = sym_eig(&Matrix::zeros(0, 0)).unwrap();
        assert!(e0.values.is_empty());
        let m = Matrix::from_vec(1, 1, vec![5.0]);
        let e1 = sym_eig(&m).unwrap();
        assert_eq!(e1.values, vec![5.0]);
        assert_eq!(e1.vectors.get(0, 0).abs(), 1.0);
    }

    #[test]
    fn transpose_in_place_handles_ragged_tiles() {
        for n in [1usize, 7, 8, 9, 17, 24] {
            let original: Vec<f64> = (0..n * n).map(|k| k as f64).collect();
            let mut a = original.clone();
            transpose_in_place(n, &mut a);
            for r in 0..n {
                for c in 0..n {
                    assert_eq!(a[r * n + c], original[c * n + r], "n={n} ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn tql2_underflow_restart_matches_reference() {
        // No f32 input reaches `tql2`'s `r == 0.0` deflate-and-restart
        // branch, so drive the f64 iteration directly: tridiagonals
        // (`d`, `e` with `e[0]` unused) down where `s * e[i]` underflows to
        // zero. The first three take the branch; the last sits at ~1e-160,
        // where products fall into the subnormals without reaching it.
        let cases: [(&[f64], &[f64]); 4] = [
            (
                &[0.0, -8.89973029360737e-306, 0.0, 0.0, -4.674747095202934e-297, 0.0],
                &[
                    0.0,
                    -2.170947359949198e-308,
                    -5.228173290164158e-295,
                    -9.293062339513755e-299,
                    -1.86479671005197e-309,
                    1.250928518928265e-293,
                ],
            ),
            (
                &[8.869165e-318, 0.0, 0.0, -0.0, -0.0],
                &[0.0, 4.1045763e-317, -0.0, 5.5028384e-317, -1.5e-323],
            ),
            (
                &[0.0, 0.0, 2.5e-323, 6.961e-320, 0.0],
                &[0.0, -7e-323, 6.844432937e-314, 3.398485e-317, -1.2494564e-317],
            ),
            (&[3e-160, -1e-161, 0.0, 2e-160], &[0.0, 1e-160, -4e-161, 2.5e-160]),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (d0, e0) in cases {
            let n = d0.len();
            let identity: Vec<f64> =
                (0..n * n).map(|k| if k / n == k % n { 1.0 } else { 0.0 }).collect();
            let (mut d, mut e, mut z) = (d0.to_vec(), e0.to_vec(), identity.clone());
            let (mut dr, mut er, mut zr) = (d0.to_vec(), e0.to_vec(), identity);
            tql2(n, &mut d, &mut e, &mut z).unwrap();
            crate::reference::tql2(n, &mut dr, &mut er, &mut zr).unwrap();
            transpose_in_place(n, &mut zr);
            assert_eq!(bits(&d), bits(&dr), "eigenvalues, d0={d0:?}");
            assert_eq!(bits(&z), bits(&zr), "eigenvector rows, d0={d0:?}");
        }
    }

    #[test]
    fn ill_conditioned_but_damped_is_stable() {
        // Mimics the K-FAC damping path: a nearly-singular factor plus γI
        // must produce strictly positive eigenvalues ≥ γ.
        let v = [1.0f32, 1.0, 1.0];
        let mut m = Matrix::outer(&v, &v);
        m.add_diag(0.003);
        let eig = sym_eig(&m).unwrap();
        for &val in &eig.values {
            assert!(val >= 0.0029, "damped eigenvalue {val} below γ");
        }
    }
}
