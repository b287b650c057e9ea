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
//!   lower triangle, four rows at a time: the four rows' dot products run as
//!   four interleaved chains in one pass over the row prefix, then each row
//!   is added (`axpy`) into `p[0..r)` in row order — rather than walking
//!   column `j` below the diagonal for every `j`;
//! * the back-accumulation of `Q` forms the whole projection `g = uᵀQ` by
//!   row axpys and applies one rank-1 update row by row, rather than a
//!   strided dot and a strided update per column;
//! * `tql2` runs on the transposed accumulator (one in-place square
//!   transpose after `tred2`), so a Givens rotation updates contiguous rows
//!   and vectorises. A QL sweep first computes all its rotation
//!   coefficients (the `d`/`e` recurrence never reads the eigenvectors),
//!   then applies them four consecutive rotations at a time, carrying the
//!   row two neighbours share through the group: 5 row loads and stores
//!   per 4 rotations instead of 8, software-pipelined over 4-column blocks
//!   so that a column's four dependent rotations do not run back to back.
//!   The sorted `f32` eigenvector matrix is written straight from that
//!   layout.
//!
//! # One body, compiled twice
//!
//! The solver body is `#[inline(always)]` and is compiled twice: as is
//! (SSE2 on `x86_64`) and inside a `#[target_feature(enable = "avx2")]`
//! function, which [`sym_eig_with_scratch`] picks at run time when the CPU
//! has AVX2. The body has no FMA to contract and no reduction LLVM may
//! reorder, so every 4-lane operation is the scalar's own multiply or add
//! and both compilations return the same bits. The portable compilation
//! stays reachable as `sym_eig_portable` for the tests and `kernel_bench`.
//!
//! # Bitwise contract
//!
//! Only the order in which *independent* elements are visited changed. Every
//! output element is produced by the same `f64` operations in the same order
//! as in the one-to-one transcription kept as
//! [`crate::sym_eig_reference`] — no FMA, no reassociation, the same stable
//! ascending sort — so the two agree bit for bit on every finite input
//! (`tests/properties.rs::sym_eig_bitwise_matches_reference`, for both
//! compilations), and every equivalence matrix built on top of `sym_eig` is
//! unaffected.

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

/// Reusable `f64` workspace for [`sym_eig_with_scratch`]: the `n x n`
/// buffer, three `n`-vectors and the `n` rotation coefficient pairs of a QL
/// sweep.
///
/// Every buffer is overwritten before it is read on every solve, so reusing
/// one workspace across a sequence of solves — `Kfac` holds one for all its
/// factor decompositions — is bitwise identical to fresh allocations, and a
/// solve no larger than the largest so far allocates only its result and
/// the eigenvalue sort order.
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
    /// `(c, s)` of the current QL sweep's rotations, by rotation index.
    rot: Vec<(f64, f64)>,
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
    sym_eig_by(solve, m, scratch)
}

/// [`sym_eig_with_scratch`] through the portable compilation of the solver
/// body, whatever the CPU: the twin the tests and `kernel_bench` hold the
/// AVX2 compilation against. Same bits as [`sym_eig`].
#[doc(hidden)]
pub fn sym_eig_portable(m: &Matrix, scratch: &mut EigScratch) -> Result<SymEig, EigenError> {
    sym_eig_by(solve_body, m, scratch)
}

/// The solver body, compiled for AVX2 when the running CPU has it.
#[allow(unsafe_code)]
fn solve(m: &Matrix, scratch: &mut EigScratch) -> Result<(), EigenError> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        #[target_feature(enable = "avx2")]
        fn solve_avx2(m: &Matrix, scratch: &mut EigScratch) -> Result<(), EigenError> {
            solve_body(m, scratch)
        }
        // SAFETY: the running CPU supports AVX2, detected just above.
        return unsafe { solve_avx2(m, scratch) };
    }
    solve_body(m, scratch)
}

/// Run `solve` on a square non-empty `m`, then sort its result into a
/// [`SymEig`].
fn sym_eig_by(
    solve: fn(&Matrix, &mut EigScratch) -> Result<(), EigenError>,
    m: &Matrix,
    scratch: &mut EigScratch,
) -> Result<SymEig, EigenError> {
    assert!(m.is_square(), "sym_eig requires a square matrix");
    let n = m.rows();
    if n == 0 {
        return Ok(SymEig { values: vec![], vectors: Matrix::zeros(0, 0) });
    }
    solve(m, scratch)?;
    let EigScratch { z, d, .. } = scratch;

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

/// The solver body: widen `m` (square, non-empty) into `scratch`, then
/// `tred2` → transpose → `tql2`, leaving the eigenvalues in `d` and the
/// eigenvectors as the rows of `z`. `#[inline(always)]`, with everything it
/// calls, so that the AVX2 twin in [`solve`] compiles all of it under the
/// target feature.
#[inline(always)]
fn solve_body(m: &Matrix, scratch: &mut EigScratch) -> Result<(), EigenError> {
    let n = m.rows();
    // Work in f64. The upper triangle is widened along with the lower but
    // never read: tred2 writes every upper entry before its first use.
    let EigScratch { z, d, e, g, rot } = scratch;
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
    rot.resize(n, (0.0, 0.0));

    tred2(n, z, d, e, g);
    transpose_in_place(n, z);
    tql2(n, d, e, z, rot)
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
#[inline(always)]
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
#[inline(always)]
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
                    lower[r * n + i] = u[r] / h;
                }
                // The short rows one at a time, then four rows per pass.
                let singles = (l + 1) % 4;
                for r in 0..singles {
                    let row = &lower[r * n..r * n + r + 1];
                    let mut dot = 0.0f64;
                    for (x, y) in row.iter().zip(u.iter()) {
                        dot += x * y;
                    }
                    e[r] = dot;
                    axpy(&mut e[..r], row, u[r]);
                }
                for r in (singles..=l).step_by(4) {
                    householder_rows4(&lower[r * n..(r + 4) * n], n, r, u, e);
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

/// Rows `r..r + 4` of the Householder product `e = A·u` (`rows` holds them,
/// `n` apart). The four dot products with `u` over `k <= row` run as four
/// interleaved chains, each from `0.0` in ascending `k`; then each row is
/// added into `e[..row]` in row order. Per element that is exactly the
/// operations, in order, of taking the rows one at a time.
#[inline(always)]
fn householder_rows4(rows: &[f64], n: usize, r: usize, u: &[f64], e: &mut [f64]) {
    let (a0, rest) = rows.split_at(n);
    let (a1, rest) = rest.split_at(n);
    let (a2, a3) = rest.split_at(n);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let prefix = a0[..=r].iter().zip(&a1[..=r]).zip(&a2[..=r]).zip(&a3[..=r]).zip(&u[..=r]);
    for ((((x0, x1), x2), x3), y) in prefix {
        s0 += x0 * y;
        s1 += x1 * y;
        s2 += x2 * y;
        s3 += x3 * y;
    }
    let (u1, u2, u3) = (u[r + 1], u[r + 2], u[r + 3]);
    s1 += a1[r + 1] * u1;
    s2 += a2[r + 1] * u1;
    s3 += a3[r + 1] * u1;
    s2 += a2[r + 2] * u2;
    s3 += a3[r + 2] * u2;
    s3 += a3[r + 3] * u3;
    e[r..r + 4].copy_from_slice(&[s0, s1, s2, s3]);
    for (t, row) in [a0, a1, a2, a3].into_iter().enumerate() {
        axpy(&mut e[..r + t], row, u[r + t]);
    }
}

/// `p += x * a`, element by element.
#[inline(always)]
fn axpy(p: &mut [f64], x: &[f64], a: f64) {
    for (p, x) in p.iter_mut().zip(x) {
        *p += x * a;
    }
}

/// Apply a QL sweep's Givens rotations to consecutive rows of `z`, highest
/// first: `rot[t] = (c, s)` mixes rows `t` and `t + 1`, so `z` holds
/// `rot.len() + 1` rows of `n`. Four consecutive rotations at a time share
/// one pass over their five rows ([`rotate4`]); the at most three left at
/// the bottom go one by one. Every element sees the one-rotation-at-a-time
/// operations in their order.
#[inline(always)]
fn rotate_rows(n: usize, z: &mut [f64], rot: &[(f64, f64)]) {
    let mut top = rot.len();
    while top >= 4 {
        let base = top - 4;
        let group = rot[base..top].try_into().expect("four rotations");
        rotate4(n, &mut z[base * n..(top + 1) * n], group);
        top = base;
    }
    for t in (0..top).rev() {
        let (c, s) = rot[t];
        let (head, tail) = z.split_at_mut((t + 1) * n);
        for (x, y) in head[t * n..].iter_mut().zip(tail[..n].iter_mut()) {
            let f = *y;
            *y = s * *x + c * f;
            *x = c * *x - s * f;
        }
    }
}

/// Four consecutive columns of one row: one AVX2 register.
type Lanes = [f64; 4];

/// Columns `4b..4b + 4` of `row`.
#[inline(always)]
fn lanes(row: &[f64], b: usize) -> Lanes {
    let x = &row[4 * b..4 * b + 4];
    [x[0], x[1], x[2], x[3]]
}

/// Write `v` to columns `4b..4b + 4` of `row`.
#[inline(always)]
fn set_lanes(row: &mut [f64], b: usize, v: Lanes) {
    row[4 * b..4 * b + 4].copy_from_slice(&v);
}

/// Rotation `(c, s)` of block `b` of the upper row `upper` and the lower
/// row's current block `f`, as one `tql2` step does it: stores the new lower
/// row, `s·x + c·f`, into `lower` and returns the new upper row,
/// `c·x − s·f`.
#[inline(always)]
fn rotate_block(c: f64, s: f64, upper: &[f64], lower: &mut [f64], b: usize, f: Lanes) -> Lanes {
    let x = lanes(upper, b);
    let (mut below, mut above) = ([0.0; 4], [0.0; 4]);
    for j in 0..4 {
        below[j] = s * x[j] + c * f[j];
        above[j] = c * x[j] - s * f[j];
    }
    set_lanes(lower, b, below);
    above
}

/// Rotations `rot[3]`, `rot[2]`, `rot[1]`, `rot[0]`, in that order, of the
/// five rows in `z` (`rot[r]` mixes rows `r` and `r + 1`).
///
/// A column's four rotations form a dependency chain, so running them back
/// to back per column leaves the core waiting on latency. The pass is
/// software-pipelined over 4-column blocks instead: at step `t` rotation `r`
/// works on block `t + r - 3`, so a step's four rotations are independent,
/// and the row each one hands to the next — its new upper row, the next
/// one's lower row — waits in a register for one step. Each row is loaded and
/// stored once for all four rotations. Columns past the last whole block
/// (all of them when there are fewer than three blocks) take the chain one
/// column at a time.
#[inline(always)]
fn rotate4(n: usize, z: &mut [f64], rot: [(f64, f64); 4]) {
    let (z0, rest) = z.split_at_mut(n);
    let (z1, rest) = rest.split_at_mut(n);
    let (z2, rest) = rest.split_at_mut(n);
    let (z3, z4) = rest.split_at_mut(n);
    let [(c0, s0), (c1, s1), (c2, s2), (c3, s3)] = rot;
    let blocks = if n >= 12 { n / 4 } else { 0 };
    if blocks > 0 {
        // Fill the pipeline: steps 0, 1 and 2.
        let mut f3 = rotate_block(c3, s3, z3, z4, 0, lanes(z4, 0));
        let mut f2 = rotate_block(c2, s2, z2, z3, 0, f3);
        f3 = rotate_block(c3, s3, z3, z4, 1, lanes(z4, 1));
        let mut f1 = rotate_block(c1, s1, z1, z2, 0, f2);
        f2 = rotate_block(c2, s2, z2, z3, 1, f3);
        f3 = rotate_block(c3, s3, z3, z4, 2, lanes(z4, 2));
        for t in 3..blocks {
            let x = rotate_block(c0, s0, z0, z1, t - 3, f1);
            set_lanes(z0, t - 3, x);
            f1 = rotate_block(c1, s1, z1, z2, t - 2, f2);
            f2 = rotate_block(c2, s2, z2, z3, t - 1, f3);
            f3 = rotate_block(c3, s3, z3, z4, t, lanes(z4, t));
        }
        // Drain it: steps `blocks`, `blocks + 1` and `blocks + 2`.
        let b = blocks;
        let x = rotate_block(c0, s0, z0, z1, b - 3, f1);
        set_lanes(z0, b - 3, x);
        f1 = rotate_block(c1, s1, z1, z2, b - 2, f2);
        f2 = rotate_block(c2, s2, z2, z3, b - 1, f3);
        let x = rotate_block(c0, s0, z0, z1, b - 2, f1);
        set_lanes(z0, b - 2, x);
        f1 = rotate_block(c1, s1, z1, z2, b - 1, f2);
        let x = rotate_block(c0, s0, z0, z1, b - 1, f1);
        set_lanes(z0, b - 1, x);
    }
    for k in 4 * blocks..n {
        let f = z4[k];
        z4[k] = s3 * z3[k] + c3 * f;
        let f = c3 * z3[k] - s3 * f;
        z3[k] = s2 * z2[k] + c2 * f;
        let f = c2 * z2[k] - s2 * f;
        z2[k] = s1 * z1[k] + c1 * f;
        let f = c1 * z1[k] - s1 * f;
        z1[k] = s0 * z0[k] + c0 * f;
        z0[k] = c0 * z0[k] - s0 * f;
    }
}

/// QL iteration with implicit shifts on a tridiagonal matrix, accumulating
/// the eigenvectors into the rows of `z` (which must hold the *transposed*
/// `tred2` transform). `rot` (at least `n` long) holds a sweep's rotation
/// coefficients between their computation and their application.
#[inline(always)]
fn tql2(
    n: usize,
    d: &mut [f64],
    e: &mut [f64],
    z: &mut [f64],
    rot: &mut [(f64, f64)],
) -> Result<(), EigenError> {
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
            // Rotations `first..m` of this sweep have been computed.
            let mut first = m;
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
                rot[i] = (c, s);
                first = i;
            }
            // Accumulate the computed rotations into eigenvector rows
            // `first..=m` — after an underflow break, only those before it.
            rotate_rows(n, &mut z[first * n..(m + 1) * n], &rot[first..m]);
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
        // zero. All but the last take the branch. The first breaks after
        // four computed rotations, a whole group; the last two but one break
        // mid-group after 11 of 12 and 5 of 9, at `n >= 12`, where the groups
        // run the blocked pipeline of `rotate4`. The last sits at ~1e-160,
        // where products fall into the subnormals without reaching it.
        let cases: [(&[f64], &[f64]); 6] = [
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
            (
                &[
                    1.1059620610173095e-304,
                    0.0,
                    0.0,
                    0.0,
                    9.348915056913e-311,
                    3.407527023858834e-309,
                    0.0,
                    0.0,
                    0.0,
                    0.0,
                    0.0,
                    -4.692843814258524e-305,
                    0.0,
                    -1.4927446139496458e-306,
                    -1.5165408953080878e-301,
                    8.747209356869908e-303,
                ],
                &[
                    0.0,
                    8.896214591955e-311,
                    0.0,
                    0.0,
                    -2.5451485566504893e-306,
                    6.005505475600283e-302,
                    -3.597294027248167e-303,
                    2.0193792901573032e-303,
                    -3.6867428864694e-311,
                    -8.272954073677483e-307,
                    3.559681040893325e-306,
                    7.13159833562224e-307,
                    -2.818207658013522e-308,
                    -3.962558624672064e-304,
                    -4.3749448271806165e-304,
                    -4.155147812510587e-304,
                ],
            ),
            (
                &[
                    2.850423e-318,
                    2.6719e-319,
                    -6.21e-321,
                    5.252438e-317,
                    0.0,
                    0.0,
                    0.0,
                    0.0,
                    -1.964e-320,
                    1.511928449944e-312,
                    2.0107e-319,
                    0.0,
                    1.294506e-318,
                    1.528372482396e-311,
                    5.31701813e-316,
                ],
                &[
                    0.0,
                    7.8741723837e-314,
                    0.0,
                    6.11293e-319,
                    3.997e-321,
                    -5.47493354e-315,
                    -2.477e-320,
                    3.91814393e-316,
                    4.742711735504e-312,
                    8.26878e-318,
                    -2.3706322105525e-310,
                    -2.90150593e-315,
                    0.0,
                    -6.03786504e-316,
                    0.0,
                ],
            ),
            (&[3e-160, -1e-161, 0.0, 2e-160], &[0.0, 1e-160, -4e-161, 2.5e-160]),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (d0, e0) in cases {
            let n = d0.len();
            // A dense start (as `tred2` leaves it), so every lane of every
            // rotated block carries its own value; `tql2` takes it transposed.
            let zr0: Vec<f64> =
                (0..n * n).map(|k| ((k * 7919) % 101) as f64 / 101.0 - 0.5).collect();
            let mut z = zr0.clone();
            transpose_in_place(n, &mut z);
            let (mut d, mut e) = (d0.to_vec(), e0.to_vec());
            let (mut dr, mut er, mut zr) = (d0.to_vec(), e0.to_vec(), zr0);
            tql2(n, &mut d, &mut e, &mut z, &mut vec![(0.0, 0.0); n]).unwrap();
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
