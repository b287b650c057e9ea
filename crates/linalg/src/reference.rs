//! The reference eigensolver: the EISPACK `tred2`/`tql2` loops transcribed
//! one-to-one onto a row-major array, exactly as [`crate::sym_eig`] ran them
//! before its memory walk was reordered.
//!
//! This is the oracle of the bitwise contract, not a second production
//! path: nothing in the workspace calls it except the equivalence tests and
//! the `kernel_bench` eigensolve cell. Its three hot inner loops stride by
//! `n`; do not optimise it. It does no finiteness check — a NaN/Inf input
//! runs the full 64 QL sweeps before [`EigenError::NoConvergence`].

use kaisa_tensor::Matrix;

use crate::eigen::{pythag, EigenError, SymEig};

/// [`crate::sym_eig`] as the naive strided EISPACK transcription. The
/// optimised solver must return exactly these bits for every finite input.
///
/// # Panics
/// If `m` is not square.
pub fn sym_eig_reference(m: &Matrix) -> Result<SymEig, EigenError> {
    assert!(m.is_square(), "sym_eig requires a square matrix");
    let n = m.rows();
    if n == 0 {
        return Ok(SymEig { values: vec![], vectors: Matrix::zeros(0, 0) });
    }

    let mut z: Vec<f64> = m.as_slice().iter().map(|&v| v as f64).collect();
    // Force symmetry from the lower triangle.
    for r in 0..n {
        for c in (r + 1)..n {
            z[r * n + c] = z[c * n + r];
        }
    }
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n];

    tred2(n, &mut z, &mut d, &mut e);
    tql2(n, &mut d, &mut e, &mut z)?;

    // Sort ascending, permuting eigenvector columns.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].partial_cmp(&d[b]).unwrap_or(std::cmp::Ordering::Equal));

    let values: Vec<f32> = order.iter().map(|&i| d[i] as f32).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for row in 0..n {
            vectors.set(row, new_col, z[row * n + old_col] as f32);
        }
    }
    Ok(SymEig { values, vectors })
}

/// Householder reduction of a real symmetric matrix (row-major in `a`) to
/// tridiagonal form. On output `a` holds the orthogonal transform `Q`, `d`
/// the diagonal, and `e` the sub-diagonal (with `e[0] = 0`).
fn tred2(n: usize, a: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0f64;
        if l > 0 {
            let mut scale = 0.0f64;
            for k in 0..=l {
                scale += a[i * n + k].abs();
            }
            if scale == 0.0 {
                e[i] = a[i * n + l];
            } else {
                for k in 0..=l {
                    a[i * n + k] /= scale;
                    h += a[i * n + k] * a[i * n + k];
                }
                let mut f = a[i * n + l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                a[i * n + l] = f - g;
                f = 0.0;
                for j in 0..=l {
                    a[j * n + i] = a[i * n + j] / h;
                    let mut g = 0.0f64;
                    for k in 0..=j {
                        g += a[j * n + k] * a[i * n + k];
                    }
                    for k in (j + 1)..=l {
                        g += a[k * n + j] * a[i * n + k];
                    }
                    e[j] = g / h;
                    f += e[j] * a[i * n + j];
                }
                let hh = f / (h + h);
                for j in 0..=l {
                    let f = a[i * n + j];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    for k in 0..=j {
                        a[j * n + k] -= f * e[k] + g * a[i * n + k];
                    }
                }
            }
        } else {
            e[i] = a[i * n + l];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    for i in 0..n {
        if d[i] != 0.0 {
            for j in 0..i {
                let mut g = 0.0f64;
                for k in 0..i {
                    g += a[i * n + k] * a[k * n + j];
                }
                for k in 0..i {
                    a[k * n + j] -= g * a[k * n + i];
                }
            }
        }
        d[i] = a[i * n + i];
        a[i * n + i] = 1.0;
        for j in 0..i {
            a[j * n + i] = 0.0;
            a[i * n + j] = 0.0;
        }
    }
}

/// QL iteration with implicit shifts on a tridiagonal matrix, accumulating
/// the eigenvectors into `z` (which must hold the `tred2` transform).
pub(crate) fn tql2(
    n: usize,
    d: &mut [f64],
    e: &mut [f64],
    z: &mut [f64],
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
            for i in (l..m).rev() {
                let mut f = s * e[i];
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
                // Accumulate the rotation into the eigenvector columns.
                for k in 0..n {
                    f = z[k * n + i + 1];
                    z[k * n + i + 1] = s * z[k * n + i] + c * f;
                    z[k * n + i] = c * z[k * n + i] - s * f;
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
