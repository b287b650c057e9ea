//! Symmetric triangular packing.
//!
//! The Kronecker factors are symmetric, so KAISA's triangular factor
//! communication (paper Section 4.3) sends only one triangle —
//! `n(n+1)/2` elements instead of `n²`. Here it is the **lower** triangle,
//! packed row by row (`(0,0), (1,0), (1,1), (2,0), …`): the capture
//! computes only the lower triangle of each Gram, so packing reads it in
//! contiguous row runs, and folding the averaged payload back into a
//! running factor writes those same runs before one tiled
//! [`mirror_lower`] rebuilds the upper half. Every step is elementwise and
//! the factors are exactly symmetric, so the triangle carries the square
//! payload bit for bit.

use kaisa_tensor::{mirror_lower, Matrix};

/// Number of packed elements for an `n x n` symmetric matrix.
pub const fn packed_len(n: usize) -> usize {
    n * (n + 1) / 2
}

/// Row-pack the lower triangle of the row-major `n x n` matrix `src` into
/// `out`, multiplying each element by `s` on the way (one IEEE multiply,
/// exactly [`Matrix::scale`]'s; `s = 1.0` copies).
///
/// # Panics
/// If `src` is not `n x n` or `out` is not [`packed_len`]`(n)` long.
pub fn pack_lower_scaled(src: &[f32], n: usize, s: f32, out: &mut [f32]) {
    assert_eq!(src.len(), n * n, "pack_lower_scaled: source is not {n} x {n}");
    assert_eq!(out.len(), packed_len(n), "pack_lower_scaled: packed length mismatch");
    let mut at = 0;
    for (i, row) in src.chunks_exact(n.max(1)).enumerate() {
        for (o, &v) in out[at..at + i + 1].iter_mut().zip(&row[..=i]) {
            *o = v * s;
        }
        at += i + 1;
    }
}

/// Fold a row-packed lower triangle into the square running average `dst`:
/// `dst[i][j] ← alpha·packed + beta·dst[i][j]` for every `j ≤ i` — the
/// exact expression of [`Matrix::axpby`] — then mirror the lower triangle
/// into the upper. On a symmetric `dst` this is bitwise
/// `dst.axpby(alpha, &square, beta)` of the square matrix `packed` came
/// from.
///
/// # Panics
/// If `dst` is not square or `packed` is not [`packed_len`] of its side.
pub fn fold_packed_lower(dst: &mut Matrix, packed: &[f32], alpha: f32, beta: f32) {
    let n = dst.rows();
    assert!(dst.is_square(), "fold_packed_lower requires a square matrix");
    assert_eq!(packed.len(), packed_len(n), "fold_packed_lower: packed length mismatch");
    let mut at = 0;
    for i in 0..n {
        for (d, &p) in dst.row_mut(i)[..=i].iter_mut().zip(&packed[at..at + i + 1]) {
            *d = alpha * p + beta * *d;
        }
        at += i + 1;
    }
    mirror_lower(n, dst.as_mut_slice());
}

/// Rebuild the symmetric `n x n` matrix a row-packed lower triangle came
/// from, bit for bit.
///
/// # Panics
/// If `packed.len() != packed_len(n)`.
pub fn unpack_lower(packed: &[f32], n: usize) -> Matrix {
    assert_eq!(packed.len(), packed_len(n), "packed length mismatch for n={n}");
    let mut m = Matrix::zeros(n, n);
    let mut at = 0;
    for i in 0..n {
        m.row_mut(i)[..=i].copy_from_slice(&packed[at..at + i + 1]);
        at += i + 1;
    }
    mirror_lower(n, m.as_mut_slice());
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use kaisa_tensor::Rng;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn packed_len_formula() {
        assert_eq!(packed_len(0), 0);
        assert_eq!(packed_len(1), 1);
        assert_eq!(packed_len(4), 10);
        assert_eq!(packed_len(100), 5050);
    }

    #[test]
    fn roundtrip_symmetric() {
        let mut rng = Rng::seed_from_u64(51);
        for &n in &[0usize, 1, 2, 7, 32, 33, 70] {
            let a = Matrix::randn(n.max(1), n, 1.0, &mut rng);
            let s = a.gram_tn();
            let mut packed = vec![f32::NAN; packed_len(n)];
            pack_lower_scaled(s.as_slice(), n, 1.0, &mut packed);
            assert_eq!(bits(unpack_lower(&packed, n).as_slice()), bits(s.as_slice()), "n={n}");
        }
    }

    #[test]
    fn packing_reads_only_the_lower_triangle_in_row_order() {
        let m = Matrix::from_fn(3, 3, |r, c| if c > r { f32::NAN } else { (10 * r + c) as f32 });
        let mut packed = [0.0f32; 6];
        pack_lower_scaled(m.as_slice(), 3, 0.5, &mut packed);
        assert_eq!(packed, [0.0, 5.0, 5.5, 10.0, 10.5, 11.0]);
    }

    #[test]
    fn fold_is_the_square_axpby_bitwise() {
        // Scale-while-packing then fold, against the square recipe:
        // `scale` the fresh matrix, then `axpby` it into the running one.
        let mut rng = Rng::seed_from_u64(52);
        for &n in &[1usize, 5, 31, 32, 33, 65] {
            let fresh = Matrix::randn(n + 3, n, 1.0, &mut rng).gram_tn();
            let mut running = Matrix::randn(2 * n, n, 1.0, &mut rng).gram_tn();
            let mut square_running = running.clone();
            let (s, alpha, beta) = (1.0 / 3.0, 0.05, 0.95);

            let mut packed = vec![0.0; packed_len(n)];
            pack_lower_scaled(fresh.as_slice(), n, s, &mut packed);
            fold_packed_lower(&mut running, &packed, alpha, beta);

            let mut scaled = fresh.clone();
            scaled.scale(s);
            square_running.axpby(alpha, &scaled, beta);
            assert_eq!(bits(running.as_slice()), bits(square_running.as_slice()), "n={n}");
        }
    }

    #[test]
    fn volume_saving_is_roughly_half() {
        let n = 1000;
        let full = n * n;
        let packed = packed_len(n);
        let ratio = packed as f64 / full as f64;
        assert!(ratio < 0.51 && ratio > 0.49);
    }
}
