//! The row-packed lower triangle: the one form a K-FAC factor takes.
//!
//! The Kronecker factors are symmetric, so KAISA's triangular factor
//! communication (paper Section 4.3) sends only one triangle —
//! `n(n+1)/2` elements instead of `n²`. Here it is the **lower** triangle,
//! packed row by row (`(0,0), (1,0), (1,1), (2,0), …`). The capture's Gram
//! entries sum straight into it, the wire carries it, the running factors
//! are held in it (folding is one elementwise pass), and the eigensolver
//! reads its rows (`sym_eig_packed`). The factors are exactly symmetric,
//! so the triangle carries the square matrix bit for bit;
//! [`unpack_lower`] rebuilds the square for tests and oracles.

use crate::syrk::mirror_lower;
use crate::Matrix;

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
    use crate::Rng;

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
    fn volume_saving_is_roughly_half() {
        let n = 1000;
        let full = n * n;
        let packed = packed_len(n);
        let ratio = packed as f64 / full as f64;
        assert!(ratio < 0.51 && ratio > 0.49);
    }
}
