//! Property-based tests for the tensor kernels: algebraic identities that
//! must hold for arbitrary shapes and values.

use kaisa_tensor::{
    f16, gemm_nn_with, gemm_nt_blocks_with, gemm_nt_with, gemm_tn_with, syrk_nt_with, syrk_tn_with,
    GemmKernel, Matrix, Rng, F16,
};
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    (-1e4f32..1e4).prop_filter("finite", |v| v.is_finite())
}

/// Every f32 bit pattern — NaNs (all payloads), ±Inf, subnormals, -0.0 —
/// so the SIMD quantizer is exercised on exactly the inputs where hardware
/// conversions diverge from the software reference.
fn any_bits_f32() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..len).map(|_| rng.next_f32() - 0.5).collect()
}

fn matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim, any::<u64>()).prop_map(|(r, c, seed)| {
        let mut rng = Rng::seed_from_u64(seed);
        Matrix::randn(r, c, 1.0, &mut rng)
    })
}

proptest! {
    #[test]
    fn f16_roundtrip_is_idempotent(x in finite_f32()) {
        // Quantizing twice equals quantizing once: f16 values are fixed
        // points of the rounding.
        let once = f16::quantize_f16(x);
        let twice = f16::quantize_f16(once);
        prop_assert_eq!(once.to_bits(), twice.to_bits());
    }

    #[test]
    fn f16_rounding_is_monotone(a in finite_f32(), b in finite_f32()) {
        // x <= y implies q(x) <= q(y): required so quantized factors stay
        // positive semidefinite-ish (no order inversions on the diagonal).
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(f16::quantize_f16(lo) <= f16::quantize_f16(hi));
    }

    #[test]
    fn f16_relative_error_bounded(x in 1e-3f32..6e4) {
        let q = f16::quantize_f16(x);
        let rel = ((q - x) / x).abs();
        prop_assert!(rel <= 2f32.powi(-11) + 1e-9, "x={} q={} rel={}", x, q, rel);
    }

    #[test]
    fn f16_sign_symmetry(x in finite_f32()) {
        prop_assert_eq!(
            F16::from_f32(-x).to_f32().to_bits(),
            (-F16::from_f32(x).to_f32()).to_bits()
        );
    }

    #[test]
    fn transpose_involution(m in matrix(12)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_transpose_identity(seed in any::<u64>(), n in 1usize..10, k in 1usize..10, p in 1usize..10) {
        // (AB)ᵀ = Bᵀ Aᵀ
        let mut rng = Rng::seed_from_u64(seed);
        let a = Matrix::randn(n, k, 1.0, &mut rng);
        let b = Matrix::randn(k, p, 1.0, &mut rng);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn matmul_tn_nt_consistency(seed in any::<u64>(), n in 1usize..10, k in 1usize..10, p in 1usize..10) {
        let mut rng = Rng::seed_from_u64(seed);
        let a = Matrix::randn(k, n, 1.0, &mut rng);
        let b = Matrix::randn(k, p, 1.0, &mut rng);
        // Aᵀ B via the fused kernel equals the explicit transpose product.
        prop_assert!(a.matmul_tn(&b).max_abs_diff(&a.transpose().matmul(&b)) < 1e-3);
        let c = Matrix::randn(n, k, 1.0, &mut rng);
        let d = Matrix::randn(p, k, 1.0, &mut rng);
        prop_assert!(c.matmul_nt(&d).max_abs_diff(&c.matmul(&d.transpose())) < 1e-3);
    }

    #[test]
    fn gram_matrix_is_symmetric_psd(m in matrix(10)) {
        // aᵀa (the K-FAC A factor construction) is symmetric with
        // nonnegative diagonal and nonnegative quadratic forms.
        let gram = m.matmul_tn(&m);
        prop_assert!(gram.max_abs_diff(&gram.transpose()) < 1e-4);
        for i in 0..gram.rows() {
            prop_assert!(gram.get(i, i) >= -1e-5);
        }
        // Quadratic form with an arbitrary vector.
        let mut rng = Rng::seed_from_u64(7);
        let v = Matrix::randn(gram.rows(), 1, 1.0, &mut rng);
        let q = v.matmul_tn(&gram.matmul(&v)).get(0, 0);
        prop_assert!(q >= -1e-2, "quadratic form {}", q);
    }

    #[test]
    fn symmetrize_is_projection(m in matrix(10)) {
        if m.is_square() {
            let mut s = m.clone();
            s.symmetrize();
            let mut s2 = s.clone();
            s2.symmetrize();
            prop_assert!(s.max_abs_diff(&s2) < 1e-7, "symmetrize must be idempotent");
            prop_assert!(s.max_abs_diff(&s.transpose()) < 1e-7);
        }
    }

    #[test]
    fn rng_streams_reproducible(seed in any::<u64>()) {
        let mut a = Rng::seed_from_u64(seed);
        let mut b = Rng::seed_from_u64(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn blocked_gemm_bitwise_matches_naive(
        m in 1usize..70,
        k in 1usize..70,
        n in 1usize..70,
        seed in any::<u64>(),
        c0 in finite_f32(),
    ) {
        // The blocked SIMD path must be *bitwise* identical to the naive
        // scalar oracle for every layout, shape, and initial-C value: same
        // multiply/add count, same order, no FMA contraction.
        let a = fill(m * k, seed);
        let b = fill(k * n, seed ^ 0x9e3779b97f4a7c15);
        for (run, len_a, len_b) in [(0u8, m * k, k * n), (1, k * m, k * n), (2, m * k, n * k)] {
            let a = &a[..len_a.min(a.len())];
            let b = &b[..len_b.min(b.len())];
            // tn stores A as k x m and nt stores B as n x k: same element
            // counts, so the buffers above cover all three layouts.
            let mut c_blocked = vec![c0; m * n];
            let mut c_naive = c_blocked.clone();
            match run {
                0 => {
                    gemm_nn_with(GemmKernel::Blocked, m, k, n, a, b, &mut c_blocked);
                    gemm_nn_with(GemmKernel::Naive, m, k, n, a, b, &mut c_naive);
                }
                1 => {
                    gemm_tn_with(GemmKernel::Blocked, m, k, n, a, b, &mut c_blocked);
                    gemm_tn_with(GemmKernel::Naive, m, k, n, a, b, &mut c_naive);
                }
                _ => {
                    gemm_nt_with(GemmKernel::Blocked, m, k, n, a, b, &mut c_blocked);
                    gemm_nt_with(GemmKernel::Naive, m, k, n, a, b, &mut c_naive);
                }
            }
            for (x, y) in c_blocked.iter().zip(&c_naive) {
                prop_assert_eq!(x.to_bits(), y.to_bits(),
                    "layout run={} shape=({},{},{})", run, m, k, n);
            }
        }
    }

    #[test]
    fn syrk_bitwise_matches_gemm_tn(
        m in 1usize..48,
        k in 1usize..80,
        seed in any::<u64>(),
        chunk in 1usize..40,
    ) {
        // The SYRK fast path (lower triangle + mirror) must be *bitwise*
        // identical to the full gemm_tn Gram product for every shape and
        // kernel — one shot AND accumulated over arbitrary row chunks in
        // input order (how `Matrix::gram_tn` walks a tall operand).
        let a = fill(k * m, seed);
        for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
            let mut c_gemm = vec![0.0f32; m * m];
            gemm_tn_with(kernel, m, k, m, &a, &a, &mut c_gemm);
            let mut c_syrk = vec![0.0f32; m * m];
            syrk_tn_with(kernel, m, k, &a, &mut c_syrk);
            for (x, y) in c_syrk.iter().zip(&c_gemm) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} one-shot ({},{})", kernel, m, k);
            }
            let mut c_chunked = vec![0.0f32; m * m];
            let mut r0 = 0;
            while r0 < k {
                let len = chunk.min(k - r0);
                syrk_tn_with(kernel, m, len, &a[r0 * m..(r0 + len) * m], &mut c_chunked);
                r0 += len;
            }
            for (x, y) in c_chunked.iter().zip(&c_gemm) {
                prop_assert_eq!(x.to_bits(), y.to_bits(),
                    "{} chunk={} ({},{})", kernel, chunk, m, k);
            }
        }
    }

    #[test]
    fn column_blocks_match_the_stacked_row_layout_bitwise(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..70,
        blocks in 1usize..4,
        seed in any::<u64>(),
        c0 in finite_f32(),
    ) {
        // A conv layer holds its operands as per-image `[dim x pixels]`
        // blocks. Accumulating `A_b·B_bᵀ` block after block (gemm_nt, and
        // gemm_nt_blocks in one call) and `Σ A_b·A_bᵀ` (syrk_nt) must equal, bit for bit, the Tn products
        // of the row layout that stacks every block's transpose — the
        // chains run over blocks, then pixels, ascending, into the live C.
        let a = fill(blocks * m * k, seed);
        let b = fill(blocks * n * k, seed ^ 0x5851f42d4c957f2d);
        let stack = |x: &[f32], d: usize| -> Vec<f32> {
            let mut t = vec![0.0f32; x.len()];
            for (bi, blk) in x.chunks_exact(d * k).enumerate() {
                for (i, row) in blk.chunks_exact(k).enumerate() {
                    for (px, &v) in row.iter().enumerate() {
                        t[(bi * k + px) * d + i] = v;
                    }
                }
            }
            t
        };
        let (at, bt) = (stack(&a, m), stack(&b, n));
        let mut expect = vec![c0; m * n];
        gemm_tn_with(GemmKernel::Naive, m, blocks * k, n, &at, &bt, &mut expect);
        let mut gram = vec![0.0f32; m * m];
        syrk_tn_with(GemmKernel::Naive, m, blocks * k, &at, &mut gram);
        for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
            let mut c = vec![c0; m * n];
            for (ab, bb) in a.chunks_exact(m * k).zip(b.chunks_exact(n * k)) {
                gemm_nt_with(kernel, m, k, n, ab, bb, &mut c);
            }
            for (x, y) in c.iter().zip(&expect) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} gemm_nt ({},{},{})x{}", kernel, m, k, n, blocks);
            }
            let mut c = vec![c0; m * n];
            gemm_nt_blocks_with(kernel, m, k, n, &a, &b, &mut c);
            for (x, y) in c.iter().zip(&expect) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} gemm_nt_blocks ({},{},{})x{}", kernel, m, k, n, blocks);
            }
            let mut g = vec![0.0f32; m * m];
            syrk_nt_with(kernel, m, k, &a, &mut g);
            for (x, y) in g.iter().zip(&gram) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} syrk_nt ({},{})x{}", kernel, m, k, blocks);
            }
        }
    }

    #[test]
    fn syrk_nan_inf_mirror_exactly(
        m in 2usize..32,
        k in 1usize..40,
        seed in any::<u64>(),
        pos_k in any::<u64>(),
        pos_j in any::<u64>(),
        special in 0usize..3,
    ) {
        // A NaN or ±Inf anywhere in A must propagate through the mirrored
        // triangle exactly as through the full GEMM: bitwise-equal output
        // (canonical specials make IEEE multiplication bitwise commutative)
        // and an exactly bit-symmetric result.
        let mut a = fill(k * m, seed);
        let kk = (pos_k % k as u64) as usize;
        let j = (pos_j % m as u64) as usize;
        a[kk * m + j] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][special];
        for kernel in [GemmKernel::Naive, GemmKernel::Blocked] {
            let mut c_gemm = vec![0.0f32; m * m];
            gemm_tn_with(kernel, m, k, m, &a, &a, &mut c_gemm);
            let mut c_syrk = vec![0.0f32; m * m];
            syrk_tn_with(kernel, m, k, &a, &mut c_syrk);
            for (x, y) in c_syrk.iter().zip(&c_gemm) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs gemm", kernel);
            }
            // The poisoned column's row and column are non-finite…
            for i in 0..m {
                prop_assert!(!c_syrk[i * m + j].is_finite(), "col {} row {}", j, i);
                prop_assert!(!c_syrk[j * m + i].is_finite(), "row {} col {}", j, i);
            }
            // …and the whole matrix is exactly symmetric at the bit level.
            for i in 0..m {
                for jj in 0..i {
                    prop_assert_eq!(
                        c_syrk[i * m + jj].to_bits(),
                        c_syrk[jj * m + i].to_bits(),
                        "{} asymmetry at ({},{})", kernel, i, jj
                    );
                }
            }
        }
    }

    #[test]
    fn f16_simd_quantize_matches_scalar(bits in prop::collection::vec(any_bits_f32(), 0..64)) {
        // The AVX2 quantizer must reproduce the software binary16
        // algorithm bit for bit on *every* input class — normals,
        // subnormals, ±Inf, and NaNs with arbitrary payloads (where
        // hardware F16C conversion would differ from the reference).
        let mut simd = bits.clone();
        let mut scalar = bits;
        f16::quantize_slice_f16(&mut simd);
        f16::quantize_slice_f16_scalar(&mut scalar);
        for (i, (a, b)) in simd.iter().zip(&scalar).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "lane {}", i);
        }
    }

    #[test]
    fn shuffle_preserves_multiset(seed in any::<u64>(), n in 1usize..50) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}
