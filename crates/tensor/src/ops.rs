//! Elementwise slice kernels shared across the framework.
//!
//! These operate on plain `&[f32]` so optimizers and collectives can work on
//! flattened parameter buffers without committing to a matrix shape.

/// `y += alpha * x` (BLAS axpy).
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Elementwise `y = x`.
pub fn copy(x: &[f32], y: &mut [f32]) {
    y.copy_from_slice(x);
}

/// Scale a buffer in place.
pub fn scale(s: f32, x: &mut [f32]) {
    for v in x.iter_mut() {
        *v *= s;
    }
}

/// Dot product in f64 accumulation.
pub fn dot(x: &[f32], y: &[f32]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| (*a as f64) * (*b as f64)).sum()
}

/// Euclidean norm with f64 accumulation.
pub fn norm2(x: &[f32]) -> f64 {
    dot(x, x).sqrt()
}

/// Sum with f64 accumulation.
pub fn sum(x: &[f32]) -> f64 {
    x.iter().map(|&v| v as f64).sum()
}

/// Elementwise maximum of absolute values.
pub fn max_abs(x: &[f32]) -> f32 {
    x.iter().fold(0.0f32, |m, v| m.max(v.abs()))
}

/// In-place ReLU.
pub fn relu(x: &mut [f32]) {
    for v in x.iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// In-place sigmoid.
pub fn sigmoid(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = 1.0 / (1.0 + (-*v).exp());
    }
}

/// Numerically-stable softmax over each row of a `rows x cols` buffer.
pub fn softmax_rows(buf: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(buf.len(), rows * cols);
    for r in 0..rows {
        let row = &mut buf[r * cols..(r + 1) * cols];
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut denom = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            denom += *v;
        }
        let inv = 1.0 / denom;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Largest argument the exponential branch of [`tanh_f32`] evaluates: from
/// `|x| ≈ 9.02` on, `2 / (exp(2|x|) + 1)` is below half an ulp of one and the
/// branch returns exactly `1.0`, so clamping at 10 changes no result and
/// keeps `exp` far from overflow (`±∞` saturates through the same path).
const TANH_CLAMP: f32 = 10.0;

/// `tanh(x)` in `f32` without libm and without a branch (Cephes `tanhf`):
/// below `|x| = 0.625` an odd degree-11 polynomial, above it
/// `1 − 2 / (exp(2|x|) + 1)` with its own range-reduced `exp`, computed on
/// `|x|` with the sign bit copied back, so the function is exactly odd and
/// `tanh(±0) = ±0`. NaN in, NaN out. Within 3e-7 of the true value.
///
/// This body **is the specification**: every operation is a separate IEEE
/// multiply, add, subtract or divide (never FMA), the two branches are
/// selected by a compare, and [`tanh_slice`] is this same body compiled a
/// second time for AVX2 — the GEMM contract (vector ≡ scalar, bit for bit)
/// applied to a transcendental.
#[inline(always)]
pub fn tanh_f32(x: f32) -> f32 {
    let sign = x.to_bits() & 0x8000_0000;
    let ax = f32::from_bits(x.to_bits() & 0x7FFF_FFFF);

    let z = ax * ax;
    let p = ((((-5.704_988_7e-3 * z + 2.063_908_8e-2) * z - 5.373_971_5e-2) * z + 1.333_144_2e-1)
        * z
        - 3.333_328e-1)
        * z
        * ax
        + ax;

    // `NaN > TANH_CLAMP` is false, so a NaN flows on through `exp`.
    let a = if ax > TANH_CLAMP { TANH_CLAMP } else { ax };
    let e = exp_reduced(a + a);
    let big = 1.0 - 2.0 / (e + 1.0);

    let r = if ax < 0.625 { p } else { big };
    f32::from_bits(r.to_bits() | sign)
}

/// `exp(y)` for `|y| ≤ 2·TANH_CLAMP` (Cephes `expf`): `y = n·ln 2 + r` with
/// `n` rounded through the 1.5·2²³ magic constant, `ln 2` split in two so
/// the reduction is exact, a degree-5 polynomial in `r`, and `2ⁿ` built in
/// the exponent field from the magic sum's low bits.
#[inline(always)]
fn exp_reduced(y: f32) -> f32 {
    const MAGIC: f32 = 12_582_912.0;
    let t = y * std::f32::consts::LOG2_E + MAGIC;
    let n = t - MAGIC;
    let r = y - n * 0.693_359_4;
    let r = r - n * -2.121_944_4e-4;
    let poly =
        (((((1.987_569_1e-4 * r + 1.398_199_9e-3) * r + 8.333_452e-3) * r + 4.166_579_6e-2) * r
            + 1.666_666_6e-1)
            * r
            + 5.0e-1)
            * (r * r)
            + r
            + 1.0;
    // The bits above `n` in the magic sum shift out; what is left is `n`
    // in the exponent field, biased by adding 1.0's bit pattern.
    poly * f32::from_bits((t.to_bits() << 23).wrapping_add(0x3F80_0000))
}

/// [`tanh_f32`] over a slice, in place: the AVX2 compilation of the scalar
/// body where the CPU has it, the scalar loop elsewhere — same bits either
/// way.
pub fn tanh_slice(x: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::tanh_slice_avx2(x) {
        return;
    }
    tanh_slice_scalar(x);
}

/// The portable loop behind [`tanh_slice`] (and the oracle its AVX2 twin is
/// tested against).
pub(crate) fn tanh_slice_scalar(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = tanh_f32(*v);
    }
}

/// [`mac_strided`] keeps `MAC_ROWS x MAC_COLS` elements of `C` in registers
/// across `kk`: eight independent 8-lane add chains, enough to cover the
/// add latency.
const MAC_ROWS: usize = 4;
const MAC_COLS: usize = 16;

/// `C[i, j] += Σ_kk A(i, kk) · B[kk, j]` for `(m, k, n)`-shaped operands read
/// and written in place inside larger row-major buffers, each given with
/// its strides: `A(i, kk)` is `a[i·a_rs + kk·a_cs]` (a block, or the
/// transpose of one), row `kk` of `B` starts at `b[kk·b_rs]` and row `i` of
/// `C` at `c[i·c_rs]`, both with unit column stride.
///
/// Every element takes one multiply and one add per `kk`, `kk` ascending,
/// never fused — the floating-point sequence of the GEMM kernels, so a
/// product of sub-blocks is bit for bit `Matrix::matmul` of their copies.
/// Meant for products too small to pay for packing (an attention head).
pub fn mac_strided(
    shape: (usize, usize, usize),
    a: (&[f32], usize, usize),
    b: (&[f32], usize),
    (c, c_rs): (&mut [f32], usize),
) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::mac_strided_avx2(shape, a, b, (&mut *c, c_rs)) {
        return;
    }
    mac_strided_body(shape, a, b, (c, c_rs));
}

/// The loop nest behind [`mac_strided`]; like [`tanh_f32`] it is compiled
/// once for the baseline target and once for AVX2.
#[inline(always)]
pub(crate) fn mac_strided_body(
    (m, k, n): (usize, usize, usize),
    (a, a_rs, a_cs): (&[f32], usize, usize),
    (b, b_rs): (&[f32], usize),
    (c, c_rs): (&mut [f32], usize),
) {
    let (tile_rows, tile_cols) = (m - m % MAC_ROWS, n - n % MAC_COLS);
    for i in (0..tile_rows).step_by(MAC_ROWS) {
        for j in (0..tile_cols).step_by(MAC_COLS) {
            let mut acc = [[0.0f32; MAC_COLS]; MAC_ROWS];
            for (r, acc_row) in acc.iter_mut().enumerate() {
                acc_row.copy_from_slice(&c[(i + r) * c_rs + j..][..MAC_COLS]);
            }
            for kk in 0..k {
                let b_row: &[f32; MAC_COLS] =
                    b[kk * b_rs + j..][..MAC_COLS].try_into().expect("MAC_COLS long");
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let ark = a[(i + r) * a_rs + kk * a_cs];
                    for (x, &y) in acc_row.iter_mut().zip(b_row) {
                        *x += ark * y;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                c[(i + r) * c_rs + j..][..MAC_COLS].copy_from_slice(acc_row);
            }
        }
    }
    // What the tiles leave: the columns to their right, then the rows below.
    for (rows, cols) in [(0..tile_rows, tile_cols..n), (tile_rows..m, 0..n)] {
        for i in rows {
            let c_row = &mut c[i * c_rs..][cols.clone()];
            for kk in 0..k {
                let aik = a[i * a_rs + kk * a_cs];
                for (x, &y) in c_row.iter_mut().zip(&b[kk * b_rs..][cols.clone()]) {
                    *x += aik * y;
                }
            }
        }
    }
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)
const GELU_A: f32 = 0.044715;

/// The argument GELU's tanh approximation takes the `tanh` of.
#[inline]
pub fn gelu_inner(x: f32) -> f32 {
    GELU_C * (x + GELU_A * x * x * x)
}

/// GELU from `x` and `t = tanh(gelu_inner(x))`.
#[inline]
pub fn gelu_from_tanh(x: f32, t: f32) -> f32 {
    0.5 * x * (1.0 + t)
}

/// GELU derivative from `x` and the same `t`: no transcendental left.
#[inline]
pub fn gelu_grad_from_tanh(x: f32, t: f32) -> f32 {
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * GELU_A * x * x)
}

/// GELU activation (tanh approximation, as used by BERT).
pub fn gelu_scalar(x: f32) -> f32 {
    gelu_from_tanh(x, tanh_f32(gelu_inner(x)))
}

/// Derivative of the tanh-approximated GELU.
pub fn gelu_grad_scalar(x: f32) -> f32 {
    gelu_grad_from_tanh(x, tanh_f32(gelu_inner(x)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_known() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let mut buf = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_rows(&mut buf, 2, 3);
        for r in 0..2 {
            let s: f32 = buf[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Largest logit gets the largest probability.
        assert!(buf[2] > buf[1] && buf[1] > buf[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut a = vec![1000.0, 1001.0, 1002.0];
        softmax_rows(&mut a, 1, 3);
        let mut b = vec![0.0, 1.0, 2.0];
        softmax_rows(&mut b, 1, 3);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
            assert!(x.is_finite());
        }
    }

    #[test]
    fn tanh_is_within_3e7_of_the_true_value() {
        // Every 2^-16 on [-12, 12], plus the branch point's neighbourhood
        // bit by bit.
        let dense = (-(12 << 16)..=(12 << 16)).map(|i| i as f32 / 65536.0);
        let seam = (0.625f32.to_bits() - 4096..=0.625f32.to_bits() + 4096).map(f32::from_bits);
        let mut worst = 0.0f64;
        for x in dense.chain(seam) {
            let err = (tanh_f32(x) as f64 - (x as f64).tanh()).abs();
            worst = worst.max(err);
        }
        assert!(worst <= 3e-7, "max abs error {worst:e}");
    }

    #[test]
    fn tanh_is_odd_signed_at_zero_and_nan_preserving() {
        let mut rng = crate::Rng::seed_from_u64(41);
        for _ in 0..100_000 {
            let x = rng.normal() * 4.0;
            assert_eq!(tanh_f32(-x).to_bits(), tanh_f32(x).to_bits() ^ 0x8000_0000, "x={x}");
        }
        assert_eq!(tanh_f32(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh_f32(-0.0).to_bits(), (-0.0f32).to_bits());
        // Subnormal and tiny arguments come back unchanged (tanh x = x there).
        for x in [f32::from_bits(1), f32::MIN_POSITIVE, 1e-20] {
            assert_eq!(tanh_f32(x).to_bits(), x.to_bits());
        }
        assert!(tanh_f32(f32::NAN).is_nan());
        assert!(tanh_f32(-f32::NAN).is_nan());
    }

    #[test]
    fn tanh_saturates_to_exactly_one_from_the_clamp_on() {
        for x in [TANH_CLAMP, TANH_CLAMP + 1e-3, 12.0, 88.0, 1e30, f32::MAX, f32::INFINITY] {
            assert_eq!(tanh_f32(x), 1.0, "x={x}");
            assert_eq!(tanh_f32(-x), -1.0, "x=-{x}");
        }
        // Below it the result is the correctly rounded neighbour of one, not
        // a premature 1.0: tanh(9) = 1 - 3.05e-8 rounds to 1 - 2^-24.
        assert_eq!(tanh_f32(9.0), 1.0 - f32::EPSILON / 2.0);
        // Monotone into saturation.
        let mut prev = tanh_f32(8.0);
        for i in 0..=2048 {
            let t = tanh_f32(8.0 + i as f32 / 1024.0);
            assert!(t >= prev && t <= 1.0);
            prev = t;
        }
    }

    /// Inputs for the scalar-vs-vector comparison: random values across the
    /// polynomial branch, the exponential branch and saturation, then every
    /// special value, at a length that leaves a ragged tail after 8 lanes.
    #[cfg(target_arch = "x86_64")]
    fn tanh_probe_inputs() -> Vec<f32> {
        let mut rng = crate::Rng::seed_from_u64(42);
        let mut xs: Vec<f32> =
            (0..4099).map(|i| rng.normal() * [0.3, 2.0, 8.0, 40.0][i % 4]).collect();
        xs.extend([0.0, -0.0, 0.625, -0.625, f32::from_bits(0.625f32.to_bits() - 1)]);
        xs.extend([TANH_CLAMP, -TANH_CLAMP, 9.0, f32::MAX, f32::MIN, f32::MIN_POSITIVE]);
        xs.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN, f32::from_bits(1)]);
        xs.extend([f32::from_bits(0x7F80_0001), f32::from_bits(0xFFC1_2345)]);
        xs
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn tanh_avx2_slice_is_the_scalar_body_bit_for_bit() {
        let xs = tanh_probe_inputs();
        let mut scalar = xs.clone();
        tanh_slice_scalar(&mut scalar);
        for (s, &x) in scalar.iter().zip(&xs) {
            assert_eq!(s.to_bits(), tanh_f32(x).to_bits());
        }
        let mut vector = xs.clone();
        if !crate::simd::tanh_slice_avx2(&mut vector) {
            return; // the scalar loop is the only path on this machine
        }
        for ((v, s), x) in vector.iter().zip(&scalar).zip(&xs) {
            assert_eq!(v.to_bits(), s.to_bits(), "x={x:e} ({:#010x})", x.to_bits());
        }
        // The dispatching entry point, at every tail length.
        for len in 0..=17 {
            let mut d = xs[..len].to_vec();
            tanh_slice(&mut d);
            assert!(d.iter().zip(&scalar).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn mac_strided_matches_gemm_of_copied_blocks_bitwise() {
        // Blocks cut out of larger buffers at an offset, as `A·B` and as
        // `Aᵀ·B`, over shapes with whole 4x16 tiles, leftover rows, ragged
        // columns and none of either — against the naive GEMM oracle on
        // copies, and the baseline compilation against the dispatched one.
        use crate::{gemm_nn_with, gemm_tn_with, GemmKernel, Rng};
        let copy = |buf: &[f32], rs: usize, rows: usize, cols: usize| -> Vec<f32> {
            (0..rows).flat_map(|r| buf[r * rs..][..cols].to_vec()).collect()
        };
        let mut rng = Rng::seed_from_u64(43);
        for (m, k, n) in [(1, 1, 1), (4, 3, 16), (5, 7, 17), (9, 16, 32), (32, 32, 16), (3, 5, 40)]
        {
            let (a_rs, b_rs, c_rs) = (m.max(k) + 3, n + 5, n + 2);
            let mut random = |len: usize| (0..len).map(|_| rng.normal()).collect::<Vec<f32>>();
            let (a, b, c0) = (random(m.max(k) * a_rs), random(k * b_rs), random(m * c_rs));
            for transposed in [false, true] {
                let mut want = copy(&c0, c_rs, m, n);
                let a_strides = if transposed {
                    gemm_tn_with(
                        GemmKernel::Naive,
                        m,
                        k,
                        n,
                        &copy(&a, a_rs, k, m),
                        &copy(&b, b_rs, k, n),
                        &mut want,
                    );
                    (1, a_rs)
                } else {
                    gemm_nn_with(
                        GemmKernel::Naive,
                        m,
                        k,
                        n,
                        &copy(&a, a_rs, m, k),
                        &copy(&b, b_rs, k, n),
                        &mut want,
                    );
                    (a_rs, 1)
                };
                let a_op = (&a[..], a_strides.0, a_strides.1);
                let (mut c, mut c_base) = (c0.clone(), c0.clone());
                mac_strided((m, k, n), a_op, (&b, b_rs), (&mut c, c_rs));
                mac_strided_body((m, k, n), a_op, (&b, b_rs), (&mut c_base, c_rs));
                for (i, (got, base)) in c.iter().zip(&c_base).enumerate() {
                    let (r, col) = (i / c_rs, i % c_rs);
                    // Outside the block, `c` keeps what it held.
                    let expect = if col < n { want[r * n + col] } else { c0[i] };
                    assert_eq!(got.to_bits(), expect.to_bits(), "{m}x{k}x{n} t={transposed} [{i}]");
                    assert_eq!(got.to_bits(), base.to_bits());
                }
            }
        }
    }

    #[test]
    fn gelu_matches_reference_points() {
        // Reference values from the tanh-approximation formula.
        assert!((gelu_scalar(0.0) - 0.0).abs() < 1e-7);
        assert!((gelu_scalar(1.0) - 0.841192).abs() < 1e-4);
        assert!((gelu_scalar(-1.0) - (-0.158808)).abs() < 1e-4);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let h = 1e-3;
            let fd = (gelu_scalar(x + h) - gelu_scalar(x - h)) / (2.0 * h);
            let an = gelu_grad_scalar(x);
            assert!((fd - an).abs() < 1e-3, "x={x} fd={fd} an={an}");
        }
    }

    #[test]
    fn norms_known() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-9);
        assert_eq!(max_abs(&[-7.0, 3.0]), 7.0);
    }
}
