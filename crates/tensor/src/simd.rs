//! `std::arch` AVX2 kernels: the 6×16 GEMM microkernel, the 8×8 register
//! transpose that packs row-major operands into its panels, the 8-lane
//! binary16 quantizer and the AVX2 compilation of `ops::tanh_f32`. Every
//! `unsafe` block in the workspace lives in this module.
//!
//! Two contracts govern everything here:
//!
//! 1. **Bitwise equivalence with the scalar reference.** The microkernel
//!    issues a separate `vmulps`/`vaddps` per update — never FMA — because
//!    `a*b + c` fused in one rounding would diverge from the naive kernels'
//!    two-rounding sequence. IEEE 754 operations are lanewise deterministic,
//!    so an 8-lane vector multiply-then-add produces exactly the scalar
//!    result in every lane, and the blocked GEMM stays bit-identical to the
//!    naive loops it is property-tested against. Likewise the f16 quantizer
//!    mirrors [`crate::f16::F16::from_f32`] operation for operation (same
//!    rounding, same non-standard quiet-NaN payload) instead of using F16C
//!    hardware conversions, which quiet signaling NaNs differently.
//! 2. **Runtime dispatch.** Callers gate on [`avx2_available`]; every
//!    `#[target_feature]` function here is only reachable behind that check.
//!
//! The module is compiled only on `x86_64`; other targets take the portable
//! paths in `gemm.rs`/`f16.rs`.

use std::arch::x86_64::*;
use std::sync::OnceLock;

use crate::gemm::{MR, NR};

/// True when the running CPU supports AVX2 (detected once per process).
#[inline]
pub(crate) fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// AVX2 6×16 register-tiled microkernel: `acc[r][j] += A[r,kk] * B[kk,j]`
/// for `kk` ascending, with `acc` a contiguous `MR x NR` tile.
///
/// `ap` is a packed A panel (`k` groups of `MR` column values), `bp` a packed
/// B panel (`k` rows of `NR` values). The accumulator tile carries whatever
/// the caller staged (C values or zeros); each element receives exactly one
/// `mul` + `add` per `kk`, in ascending `kk` order — the same floating-point
/// sequence as the scalar microkernel and the naive reference loops.
///
/// # Safety-by-construction
/// Callers must only invoke this behind an [`avx2_available`] check (enforced
/// with an `unsafe` block at the single call site); slice bounds are asserted
/// here so the raw-pointer loads below cannot go out of bounds.
#[target_feature(enable = "avx2")]
pub(crate) fn microkernel_6x16_avx2(k: usize, ap: &[f32], bp: &[f32], acc: &mut [f32; MR * NR]) {
    assert!(ap.len() >= k * MR, "packed A panel too short");
    assert!(bp.len() >= k * NR, "packed B panel too short");
    let pa = ap.as_ptr();
    let pb = bp.as_ptr();
    let pc = acc.as_mut_ptr();
    // SAFETY: `acc` is exactly MR*NR = 96 contiguous f32s, so offsets
    // r*NR and r*NR+8 for r < 6 leave 8 in-bounds lanes; `pa`/`pb` offsets
    // stay below the lengths asserted above. Unaligned load/store
    // intrinsics have no alignment requirement.
    unsafe {
        let mut c00 = _mm256_loadu_ps(pc);
        let mut c01 = _mm256_loadu_ps(pc.add(8));
        let mut c10 = _mm256_loadu_ps(pc.add(NR));
        let mut c11 = _mm256_loadu_ps(pc.add(NR + 8));
        let mut c20 = _mm256_loadu_ps(pc.add(2 * NR));
        let mut c21 = _mm256_loadu_ps(pc.add(2 * NR + 8));
        let mut c30 = _mm256_loadu_ps(pc.add(3 * NR));
        let mut c31 = _mm256_loadu_ps(pc.add(3 * NR + 8));
        let mut c40 = _mm256_loadu_ps(pc.add(4 * NR));
        let mut c41 = _mm256_loadu_ps(pc.add(4 * NR + 8));
        let mut c50 = _mm256_loadu_ps(pc.add(5 * NR));
        let mut c51 = _mm256_loadu_ps(pc.add(5 * NR + 8));
        for kk in 0..k {
            let b0 = _mm256_loadu_ps(pb.add(kk * NR));
            let b1 = _mm256_loadu_ps(pb.add(kk * NR + 8));
            // Separate mul + add per row: two roundings, exactly like the
            // scalar `acc += a * b`.
            let a0 = _mm256_set1_ps(*pa.add(kk * MR));
            c00 = _mm256_add_ps(c00, _mm256_mul_ps(a0, b0));
            c01 = _mm256_add_ps(c01, _mm256_mul_ps(a0, b1));
            let a1 = _mm256_set1_ps(*pa.add(kk * MR + 1));
            c10 = _mm256_add_ps(c10, _mm256_mul_ps(a1, b0));
            c11 = _mm256_add_ps(c11, _mm256_mul_ps(a1, b1));
            let a2 = _mm256_set1_ps(*pa.add(kk * MR + 2));
            c20 = _mm256_add_ps(c20, _mm256_mul_ps(a2, b0));
            c21 = _mm256_add_ps(c21, _mm256_mul_ps(a2, b1));
            let a3 = _mm256_set1_ps(*pa.add(kk * MR + 3));
            c30 = _mm256_add_ps(c30, _mm256_mul_ps(a3, b0));
            c31 = _mm256_add_ps(c31, _mm256_mul_ps(a3, b1));
            let a4 = _mm256_set1_ps(*pa.add(kk * MR + 4));
            c40 = _mm256_add_ps(c40, _mm256_mul_ps(a4, b0));
            c41 = _mm256_add_ps(c41, _mm256_mul_ps(a4, b1));
            let a5 = _mm256_set1_ps(*pa.add(kk * MR + 5));
            c50 = _mm256_add_ps(c50, _mm256_mul_ps(a5, b0));
            c51 = _mm256_add_ps(c51, _mm256_mul_ps(a5, b1));
        }
        _mm256_storeu_ps(pc, c00);
        _mm256_storeu_ps(pc.add(8), c01);
        _mm256_storeu_ps(pc.add(NR), c10);
        _mm256_storeu_ps(pc.add(NR + 8), c11);
        _mm256_storeu_ps(pc.add(2 * NR), c20);
        _mm256_storeu_ps(pc.add(2 * NR + 8), c21);
        _mm256_storeu_ps(pc.add(3 * NR), c30);
        _mm256_storeu_ps(pc.add(3 * NR + 8), c31);
        _mm256_storeu_ps(pc.add(4 * NR), c40);
        _mm256_storeu_ps(pc.add(4 * NR + 8), c41);
        _mm256_storeu_ps(pc.add(5 * NR), c50);
        _mm256_storeu_ps(pc.add(5 * NR + 8), c51);
    }
}

/// The AVX2 form of `gemm::interleave`: `dst[kk·W + r] = rows[r·kb + kk]`
/// for the `rows.len() / kb ≤ W` rows, lanes past the last row zeroed,
/// for `kk` below the largest multiple of 8 that fits in `kb` — eight rows
/// by eight `kk` per 8×8 register transpose, read and written in order.
/// Returns how many `kk` it did (0 when AVX2 is unavailable); the caller
/// finishes the rest. Data movement only, so bit for bit the scalar loop.
pub(crate) fn interleave_avx2<const W: usize>(rows: &[f32], kb: usize, dst: &mut [f32]) -> usize {
    #[target_feature(enable = "avx2")]
    fn body<const W: usize>(rows: &[f32], kb: usize, dst: &mut [f32]) -> usize {
        let nr = rows.len() / kb;
        let done = kb / 8 * 8;
        assert!(nr <= W && dst.len() >= kb * W, "interleave: rows or panel out of shape");
        let (src, out) = (rows.as_ptr(), dst.as_mut_ptr());
        for g in (0..W).step_by(8) {
            let lanes = (W - g).min(8);
            let mask = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes as i32), mask);
            for kk0 in (0..done).step_by(8) {
                // SAFETY: row `g + i < nr` spans `rows[(g+i)·kb..(g+i+1)·kb]`
                // and `kk0 + 8 ≤ kb`, so each load reads 8 in-bounds lanes;
                // each store writes lanes `g..g + lanes ≤ W` of `dst` row
                // `kk0 + j < kb`, inside the `kb·W` asserted above (the
                // masked store touches only its first `lanes` lanes).
                unsafe {
                    let load = |i: usize| {
                        if g + i < nr {
                            _mm256_loadu_ps(src.add((g + i) * kb + kk0))
                        } else {
                            _mm256_setzero_ps()
                        }
                    };
                    let (r0, r1, r2, r3) = (load(0), load(1), load(2), load(3));
                    let (r4, r5, r6, r7) = (load(4), load(5), load(6), load(7));
                    let (t0, t1) = (_mm256_unpacklo_ps(r0, r1), _mm256_unpackhi_ps(r0, r1));
                    let (t2, t3) = (_mm256_unpacklo_ps(r2, r3), _mm256_unpackhi_ps(r2, r3));
                    let (t4, t5) = (_mm256_unpacklo_ps(r4, r5), _mm256_unpackhi_ps(r4, r5));
                    let (t6, t7) = (_mm256_unpacklo_ps(r6, r7), _mm256_unpackhi_ps(r6, r7));
                    let (s0, s1) =
                        (_mm256_shuffle_ps::<0x44>(t0, t2), _mm256_shuffle_ps::<0xEE>(t0, t2));
                    let (s2, s3) =
                        (_mm256_shuffle_ps::<0x44>(t1, t3), _mm256_shuffle_ps::<0xEE>(t1, t3));
                    let (s4, s5) =
                        (_mm256_shuffle_ps::<0x44>(t4, t6), _mm256_shuffle_ps::<0xEE>(t4, t6));
                    let (s6, s7) =
                        (_mm256_shuffle_ps::<0x44>(t5, t7), _mm256_shuffle_ps::<0xEE>(t5, t7));
                    let cols = [
                        _mm256_permute2f128_ps::<0x20>(s0, s4),
                        _mm256_permute2f128_ps::<0x20>(s1, s5),
                        _mm256_permute2f128_ps::<0x20>(s2, s6),
                        _mm256_permute2f128_ps::<0x20>(s3, s7),
                        _mm256_permute2f128_ps::<0x31>(s0, s4),
                        _mm256_permute2f128_ps::<0x31>(s1, s5),
                        _mm256_permute2f128_ps::<0x31>(s2, s6),
                        _mm256_permute2f128_ps::<0x31>(s3, s7),
                    ];
                    for (j, &col) in cols.iter().enumerate() {
                        let at = out.add((kk0 + j) * W + g);
                        if lanes == 8 {
                            _mm256_storeu_ps(at, col);
                        } else {
                            _mm256_maskstore_ps(at, mask, col);
                        }
                    }
                }
            }
        }
        done
    }
    if !avx2_available() {
        return 0;
    }
    // SAFETY: AVX2 support was verified by `avx2_available` above.
    unsafe { body::<W>(rows, kb, dst) }
}

/// [`crate::ops::tanh_f32`] over a slice with AVX2, in place. Returns
/// `false` (leaving `x` untouched) when AVX2 is unavailable.
///
/// There is no second implementation to keep in step: the loop inlines the
/// scalar body, which has no branch, no call and no FMA, so compiling it
/// with AVX2 enabled turns each IEEE operation into its lanewise twin and
/// every lane holds exactly the scalar result.
pub(crate) fn tanh_slice_avx2(x: &mut [f32]) -> bool {
    #[target_feature(enable = "avx2")]
    fn body(x: &mut [f32]) {
        for v in x.iter_mut() {
            *v = crate::ops::tanh_f32(*v);
        }
    }
    if !avx2_available() {
        return false;
    }
    // SAFETY: AVX2 support was verified by `avx2_available` above.
    unsafe { body(x) };
    true
}

/// [`crate::ops::mac_strided`] with AVX2: the same loop nest, compiled with
/// 8-lane multiplies and adds. Returns `false` (leaving `c` untouched) when
/// AVX2 is unavailable.
pub(crate) fn mac_strided_avx2(
    shape: (usize, usize, usize),
    a: (&[f32], usize, usize),
    b: (&[f32], usize),
    c: (&mut [f32], usize),
) -> bool {
    #[target_feature(enable = "avx2")]
    fn body(
        shape: (usize, usize, usize),
        a: (&[f32], usize, usize),
        b: (&[f32], usize),
        c: (&mut [f32], usize),
    ) {
        crate::ops::mac_strided_body(shape, a, b, c);
    }
    if !avx2_available() {
        return false;
    }
    // SAFETY: AVX2 support was verified by `avx2_available` above.
    unsafe { body(shape, a, b, c) };
    true
}

/// Quantize a slice through binary16 storage with AVX2, 8 lanes at a time.
///
/// Returns `false` (leaving `values` untouched) when AVX2 is unavailable so
/// the caller can fall back to the scalar path. The vector lanes reproduce
/// [`crate::f16::F16::from_f32`] / [`crate::f16::F16::to_f32`] bit for bit —
/// including the software implementation's `| 1` quiet-NaN payload quirk —
/// which the property suite asserts against the scalar reference.
pub(crate) fn quantize_slice_f16_avx2(values: &mut [f32]) -> bool {
    if !avx2_available() {
        return false;
    }
    let mut chunks = values.chunks_exact_mut(8);
    for chunk in &mut chunks {
        let lanes: &mut [f32; 8] = chunk.try_into().expect("chunks_exact yields 8");
        // SAFETY: AVX2 support was verified by `avx2_available` above.
        unsafe { quantize8_f16_avx2(lanes) };
    }
    for v in chunks.into_remainder() {
        *v = crate::f16::quantize_f16(*v);
    }
    true
}

/// Round 8 `f32` lanes through binary16 storage and back (see
/// [`quantize_slice_f16_avx2`] for the equivalence contract).
#[target_feature(enable = "avx2")]
fn quantize8_f16_avx2(lanes: &mut [f32; 8]) {
    // SAFETY: every intrinsic below is an arithmetic/logical AVX2 operation
    // on owned vector values; the only memory accesses are the unaligned
    // load/store on `lanes`, an in-bounds `[f32; 8]`.
    unsafe {
        let splat = |x: i32| _mm256_set1_epi32(x);
        let zero = _mm256_setzero_si256();
        let ones = _mm256_set1_epi32(-1);

        let bits = _mm256_castps_si256(_mm256_loadu_ps(lanes.as_ptr()));
        let sign = _mm256_and_si256(_mm256_srli_epi32(bits, 16), splat(0x8000));
        let exp = _mm256_and_si256(_mm256_srli_epi32(bits, 23), splat(0xFF));
        let mant = _mm256_and_si256(bits, splat(0x007F_FFFF));
        let unbiased = _mm256_sub_epi32(exp, splat(127));

        // ---- f32 -> f16 bits, mirroring F16::from_f32 case by case. ----
        // Case 1: exp == 0xFF (Inf / NaN) — quiet payload with the
        // software implementation's trailing `| 1`.
        let is_naninf = _mm256_cmpeq_epi32(exp, splat(0xFF));
        let mant_nz = _mm256_xor_si256(_mm256_cmpeq_epi32(mant, zero), ones);
        let payload = _mm256_or_si256(
            splat(0x0200 | 1),
            _mm256_and_si256(_mm256_srli_epi32(mant, 13), splat(0x03FF)),
        );
        let r_naninf = _mm256_or_si256(
            _mm256_or_si256(sign, splat(0x7C00)),
            _mm256_and_si256(payload, mant_nz),
        );

        // Case 2: unbiased >= 16 — saturate to infinity.
        let is_over = _mm256_cmpgt_epi32(unbiased, splat(15));
        let r_over = _mm256_or_si256(sign, splat(0x7C00));

        // Case 3: unbiased >= -14 — normal range, round to nearest even.
        let is_norm = _mm256_cmpgt_epi32(unbiased, splat(-15));
        let half_exp = _mm256_slli_epi32(_mm256_add_epi32(unbiased, splat(15)), 10);
        let mant10_n = _mm256_srli_epi32(mant, 13);
        let round_n = _mm256_and_si256(_mm256_srli_epi32(mant, 12), splat(1));
        let sticky_n = _mm256_and_si256(mant, splat(0x0FFF));
        let out_n = _mm256_or_si256(sign, _mm256_or_si256(half_exp, mant10_n));
        let sticky_or_odd_n = _mm256_or_si256(
            _mm256_xor_si256(_mm256_cmpeq_epi32(sticky_n, zero), ones),
            _mm256_xor_si256(_mm256_cmpeq_epi32(_mm256_and_si256(mant10_n, splat(1)), zero), ones),
        );
        let inc_n = _mm256_and_si256(_mm256_cmpeq_epi32(round_n, splat(1)), sticky_or_odd_n);
        // Subtracting an all-ones mask adds 1 in exactly the lanes that round up.
        let r_norm = _mm256_sub_epi32(out_n, inc_n);

        // Case 4: unbiased >= -25 — subnormal range; per-lane variable
        // shifts of the 24-bit significand. Lanes outside this case produce
        // garbage here (shift counts >= 32 yield 0 for srlv/sllv, never UB)
        // and are discarded by the blend priority below.
        let is_sub = _mm256_cmpgt_epi32(unbiased, splat(-26));
        let full = _mm256_or_si256(splat(0x0080_0000), mant);
        let shift = _mm256_sub_epi32(splat(-1), unbiased); // -unbiased - 14 + 13
        let shift_m1 = _mm256_sub_epi32(shift, splat(1));
        let mant10_s = _mm256_srlv_epi32(full, shift);
        let round_s = _mm256_and_si256(_mm256_srlv_epi32(full, shift_m1), splat(1));
        let sticky_mask = _mm256_sub_epi32(_mm256_sllv_epi32(splat(1), shift_m1), splat(1));
        let sticky_s = _mm256_and_si256(full, sticky_mask);
        let out_s = _mm256_or_si256(sign, mant10_s);
        let sticky_or_odd_s = _mm256_or_si256(
            _mm256_xor_si256(_mm256_cmpeq_epi32(sticky_s, zero), ones),
            _mm256_xor_si256(_mm256_cmpeq_epi32(_mm256_and_si256(mant10_s, splat(1)), zero), ones),
        );
        let inc_s = _mm256_and_si256(_mm256_cmpeq_epi32(round_s, splat(1)), sticky_or_odd_s);
        let r_sub = _mm256_sub_epi32(out_s, inc_s);

        // Case 5: underflow — signed zero. Blend lowest-priority first.
        let mut h = sign;
        h = _mm256_blendv_epi8(h, r_sub, is_sub);
        h = _mm256_blendv_epi8(h, r_norm, is_norm);
        h = _mm256_blendv_epi8(h, r_over, is_over);
        h = _mm256_blendv_epi8(h, r_naninf, is_naninf);

        // ---- f16 bits -> f32, mirroring F16::to_f32. ----
        let hsign = _mm256_slli_epi32(_mm256_and_si256(h, splat(0x8000)), 16);
        let hexp = _mm256_and_si256(_mm256_srli_epi32(h, 10), splat(0x1F));
        let hmant = _mm256_and_si256(h, splat(0x03FF));

        // Normal: rebias the exponent.
        let w_norm = _mm256_or_si256(
            hsign,
            _mm256_or_si256(
                _mm256_slli_epi32(_mm256_add_epi32(hexp, splat(112)), 23),
                _mm256_slli_epi32(hmant, 13),
            ),
        );
        // Inf / NaN.
        let is_hinf = _mm256_cmpeq_epi32(hexp, splat(0x1F));
        let w_inf = _mm256_or_si256(
            hsign,
            _mm256_or_si256(splat(0x7F80_0000u32 as i32), _mm256_slli_epi32(hmant, 13)),
        );
        // Subnormal or zero: the value is exactly mant * 2^-24, and the
        // int→float convert + power-of-two scale is exact, so it matches the
        // scalar normalize-loop bit construction.
        let two_pow_m24 = _mm256_castsi256_ps(splat(0x3380_0000)); // 2^-24
        let f_sub = _mm256_mul_ps(_mm256_cvtepi32_ps(hmant), two_pow_m24);
        let w_sub = _mm256_or_si256(hsign, _mm256_castps_si256(f_sub));
        let is_hzero_exp = _mm256_cmpeq_epi32(hexp, zero);

        let mut w = w_norm;
        w = _mm256_blendv_epi8(w, w_inf, is_hinf);
        w = _mm256_blendv_epi8(w, w_sub, is_hzero_exp);
        _mm256_storeu_ps(lanes.as_mut_ptr(), _mm256_castsi256_ps(w));
    }
}
