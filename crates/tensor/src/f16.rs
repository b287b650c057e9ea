//! Software IEEE 754 binary16 ("half precision").
//!
//! KAISA stores and communicates Kronecker factors and eigendecompositions in
//! half precision to cut the K-FAC memory overhead and bandwidth roughly in
//! half (paper Section 3.3). This reproduction runs on CPUs without native
//! fp16 arithmetic, so we emulate the *storage* format bit-accurately: values
//! are rounded to the nearest representable binary16 (ties to even) when
//! stored and widened back to `f32` for computation — exactly what a GPU does
//! when a half-precision tensor feeds a single-precision kernel.

/// A 16-bit IEEE 754 binary16 floating point value.
///
/// Stored as raw bits; convert with [`F16::from_f32`] and [`F16::to_f32`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct F16(pub u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// The largest finite binary16 value (65504.0).
    pub const MAX: F16 = F16(0x7BFF);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// The smallest positive normal value (2^-14).
    pub const MIN_POSITIVE: F16 = F16(0x0400);

    /// Convert an `f32` to binary16 with round-to-nearest-even.
    ///
    /// Overflow saturates to infinity (matching IEEE default rounding), and
    /// values below the subnormal range flush to signed zero through the
    /// normal rounding path.
    pub fn from_f32(value: f32) -> F16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf / NaN. Preserve NaN-ness with a quiet payload bit.
            let payload = if mant == 0 { 0 } else { 0x0200 | ((mant >> 13) as u16 & 0x03FF) | 1 };
            return F16(sign | 0x7C00 | payload);
        }

        // Unbiased exponent.
        let unbiased = exp - 127;
        if unbiased >= 16 {
            // Too large: saturate to infinity.
            return F16(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normal range for binary16.
            let half_exp = (unbiased + 15) as u16;
            let mant10 = (mant >> 13) as u16;
            let round_bit = (mant >> 12) & 1;
            let sticky = mant & 0x0FFF;
            let mut out = sign | (half_exp << 10) | mant10;
            if round_bit == 1 && (sticky != 0 || (mant10 & 1) == 1) {
                out += 1; // May carry into the exponent; that is correct.
            }
            return F16(out);
        }
        if unbiased >= -25 {
            // Subnormal range: shift the (implicit-1) mantissa right.
            let full = 0x0080_0000 | mant; // 24-bit significand with hidden bit
            let shift = (-unbiased - 14 + 13) as u32; // bits to discard
            let mant10 = (full >> shift) as u16;
            let round_bit = (full >> (shift - 1)) & 1;
            let sticky = full & ((1 << (shift - 1)) - 1);
            let mut out = sign | mant10;
            if round_bit == 1 && (sticky != 0 || (mant10 & 1) == 1) {
                out += 1;
            }
            return F16(out);
        }
        // Underflow to signed zero.
        F16(sign)
    }

    /// Widen this binary16 value back to `f32` exactly.
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1F) as u32;
        let mant = (self.0 & 0x03FF) as u32;

        let bits = if exp == 0 {
            if mant == 0 {
                sign // signed zero
            } else {
                // Subnormal: normalize.
                let mut e = -1i32;
                let mut m = mant;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                m &= 0x03FF;
                // Subnormal value is mant * 2^-24; after s = -(e+1) left
                // shifts the unbiased exponent is -14 - s = e - 13, so the
                // biased f32 exponent is e - 13 + 127 = e + 114.
                let f32_exp = (e + 114) as u32;
                sign | (f32_exp << 23) | (m << 13)
            }
        } else if exp == 0x1F {
            sign | 0x7F80_0000 | (mant << 13) // Inf / NaN
        } else {
            let f32_exp = exp + 127 - 15;
            sign | (f32_exp << 23) | (mant << 13)
        };
        f32::from_bits(bits)
    }

    /// True if this value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// True if this value is +/- infinity.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }
}

/// Round an `f32` through binary16 storage and back.
///
/// This is the numerical effect of storing a tensor in half precision: the
/// value loses mantissa bits and may saturate. KAISA applies this to factor
/// storage when `Precision::Fp16` is selected.
pub fn quantize_f16(value: f32) -> f32 {
    F16::from_f32(value).to_f32()
}

/// Quantize a whole slice in place through binary16 storage.
///
/// This is the hot path of fp16 factor packing/unpacking: on x86-64 with
/// AVX2 it rounds 8 lanes per instruction through the vector quantizer in
/// `crate::simd`, which mirrors [`F16::from_f32`]/[`F16::to_f32`] bit for
/// bit (property-tested).
pub fn quantize_slice_f16(values: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::quantize_slice_f16_avx2(values) {
        return;
    }
    quantize_slice_f16_scalar(values);
}

/// The scalar reference for [`quantize_slice_f16`] (always available; the
/// oracle the SIMD path is property-tested against).
pub fn quantize_slice_f16_scalar(values: &mut [f32]) {
    for v in values.iter_mut() {
        *v = quantize_f16(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let f = i as f32;
            assert_eq!(F16::from_f32(f).to_f32(), f, "integer {i} should be exact in f16");
        }
    }

    #[test]
    fn powers_of_two_roundtrip() {
        for e in -14..=15 {
            let f = (2.0f32).powi(e);
            assert_eq!(F16::from_f32(f).to_f32(), f);
        }
    }

    #[test]
    fn max_value() {
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::from_f32(65504.0).0, F16::MAX.0);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(F16::from_f32(1e6).is_infinite());
        assert!(F16::from_f32(-1e6).to_f32().is_infinite());
        assert!(F16::from_f32(-1e6).to_f32() < 0.0);
    }

    #[test]
    fn nan_is_preserved() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn subnormals_roundtrip() {
        // Smallest positive subnormal of binary16 is 2^-24.
        let tiny = (2.0f32).powi(-24);
        assert_eq!(F16::from_f32(tiny).to_f32(), tiny);
        let mid = 3.0 * (2.0f32).powi(-24);
        assert_eq!(F16::from_f32(mid).to_f32(), mid);
    }

    #[test]
    fn underflow_flushes_to_zero() {
        let too_small = (2.0f32).powi(-26);
        assert_eq!(F16::from_f32(too_small).to_f32(), 0.0);
        let neg = -(2.0f32).powi(-26);
        let q = F16::from_f32(neg);
        assert_eq!(q.to_f32(), 0.0);
        assert_eq!(q.0 & 0x8000, 0x8000, "sign of zero preserved");
    }

    #[test]
    fn rounding_is_to_nearest_even() {
        // 1 + 2^-11 is exactly between 1.0 and 1+2^-10; ties-to-even keeps 1.0.
        let between = 1.0 + (2.0f32).powi(-11);
        assert_eq!(F16::from_f32(between).to_f32(), 1.0);
        // 1 + 3*2^-11 is between 1+2^-10 and 1+2^-9; rounds up to even mantissa.
        let between2 = 1.0 + 3.0 * (2.0f32).powi(-11);
        assert_eq!(F16::from_f32(between2).to_f32(), 1.0 + (2.0f32).powi(-9));
    }

    #[test]
    fn quantize_error_is_bounded_relative() {
        // Relative rounding error of binary16 normals is at most 2^-11.
        let mut x = 0.001f32;
        while x < 60000.0 {
            let q = quantize_f16(x);
            let rel = ((q - x) / x).abs();
            assert!(rel <= (2.0f32).powi(-11) + 1e-9, "x={x} q={q} rel={rel}");
            x *= 1.37;
        }
    }

    #[test]
    fn rounding_carry_into_exponent() {
        // Largest mantissa + round up must carry cleanly: 2047.5 -> 2048.
        assert_eq!(F16::from_f32(2047.5).to_f32(), 2048.0);
    }
}
