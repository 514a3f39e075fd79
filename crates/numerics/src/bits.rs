//! Bit-level access to IEEE-754 floating-point values.
//!
//! The probabilistic rounding-error model of the paper works on the
//! sign/exponent/mantissa decomposition of binary floating-point numbers
//! (Section IV, Eq. 9–13), and the fault-injection campaign (Section VI-C)
//! flips individual bits of those fields. This module provides the
//! decomposition, the exponent function `E = ceil(log2 |s*|)` of Eq. 13 and
//! the unit in the last place. The workspace computes in binary64 only, as
//! the paper's experiments do.

/// Decomposed view of an IEEE-754 binary64 value.
///
/// # Examples
///
/// ```
/// use aabft_numerics::bits::FloatParts;
///
/// let parts = FloatParts::of(-1.5f64);
/// assert!(parts.sign);
/// assert_eq!(parts.unbiased_exponent(), 0); // 1.5 = 1.1b * 2^0
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FloatParts {
    /// Sign bit; `true` for negative values.
    pub sign: bool,
    /// Biased exponent field (11 bits for binary64).
    pub biased_exponent: u32,
    /// Mantissa (fraction) field without the implicit leading bit (52 bits).
    pub mantissa: u64,
}

impl FloatParts {
    /// Decomposes `x` into its sign, exponent and mantissa fields.
    pub fn of(x: f64) -> Self {
        let bits = x.to_bits();
        FloatParts {
            sign: bits >> 63 == 1,
            biased_exponent: ((bits >> 52) & 0x7ff) as u32,
            mantissa: bits & ((1u64 << 52) - 1),
        }
    }

    /// Reassembles the fields into an `f64`.
    pub fn to_f64(self) -> f64 {
        let bits = ((self.sign as u64) << 63)
            | ((self.biased_exponent as u64 & 0x7ff) << 52)
            | (self.mantissa & ((1u64 << 52) - 1));
        f64::from_bits(bits)
    }

    /// Exponent with the IEEE bias removed (valid for normal numbers).
    pub fn unbiased_exponent(self) -> i32 {
        self.biased_exponent as i32 - 1023
    }

    /// `true` if the value is subnormal (or zero).
    pub fn is_subnormal_or_zero(self) -> bool {
        self.biased_exponent == 0
    }
}

/// Exponent `E = ceil(log2 |x|)` of Eq. 13, computed exactly from the bit
/// pattern (no transcendental functions, no rounding surprises).
///
/// For a normal `|x| = m · 2^e` with `m ∈ [1, 2)`, the result is `e` when
/// `m == 1` (exact power of two) and `e + 1` otherwise. Subnormals are
/// handled through their leading-zero count.
///
/// # Panics
///
/// Panics if `x` is zero, NaN or infinite — the model is undefined there.
///
/// # Examples
///
/// ```
/// use aabft_numerics::bits::ceil_log2_abs;
///
/// assert_eq!(ceil_log2_abs(8.0), 3);
/// assert_eq!(ceil_log2_abs(9.0), 4);
/// assert_eq!(ceil_log2_abs(-0.5), -1);
/// assert_eq!(ceil_log2_abs(0.75), 0);
/// ```
pub fn ceil_log2_abs(x: f64) -> i32 {
    assert!(
        x != 0.0 && x.is_finite(),
        "ceil_log2_abs requires a finite non-zero value, got {x}"
    );
    let parts = FloatParts::of(x);
    if parts.is_subnormal_or_zero() {
        // Subnormal: |x| = mantissa * 2^-1074 with mantissa in [1, 2^52).
        let m = parts.mantissa;
        let floor = 63 - m.leading_zeros() as i32; // floor(log2 m)
        let exact_pow2 = m & (m - 1) == 0;
        floor - 1074 + if exact_pow2 { 0 } else { 1 }
    } else {
        let e = parts.unbiased_exponent();
        if parts.mantissa == 0 {
            e
        } else {
            e + 1
        }
    }
}

/// Unit in the last place of `x`: the gap between `|x|` and the next larger
/// representable magnitude.
///
/// # Examples
///
/// ```
/// use aabft_numerics::bits::ulp;
///
/// assert_eq!(ulp(1.0), f64::EPSILON);
/// assert_eq!(ulp(2.0), 2.0 * f64::EPSILON);
/// ```
pub fn ulp(x: f64) -> f64 {
    let ax = x.abs();
    if !ax.is_finite() {
        return f64::NAN;
    }
    let next = f64::from_bits(ax.to_bits() + 1);
    next - ax
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_round_trip() {
        for &x in &[0.0, -0.0, 1.0, -1.5, 1e300, -1e-300, f64::MIN_POSITIVE / 8.0] {
            assert_eq!(FloatParts::of(x).to_f64().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn parts_fields() {
        let p = FloatParts::of(1.0);
        assert!(!p.sign);
        assert_eq!(p.biased_exponent, 1023);
        assert_eq!(p.mantissa, 0);
        assert_eq!(p.unbiased_exponent(), 0);
    }

    #[test]
    fn subnormal_detection() {
        assert!(FloatParts::of(f64::MIN_POSITIVE / 2.0).is_subnormal_or_zero());
        assert!(FloatParts::of(0.0).is_subnormal_or_zero());
        assert!(!FloatParts::of(1.0).is_subnormal_or_zero());
    }

    #[test]
    fn ceil_log2_powers_of_two() {
        for e in -100..100 {
            let x = (2.0f64).powi(e);
            assert_eq!(ceil_log2_abs(x), e, "x = 2^{e}");
            assert_eq!(ceil_log2_abs(-x), e, "x = -2^{e}");
        }
    }

    #[test]
    fn ceil_log2_general() {
        assert_eq!(ceil_log2_abs(3.0), 2);
        assert_eq!(ceil_log2_abs(5.0), 3);
        assert_eq!(ceil_log2_abs(0.3), -1);
        assert_eq!(ceil_log2_abs(1.0000000001), 1);
    }

    #[test]
    fn ceil_log2_matches_log2_for_non_powers() {
        // For values that are not powers of two the bit-level computation
        // must agree with the transcendental one.
        let mut x = 1.1f64;
        for _ in 0..200 {
            let expected = x.abs().log2().ceil() as i32;
            assert_eq!(ceil_log2_abs(x), expected, "x = {x}");
            x *= -1.7;
        }
    }

    #[test]
    fn ceil_log2_subnormals() {
        let min_sub = f64::from_bits(1); // 2^-1074
        assert_eq!(ceil_log2_abs(min_sub), -1074);
        assert_eq!(ceil_log2_abs(min_sub * 2.0), -1073);
        assert_eq!(ceil_log2_abs(min_sub * 3.0), -1072);
    }

    #[test]
    #[should_panic(expected = "finite non-zero")]
    fn ceil_log2_zero_panics() {
        ceil_log2_abs(0.0);
    }

    #[test]
    fn ulp_of_one_is_epsilon() {
        assert_eq!(ulp(1.0), f64::EPSILON);
        assert_eq!(ulp(-1.0), f64::EPSILON);
        assert_eq!(ulp(4.0), 4.0 * f64::EPSILON);
    }
}
