//! Checked conversions between floats and integers.
//!
//! Bound arithmetic (`lb-lp`, `lb-join::agm`) must never lose precision
//! silently: a lossy `f64 as u64` can corrupt an AGM witness size, and a
//! large `u64 as f64` rounds above 2^53. Those modules deny clippy's lossy
//! cast lints; this module is the one sanctioned home for such casts, each
//! carrying an `#[expect]` naming the runtime check that makes it sound.

/// Exact `u64 → f64`: `Some` iff the value round-trips without rounding
/// (always true below 2^53, and for larger values that happen to be
/// representable).
#[must_use = "the checked conversion result must be inspected; a None means the value is not exactly representable"]
pub fn u64_to_f64_exact(n: u64) -> Option<f64> {
    const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
    #[expect(clippy::cast_precision_loss, reason = "round-trip checked below")]
    let f = n as f64;
    if f >= TWO_POW_64 {
        // n rounded up to 2^64; the saturating back-cast would mask it.
        return None;
    }
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "f < 2^64 checked above, round-trip checked below"
    )]
    let back = f as u64;
    (back == n).then_some(f)
}

/// `u64 → f64` rounding to nearest — for display and plotting only, where a
/// relative error of 2^-53 is irrelevant. Total (never fails).
#[must_use = "conversion for display should be used, not dropped"]
#[expect(
    clippy::cast_precision_loss,
    reason = "documented lossy display conversion, error ≤ 2^-53 relative"
)]
pub fn u64_to_f64_lossy(n: u64) -> f64 {
    n as f64
}

/// Checked `f64 → u64` by flooring: `Some(⌊x⌋)` iff `x` is finite,
/// non-negative, and its floor fits in `u64`.
#[must_use = "the checked conversion result must be inspected; a None means the float was out of range"]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "range-checked above; floor of an in-range f64 is exact"
)]
pub fn f64_floor_to_u64(x: f64) -> Option<u64> {
    // 2^64 as the first f64 strictly above u64::MAX (u64::MAX itself is not
    // representable; the nearest f64 above it is exactly 2^64).
    const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
    if !x.is_finite() || !(0.0..TWO_POW_64).contains(&x) {
        return None;
    }
    Some(x.floor() as u64)
}

/// Exact `i128 → f64`: `Some` iff the value round-trips without rounding.
#[must_use = "the checked conversion result must be inspected; a None means the value is not exactly representable"]
pub fn i128_to_f64_exact(n: i128) -> Option<f64> {
    const TWO_POW_127: f64 = 170_141_183_460_469_231_731_687_303_715_884_105_728.0;
    #[expect(clippy::cast_precision_loss, reason = "round-trip checked below")]
    let f = n as f64;
    if f >= TWO_POW_127 {
        // n rounded up to 2^127; the saturating back-cast would mask it.
        return None;
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "|f| ≤ 2^127 checked/representable, round-trip checked below"
    )]
    let back = f as i128;
    (back == n).then_some(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips() {
        assert_eq!(u64_to_f64_exact(0), Some(0.0));
        assert_eq!(u64_to_f64_exact(1 << 53), Some(9007199254740992.0));
        // 2^53 + 1 is the first unrepresentable integer.
        assert_eq!(u64_to_f64_exact((1 << 53) + 1), None);
        // 2^60 is representable (power of two), 2^60 + 1 is not.
        assert_eq!(u64_to_f64_exact(1 << 60), Some((1u64 << 60) as f64));
        assert_eq!(u64_to_f64_exact((1 << 60) + 1), None);
        assert_eq!(u64_to_f64_exact(u64::MAX), None);
    }

    #[test]
    fn floor_conversion_bounds() {
        assert_eq!(f64_floor_to_u64(3.7), Some(3));
        assert_eq!(f64_floor_to_u64(0.0), Some(0));
        assert_eq!(f64_floor_to_u64(-0.5), None);
        assert_eq!(f64_floor_to_u64(f64::NAN), None);
        assert_eq!(f64_floor_to_u64(f64::INFINITY), None);
        // 2^64 is out of range; the largest representable f64 below it fits.
        assert_eq!(f64_floor_to_u64(18_446_744_073_709_551_616.0), None);
        let just_below = 18_446_744_073_709_549_568.0; // 2^64 − 2048
        assert_eq!(
            f64_floor_to_u64(just_below),
            Some(18_446_744_073_709_549_568)
        );
    }

    #[test]
    fn i128_round_trips() {
        assert_eq!(i128_to_f64_exact(-42), Some(-42.0));
        assert_eq!(i128_to_f64_exact((1 << 53) + 1), None);
        assert_eq!(i128_to_f64_exact(i128::MAX), None);
    }

    #[test]
    fn lossy_display_conversion_is_close() {
        let n = u64::MAX;
        let f = u64_to_f64_lossy(n);
        assert!((f - 1.844_674_407_370_955_2e19).abs() / f < 1e-12);
    }
}
