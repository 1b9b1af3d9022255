//! Exact integer powers with rational exponents — the arithmetic behind the
//! AGM worst-case witness (`⌊N^{y(v)}⌋` for LP weights `y(v) = p/q`).
//!
//! Everything here is exact: comparisons of `a^ea` vs `b^eb` go through a
//! minimal little-endian big-unsigned (`u64` limbs, schoolbook multiply) with
//! a checked-`u128` fast path, so no result ever depends on `f64` rounding or
//! an epsilon fudge. The big-integer type stays private; the public surface
//! is the comparison and the floor-power function.

use crate::rational::Rational;
use std::cmp::Ordering;

/// Errors from exact power computations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PowError {
    /// The exponent was negative (never produced by a cover/packing LP).
    NegativeExponent(Rational),
    /// The exact result exceeds `u64::MAX`.
    Overflow {
        /// The base `N`.
        base: u64,
        /// The exponent `p/q`.
        exp: Rational,
    },
}

impl std::fmt::Display for PowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PowError::NegativeExponent(e) => write!(f, "negative exponent {e} in integer power"),
            PowError::Overflow { base, exp } => {
                write!(f, "{base}^{exp} exceeds u64::MAX")
            }
        }
    }
}

impl std::error::Error for PowError {}

/// Minimal big-unsigned: little-endian `u64` limbs, no leading zero limbs.
/// Only what exact power comparison needs — construction, multiply, compare.
#[derive(Clone, Debug, PartialEq, Eq)]
struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    fn from_u128(x: u128) -> Self {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "limb split: low 64 bits, exact by construction"
        )]
        let lo = x as u64;
        let hi = (x >> 64) as u64;
        let mut limbs = vec![lo, hi];
        while limbs.len() > 1 && limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    fn mul_u64(&self, m: u64) -> Self {
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry: u128 = 0;
        for &l in &self.limbs {
            let prod = u128::from(l) * u128::from(m) + carry;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "limb split: low word of the product"
            )]
            out.push(prod as u64);
            carry = prod >> 64;
        }
        while carry > 0 {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "limb split: carry low word"
            )]
            out.push(carry as u64);
            carry >>= 64;
        }
        while out.len() > 1 && out.last() == Some(&0) {
            out.pop();
        }
        BigUint { limbs: out }
    }

    /// `base^exp` by repeated limb multiplication (`exp` is small: an LP
    /// weight denominator, bounded by the hypergraph size).
    fn pow(base: u64, exp: u32) -> Self {
        let mut acc = BigUint { limbs: vec![1] };
        for _ in 0..exp {
            acc = acc.mul_u64(base);
        }
        acc
    }

    /// `2^bits` — used for the `u64::MAX` overflow threshold `2^(64·q)`.
    fn pow2(bits: u32) -> Self {
        let words = (bits / 64) as usize;
        let rem = bits % 64;
        let mut limbs = vec![0; words];
        limbs.push(1u64 << rem);
        BigUint { limbs }
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => self.limbs.iter().rev().cmp(other.limbs.iter().rev()),
            ord => ord,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn checked_pow_u128(base: u128, exp: u32) -> Option<u128> {
    let mut acc: u128 = 1;
    for _ in 0..exp {
        acc = acc.checked_mul(base)?;
    }
    Some(acc)
}

/// Compares `a^ea` with `b^eb` exactly.
///
/// Fast path in checked `u128`; falls back to exact big-integer arithmetic
/// when either side overflows 128 bits.
pub fn cmp_pow(a: u128, ea: u32, b: u128, eb: u32) -> Ordering {
    if let (Some(x), Some(y)) = (checked_pow_u128(a, ea), checked_pow_u128(b, eb)) {
        return x.cmp(&y);
    }
    big_pow_u128(a, ea).cmp(&big_pow_u128(b, eb))
}

fn big_pow_u128(base: u128, exp: u32) -> BigUint {
    let mut acc = BigUint { limbs: vec![1] };
    let b = BigUint::from_u128(base);
    for _ in 0..exp {
        // Multiply by each limb with shifts: acc · base.
        let mut sum = BigUint { limbs: vec![0] };
        for (i, &l) in b.limbs.iter().enumerate() {
            let mut part = acc.mul_u64(l);
            // Shift left by i limbs.
            let mut shifted = vec![0; i];
            shifted.extend_from_slice(&part.limbs);
            part.limbs = shifted;
            sum = add(&sum, &part);
        }
        acc = sum;
    }
    acc
}

fn add(a: &BigUint, b: &BigUint) -> BigUint {
    let n = a.limbs.len().max(b.limbs.len());
    let mut out = Vec::with_capacity(n + 1);
    let mut carry: u128 = 0;
    for i in 0..n {
        let x = u128::from(*a.limbs.get(i).unwrap_or(&0));
        let y = u128::from(*b.limbs.get(i).unwrap_or(&0));
        let s = x + y + carry;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "limb split: low word of the sum"
        )]
        out.push(s as u64);
        carry = s >> 64;
    }
    if carry > 0 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "limb carry, < 2^64 by construction"
        )]
        out.push(carry as u64);
    }
    while out.len() > 1 && out.last() == Some(&0) {
        out.pop();
    }
    BigUint { limbs: out }
}

/// `⌊base^{p/q}⌋` computed exactly, for a non-negative rational exponent.
///
/// The answer is the unique `s` with `s^q ≤ base^p < (s+1)^q`, found by
/// binary search with exact power comparisons — no floating point anywhere.
///
/// # Errors
/// [`PowError::NegativeExponent`] if `exp < 0`; [`PowError::Overflow`] if the
/// exact result exceeds `u64::MAX` (only possible when `exp > 1`).
#[must_use = "the result carries the only exact value; ignoring it defeats the checked arithmetic"]
pub fn floor_rational_pow(base: u64, exp: &Rational) -> Result<u64, PowError> {
    if exp.is_negative() {
        return Err(PowError::NegativeExponent(*exp));
    }
    if exp.is_zero() {
        return Ok(1);
    }
    if base <= 1 {
        return Ok(base);
    }
    let p = u32::try_from(exp.numer()).map_err(|_| PowError::Overflow { base, exp: *exp })?;
    let q = u32::try_from(exp.denom()).map_err(|_| PowError::Overflow { base, exp: *exp })?;
    // Overflow iff base^p ≥ 2^(64·q)  ⇔  base^{p/q} ≥ 2^64.
    let threshold = BigUint::pow2(64u32.saturating_mul(q));
    if BigUint::pow(base, p) >= threshold {
        return Err(PowError::Overflow { base, exp: *exp });
    }
    // Binary search the floor root: largest s with s^q ≤ base^p.
    let (mut lo, mut hi) = (1u64, u64::MAX);
    // Tighten hi when exp ≤ 1: the result is at most base.
    if *exp <= Rational::ONE {
        hi = base;
    }
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        match cmp_pow(u128::from(mid), q, u128::from(base), p) {
            Ordering::Greater => hi = mid - 1,
            _ => lo = mid,
        }
    }
    Ok(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn integer_exponents() {
        assert_eq!(floor_rational_pow(7, &r(2, 1)), Ok(49));
        assert_eq!(floor_rational_pow(2, &r(10, 1)), Ok(1024));
        assert_eq!(floor_rational_pow(10, &r(0, 1)), Ok(1));
        assert_eq!(floor_rational_pow(0, &r(3, 1)), Ok(0));
        assert_eq!(floor_rational_pow(1, &r(1_000_000, 1)), Ok(1));
    }

    #[test]
    fn square_roots() {
        assert_eq!(floor_rational_pow(16, &r(1, 2)), Ok(4));
        assert_eq!(floor_rational_pow(17, &r(1, 2)), Ok(4));
        assert_eq!(floor_rational_pow(24, &r(1, 2)), Ok(4));
        assert_eq!(floor_rational_pow(25, &r(1, 2)), Ok(5));
        assert_eq!(floor_rational_pow(u64::MAX, &r(1, 2)), Ok(4_294_967_295));
    }

    #[test]
    fn general_rational_exponents() {
        // 64^{2/3} = 16 exactly.
        assert_eq!(floor_rational_pow(64, &r(2, 3)), Ok(16));
        // 100^{3/2} = 1000 exactly.
        assert_eq!(floor_rational_pow(100, &r(3, 2)), Ok(1000));
        // 10^{2/3} = 4.64…
        assert_eq!(floor_rational_pow(10, &r(2, 3)), Ok(4));
        // Near-miss rounding that e-9 fudges get wrong at scale: (10^9)^{1/3}.
        assert_eq!(floor_rational_pow(1_000_000_000, &r(1, 3)), Ok(1000));
    }

    #[test]
    fn no_epsilon_dependence_at_scale() {
        // (10^18)^{1/2} = 10^9 exactly; f64 powf gives 999999999.9999999…
        assert_eq!(
            floor_rational_pow(1_000_000_000_000_000_000, &r(1, 2)),
            Ok(1_000_000_000)
        );
        // (k^3)^{1/3} = k exactly for k where k^3 fits u64.
        for k in [3u64, 10, 1_000, 2_642_245] {
            assert_eq!(floor_rational_pow(k * k * k, &r(1, 3)), Ok(k), "k = {k}");
        }
        // And one below the cube: (k^3 − 1)^{1/3} = k − 1.
        assert_eq!(floor_rational_pow(27 - 1, &r(1, 3)), Ok(2));
    }

    #[test]
    fn overflow_is_reported() {
        let err = floor_rational_pow(u64::MAX, &r(2, 1)).unwrap_err();
        assert!(matches!(err, PowError::Overflow { .. }));
        assert!(floor_rational_pow(2, &r(64, 1)).is_err());
        assert_eq!(floor_rational_pow(2, &r(63, 1)), Ok(1 << 63));
    }

    #[test]
    fn negative_exponent_is_reported() {
        let err = floor_rational_pow(5, &r(-1, 2)).unwrap_err();
        assert!(matches!(err, PowError::NegativeExponent(_)));
    }

    #[test]
    fn cmp_pow_agrees_with_u128_reference() {
        // Small enough for the u128 path on both sides.
        for (a, ea, b, eb) in [(3u128, 4u32, 9u128, 2u32), (2, 10, 3, 6), (5, 3, 126, 1)] {
            let lhs = a.pow(ea);
            let rhs = b.pow(eb);
            assert_eq!(cmp_pow(a, ea, b, eb), lhs.cmp(&rhs));
        }
    }

    #[test]
    fn cmp_pow_big_path() {
        // u64::MAX^3 overflows u128 on both sides; exact compare must still
        // order (MAX)^3 < (MAX)^4 and tie (MAX^2)^2 = (MAX)^4.
        let m = u128::from(u64::MAX);
        assert_eq!(cmp_pow(m, 3, m, 4), Ordering::Less);
        assert_eq!(cmp_pow(m * m, 2, m, 4), Ordering::Equal);
        assert_eq!(cmp_pow(m, 4, m, 3), Ordering::Greater);
        // 2^130 vs (2^65)^2: equal, both beyond u128.
        assert_eq!(cmp_pow(2, 130, 1 << 65, 2), Ordering::Equal);
    }

    #[test]
    fn big_uint_ordering() {
        let a = BigUint::pow(u64::MAX, 5);
        let b = BigUint::pow(u64::MAX, 6);
        assert!(a < b);
        assert_eq!(BigUint::pow(10, 3).limbs, vec![1000]);
        assert_eq!(BigUint::pow2(64).limbs, vec![0, 1]);
        assert_eq!(BigUint::pow2(1).limbs, vec![2]);
    }
}
