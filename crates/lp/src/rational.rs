//! Exact rational numbers over `i128`.
//!
//! Always stored in lowest terms with a positive denominator. All arithmetic
//! reduces eagerly, so the magnitudes stay tiny for the cover LPs this crate
//! solves; a genuine overflow panics loudly instead of silently producing a
//! wrong exponent for the AGM bound.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An exact rational `num / den` in lowest terms, `den > 0`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates `num / den` in lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "zero denominator");
        if num == 0 {
            return Rational::ZERO;
        }
        let sign = if (num < 0) != (den < 0) { -1 } else { 1 };
        let g = gcd(num, den);
        Rational {
            num: sign * (num.abs() / g),
            den: den.abs() / g,
        }
    }

    /// The integer `n` as a rational.
    pub fn from_int(n: i64) -> Self {
        Rational {
            num: n as i128,
            den: 1,
        }
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Lossy conversion to `f64`, for **display only**. Bound decisions must
    /// go through the exact integer paths (`crate::intpow::floor_rational_pow`
    /// and `crate::intpow::cmp_pow`) instead.
    #[expect(
        clippy::cast_precision_loss,
        reason = "display-only: documented lossy; never feeds a bound decision"
    )]
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// True iff the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// True iff strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// True iff strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// The reciprocal.
    ///
    /// # Panics
    /// Panics on zero.
    pub fn recip(&self) -> Rational {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "documented panic: i128 overflow in rational ops is a bug, not bad input; operator impls cannot return Result"
    )]
    fn checked(num: Option<i128>, den: Option<i128>) -> Rational {
        let num = num.expect("rational arithmetic overflow (numerator)");
        let den = den.expect("rational arithmetic overflow (denominator)");
        Rational::new(num, den)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        // a/b + c/d = (a·(l/b) + c·(l/d)) / l with l = lcm(b, d).
        let g = gcd(self.den, rhs.den);
        let lb = self.den / g;
        let ld = rhs.den / g;
        let l = self.den.checked_mul(ld);
        let num = self
            .num
            .checked_mul(ld)
            .and_then(|x| rhs.num.checked_mul(lb).and_then(|y| x.checked_add(y)));
        Rational::checked(num, l)
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        // Cross-reduce before multiplying to keep magnitudes small.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let num = (self.num / g1).checked_mul(rhs.num / g2);
        let den = (self.den / g2).checked_mul(rhs.den / g1);
        Rational::checked(num, den)
    }
}

impl Div for Rational {
    type Output = Rational;
    #[allow(clippy::suspicious_arithmetic_impl)] // division IS multiplication by the reciprocal
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    #[expect(
        clippy::expect_used,
        reason = "documented panic: Ord cannot return Result; cross-multiplication past i128 is unsupported"
    )]
    fn cmp(&self, other: &Rational) -> Ordering {
        // a/b vs c/d  ⇔  a·d vs c·b (b, d > 0).
        let lhs = self
            .num
            .checked_mul(other.den)
            .expect("rational comparison overflow");
        let rhs = other
            .num
            .checked_mul(self.den)
            .expect("rational comparison overflow");
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_int(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 5), Rational::ZERO);
        assert_eq!(r(3, 1).to_string(), "3");
        assert_eq!(r(3, 2).to_string(), "3/2");
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(3, 4), r(2, 3));
        assert_eq!(-r(1, 2), r(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 2) < r(2, 3));
        assert!(r(-1, 2) < Rational::ZERO);
        assert!(r(3, 2) > Rational::ONE);
        assert_eq!(r(4, 8).cmp(&r(1, 2)), Ordering::Equal);
    }

    #[test]
    fn predicates() {
        assert!(r(3, 1).is_integer());
        assert!(!r(3, 2).is_integer());
        assert!(r(1, 5).is_positive());
        assert!(r(-1, 5).is_negative());
        assert!(Rational::ZERO.is_zero());
        assert_eq!(r(-3, 4).abs(), r(3, 4));
        assert_eq!(r(2, 3).recip(), r(3, 2));
    }

    #[test]
    fn to_f64_close() {
        assert!((r(3, 2).to_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn zero_reciprocal_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    fn sum_of_many_halves() {
        let mut acc = Rational::ZERO;
        for _ in 0..1000 {
            acc += r(1, 2);
        }
        assert_eq!(acc, Rational::from_int(500));
    }
}
