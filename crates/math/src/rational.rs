//! Exact rational arithmetic over `i128`.
//!
//! All polyhedral and linear-algebra computations in IOLB are performed with
//! exact rational numbers so that emptiness tests, ranks and optimal simplex
//! pivots are never subject to floating-point error. The magnitudes appearing
//! in affine programs (loop bounds, access coefficients, Brascamp–Lieb
//! exponents) are tiny, so an `i128` numerator/denominator pair is ample.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Unwind payload raised when an exact rational operation would overflow
/// `i128`.
///
/// Release builds compile plain `i128` arithmetic to wrapping instructions,
/// which would turn an overflow into a silently *wrong* exact number — fatal
/// for the verdicts built on top of it. Every [`Rational`] operation
/// therefore uses checked arithmetic and starts this unwind (via
/// [`std::panic::resume_unwind`], so no panic hook fires: an overflow is a
/// recoverable resource limit, not a bug report). Callers that feed
/// potentially large coefficients into rational computations catch it with
/// [`RationalOverflow::catch`] and fall back to a path that does not need
/// the result.
///
/// ```
/// use iolb_math::{Rational, RationalOverflow};
///
/// let huge = Rational::from_int(i128::MAX);
/// let r = RationalOverflow::catch(|| huge + Rational::ONE);
/// assert_eq!(r, Err(RationalOverflow));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RationalOverflow;

impl fmt::Display for RationalOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rational arithmetic overflowed i128")
    }
}

impl RationalOverflow {
    /// Runs `f`, converting a [`RationalOverflow`] unwind escaping it into an
    /// `Err`. Any other unwind (a genuine panic, an engine interrupt)
    /// propagates unchanged.
    pub fn catch<R>(f: impl FnOnce() -> R) -> Result<R, RationalOverflow> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(v) => Ok(v),
            Err(payload) => match payload.downcast::<RationalOverflow>() {
                Ok(_) => Err(RationalOverflow),
                Err(other) => std::panic::resume_unwind(other),
            },
        }
    }
}

#[cold]
#[inline(never)]
fn overflow() -> ! {
    std::panic::resume_unwind(Box::new(RationalOverflow))
}

#[inline]
fn ck_add(a: i128, b: i128) -> i128 {
    a.checked_add(b).unwrap_or_else(|| overflow())
}

#[inline]
fn ck_mul(a: i128, b: i128) -> i128 {
    a.checked_mul(b).unwrap_or_else(|| overflow())
}

#[inline]
fn ck_neg(a: i128) -> i128 {
    a.checked_neg().unwrap_or_else(|| overflow())
}

/// Greatest common divisor of two integers (result is non-negative).
///
/// Computed over unsigned magnitudes so that `i128::MIN` — whose absolute
/// value does not fit in `i128` — is handled without overflow: e.g.
/// `gcd(i128::MIN, 0)` would need to return `2^127`, which is clamped to
/// `i128::MAX`; every representable result is exact.
pub fn gcd(a: i128, b: i128) -> i128 {
    let mut a = a.unsigned_abs();
    let mut b = b.unsigned_abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    i128::try_from(a).unwrap_or(i128::MAX)
}

/// Least common multiple of two integers (result is non-negative, saturating
/// at `i128::MAX` when the true value overflows).
pub fn lcm(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        return 0;
    }
    let g = gcd(a, b).unsigned_abs();
    let l = (a.unsigned_abs() / g).saturating_mul(b.unsigned_abs());
    i128::try_from(l).unwrap_or(i128::MAX)
}

/// An exact rational number `num / den` with `den > 0` and `gcd(num, den) = 1`.
///
/// # Examples
///
/// ```
/// use iolb_math::Rational;
/// let a = Rational::new(1, 3);
/// let b = Rational::new(1, 6);
/// assert_eq!(a + b, Rational::new(1, 2));
/// assert_eq!((a * b).to_string(), "1/18");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a new rational `num / den`, normalised to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let mut r = Rational { num, den };
        r.normalize();
        r
    }

    /// Creates an integer rational `n / 1`.
    pub const fn from_int(n: i128) -> Self {
        Rational { num: n, den: 1 }
    }

    fn normalize(&mut self) {
        if self.den < 0 {
            self.num = ck_neg(self.num);
            self.den = ck_neg(self.den);
        }
        let g = gcd(self.num, self.den);
        if g > 1 {
            self.num /= g;
            self.den /= g;
        }
        if self.num == 0 {
            self.den = 1;
        }
    }

    /// The numerator (sign-carrying).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// The denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Returns `true` if this rational is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` if this rational is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Returns `true` if this rational is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Returns `true` if this rational is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> i128 {
        -((-*self).floor())
    }

    /// Converts to an `f64` approximation.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Raises to an integer power (negative powers allowed for non-zero values).
    pub fn pow(&self, exp: i32) -> Rational {
        if exp == 0 {
            return Rational::ONE;
        }
        let base = if exp < 0 { self.recip() } else { *self };
        let mut out = Rational::ONE;
        for _ in 0..exp.unsigned_abs() {
            out *= base;
        }
        out
    }

    /// The minimum of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The maximum of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i128> for Rational {
    fn from(n: i128) -> Self {
        Rational::from_int(n)
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_int(n as i128)
    }
}

impl From<i32> for Rational {
    fn from(n: i32) -> Self {
        Rational::from_int(n as i128)
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
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

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: ck_neg(self.num),
            den: self.den,
        }
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        // Reduce before multiplying to keep magnitudes small.
        let g = gcd(self.den, rhs.den);
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        Rational::new(
            ck_add(ck_mul(self.num, lhs_scale), ck_mul(rhs.num, rhs_scale)),
            ck_mul(self.den, lhs_scale),
        )
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
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        Rational::new(
            ck_mul(self.num / g1, rhs.num / g2),
            ck_mul(self.den / g2, rhs.den / g1),
        )
    }
}

impl Div for Rational {
    type Output = Rational;
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
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

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Rational) {
        *self = *self / rhs;
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // den > 0 on both sides, so cross-multiplication preserves order.
        ck_mul(self.num, other.den).cmp(&ck_mul(other.num, self.den))
    }
}

impl std::iter::Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ZERO, |a, b| a + b)
    }
}

impl std::iter::Product for Rational {
    fn product<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ONE, |a, b| a * b)
    }
}

/// Convenience constructor: `rat(n, d)` is `Rational::new(n, d)`.
pub fn rat(num: i128, den: i128) -> Rational {
    Rational::new(num, den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 6), 0);
        assert_eq!(lcm(-4, 6), 12);
    }

    #[test]
    fn gcd_lcm_extreme_magnitudes() {
        // i128::MIN.abs() would overflow a naive implementation.
        assert_eq!(gcd(i128::MIN, 2), 2);
        assert_eq!(gcd(2, i128::MIN), 2);
        assert_eq!(gcd(i128::MIN, i128::MIN), i128::MAX); // true value 2^127 clamps
        assert_eq!(gcd(i128::MIN, 0), i128::MAX); // true value 2^127 clamps
        assert_eq!(gcd(0, i128::MIN), i128::MAX);
        assert_eq!(gcd(i128::MIN, 3), 1);
        assert_eq!(gcd(i128::MIN + 1, i128::MIN + 1), i128::MAX); // |MIN+1| = MAX
                                                                  // lcm saturates instead of wrapping.
        assert_eq!(lcm(i128::MIN, 2), i128::MAX);
        assert_eq!(lcm(i128::MAX, 2), i128::MAX);
        assert_eq!(lcm(i128::MAX, i128::MAX), i128::MAX);
        assert_eq!(lcm(i128::MIN, 0), 0);
        // Exact results near the extremes stay exact.
        assert_eq!(lcm(i128::MAX, 1), i128::MAX);
        assert_eq!(gcd(i128::MAX, i128::MAX), i128::MAX);
    }

    #[test]
    fn normalization() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, -7), Rational::ZERO);
        assert_eq!(Rational::new(0, 7).denom(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = rat(1, 3);
        let b = rat(1, 6);
        assert_eq!(a + b, rat(1, 2));
        assert_eq!(a - b, rat(1, 6));
        assert_eq!(a * b, rat(1, 18));
        assert_eq!(a / b, rat(2, 1));
        assert_eq!(-a, rat(-1, 3));
    }

    #[test]
    fn ordering() {
        assert!(rat(1, 3) < rat(1, 2));
        assert!(rat(-1, 2) < rat(-1, 3));
        assert_eq!(rat(2, 4).cmp(&rat(1, 2)), Ordering::Equal);
        assert_eq!(rat(3, 4).max(rat(2, 3)), rat(3, 4));
        assert_eq!(rat(3, 4).min(rat(2, 3)), rat(2, 3));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(rat(7, 2).floor(), 3);
        assert_eq!(rat(7, 2).ceil(), 4);
        assert_eq!(rat(-7, 2).floor(), -4);
        assert_eq!(rat(-7, 2).ceil(), -3);
        assert_eq!(rat(6, 2).floor(), 3);
        assert_eq!(rat(6, 2).ceil(), 3);
    }

    #[test]
    fn pow_and_recip() {
        assert_eq!(rat(2, 3).pow(2), rat(4, 9));
        assert_eq!(rat(2, 3).pow(-1), rat(3, 2));
        assert_eq!(rat(2, 3).pow(0), Rational::ONE);
        assert_eq!(rat(5, 7).recip(), rat(7, 5));
    }

    #[test]
    fn display() {
        assert_eq!(rat(4, 2).to_string(), "2");
        assert_eq!(rat(-3, 6).to_string(), "-1/2");
    }

    #[test]
    fn sums_and_products() {
        let v = [rat(1, 2), rat(1, 3), rat(1, 6)];
        let s: Rational = v.iter().copied().sum();
        assert_eq!(s, Rational::ONE);
        let p: Rational = v.iter().copied().product();
        assert_eq!(p, rat(1, 36));
    }

    #[test]
    fn overflow_is_caught_not_wrapped() {
        // Every arithmetic path must raise a catchable RationalOverflow
        // instead of (in release) silently wrapping to a wrong exact value.
        let huge = Rational::from_int(i128::MAX);
        let tiny = Rational::new(1, i128::MAX);
        assert_eq!(
            RationalOverflow::catch(|| huge + huge),
            Err(RationalOverflow)
        );
        assert_eq!(
            RationalOverflow::catch(|| huge * huge),
            Err(RationalOverflow)
        );
        assert_eq!(
            RationalOverflow::catch(|| huge - Rational::from_int(i128::MIN)),
            Err(RationalOverflow)
        );
        // Comparison cross-multiplies, so it can overflow too.
        assert_eq!(
            RationalOverflow::catch(|| huge > tiny),
            Err(RationalOverflow)
        );
        // Negating i128::MIN does not fit.
        assert_eq!(
            RationalOverflow::catch(|| -Rational::from_int(i128::MIN)),
            Err(RationalOverflow)
        );
        // In-range work inside the catch passes through untouched.
        assert_eq!(RationalOverflow::catch(|| huge * Rational::ONE), Ok(huge));
    }

    #[test]
    fn overflow_catch_propagates_foreign_unwinds() {
        // A genuine panic escaping the closure must not be swallowed.
        let caught = std::panic::catch_unwind(|| {
            let _ = RationalOverflow::catch(|| panic!("not an overflow"));
        });
        assert!(caught.is_err(), "foreign panics must propagate");
    }

    #[test]
    fn conversions() {
        assert_eq!(Rational::from(3i32), rat(3, 1));
        assert_eq!(Rational::from(3i64), rat(3, 1));
        assert!((rat(1, 3).to_f64() - 0.3333333333).abs() < 1e-6);
    }
}
