//! The exact rational number type.

use std::cmp::Ordering;
use std::error::Error;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number with an `i128` numerator and denominator.
///
/// Values are always kept in canonical form: the denominator is strictly
/// positive and the numerator and denominator are coprime. Canonical form
/// makes structural equality ([`PartialEq`]/[`Hash`]) coincide with numeric
/// equality, which the workspace relies on when deduplicating rate vectors.
///
/// # Overflow
///
/// All arithmetic is overflow-checked internally. Intermediate products are
/// computed after cross-reduction by greatest common divisors, which keeps
/// magnitudes as small as mathematically possible; if a result still cannot
/// be represented the operation panics rather than silently wrapping. The
/// allocations produced by water-filling over unit-capacity Clos networks
/// have numerators and denominators far below `i128::MAX`, so overflow only
/// indicates a logic error upstream.
///
/// # Cost
///
/// The canonical form above is the only representation; the kernel just
/// reaches it with less work when the operands allow. GCDs are binary
/// (no 128-bit division), on `u64` when both magnitudes fit. Operands
/// with equal denominators add and compare without a GCD, and integers
/// add and multiply without one. Values whose parts fit in `i64`
/// multiply and compare through single widening multiplies. A sum over
/// coprime denominators and every cross-reduced product come out already
/// reduced, so they skip the final GCD. Each shortcut returns exactly
/// what the general path would, `None` on overflow included. The small
/// operations are `#[inline]`, so other crates compile these checks into
/// their own loops.
///
/// # Examples
///
/// ```
/// use clos_rational::Rational;
///
/// let r = Rational::new(6, -8);
/// assert_eq!(r, Rational::new(-3, 4));
/// assert_eq!(r.numerator(), -3);
/// assert_eq!(r.denominator(), 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

/// The error returned when parsing a [`Rational`] from a string fails.
///
/// Produced by the [`FromStr`] implementation of [`Rational`].
///
/// # Examples
///
/// ```
/// use clos_rational::Rational;
///
/// assert!("1/0".parse::<Rational>().is_err());
/// assert!("abc".parse::<Rational>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError {
    kind: ParseErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseErrorKind {
    InvalidInteger,
    ZeroDenominator,
}

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseErrorKind::InvalidInteger => write!(f, "invalid integer in rational literal"),
            ParseErrorKind::ZeroDenominator => write!(f, "rational literal has zero denominator"),
        }
    }
}

impl Error for ParseRationalError {}

/// Greatest common divisor of `|a|` and `|b|` by binary (Stein) GCD.
///
/// Runs on `u64` when both magnitudes fit and on `u128` otherwise, so no
/// step needs a 128-bit division. The result only reaches `2^127` for
/// `gcd(i128::MIN, i128::MIN)` and `gcd(i128::MIN, 0)`, where the cast
/// back wraps to `i128::MIN`; dividing either operand by it then yields
/// `1` or `0`, so `Rational::new` still canonicalises those inputs.
fn gcd(a: i128, b: i128) -> i128 {
    let (a, b) = (a.unsigned_abs(), b.unsigned_abs());
    if (a | b) >> 64 == 0 {
        i128::from(gcd_u64(a as u64, b as u64))
    } else {
        gcd_u128(a, b) as i128
    }
}

fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };
    /// The rational number two.
    pub const TWO: Rational = Rational { num: 2, den: 1 };

    /// Creates a rational from a numerator and denominator, normalizing signs
    /// and reducing by the greatest common divisor.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`, or if `num == i128::MIN` and normalization would
    /// overflow.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_rational::Rational;
    ///
    /// assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
    /// assert_eq!(Rational::new(1, -2), Rational::new(-1, 2));
    /// ```
    #[inline]
    #[must_use]
    pub fn new(num: i128, den: i128) -> Rational {
        assert!(den != 0, "rational denominator must be nonzero");
        if den == 1 {
            return Rational { num, den };
        }
        // `den != 0`, so the gcd is nonzero.
        let g = gcd(num, den);
        let (mut num, mut den) = (Rational::div_gcd(num, g), Rational::div_gcd(den, g));
        if den < 0 {
            num = num.checked_neg().expect("rational normalization overflow");
            den = den.checked_neg().expect("rational normalization overflow");
        }
        Rational { num, den }
    }

    /// Creates a rational representing the integer `value`.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_rational::Rational;
    ///
    /// assert_eq!(Rational::from_integer(3), Rational::new(3, 1));
    /// ```
    #[inline]
    #[must_use]
    pub const fn from_integer(value: i128) -> Rational {
        Rational { num: value, den: 1 }
    }

    /// Returns the numerator in canonical (reduced, sign-normalized) form.
    #[inline]
    #[must_use]
    pub const fn numerator(self) -> i128 {
        self.num
    }

    /// Returns the denominator in canonical form; always strictly positive.
    #[inline]
    #[must_use]
    pub const fn denominator(self) -> i128 {
        self.den
    }

    /// Returns `true` if the value is exactly zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_rational::Rational;
    ///
    /// assert!(Rational::ZERO.is_zero());
    /// assert!(!Rational::new(1, 9).is_zero());
    /// ```
    #[inline]
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Returns `true` if the value is strictly positive.
    #[inline]
    #[must_use]
    pub const fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Returns `true` if the value is strictly negative.
    #[inline]
    #[must_use]
    pub const fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Returns `true` if the value is an integer (denominator one).
    #[inline]
    #[must_use]
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Returns the absolute value.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_rational::Rational;
    ///
    /// assert_eq!(Rational::new(-1, 2).abs(), Rational::new(1, 2));
    /// ```
    #[inline]
    #[must_use]
    pub fn abs(self) -> Rational {
        if self.num < 0 {
            -self
        } else {
            self
        }
    }

    /// Returns the multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_rational::Rational;
    ///
    /// assert_eq!(Rational::new(2, 3).recip(), Rational::new(3, 2));
    /// ```
    #[must_use]
    pub fn recip(self) -> Rational {
        assert!(!self.is_zero(), "cannot invert zero");
        Rational::new(self.den, self.num)
    }

    /// Returns the smaller of `self` and `other`.
    #[inline]
    #[must_use]
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of `self` and `other`.
    #[inline]
    #[must_use]
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Checked addition; returns `None` on overflow.
    #[inline]
    #[must_use]
    pub fn checked_add(self, rhs: Rational) -> Option<Rational> {
        if self.den == rhs.den {
            // a/b + c/b = (a + c)/b: the denominator gcd is b itself.
            let num = self.num.checked_add(rhs.num)?;
            if self.den == 1 {
                return Some(Rational { num, den: 1 });
            }
            return Some(Rational::new(num, self.den));
        }
        // a/b + c/d = (a*(d/g) + c*(b/g)) / (b/g*d) with g = gcd(b, d).
        let g = gcd(self.den, rhs.den);
        let lhs_scale = Rational::div_gcd(rhs.den, g);
        let rhs_scale = Rational::div_gcd(self.den, g);
        let num = Rational::mul_wide(self.num, lhs_scale)?
            .checked_add(Rational::mul_wide(rhs.num, rhs_scale)?)?;
        let den = Rational::mul_wide(self.den, lhs_scale)?;
        if g == 1 {
            // Coprime denominators: a prime dividing b divides neither d
            // nor a, so it cannot divide a*d + c*b (and likewise for d);
            // the sum is already in lowest terms with a positive
            // denominator.
            return Some(Rational { num, den });
        }
        Some(Rational::new(num, den))
    }

    /// Checked subtraction; returns `None` on overflow.
    #[inline]
    #[must_use]
    pub fn checked_sub(self, rhs: Rational) -> Option<Rational> {
        self.checked_add(Rational {
            num: rhs.num.checked_neg()?,
            den: rhs.den,
        })
    }

    /// Checked multiplication; returns `None` on overflow.
    #[inline]
    #[must_use]
    pub fn checked_mul(self, rhs: Rational) -> Option<Rational> {
        if self.den == 1 && rhs.den == 1 {
            return Some(Rational {
                num: Rational::mul_wide(self.num, rhs.num)?,
                den: 1,
            });
        }
        // Cross-reduce before multiplying to keep magnitudes minimal.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let num = Rational::mul_wide(
            Rational::div_gcd(self.num, g1),
            Rational::div_gcd(rhs.num, g2),
        )?;
        let den = Rational::mul_wide(
            Rational::div_gcd(self.den, g2),
            Rational::div_gcd(rhs.den, g1),
        )?;
        // Each operand is in lowest terms (`checked_div` swaps a canonical
        // divisor's parts, which keeps them coprime), so the cross-reduced
        // product is too: only a negative denominator still needs `new`.
        if den > 0 {
            return Some(Rational { num, den });
        }
        Some(Rational::new(num, den))
    }

    /// Checked division; returns `None` on overflow or division by zero.
    #[inline]
    #[must_use]
    pub fn checked_div(self, rhs: Rational) -> Option<Rational> {
        if rhs.is_zero() {
            return None;
        }
        self.checked_mul(Rational {
            num: rhs.den,
            den: rhs.num,
        })
    }

    /// Converts to the nearest `f64`.
    ///
    /// The conversion is lossy for denominators that are not powers of two;
    /// it is intended for reporting and plotting only, never for comparisons
    /// that decide algorithmic outcomes.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_rational::Rational;
    ///
    /// assert!((Rational::new(1, 3).to_f64() - 0.333_333).abs() < 1e-5);
    /// ```
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Rounds toward negative infinity to the nearest integer.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_rational::Rational;
    ///
    /// assert_eq!(Rational::new(7, 2).floor(), 3);
    /// assert_eq!(Rational::new(-7, 2).floor(), -4);
    /// ```
    #[must_use]
    pub fn floor(self) -> i128 {
        // The denominator is positive, so Euclidean division rounds toward
        // negative infinity and cannot overflow.
        self.num.div_euclid(self.den)
    }

    /// Rounds toward positive infinity to the nearest integer.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_rational::Rational;
    ///
    /// assert_eq!(Rational::new(7, 2).ceil(), 4);
    /// assert_eq!(Rational::new(-7, 2).ceil(), -3);
    /// ```
    #[must_use]
    pub fn ceil(self) -> i128 {
        // In canonical form a non-integer has a denominator above one, so
        // its floor is at most `i128::MAX / 2` and the increment is safe.
        self.floor() + i128::from(!self.is_integer())
    }

    /// Returns `true` if `x` is representable as an `i64`.
    #[inline]
    const fn fits_i64(x: i128) -> bool {
        x as i64 as i128 == x
    }

    /// Checked `a * b`, as one widening `i64` multiply (which cannot
    /// overflow `i128`) when both operands fit.
    #[inline]
    fn mul_wide(a: i128, b: i128) -> Option<i128> {
        if Rational::fits_i64(a) & Rational::fits_i64(b) {
            Some(i128::from(a as i64) * i128::from(b as i64))
        } else {
            a.checked_mul(b)
        }
    }

    /// `a / g` for a `g` returned by [`gcd`]: skipped for `g == 1`, and an
    /// `i64` division when both fit (a fitting `g` is positive, so the
    /// division cannot overflow).
    #[inline]
    fn div_gcd(a: i128, g: i128) -> i128 {
        if g == 1 {
            a
        } else if Rational::fits_i64(a) & Rational::fits_i64(g) {
            i128::from(a as i64 / g as i64)
        } else {
            a / g
        }
    }
}

impl Default for Rational {
    fn default() -> Rational {
        Rational::ZERO
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
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

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Parses `"a"` or `"a/b"` with optional leading sign.
    fn from_str(s: &str) -> Result<Rational, ParseRationalError> {
        let invalid = || ParseRationalError {
            kind: ParseErrorKind::InvalidInteger,
        };
        match s.split_once('/') {
            None => {
                let num: i128 = s.trim().parse().map_err(|_| invalid())?;
                Ok(Rational::from_integer(num))
            }
            Some((a, b)) => {
                let num: i128 = a.trim().parse().map_err(|_| invalid())?;
                let den: i128 = b.trim().parse().map_err(|_| invalid())?;
                if den == 0 {
                    return Err(ParseRationalError {
                        kind: ParseErrorKind::ZeroDenominator,
                    });
                }
                Ok(Rational::new(num, den))
            }
        }
    }
}

impl From<i128> for Rational {
    fn from(value: i128) -> Rational {
        Rational::from_integer(value)
    }
}

impl From<i64> for Rational {
    fn from(value: i64) -> Rational {
        Rational::from_integer(value as i128)
    }
}

impl From<u64> for Rational {
    fn from(value: u64) -> Rational {
        Rational::from_integer(value as i128)
    }
}

impl From<u32> for Rational {
    fn from(value: u32) -> Rational {
        Rational::from_integer(value as i128)
    }
}

impl From<i32> for Rational {
    fn from(value: i32) -> Rational {
        Rational::from_integer(value as i128)
    }
}

impl From<usize> for Rational {
    fn from(value: usize) -> Rational {
        Rational::from_integer(value as i128)
    }
}

impl PartialOrd for Rational {
    #[inline]
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    #[inline]
    fn cmp(&self, other: &Rational) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b  (denominators positive).
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        if Rational::fits_i64(self.num)
            & Rational::fits_i64(self.den)
            & Rational::fits_i64(other.num)
            & Rational::fits_i64(other.den)
        {
            // Products of two i64 values cannot overflow i128.
            let lhs = i128::from(self.num as i64) * i128::from(other.den as i64);
            let rhs = i128::from(other.num as i64) * i128::from(self.den as i64);
            return lhs.cmp(&rhs);
        }
        // Cross-reduce by the denominators' gcd to keep large products in
        // range.
        let g_den = gcd(self.den, other.den);
        let lhs = self.num.checked_mul(other.den / g_den);
        let rhs = other.num.checked_mul(self.den / g_den);
        match (lhs, rhs) {
            (Some(l), Some(r)) => l.cmp(&r),
            // Extremely large operands: fall back to exact subtraction
            // (which cross-reduces further) and compare the sign.
            _ => {
                let diff = self
                    .checked_sub(*other)
                    .expect("rational comparison overflow");
                diff.num.cmp(&0)
            }
        }
    }
}

impl Add for Rational {
    type Output = Rational;

    #[inline]
    fn add(self, rhs: Rational) -> Rational {
        self.checked_add(rhs).expect("rational addition overflow")
    }
}

impl Sub for Rational {
    type Output = Rational;

    #[inline]
    fn sub(self, rhs: Rational) -> Rational {
        self.checked_sub(rhs)
            .expect("rational subtraction overflow")
    }
}

impl Mul for Rational {
    type Output = Rational;

    #[inline]
    fn mul(self, rhs: Rational) -> Rational {
        self.checked_mul(rhs)
            .expect("rational multiplication overflow")
    }
}

impl Div for Rational {
    type Output = Rational;

    /// # Panics
    ///
    /// Panics on division by zero or overflow.
    #[inline]
    fn div(self, rhs: Rational) -> Rational {
        assert!(!rhs.is_zero(), "rational division by zero");
        self.checked_div(rhs).expect("rational division overflow")
    }
}

impl Neg for Rational {
    type Output = Rational;

    #[inline]
    fn neg(self) -> Rational {
        Rational {
            num: self.num.checked_neg().expect("rational negation overflow"),
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    #[inline]
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    #[inline]
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    #[inline]
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rational {
    #[inline]
    fn div_assign(&mut self, rhs: Rational) {
        *self = *self / rhs;
    }
}

impl Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Rational> for Rational {
    fn sum<I: Iterator<Item = &'a Rational>>(iter: I) -> Rational {
        iter.copied().sum()
    }
}

impl Product for Rational {
    fn product<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ONE, Mul::mul)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_reduces_and_normalizes_sign() {
        assert_eq!(Rational::new(4, 8), Rational::new(1, 2));
        assert_eq!(Rational::new(-4, 8), Rational::new(-1, 2));
        assert_eq!(Rational::new(4, -8), Rational::new(-1, 2));
        assert_eq!(Rational::new(-4, -8), Rational::new(1, 2));
        assert_eq!(Rational::new(0, -7), Rational::ZERO);
        assert_eq!(Rational::new(0, 7).denominator(), 1);
    }

    #[test]
    #[should_panic(expected = "denominator must be nonzero")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 6);
        assert_eq!(a + b, Rational::new(1, 2));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 18));
        assert_eq!(a / b, Rational::TWO);
        assert_eq!(-a, Rational::new(-1, 3));
        assert_eq!(a + Rational::ZERO, a);
        assert_eq!(a * Rational::ONE, a);
    }

    #[test]
    fn assignment_operators() {
        let mut r = Rational::new(1, 2);
        r += Rational::new(1, 3);
        assert_eq!(r, Rational::new(5, 6));
        r -= Rational::new(1, 6);
        assert_eq!(r, Rational::new(2, 3));
        r *= Rational::new(3, 4);
        assert_eq!(r, Rational::new(1, 2));
        r /= Rational::new(1, 4);
        assert_eq!(r, Rational::TWO);
    }

    #[test]
    fn ordering_is_numeric() {
        let mut v = vec![
            Rational::new(1, 2),
            Rational::new(1, 3),
            Rational::new(2, 3),
            Rational::ZERO,
            Rational::ONE,
            Rational::new(-1, 4),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Rational::new(-1, 4),
                Rational::ZERO,
                Rational::new(1, 3),
                Rational::new(1, 2),
                Rational::new(2, 3),
                Rational::ONE,
            ]
        );
    }

    #[test]
    fn ordering_survives_large_denominators() {
        // Close fractions with large coprime denominators.
        let a = Rational::new(100_000_000_000_000_000, 100_000_000_000_000_001);
        let b = Rational::new(100_000_000_000_000_001, 100_000_000_000_000_002);
        assert!(a < b);
        assert!(b < Rational::ONE);
    }

    #[test]
    fn display_round_trips_through_parse() {
        for s in ["1/2", "-3/7", "5", "0", "-12"] {
            let r: Rational = s.parse().unwrap();
            assert_eq!(r.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Rational>().is_err());
        assert!("x/2".parse::<Rational>().is_err());
        assert!("1/0".parse::<Rational>().is_err());
        assert!("1//2".parse::<Rational>().is_err());
    }

    #[test]
    fn parse_accepts_whitespace() {
        assert_eq!(" 1 / 2 ".parse::<Rational>().unwrap(), Rational::new(1, 2));
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::from_integer(5).floor(), 5);
        assert_eq!(Rational::from_integer(5).ceil(), 5);
        assert_eq!(Rational::ZERO.floor(), 0);
    }

    #[test]
    fn recip_and_abs() {
        assert_eq!(Rational::new(-2, 3).abs(), Rational::new(2, 3));
        assert_eq!(Rational::new(2, 3).recip(), Rational::new(3, 2));
        assert_eq!(Rational::new(-2, 3).recip(), Rational::new(-3, 2));
    }

    #[test]
    #[should_panic(expected = "cannot invert zero")]
    fn recip_of_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Rational::ONE / Rational::ZERO;
    }

    #[test]
    fn checked_ops_catch_overflow() {
        let big = Rational::from_integer(i128::MAX);
        assert!(big.checked_add(Rational::ONE).is_none());
        assert!(big.checked_mul(Rational::TWO).is_none());
        assert!(big.checked_sub(-Rational::ONE).is_none());
        assert!(Rational::ONE.checked_div(Rational::ZERO).is_none());
    }

    #[test]
    fn sum_and_product_fold_correctly() {
        let v = [
            Rational::new(1, 2),
            Rational::new(1, 3),
            Rational::new(1, 6),
        ];
        let total: Rational = v.iter().sum();
        assert_eq!(total, Rational::ONE);
        let prod: Rational = v.iter().copied().product();
        assert_eq!(prod, Rational::new(1, 36));
    }

    #[test]
    fn min_max() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn to_f64_is_close() {
        assert!((Rational::new(2, 3).to_f64() - 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn conversion_constructors() {
        assert_eq!(Rational::from(3u32), Rational::from_integer(3));
        assert_eq!(Rational::from(-3i64), Rational::from_integer(-3));
        assert_eq!(Rational::from(7usize), Rational::from_integer(7));
    }
}
