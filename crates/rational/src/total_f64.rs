//! A totally ordered, NaN-free `f64` newtype.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

use crate::Rational;

/// A finite `f64` with a total order, for the fast (inexact) algorithm path.
///
/// The large-scale simulator in `clos-sim` runs the same water-filling
/// allocator as the exact path but over floating point, where speed matters
/// and the tolerance for rounding is explicit. `f64` itself is not [`Ord`]
/// because of NaN; `TotalF64` statically rules NaN out at construction so the
/// generic allocator can sort and compare rates without panicking branches.
///
/// # Examples
///
/// ```
/// use clos_rational::TotalF64;
///
/// let a = TotalF64::new(0.25);
/// let b = TotalF64::new(0.5);
/// assert!(a < b);
/// assert_eq!((a + a).get(), 0.5);
/// ```
#[derive(Clone, Copy, PartialEq, Default)]
pub struct TotalF64(f64);

impl TotalF64 {
    /// The value zero.
    pub const ZERO: TotalF64 = TotalF64(0.0);
    /// The value one.
    pub const ONE: TotalF64 = TotalF64(1.0);

    /// Wraps a finite `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN. Infinities are allowed (they model
    /// infinite-capacity macro-switch links).
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_rational::TotalF64;
    ///
    /// let x = TotalF64::new(1.5);
    /// assert_eq!(x.get(), 1.5);
    /// ```
    #[inline]
    #[must_use]
    pub fn new(value: f64) -> TotalF64 {
        assert!(!value.is_nan(), "TotalF64 cannot hold NaN");
        TotalF64(value)
    }

    /// Returns the wrapped `f64`.
    #[inline]
    #[must_use]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Returns `true` if the value is exactly zero.
    #[inline]
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Returns the smaller of `self` and `other`.
    #[inline]
    #[must_use]
    pub fn min(self, other: TotalF64) -> TotalF64 {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of `self` and `other`.
    #[inline]
    #[must_use]
    pub fn max(self, other: TotalF64) -> TotalF64 {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the absolute value.
    #[must_use]
    pub fn abs(self) -> TotalF64 {
        TotalF64(self.0.abs())
    }
}

/// Returns `acc` after `k` sequential round-to-nearest-even additions of
/// `x`, bit for bit, with a cost that grows with the number of binades
/// the sum crosses rather than with `k`.
///
/// Inside one binade `[2^e, 2^(e+1))` every float is a multiple of the
/// binade's ulp `u`, and the parity of that multiple is the parity of
/// the bit pattern. While a sum stays below the binade top, `a + x`
/// therefore rounds to the multiple of `u` nearest the exact sum, ties to
/// the even one, and translating `a` by an even number of ulps
/// translates the rounded sum by the same number. So once two real steps
/// `a1 -> a2 -> a3` stay in one binade and move up by an even number `d`
/// of ulps, every further pair of steps moves up by exactly `d` ulps,
/// until the pair would end at the binade top. The kernel jumps over
/// those pairs with integer arithmetic on the bit patterns, then takes
/// real steps into the next binade. An odd move (the first step of a
/// tie) is followed by an even one, since a tie rounds to an even
/// pattern. Zero, negative, and subnormal sums and short runs take real
/// steps; a step that changes nothing ends the run.
#[inline]
pub(crate) fn add_repeated(mut acc: f64, x: f64, k: usize) -> f64 {
    /// Below this many adds, probing for a jump costs more than it saves.
    const MIN_JUMP: usize = 32;
    // Most waterfill rounds add a level only once or twice per link:
    // three unconditional adds and a select spare them a loop exit whose
    // trip count the branch predictor cannot guess.
    if k <= 3 {
        let a1 = acc + x;
        let a2 = a1 + x;
        return [acc, a1, a2, a2 + x][k];
    }
    if k < MIN_JUMP || !x.is_finite() {
        for _ in 0..k {
            acc += x;
        }
        return acc;
    }
    add_repeated_by_binades(acc, x, k)
}

/// The jumping half of [`add_repeated`], kept out of line so that short
/// runs inline as the plain loop.
fn add_repeated_by_binades(mut acc: f64, x: f64, mut k: usize) -> f64 {
    while k >= 2 {
        let a1 = acc;
        let a2 = a1 + x;
        if a2.to_bits() == a1.to_bits() {
            // A fixed point: every further add returns `a1` again.
            return a1;
        }
        let a3 = a2 + x;
        acc = a3;
        k -= 2;
        let (b1, b3) = (a1.to_bits(), a3.to_bits());
        // `a1` is positive and normal, and `a3` shares its sign and
        // exponent bits (so `a2`, between them, does too).
        if a1 >= f64::MIN_POSITIVE && b1 >> 52 == b3 >> 52 && b3 > b1 && (b3 - b1) % 2 == 0 {
            let d = b3 - b1;
            let top = ((b1 >> 52) + 1) << 52;
            // Each jumped pair must end at most one ulp below the top.
            let pairs = ((top - 1 - b3) / d).min((k / 2) as u64);
            acc = f64::from_bits(b3 + pairs * d);
            k -= 2 * pairs as usize;
        }
    }
    if k == 1 {
        acc += x;
    }
    acc
}

impl Eq for TotalF64 {}

// NaN is excluded at construction, so the plain float comparisons are a
// total order (with -0.0 == +0.0, as `PartialEq` has it).
impl PartialOrd for TotalF64 {
    #[inline]
    fn partial_cmp(&self, other: &TotalF64) -> Option<Ordering> {
        Some(self.cmp(other))
    }

    #[inline]
    fn lt(&self, other: &TotalF64) -> bool {
        self.0 < other.0
    }

    #[inline]
    fn le(&self, other: &TotalF64) -> bool {
        self.0 <= other.0
    }

    #[inline]
    fn gt(&self, other: &TotalF64) -> bool {
        self.0 > other.0
    }

    #[inline]
    fn ge(&self, other: &TotalF64) -> bool {
        self.0 >= other.0
    }
}

impl Ord for TotalF64 {
    #[inline]
    fn cmp(&self, other: &TotalF64) -> Ordering {
        if self.0 < other.0 {
            Ordering::Less
        } else if self.0 > other.0 {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    }
}

impl std::hash::Hash for TotalF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Normalize -0.0 to 0.0 so Hash agrees with PartialEq.
        let bits = if self.0 == 0.0 {
            0u64
        } else {
            self.0.to_bits()
        };
        bits.hash(state);
    }
}

impl fmt::Debug for TotalF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl fmt::Display for TotalF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl FromStr for TotalF64 {
    type Err = std::num::ParseFloatError;

    fn from_str(s: &str) -> Result<TotalF64, Self::Err> {
        let v: f64 = s.parse()?;
        Ok(TotalF64::new(v))
    }
}

impl From<f64> for TotalF64 {
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    fn from(value: f64) -> TotalF64 {
        TotalF64::new(value)
    }
}

impl From<Rational> for TotalF64 {
    fn from(value: Rational) -> TotalF64 {
        TotalF64::new(value.to_f64())
    }
}

impl From<TotalF64> for f64 {
    fn from(value: TotalF64) -> f64 {
        value.0
    }
}

impl Add for TotalF64 {
    type Output = TotalF64;

    #[inline]
    fn add(self, rhs: TotalF64) -> TotalF64 {
        TotalF64::new(self.0 + rhs.0)
    }
}

impl Sub for TotalF64 {
    type Output = TotalF64;

    #[inline]
    fn sub(self, rhs: TotalF64) -> TotalF64 {
        TotalF64::new(self.0 - rhs.0)
    }
}

impl Mul for TotalF64 {
    type Output = TotalF64;

    #[inline]
    fn mul(self, rhs: TotalF64) -> TotalF64 {
        TotalF64::new(self.0 * rhs.0)
    }
}

impl Div for TotalF64 {
    type Output = TotalF64;

    #[inline]
    fn div(self, rhs: TotalF64) -> TotalF64 {
        TotalF64::new(self.0 / rhs.0)
    }
}

impl Neg for TotalF64 {
    type Output = TotalF64;

    #[inline]
    fn neg(self) -> TotalF64 {
        TotalF64(-self.0)
    }
}

impl AddAssign for TotalF64 {
    #[inline]
    fn add_assign(&mut self, rhs: TotalF64) {
        *self = *self + rhs;
    }
}

impl SubAssign for TotalF64 {
    #[inline]
    fn sub_assign(&mut self, rhs: TotalF64) {
        *self = *self - rhs;
    }
}

impl MulAssign for TotalF64 {
    #[inline]
    fn mul_assign(&mut self, rhs: TotalF64) {
        *self = *self * rhs;
    }
}

impl DivAssign for TotalF64 {
    #[inline]
    fn div_assign(&mut self, rhs: TotalF64) {
        *self = *self / rhs;
    }
}

impl Sum for TotalF64 {
    fn sum<I: Iterator<Item = TotalF64>>(iter: I) -> TotalF64 {
        iter.fold(TotalF64::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a TotalF64> for TotalF64 {
    fn sum<I: Iterator<Item = &'a TotalF64>>(iter: I) -> TotalF64 {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let x = TotalF64::new(2.5);
        assert_eq!(x.get(), 2.5);
        assert_eq!(f64::from(x), 2.5);
        assert_eq!(TotalF64::from(0.5).get(), 0.5);
    }

    #[test]
    #[should_panic(expected = "cannot hold NaN")]
    fn nan_rejected() {
        let _ = TotalF64::new(f64::NAN);
    }

    #[test]
    fn infinity_allowed_and_sorts_last() {
        let inf = TotalF64::new(f64::INFINITY);
        assert!(inf > TotalF64::new(1e300));
    }

    #[test]
    fn total_order_sorts() {
        let mut v = vec![
            TotalF64::new(0.5),
            TotalF64::new(-1.0),
            TotalF64::ZERO,
            TotalF64::ONE,
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                TotalF64::new(-1.0),
                TotalF64::ZERO,
                TotalF64::new(0.5),
                TotalF64::ONE,
            ]
        );
    }

    #[test]
    fn arithmetic() {
        let a = TotalF64::new(0.25);
        let b = TotalF64::new(0.5);
        assert_eq!((a + b).get(), 0.75);
        assert_eq!((b - a).get(), 0.25);
        assert_eq!((a * b).get(), 0.125);
        assert_eq!((b / a).get(), 2.0);
        assert_eq!((-a).get(), -0.25);
        assert_eq!(a.abs(), a);
        assert_eq!((-a).abs(), a);
    }

    #[test]
    fn assign_ops() {
        let mut x = TotalF64::new(1.0);
        x += TotalF64::new(1.0);
        x *= TotalF64::new(3.0);
        x -= TotalF64::new(2.0);
        x /= TotalF64::new(4.0);
        assert_eq!(x.get(), 1.0);
    }

    #[test]
    fn from_rational_is_close() {
        let x = TotalF64::from(Rational::new(1, 3));
        assert!((x.get() - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn hash_agrees_with_eq_for_zero() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: TotalF64| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(TotalF64::new(0.0), TotalF64::new(-0.0));
        assert_eq!(h(TotalF64::new(0.0)), h(TotalF64::new(-0.0)));
    }

    #[test]
    fn parse() {
        let x: TotalF64 = "0.75".parse().unwrap();
        assert_eq!(x.get(), 0.75);
        assert!("zzz".parse::<TotalF64>().is_err());
    }

    #[test]
    fn sum_folds() {
        let v = [TotalF64::new(0.5); 4];
        let s: TotalF64 = v.iter().sum();
        assert_eq!(s.get(), 2.0);
    }
}
