//! The numeric abstraction shared by the exact and fast algorithm paths.

use std::fmt::{Debug, Display};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::{Rational, TotalF64};

/// A totally ordered field element used as a link capacity or flow rate.
///
/// The water-filling allocator, feasibility checks, and throughput sums in
/// `clos-fairness` are generic over `Scalar` so the same code runs in two
/// modes:
///
/// * **Exact** ([`Rational`]) — lexicographic optimality over routings is
///   decided exactly; used by everything that verifies a theorem.
/// * **Fast** ([`TotalF64`]) — large stochastic simulations where exactness
///   is unnecessary. [`Rational`]'s kernel keeps small values cheap (binary
///   GCDs, `i64` fast paths), but every operation still branches on
///   operand size and may reduce, while a float operation is one
///   instruction.
///
/// This trait is deliberately minimal: implementations must behave as an
/// ordered field on the values the allocator produces (non-negative rates
/// bounded by capacities). It is sealed in spirit — downstream crates are
/// not expected to implement it, but it is left open so tests can instrument
/// the allocator with counting wrappers.
///
/// # Examples
///
/// ```
/// use clos_rational::{Rational, Scalar, TotalF64};
///
/// fn half<S: Scalar>(x: S) -> S {
///     x / S::from_ratio(2, 1)
/// }
///
/// assert_eq!(half(Rational::ONE), Rational::new(1, 2));
/// assert_eq!(half(TotalF64::new(1.0)).get(), 0.5);
/// ```
pub trait Scalar:
    Copy
    + Ord
    + Debug
    + Display
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + Send
    + Sync
    + 'static
{
    /// The additive identity.
    fn zero() -> Self;

    /// The multiplicative identity.
    fn one() -> Self;

    /// Constructs the value `num / den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    fn from_ratio(num: u64, den: u64) -> Self;

    /// Converts an exact rational (e.g. a configured link capacity) into
    /// this scalar type, rounding if necessary.
    fn from_rational(value: Rational) -> Self;

    /// Converts to `f64` for reporting. Lossy for exact types.
    fn to_f64(self) -> f64;

    /// Returns `true` if the value is zero.
    fn is_zero(self) -> bool {
        self == Self::zero()
    }

    /// Constructs the integer value `n`.
    fn from_usize(n: usize) -> Self {
        Self::from_ratio(n as u64, 1)
    }

    /// Returns `self` after `k` sequential additions of `x`, bit for bit
    /// the value of `for _ in 0..k { acc += x }` starting from `self`.
    ///
    /// The default body is that loop, so a wrapper type that counts its
    /// operations sees every add. [`Rational`] computes `self + x · k`,
    /// which is exact; [`TotalF64`] steps whole binades at once (see
    /// its implementation), so the cost grows with the number of binades
    /// crossed rather than with `k`.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_rational::{Rational, Scalar, TotalF64};
    ///
    /// let tenth = TotalF64::new(0.1);
    /// let mut acc = TotalF64::ZERO;
    /// for _ in 0..1000 {
    ///     acc += tenth;
    /// }
    /// assert_eq!(TotalF64::ZERO.add_repeated(tenth, 1000), acc);
    /// assert_eq!(
    ///     Rational::ONE.add_repeated(Rational::new(1, 3), 6),
    ///     Rational::from_integer(3)
    /// );
    /// ```
    #[must_use]
    fn add_repeated(self, x: Self, k: usize) -> Self {
        let mut acc = self;
        for _ in 0..k {
            acc += x;
        }
        acc
    }
}

impl Scalar for Rational {
    #[inline]
    fn zero() -> Rational {
        Rational::ZERO
    }

    #[inline]
    fn one() -> Rational {
        Rational::ONE
    }

    #[inline]
    fn from_ratio(num: u64, den: u64) -> Rational {
        Rational::new(num as i128, den as i128)
    }

    #[inline]
    fn from_rational(value: Rational) -> Rational {
        value
    }

    #[inline]
    fn to_f64(self) -> f64 {
        Rational::to_f64(self)
    }

    #[inline]
    fn is_zero(self) -> bool {
        Rational::is_zero(self)
    }

    /// Exact arithmetic makes the `k` adds one multiply and one add, and
    /// canonical form makes the result identical to the loop's. The
    /// counts a waterfill round passes most often, 0 (weighted runs) and
    /// 1, skip the multiply.
    #[inline]
    fn add_repeated(self, x: Rational, k: usize) -> Rational {
        match k {
            0 => self,
            1 => self + x,
            _ => self + x * Rational::from(k),
        }
    }
}

impl Scalar for TotalF64 {
    #[inline]
    fn zero() -> TotalF64 {
        TotalF64::ZERO
    }

    #[inline]
    fn one() -> TotalF64 {
        TotalF64::ONE
    }

    #[inline]
    fn from_ratio(num: u64, den: u64) -> TotalF64 {
        assert!(den != 0, "zero denominator");
        TotalF64::new(num as f64 / den as f64)
    }

    #[inline]
    fn from_rational(value: Rational) -> TotalF64 {
        TotalF64::new(value.to_f64())
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self.get()
    }

    #[inline]
    fn is_zero(self) -> bool {
        TotalF64::is_zero(self)
    }

    #[inline]
    fn add_repeated(self, x: TotalF64, k: usize) -> TotalF64 {
        TotalF64::new(crate::total_f64::add_repeated(self.get(), x.get(), k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_of_halves<S: Scalar>(count: usize) -> S {
        let mut acc = S::zero();
        let half = S::from_ratio(1, 2);
        for _ in 0..count {
            acc += half;
        }
        acc
    }

    #[test]
    fn generic_code_runs_in_both_modes() {
        assert_eq!(sum_of_halves::<Rational>(4), Rational::TWO);
        assert_eq!(sum_of_halves::<TotalF64>(4).get(), 2.0);
    }

    #[test]
    fn from_ratio_matches_division() {
        assert_eq!(Rational::from_ratio(3, 6), Rational::new(1, 2));
        assert_eq!(TotalF64::from_ratio(3, 6).get(), 0.5);
    }

    #[test]
    fn from_usize_and_is_zero() {
        assert_eq!(Rational::from_usize(7), Rational::from_integer(7));
        assert_eq!(TotalF64::from_usize(7).get(), 7.0);
        assert!(Scalar::is_zero(Rational::ZERO));
        assert!(Scalar::is_zero(TotalF64::ZERO));
        assert!(!Scalar::is_zero(Rational::ONE));
    }

    #[test]
    fn from_rational_bridges_modes() {
        let r = Rational::new(2, 5);
        assert_eq!(<Rational as Scalar>::from_rational(r), r);
        assert!((<TotalF64 as Scalar>::from_rational(r).get() - 0.4).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn total_f64_from_ratio_zero_den_panics() {
        let _ = TotalF64::from_ratio(1, 0);
    }
}
