//! Link capacities: finite exact values or infinity.

use std::cmp::Ordering;
use std::fmt;

use clos_rational::Rational;

/// The capacity of a directed link.
///
/// Clos-network links have finite (typically unit) capacity; the mesh links
/// inside a macro-switch are infinite (§2.1 of the paper), meaning they never
/// constrain an allocation. Modeling infinity explicitly (rather than with a
/// large sentinel value) keeps the water-filling allocator exact: an
/// infinite-capacity link is simply never a candidate bottleneck.
///
/// # Examples
///
/// ```
/// use clos_net::Capacity;
/// use clos_rational::Rational;
///
/// let unit = Capacity::unit();
/// assert_eq!(unit.finite(), Some(Rational::ONE));
/// assert!(Capacity::Infinite > unit);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Capacity {
    /// A finite capacity. Must be non-negative.
    Finite(Rational),
    /// Unlimited capacity; the link never constrains an allocation.
    Infinite,
}

impl Capacity {
    /// Returns the unit capacity used by all Clos-network links in the paper.
    #[must_use]
    pub const fn unit() -> Capacity {
        Capacity::Finite(Rational::ONE)
    }

    /// Creates a finite capacity.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative.
    #[must_use]
    pub fn finite_value(value: Rational) -> Capacity {
        assert!(!value.is_negative(), "capacity must be non-negative");
        Capacity::Finite(value)
    }

    /// Returns the finite value, or `None` for [`Capacity::Infinite`].
    #[must_use]
    pub const fn finite(self) -> Option<Rational> {
        match self {
            Capacity::Finite(v) => Some(v),
            Capacity::Infinite => None,
        }
    }

    /// Returns `true` if the capacity is infinite.
    #[must_use]
    pub const fn is_infinite(self) -> bool {
        matches!(self, Capacity::Infinite)
    }

    /// Returns `true` if a total load fits within this capacity.
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_net::Capacity;
    /// use clos_rational::Rational;
    ///
    /// assert!(Capacity::unit().admits(Rational::new(2, 3)));
    /// assert!(!Capacity::unit().admits(Rational::new(4, 3)));
    /// assert!(Capacity::Infinite.admits(Rational::from_integer(1_000_000)));
    /// ```
    #[must_use]
    pub fn admits(self, load: Rational) -> bool {
        match self {
            Capacity::Finite(c) => load <= c,
            Capacity::Infinite => true,
        }
    }
}

impl Default for Capacity {
    /// The unit capacity, matching the paper's link model.
    fn default() -> Capacity {
        Capacity::unit()
    }
}

impl fmt::Display for Capacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Capacity::Finite(v) => write!(f, "{v}"),
            Capacity::Infinite => write!(f, "inf"),
        }
    }
}

impl PartialOrd for Capacity {
    fn partial_cmp(&self, other: &Capacity) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Capacity {
    fn cmp(&self, other: &Capacity) -> Ordering {
        match (self, other) {
            (Capacity::Finite(a), Capacity::Finite(b)) => a.cmp(b),
            (Capacity::Finite(_), Capacity::Infinite) => Ordering::Less,
            (Capacity::Infinite, Capacity::Finite(_)) => Ordering::Greater,
            (Capacity::Infinite, Capacity::Infinite) => Ordering::Equal,
        }
    }
}

impl From<Rational> for Capacity {
    /// # Panics
    ///
    /// Panics if `value` is negative.
    fn from(value: Rational) -> Capacity {
        Capacity::finite_value(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_is_default() {
        assert_eq!(Capacity::default(), Capacity::unit());
        assert_eq!(Capacity::unit().finite(), Some(Rational::ONE));
    }

    #[test]
    fn admits_respects_bounds() {
        let half = Capacity::finite_value(Rational::new(1, 2));
        assert!(half.admits(Rational::new(1, 2)));
        assert!(!half.admits(Rational::new(2, 3)));
        assert!(Capacity::Infinite.admits(Rational::from_integer(i64::MAX as i128)));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_capacity_rejected() {
        let _ = Capacity::finite_value(Rational::new(-1, 2));
    }

    #[test]
    fn infinite_dominates_order() {
        let big = Capacity::finite_value(Rational::from_integer(1 << 60));
        assert!(Capacity::Infinite > big);
        assert!(big > Capacity::unit());
        assert_eq!(Capacity::Infinite.cmp(&Capacity::Infinite), Ordering::Equal);
    }

    #[test]
    fn display() {
        assert_eq!(Capacity::unit().to_string(), "1");
        assert_eq!(Capacity::Infinite.to_string(), "inf");
        assert_eq!(
            Capacity::finite_value(Rational::new(3, 2)).to_string(),
            "3/2"
        );
    }

    #[test]
    fn conversion_from_rational() {
        let c: Capacity = Rational::new(2, 1).into();
        assert_eq!(c.finite(), Some(Rational::TWO));
        assert!(!c.is_infinite());
        assert!(Capacity::Infinite.is_infinite());
    }
}
