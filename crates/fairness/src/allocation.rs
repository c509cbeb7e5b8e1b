//! Rate allocations and sorted rate vectors.

use std::cmp::Ordering;
use std::fmt;

use clos_net::FlowId;
use clos_rational::Scalar;

/// An allocation: one non-negative rate per flow (§2.2).
///
/// Allocations are indexed by [`FlowId`] (the flow's position in its
/// collection). The two quantities the paper studies are derived here:
/// [`Allocation::throughput`] (the total rate, `t(a)`) and
/// [`Allocation::sorted`] (the sorted vector `a↑` compared in lexicographic
/// order).
///
/// # Examples
///
/// ```
/// use clos_fairness::Allocation;
/// use clos_net::FlowId;
/// use clos_rational::Rational;
///
/// let a = Allocation::from_rates(vec![Rational::ONE, Rational::new(1, 2)]);
/// assert_eq!(a.rate(FlowId::new(1)), Rational::new(1, 2));
/// assert_eq!(a.throughput(), Rational::new(3, 2));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Allocation<S> {
    rates: Vec<S>,
}

impl<S: Scalar> Allocation<S> {
    /// Creates an allocation from per-flow rates in flow order.
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative.
    #[must_use]
    pub fn from_rates(rates: Vec<S>) -> Allocation<S> {
        assert!(
            rates.iter().all(|r| *r >= S::zero()),
            "allocation rates must be non-negative"
        );
        Allocation { rates }
    }

    /// Returns the rate of `flow`.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is out of range.
    #[must_use]
    pub fn rate(&self, flow: FlowId) -> S {
        self.rates[flow.index()]
    }

    /// Returns all rates in flow order.
    #[must_use]
    pub fn rates(&self) -> &[S] {
        &self.rates
    }

    /// Returns the number of flows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Returns `true` if the allocation covers no flows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Returns the throughput `t(a)`: the total rate over all flows.
    #[must_use]
    pub fn throughput(&self) -> S {
        let mut total = S::zero();
        for &r in &self.rates {
            total += r;
        }
        total
    }

    /// Returns the sorted vector `a↑` (rates from lowest to highest), the
    /// object compared lexicographically throughout the paper.
    #[must_use]
    pub fn sorted(&self) -> SortedRates<S> {
        let mut rates = self.rates.clone();
        rates.sort_unstable();
        SortedRates { rates }
    }

    /// Returns the smallest rate, or `None` for an empty allocation.
    #[must_use]
    pub fn min_rate(&self) -> Option<S> {
        self.rates.iter().copied().min()
    }

    /// Returns the largest rate, or `None` for an empty allocation.
    #[must_use]
    pub fn max_rate(&self) -> Option<S> {
        self.rates.iter().copied().max()
    }
}

impl<S: Scalar> fmt::Display for Allocation<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, r) in self.rates.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "]")
    }
}

/// A sorted rate vector `a↑`, ordered lexicographically.
///
/// The paper's optimality criteria (Definitions 2.1 and 2.4) compare sorted
/// vectors in lexicographic order from the *lowest* component up: an
/// allocation is fairer if its worst-off flow is better off, ties broken by
/// the next worst, and so on. `SortedRates` realizes this as the [`Ord`]
/// instance, so `a.sorted() > b.sorted()` reads exactly like `a↑ > b↑` in
/// the paper.
///
/// Comparing vectors of different lengths is a logic error (the paper only
/// compares allocations of the same flow collection); the shorter vector is
/// extended conceptually by padding — in practice [`Ord`] falls back to the
/// standard slice order, and [`SortedRates::cmp_same_len`] asserts equal
/// lengths for callers that want the check.
///
/// # Examples
///
/// ```
/// use clos_fairness::Allocation;
/// use clos_rational::Rational;
///
/// let fairer = Allocation::from_rates(vec![Rational::new(1, 2), Rational::new(1, 2)]);
/// let skewed = Allocation::from_rates(vec![Rational::new(1, 3), Rational::ONE]);
/// // [1/2, 1/2] beats [1/3, 1] lexicographically even though it has lower
/// // throughput — fairness and throughput disagree (Theorem 3.4's theme).
/// assert!(fairer.sorted() > skewed.sorted());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SortedRates<S> {
    rates: Vec<S>,
}

impl<S: Scalar> SortedRates<S> {
    /// Sorts `rates` ascending and wraps them — the same vector
    /// [`Allocation::sorted`] produces, without materializing an
    /// [`Allocation`] first (used by objectives that already hold a plain
    /// rate vector, e.g. one borrowed from an evaluation scratch).
    ///
    /// # Panics
    ///
    /// Panics if any rate is negative.
    #[must_use]
    pub fn from_unsorted(mut rates: Vec<S>) -> SortedRates<S> {
        assert!(
            rates.iter().all(|r| *r >= S::zero()),
            "allocation rates must be non-negative"
        );
        rates.sort_unstable();
        SortedRates { rates }
    }

    /// Returns the rates from lowest to highest.
    #[must_use]
    pub fn rates(&self) -> &[S] {
        &self.rates
    }

    /// Returns the number of rates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Returns `true` if there are no rates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Compares two sorted vectors of the same flow collection.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths (they then belong to
    /// different flow collections and comparing them is meaningless).
    #[must_use]
    pub fn cmp_same_len(&self, other: &SortedRates<S>) -> Ordering {
        assert_eq!(
            self.rates.len(),
            other.rates.len(),
            "sorted vectors of different flow collections are not comparable"
        );
        self.cmp(other)
    }
}

impl<S: Scalar> PartialOrd for SortedRates<S> {
    fn partial_cmp(&self, other: &SortedRates<S>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<S: Scalar> Ord for SortedRates<S> {
    fn cmp(&self, other: &SortedRates<S>) -> Ordering {
        // Standard slice comparison is exactly the lexicographic order on
        // sorted vectors used by the paper (lowest component first).
        self.rates.cmp(&other.rates)
    }
}

impl<S: Scalar> fmt::Display for SortedRates<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, r) in self.rates.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clos_rational::{Rational, TotalF64};

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn construction_and_access() {
        let a = Allocation::from_rates(vec![r(1, 2), r(1, 3), Rational::ONE]);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert_eq!(a.rate(FlowId::new(0)), r(1, 2));
        assert_eq!(a.rates()[2], Rational::ONE);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_rejected() {
        let _ = Allocation::from_rates(vec![r(-1, 2)]);
    }

    #[test]
    fn throughput_sums() {
        let a = Allocation::from_rates(vec![r(1, 2), r(1, 3), r(1, 6)]);
        assert_eq!(a.throughput(), Rational::ONE);
        let empty: Allocation<Rational> = Allocation::from_rates(vec![]);
        assert_eq!(empty.throughput(), Rational::ZERO);
        assert!(empty.is_empty());
    }

    #[test]
    fn sorted_orders_ascending() {
        let a = Allocation::from_rates(vec![Rational::ONE, r(1, 3), r(2, 3)]);
        assert_eq!(a.sorted().rates(), &[r(1, 3), r(2, 3), Rational::ONE]);
        assert_eq!(a.min_rate(), Some(r(1, 3)));
        assert_eq!(a.max_rate(), Some(Rational::ONE));
    }

    #[test]
    fn lexicographic_order_matches_paper_example_2_3() {
        // Sorted vectors from Example 2.3: macro-switch > routing 1 > routing 2.
        let ms = SortedRates {
            rates: vec![r(1, 3), r(1, 3), r(1, 3), r(2, 3), r(2, 3), Rational::ONE],
        };
        let r1 = SortedRates {
            rates: vec![r(1, 3), r(1, 3), r(1, 3), r(2, 3), r(2, 3), r(2, 3)],
        };
        let r2 = SortedRates {
            rates: vec![r(1, 3), r(1, 3), r(1, 3), r(1, 3), r(2, 3), Rational::ONE],
        };
        assert!(ms > r1);
        assert!(r1 > r2);
        assert!(ms > r2);
        assert_eq!(ms.cmp_same_len(&r1), Ordering::Greater);
    }

    #[test]
    fn lexicographic_prefers_higher_minimum() {
        let even = SortedRates {
            rates: vec![r(1, 2), r(1, 2)],
        };
        let skewed = SortedRates {
            rates: vec![r(1, 3), Rational::ONE],
        };
        assert!(even > skewed);
    }

    #[test]
    fn equal_vectors_compare_equal() {
        let a = SortedRates {
            rates: vec![r(1, 2), Rational::ONE],
        };
        assert_eq!(a.cmp_same_len(&a.clone()), Ordering::Equal);
    }

    #[test]
    #[should_panic(expected = "not comparable")]
    fn cmp_same_len_rejects_mismatched_lengths() {
        let a = SortedRates {
            rates: vec![r(1, 2)],
        };
        let b = SortedRates {
            rates: vec![r(1, 2), r(1, 2)],
        };
        let _ = a.cmp_same_len(&b);
    }

    #[test]
    fn works_with_total_f64() {
        let a = Allocation::from_rates(vec![TotalF64::new(0.5), TotalF64::new(0.25)]);
        assert_eq!(a.throughput().get(), 0.75);
        assert_eq!(a.sorted().rates()[0].get(), 0.25);
    }

    #[test]
    fn display_formats() {
        let a = Allocation::from_rates(vec![r(1, 2), Rational::ONE]);
        assert_eq!(a.to_string(), "[1/2, 1]");
        assert_eq!(a.sorted().to_string(), "[1/2, 1]");
    }
}
