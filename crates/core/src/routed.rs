//! A routing paired with its max-min fair allocation.

use clos_fairness::{max_min_fair, Allocation};
use clos_net::{Fabric, Flow, Routing};
use clos_rational::Rational;

/// A routing together with the max-min fair allocation it induces.
///
/// Every routing objective in this crate (lex-max-min, throughput-max-min,
/// Doom-Switch, the practical routers) ultimately produces one of these:
/// congestion control imposes the max-min fair allocation *for the chosen
/// routing* (§2.2), so a routing and "its" allocation always travel
/// together.
///
/// # Examples
///
/// ```
/// use clos_core::objectives::throughput_max_min;
/// use clos_net::{ClosNetwork, Flow};
///
/// let clos = ClosNetwork::standard(2);
/// let flows = vec![Flow::new(clos.source(0, 0), clos.destination(2, 0))];
/// let best = throughput_max_min(&clos, &flows);
/// assert_eq!(best.routing.len(), 1);
/// assert_eq!(best.allocation.len(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RoutedAllocation {
    /// The chosen routing.
    pub routing: Routing,
    /// The max-min fair allocation for that routing.
    pub allocation: Allocation<Rational>,
}

impl RoutedAllocation {
    /// Water-fills `routing` (one path per flow of `flows`) in `fabric`.
    ///
    /// # Panics
    ///
    /// Panics if `routing` does not have one path per flow, or if some
    /// path crosses no finite link (never on the fabrics of `clos-net`,
    /// whose host links are finite even under capacity overlays).
    #[must_use]
    pub fn new<F: Fabric>(fabric: &F, flows: &[Flow], routing: Routing) -> RoutedAllocation {
        let allocation = max_min_fair::<Rational>(fabric.network(), flows, &routing)
            .expect("every path crosses a finite link");
        RoutedAllocation {
            routing,
            allocation,
        }
    }

    /// Routes flow `i` via routing class `assignment[i]` (the middle
    /// switch on Clos) and water-fills the result — the one way from a
    /// class assignment to rates outside the compiled search evaluator
    /// ([`CompiledInstance`](crate::compiled::CompiledInstance)), whose
    /// rates it equals.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` and `flows` differ in length, if a class
    /// is out of range or a flow endpoint is invalid for `fabric`, and
    /// under the conditions of [`Self::new`].
    ///
    /// # Examples
    ///
    /// ```
    /// use clos_core::RoutedAllocation;
    /// use clos_net::{ClosNetwork, Flow};
    /// use clos_rational::Rational;
    ///
    /// let clos = ClosNetwork::standard(2);
    /// let flows = vec![
    ///     Flow::new(clos.source(0, 0), clos.destination(2, 0)),
    ///     Flow::new(clos.source(0, 1), clos.destination(2, 1)),
    /// ];
    /// // One middle for both: the shared uplink halves them.
    /// let shared = RoutedAllocation::from_assignment(&clos, &flows, &[0, 0]);
    /// assert_eq!(shared.allocation.rates(), &[Rational::new(1, 2); 2]);
    /// ```
    #[must_use]
    pub fn from_assignment<F: Fabric>(
        fabric: &F,
        flows: &[Flow],
        assignment: &[usize],
    ) -> RoutedAllocation {
        assert_eq!(assignment.len(), flows.len(), "assignment length");
        RoutedAllocation::new(fabric, flows, assignment_routing(fabric, flows, assignment))
    }

    /// Returns the throughput `t(a)` of the allocation.
    #[must_use]
    pub fn throughput(&self) -> Rational {
        self.allocation.throughput()
    }
}

/// The routing that sends flow `i` via routing class `assignment[i]`,
/// for the flows `assignment` covers.
pub(crate) fn assignment_routing<F: Fabric>(
    fabric: &F,
    flows: &[Flow],
    assignment: &[usize],
) -> Routing {
    flows
        .iter()
        .zip(assignment)
        .map(|(&f, &c)| fabric.path_via_class(f, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clos_net::ClosNetwork;

    #[test]
    fn throughput_delegates() {
        let ra = RoutedAllocation {
            routing: Routing::new(vec![]),
            allocation: Allocation::from_rates(vec![Rational::ONE, Rational::new(1, 2)]),
        };
        assert_eq!(ra.throughput(), Rational::new(3, 2));
    }

    #[test]
    #[should_panic(expected = "assignment length")]
    fn short_assignment_rejected() {
        let clos = ClosNetwork::standard(2);
        let flows = vec![Flow::new(clos.source(0, 0), clos.destination(2, 0)); 2];
        let _ = RoutedAllocation::from_assignment(&clos, &flows, &[0]);
    }
}
