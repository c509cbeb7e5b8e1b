//! Feasibility of allocations: the capacity constraints of §2.2.

use std::error::Error;
use std::fmt;

use clos_net::{Flow, LinkId, Network, Routing};
use clos_rational::Scalar;

use crate::Allocation;

/// The error returned when an allocation violates a link capacity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FeasibilityViolation<S> {
    /// The overloaded link.
    pub link: LinkId,
    /// The total rate over flows traversing the link.
    pub load: S,
    /// The link's capacity.
    pub capacity: S,
}

impl<S: Scalar> fmt::Display for FeasibilityViolation<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "link {} carries {} exceeding capacity {}",
            self.link, self.load, self.capacity
        )
    }
}

impl<S: Scalar> Error for FeasibilityViolation<S> {}

/// Computes the load (total rate over traversing flows) of every link.
///
/// The result is indexed by [`LinkId`].
///
/// # Panics
///
/// Panics if the routing or allocation does not match the flow collection
/// (wrong lengths, paths referencing foreign links).
///
/// # Examples
///
/// ```
/// use clos_fairness::{link_loads, Allocation};
/// use clos_net::{ClosNetwork, Flow, Routing};
/// use clos_rational::Rational;
///
/// let clos = ClosNetwork::standard(2);
/// let flows = [Flow::new(clos.source(0, 0), clos.destination(2, 0))];
/// let routing = Routing::new(vec![clos.path_via(flows[0], 0)]);
/// let alloc = Allocation::from_rates(vec![Rational::new(1, 2)]);
/// let loads = link_loads(clos.network(), &flows, &routing, &alloc);
/// assert_eq!(loads[clos.uplink(0, 0).index()], Rational::new(1, 2));
/// assert_eq!(loads[clos.uplink(0, 1).index()], Rational::ZERO);
/// ```
#[must_use]
pub fn link_loads<S: Scalar>(
    net: &Network,
    flows: &[Flow],
    routing: &Routing,
    allocation: &Allocation<S>,
) -> Vec<S> {
    assert_eq!(routing.len(), flows.len(), "routing/flows length mismatch");
    assert_eq!(
        allocation.len(),
        flows.len(),
        "allocation/flows length mismatch"
    );
    let mut loads = vec![S::zero(); net.link_count()];
    for (i, path) in routing.paths().iter().enumerate() {
        let rate = allocation.rates()[i];
        for &e in path.links() {
            loads[e.index()] += rate;
        }
    }
    loads
}

/// Checks the feasibility condition of §2.2: for every link, the total rate
/// over flows traversing it is at most the link's capacity.
///
/// Infinite-capacity links (macro-switch mesh links) never violate.
///
/// # Errors
///
/// Returns the first overloaded link with its load and capacity.
///
/// # Panics
///
/// Panics if the routing or allocation lengths do not match the flows.
pub fn is_feasible<S: Scalar>(
    net: &Network,
    flows: &[Flow],
    routing: &Routing,
    allocation: &Allocation<S>,
) -> Result<(), FeasibilityViolation<S>> {
    let loads = link_loads(net, flows, routing, allocation);
    first_overload(net, &loads, S::zero()).map_or(Ok(()), Err)
}

/// The first finite-capacity link, in link order, whose load exceeds its
/// capacity by more than `tolerance`: the capacity check shared by
/// [`is_feasible`] and the bottleneck certificate.
pub(crate) fn first_overload<S: Scalar>(
    net: &Network,
    loads: &[S],
    tolerance: S,
) -> Option<FeasibilityViolation<S>> {
    net.links().find_map(|link| {
        let capacity = S::from_rational(link.capacity().finite()?);
        let load = loads[link.id().index()];
        (load > capacity + tolerance).then_some(FeasibilityViolation {
            link: link.id(),
            load,
            capacity,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clos_net::{ClosNetwork, MacroSwitch};
    use clos_rational::Rational;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn loads_accumulate_over_shared_links() {
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(3, 0)),
        ];
        let routing = Routing::new(vec![clos.path_via(flows[0], 0), clos.path_via(flows[1], 0)]);
        let alloc = Allocation::from_rates(vec![r(1, 2), r(1, 3)]);
        let loads = link_loads(clos.network(), &flows, &routing, &alloc);
        // Shared uplink I_0 -> M_0 carries both flows.
        assert_eq!(loads[clos.uplink(0, 0).index()], r(5, 6));
        // Distinct host uplinks carry one flow each.
        assert_eq!(loads[clos.host_uplink(0, 0).index()], r(1, 2));
        assert_eq!(loads[clos.host_uplink(0, 1).index()], r(1, 3));
        // Downlinks to different output ToRs.
        assert_eq!(loads[clos.downlink(0, 2).index()], r(1, 2));
        assert_eq!(loads[clos.downlink(0, 3).index()], r(1, 3));
    }

    #[test]
    fn feasible_allocation_accepted() {
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(3, 0)),
        ];
        let routing = Routing::new(vec![clos.path_via(flows[0], 0), clos.path_via(flows[1], 0)]);
        let alloc = Allocation::from_rates(vec![r(1, 2), r(1, 2)]);
        assert!(is_feasible(clos.network(), &flows, &routing, &alloc).is_ok());
    }

    #[test]
    fn saturated_link_is_still_feasible() {
        let clos = ClosNetwork::standard(2);
        let flows = [Flow::new(clos.source(0, 0), clos.destination(2, 0))];
        let routing = Routing::new(vec![clos.path_via(flows[0], 0)]);
        let alloc = Allocation::from_rates(vec![Rational::ONE]);
        assert!(is_feasible(clos.network(), &flows, &routing, &alloc).is_ok());
    }

    #[test]
    fn overload_reported_with_link() {
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(3, 0)),
        ];
        let routing = Routing::new(vec![clos.path_via(flows[0], 0), clos.path_via(flows[1], 0)]);
        let alloc = Allocation::from_rates(vec![r(2, 3), r(2, 3)]);
        let err = is_feasible(clos.network(), &flows, &routing, &alloc).unwrap_err();
        // The first overloaded link in id order is the shared uplink.
        assert_eq!(err.link, clos.uplink(0, 0));
        assert_eq!(err.load, r(4, 3));
        assert_eq!(err.capacity, Rational::ONE);
        assert!(err.to_string().contains("exceeding capacity"));
    }

    #[test]
    fn infinite_mesh_links_never_violate() {
        let ms = MacroSwitch::standard(1);
        // Many flows across the same mesh link, each at full host rate — the
        // host links constrain, the mesh never does. Use distinct hosts so
        // host links hold.
        let flows = [
            Flow::new(ms.source(0, 0), ms.destination(1, 0)),
            Flow::new(ms.source(1, 0), ms.destination(0, 0)),
        ];
        let routing = ms.routing(&flows);
        let alloc = Allocation::from_rates(vec![Rational::ONE, Rational::ONE]);
        assert!(is_feasible(ms.network(), &flows, &routing, &alloc).is_ok());
    }

    #[test]
    fn host_link_overload_in_macro_switch_detected() {
        let ms = MacroSwitch::standard(1);
        let flows = [
            Flow::new(ms.source(0, 0), ms.destination(0, 0)),
            Flow::new(ms.source(0, 0), ms.destination(1, 0)),
        ];
        let routing = ms.routing(&flows);
        let alloc = Allocation::from_rates(vec![Rational::ONE, r(1, 4)]);
        let err = is_feasible(ms.network(), &flows, &routing, &alloc).unwrap_err();
        assert_eq!(err.link, ms.host_uplink(0, 0));
        assert_eq!(err.load, r(5, 4));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_allocation_panics() {
        let clos = ClosNetwork::standard(2);
        let flows = [Flow::new(clos.source(0, 0), clos.destination(2, 0))];
        let routing = Routing::new(vec![clos.path_via(flows[0], 0)]);
        let alloc: Allocation<Rational> = Allocation::from_rates(vec![]);
        let _ = link_loads(clos.network(), &flows, &routing, &alloc);
    }
}
