//! The bottleneck property: the paper's certificate of max-min fairness.

use std::error::Error;
use std::fmt;

use clos_net::{Flow, FlowId, LinkId, Network, Routing};
use clos_rational::Scalar;

use crate::feasibility::first_overload;
use crate::{link_loads, Allocation};

/// The error returned when an allocation fails the bottleneck
/// characterization of max-min fairness.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BottleneckViolation<S> {
    /// A link carries more than its capacity (the allocation is not even
    /// feasible).
    Infeasible {
        /// The overloaded link.
        link: LinkId,
        /// Its load under the allocation.
        load: S,
        /// Its capacity.
        capacity: S,
    },
    /// A flow has no bottleneck link: on every link it traverses, either
    /// spare capacity remains or some other flow has a strictly higher rate.
    NoBottleneck {
        /// The flow lacking a bottleneck.
        flow: FlowId,
    },
}

impl<S: Scalar> fmt::Display for BottleneckViolation<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BottleneckViolation::Infeasible {
                link,
                load,
                capacity,
            } => write!(
                f,
                "infeasible: link {link} carries {load} over capacity {capacity}"
            ),
            BottleneckViolation::NoBottleneck { flow } => {
                write!(f, "flow {flow} has no bottleneck link")
            }
        }
    }
}

impl<S: Scalar> Error for BottleneckViolation<S> {}

/// Verifies the bottleneck property (Lemma 2.2): a feasible allocation is
/// max-min fair **iff** every flow has a bottleneck link — a traversed link
/// that is saturated and on which the flow's rate is maximal.
///
/// This is an independent certificate for the water-filling allocator: the
/// two are implemented separately, and property tests in this workspace
/// check that [`max_min_fair`] outputs always verify while perturbed
/// allocations do not.
///
/// `tolerance` loosens the saturation and maximality comparisons for
/// floating-point allocations; pass `S::zero()` for exact scalars.
///
/// # Errors
///
/// Returns the first violation: an overloaded link, or a flow with no
/// bottleneck.
///
/// # Panics
///
/// Panics if the routing or allocation does not match the flow collection.
///
/// # Examples
///
/// ```
/// use clos_fairness::{max_min_fair, verify_bottleneck_property, Allocation};
/// use clos_net::{Flow, MacroSwitch};
/// use clos_rational::Rational;
///
/// let ms = MacroSwitch::standard(1);
/// let flows = [
///     Flow::new(ms.source(0, 0), ms.destination(0, 0)),
///     Flow::new(ms.source(1, 0), ms.destination(0, 0)),
/// ];
/// let routing = ms.routing(&flows);
/// let fair = max_min_fair::<Rational>(ms.network(), &flows, &routing)?;
/// assert!(verify_bottleneck_property(ms.network(), &flows, &routing, &fair, Rational::ZERO).is_ok());
///
/// // Halving one rate leaves that flow bottleneck-free.
/// let unfair = Allocation::from_rates(vec![Rational::new(1, 4), Rational::new(1, 2)]);
/// assert!(verify_bottleneck_property(ms.network(), &flows, &routing, &unfair, Rational::ZERO).is_err());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// [`max_min_fair`]: crate::max_min_fair
pub fn verify_bottleneck_property<S: Scalar>(
    net: &Network,
    flows: &[Flow],
    routing: &Routing,
    allocation: &Allocation<S>,
    tolerance: S,
) -> Result<(), BottleneckViolation<S>> {
    verify_certificate(net, flows, routing, allocation, None, tolerance)
}

/// The Lemma 2.2 certificate behind both verifiers. A flow's level is its
/// rate, or its normalized rate `a(f)/w_f` when `weights` is given; a
/// bottleneck is a saturated traversed link on which the flow's level is
/// maximal. It reads only the allocation, never the waterfill, so it stays
/// an independent check of the allocator.
pub(crate) fn verify_certificate<S: Scalar>(
    net: &Network,
    flows: &[Flow],
    routing: &Routing,
    allocation: &Allocation<S>,
    weights: Option<&[S]>,
    tolerance: S,
) -> Result<(), BottleneckViolation<S>> {
    let loads = link_loads(net, flows, routing, allocation);

    // Feasibility first (condition 1 of Definition 2.1).
    if let Some(v) = first_overload(net, &loads, tolerance) {
        return Err(BottleneckViolation::Infeasible {
            link: v.link,
            load: v.load,
            capacity: v.capacity,
        });
    }

    let rates = allocation.rates();
    let level = |i: usize| match weights {
        None => rates[i],
        Some(w) => rates[i] / w[i],
    };

    // Max level per link, for the maximality half of the bottleneck test.
    let mut max_level = vec![S::zero(); net.link_count()];
    for (i, path) in routing.paths().iter().enumerate() {
        let level = level(i);
        for &e in path.links() {
            let max = &mut max_level[e.index()];
            if level > *max {
                *max = level;
            }
        }
    }

    // Every flow needs a saturated traversed link on which it is maximal.
    for (i, path) in routing.paths().iter().enumerate() {
        let level = level(i);
        let has_bottleneck = path.links().iter().any(|&e| {
            match net.link(e).capacity().finite() {
                None => false, // infinite links are never saturated
                Some(cap) => {
                    loads[e.index()] + tolerance >= S::from_rational(cap)
                        && level + tolerance >= max_level[e.index()]
                }
            }
        });
        if !has_bottleneck {
            return Err(BottleneckViolation::NoBottleneck {
                flow: FlowId::from(i),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_min_fair;
    use clos_net::{ClosNetwork, MacroSwitch};
    use clos_rational::{Rational, TotalF64};

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    fn example_3_3() -> (MacroSwitch, Vec<Flow>) {
        let ms = MacroSwitch::standard(1);
        let flows = vec![
            Flow::new(ms.source(0, 0), ms.destination(0, 0)),
            Flow::new(ms.source(1, 0), ms.destination(1, 0)),
            Flow::new(ms.source(1, 0), ms.destination(0, 0)),
        ];
        (ms, flows)
    }

    #[test]
    fn water_filling_output_verifies() {
        let (ms, flows) = example_3_3();
        let routing = ms.routing(&flows);
        let a = max_min_fair::<Rational>(ms.network(), &flows, &routing).unwrap();
        assert!(
            verify_bottleneck_property(ms.network(), &flows, &routing, &a, Rational::ZERO).is_ok()
        );
    }

    #[test]
    fn max_throughput_allocation_fails_bottleneck() {
        // Figure 2a: rates (1, 1, 0) maximize throughput but the zero-rate
        // flow has no bottleneck in the max-min sense? It actually does NOT
        // satisfy maximality on its links (rate 0 < 1), so Lemma 2.2 rejects.
        let (ms, flows) = example_3_3();
        let routing = ms.routing(&flows);
        let a = Allocation::from_rates(vec![Rational::ONE, Rational::ONE, Rational::ZERO]);
        let err = verify_bottleneck_property(ms.network(), &flows, &routing, &a, Rational::ZERO)
            .unwrap_err();
        assert_eq!(
            err,
            BottleneckViolation::NoBottleneck {
                flow: FlowId::new(2)
            }
        );
    }

    #[test]
    fn underfilled_allocation_fails() {
        let (ms, flows) = example_3_3();
        let routing = ms.routing(&flows);
        let a = Allocation::from_rates(vec![r(1, 4); 3]);
        assert!(matches!(
            verify_bottleneck_property(ms.network(), &flows, &routing, &a, Rational::ZERO),
            Err(BottleneckViolation::NoBottleneck { .. })
        ));
    }

    #[test]
    fn infeasible_allocation_reported_first() {
        let (ms, flows) = example_3_3();
        let routing = ms.routing(&flows);
        let a = Allocation::from_rates(vec![Rational::ONE; 3]);
        assert!(matches!(
            verify_bottleneck_property(ms.network(), &flows, &routing, &a, Rational::ZERO),
            Err(BottleneckViolation::Infeasible { .. })
        ));
    }

    #[test]
    fn clos_allocation_verifies_on_fabric_bottlenecks() {
        // In a Clos network flows can bottleneck on fabric links (§2.2); the
        // verifier must accept those too.
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 1)),
        ];
        // Both through M_0: they share only the uplink I_0 -> M_0.
        let routing =
            clos_net::Routing::new(vec![clos.path_via(flows[0], 0), clos.path_via(flows[1], 0)]);
        let a = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();
        assert_eq!(a.rates(), &[r(1, 2), r(1, 2)]);
        assert!(
            verify_bottleneck_property(clos.network(), &flows, &routing, &a, Rational::ZERO)
                .is_ok()
        );
    }

    #[test]
    fn tolerance_accepts_float_noise() {
        let (ms, flows) = example_3_3();
        let routing = ms.routing(&flows);
        let noisy = Allocation::from_rates(vec![
            TotalF64::new(0.5 - 1e-13),
            TotalF64::new(0.5 + 1e-14),
            TotalF64::new(0.5),
        ]);
        assert!(verify_bottleneck_property(
            ms.network(),
            &flows,
            &routing,
            &noisy,
            TotalF64::new(1e-9)
        )
        .is_ok());
        // Zero tolerance rejects the same noisy allocation.
        assert!(
            verify_bottleneck_property(ms.network(), &flows, &routing, &noisy, TotalF64::ZERO)
                .is_err()
        );
    }

    #[test]
    fn display_messages() {
        let e: BottleneckViolation<Rational> = BottleneckViolation::NoBottleneck {
            flow: FlowId::new(3),
        };
        assert_eq!(e.to_string(), "flow f3 has no bottleneck link");
        let e: BottleneckViolation<Rational> = BottleneckViolation::Infeasible {
            link: LinkId::new(1),
            load: Rational::TWO,
            capacity: Rational::ONE,
        };
        assert!(e.to_string().contains("over capacity"));
    }
}
