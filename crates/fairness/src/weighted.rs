//! Weighted max-min fairness: progressive filling with per-flow weights.
//!
//! Classic congestion control shares each bottleneck equally (§2.2); the
//! *weighted* variant grows every flow's rate proportionally to a weight
//! `w_f`, freezing flows when a link saturates. Its role here is the §7
//! discussion of the paper's R2: setting `w_f` to the flow's macro-switch
//! rate turns per-routing congestion control into *relative* max-min
//! fairness — each bottleneck is then shared in proportion to what the
//! macro-switch abstraction promised, which blunts the `1/n` starvation of
//! Theorem 4.3 (see the `weighted_rescues_theorem_4_3` test and example
//! E9 discussion).
//!
//! The filling itself is the compiled waterfill's plain one: weights
//! become multiplicities (see [`max_min_fair_weighted`]). This module
//! holds that wrapper and the weighted entry point of the bottleneck
//! certificate.

use clos_net::{Flow, Network, Routing};
use clos_rational::{Rational, Scalar};

use crate::{Allocation, FairnessError};

/// Computes the weighted max-min fair allocation of a routed collection:
/// the allocation where every flow has a *weighted bottleneck* — a
/// saturated link on which its normalized rate `a(f)/w_f` is maximal.
///
/// All rates rise as `w_f · λ` for a common level `λ`; when a link
/// saturates, the flows crossing it freeze. Weights must be strictly
/// positive. With all weights equal this reduces exactly to
/// [`max_min_fair`].
///
/// The rates do not change when every weight is scaled by one factor, and
/// a flow of integer weight `k` fills exactly like `k` identical unit
/// flows. So this wrapper scales the weights by their common denominator
/// `L` to integers `k_f = L·w_f`, describes flow `f` to the plain
/// [`compiled`](crate::compiled) waterfill as one entry of multiplicity
/// `k_f`, and returns `a(f) = k_f · ρ_f`, where `ρ_f` is the entry's
/// per-flow rate. Every level of that run is the weighted level `λ`
/// divided by `L`, so its rounds and bottlenecks are the weighted ones.
///
/// # Errors
///
/// Returns [`FairnessError::UnboundedRate`] if some flow's path has no
/// finite-capacity link.
///
/// # Panics
///
/// Panics if weights/routing do not match the flow collection, if any
/// weight is non-positive, or if a scaled weight `k_f` exceeds
/// `usize::MAX` (the scaling itself panics where `Rational` arithmetic
/// overflows).
///
/// # Examples
///
/// Two flows on one unit link with weights 1 and 3 split it 1/4 : 3/4:
///
/// ```
/// use clos_fairness::max_min_fair_weighted;
/// use clos_net::{Flow, MacroSwitch};
/// use clos_rational::Rational;
///
/// let ms = MacroSwitch::standard(1);
/// let flows = [
///     Flow::new(ms.source(0, 0), ms.destination(0, 0)),
///     Flow::new(ms.source(1, 0), ms.destination(0, 0)),
/// ];
/// let routing = ms.routing(&flows);
/// let weights = [Rational::ONE, Rational::from_integer(3)];
/// let a = max_min_fair_weighted(ms.network(), &flows, &routing, &weights)?;
/// assert_eq!(a.rates(), &[Rational::new(1, 4), Rational::new(3, 4)]);
/// # Ok::<(), clos_fairness::FairnessError>(())
/// ```
///
/// [`max_min_fair`]: crate::max_min_fair
pub fn max_min_fair_weighted(
    net: &Network,
    flows: &[Flow],
    routing: &Routing,
    weights: &[Rational],
) -> Result<Allocation<Rational>, FairnessError> {
    assert_eq!(weights.len(), flows.len(), "weights/flows length mismatch");
    assert!(
        weights.iter().all(|w| w.is_positive()),
        "weights must be strictly positive"
    );
    // `L` grows to the least common multiple of the denominators seen so
    // far: `L·w` is reduced, so its denominator is the factor missing.
    let scale = weights.iter().fold(Rational::ONE, |l, &w| {
        l * Rational::from_integer((l * w).denominator())
    });
    let scaled: Vec<Rational> = weights.iter().map(|&w| scale * w).collect();
    assert!(
        scaled.iter().all(|&k| k <= Rational::from(usize::MAX)),
        "scaled weights must fit in usize"
    );
    let multiplicities: Vec<usize> = scaled.iter().map(|k| k.numerator() as usize).collect();
    let (_, scratch) =
        crate::waterfill::compile_and_run(net, flows, routing, Some(&multiplicities))?;
    let mut rates = scratch.into_rates();
    for (rate, &k) in rates.iter_mut().zip(&scaled) {
        *rate = k * *rate;
    }
    Ok(Allocation::from_rates(rates))
}

/// Verifies the weighted bottleneck property — the Lemma 2.2 analogue for
/// weighted max-min fairness: a feasible allocation is weighted-max-min
/// fair iff every flow has a traversed saturated link on which its
/// *normalized* rate `a(f)/w_f` is maximal among the link's flows.
///
/// Pass `tolerance = S::zero()` for exact scalars.
///
/// # Errors
///
/// Returns the first violation (an overloaded link, or a flow with no
/// weighted bottleneck), reusing [`BottleneckViolation`](crate::BottleneckViolation).
///
/// # Panics
///
/// Panics if weights/routing/allocation lengths mismatch the flows or a
/// weight is non-positive.
///
/// # Examples
///
/// ```
/// use clos_fairness::{max_min_fair_weighted, verify_weighted_bottleneck_property};
/// use clos_net::{Flow, MacroSwitch};
/// use clos_rational::Rational;
///
/// let ms = MacroSwitch::standard(1);
/// let flows = [
///     Flow::new(ms.source(0, 0), ms.destination(0, 0)),
///     Flow::new(ms.source(1, 0), ms.destination(0, 0)),
/// ];
/// let routing = ms.routing(&flows);
/// let weights = [Rational::ONE, Rational::from_integer(3)];
/// let a = max_min_fair_weighted(ms.network(), &flows, &routing, &weights)?;
/// assert!(verify_weighted_bottleneck_property(
///     ms.network(), &flows, &routing, &a, &weights, Rational::ZERO
/// ).is_ok());
/// # Ok::<(), clos_fairness::FairnessError>(())
/// ```
pub fn verify_weighted_bottleneck_property<S: Scalar>(
    net: &Network,
    flows: &[Flow],
    routing: &Routing,
    allocation: &crate::Allocation<S>,
    weights: &[S],
    tolerance: S,
) -> Result<(), crate::BottleneckViolation<S>> {
    assert_eq!(weights.len(), flows.len(), "weights/flows length mismatch");
    assert!(
        weights.iter().all(|w| *w > S::zero()),
        "weights must be strictly positive"
    );
    crate::bottleneck::verify_certificate(net, flows, routing, allocation, Some(weights), tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_min_fair;
    use clos_net::{ClosNetwork, MacroSwitch};
    use clos_rational::Rational;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn unit_weights_reduce_to_unweighted() {
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 0)),
            Flow::new(clos.source(1, 0), clos.destination(3, 1)),
        ];
        let routing = Routing::new(vec![
            clos.path_via(flows[0], 0),
            clos.path_via(flows[1], 0),
            clos.path_via(flows[2], 1),
        ]);
        let weights = vec![Rational::ONE; 3];
        let weighted = max_min_fair_weighted(clos.network(), &flows, &routing, &weights).unwrap();
        let plain = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();
        assert_eq!(weighted, plain);
    }

    #[test]
    fn proportional_split_on_shared_link() {
        let ms = MacroSwitch::standard(1);
        let flows = [
            Flow::new(ms.source(0, 0), ms.destination(0, 0)),
            Flow::new(ms.source(1, 0), ms.destination(0, 0)),
        ];
        let routing = ms.routing(&flows);
        let a = max_min_fair_weighted(ms.network(), &flows, &routing, &[r(1, 2), r(3, 2)]).unwrap();
        assert_eq!(a.rates(), &[r(1, 4), r(3, 4)]);
    }

    #[test]
    fn cascading_levels_respect_weights() {
        // Flows 0,1 share a source (weights 1:2); flow 1 also shares its
        // destination with flow 2 (weight 1).
        let ms = MacroSwitch::standard(2);
        let flows = [
            Flow::new(ms.source(0, 0), ms.destination(0, 0)),
            Flow::new(ms.source(0, 0), ms.destination(0, 1)),
            Flow::new(ms.source(1, 0), ms.destination(0, 1)),
        ];
        let routing = ms.routing(&flows);
        let weights = [Rational::ONE, Rational::TWO, Rational::ONE];
        let a = max_min_fair_weighted(ms.network(), &flows, &routing, &weights).unwrap();
        // Source link: levels 1/3 -> rates 1/3 and 2/3; dest link t_0^1:
        // weighted level min((1)/(2+1), ...) source binds first at level
        // 1/3: flows 0,1 freeze (rates 1/3, 2/3); flow 2 then takes the
        // rest of t_0^1: 1 - 2/3 = 1/3.
        assert_eq!(a.rates(), &[r(1, 3), r(2, 3), r(1, 3)]);
    }

    #[test]
    fn weighted_rescues_theorem_4_3() {
        // Weights = macro-switch rates turn congestion control into
        // relative fairness per routing: on the Lemma 4.6 certificate
        // routing the type-3 flow recovers a CONSTANT fraction of its
        // macro rate instead of 1/n.
        let ms_weights_demo = |n: usize| -> (Rational, Rational) {
            use clos_net::Flow as F;
            let clos = ClosNetwork::standard(n);
            // Rebuild the theorem 4.3 instance inline to avoid a core
            // dependency cycle: copies = n+1 type-1, type-2a/b, type-3.
            let mut flows = Vec::new();
            let mut weights = Vec::new();
            let mut assignment = Vec::new();
            for i in 0..n {
                for j in 1..n {
                    for _ in 0..n + 1 {
                        flows.push(F::new(clos.source(i, j), clos.destination(i, j)));
                        weights.push(r(1, (n + 1) as i128));
                        assignment.push((i + j) % n);
                    }
                }
            }
            for i in 0..n {
                flows.push(F::new(clos.source(i, 0), clos.destination(i, 0)));
                weights.push(r(1, n as i128));
                assignment.push(i);
            }
            for i in 0..n {
                for j in 0..n - 1 {
                    flows.push(F::new(clos.source(i, 0), clos.destination(n, j)));
                    weights.push(r(1, n as i128));
                    assignment.push(i);
                }
            }
            flows.push(F::new(clos.source(n, n - 1), clos.destination(n, n - 1)));
            weights.push(Rational::ONE);
            assignment.push(n - 1);

            let routing: Routing = flows
                .iter()
                .zip(&assignment)
                .map(|(&f, &m)| clos.path_via(f, m))
                .collect();
            let a = max_min_fair_weighted(clos.network(), &flows, &routing, &weights).unwrap();
            let type3 = a.rates()[flows.len() - 1];
            let unweighted = max_min_fair::<Rational>(clos.network(), &flows, &routing)
                .unwrap()
                .rates()[flows.len() - 1];
            (type3, unweighted)
        };
        for n in [3usize, 5, 8] {
            let (weighted, unweighted) = ms_weights_demo(n);
            // Unweighted congestion control: exactly 1/n (Theorem 4.3).
            assert_eq!(unweighted, r(1, n as i128));
            // Weighted: the doomed downlink M_{n-1}->O_n is shared in
            // proportion (n-1) type-2b flows at weight 1/n vs weight 1:
            // type-3 gets 1/((n-1)/n + 1) = n/(2n-1) > 1/2.
            assert_eq!(weighted, r(n as i128, (2 * n - 1) as i128));
            assert!(weighted > r(1, 2));
        }
    }

    #[test]
    fn weighted_output_passes_weighted_bottleneck_property() {
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 0)),
            Flow::new(clos.source(1, 0), clos.destination(3, 1)),
            Flow::new(clos.source(1, 0), clos.destination(2, 1)),
        ];
        let routing = Routing::new(vec![
            clos.path_via(flows[0], 0),
            clos.path_via(flows[1], 0),
            clos.path_via(flows[2], 1),
            clos.path_via(flows[3], 0),
        ]);
        let weights = [r(1, 2), Rational::ONE, r(3, 2), r(2, 1)];
        let a = max_min_fair_weighted(clos.network(), &flows, &routing, &weights).unwrap();
        assert!(verify_weighted_bottleneck_property(
            clos.network(),
            &flows,
            &routing,
            &a,
            &weights,
            Rational::ZERO
        )
        .is_ok());
        // Perturbing a rate down breaks the property.
        let mut rates = a.rates().to_vec();
        rates[0] /= Rational::TWO;
        let bad = crate::Allocation::from_rates(rates);
        assert!(verify_weighted_bottleneck_property(
            clos.network(),
            &flows,
            &routing,
            &bad,
            &weights,
            Rational::ZERO
        )
        .is_err());
    }

    #[test]
    fn unweighted_verifier_is_special_case() {
        // With unit weights the weighted verifier and the plain one agree.
        let ms = MacroSwitch::standard(1);
        let flows = [
            Flow::new(ms.source(0, 0), ms.destination(0, 0)),
            Flow::new(ms.source(1, 0), ms.destination(0, 0)),
        ];
        let routing = ms.routing(&flows);
        let a = max_min_fair::<Rational>(ms.network(), &flows, &routing).unwrap();
        let weights = vec![Rational::ONE; 2];
        assert_eq!(
            verify_weighted_bottleneck_property(
                ms.network(),
                &flows,
                &routing,
                &a,
                &weights,
                Rational::ZERO
            )
            .is_ok(),
            crate::verify_bottleneck_property(ms.network(), &flows, &routing, &a, Rational::ZERO)
                .is_ok()
        );
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_weight_rejected() {
        let ms = MacroSwitch::standard(1);
        let flows = [Flow::new(ms.source(0, 0), ms.destination(0, 0))];
        let routing = ms.routing(&flows);
        let _ = max_min_fair_weighted(ms.network(), &flows, &routing, &[Rational::ZERO]);
    }

    #[test]
    #[should_panic(expected = "fit in usize")]
    fn scaled_weight_above_usize_rejected() {
        // The common denominator 2 scales 2^63 to 2^64 > usize::MAX.
        let ms = MacroSwitch::standard(1);
        let flows = [
            Flow::new(ms.source(0, 0), ms.destination(0, 0)),
            Flow::new(ms.source(1, 0), ms.destination(0, 0)),
        ];
        let routing = ms.routing(&flows);
        let weights = [r(1, 2), Rational::from_integer(1 << 63)];
        let _ = max_min_fair_weighted(ms.network(), &flows, &routing, &weights);
    }

    #[test]
    fn weighted_allocation_is_feasible() {
        use crate::is_feasible;
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 1)),
            Flow::new(clos.source(1, 0), clos.destination(2, 0)),
        ];
        let routing = Routing::new(vec![
            clos.path_via(flows[0], 0),
            clos.path_via(flows[1], 0),
            clos.path_via(flows[2], 1),
        ]);
        let weights = [r(1, 3), Rational::ONE, r(5, 2)];
        let a = max_min_fair_weighted(clos.network(), &flows, &routing, &weights).unwrap();
        assert!(is_feasible(clos.network(), &flows, &routing, &a).is_ok());
        // Every flow saturates some link (weighted bottleneck): total
        // freeze means no flow can unilaterally increase.
        let loads = crate::link_loads(clos.network(), &flows, &routing, &a);
        for (i, path) in routing.paths().iter().enumerate() {
            let saturated = path.links().iter().any(|&e| {
                clos.network()
                    .link(e)
                    .capacity()
                    .finite()
                    .is_some_and(|c| loads[e.index()] == c)
            });
            assert!(saturated, "flow {i} has no saturated link");
        }
    }
}
