//! Property-based tests for the water-filling allocator.
//!
//! These check the allocator against the paper's *definitions* rather than
//! its own implementation: feasibility (Definition 2.1 condition 1), the
//! bottleneck property (Lemma 2.2, a complete certificate of max-min
//! fairness), invariance under flow relabeling, and dominance of the
//! macro-switch allocation over every Clos allocation (§2.3).

#![allow(clippy::type_complexity)]

use clos_fairness::{
    is_feasible, link_loads, max_min_fair, verify_bottleneck_property, Allocation,
};
use clos_net::{ClosNetwork, Flow, FlowId, MacroSwitch, Routing};
use clos_rational::Rational;
use proptest::prelude::*;

/// A random flow collection on `C_n` plus a random routing, encoded as
/// index tuples so proptest can shrink them.
fn flows_and_routing(
    n: usize,
    max_flows: usize,
) -> impl Strategy<Value = (Vec<(usize, usize, usize, usize)>, Vec<usize>)> {
    let tor = 2 * n;
    let host = n;
    let flow = (0..tor, 0..host, 0..tor, 0..host);
    prop::collection::vec(flow, 1..=max_flows).prop_flat_map(move |flows| {
        let len = flows.len();
        (Just(flows), prop::collection::vec(0..n, len..=len))
    })
}

fn build(
    clos: &ClosNetwork,
    raw_flows: &[(usize, usize, usize, usize)],
    middles: &[usize],
) -> (Vec<Flow>, Routing) {
    let flows: Vec<Flow> = raw_flows
        .iter()
        .map(|&(si, sj, ti, tj)| Flow::new(clos.source(si, sj), clos.destination(ti, tj)))
        .collect();
    let routing: Routing = flows
        .iter()
        .zip(middles)
        .map(|(&f, &m)| clos.path_via(f, m))
        .collect();
    (flows, routing)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The allocation is feasible and every flow has a bottleneck link
    /// (Lemma 2.2) — together, a complete proof of max-min fairness.
    #[test]
    fn waterfill_is_max_min_fair_on_c2((raw, middles) in flows_and_routing(2, 10)) {
        let clos = ClosNetwork::standard(2);
        let (flows, routing) = build(&clos, &raw, &middles);
        let a = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();
        prop_assert!(is_feasible(clos.network(), &flows, &routing, &a).is_ok());
        prop_assert!(verify_bottleneck_property(
            clos.network(), &flows, &routing, &a, Rational::ZERO
        ).is_ok());
    }

    /// Same on the larger C_3 fabric.
    #[test]
    fn waterfill_is_max_min_fair_on_c3((raw, middles) in flows_and_routing(3, 12)) {
        let clos = ClosNetwork::standard(3);
        let (flows, routing) = build(&clos, &raw, &middles);
        let a = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();
        prop_assert!(is_feasible(clos.network(), &flows, &routing, &a).is_ok());
        prop_assert!(verify_bottleneck_property(
            clos.network(), &flows, &routing, &a, Rational::ZERO
        ).is_ok());
    }

    /// Decreasing any single positive rate destroys the bottleneck
    /// property: every saturated link of that flow becomes unsaturated.
    #[test]
    fn decreasing_a_rate_breaks_fairness(
        (raw, middles) in flows_and_routing(2, 8),
        victim in 0usize..8,
    ) {
        let clos = ClosNetwork::standard(2);
        let (flows, routing) = build(&clos, &raw, &middles);
        let a = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();
        let victim = victim % flows.len();
        let mut rates = a.rates().to_vec();
        if rates[victim].is_zero() {
            return Ok(());
        }
        rates[victim] /= Rational::TWO;
        let perturbed = Allocation::from_rates(rates);
        prop_assert!(verify_bottleneck_property(
            clos.network(), &flows, &routing, &perturbed, Rational::ZERO
        ).is_err());
    }

    /// The weighted twin on C_2 and C_3 with positive integer weights: the
    /// weighted allocation verifies, and halving one flow's rate leaves
    /// that flow without a saturated link.
    #[test]
    fn decreasing_a_rate_breaks_weighted_fairness(
        (n, raw, middles) in (2usize..=3).prop_flat_map(|n| {
            flows_and_routing(n, 10).prop_map(move |(raw, middles)| (n, raw, middles))
        }),
        weight_picks in prop::collection::vec(1u64..6, 10),
        victim in 0usize..10,
    ) {
        use clos_fairness::{max_min_fair_weighted, verify_weighted_bottleneck_property};
        let clos = ClosNetwork::standard(n);
        let (flows, routing) = build(&clos, &raw, &middles);
        let weights: Vec<Rational> = (0..flows.len())
            .map(|i| Rational::from_integer(weight_picks[i] as i128))
            .collect();
        let a = max_min_fair_weighted(clos.network(), &flows, &routing, &weights).unwrap();
        prop_assert!(verify_weighted_bottleneck_property(
            clos.network(), &flows, &routing, &a, &weights, Rational::ZERO
        ).is_ok());
        let victim = victim % flows.len();
        let mut rates = a.rates().to_vec();
        prop_assert!(rates[victim] > Rational::ZERO);
        rates[victim] /= Rational::TWO;
        let perturbed = Allocation::from_rates(rates);
        prop_assert!(verify_weighted_bottleneck_property(
            clos.network(), &flows, &routing, &perturbed, &weights, Rational::ZERO
        ).is_err());
    }

    /// Relabeling flows relabels rates: max-min fairness does not depend on
    /// flow order (the water-filling levels are a function of the routing
    /// multiset only).
    #[test]
    fn allocation_invariant_under_flow_relabeling(
        (raw, middles) in flows_and_routing(2, 8),
        seed in 0u64..1000,
    ) {
        let clos = ClosNetwork::standard(2);
        let (flows, routing) = build(&clos, &raw, &middles);
        let a = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();

        // Deterministic pseudo-shuffle of flow indices.
        let len = flows.len();
        let mut perm: Vec<usize> = (0..len).collect();
        let mut state = seed.wrapping_add(1);
        for i in (1..len).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }

        let shuffled_flows: Vec<Flow> = perm.iter().map(|&i| flows[i]).collect();
        let shuffled_routing: Routing = perm
            .iter()
            .map(|&i| routing.path(FlowId::from(i)).clone())
            .collect();
        let b = max_min_fair::<Rational>(clos.network(), &shuffled_flows, &shuffled_routing)
            .unwrap();
        for (pos, &orig) in perm.iter().enumerate() {
            prop_assert_eq!(
                b.rate(FlowId::from(pos)),
                a.rate(FlowId::from(orig))
            );
        }
    }

    /// Every feasible Clos allocation is feasible in the macro-switch, so
    /// the macro-switch max-min allocation lexicographically dominates the
    /// max-min allocation of every Clos routing (§2.3).
    #[test]
    fn macro_switch_dominates_every_routing((raw, middles) in flows_and_routing(2, 10)) {
        let clos = ClosNetwork::standard(2);
        let ms = MacroSwitch::standard(2);
        let (flows, routing) = build(&clos, &raw, &middles);
        let clos_alloc = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();

        let ms_flows = ms.translate_flows(&clos, &flows);
        let ms_routing = ms.routing(&ms_flows);
        let ms_alloc = max_min_fair::<Rational>(ms.network(), &ms_flows, &ms_routing).unwrap();

        prop_assert!(ms_alloc.sorted() >= clos_alloc.sorted());
        // The Clos allocation itself is feasible in the macro-switch.
        prop_assert!(is_feasible(ms.network(), &ms_flows, &ms_routing, &clos_alloc).is_ok());
    }

    /// Weighted water-filling satisfies the weighted bottleneck property
    /// on random instances, and reduces to the unweighted allocator when
    /// all weights are equal (even when that equal weight is not 1).
    #[test]
    fn weighted_fairness_properties(
        (raw, middles) in flows_and_routing(2, 8),
        weight_picks in prop::collection::vec(1u64..6, 8),
        common in 1u64..5,
    ) {
        use clos_fairness::{max_min_fair_weighted, verify_weighted_bottleneck_property};
        let clos = ClosNetwork::standard(2);
        let (flows, routing) = build(&clos, &raw, &middles);
        let weights: Vec<Rational> = (0..flows.len())
            .map(|i| Rational::from_integer(weight_picks[i % weight_picks.len()] as i128))
            .collect();
        let a = max_min_fair_weighted(clos.network(), &flows, &routing, &weights).unwrap();
        prop_assert!(is_feasible(clos.network(), &flows, &routing, &a).is_ok());
        prop_assert!(verify_weighted_bottleneck_property(
            clos.network(), &flows, &routing, &a, &weights, Rational::ZERO
        ).is_ok());

        // Equal weights (any positive value) reproduce plain max-min.
        let equal = vec![Rational::from_integer(common as i128); flows.len()];
        let w = max_min_fair_weighted(clos.network(), &flows, &routing, &equal).unwrap();
        let plain = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();
        prop_assert_eq!(w, plain);
    }

    /// Throughput equals the sum of host-uplink loads (flow conservation
    /// sanity check on link_loads).
    #[test]
    fn throughput_matches_edge_loads((raw, middles) in flows_and_routing(2, 10)) {
        let clos = ClosNetwork::standard(2);
        let (flows, routing) = build(&clos, &raw, &middles);
        let a = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();
        let loads = link_loads(clos.network(), &flows, &routing, &a);
        let mut host_up_total = Rational::ZERO;
        for tor in 0..clos.tor_count() {
            for host in 0..clos.hosts_per_tor() {
                host_up_total += loads[clos.host_uplink(tor, host).index()];
            }
        }
        prop_assert_eq!(host_up_total, a.throughput());
    }
}
