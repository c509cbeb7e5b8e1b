//! The Doom-Switch algorithm (Algorithm 1) and the link-disjoint
//! maximum-throughput routing (Lemma 5.2).

use clos_fairness::Allocation;
use clos_graph::{edge_coloring, maximum_matching};
use clos_net::{ClosNetwork, Flow, MacroSwitch};
use clos_rational::Rational;

use crate::graphs::{ms_flow_multigraph, tor_flow_multigraph_subset};
use crate::routed::assignment_routing;
use crate::RoutedAllocation;

/// Computes the per-flow middle-switch assignment of the Doom-Switch
/// algorithm (Algorithm 1):
///
/// 1. compute a maximum matching `F'` of the source–destination multigraph
///    `G^MS`;
/// 2. compute an `n`-edge-coloring of the ToR-pair multigraph `G^C`
///    restricted to `F'` and send each matched flow via its color's middle
///    switch (a link-disjoint routing by König's theorem);
/// 3. send **all** remaining flows via the middle switch whose color class
///    is smallest — the eponymous doom switch.
///
/// The resulting max-min fair allocation approximates a
/// throughput-max-min fair allocation: matched flows rise toward rate 1
/// while the doomed flows share a single path, realizing the factor-2
/// throughput gain of Theorem 5.4 at the cost of starving the doomed flows.
///
/// # Panics
///
/// Panics if a flow endpoint is invalid for `clos`/`ms`, or if
/// `hosts_per_tor > middle_switches` (the matching can then exceed the
/// colorable degree; the paper's `C_n` always has both equal to `n`).
///
/// # Examples
///
/// ```
/// use clos_core::doom_switch::doom_switch_assignment;
/// use clos_net::{ClosNetwork, Flow, MacroSwitch};
///
/// let clos = ClosNetwork::standard(3);
/// let ms = MacroSwitch::standard(3);
/// let flows = vec![
///     Flow::new(clos.source(0, 0), clos.destination(1, 0)),
///     Flow::new(clos.source(0, 1), clos.destination(1, 0)), // loses the matching
/// ];
/// let assignment = doom_switch_assignment(&clos, &ms, &flows);
/// assert_eq!(assignment.len(), 2);
/// ```
#[must_use]
pub fn doom_switch_assignment(clos: &ClosNetwork, ms: &MacroSwitch, flows: &[Flow]) -> Vec<usize> {
    let n = clos.middle_count();
    assert!(
        clos.hosts_per_tor() <= n,
        "Doom-Switch requires hosts_per_tor <= middle_switches for Konig coloring"
    );
    if flows.is_empty() {
        return Vec::new();
    }

    // Step 1: maximum matching F' in G^MS.
    let ms_flows = ms.translate_flows(clos, flows);
    let g_ms = ms_flow_multigraph(ms, &ms_flows);
    let matching = maximum_matching(&g_ms);
    let matched: Vec<usize> = matching.edges().to_vec();

    // Step 2: n-coloring of G^C restricted to F'. Matched flows use each
    // source at most once, so per-ToR degree is at most hosts_per_tor <= n.
    let g_c = tor_flow_multigraph_subset(clos, flows, &matched);
    let coloring = edge_coloring(&g_c, n).expect("matched degree bounded by n");

    let mut assignment = vec![usize::MAX; flows.len()];
    let mut class_size = vec![0usize; n];
    for (pos, &flow_idx) in matched.iter().enumerate() {
        let color = coloring.color(pos);
        assignment[flow_idx] = color;
        class_size[color] += 1;
    }

    // Step 3: all unmatched flows to the middle switch with the smallest
    // color class.
    let doom = class_size
        .iter()
        .enumerate()
        .min_by_key(|&(_, &size)| size)
        .map(|(m, _)| m)
        .expect("n >= 1");
    for slot in &mut assignment {
        if *slot == usize::MAX {
            *slot = doom;
        }
    }
    assignment
}

/// Runs the Doom-Switch algorithm and returns the routing with its max-min
/// fair allocation.
///
/// # Panics
///
/// See [`doom_switch_assignment`].
///
/// # Examples
///
/// Example 5.3 (`n = 7`, one type-2 flow per gadget): the throughput rises
/// from the macro-switch's `9/2` to `5`:
///
/// ```
/// use clos_core::constructions::theorem_5_4;
/// use clos_core::doom_switch::doom_switch;
/// use clos_rational::Rational;
///
/// let t = theorem_5_4(7, 1);
/// let doomed = doom_switch(&t.instance.clos, &t.instance.ms, &t.instance.flows);
/// assert_eq!(doomed.throughput(), Rational::from_integer(5));
/// assert_eq!(t.instance.macro_allocation().throughput(), Rational::new(9, 2));
/// ```
#[must_use]
pub fn doom_switch(clos: &ClosNetwork, ms: &MacroSwitch, flows: &[Flow]) -> RoutedAllocation {
    RoutedAllocation::from_assignment(clos, flows, &doom_switch_assignment(clos, ms, flows))
}

/// Replicates a maximum-throughput macro-switch allocation in the Clos
/// network (Lemma 5.2): matched flows are routed link-disjointly at rate 1
/// (via König coloring), every other flow gets rate 0.
///
/// This demonstrates `T^T-MT = T^MT`: routing cannot increase maximum
/// throughput beyond the macro-switch, but it can always realize it.
/// The zero-rate flows are routed via middle switch 0 (their rate makes
/// the choice irrelevant).
///
/// # Panics
///
/// See [`doom_switch_assignment`].
#[must_use]
pub fn link_disjoint_max_throughput(
    clos: &ClosNetwork,
    ms: &MacroSwitch,
    flows: &[Flow],
) -> RoutedAllocation {
    let n = clos.middle_count();
    assert!(
        clos.hosts_per_tor() <= n,
        "requires hosts_per_tor <= middles"
    );
    let ms_flows = ms.translate_flows(clos, flows);
    let g_ms = ms_flow_multigraph(ms, &ms_flows);
    let matching = maximum_matching(&g_ms);
    let matched: Vec<usize> = matching.edges().to_vec();
    let g_c = tor_flow_multigraph_subset(clos, flows, &matched);
    let coloring = edge_coloring(&g_c, n).expect("matched degree bounded by n");

    let mut assignment = vec![0usize; flows.len()];
    let mut rates = vec![Rational::ZERO; flows.len()];
    for (pos, &flow_idx) in matched.iter().enumerate() {
        assignment[flow_idx] = coloring.color(pos);
        rates[flow_idx] = Rational::ONE;
    }
    RoutedAllocation {
        routing: assignment_routing(clos, flows, &assignment),
        allocation: Allocation::from_rates(rates),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constructions::{example_2_3, theorem_5_4};
    use clos_fairness::is_feasible;

    fn r(num: i128, den: i128) -> Rational {
        Rational::new(num, den)
    }

    #[test]
    fn example_5_3_matches_paper() {
        let t = theorem_5_4(7, 1);
        let doomed = doom_switch(&t.instance.clos, &t.instance.ms, &t.instance.flows);
        // Type-1 flows rise from 1/2 to 2/3; type-2 drop to 1/3.
        for &f in t.type1() {
            assert_eq!(doomed.allocation.rate(f), r(2, 3));
        }
        for &f in t.type2() {
            assert_eq!(doomed.allocation.rate(f), r(1, 3));
        }
        assert_eq!(doomed.throughput(), Rational::from_integer(5));
    }

    #[test]
    fn theorem_5_4_doom_throughput_reaches_lower_bound() {
        for (n, k) in [(5, 4), (7, 8), (9, 16), (11, 32)] {
            let t = theorem_5_4(n, k);
            let doomed = doom_switch(&t.instance.clos, &t.instance.ms, &t.instance.flows);
            assert!(
                doomed.throughput() >= t.expected_doom_throughput_lower(),
                "n={n}, k={k}: got {}",
                doomed.throughput()
            );
            // And it never exceeds the Theorem 5.4 upper bound 2·T^MmF.
            let ms_throughput = t.instance.macro_allocation().throughput();
            assert!(doomed.throughput() <= Rational::TWO * ms_throughput);
        }
    }

    #[test]
    fn doom_ratio_approaches_two() {
        // ratio = T_doom / T^MmF -> 2(1 - eps), eps -> 1/(n-1) as k grows.
        let t = theorem_5_4(33, 64);
        let doomed = doom_switch(&t.instance.clos, &t.instance.ms, &t.instance.flows);
        let ratio = doomed.throughput() / t.instance.macro_allocation().throughput();
        assert!(ratio > r(9, 5), "ratio {ratio} should approach 2");
        assert!(ratio <= Rational::TWO);
    }

    #[test]
    fn allocation_is_valid() {
        let t = theorem_5_4(5, 3);
        let doomed = doom_switch(&t.instance.clos, &t.instance.ms, &t.instance.flows);
        assert!(doomed
            .routing
            .validate(t.instance.clos.network(), &t.instance.flows)
            .is_ok());
        assert!(is_feasible(
            t.instance.clos.network(),
            &t.instance.flows,
            &doomed.routing,
            &doomed.allocation
        )
        .is_ok());
    }

    #[test]
    fn matched_flows_get_disjoint_middles_per_tor_pair() {
        let ex = example_2_3();
        let clos = &ex.instance.clos;
        let assignment = doom_switch_assignment(clos, &ex.instance.ms, &ex.instance.flows);
        // Matched flows with the same ToR pair must use distinct middles;
        // verify via feasibility of the rate-1 replication.
        let mt = link_disjoint_max_throughput(clos, &ex.instance.ms, &ex.instance.flows);
        assert!(is_feasible(
            clos.network(),
            &ex.instance.flows,
            &mt.routing,
            &mt.allocation
        )
        .is_ok());
        assert_eq!(assignment.len(), ex.instance.flows.len());
    }

    #[test]
    fn lemma_5_2_matching_throughput_replicated() {
        // T^T-MT equals T^MT: the matching-sized throughput is achieved
        // link-disjointly inside the network.
        let ex = example_2_3();
        let mt =
            link_disjoint_max_throughput(&ex.instance.clos, &ex.instance.ms, &ex.instance.flows);
        let ms_mt = crate::macro_switch::max_throughput(&ex.instance.ms, &ex.instance.ms_flows);
        assert_eq!(mt.throughput(), ms_mt.throughput());
    }

    #[test]
    fn empty_collection() {
        let clos = ClosNetwork::standard(2);
        let ms = MacroSwitch::standard(2);
        assert!(doom_switch_assignment(&clos, &ms, &[]).is_empty());
        let out = doom_switch(&clos, &ms, &[]);
        assert!(out.allocation.is_empty());
    }

    #[test]
    fn all_flows_matched_when_traffic_is_a_permutation() {
        // A permutation needs no dooming: every flow is matched and gets
        // rate 1 (full bisection bandwidth, §1).
        let clos = ClosNetwork::standard(3);
        let ms = MacroSwitch::standard(3);
        let mut flows = Vec::new();
        for i in 0..clos.tor_count() {
            for j in 0..clos.hosts_per_tor() {
                flows.push(Flow::new(
                    clos.source(i, j),
                    clos.destination((i + 1) % clos.tor_count(), j),
                ));
            }
        }
        let out = doom_switch(&clos, &ms, &flows);
        assert!(out.allocation.rates().iter().all(|&x| x == Rational::ONE));
        assert_eq!(
            out.throughput(),
            Rational::from_integer(flows.len() as i128)
        );
    }
}
