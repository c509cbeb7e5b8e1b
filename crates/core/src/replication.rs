//! Replicating macro-switch rates inside the Clos network (§4.1).
//!
//! Given a collection of flows *offered to the data-center with fixed
//! rates* (typically their macro-switch max-min rates), is there a feasible
//! routing — one satisfying every link capacity? Theorem 4.2 answers no in
//! general: for every `C_n` (`n ≥ 3`) there is a collection whose
//! macro-switch max-min rates admit no feasible routing. This module
//! provides an exact decision procedure — a feasibility objective on the
//! shared branch-and-bound engine of [`search`](crate::search), so it runs
//! on any [`Fabric`], on every search thread, with the engine's
//! statistics — and a first-fit heuristic (the style of algorithm used
//! for multirate rearrangeability, §6).

use clos_fairness::link_loads;
use clos_net::{ClosNetwork, Fabric, Flow, Routing};
use clos_rational::Rational;

use crate::compiled::EvalScratch;
use crate::search::{first_equal_labels, run_search, Objective, Problem, SearchConfig};

/// Searches for a feasible routing of `flows` at the given fixed rates.
///
/// Exact: the search engine walks the canonical routing-class
/// assignments of the positive-rate flows, strongest-first (in order of
/// decreasing rate), pruning every prefix that overloads a link and
/// stopping at the first feasible assignment. Flows with equal rates
/// whose paths cross the same fabric links in every class (on Clos, the
/// same ToR pair) are interchangeable: host-link loads do not depend on
/// the routing. Host links are checked up front for the same reason.
///
/// Returns a feasible [`Routing`] (zero-rate flows via class 0) or
/// `None` if none exists. Worst-case exponential; intended for the
/// theorem-scale instances (tens of flows).
///
/// # Panics
///
/// Panics if `rates` and `flows` differ in length, any rate is negative,
/// or a flow endpoint is invalid for `fabric`.
///
/// # Examples
///
/// Theorem 4.2's point, in miniature: two rate-1 flows between the same
/// ToR pair route disjointly, three cannot exist (host links forbid it),
/// but two rate-1 flows *sharing a source* already fail at the host link:
///
/// ```
/// use clos_core::replication::find_feasible_routing;
/// use clos_net::{ClosNetwork, Flow};
/// use clos_rational::Rational;
///
/// let clos = ClosNetwork::standard(2);
/// let disjoint = [
///     Flow::new(clos.source(0, 0), clos.destination(2, 0)),
///     Flow::new(clos.source(0, 1), clos.destination(2, 1)),
/// ];
/// assert!(find_feasible_routing(&clos, &disjoint, &[Rational::ONE; 2]).is_some());
///
/// let clashing = [
///     Flow::new(clos.source(0, 0), clos.destination(2, 0)),
///     Flow::new(clos.source(0, 0), clos.destination(2, 1)),
/// ];
/// assert!(find_feasible_routing(&clos, &clashing, &[Rational::ONE; 2]).is_none());
/// ```
#[must_use]
pub fn find_feasible_routing<F: Fabric + Sync>(
    fabric: &F,
    flows: &[Flow],
    rates: &[Rational],
) -> Option<Routing> {
    check_arguments(flows, rates);
    let _span = clos_telemetry::span("replication");
    // Positive-rate flows in decreasing-rate order (stronger constraints
    // first prune earlier).
    let mut order: Vec<usize> = (0..flows.len()).filter(|&i| !rates[i].is_zero()).collect();
    order.sort_by(|&a, &b| rates[b].cmp(&rates[a]));
    let search_flows: Vec<Flow> = order.iter().map(|&i| flows[i]).collect();
    let search_rates: Vec<Rational> = order.iter().map(|&i| rates[i]).collect();
    let objective = Feasibility {
        rates: &search_rates,
    };
    let (winner, _) = run_search(fabric, &search_flows, &objective, SearchConfig::default());
    let mut classes = vec![0; flows.len()];
    for (&i, &c) in order.iter().zip(&winner) {
        classes[i] = c;
    }
    let routing: Routing = flows
        .iter()
        .zip(&classes)
        .map(|(&f, &c)| fabric.path_via_class(f, c))
        .collect();
    // The winner is the seed when no assignment is feasible.
    is_replication_feasible(fabric, flows, rates, &routing).then_some(routing)
}

/// Feasibility at fixed rates as a search objective: the key is whether
/// every link carries at most its capacity.
struct Feasibility<'r> {
    /// Fixed rate of every searched flow, in search order.
    rates: &'r [Rational],
}

impl<F: Fabric> Objective<F> for Feasibility<'_> {
    type Key = bool;

    /// Routes the fixed rates instead of water-filling.
    fn evaluate(&self, problem: &Problem<'_, F>, scratch: &mut EvalScratch, assignment: &[usize]) {
        problem
            .compiled()
            .route_fixed(scratch, self.rates, assignment);
    }

    /// Equal rate and the same class-dependent links in every class
    /// (each path row without its host links; on Clos, the ToR pair).
    fn interchange_labels(&self, problem: &Problem<'_, F>) -> Vec<usize> {
        let compiled = problem.compiled();
        first_equal_labels((0..self.rates.len()).map(|i| {
            let interior: Vec<&[usize]> = (0..compiled.class_count())
                .map(|c| {
                    let row = compiled.path_links(i, c);
                    &row[1..row.len() - 1]
                })
                .collect();
            (self.rates[i], interior)
        }))
    }

    fn key(&self, scratch: &mut EvalScratch) -> bool {
        scratch.fixed_rates_fit()
    }

    fn beats(&self, incumbent: &bool, scratch: &mut EvalScratch) -> bool {
        !*incumbent && Objective::<F>::key(self, scratch)
    }

    /// Whether the prefix flows alone fit: rates are non-negative, so a
    /// link the prefix overloads stays overloaded in every completion.
    fn prefix_bound(
        &self,
        problem: &Problem<'_, F>,
        prefix: &[usize],
        scratch: &mut EvalScratch,
    ) -> Option<bool> {
        Objective::<F>::evaluate(self, problem, scratch, prefix);
        Some(Objective::<F>::key(self, scratch))
    }

    /// Whether the host links fit, whatever the routing.
    fn root_bound(&self, problem: &Problem<'_, F>, _scratch: &mut EvalScratch) -> Option<bool> {
        Some(host_links_fit(
            problem.fabric(),
            problem.flows(),
            self.rates,
        ))
    }
}

/// Argument validation shared by [`find_feasible_routing`] and
/// [`first_fit_routing`]; invalid endpoints panic where the flows' paths
/// are built.
fn check_arguments(flows: &[Flow], rates: &[Rational]) {
    assert_eq!(flows.len(), rates.len(), "rates/flows length mismatch");
    assert!(
        rates.iter().all(|r| !r.is_negative()),
        "rates must be non-negative"
    );
}

/// Whether every host access link carries at most its capacity. A flow
/// crosses its source and destination host links in every class (the
/// [`Fabric`] path contract), so these loads do not depend on the
/// routing.
fn host_links_fit<F: Fabric>(fabric: &F, flows: &[Flow], rates: &[Rational]) -> bool {
    let net = fabric.network();
    let mut loads = vec![Rational::ZERO; net.link_count()];
    let mut path = Vec::with_capacity(fabric.max_path_len());
    for (&f, &rate) in flows.iter().zip(rates) {
        path.clear();
        fabric.append_links_via(f, 0, &mut path);
        loads[path[0].index()] += rate;
        loads[path[path.len() - 1].index()] += rate;
    }
    net.links().all(|l| {
        l.capacity()
            .finite()
            .is_none_or(|cap| loads[l.id().index()] <= cap)
    })
}

/// First-fit heuristic for replication: flows in decreasing-rate order,
/// each to the middle switch with the most residual capacity on its
/// uplink/downlink pair (ties to the lowest index).
///
/// Incomplete — may return `None` where [`find_feasible_routing`] succeeds
/// — but runs in `O(F · n)` and mirrors the first-fit algorithms from the
/// multirate-rearrangeability literature the paper cites (§6).
///
/// # Panics
///
/// Panics under the same conditions as [`find_feasible_routing`].
#[must_use]
pub fn first_fit_routing(
    clos: &ClosNetwork,
    flows: &[Flow],
    rates: &[Rational],
) -> Option<Routing> {
    check_arguments(flows, rates);
    if !host_links_fit(clos, flows, rates) {
        return None;
    }
    let n = clos.middle_count();
    let tors = clos.tor_count();
    let cap = clos.params().link_capacity;

    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by(|&a, &b| rates[b].cmp(&rates[a]));

    let mut up = vec![vec![cap; n]; tors];
    let mut down = vec![vec![cap; tors]; n];
    let mut assignment = vec![0usize; flows.len()];
    for &i in &order {
        let f = flows[i];
        let rate = rates[i];
        if rate.is_zero() {
            continue;
        }
        let src = clos.src_tor(f);
        let dst = clos.dst_tor(f);
        let best = (0..n)
            .filter(|&m| up[src][m] >= rate && down[m][dst] >= rate)
            .max_by_key(|&m| (up[src][m].min(down[m][dst]), std::cmp::Reverse(m)))?;
        up[src][best] -= rate;
        down[best][dst] -= rate;
        assignment[i] = best;
    }
    Some(
        flows
            .iter()
            .zip(&assignment)
            .map(|(&f, &m)| clos.path_via(f, m))
            .collect(),
    )
}

/// Checks that `routing` carries `flows` at `rates` within every capacity
/// of `fabric` (including host links).
///
/// # Panics
///
/// Panics if lengths mismatch or the routing references foreign links.
#[must_use]
pub fn is_replication_feasible<F: Fabric>(
    fabric: &F,
    flows: &[Flow],
    rates: &[Rational],
    routing: &Routing,
) -> bool {
    let allocation = clos_fairness::Allocation::from_rates(rates.to_vec());
    let loads = link_loads(fabric.network(), flows, routing, &allocation);
    fabric
        .network()
        .links()
        .all(|l| match l.capacity().finite() {
            Some(cap) => loads[l.id().index()] <= cap,
            None => true,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constructions::{theorem_4_2, theorem_4_3_with_copies};
    use clos_net::{BenesNetwork, NodeKind};
    use proptest::prelude::*;

    fn r(num: i128, den: i128) -> Rational {
        Rational::new(num, den)
    }

    #[test]
    fn theorem_4_2_macro_rates_not_replicable() {
        // The headline of §4.1: no feasible routing at macro-switch rates.
        let t = theorem_4_2(3);
        let rates = t.instance.macro_allocation();
        assert!(
            find_feasible_routing(&t.instance.clos, &t.instance.flows, rates.rates()).is_none()
        );
        // First-fit agrees (it is incomplete, so None is expected too).
        assert!(first_fit_routing(&t.instance.clos, &t.instance.flows, rates.rates()).is_none());
    }

    #[test]
    fn theorem_4_2_without_type3_is_replicable() {
        // Dropping the type-3 flow makes the macro rates replicable — the
        // certificate routing of Lemma 4.6 Step 1 shows how; the search
        // must find one too.
        let t = theorem_4_2(3);
        let rates = t.instance.macro_allocation();
        let keep: Vec<usize> = (0..t.instance.flows.len() - 1).collect();
        let flows: Vec<Flow> = keep.iter().map(|&i| t.instance.flows[i]).collect();
        let kept_rates: Vec<Rational> = keep.iter().map(|&i| rates.rates()[i]).collect();
        let routing = find_feasible_routing(&t.instance.clos, &flows, &kept_rates)
            .expect("replicable without the type-3 flow");
        assert!(is_replication_feasible(
            &t.instance.clos,
            &flows,
            &kept_rates,
            &routing
        ));
    }

    #[test]
    fn theorem_4_3_macro_rates_not_replicable_either() {
        let t = theorem_4_3_with_copies(3, 4);
        let rates = t.instance.macro_allocation();
        assert!(
            find_feasible_routing(&t.instance.clos, &t.instance.flows, rates.rates()).is_none()
        );
    }

    #[test]
    fn found_routings_are_certified_feasible() {
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 1)),
            Flow::new(clos.source(1, 0), clos.destination(2, 0)),
        ];
        // Rates sum to 1 on t_2^0's downlink; fabric must split flows 0,2.
        let rates = [r(1, 2), Rational::ONE, r(1, 2)];
        let routing = find_feasible_routing(&clos, &flows, &rates).expect("feasible");
        assert!(is_replication_feasible(&clos, &flows, &rates, &routing));
        assert!(routing.validate(clos.network(), &flows).is_ok());
    }

    #[test]
    fn host_link_overflow_rejected_before_search() {
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 0), clos.destination(3, 0)),
        ];
        let rates = [r(2, 3), r(2, 3)];
        assert!(find_feasible_routing(&clos, &flows, &rates).is_none());
    }

    #[test]
    fn zero_rate_flows_never_block() {
        let clos = ClosNetwork::standard(2);
        let flows = vec![Flow::new(clos.source(0, 0), clos.destination(2, 0)); 10];
        let mut rates = vec![Rational::ZERO; 10];
        rates[0] = Rational::ONE;
        let routing = find_feasible_routing(&clos, &flows, &rates).expect("feasible");
        assert!(is_replication_feasible(&clos, &flows, &rates, &routing));
    }

    #[test]
    fn first_fit_solves_easy_instances() {
        let clos = ClosNetwork::standard(3);
        let mut flows = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                flows.push(Flow::new(clos.source(i, j), clos.destination(i + 3, j)));
            }
        }
        let rates = vec![Rational::ONE; flows.len()];
        let routing = first_fit_routing(&clos, &flows, &rates).expect("feasible");
        assert!(is_replication_feasible(&clos, &flows, &rates, &routing));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_rates_panic() {
        let clos = ClosNetwork::standard(2);
        let flows = [Flow::new(clos.source(0, 0), clos.destination(2, 0))];
        let _ = find_feasible_routing(&clos, &flows, &[]);
    }

    #[test]
    fn first_fit_rejects_host_link_overflow() {
        // Distinct destination ToRs leave every fabric link with room;
        // only the shared source host link overflows.
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 0), clos.destination(3, 0)),
        ];
        let rates = [r(2, 3), r(2, 3)];
        assert!(first_fit_routing(&clos, &flows, &rates).is_none());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn first_fit_rejects_negative_rates() {
        let clos = ClosNetwork::standard(2);
        let flows = [Flow::new(clos.source(0, 0), clos.destination(2, 0))];
        let _ = first_fit_routing(&clos, &flows, &[r(-1, 1)]);
    }

    #[test]
    fn host_link_overflow_runs_no_block() {
        // The root bound is already false, and so is the seed's key.
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 0), clos.destination(3, 0)),
        ];
        let (_, stats) = search_at(&clos, &flows, &[r(2, 3), r(2, 3)], 1);
        assert_eq!(stats.routings_examined, 1);
        assert!(stats.profile.blocks_skipped > 0);
        assert_eq!(
            stats.profile.blocks_exhausted + stats.profile.proven_blocks,
            0
        );
    }

    #[test]
    fn interchange_labels_group_equal_rates_between_equal_tor_pairs() {
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            // Same ToR pair and rate as flow 0, other hosts.
            Flow::new(clos.source(0, 1), clos.destination(2, 1)),
            // Another destination ToR, another source ToR, another rate.
            Flow::new(clos.source(0, 1), clos.destination(3, 0)),
            Flow::new(clos.source(1, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 0), clos.destination(2, 1)),
        ];
        let rates = [r(1, 2), r(1, 2), r(1, 2), r(1, 2), r(1, 4)];
        let problem = Problem::new(&clos, &flows);
        let labels =
            Objective::<ClosNetwork>::interchange_labels(&Feasibility { rates: &rates }, &problem);
        assert_eq!(labels, vec![0, 0, 2, 3, 4]);
    }

    /// Runs the feasibility search at `threads` threads, in the wrapper's
    /// flow order (decreasing rate).
    fn search_at<F: Fabric + Sync>(
        fabric: &F,
        flows: &[Flow],
        rates: &[Rational],
        threads: usize,
    ) -> (Vec<usize>, crate::objectives::SearchStats) {
        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_by(|&a, &b| rates[b].cmp(&rates[a]));
        let flows: Vec<Flow> = order.iter().map(|&i| flows[i]).collect();
        let rates: Vec<Rational> = order.iter().map(|&i| rates[i]).collect();
        let config = SearchConfig {
            threads: Some(threads),
            ..SearchConfig::default()
        };
        run_search(fabric, &flows, &Feasibility { rates: &rates }, config)
    }

    #[test]
    fn search_is_thread_invariant_on_theorem_4_2() {
        let t = theorem_4_2(3);
        let rates = t.instance.macro_allocation();
        let flows = &t.instance.flows;
        for count in [flows.len(), flows.len() - 1] {
            let (flows, rates) = (&flows[..count], &rates.rates()[..count]);
            let single = search_at(&t.instance.clos, flows, rates, 1);
            for threads in [2, 5] {
                assert_eq!(single, search_at(&t.instance.clos, flows, rates, threads));
            }
        }
    }

    /// Whether some routing among all `n^F` carries the rates: the
    /// brute-force reference for the search.
    fn brute_force_feasible<F: Fabric>(fabric: &F, flows: &[Flow], rates: &[Rational]) -> bool {
        let n = fabric.class_count();
        let mut classes = vec![0usize; flows.len()];
        loop {
            let routing: Routing = flows
                .iter()
                .zip(&classes)
                .map(|(&f, &c)| fabric.path_via_class(f, c))
                .collect();
            if is_replication_feasible(fabric, flows, rates, &routing) {
                return true;
            }
            // Odometer step; false once every assignment was tried.
            let Some(i) = classes.iter().position(|&c| c + 1 < n) else {
                return false;
            };
            classes[..i].fill(0);
            classes[i] += 1;
        }
    }

    /// The search agrees with brute force, returns certified routings,
    /// and is thread-invariant.
    fn check_against_brute_force<F: Fabric + Sync>(
        fabric: &F,
        dsts: &[usize],
        rate_picks: &[usize],
    ) {
        const RATES: [(i128, i128); 6] = [(0, 1), (1, 4), (1, 3), (1, 2), (2, 3), (1, 1)];
        let net = fabric.network();
        let sources = net.nodes_of_kind(NodeKind::Source);
        let dests = net.nodes_of_kind(NodeKind::Destination);
        let flows: Vec<Flow> = dsts
            .iter()
            .enumerate()
            .map(|(k, &d)| Flow::new(sources[k % sources.len()], dests[d % dests.len()]))
            .collect();
        let rates: Vec<Rational> = rate_picks[..flows.len()]
            .iter()
            .map(|&k| {
                let (num, den) = RATES[k % RATES.len()];
                r(num, den)
            })
            .collect();
        let found = find_feasible_routing(fabric, &flows, &rates);
        assert_eq!(
            found.is_some(),
            brute_force_feasible(fabric, &flows, &rates)
        );
        if let Some(routing) = found {
            assert!(is_replication_feasible(fabric, &flows, &rates, &routing));
            assert!(routing.validate(net, &flows).is_ok());
        }
        assert_eq!(
            search_at(fabric, &flows, &rates, 1),
            search_at(fabric, &flows, &rates, 3)
        );
    }

    // Flow `k` leaves source host `k` (hosts are numbered ToR by ToR, so
    // neighbouring flows share a ToR) toward a drawn destination host.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn agrees_with_brute_force_on_c2(
            dsts in prop::collection::vec(0..8usize, 1..=7),
            picks in prop::collection::vec(0..6usize, 7),
        ) {
            check_against_brute_force(&ClosNetwork::standard(2), &dsts, &picks);
        }

        #[test]
        fn agrees_with_brute_force_on_c3(
            dsts in prop::collection::vec(0..18usize, 1..=6),
            picks in prop::collection::vec(0..6usize, 6),
        ) {
            check_against_brute_force(&ClosNetwork::standard(3), &dsts, &picks);
        }

        #[test]
        fn agrees_with_brute_force_on_oversubscribed_benes(
            dsts in prop::collection::vec(0..4usize, 1..=6),
            picks in prop::collection::vec(0..6usize, 6),
            shift in 1..3u32,
        ) {
            let benes = BenesNetwork::standard(2);
            let overlay = clos_net::interior_overlay(
                benes.network(),
                benes.nominal_capacity(),
                1 << shift,
            );
            let benes = benes.with_capacities(&overlay);
            check_against_brute_force(&benes, &dsts, &picks);
        }
    }
}
