//! Replicating macro-switch rates inside the Clos network (§4.1).
//!
//! Given a collection of flows *offered to the data-center with fixed
//! rates* (typically their macro-switch max-min rates), is there a feasible
//! routing — one satisfying every link capacity? Theorem 4.2 answers no in
//! general: for every `C_n` (`n ≥ 3`) there is a collection whose
//! macro-switch max-min rates admit no feasible routing. This module
//! provides an exact backtracking decision procedure and a first-fit
//! heuristic (the style of algorithm used for multirate rearrangeability,
//! §6).

#![allow(clippy::too_many_arguments)]

use clos_fairness::link_loads;
use clos_net::{expect_server_coords, ClosNetwork, Flow, NodeKind, Routing};
use clos_rational::Rational;

/// Searches for a feasible routing of `flows` at the given fixed rates.
///
/// Exact backtracking over middle-switch assignments, strongest-first:
/// flows are assigned in order of decreasing rate, identical middle
/// switches are symmetry-broken by first use, and branches that overflow an
/// uplink or downlink are pruned. Host links are checked up front — their
/// load does not depend on the routing.
///
/// Returns a feasible [`Routing`] or `None` if none exists. Worst-case
/// exponential; intended for the theorem-scale instances (tens of flows).
///
/// # Panics
///
/// Panics if `rates` and `flows` differ in length, any rate is negative,
/// or a flow endpoint is invalid for `clos`.
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
pub fn find_feasible_routing(
    clos: &ClosNetwork,
    flows: &[Flow],
    rates: &[Rational],
) -> Option<Routing> {
    assert_eq!(flows.len(), rates.len(), "rates/flows length mismatch");
    assert!(
        rates.iter().all(|r| !r.is_negative()),
        "rates must be non-negative"
    );
    let _span = clos_telemetry::span("replication");
    let n = clos.middle_count();
    let tors = clos.tor_count();
    let cap = clos.params().link_capacity;

    // Host-link loads are routing-independent; reject early.
    let mut host_up = vec![Rational::ZERO; tors * clos.hosts_per_tor()];
    let mut host_down = vec![Rational::ZERO; tors * clos.hosts_per_tor()];
    for (f, &rate) in flows.iter().zip(rates) {
        let (si, sj) = expect_server_coords(f.src(), NodeKind::Source, clos.source_coords(f.src()));
        let (ti, tj) = expect_server_coords(
            f.dst(),
            NodeKind::Destination,
            clos.destination_coords(f.dst()),
        );
        host_up[si * clos.hosts_per_tor() + sj] += rate;
        host_down[ti * clos.hosts_per_tor() + tj] += rate;
    }
    if host_up.iter().chain(&host_down).any(|&load| load > cap) {
        return None;
    }

    // Assign positive-rate flows in decreasing-rate order (stronger
    // constraints first prune earlier).
    let mut order: Vec<usize> = (0..flows.len()).filter(|&i| !rates[i].is_zero()).collect();
    order.sort_by(|&a, &b| rates[b].cmp(&rates[a]));

    // Residual capacities of uplinks [tor][middle] and downlinks
    // [middle][tor].
    let mut up = vec![vec![cap; n]; tors];
    let mut down = vec![vec![cap; tors]; n];
    let mut assignment = vec![0usize; flows.len()];

    fn assign(
        pos: usize,
        order: &[usize],
        flows: &[Flow],
        rates: &[Rational],
        clos: &ClosNetwork,
        up: &mut Vec<Vec<Rational>>,
        down: &mut Vec<Vec<Rational>>,
        assignment: &mut Vec<usize>,
        max_used: usize,
    ) -> bool {
        if pos == order.len() {
            return true;
        }
        let i = order[pos];
        let f = flows[i];
        let rate = rates[i];
        let src = clos.src_tor(f);
        let dst = clos.dst_tor(f);
        let n = up[0].len();
        // Identical-bin symmetry breaking: a fresh middle switch index is
        // only tried once.
        let limit = (max_used + 1).min(n);
        for m in 0..limit {
            if up[src][m] >= rate && down[m][dst] >= rate {
                up[src][m] -= rate;
                down[m][dst] -= rate;
                assignment[i] = m;
                let next_max = max_used.max(m + 1);
                if assign(
                    pos + 1,
                    order,
                    flows,
                    rates,
                    clos,
                    up,
                    down,
                    assignment,
                    next_max,
                ) {
                    return true;
                }
                up[src][m] += rate;
                down[m][dst] += rate;
            }
        }
        false
    }

    if !assign(
        0,
        &order,
        flows,
        rates,
        clos,
        &mut up,
        &mut down,
        &mut assignment,
        0,
    ) {
        return None;
    }
    Some(
        flows
            .iter()
            .zip(&assignment)
            .map(|(&f, &m)| clos.path_via(f, m))
            .collect(),
    )
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
    assert_eq!(flows.len(), rates.len(), "rates/flows length mismatch");
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
/// of `clos` (including host links).
///
/// # Panics
///
/// Panics if lengths mismatch or the routing references foreign links.
#[must_use]
pub fn is_replication_feasible(
    clos: &ClosNetwork,
    flows: &[Flow],
    rates: &[Rational],
    routing: &Routing,
) -> bool {
    let allocation = clos_fairness::Allocation::from_rates(rates.to_vec());
    let loads = link_loads(clos.network(), flows, routing, &allocation);
    clos.network().links().all(|l| match l.capacity().finite() {
        Some(cap) => loads[l.id().index()] <= cap,
        None => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constructions::{theorem_4_2, theorem_4_3_with_copies};

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
}
