//! Link-utilization reporting for routed allocations.
//!
//! Throughput and fairness tell you what flows get; utilization tells you
//! where the fabric spends (or wastes) its capacity. The Doom-Switch
//! trade-off is vivid here: one uplink pinned at 100% while its siblings
//! idle.

use clos_fairness::{link_loads, Allocation};
use clos_net::{ClosNetwork, Flow, Routing};
use clos_rational::TotalF64;

/// Utilization statistics for one routed allocation, split by link tier.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct UtilizationReport {
    /// Mean utilization over host (server↔ToR) links.
    pub host_mean: f64,
    /// Maximum utilization over host links.
    pub host_max: f64,
    /// Mean utilization over fabric (ToR↔middle) links.
    pub fabric_mean: f64,
    /// Maximum utilization over fabric links.
    pub fabric_max: f64,
    /// Number of fabric links traversed by no routed flow. This is a
    /// property of the routing alone — max-min fair rates are strictly
    /// positive, so "no flow routed here" and "exactly zero load"
    /// coincide, and counting paths avoids any float comparison.
    pub fabric_idle: usize,
    /// Total number of fabric links.
    pub fabric_links: usize,
}

impl UtilizationReport {
    /// Fraction of fabric links that are completely idle.
    #[must_use]
    pub fn fabric_idle_fraction(&self) -> f64 {
        if self.fabric_links == 0 {
            0.0
        } else {
            self.fabric_idle as f64 / self.fabric_links as f64
        }
    }
}

/// Computes per-tier utilization of a routed allocation on `clos`.
///
/// Utilization of a link is its load divided by its capacity.
///
/// # Panics
///
/// Panics if the routing or allocation does not match the flows.
///
/// # Examples
///
/// ```
/// use clos_fairness::max_min_fair;
/// use clos_net::{ClosNetwork, Flow, Routing};
/// use clos_rational::TotalF64;
/// use clos_sim::utilization;
///
/// let clos = ClosNetwork::standard(2);
/// let flows = [Flow::new(clos.source(0, 0), clos.destination(2, 0))];
/// let routing = Routing::new(vec![clos.path_via(flows[0], 0)]);
/// let alloc = max_min_fair::<TotalF64>(clos.network(), &flows, &routing).unwrap();
/// let report = utilization(&clos, &flows, &routing, &alloc);
/// assert_eq!(report.fabric_max, 1.0); // the one used uplink is saturated
/// assert_eq!(report.fabric_idle, 14); // 16 fabric links, 2 in use
/// ```
#[must_use]
pub fn utilization(
    clos: &ClosNetwork,
    flows: &[Flow],
    routing: &Routing,
    allocation: &Allocation<TotalF64>,
) -> UtilizationReport {
    let loads = link_loads(clos.network(), flows, routing, allocation);
    let cap = clos.params().link_capacity.to_f64();

    // Idleness is decided exactly, from the routing: a link no flow's
    // path traverses carries exactly zero load (and every routed flow
    // gets a strictly positive max-min rate), so no `== 0.0` on
    // accumulated floats is needed.
    let mut traversed = vec![false; clos.network().link_count()];
    for path in routing.paths() {
        for &link in path.links() {
            traversed[link.index()] = true;
        }
    }

    let mut host = Vec::new();
    let mut fabric = Vec::new();
    let mut fabric_idle = 0usize;
    for tor in 0..clos.tor_count() {
        for h in 0..clos.hosts_per_tor() {
            host.push(loads[clos.host_uplink(tor, h).index()].get() / cap);
            host.push(loads[clos.host_downlink(tor, h).index()].get() / cap);
        }
        for m in 0..clos.middle_count() {
            for link in [clos.uplink(tor, m), clos.downlink(m, tor)] {
                fabric.push(loads[link.index()].get() / cap);
                if !traversed[link.index()] {
                    fabric_idle += 1;
                }
            }
        }
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let max = |v: &[f64]| v.iter().copied().fold(0.0f64, f64::max);
    UtilizationReport {
        host_mean: mean(&host),
        host_max: max(&host),
        fabric_mean: mean(&fabric),
        fabric_max: max(&fabric),
        fabric_idle,
        fabric_links: fabric.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clos_fairness::max_min_fair;
    use clos_net::MacroSwitch;
    use clos_workloads::Workload;

    #[test]
    fn saturated_permutation_uses_whole_fabric() {
        let clos = ClosNetwork::standard(3);
        let flows = Workload::Stride { stride: 3 }.generate(&clos, 0);
        // ToR-aligned: greedy-style disjoint assignment saturates exactly
        // the used links.
        let routing: Routing = flows
            .iter()
            .enumerate()
            .map(|(i, &f)| clos.path_via(f, i % 3))
            .collect();
        let alloc = max_min_fair::<TotalF64>(clos.network(), &flows, &routing).unwrap();
        let report = utilization(&clos, &flows, &routing, &alloc);
        assert!((report.host_mean - 1.0).abs() < 1e-9);
        assert!((report.fabric_max - 1.0).abs() < 1e-9);
        // Full stride traffic with a disjoint assignment saturates every
        // fabric link: full bisection bandwidth in action.
        assert_eq!(report.fabric_idle, 0);
        assert!((report.fabric_mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn doom_switch_concentrates_load() {
        // Theorem 5.4 instance: the doom uplink is pinned at 100% while
        // most of the fabric idles.
        let t = clos_core::constructions::theorem_5_4(7, 4);
        let doomed = clos_core::doom_switch::doom_switch(
            &t.instance.clos,
            &t.instance.ms,
            &t.instance.flows,
        );
        let alloc_f64 = clos_fairness::Allocation::from_rates(
            doomed
                .allocation
                .rates()
                .iter()
                .map(|r| TotalF64::new(r.to_f64()))
                .collect(),
        );
        let report = utilization(
            &t.instance.clos,
            &t.instance.flows,
            &doomed.routing,
            &alloc_f64,
        );
        assert!((report.fabric_max - 1.0).abs() < 1e-9);
        // All traffic lives under one ToR pair: the overwhelming majority
        // of fabric links are idle.
        assert!(report.fabric_idle_fraction() > 0.8);
    }

    #[test]
    fn idle_fraction_of_empty_report() {
        let r = UtilizationReport {
            host_mean: 0.0,
            host_max: 0.0,
            fabric_mean: 0.0,
            fabric_max: 0.0,
            fabric_idle: 0,
            fabric_links: 0,
        };
        assert_eq!(r.fabric_idle_fraction(), 0.0);
    }

    #[test]
    fn macro_switch_comparison_via_clos_all_idle() {
        // Sanity: no flows -> all zero.
        let clos = ClosNetwork::standard(2);
        let _ms = MacroSwitch::standard(2);
        let routing = Routing::new(vec![]);
        let alloc = clos_fairness::Allocation::from_rates(vec![]);
        let report = utilization(&clos, &[], &routing, &alloc);
        assert_eq!(report.fabric_idle, report.fabric_links);
        assert_eq!(report.host_max, 0.0);
    }
}
