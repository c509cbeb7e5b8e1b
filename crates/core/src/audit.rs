//! One-stop diagnosis of a routing: allocation, bottleneck placement,
//! macro-switch comparison, and bound checks.
//!
//! [`audit_routing`] gathers everything the paper measures about a routing
//! into one report: the max-min fair allocation congestion control would
//! impose (with each flow's bottleneck link and whether it lies inside the
//! fabric — the §2.2 "bottleneck transfer"), the per-flow ratios against
//! the macro-switch reference, and the throughput against the universal
//! bounds (`T ≤ T^MT`, Theorem 3.4's `T^MT ≤ 2·T^MmF_MS`).

use std::fmt;

use clos_fairness::{max_min_fair_traced, Allocation, WaterfillTrace};
use clos_net::{ClosNetwork, Flow, FlowId, MacroSwitch, NodeKind, Routing};
use clos_rational::Rational;

use crate::macro_switch::{macro_max_min, max_throughput};
use crate::relative::relative_rates;

/// Where a flow's bottleneck link sits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BottleneckSite {
    /// A server↔ToR link ("outside the network") — the only possibility in
    /// a macro-switch.
    HostLink,
    /// A ToR↔middle fabric link ("inside the network") — the phenomenon
    /// unique to Clos routing (§2.2).
    FabricLink,
}

/// The complete diagnostic report for one routing of one flow collection.
#[derive(Clone, Debug)]
pub struct RoutingAudit {
    /// The max-min fair allocation for the routing.
    pub allocation: Allocation<Rational>,
    /// The water-filling trace (fill levels, per-flow bottleneck links).
    pub trace: WaterfillTrace<Rational>,
    /// Where each flow's bottleneck sits.
    pub bottleneck_sites: Vec<BottleneckSite>,
    /// The macro-switch max-min reference allocation.
    pub macro_allocation: Allocation<Rational>,
    /// Per-flow ratio of network rate to macro-switch rate.
    pub ratios: Vec<Rational>,
    /// `T^MT`, the maximum throughput across the macro-switch (Lemma 3.2).
    pub max_throughput: Rational,
}

impl RoutingAudit {
    /// Throughput of the audited routing's allocation.
    #[must_use]
    pub fn throughput(&self) -> Rational {
        self.allocation.throughput()
    }

    /// Throughput of the macro-switch max-min allocation.
    #[must_use]
    pub fn macro_throughput(&self) -> Rational {
        self.macro_allocation.throughput()
    }

    /// The worst per-flow ratio — how badly the most-degraded flow fares
    /// versus the macro-switch abstraction.
    ///
    /// # Panics
    ///
    /// Panics if the collection was empty.
    #[must_use]
    pub fn min_ratio(&self) -> Rational {
        self.ratios.iter().copied().min().expect("nonempty")
    }

    /// Flows whose bottleneck moved inside the fabric.
    #[must_use]
    pub fn fabric_bottlenecked(&self) -> Vec<FlowId> {
        self.bottleneck_sites
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == BottleneckSite::FabricLink)
            .map(|(i, _)| FlowId::from(i))
            .collect()
    }

    /// Checks the universal bounds that every routing must satisfy:
    /// `T ≤ T^MT` and (Theorem 3.4, rearranged) `T^MT ≤ 2·T^MmF_MS`, hence
    /// `T ≤ 2·T^MmF_MS`.
    #[must_use]
    pub fn bounds_hold(&self) -> bool {
        let t = self.throughput();
        t <= self.max_throughput && self.max_throughput <= Rational::TWO * self.macro_throughput()
    }
}

impl fmt::Display for RoutingAudit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "throughput {} (macro-switch {}, T^MT {})",
            self.throughput(),
            self.macro_throughput(),
            self.max_throughput
        )?;
        writeln!(
            f,
            "worst flow keeps {} of its macro-switch rate; {} of {} flows bottlenecked in-fabric",
            self.min_ratio(),
            self.fabric_bottlenecked().len(),
            self.allocation.len()
        )?;
        write!(f, "bounds hold: {}", self.bounds_hold())
    }
}

/// Audits a routing end to end; see the module docs.
///
/// # Panics
///
/// Panics if the routing does not match the flows, a flow endpoint is
/// invalid for `clos`/`ms`, or the collection is empty.
///
/// # Examples
///
/// ```
/// use clos_core::audit::audit_routing;
/// use clos_net::{ClosNetwork, Flow, MacroSwitch, Routing};
/// use clos_rational::Rational;
///
/// let clos = ClosNetwork::standard(2);
/// let ms = MacroSwitch::standard(2);
/// let flows = vec![
///     Flow::new(clos.source(0, 0), clos.destination(2, 0)),
///     Flow::new(clos.source(0, 1), clos.destination(2, 1)),
/// ];
/// // Force both flows through middle 0: they halve each other.
/// let routing: Routing = flows.iter().map(|&f| clos.path_via(f, 0)).collect();
/// let audit = audit_routing(&clos, &ms, &flows, &routing);
/// assert_eq!(audit.min_ratio(), Rational::new(1, 2));
/// assert_eq!(audit.fabric_bottlenecked().len(), 2);
/// assert!(audit.bounds_hold());
/// ```
#[must_use]
pub fn audit_routing(
    clos: &ClosNetwork,
    ms: &MacroSwitch,
    flows: &[Flow],
    routing: &Routing,
) -> RoutingAudit {
    assert!(!flows.is_empty(), "cannot audit an empty collection");
    let (allocation, trace) = max_min_fair_traced::<Rational>(clos.network(), flows, routing)
        .expect("Clos links are finite");

    let bottleneck_sites = trace
        .bottleneck_of
        .iter()
        .map(|&link| {
            let l = clos.network().link(link);
            let src_kind = clos.network().node(l.src()).kind();
            let dst_kind = clos.network().node(l.dst()).kind();
            if src_kind == NodeKind::Source || dst_kind == NodeKind::Destination {
                BottleneckSite::HostLink
            } else {
                BottleneckSite::FabricLink
            }
        })
        .collect();

    let ms_flows = ms.translate_flows(clos, flows);
    let macro_allocation = macro_max_min(ms, &ms_flows);
    let ratios = relative_rates(allocation.rates(), macro_allocation.rates()).collect();
    let max_throughput = max_throughput(ms, &ms_flows).throughput();

    RoutingAudit {
        allocation,
        trace,
        bottleneck_sites,
        macro_allocation,
        ratios,
        max_throughput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constructions::{example_2_3, theorem_4_3};

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn audits_example_2_3_routings() {
        let ex = example_2_3();
        let clos = &ex.instance.clos;
        let ms = &ex.instance.ms;
        let flows = &ex.instance.flows;

        let a1 = audit_routing(clos, ms, flows, &ex.routing_1().routing);
        // Routing 1: type-3 degraded to 2/3, bottlenecked in-fabric.
        assert_eq!(a1.min_ratio(), r(2, 3));
        assert_eq!(
            a1.bottleneck_sites[5],
            BottleneckSite::FabricLink,
            "type-3 flow moved its bottleneck inside"
        );
        assert!(a1.bounds_hold());

        let a2 = audit_routing(clos, ms, flows, &ex.routing_2().routing);
        // Routing 2: type-2 flow (index 4) degraded to 1/2 of macro rate.
        assert_eq!(a2.min_ratio(), r(1, 2));
        assert_eq!(a2.bottleneck_sites[5], BottleneckSite::HostLink);
        assert!(a2.bounds_hold());
    }

    #[test]
    fn macro_friendly_routing_has_no_fabric_bottlenecks() {
        let clos = ClosNetwork::standard(2);
        let ms = MacroSwitch::standard(2);
        let flows = vec![
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 1)),
        ];
        let routing: Routing = flows
            .iter()
            .enumerate()
            .map(|(i, &f)| clos.path_via(f, i))
            .collect();
        let audit = audit_routing(&clos, &ms, &flows, &routing);
        assert!(audit.fabric_bottlenecked().is_empty());
        assert_eq!(audit.min_ratio(), Rational::ONE);
        assert_eq!(audit.throughput(), Rational::TWO);
    }

    #[test]
    fn audit_of_certificate_shows_starvation() {
        let t = theorem_4_3(3);
        let cert = t.certificate();
        let audit = audit_routing(
            &t.instance.clos,
            &t.instance.ms,
            &t.instance.flows,
            &cert.routing,
        );
        assert_eq!(audit.min_ratio(), r(1, 3));
        // The starved flow is exactly the fabric-bottlenecked type-3 flow.
        let starved: Vec<_> = audit
            .ratios
            .iter()
            .enumerate()
            .filter(|&(_, &x)| x == r(1, 3))
            .map(|(i, _)| FlowId::from(i))
            .collect();
        assert_eq!(starved, vec![t.type3_flow()]);
        assert!(audit.fabric_bottlenecked().contains(&t.type3_flow()));
        assert!(audit.bounds_hold());
    }

    #[test]
    fn display_summarizes() {
        let clos = ClosNetwork::standard(2);
        let ms = MacroSwitch::standard(2);
        let flows = vec![Flow::new(clos.source(0, 0), clos.destination(2, 0))];
        let routing: Routing = flows.iter().map(|&f| clos.path_via(f, 0)).collect();
        let audit = audit_routing(&clos, &ms, &flows, &routing);
        let text = audit.to_string();
        assert!(text.contains("throughput 1"));
        assert!(text.contains("bounds hold: true"));
    }

    #[test]
    #[should_panic(expected = "empty collection")]
    fn empty_collection_rejected() {
        let clos = ClosNetwork::standard(1);
        let ms = MacroSwitch::standard(1);
        let _ = audit_routing(&clos, &ms, &[], &Routing::new(vec![]));
    }
}
