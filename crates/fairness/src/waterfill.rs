//! The water-filling (progressive-filling) max-min fair allocator.
//!
//! Since the compiled-pipeline refactor this module is a thin adapter: it
//! validates the routing, translates paths into dense finite-link lists,
//! and delegates the actual iteration to
//! [`WaterfillInstance::run`](crate::WaterfillInstance::run) (see
//! [`compiled`](crate::compiled)). Callers that evaluate many routings
//! against one network should use that compiled API directly and reuse
//! its scratch; callers that allocate once keep the convenient signature
//! here.

use std::error::Error;
use std::fmt;

use clos_net::{Flow, FlowId, Network, Routing};
use clos_rational::Scalar;

use crate::compiled::{WaterfillInstance, WaterfillScratch};
use crate::Allocation;

/// The error returned when no max-min fair allocation exists.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FairnessError {
    /// A flow's path traverses no finite-capacity link, so its fair rate is
    /// unbounded. Cannot occur in the paper's topologies (every server link
    /// is finite) but is reported rather than looping for arbitrary
    /// networks.
    UnboundedRate(FlowId),
}

impl fmt::Display for FairnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FairnessError::UnboundedRate(flow) => {
                write!(f, "flow {flow} traverses no finite-capacity link")
            }
        }
    }
}

impl Error for FairnessError {}

/// Computes the max-min fair allocation for a routed flow collection by
/// progressive filling (Definition 2.1; algorithm of Bertsekas & Gallager).
///
/// All flow rates rise uniformly from zero; when a link saturates — the
/// link minimizing `(residual capacity) / (number of unfrozen flows)` — the
/// flows crossing it freeze at the current fill level, and the process
/// repeats on the rest. The result is the unique feasible allocation whose
/// sorted rate vector is lexicographically maximum, and every flow ends
/// with a bottleneck link (Lemma 2.2; checked by
/// [`verify_bottleneck_property`]).
///
/// Runs in `O(R·A + F·P)` for `R` freezing rounds, `A` links still
/// carrying unfrozen flows, `F` flows, and path length `P`.
/// Generic over [`Scalar`]: exact with `Rational`, fast with `TotalF64`.
///
/// # Errors
///
/// Returns [`FairnessError::UnboundedRate`] if some flow's path has no
/// finite-capacity link.
///
/// # Panics
///
/// Panics if the routing does not cover exactly the flow collection, or if
/// a path references a link outside `net`.
///
/// # Examples
///
/// The adversarial macro-switch of Example 3.3 (Figure 2b): two "type 1"
/// flows on disjoint pairs plus one crossing "type 2" flow; all three end
/// at rate `1/2`:
///
/// ```
/// use clos_fairness::max_min_fair;
/// use clos_net::{Flow, MacroSwitch};
/// use clos_rational::Rational;
///
/// let ms = MacroSwitch::standard(1);
/// let flows = [
///     Flow::new(ms.source(0, 0), ms.destination(0, 0)),
///     Flow::new(ms.source(1, 0), ms.destination(1, 0)),
///     Flow::new(ms.source(1, 0), ms.destination(0, 0)),
/// ];
/// let alloc = max_min_fair::<Rational>(ms.network(), &flows, &ms.routing(&flows))?;
/// assert!(alloc.rates().iter().all(|&r| r == Rational::new(1, 2)));
/// assert_eq!(alloc.throughput(), Rational::new(3, 2));
/// # Ok::<(), clos_fairness::FairnessError>(())
/// ```
///
/// [`verify_bottleneck_property`]: crate::verify_bottleneck_property
pub fn max_min_fair<S: Scalar>(
    net: &Network,
    flows: &[Flow],
    routing: &Routing,
) -> Result<Allocation<S>, FairnessError> {
    let (_, scratch) = compile_and_run(net, flows, routing, None)?;
    Ok(Allocation::from_rates(scratch.into_rates()))
}

/// A trace of the water-filling process: the fill levels in order and the
/// link at which each flow froze.
///
/// §2.2 observes that moving from a macro-switch to a Clos network can
/// *transfer a flow's bottleneck* from a server link to a fabric link; the
/// trace makes that transfer observable (and is how the examples of the
/// paper narrate their allocations).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WaterfillTrace<S> {
    /// The fill level of each freezing round, in non-decreasing order.
    pub levels: Vec<S>,
    /// For each flow, the saturated link that froze it — a bottleneck link
    /// in the sense of Lemma 2.2.
    pub bottleneck_of: Vec<clos_net::LinkId>,
}

impl<S: Scalar> WaterfillTrace<S> {
    /// Returns the bottleneck link of `flow`.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is out of range.
    #[must_use]
    pub fn bottleneck(&self, flow: FlowId) -> clos_net::LinkId {
        self.bottleneck_of[flow.index()]
    }
}

/// Like [`max_min_fair`], additionally returning a [`WaterfillTrace`]
/// recording each flow's bottleneck link and the fill levels.
///
/// # Errors
///
/// Same as [`max_min_fair`].
///
/// # Panics
///
/// Same as [`max_min_fair`].
///
/// # Examples
///
/// In a macro-switch, flows bottleneck only on server links (§2.2):
///
/// ```
/// use clos_fairness::max_min_fair_traced;
/// use clos_net::{Flow, MacroSwitch, FlowId};
/// use clos_rational::Rational;
///
/// let ms = MacroSwitch::standard(1);
/// let flows = [
///     Flow::new(ms.source(0, 0), ms.destination(0, 0)),
///     Flow::new(ms.source(1, 0), ms.destination(0, 0)),
/// ];
/// let routing = ms.routing(&flows);
/// let (_, trace) = max_min_fair_traced::<Rational>(ms.network(), &flows, &routing)?;
/// assert_eq!(trace.bottleneck(FlowId::new(0)), ms.host_downlink(0, 0));
/// # Ok::<(), clos_fairness::FairnessError>(())
/// ```
pub fn max_min_fair_traced<S: Scalar>(
    net: &Network,
    flows: &[Flow],
    routing: &Routing,
) -> Result<(Allocation<S>, WaterfillTrace<S>), FairnessError> {
    let (instance, scratch) = compile_and_run(net, flows, routing, None)?;
    let bottleneck_of = scratch
        .bottlenecks()
        .iter()
        .map(|&d| instance.link_id(d as usize))
        .collect();
    Ok((
        Allocation::from_rates(scratch.rates().to_vec()),
        WaterfillTrace {
            levels: scratch.levels().to_vec(),
            bottleneck_of,
        },
    ))
}

/// Compiles `net`, describes the routed flows into a fresh scratch (flow
/// `i` as one entry of `multiplicities[i]` identical flows, if given),
/// and runs it once — the body shared by the allocating wrappers.
pub(crate) fn compile_and_run<S: Scalar>(
    net: &Network,
    flows: &[Flow],
    routing: &Routing,
    multiplicities: Option<&[usize]>,
) -> Result<(WaterfillInstance<S>, WaterfillScratch<S>), FairnessError> {
    assert_eq!(
        routing.len(),
        flows.len(),
        "routing covers {} flows, collection has {}",
        routing.len(),
        flows.len()
    );
    debug_assert!(
        routing.validate(net, flows).is_ok(),
        "invalid routing passed to max_min_fair"
    );

    // Compile once, describe the routing into a fresh scratch, run once.
    // Only finite links can bottleneck flows; the instance holds a dense
    // array of just those, so no per-link `Option<S>` is ever unwrapped.
    let instance = WaterfillInstance::<S>::compile(net);
    let mut scratch = WaterfillScratch::new();
    let entries = routing.paths().iter().map(|p| p.links().len()).sum();
    scratch.reserve(routing.len() + 1, entries);
    scratch.begin();
    let mut buf: Vec<usize> = Vec::new();
    for (i, path) in routing.paths().iter().enumerate() {
        buf.clear();
        for &e in path.links() {
            assert!(e.index() < net.link_count(), "path references foreign link");
            if let Some(d) = instance.dense_index(e) {
                buf.push(d);
            }
        }
        // A flow with no finite link would fill forever.
        if buf.is_empty() {
            return Err(FairnessError::UnboundedRate(FlowId::from(i)));
        }
        match multiplicities {
            Some(multiplicities) => scratch.push_flows(&buf, multiplicities[i]),
            None => scratch.push_flow(&buf),
        }
    }
    instance.run(&mut scratch);
    Ok((instance, scratch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clos_net::{Capacity, ClosNetwork, MacroSwitch, NodeKind, Path};
    use clos_rational::{Rational, TotalF64};

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn lone_flow_gets_full_capacity() {
        let ms = MacroSwitch::standard(2);
        let flows = [Flow::new(ms.source(0, 0), ms.destination(3, 1))];
        let a = max_min_fair::<Rational>(ms.network(), &flows, &ms.routing(&flows)).unwrap();
        assert_eq!(a.rates(), &[Rational::ONE]);
    }

    #[test]
    fn equal_sharing_on_single_link() {
        let ms = MacroSwitch::standard(2);
        // Four flows out of the same source share its host uplink.
        let flows: Vec<Flow> = (0..4)
            .map(|k| Flow::new(ms.source(0, 0), ms.destination(k % 4, k / 4)))
            .collect();
        let a = max_min_fair::<Rational>(ms.network(), &flows, &ms.routing(&flows)).unwrap();
        assert!(a.rates().iter().all(|&x| x == r(1, 4)));
    }

    #[test]
    fn cascading_levels() {
        // Two flows share a source; one of them also shares a destination
        // with a third flow. Water-filling proceeds in two levels.
        let ms = MacroSwitch::standard(2);
        let flows = [
            Flow::new(ms.source(0, 0), ms.destination(0, 0)),
            Flow::new(ms.source(0, 0), ms.destination(0, 1)),
            Flow::new(ms.source(0, 1), ms.destination(0, 1)),
        ];
        let a = max_min_fair::<Rational>(ms.network(), &flows, &ms.routing(&flows)).unwrap();
        // Flows 0 and 1 bottleneck at the shared source (1/2 each); flow 2
        // then takes the rest of t_0^1's downlink.
        assert_eq!(a.rates(), &[r(1, 2), r(1, 2), r(1, 2)]);
        // Tighter variant: flows 0,1,2 as above plus another flow into
        // t_0^1 from a third source.
        let flows = [
            Flow::new(ms.source(0, 0), ms.destination(0, 0)),
            Flow::new(ms.source(0, 0), ms.destination(0, 1)),
            Flow::new(ms.source(1, 0), ms.destination(0, 1)),
        ];
        let a = max_min_fair::<Rational>(ms.network(), &flows, &ms.routing(&flows)).unwrap();
        assert_eq!(a.rates(), &[r(1, 2), r(1, 2), r(1, 2)]);
    }

    #[test]
    fn second_level_rises_above_first() {
        let ms = MacroSwitch::standard(2);
        // Three flows out of s_0^0 (bottleneck 1/3); one flow into t_1^0
        // shares the downlink with one of them and rises to 2/3.
        let flows = [
            Flow::new(ms.source(0, 0), ms.destination(0, 0)),
            Flow::new(ms.source(0, 0), ms.destination(0, 1)),
            Flow::new(ms.source(0, 0), ms.destination(1, 0)),
            Flow::new(ms.source(1, 1), ms.destination(1, 0)),
        ];
        let a = max_min_fair::<Rational>(ms.network(), &flows, &ms.routing(&flows)).unwrap();
        assert_eq!(a.rates(), &[r(1, 3), r(1, 3), r(1, 3), r(2, 3)]);
    }

    #[test]
    fn example_2_3_clos_routings_match_paper() {
        // Figure 1a: the two routings discussed in Example 2.3.
        let clos = ClosNetwork::standard(2);
        // Paper indices are 1-based; ours 0-based.
        let flows = [
            Flow::new(clos.source(0, 1), clos.destination(0, 1)), // type 1: s_1^2 -> t_1^2
            Flow::new(clos.source(0, 1), clos.destination(1, 0)), // type 1: s_1^2 -> t_2^1
            Flow::new(clos.source(0, 1), clos.destination(1, 1)), // type 1: s_1^2 -> t_2^2
            Flow::new(clos.source(1, 0), clos.destination(1, 0)), // type 2: s_2^1 -> t_2^1
            Flow::new(clos.source(1, 1), clos.destination(1, 1)), // type 2: s_2^2 -> t_2^2
            Flow::new(clos.source(0, 0), clos.destination(0, 0)), // type 3: s_1^1 -> t_1^1
        ];
        // Routing 1: the type 1 flow (s_1^2, t_2^1) via M_1 (paper: M_1, our
        // index 0); spread the other type 1 flows so type 2 keep their
        // rates; type 3 shares I_0->M_0 with type-1 traffic.
        // Paper routing (Figure 1a): type1 (s12,t12)->M2, (s12,t21)->M1,
        // (s12,t22)->M2? The figure routes so that type1+type3 rates come out
        // [1/3,1/3,1/3,2/3,2/3,2/3]. Use: f0 via M_1, f1 via M_0, f2 via M_1,
        // f3 via M_1, f4 via M_0, f5 via M_0.
        let routing1 = Routing::new(vec![
            clos.path_via(flows[0], 1),
            clos.path_via(flows[1], 0),
            clos.path_via(flows[2], 1),
            clos.path_via(flows[3], 1),
            clos.path_via(flows[4], 0),
            clos.path_via(flows[5], 0),
        ]);
        let a1 = max_min_fair::<Rational>(clos.network(), &flows, &routing1).unwrap();
        assert_eq!(
            a1.sorted().rates(),
            &[r(1, 3), r(1, 3), r(1, 3), r(2, 3), r(2, 3), r(2, 3)]
        );

        // Routing 2: re-assign (s_1^2, t_2^1) to M_2 (our index 1), so it
        // shares M_1->O_1 with the type 2 flow (s_2^2, t_2^2), which drops
        // to 1/3; type 3 recovers rate 1.
        let routing2 = Routing::new(vec![
            clos.path_via(flows[0], 1),
            clos.path_via(flows[1], 1),
            clos.path_via(flows[2], 1),
            clos.path_via(flows[3], 0),
            clos.path_via(flows[4], 1),
            clos.path_via(flows[5], 0),
        ]);
        let a2 = max_min_fair::<Rational>(clos.network(), &flows, &routing2).unwrap();
        assert_eq!(
            a2.sorted().rates(),
            &[r(1, 3), r(1, 3), r(1, 3), r(1, 3), r(2, 3), Rational::ONE]
        );
        // Lexicographic order matches the paper's conclusion.
        assert!(a1.sorted() > a2.sorted());
    }

    #[test]
    fn unbounded_flow_detected() {
        use clos_net::Network;
        let mut net = Network::new();
        let s = net.add_node(NodeKind::Source, "s");
        let t = net.add_node(NodeKind::Destination, "t");
        let e = net.add_link(s, t, Capacity::Infinite).unwrap();
        let flows = [Flow::new(s, t)];
        let routing = Routing::new(vec![Path::new(vec![e])]);
        assert_eq!(
            max_min_fair::<Rational>(&net, &flows, &routing),
            Err(FairnessError::UnboundedRate(FlowId::new(0)))
        );
        assert!(FairnessError::UnboundedRate(FlowId::new(0))
            .to_string()
            .contains("no finite-capacity link"));
    }

    #[test]
    fn empty_collection_allocates_nothing() {
        let ms = MacroSwitch::standard(1);
        let a = max_min_fair::<Rational>(ms.network(), &[], &Routing::new(vec![])).unwrap();
        assert!(a.is_empty());
    }

    #[test]
    fn f64_mode_close_to_exact() {
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 0)),
            Flow::new(clos.source(1, 0), clos.destination(2, 1)),
        ];
        let routing = Routing::new(vec![
            clos.path_via(flows[0], 0),
            clos.path_via(flows[1], 0),
            clos.path_via(flows[2], 0),
        ]);
        let exact = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();
        let fast = max_min_fair::<TotalF64>(clos.network(), &flows, &routing).unwrap();
        for (e, f) in exact.rates().iter().zip(fast.rates()) {
            assert!((e.to_f64() - f.get()).abs() < 1e-12);
        }
    }

    #[test]
    fn allocation_is_feasible_and_bottlenecked() {
        use crate::{is_feasible, verify_bottleneck_property};
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 0)),
            Flow::new(clos.source(1, 0), clos.destination(3, 1)),
            Flow::new(clos.source(1, 0), clos.destination(2, 1)),
        ];
        let routing = Routing::new(vec![
            clos.path_via(flows[0], 0),
            clos.path_via(flows[1], 1),
            clos.path_via(flows[2], 0),
            clos.path_via(flows[3], 0),
        ]);
        let a = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();
        assert!(is_feasible(clos.network(), &flows, &routing, &a).is_ok());
        assert!(
            verify_bottleneck_property(clos.network(), &flows, &routing, &a, Rational::ZERO)
                .is_ok()
        );
    }

    #[test]
    fn trace_reports_bottlenecks_satisfying_lemma_2_2() {
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 0)),
            Flow::new(clos.source(1, 0), clos.destination(3, 1)),
        ];
        let routing = Routing::new(vec![
            clos.path_via(flows[0], 0),
            clos.path_via(flows[1], 1),
            clos.path_via(flows[2], 0),
        ]);
        let (alloc, trace) =
            max_min_fair_traced::<Rational>(clos.network(), &flows, &routing).unwrap();
        let loads = crate::link_loads(clos.network(), &flows, &routing, &alloc);
        for (i, path) in routing.paths().iter().enumerate() {
            let b = trace.bottleneck(FlowId::from(i));
            // The reported bottleneck is on the flow's path...
            assert!(path.contains(b));
            // ...saturated...
            let cap = clos.network().link(b).capacity().finite().unwrap();
            assert_eq!(loads[b.index()], cap);
            // ...and the flow's rate is maximal there (Lemma 2.2).
            for (j, other) in routing.paths().iter().enumerate() {
                if other.contains(b) {
                    assert!(alloc.rates()[i] >= alloc.rates()[j]);
                }
            }
        }
        // Levels are non-decreasing.
        assert!(trace.levels.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn trace_shows_bottleneck_transfer_of_example_2_3() {
        // §2.2: re-routing the flow (s_1^2, t_2^1) moves the type-3 flow's
        // bottleneck between a fabric uplink (routing 1) and its server
        // links (routing 2).
        let clos = ClosNetwork::standard(2);
        let flows = [
            Flow::new(clos.source(0, 1), clos.destination(0, 1)),
            Flow::new(clos.source(0, 1), clos.destination(1, 0)),
            Flow::new(clos.source(0, 1), clos.destination(1, 1)),
            Flow::new(clos.source(1, 0), clos.destination(1, 0)),
            Flow::new(clos.source(1, 1), clos.destination(1, 1)),
            Flow::new(clos.source(0, 0), clos.destination(0, 0)),
        ];
        let type3 = FlowId::new(5);
        let routing1 = Routing::new(vec![
            clos.path_via(flows[0], 1),
            clos.path_via(flows[1], 0),
            clos.path_via(flows[2], 1),
            clos.path_via(flows[3], 1),
            clos.path_via(flows[4], 0),
            clos.path_via(flows[5], 0),
        ]);
        let (a1, t1) = max_min_fair_traced::<Rational>(clos.network(), &flows, &routing1).unwrap();
        assert_eq!(a1.rate(type3), r(2, 3));
        // Bottlenecked inside the fabric: the I_0 -> M_0 uplink.
        assert_eq!(t1.bottleneck(type3), clos.uplink(0, 0));

        let routing2 = Routing::new(vec![
            clos.path_via(flows[0], 1),
            clos.path_via(flows[1], 1),
            clos.path_via(flows[2], 1),
            clos.path_via(flows[3], 0),
            clos.path_via(flows[4], 1),
            clos.path_via(flows[5], 0),
        ]);
        let (a2, t2) = max_min_fair_traced::<Rational>(clos.network(), &flows, &routing2).unwrap();
        assert_eq!(a2.rate(type3), Rational::ONE);
        // Bottleneck back outside the fabric (a server link).
        let b = t2.bottleneck(type3);
        assert!(b == clos.host_uplink(0, 0) || b == clos.host_downlink(0, 0));
    }

    #[test]
    #[should_panic(expected = "routing covers")]
    fn mismatched_routing_panics() {
        let ms = MacroSwitch::standard(1);
        let flows = [Flow::new(ms.source(0, 0), ms.destination(0, 0))];
        let _ = max_min_fair::<Rational>(ms.network(), &flows, &Routing::new(vec![]));
    }
}
