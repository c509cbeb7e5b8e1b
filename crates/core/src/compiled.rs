//! Compiled search instances: dense flow→link incidence tables.
//!
//! The branch-and-bound engine evaluates thousands of routing-class
//! assignments against one `(fabric, flow collection)` pair. Building a
//! [`Routing`](clos_net::Routing) of heap-allocated paths per assignment,
//! then letting the allocator re-derive which links each path crosses, is
//! pure rediscovery of facts that never change during a search. This
//! module compiles those facts once:
//!
//! * [`CompiledInstance`] — for every `(flow, class)` pair, the dense
//!   finite-link indices of the candidate path, stored CSR-style so
//!   fabrics with different path lengths (4 links on Clos, `2r` on a
//!   Benes of order `r`, 6 on a fat-tree) share one layout, plus the
//!   [`WaterfillInstance`] over exactly the links any assignment can
//!   use. Applying an assignment is an O(flows) table walk.
//! * [`EvalScratch`] — the per-worker scratch: the water-filling buffers
//!   plus reusable sort/cover buffers for objectives. One scratch per
//!   block worker keeps evaluation allocation-free in the steady state
//!   without any sharing between threads.
//!
//! Construction is timed under the `search.compile` telemetry timer —
//! the cost is paid once per instance instead of once per evaluated
//! routing. Besides the search engine, the candidate loops that score
//! many assignments of one instance compile it too: E4's dominance
//! battery and [`relative_local_search`](crate::relative::relative_local_search).
//! One-shot callers that need the routing itself use
//! [`RoutedAllocation::from_assignment`](crate::RoutedAllocation::from_assignment),
//! whose rates equal [`CompiledInstance::evaluate`]'s.
//!
//! Finiteness of fabric links is a construction-time invariant here:
//! every link of every compiled path must be finite (true of every
//! [`Fabric`] implementation in `clos-net`), checked once in
//! [`CompiledInstance::new`] rather than re-`expect`ed on each of the
//! thousands of per-leaf allocations.

use clos_fairness::{WaterfillInstance, WaterfillScratch};
use clos_net::{Fabric, Flow, LinkId};
use clos_rational::Rational;
use clos_telemetry::timers;

/// Dense incidence tables for one `(fabric, flow collection)` search
/// instance, built once and shared read-only by every worker.
///
/// # Examples
///
/// ```
/// use clos_core::compiled::{CompiledInstance, EvalScratch};
/// use clos_net::{ClosNetwork, Flow};
/// use clos_rational::Rational;
///
/// let clos = ClosNetwork::standard(2);
/// let flows = vec![
///     Flow::new(clos.source(0, 0), clos.destination(2, 0)),
///     Flow::new(clos.source(0, 1), clos.destination(2, 1)),
/// ];
/// let compiled = CompiledInstance::new(&clos, &flows);
/// let mut scratch = EvalScratch::default();
/// // Distinct middles: each flow gets a private fabric path.
/// compiled.evaluate(&mut scratch, &[0, 1]);
/// assert_eq!(scratch.rates(), &[Rational::ONE, Rational::ONE]);
/// // Same middle: the shared uplink halves both (same scratch, no
/// // reallocation).
/// compiled.evaluate(&mut scratch, &[0, 0]);
/// assert_eq!(scratch.rates(), &[Rational::new(1, 2); 2]);
/// ```
#[derive(Clone, Debug)]
pub struct CompiledInstance {
    class_count: usize,
    flow_count: usize,
    /// Water-filling over exactly the finite links some assignment uses.
    waterfill: WaterfillInstance<Rational>,
    /// CSR path table: the dense link indices of flow `i`'s path via
    /// class `c` sit at `links[offsets[e]..offsets[e + 1]]` with
    /// `e = i * class_count + c`, in path order.
    links: Vec<usize>,
    offsets: Vec<usize>,
}

impl CompiledInstance {
    /// Compiles the incidence tables for `flows` in `fabric`.
    ///
    /// # Panics
    ///
    /// Panics if a flow endpoint is not a source/destination of
    /// `fabric`, or if some path link is not finite — impossible for the
    /// fabrics of `clos-net`, whose links all carry finite capacities;
    /// checking it here (once) is what lets every later
    /// [`Self::evaluate`] run unchecked.
    #[must_use]
    pub fn new<F: Fabric>(fabric: &F, flows: &[Flow]) -> CompiledInstance {
        let _timer = timers::SEARCH_COMPILE.scope();
        let _span = clos_telemetry::span("search.compile");
        let n = fabric.class_count();
        let len_bound = fabric.max_path_len();
        let mut used: Vec<LinkId> = Vec::with_capacity(flows.len() * n * len_bound);
        for &f in flows {
            for c in 0..n {
                fabric.append_links_via(f, c, &mut used);
            }
        }
        used.sort_unstable();
        used.dedup();
        let waterfill = WaterfillInstance::compile_subset(fabric.network(), &used);
        let mut links = Vec::with_capacity(flows.len() * n * len_bound);
        let mut offsets = Vec::with_capacity(flows.len() * n + 1);
        offsets.push(0);
        let mut path: Vec<LinkId> = Vec::with_capacity(len_bound);
        for &f in flows {
            for c in 0..n {
                path.clear();
                fabric.append_links_via(f, c, &mut path);
                links.extend(
                    path.iter()
                        .map(|&l| waterfill.dense_index(l).expect("fabric links are finite")),
                );
                offsets.push(links.len());
            }
        }
        CompiledInstance {
            class_count: n,
            flow_count: flows.len(),
            waterfill,
            links,
            offsets,
        }
    }

    /// Number of routing classes (valid assignment values are `0..n`).
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Number of compiled flows (valid assignment length).
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.flow_count
    }

    /// The compiled water-filling instance (for mapping dense link
    /// indices back to [`LinkId`]s).
    #[must_use]
    pub fn waterfill(&self) -> &WaterfillInstance<Rational> {
        &self.waterfill
    }

    /// Dense link indices of flow `i`'s candidate path via `class`, in
    /// path order (the CSR row behind [`Self::evaluate`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `class` is out of range.
    #[must_use]
    pub fn path_links(&self, i: usize, class: usize) -> &[usize] {
        assert!(i < self.flow_count, "flow index out of range");
        assert!(class < self.class_count, "routing class out of range");
        let e = i * self.class_count + class;
        &self.links[self.offsets[e]..self.offsets[e + 1]]
    }

    /// Water-fills the routing selecting `assignment[i]` as flow `i`'s
    /// routing class; `assignment` may cover just a prefix of the flow
    /// collection. Rates (and trace) are readable from `scratch`
    /// afterwards; no heap allocation once the scratch is warm.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is longer than the flow collection or
    /// assigns a class `>= class_count()`.
    pub fn evaluate(&self, scratch: &mut EvalScratch, assignment: &[usize]) {
        assert!(assignment.len() <= self.flow_count, "assignment too long");
        let wf = &mut scratch.waterfill;
        wf.begin();
        for (i, &c) in assignment.iter().enumerate() {
            debug_assert!(c < self.class_count, "routing class out of range");
            let e = i * self.class_count + c;
            wf.push_flow(&self.links[self.offsets[e]..self.offsets[e + 1]]);
        }
        self.waterfill.run(wf);
    }

    /// Routes fixed rates instead of water-filling: loads flow `i`'s
    /// path via class `assignment[i]` with `rates[i]` (`assignment` may
    /// cover just a prefix of the flow collection), after which
    /// [`EvalScratch::fixed_rates_fit`] tells whether every link carries
    /// at most its capacity.
    ///
    /// Incremental: only the flows past the longest prefix (classes and
    /// rates) shared with the previous call on `scratch` are unloaded and
    /// reloaded, so a depth-first walk pays one path per step. The loads
    /// belong to this instance: give each instance its own scratch.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is longer than `rates` or the flow
    /// collection, or assigns a class `>= class_count()`.
    pub(crate) fn route_fixed(
        &self,
        scratch: &mut EvalScratch,
        rates: &[Rational],
        assignment: &[usize],
    ) {
        assert!(
            assignment.len() <= rates.len(),
            "assignment longer than rates"
        );
        let loads = &mut scratch.fixed;
        if loads.residual.len() != self.waterfill.link_count() {
            loads.residual.clear();
            loads
                .residual
                .extend((0..self.waterfill.link_count()).map(|l| self.waterfill.capacity(l)));
            loads.applied.clear();
            loads.overloaded = 0;
        }
        let keep = loads
            .applied
            .iter()
            .zip(assignment.iter().zip(rates))
            .take_while(|&(&applied, (&c, &rate))| applied == (c, rate))
            .count();
        for i in (keep..loads.applied.len()).rev() {
            let (c, rate) = loads.applied[i];
            for &l in self.path_links(i, c) {
                loads.shift(l, rate);
            }
        }
        loads.applied.truncate(keep);
        for (i, (&c, &rate)) in assignment.iter().zip(rates).enumerate().skip(keep) {
            for &l in self.path_links(i, c) {
                loads.shift(l, -rate);
            }
            loads.applied.push((c, rate));
        }
    }
}

/// Per-worker evaluation scratch: water-filling buffers plus reusable
/// objective buffers, all cleared-not-reallocated between evaluations.
#[derive(Clone, Debug, Default)]
pub struct EvalScratch {
    /// The water-filling state of the latest [`CompiledInstance::evaluate`].
    waterfill: WaterfillScratch<Rational>,
    /// Reusable buffer for sorted-key comparisons ([`Self::sorted_by`]).
    sort_buf: Vec<Rational>,
    /// Reusable fabric-uplink buffer for cover bounds.
    up: Vec<LinkId>,
    /// Reusable fabric-downlink buffer for cover bounds.
    down: Vec<LinkId>,
    /// Fixed-rate link loads of the latest [`CompiledInstance::route_fixed`].
    fixed: FixedLoads,
}

/// Fixed-rate link loads of an assignment prefix, kept incrementally
/// across [`CompiledInstance::route_fixed`] calls.
#[derive(Clone, Debug, Default)]
struct FixedLoads {
    /// Capacity minus fixed-rate load, per dense link.
    residual: Vec<Rational>,
    /// Class and rate of each applied flow, in flow order.
    applied: Vec<(usize, Rational)>,
    /// Number of links with a negative residual.
    overloaded: usize,
}

impl FixedLoads {
    /// Adds `delta` to the residual of dense link `l`, keeping the
    /// overload count in step.
    fn shift(&mut self, l: usize, delta: Rational) {
        let was = self.residual[l].is_negative();
        self.residual[l] += delta;
        let now = self.residual[l].is_negative();
        self.overloaded = self.overloaded + usize::from(now) - usize::from(was);
    }
}

impl EvalScratch {
    /// Per-flow rates of the latest evaluation, in flow order.
    #[must_use]
    pub fn rates(&self) -> &[Rational] {
        self.waterfill.rates()
    }

    /// Fills the internal sort buffer from the latest evaluation's rates
    /// via `fill`, sorts it ascending, and returns it — the borrow-based
    /// equivalent of building a
    /// [`SortedRates`](clos_fairness::SortedRates) key, for hot-path
    /// comparisons that must not allocate. The slice stays valid until
    /// the next call on this scratch.
    pub fn sorted_by(&mut self, fill: impl FnOnce(&[Rational], &mut Vec<Rational>)) -> &[Rational] {
        self.sort_buf.clear();
        fill(self.waterfill.rates(), &mut self.sort_buf);
        self.sort_buf.sort_unstable();
        &self.sort_buf
    }

    /// Borrows the two reusable [`LinkId`] buffers (cleared by the
    /// caller), used by cover bounds to dedup fabric links in place.
    pub(crate) fn link_buffers(&mut self) -> (&mut Vec<LinkId>, &mut Vec<LinkId>) {
        (&mut self.up, &mut self.down)
    }

    /// Whether the latest [`CompiledInstance::route_fixed`] left every
    /// link within its capacity.
    pub(crate) fn fixed_rates_fit(&self) -> bool {
        self.fixed.overloaded == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutedAllocation;
    use clos_net::{BenesNetwork, ClosNetwork, FatTree, NodeKind};
    use proptest::prelude::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn evaluate_matches_routing_based_waterfill() {
        let clos = ClosNetwork::standard(2);
        let flows = vec![
            Flow::new(clos.source(0, 1), clos.destination(0, 1)),
            Flow::new(clos.source(0, 1), clos.destination(1, 0)),
            Flow::new(clos.source(1, 0), clos.destination(1, 0)),
            Flow::new(clos.source(0, 0), clos.destination(0, 0)),
        ];
        for assignment in [[0, 0, 0, 0], [0, 1, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0]] {
            assert_matches_materialised(&clos, &flows, &assignment);
        }
    }

    /// A search evaluation describes each routing afresh (`begin` plus
    /// pushes), so no evaluation resumes the one before it.
    #[test]
    fn evaluate_never_replays() {
        let clos = ClosNetwork::standard(2);
        let flows = vec![
            Flow::new(clos.source(0, 1), clos.destination(0, 1)),
            Flow::new(clos.source(0, 1), clos.destination(1, 0)),
            Flow::new(clos.source(1, 0), clos.destination(1, 0)),
        ];
        let compiled = CompiledInstance::new(&clos, &flows);
        let mut scratch = EvalScratch::default();
        for assignment in [[0, 0, 0], [0, 0, 0], [0, 1, 0], [0, 1, 1]] {
            compiled.evaluate(&mut scratch, &assignment);
            assert_eq!(scratch.waterfill.replayed_rounds(), 0);
            assert!(scratch.waterfill.dirty_links().is_empty());
        }
    }

    /// The compiled rates of `assignment` equal those of the routing it
    /// materialises to, water-filled by [`RoutedAllocation::from_assignment`].
    fn assert_matches_materialised<F: Fabric>(fabric: &F, flows: &[Flow], assignment: &[usize]) {
        let compiled = CompiledInstance::new(fabric, flows);
        let mut scratch = EvalScratch::default();
        compiled.evaluate(&mut scratch, assignment);
        let routed = RoutedAllocation::from_assignment(fabric, flows, assignment);
        assert_eq!(
            scratch.rates(),
            routed.allocation.rates(),
            "assignment {assignment:?}"
        );
    }

    /// Flows between the picked hosts of `fabric` (indices taken modulo
    /// the host and class counts), each via its picked class.
    fn check_picks<F: Fabric>(fabric: &F, picks: &[(usize, usize, usize)]) {
        let net = fabric.network();
        let sources = net.nodes_of_kind(NodeKind::Source);
        let destinations = net.nodes_of_kind(NodeKind::Destination);
        let flows: Vec<Flow> = picks
            .iter()
            .map(|&(s, d, _)| {
                Flow::new(
                    sources[s % sources.len()],
                    destinations[d % destinations.len()],
                )
            })
            .collect();
        let assignment: Vec<usize> = picks
            .iter()
            .map(|&(_, _, c)| c % fabric.class_count())
            .collect();
        assert_matches_materialised(fabric, &flows, &assignment);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn evaluate_matches_materialised_rates_on_every_fabric(
            picks in prop::collection::vec((0..64usize, 0..64usize, 0..64usize), 1..14),
        ) {
            check_picks(&ClosNetwork::standard(3), &picks);
            check_picks(&BenesNetwork::standard(3), &picks);
            // Oversubscribed 2:1 at the edge, so interior links bottleneck.
            check_picks(&FatTree::new(4, Rational::TWO), &picks);
        }
    }

    #[test]
    fn prefix_evaluation_covers_only_assigned_flows() {
        let clos = ClosNetwork::standard(2);
        let flows = vec![
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 1)),
        ];
        let compiled = CompiledInstance::new(&clos, &flows);
        assert_eq!(compiled.flow_count(), 2);
        assert_eq!(compiled.class_count(), 2);
        let mut scratch = EvalScratch::default();
        compiled.evaluate(&mut scratch, &[0]);
        assert_eq!(scratch.rates(), &[Rational::ONE]);
    }

    #[test]
    fn sorted_by_reuses_one_buffer() {
        let clos = ClosNetwork::standard(2);
        let flows = vec![
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 1)),
        ];
        let compiled = CompiledInstance::new(&clos, &flows);
        let mut scratch = EvalScratch::default();
        compiled.evaluate(&mut scratch, &[0, 0]);
        let doubled: Vec<Rational> = {
            let s = scratch.sorted_by(|rates, buf| {
                buf.extend(rates.iter().map(|&x| x + x));
            });
            s.to_vec()
        };
        assert_eq!(doubled, vec![Rational::ONE, Rational::ONE]);
        let padded_len = scratch
            .sorted_by(|rates, buf| {
                buf.extend_from_slice(rates);
                buf.resize(5, r(7, 1));
            })
            .len();
        assert_eq!(padded_len, 5);
    }

    #[test]
    fn route_fixed_matches_a_fresh_scratch() {
        // Two half-rate flows and one full-rate flow between ToRs 0 and
        // 2 of C_2: they fit iff the full-rate flow has a middle alone.
        let clos = ClosNetwork::standard(2);
        let flows = vec![
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 1)),
            Flow::new(clos.source(1, 0), clos.destination(2, 0)),
        ];
        let rates = [r(1, 2), Rational::ONE, r(1, 2)];
        let compiled = CompiledInstance::new(&clos, &flows);
        let mut reused = EvalScratch::default();
        // Jumps between unrelated prefixes, not just depth-first steps.
        let walk: [&[usize]; 9] = [
            &[0, 0, 0],
            &[0, 1],
            &[0, 1, 0],
            &[1],
            &[],
            &[1, 1, 0],
            &[0, 0],
            &[1, 0, 1],
            &[0, 1, 0],
        ];
        for assignment in walk {
            compiled.route_fixed(&mut reused, &rates, assignment);
            let mut fresh = EvalScratch::default();
            compiled.route_fixed(&mut fresh, &rates, assignment);
            let expect = assignment.len() < 2 || assignment[0] != assignment[1];
            assert_eq!(reused.fixed_rates_fit(), expect, "{assignment:?}");
            assert_eq!(fresh.fixed_rates_fit(), expect, "{assignment:?}");
        }
        // A rate change past a shared class prefix is reloaded too.
        compiled.route_fixed(&mut reused, &[r(1, 2), r(1, 2), r(1, 2)], &[0, 0, 0]);
        assert!(!reused.fixed_rates_fit());
        compiled.route_fixed(&mut reused, &[r(1, 4), r(1, 4), r(1, 2)], &[0, 0, 0]);
        assert!(reused.fixed_rates_fit());
    }

    #[test]
    #[should_panic(expected = "assignment too long")]
    fn overlong_assignment_rejected() {
        let clos = ClosNetwork::standard(2);
        let flows = vec![Flow::new(clos.source(0, 0), clos.destination(2, 0))];
        let compiled = CompiledInstance::new(&clos, &flows);
        let mut scratch = EvalScratch::default();
        compiled.evaluate(&mut scratch, &[0, 0]);
    }
}
