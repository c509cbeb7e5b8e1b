//! The routing objectives of §2.3, computed exactly by exhaustive search.
//!
//! In a Clos network `C_n`, a collection of `F` flows admits `n^F` routings
//! (each flow independently picks a middle switch). The paper's two
//! objectives optimize over all of them:
//!
//! * **lex-max-min fairness** (Definition 2.4): maximize the sorted
//!   max-min-fair rate vector in lexicographic order;
//! * **throughput-max-min fairness** (Definition 2.5): maximize the
//!   throughput of the max-min fair allocation.
//!
//! Both are computed by the deterministic parallel branch-and-bound engine
//! in [`search`](crate::search), which enumerates one representative per
//! routing orbit (all links have equal capacity, so relabeling middle
//! switches and permuting identical flows preserve allocations) under the
//! *combined* symmetry reduction:
//!
//! * flows between the same source–destination pair are interchangeable,
//!   so middle assignments are non-decreasing within such a group; and
//! * simultaneously, middle labels are canonicalized by first use (a flow
//!   may only use a middle index at most one above the largest used so
//!   far).
//!
//! # Tie-breaking
//!
//! When several routings attain the optimal key, the **first canonical
//! assignment in lexicographic order wins**. This choice is what makes the
//! parallel search checkable: the engine returns byte-identical results
//! and [`SearchStats`] for any thread count (see the determinism notes in
//! [`search`](crate::search)).
//!
//! Exhaustive search is exponential; it is intended for the small instances
//! where the paper's statements are verified end-to-end (`n ≤ 4`, a dozen
//! flows). The adversarial constructions for large `n` come with optimal
//! *certificate* routings from the paper's proofs instead (see
//! [`constructions`]).
//!
//! [`constructions`]: crate::constructions

use clos_net::{Fabric, Flow};
use clos_telemetry::counters;

use crate::search::{
    endpoint_labels, run_search, walk_completions, CanonicalSpace, LexMaxMin, SearchConfig,
    ThroughputMaxMin, Visitor,
};
use crate::RoutedAllocation;

/// Statistics from an exhaustive routing search.
///
/// Every field (including the whole [`profile`](Self::profile)) is
/// deterministic: for a given instance and objective it is identical
/// whatever the thread count (see [`search`](crate::search)).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SearchStats {
    /// Number of (canonical) routings whose allocation was evaluated.
    /// With pruning, this is at most the canonical enumeration size.
    pub routings_examined: u64,
    /// Number of times the incumbent optimum was replaced (including the
    /// first routing examined).
    pub improvements: u64,
    /// Number of assignment subtrees skipped because their admissible
    /// objective bound could not beat an incumbent.
    pub pruned: u64,
    /// Per-depth histograms and prune provenance.
    pub profile: SearchProfile,
}

/// Where the search tree's work went: per-depth histograms and
/// prune-provenance counters.
///
/// Every counter is accumulated per block and merged by summation in
/// block order, so the whole profile — like [`SearchStats`] — is
/// byte-identical for any thread count. Depth-indexed vectors have
/// length `flows + 1` (index = prefix length); positions shallower than
/// the block-decomposition depth stay zero because the engine walks
/// inside blocks only.
///
/// The three prune provenances are disjoint:
///
/// * [`symmetry_skipped`](Self::symmetry_skipped) — branches never
///   generated because the combined symmetry reduction admits fewer than
///   `n` middle choices at a node;
/// * [`bound_pruned`](Self::bound_pruned) /
///   [`root_pruned`](Self::root_pruned) — subtrees generated but cut by
///   the admissible prefix bound (inside a block vs. a whole block at
///   its root; the two sum to [`SearchStats::pruned`]);
/// * [`blocks_exhausted`](Self::blocks_exhausted) /
///   [`proven_blocks`](Self::proven_blocks) — blocks walked to
///   exhaustion vs. blocks whose walk stopped at a proven optimum (an
///   incumbent that reached the objective's root bound), the only ways
///   leaves are reached;
/// * [`blocks_skipped`](Self::blocks_skipped) — blocks never started,
///   because an earlier wave proved the optimum. They are not prunes:
///   [`SearchStats::pruned`] does not count them.
///
/// `root_pruned + blocks_exhausted + proven_blocks + blocks_skipped` is
/// the block count.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SearchProfile {
    /// `depth_nodes[d]`: interior prefixes of length `d` expanded (their
    /// admissible middle choices enumerated).
    pub depth_nodes: Vec<u64>,
    /// `depth_pruned[d]`: subtrees cut by the prefix bound at a prefix
    /// of length `d` (block-root prunes included at the block depth).
    pub depth_pruned: Vec<u64>,
    /// `depth_improvements[d]`: incumbent improvements whose assignment
    /// first diverges from the previous incumbent at position `d` (the
    /// initial seed incumbent is counted at depth 0).
    pub depth_improvements: Vec<u64>,
    /// Middle choices rejected by canonicality (group-sortedness or
    /// first-use labeling) across all expanded nodes: at a node with
    /// `a` admissible of `n` middles, `n - a` branches are skipped.
    pub symmetry_skipped: u64,
    /// Subtrees cut by the prefix bound strictly inside a block.
    pub bound_pruned: u64,
    /// Whole blocks cut by the prefix bound at their root prefix.
    pub root_pruned: u64,
    /// Blocks walked to exhaustion (not root-pruned, not proven).
    pub blocks_exhausted: u64,
    /// Blocks whose walk stopped early because their incumbent reached
    /// the root bound, a proven optimum.
    pub proven_blocks: u64,
    /// Blocks never started: they lie past the wave that proved the
    /// optimum (all of them when the seed itself meets the root bound).
    pub blocks_skipped: u64,
}

impl SearchProfile {
    /// An empty profile with depth vectors sized for `flows` flows.
    #[must_use]
    pub fn for_depth(flows: usize) -> SearchProfile {
        SearchProfile {
            depth_nodes: vec![0; flows + 1],
            depth_pruned: vec![0; flows + 1],
            depth_improvements: vec![0; flows + 1],
            ..SearchProfile::default()
        }
    }

    /// Folds another block's profile into this one (elementwise sums).
    pub fn merge(&mut self, other: &SearchProfile) {
        fn add_into(acc: &mut Vec<u64>, other: &[u64]) {
            if acc.len() < other.len() {
                acc.resize(other.len(), 0);
            }
            for (a, b) in acc.iter_mut().zip(other) {
                *a += b;
            }
        }
        add_into(&mut self.depth_nodes, &other.depth_nodes);
        add_into(&mut self.depth_pruned, &other.depth_pruned);
        add_into(&mut self.depth_improvements, &other.depth_improvements);
        self.symmetry_skipped += other.symmetry_skipped;
        self.bound_pruned += other.bound_pruned;
        self.root_pruned += other.root_pruned;
        self.blocks_exhausted += other.blocks_exhausted;
        self.proven_blocks += other.proven_blocks;
        self.blocks_skipped += other.blocks_skipped;
    }
}

/// Invokes `visit` with every canonical routing-class assignment for
/// `flows` in `fabric`, in lexicographic order.
///
/// The assignment slice maps flow positions to routing-class indices
/// (middle switches on Clos). At least one representative of every
/// routing orbit (under interchange of equivalent routing classes and
/// identical-flow permutation) is visited: the lexicographically least
/// element of each orbit is always emitted. The enumeration is iterative
/// (explicit stack), so large flow collections cannot overflow the call
/// stack.
///
/// # Panics
///
/// Panics if any flow endpoint is not a source/destination of `fabric`.
pub fn for_each_canonical_assignment<F: Fabric>(
    fabric: &F,
    flows: &[Flow],
    visit: impl FnMut(&[usize]),
) {
    struct Each<V>(V);
    impl<V: FnMut(&[usize])> Visitor for Each<V> {
        fn leaf(&mut self, assignment: &[usize]) {
            counters::SEARCH_ASSIGNMENTS.incr();
            (self.0)(assignment);
        }
    }
    let space = CanonicalSpace::new(fabric, &endpoint_labels(flows));
    let mut assignment = vec![0usize; flows.len()];
    let mut used = space.rows(flows.len());
    walk_completions(&space, &mut assignment, &mut used, 0, &mut Each(visit));
}

/// Computes a lex-max-min fair allocation `a^L-MmF` (Definition 2.4) by
/// exhaustive search, returning the optimal routing, its allocation, and
/// search statistics.
///
/// On key ties, the first canonical assignment in lexicographic order
/// wins, independent of the thread count.
///
/// # Panics
///
/// Panics if `flows` is empty-endpoint-invalid for `fabric`. The search
/// is exponential in the number of flows; see the module docs for
/// intended instance sizes.
#[must_use]
pub fn search_lex_max_min<F: Fabric + Sync>(
    fabric: &F,
    flows: &[Flow],
) -> (RoutedAllocation, SearchStats) {
    search_lex_max_min_with(fabric, flows, SearchConfig::default())
}

/// [`search_lex_max_min`] with explicit engine configuration (thread
/// count, pruning toggle). Results are identical for every configuration;
/// only statistics and wall time differ.
///
/// # Panics
///
/// See [`search_lex_max_min`].
#[must_use]
pub fn search_lex_max_min_with<F: Fabric + Sync>(
    fabric: &F,
    flows: &[Flow],
    config: SearchConfig,
) -> (RoutedAllocation, SearchStats) {
    let (assignment, stats) = run_search(fabric, flows, &LexMaxMin, config);
    (
        RoutedAllocation::from_assignment(fabric, flows, &assignment),
        stats,
    )
}

/// Computes a lex-max-min fair allocation (Definition 2.4); convenience
/// wrapper over [`search_lex_max_min`].
///
/// # Panics
///
/// See [`search_lex_max_min`].
///
/// # Examples
///
/// For Example 2.3's flows in `C_2`, the lex-max-min sorted vector is
/// `[1/3, 1/3, 1/3, 2/3, 2/3, 2/3]` — strictly below the macro-switch's
/// `[1/3, 1/3, 1/3, 2/3, 2/3, 1]`:
///
/// ```
/// use clos_core::constructions::example_2_3;
/// use clos_core::objectives::lex_max_min;
/// use clos_rational::Rational;
///
/// let ex = example_2_3();
/// let best = lex_max_min(&ex.instance.clos, &ex.instance.flows);
/// let r = |n, d| Rational::new(n, d);
/// assert_eq!(
///     best.allocation.sorted().rates(),
///     &[r(1, 3), r(1, 3), r(1, 3), r(2, 3), r(2, 3), r(2, 3)]
/// );
/// ```
#[must_use]
pub fn lex_max_min<F: Fabric + Sync>(fabric: &F, flows: &[Flow]) -> RoutedAllocation {
    search_lex_max_min(fabric, flows).0
}

/// Computes a throughput-max-min fair allocation `a^T-MmF`
/// (Definition 2.5) by exhaustive search.
///
/// On key ties, the first canonical assignment in lexicographic order
/// wins, independent of the thread count.
///
/// # Panics
///
/// See [`search_lex_max_min`].
#[must_use]
pub fn search_throughput_max_min<F: Fabric + Sync>(
    fabric: &F,
    flows: &[Flow],
) -> (RoutedAllocation, SearchStats) {
    search_throughput_max_min_with(fabric, flows, SearchConfig::default())
}

/// [`search_throughput_max_min`] with explicit engine configuration.
/// Results are identical for every configuration; only statistics and
/// wall time differ.
///
/// # Panics
///
/// See [`search_lex_max_min`].
#[must_use]
pub fn search_throughput_max_min_with<F: Fabric + Sync>(
    fabric: &F,
    flows: &[Flow],
    config: SearchConfig,
) -> (RoutedAllocation, SearchStats) {
    let (assignment, stats) = run_search(fabric, flows, &ThroughputMaxMin, config);
    (
        RoutedAllocation::from_assignment(fabric, flows, &assignment),
        stats,
    )
}

/// Computes a throughput-max-min fair allocation (Definition 2.5);
/// convenience wrapper over [`search_throughput_max_min`].
///
/// # Panics
///
/// See [`search_lex_max_min`].
#[must_use]
pub fn throughput_max_min<F: Fabric + Sync>(fabric: &F, flows: &[Flow]) -> RoutedAllocation {
    search_throughput_max_min(fabric, flows).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use clos_fairness::verify_bottleneck_property;
    use clos_net::ClosNetwork;
    use clos_rational::Rational;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    fn example_2_3_flows(clos: &ClosNetwork) -> Vec<Flow> {
        vec![
            Flow::new(clos.source(0, 1), clos.destination(0, 1)),
            Flow::new(clos.source(0, 1), clos.destination(1, 0)),
            Flow::new(clos.source(0, 1), clos.destination(1, 1)),
            Flow::new(clos.source(1, 0), clos.destination(1, 0)),
            Flow::new(clos.source(1, 1), clos.destination(1, 1)),
            Flow::new(clos.source(0, 0), clos.destination(0, 0)),
        ]
    }

    #[test]
    fn canonical_enumeration_counts() {
        let clos = ClosNetwork::standard(2);
        // Three distinct flows, first-use canonicalization: assignments are
        // 0xx with x in {0,1} once a second label is introduced:
        // 000, 001, 010, 011 -> 4 instead of 8.
        let flows = vec![
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 1)),
            Flow::new(clos.source(1, 0), clos.destination(3, 0)),
        ];
        let mut count = 0;
        for_each_canonical_assignment(&clos, &flows, |_| count += 1);
        assert_eq!(count, 4);
    }

    #[test]
    fn identical_flows_enumerate_canonical_multisets() {
        let clos = ClosNetwork::standard(3);
        // Three identical flows over 3 middles. Group-sortedness alone
        // would leave the 10 multisets of size 3; combining it with
        // first-use label canonicalization cuts the enumeration to 4:
        // 000, 001, 011, 012 (e.g. 002 ~ 001 and 112 ~ 001 under middle
        // relabeling). The set is a superset of the 3 true orbits — 011
        // shares an orbit with 001 but satisfies both constraints, so it
        // stays. Soundness (every orbit's lex-min survives) is checked
        // against unreduced brute force by the orbit-coverage proptest in
        // tests/symmetry_soundness.rs.
        let flows = vec![Flow::new(clos.source(0, 0), clos.destination(3, 0)); 3];
        let mut seen = Vec::new();
        let mut sorted_ok = true;
        for_each_canonical_assignment(&clos, &flows, |a| {
            seen.push(a.to_vec());
            sorted_ok &= a.windows(2).all(|w| w[0] <= w[1]);
        });
        assert_eq!(
            seen,
            vec![vec![0, 0, 0], vec![0, 0, 1], vec![0, 1, 1], vec![0, 1, 2]]
        );
        assert!(sorted_ok);
    }

    #[test]
    fn mixed_groups_combine_both_reductions() {
        let clos = ClosNetwork::standard(3);
        // Two identical flows plus one distinct flow. With the old
        // either/or reduction the duplicate pair disabled first-use
        // canonicalization entirely (6 * 3 = 18 assignments); combined,
        // only 5 survive: 000, 001, 010, 011, 012.
        let flows = vec![
            Flow::new(clos.source(0, 0), clos.destination(3, 0)),
            Flow::new(clos.source(0, 0), clos.destination(3, 0)),
            Flow::new(clos.source(1, 0), clos.destination(4, 0)),
        ];
        let mut seen = Vec::new();
        for_each_canonical_assignment(&clos, &flows, |a| seen.push(a.to_vec()));
        assert_eq!(
            seen,
            vec![
                vec![0, 0, 0],
                vec![0, 0, 1],
                vec![0, 1, 0],
                vec![0, 1, 1],
                vec![0, 1, 2],
            ]
        );
    }

    #[test]
    fn empty_collection_has_one_routing() {
        let clos = ClosNetwork::standard(2);
        let mut count = 0;
        for_each_canonical_assignment(&clos, &[], |a| {
            assert!(a.is_empty());
            count += 1;
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn lex_max_min_on_example_2_3() {
        let clos = ClosNetwork::standard(2);
        let flows = example_2_3_flows(&clos);
        let (best, stats) = search_lex_max_min(&clos, &flows);
        assert!(stats.routings_examined >= 1);
        assert_eq!(
            best.allocation.sorted().rates(),
            &[r(1, 3), r(1, 3), r(1, 3), r(2, 3), r(2, 3), r(2, 3)]
        );
        // The optimum is itself max-min fair for its routing.
        assert!(verify_bottleneck_property(
            clos.network(),
            &flows,
            &best.routing,
            &best.allocation,
            Rational::ZERO
        )
        .is_ok());
    }

    #[test]
    fn throughput_max_min_on_example_2_3() {
        let clos = ClosNetwork::standard(2);
        let flows = example_2_3_flows(&clos);
        let best = throughput_max_min(&clos, &flows);
        // Both routings of Example 2.3 total 3 (so does the macro-switch
        // allocation); no routing beats it here. The type-1 source link
        // caps its three flows at 1 in aggregate, and each type-2/type-3
        // flow at 1.
        assert_eq!(best.throughput(), Rational::from_integer(3));
    }

    #[test]
    fn single_flow_gets_rate_one() {
        let clos = ClosNetwork::standard(2);
        let flows = vec![Flow::new(clos.source(0, 0), clos.destination(2, 1))];
        let best = lex_max_min(&clos, &flows);
        assert_eq!(best.allocation.rates(), &[Rational::ONE]);
        let best = throughput_max_min(&clos, &flows);
        assert_eq!(best.allocation.rates(), &[Rational::ONE]);
    }

    #[test]
    fn two_flows_same_tor_pair_split_across_middles() {
        let clos = ClosNetwork::standard(2);
        // Two flows from distinct sources under ToR 0 to distinct
        // destinations under ToR 2: on one middle they'd share the uplink
        // (1/2 each); lex-max-min spreads them (1 each).
        let flows = vec![
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 1)),
        ];
        let best = lex_max_min(&clos, &flows);
        assert_eq!(best.allocation.rates(), &[Rational::ONE, Rational::ONE]);
        let m0 = clos.middle_of_path(best.routing.path(clos_net::FlowId::new(0)));
        let m1 = clos.middle_of_path(best.routing.path(clos_net::FlowId::new(1)));
        assert_ne!(m0, m1);
    }

    #[test]
    fn lex_optimum_dominates_every_examined_routing() {
        let clos = ClosNetwork::standard(2);
        let flows = example_2_3_flows(&clos);
        let best = lex_max_min(&clos, &flows);
        let best_sorted = best.allocation.sorted();
        for_each_canonical_assignment(&clos, &flows, |assignment| {
            let a = RoutedAllocation::from_assignment(&clos, &flows, assignment).allocation;
            assert!(best_sorted >= a.sorted());
        });
    }

    #[test]
    fn throughput_optimum_dominates_every_examined_routing() {
        let clos = ClosNetwork::standard(2);
        let flows = example_2_3_flows(&clos);
        let best = throughput_max_min(&clos, &flows);
        for_each_canonical_assignment(&clos, &flows, |assignment| {
            let a = RoutedAllocation::from_assignment(&clos, &flows, assignment).allocation;
            assert!(best.throughput() >= a.throughput());
        });
    }

    /// S3 regression: on key ties the first canonical assignment wins,
    /// for any thread count. Two identical flows to the same destination
    /// tie across both canonical routings (the second flow's rate is the
    /// same shared either way only when capacities force it); use a
    /// symmetric instance where several routings attain the optimum.
    #[test]
    fn ties_resolve_to_first_canonical_assignment() {
        let clos = ClosNetwork::standard(2);
        // One flow: both middles give rate 1 -> tie; middle 0 must win.
        let flows = vec![Flow::new(clos.source(0, 0), clos.destination(2, 0))];
        for threads in [1usize, 2, 4, 8] {
            let config = SearchConfig {
                threads: Some(threads),
                no_prune: false,
            };
            let (best, _) = search_lex_max_min_with(&clos, &flows, config);
            let m = clos.middle_of_path(best.routing.path(clos_net::FlowId::new(0)));
            assert_eq!(m, Some(0), "threads={threads}");
        }
    }
}
