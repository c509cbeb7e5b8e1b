//! Relative max-min fairness: the open question of §7 (R2).
//!
//! Lex-max-min fairness can starve a flow to `1/n` of its macro-switch
//! rate (Theorem 4.3) because it compares *absolute* rates: upholding many
//! small rates always beats upholding one large one. The paper's
//! conclusion proposes **relative max-min fairness** as the alternative
//! objective: judge a routing by each flow's rate *relative to its
//! macro-switch rate*, and max-min those ratios instead. Whether this
//! objective admits a constant-factor guarantee is open; this module makes
//! the objective computable so the question can be explored empirically:
//!
//! * [`search_relative_max_min`] — exact optimum by symmetry-pruned
//!   exhaustive search (small instances);
//! * [`relative_local_search`] — greedy seeding plus single-flow local
//!   search on the sorted ratio vector (any instance size).

use clos_fairness::{Allocation, SortedRates};
use clos_net::{ClosNetwork, Flow, MacroSwitch};
use clos_rational::Rational;

use crate::compiled::{CompiledInstance, EvalScratch};
use crate::macro_switch::macro_max_min;
use crate::objectives::SearchStats;
use crate::routed::assignment_routing;
use crate::routers::{GreedyRouter, RouteView};
use crate::search::{run_search, Objective, Problem, SearchConfig};
use crate::RoutedAllocation;

/// The outcome of a relative max-min fairness optimization.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RelativeOutcome {
    /// The chosen routing with its max-min fair allocation.
    pub routed: RoutedAllocation,
    /// Per-flow ratios `a(f) / a^MmF_MS(f)`, in flow order.
    pub ratios: Vec<Rational>,
}

impl RelativeOutcome {
    /// Returns the smallest ratio — the relative-max-min figure of merit.
    ///
    /// # Panics
    ///
    /// Panics if the flow collection was empty.
    #[must_use]
    pub fn min_ratio(&self) -> Rational {
        self.ratios
            .iter()
            .copied()
            .min()
            .expect("nonempty flow collection")
    }

    /// Returns the sorted ratio vector (the object being lexicographically
    /// maximized).
    #[must_use]
    pub fn sorted_ratios(&self) -> SortedRates<Rational> {
        Allocation::from_rates(self.ratios.clone()).sorted()
    }
}

/// Computes each flow's macro-switch max-min rate (the denominators of the
/// relative objective).
#[must_use]
pub fn macro_reference_rates(
    clos: &ClosNetwork,
    ms: &MacroSwitch,
    flows: &[Flow],
) -> Vec<Rational> {
    let _span = clos_telemetry::span("relative.macro_reference");
    let ms_flows = ms.translate_flows(clos, flows);
    macro_max_min(ms, &ms_flows).rates().to_vec()
}

/// Per-flow relative rates `rates[i] / reference[i]`, in flow order —
/// the one place a rate is divided by its macro-switch reference.
///
/// # Examples
///
/// ```
/// use clos_core::relative::relative_rates;
/// use clos_rational::Rational;
///
/// let r = |n, d| Rational::new(n, d);
/// let rates = [r(1, 3), r(1, 2)];
/// let reference = [r(2, 3), r(1, 2)];
/// let ratios: Vec<Rational> = relative_rates(&rates, &reference).collect();
/// assert_eq!(ratios, vec![r(1, 2), Rational::ONE]);
/// ```
pub fn relative_rates<'a>(
    rates: &'a [Rational],
    reference: &'a [Rational],
) -> impl Iterator<Item = Rational> + 'a {
    rates.iter().zip(reference).map(|(&a, &m)| {
        debug_assert!(m.is_positive(), "macro-switch rates are positive");
        a / m
    })
}

/// Computes a relative-max-min fair allocation exactly: over all routings,
/// maximize in lexicographic order the sorted vector of per-flow ratios
/// `a_r^MmF(f) / a^MmF_MS(f)`.
///
/// Exponential in the number of flows (same enumeration as
/// [`search_lex_max_min`]); intended for small instances.
///
/// # Panics
///
/// Panics if `flows` is empty or a flow endpoint is invalid for
/// `clos`/`ms`.
///
/// # Examples
///
/// On Example 2.3, relative fairness spares the type-3 flow the haircut
/// that lex-max-min fairness imposes:
///
/// ```
/// use clos_core::constructions::example_2_3;
/// use clos_core::relative::search_relative_max_min;
/// use clos_rational::Rational;
///
/// let ex = example_2_3();
/// let (best, _) = search_relative_max_min(&ex.instance.clos, &ex.instance.ms, &ex.instance.flows);
/// // Every flow keeps at least 3/4 of its macro-switch rate — strictly
/// // better than the 2/3 the lex-max-min fair routing offers its worst
/// // flow in relative terms.
/// assert_eq!(best.min_ratio(), Rational::new(3, 4));
/// ```
///
/// [`search_lex_max_min`]: crate::objectives::search_lex_max_min
#[must_use]
pub fn search_relative_max_min(
    clos: &ClosNetwork,
    ms: &MacroSwitch,
    flows: &[Flow],
) -> (RelativeOutcome, SearchStats) {
    assert!(!flows.is_empty(), "need at least one flow");

    /// The relative objective: the sorted per-flow ratio vector, compared
    /// lexicographically. No admissible prefix bound is known in ratio
    /// space (the lex bound of the absolute objective does not transfer:
    /// dividing by per-flow references is not monotone under the sorted
    /// order), so this search benefits from the engine's symmetry
    /// reduction, compiled evaluation, and parallelism only.
    struct RelativeObjective<'r> {
        reference: &'r [Rational],
    }
    impl Objective for RelativeObjective<'_> {
        type Key = SortedRates<Rational>;

        fn key(&self, scratch: &mut EvalScratch) -> Self::Key {
            SortedRates::from_unsorted(relative_rates(scratch.rates(), self.reference).collect())
        }

        fn beats(&self, incumbent: &Self::Key, scratch: &mut EvalScratch) -> bool {
            scratch.sorted_by(|rates, buf| buf.extend(relative_rates(rates, self.reference)))
                > incumbent.rates()
        }

        fn prefix_bound(
            &self,
            _problem: &Problem<'_>,
            _prefix: &[usize],
            _scratch: &mut EvalScratch,
        ) -> Option<Self::Key> {
            None
        }
    }

    let reference = macro_reference_rates(clos, ms, flows);
    let objective = RelativeObjective {
        reference: &reference,
    };
    let (assignment, stats) = run_search(clos, flows, &objective, SearchConfig::default());
    let routed = RoutedAllocation::from_assignment(clos, flows, &assignment);
    let ratios = relative_rates(routed.allocation.rates(), &reference).collect();
    (RelativeOutcome { routed, ratios }, stats)
}

/// Approximates a relative-max-min fair allocation: greedy seeding, then
/// single-flow moves that lexicographically improve the sorted ratio
/// vector, for at most `max_rounds` passes.
///
/// # Panics
///
/// Panics if `flows` is empty or a flow endpoint is invalid for
/// `clos`/`ms`.
#[must_use]
pub fn relative_local_search(
    clos: &ClosNetwork,
    ms: &MacroSwitch,
    flows: &[Flow],
    max_rounds: usize,
) -> RelativeOutcome {
    assert!(!flows.is_empty(), "need at least one flow");
    let _span = clos_telemetry::span("relative.local_search");
    let n = clos.middle_count();
    let reference = macro_reference_rates(clos, ms, flows);

    let demands = crate::routers::macro_demands(clos, ms, flows);
    let mut assignment =
        GreedyRouter::assignment(&mut RouteView::new(clos, flows), &demands, flows);

    // Candidates are scored on the compiled evaluator; only the best
    // one's rates are kept. They are its max-min fair allocation, so
    // materialising the winner needs no second water-fill. The empty
    // initial best loses to any candidate, so the seed is always taken.
    let compiled = CompiledInstance::new(clos, flows);
    let mut scratch = EvalScratch::default();
    let mut best_sorted = Vec::with_capacity(flows.len());
    let mut best_rates = Vec::with_capacity(flows.len());
    let mut improves = |assignment: &[usize]| {
        compiled.evaluate(&mut scratch, assignment);
        let sorted = scratch.sorted_by(|rates, buf| buf.extend(relative_rates(rates, &reference)));
        if sorted <= best_sorted.as_slice() {
            return false;
        }
        best_sorted.clear();
        best_sorted.extend_from_slice(sorted);
        best_rates.clear();
        best_rates.extend_from_slice(scratch.rates());
        true
    };

    improves(&assignment);
    for _ in 0..max_rounds {
        let mut improved = false;
        // Phase 1: single-flow moves.
        for i in 0..flows.len() {
            let original = assignment[i];
            for m in 0..n {
                if m == original {
                    continue;
                }
                assignment[i] = m;
                if improves(&assignment) {
                    improved = true;
                    break; // keep the move
                }
                assignment[i] = original;
            }
        }
        // Phase 2: pair moves, which escape the plateaus single moves
        // cannot (e.g. pairing two flows on one uplink so both drop a
        // little instead of one dropping a lot).
        if !improved {
            'pairs: for i in 0..flows.len() {
                for j in (i + 1)..flows.len() {
                    let (oi, oj) = (assignment[i], assignment[j]);
                    for mi in 0..n {
                        for mj in 0..n {
                            if (mi, mj) == (oi, oj) {
                                continue;
                            }
                            assignment[i] = mi;
                            assignment[j] = mj;
                            if improves(&assignment) {
                                improved = true;
                                break 'pairs;
                            }
                        }
                    }
                    assignment[i] = oi;
                    assignment[j] = oj;
                }
            }
        }
        if !improved {
            break;
        }
    }
    // Every rejected move is undone, so `assignment` is the best one.
    let ratios = relative_rates(&best_rates, &reference).collect();
    RelativeOutcome {
        routed: RoutedAllocation {
            routing: assignment_routing(clos, flows, &assignment),
            allocation: Allocation::from_rates(best_rates),
        },
        ratios,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constructions::{example_2_3, theorem_4_3};
    use crate::objectives::search_lex_max_min;
    use clos_net::Routing;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn example_2_3_relative_optimum_protects_type3() {
        let ex = example_2_3();
        let (best, stats) =
            search_relative_max_min(&ex.instance.clos, &ex.instance.ms, &ex.instance.flows);
        assert!(stats.routings_examined > 0);
        // The relative optimum is NOT the paper's routing 1 (whose ratios
        // are [2/3, 1, 1, 1, 1, 1]): pairing the two type-2 flows on one
        // uplink costs each of them only a 3/4 ratio while every other
        // flow — including type 3 — keeps its macro-switch rate.
        assert_eq!(best.min_ratio(), r(3, 4));
        // The corresponding allocation trades absolute fairness away...
        assert_eq!(
            best.routed.allocation.sorted().rates(),
            &[r(1, 3), r(1, 3), r(1, 3), r(1, 2), r(1, 2), Rational::ONE]
        );
        // ...so the absolute lex optimum strictly dominates it in the
        // absolute order, while it strictly dominates the lex optimum in
        // the relative order: the two objectives genuinely diverge.
        let (lex, _) = search_lex_max_min(&ex.instance.clos, &ex.instance.flows);
        assert!(lex.allocation.sorted() > best.routed.allocation.sorted());
    }

    #[test]
    fn relative_ratios_are_at_most_slightly_above_one() {
        // A flow can exceed its macro-switch rate only if another is
        // degraded; on the trivial instance all ratios are exactly 1.
        let clos = ClosNetwork::standard(2);
        let ms = MacroSwitch::standard(2);
        let flows = vec![
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 1)),
        ];
        let (best, _) = search_relative_max_min(&clos, &ms, &flows);
        assert!(best.ratios.iter().all(|&x| x == Rational::ONE));
        assert_eq!(best.min_ratio(), Rational::ONE);
    }

    /// Middles, flow-order ratios and sorted ratios of a local-search
    /// outcome, as space-separated text.
    fn summary(clos: &ClosNetwork, out: &RelativeOutcome) -> [String; 3] {
        let join = |v: &[Rational]| {
            v.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        };
        let middles = out
            .routed
            .routing
            .paths()
            .iter()
            .map(|p| clos.middle_of_path(p).unwrap().to_string())
            .collect::<Vec<_>>()
            .join(" ");
        [
            middles,
            join(&out.ratios),
            join(out.sorted_ratios().rates()),
        ]
    }

    /// Pinned outcomes of the local search (E9's Theorem 4.3 call, and
    /// Example 2.3), so the candidate scoring cannot drift silently.
    #[test]
    fn local_search_reference_outcomes() {
        let t = theorem_4_3(3);
        let out = relative_local_search(&t.instance.clos, &t.instance.ms, &t.instance.flows, 3);
        assert_eq!(
            summary(&t.instance.clos, &out),
            [
                "2 1 2 0 1 2 0 1 2 1 2 0 1 2 0 1 0 0 0 0 1 2 0 1 0 0 2 1 2 1 2 1 2 0",
                "1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 4/5 4/5 4/5 4/5 16/15 16/15 4/5 16/15 \
                 3/2 3/2 1 3/4 3/4 3/4 3/4 1 1 1",
                "3/4 3/4 3/4 3/4 4/5 4/5 4/5 4/5 4/5 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 \
                 16/15 16/15 16/15 3/2 3/2",
            ]
        );
        let ex = example_2_3();
        let out = relative_local_search(&ex.instance.clos, &ex.instance.ms, &ex.instance.flows, 4);
        assert_eq!(
            summary(&ex.instance.clos, &out),
            ["1 1 1 0 0 0", "1 1 1 3/4 3/4 1", "3/4 3/4 1 1 1 1"]
        );
        assert_eq!(
            out.routed.allocation.rates(),
            &[r(1, 3), r(1, 3), r(1, 3), r(1, 2), r(1, 2), Rational::ONE]
        );
    }

    #[test]
    fn local_search_matches_exhaustive_on_small_instance() {
        let ex = example_2_3();
        let (exact, _) =
            search_relative_max_min(&ex.instance.clos, &ex.instance.ms, &ex.instance.flows);
        let heuristic =
            relative_local_search(&ex.instance.clos, &ex.instance.ms, &ex.instance.flows, 8);
        assert_eq!(heuristic.min_ratio(), exact.min_ratio());
    }

    #[test]
    fn relative_objective_on_theorem_4_3_beats_starvation_sometimes() {
        // The open question: lex-max-min yields min ratio 1/n; relative
        // local search must do at least as well as the lex certificate's
        // worst ratio (it directly optimizes the ratio).
        let t = theorem_4_3(3);
        let heuristic =
            relative_local_search(&t.instance.clos, &t.instance.ms, &t.instance.flows, 4);
        // The certificate's worst ratio is 1/3 (the type-3 flow).
        assert!(
            heuristic.min_ratio() >= r(1, 4),
            "local search min ratio {}",
            heuristic.min_ratio()
        );
        // And no flow's ratio exceeds its fair-share blow-up bound n.
        assert!(heuristic
            .ratios
            .iter()
            .all(|&x| x <= Rational::from_integer(3)));
    }

    #[test]
    fn macro_reference_rates_match_macro_allocation() {
        let ex = example_2_3();
        let reference =
            macro_reference_rates(&ex.instance.clos, &ex.instance.ms, &ex.instance.flows);
        assert_eq!(reference, ex.instance.macro_allocation().rates());
    }

    #[test]
    fn sorted_ratios_order() {
        let outcome = RelativeOutcome {
            routed: RoutedAllocation {
                routing: Routing::new(vec![]),
                allocation: Allocation::from_rates(vec![r(1, 2), Rational::ONE]),
            },
            ratios: vec![Rational::ONE, r(1, 2)],
        };
        assert_eq!(outcome.min_ratio(), r(1, 2));
        assert_eq!(outcome.sorted_ratios().rates(), &[r(1, 2), Rational::ONE]);
    }
}
