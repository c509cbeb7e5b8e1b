//! Ground-truth checks for the telemetry counters: the instrumented hot
//! paths must report exactly what the algorithms did.
//!
//! The telemetry registry is global, so every test (including each
//! proptest case) serializes through one mutex, resets the counters, and
//! re-disables telemetry when done.

use std::sync::Mutex;

use clos_core::objectives::{
    for_each_canonical_assignment, search_lex_max_min, search_throughput_max_min,
    search_throughput_max_min_with,
};
use clos_core::search::SearchConfig;
use clos_fairness::max_min_fair_traced;
use clos_net::{ClosNetwork, Flow, Routing};
use clos_rational::Rational;
use clos_telemetry::{counters, set_enabled};
use proptest::prelude::*;

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f` with telemetry enabled and all counters zeroed, serializing
/// against every other test in this binary.
fn with_telemetry<T>(f: impl FnOnce() -> T) -> T {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    set_enabled(true);
    counters::reset_all();
    let out = f();
    set_enabled(false);
    out
}

fn flows_from_coords(clos: &ClosNetwork, coords: &[(usize, usize, usize, usize)]) -> Vec<Flow> {
    coords
        .iter()
        .map(|&(si, sj, ti, tj)| Flow::new(clos.source(si, sj), clos.destination(ti, tj)))
        .collect()
}

#[test]
fn waterfill_rounds_counter_matches_trace_levels() {
    with_telemetry(|| {
        let clos = ClosNetwork::standard(2);
        let flows = vec![
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 1)),
            Flow::new(clos.source(1, 0), clos.destination(3, 0)),
        ];
        let routing: Routing = flows.iter().map(|&f| clos.path_via(f, 0)).collect();
        let (_, trace) = max_min_fair_traced::<Rational>(clos.network(), &flows, &routing).unwrap();
        assert_eq!(counters::WATERFILL_CALLS.get(), 1);
        assert_eq!(counters::WATERFILL_ROUNDS.get(), trace.levels.len() as u64);
        // Every flow froze against some saturated link.
        assert!(counters::WATERFILL_SATURATIONS.get() >= 1);
    });
}

#[test]
fn enumeration_counter_matches_callback_count() {
    with_telemetry(|| {
        let clos = ClosNetwork::standard(3);
        let flows = vec![
            Flow::new(clos.source(0, 0), clos.destination(3, 0)),
            Flow::new(clos.source(0, 1), clos.destination(3, 1)),
            Flow::new(clos.source(1, 0), clos.destination(4, 0)),
        ];
        let mut callbacks = 0u64;
        for_each_canonical_assignment(&clos, &flows, |_| callbacks += 1);
        assert_eq!(counters::SEARCH_ASSIGNMENTS.get(), callbacks);
        assert!(callbacks > 0);
    });
}

#[test]
fn search_stats_agree_with_counters() {
    with_telemetry(|| {
        let clos = ClosNetwork::standard(2);
        let flows = vec![
            Flow::new(clos.source(0, 0), clos.destination(2, 0)),
            Flow::new(clos.source(0, 1), clos.destination(2, 1)),
            Flow::new(clos.source(1, 0), clos.destination(3, 0)),
        ];
        // The size of the canonical enumeration, for comparison below.
        let mut enumerated = 0u64;
        for_each_canonical_assignment(&clos, &flows, |_| enumerated += 1);

        counters::reset_all();
        let (_, lex_stats) = search_lex_max_min(&clos, &flows);
        assert_eq!(counters::SEARCH_RUNS.get(), 1);
        assert_eq!(
            counters::SEARCH_ASSIGNMENTS.get(),
            lex_stats.routings_examined
        );
        assert_eq!(counters::SEARCH_IMPROVEMENTS.get(), lex_stats.improvements);
        assert_eq!(counters::SEARCH_PRUNED.get(), lex_stats.pruned);
        assert!(lex_stats.improvements >= 1);
        assert!(lex_stats.improvements <= lex_stats.routings_examined);
        // Pruning only ever shrinks the evaluated set.
        assert!(lex_stats.routings_examined <= enumerated);

        counters::reset_all();
        let (_, tput_stats) = search_throughput_max_min(&clos, &flows);
        assert_eq!(
            counters::SEARCH_ASSIGNMENTS.get(),
            tput_stats.routings_examined
        );
        assert_eq!(counters::SEARCH_IMPROVEMENTS.get(), tput_stats.improvements);
        assert_eq!(counters::SEARCH_PRUNED.get(), tput_stats.pruned);
        // Pruning is objective-specific, so the two objectives may examine
        // different subsets; both are bounded by the full enumeration.
        assert!(tput_stats.routings_examined <= enumerated);

        // With pruning disabled, the engine evaluates exactly the
        // canonical enumeration, for either objective.
        counters::reset_all();
        let no_prune = SearchConfig {
            threads: None,
            no_prune: true,
        };
        let (_, exhaustive) = search_throughput_max_min_with(&clos, &flows, no_prune);
        assert_eq!(exhaustive.routings_examined, enumerated);
        assert_eq!(exhaustive.pruned, 0);
        assert_eq!(counters::SEARCH_PRUNED.get(), 0);
    });
}

#[test]
fn counters_stay_zero_while_disabled() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    set_enabled(false);
    counters::reset_all();
    let clos = ClosNetwork::standard(2);
    let flows = vec![
        Flow::new(clos.source(0, 0), clos.destination(2, 0)),
        Flow::new(clos.source(1, 0), clos.destination(3, 0)),
    ];
    let _ = search_lex_max_min(&clos, &flows);
    for counter in counters::all() {
        assert_eq!(
            counter.get(),
            0,
            "counter {} moved while disabled",
            counter.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The enumeration counter equals the callback count on random
    /// collections (including repeated pairs).
    #[test]
    fn prop_enumeration_counter_exact(
        coords in prop::collection::vec((0..4usize, 0..2usize, 0..4usize, 0..2usize), 1..=6)
    ) {
        let clos = ClosNetwork::standard(2);
        let flows = flows_from_coords(&clos, &coords);
        let (delta, callbacks) = with_telemetry(|| {
            let mut callbacks = 0u64;
            for_each_canonical_assignment(&clos, &flows, |_| callbacks += 1);
            (counters::SEARCH_ASSIGNMENTS.get(), callbacks)
        });
        prop_assert_eq!(delta, callbacks);
    }

    /// The waterfill round counter equals the trace's fill-level count on
    /// random collections and routings.
    #[test]
    fn prop_waterfill_rounds_exact(
        coords in prop::collection::vec((0..4usize, 0..2usize, 0..4usize, 0..2usize), 1..=6),
        middles in prop::collection::vec(0..2usize, 6)
    ) {
        let clos = ClosNetwork::standard(2);
        let flows = flows_from_coords(&clos, &coords);
        let routing: Routing = flows
            .iter()
            .zip(&middles)
            .map(|(&f, &m)| clos.path_via(f, m))
            .collect();
        let (rounds, levels) = with_telemetry(|| {
            let (_, trace) =
                max_min_fair_traced::<Rational>(clos.network(), &flows, &routing).unwrap();
            (counters::WATERFILL_ROUNDS.get(), trace.levels.len() as u64)
        });
        prop_assert_eq!(rounds, levels);
    }
}
