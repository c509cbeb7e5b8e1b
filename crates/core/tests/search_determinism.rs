//! Determinism regression for the parallel branch-and-bound search: the
//! returned `RoutedAllocation` and `SearchStats` must be identical for
//! every thread count (ISSUE 4's CI-enforced guarantee), on instances
//! deliberately rich in key ties.
//!
//! No randomness here: these run in environments without proptest and
//! must fail loudly on any schedule-dependent divergence.

use std::sync::Mutex;

use clos_core::objectives::{
    search_lex_max_min, search_lex_max_min_with, search_throughput_max_min_with,
};
use clos_core::search::{set_search_threads, SearchConfig};
use clos_net::{ClosNetwork, Flow};

/// `set_search_threads` is process-global; serialize the tests that use it.
static SERIAL: Mutex<()> = Mutex::new(());

/// A tie-rich instance on C_3: three identical flows (every spread of
/// them over distinct middles gives the same sorted vector) plus two
/// flows sharing a source ToR.
fn tie_rich_instance() -> (ClosNetwork, Vec<Flow>) {
    let clos = ClosNetwork::standard(3);
    let flows = vec![
        Flow::new(clos.source(0, 0), clos.destination(3, 0)),
        Flow::new(clos.source(0, 0), clos.destination(3, 0)),
        Flow::new(clos.source(0, 0), clos.destination(3, 0)),
        Flow::new(clos.source(1, 0), clos.destination(4, 0)),
        Flow::new(clos.source(1, 1), clos.destination(4, 1)),
    ];
    (clos, flows)
}

#[test]
fn results_identical_across_explicit_thread_counts() {
    let (clos, flows) = tie_rich_instance();
    let reference = search_lex_max_min_with(
        &clos,
        &flows,
        SearchConfig {
            threads: Some(1),
            no_prune: false,
        },
    );
    for threads in [2usize, 4, 8] {
        let config = SearchConfig {
            threads: Some(threads),
            no_prune: false,
        };
        let got = search_lex_max_min_with(&clos, &flows, config);
        assert_eq!(
            got.0, reference.0,
            "RoutedAllocation diverged at threads={threads}"
        );
        assert_eq!(
            got.1, reference.1,
            "SearchStats diverged at threads={threads}"
        );
    }
    // Pruning changes statistics but never the result.
    let unpruned = search_lex_max_min_with(
        &clos,
        &flows,
        SearchConfig {
            threads: Some(4),
            no_prune: true,
        },
    );
    assert_eq!(unpruned.0, reference.0);
    assert!(unpruned.1.routings_examined >= reference.1.routings_examined);
}

#[test]
fn results_identical_across_global_thread_setting() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (clos, flows) = tie_rich_instance();
    let mut results = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        set_search_threads(threads);
        results.push(search_lex_max_min(&clos, &flows));
    }
    set_search_threads(0);
    for pair in results.windows(2) {
        assert_eq!(pair[0], pair[1]);
    }
}

#[test]
fn throughput_objective_identical_across_thread_counts() {
    let (clos, flows) = tie_rich_instance();
    let reference = search_throughput_max_min_with(
        &clos,
        &flows,
        SearchConfig {
            threads: Some(1),
            no_prune: false,
        },
    );
    for threads in [2usize, 4, 8] {
        let got = search_throughput_max_min_with(
            &clos,
            &flows,
            SearchConfig {
                threads: Some(threads),
                no_prune: false,
            },
        );
        assert_eq!(got, reference, "threads={threads}");
    }
}
