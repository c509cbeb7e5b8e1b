//! Regression pin: on uniform fabrics the capacity-class-aware
//! symmetry reduction must be invisible.
//!
//! The winners and every field of [`SearchStats`] below were captured
//! from the engine *before* capacity equivalence classes existed (when
//! the reduction hard-assumed "all links have equal capacity"). A
//! uniform fabric has exactly one capacity class, so the class-aware
//! walker must reproduce the same enumeration order, the same admitted
//! counts, and hence byte-identical statistics — at every thread count.
//!
//! The throughput search has since learned to stop at a proven optimum:
//! its optimum meets the root bound (every distinct source host link
//! full), so it ends after the first wave of blocks. Its statistics are
//! re-pinned to that exit; its winner is the one captured originally.
//! The lex optimum stays below its root bound, so the lex pin never moved.

use clos_core::search::{run_search, LexMaxMin, SearchConfig, ThroughputMaxMin};
use clos_net::{ClosNetwork, Flow};

fn fixed_flows(clos: &ClosNetwork, picks: &[(usize, usize, usize, usize)]) -> Vec<Flow> {
    picks
        .iter()
        .map(|&(st, sh, dt, dh)| Flow::new(clos.source(st, sh), clos.destination(dt, dh)))
        .collect()
}

/// C_3, eight flows: large enough that the prefix blocks stop short of
/// the leaves, so the walker's enter/prune paths (and with them
/// `symmetry_skipped` and `bound_pruned`) are all exercised.
fn instance() -> (ClosNetwork, Vec<Flow>) {
    let clos = ClosNetwork::standard(3);
    let flows = fixed_flows(
        &clos,
        &[
            (0, 0, 1, 0),
            (0, 0, 2, 1),
            (1, 1, 1, 0),
            (2, 0, 0, 0),
            (0, 1, 2, 1),
            (1, 0, 0, 1),
            (2, 1, 1, 1),
            (0, 0, 1, 0),
        ],
    );
    (clos, flows)
}

#[test]
fn lex_winner_and_stats_pinned_at_one_two_and_four_threads() {
    let (clos, flows) = instance();
    for threads in [1usize, 2, 4] {
        let cfg = SearchConfig {
            threads: Some(threads),
            ..SearchConfig::default()
        };
        let (best, stats) = run_search(&clos, &flows, &LexMaxMin, cfg);
        assert_eq!(best, vec![0, 0, 0, 0, 1, 1, 1, 0], "threads={threads}");
        assert_eq!(stats.routings_examined, 1094, "threads={threads}");
        assert_eq!(stats.improvements, 400, "threads={threads}");
        assert_eq!(stats.pruned, 0, "threads={threads}");
        let p = &stats.profile;
        assert_eq!(p.depth_nodes, vec![0, 0, 0, 0, 0, 0, 122, 365, 0]);
        assert_eq!(p.depth_pruned, vec![0; 9]);
        assert_eq!(p.depth_improvements, vec![1, 81, 27, 9, 3, 1, 131, 147, 0]);
        assert_eq!(p.symmetry_skipped, 2, "threads={threads}");
        assert_eq!(p.bound_pruned, 0, "threads={threads}");
        assert_eq!(p.root_pruned, 0, "threads={threads}");
        assert_eq!(p.blocks_exhausted, 122, "threads={threads}");
        assert_eq!(p.proven_blocks, 0, "threads={threads}");
        assert_eq!(p.blocks_skipped, 0, "threads={threads}");
    }
}

#[test]
fn throughput_winner_and_stats_pinned_at_one_two_and_four_threads() {
    let (clos, flows) = instance();
    for threads in [1usize, 2, 4] {
        let cfg = SearchConfig {
            threads: Some(threads),
            ..SearchConfig::default()
        };
        let (best, stats) = run_search(&clos, &flows, &ThroughputMaxMin, cfg);
        assert_eq!(best, vec![0, 0, 0, 0, 1, 1, 1, 0], "threads={threads}");
        assert_eq!(stats.routings_examined, 58, "threads={threads}");
        assert_eq!(stats.improvements, 29, "threads={threads}");
        assert_eq!(stats.pruned, 0, "threads={threads}");
        let p = &stats.profile;
        assert_eq!(p.depth_nodes, vec![0, 0, 0, 0, 0, 0, 8, 21, 0]);
        assert_eq!(p.depth_pruned, vec![0; 9]);
        assert_eq!(p.depth_improvements, vec![1, 0, 0, 3, 3, 1, 9, 12, 0]);
        assert_eq!(p.symmetry_skipped, 2, "threads={threads}");
        assert_eq!(p.bound_pruned, 0, "threads={threads}");
        assert_eq!(p.root_pruned, 0, "threads={threads}");
        assert_eq!(p.blocks_exhausted, 6, "threads={threads}");
        assert_eq!(p.proven_blocks, 2, "threads={threads}");
        assert_eq!(p.blocks_skipped, 114, "threads={threads}");
    }
}
