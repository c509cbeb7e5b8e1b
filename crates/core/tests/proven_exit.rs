//! The proven-optimum exit must never change an answer: on random
//! Benes, fat-tree and oversubscribed-overlay instances, the default
//! search (root bound, cap-tight cover bound, wave exit) returns the
//! same winning routing and allocation as the exhaustive `no_prune`
//! control, at 1, 2 and 4 threads, with statistics that do not depend
//! on the thread count.
//!
//! These are the fabrics where the exit fires: a terminal permutation
//! on a rearrangeable fabric gives every flow its own rate cap.

use clos_core::objectives::{search_lex_max_min_with, search_throughput_max_min_with};
use clos_core::search::SearchConfig;
use clos_net::{interior_overlay, BenesNetwork, ClosNetwork, Fabric, FatTree, Flow, NodeKind};
use clos_rational::Rational;
use proptest::prelude::*;

/// `fabric` under e15's interior overlay at `oversub`:1.
fn oversubscribed<F: Fabric>(fabric: &F, oversub: u32) -> F {
    let nominal = fabric.nominal_capacity();
    fabric.with_capacities(&interior_overlay(fabric.network(), nominal, oversub))
}

/// Flows from the `s`-th source host to the `d`-th destination host
/// (indices modulo the host counts).
fn host_flows<F: Fabric>(fabric: &F, pairs: &[(usize, usize)]) -> Vec<Flow> {
    let net = fabric.network();
    let sources = net.nodes_of_kind(NodeKind::Source);
    let dests = net.nodes_of_kind(NodeKind::Destination);
    pairs
        .iter()
        .map(|&(s, d)| Flow::new(sources[s % sources.len()], dests[d % dests.len()]))
        .collect()
}

/// Default-config winners and keys equal the `no_prune` control's at
/// 1, 2 and 4 threads; default-config statistics are thread-invariant;
/// the control never reports a proven block or a skipped one.
fn check_matches_exhaustive<F: Fabric + Sync>(fabric: &F, flows: &[Flow]) {
    let config = |threads, no_prune| SearchConfig {
        threads: Some(threads),
        no_prune,
        trace_sample: None,
    };
    let lex_control = search_lex_max_min_with(fabric, flows, config(1, true));
    let tput_control = search_throughput_max_min_with(fabric, flows, config(1, true));
    for control in [&lex_control.1, &tput_control.1] {
        assert_eq!(control.profile.proven_blocks, 0);
        assert_eq!(control.profile.blocks_skipped, 0);
    }
    let lex_one = search_lex_max_min_with(fabric, flows, config(1, false));
    let tput_one = search_throughput_max_min_with(fabric, flows, config(1, false));
    for threads in [1, 2, 4] {
        let lex = search_lex_max_min_with(fabric, flows, config(threads, false));
        let tput = search_throughput_max_min_with(fabric, flows, config(threads, false));
        assert_eq!(lex.0, lex_control.0, "lex winner, threads={threads}");
        assert_eq!(
            tput.0, tput_control.0,
            "throughput winner, threads={threads}"
        );
        assert_eq!(lex.1, lex_one.1, "lex stats, threads={threads}");
        assert_eq!(tput.1, tput_one.1, "throughput stats, threads={threads}");
        assert!(lex.1.routings_examined <= lex_control.1.routings_examined);
        assert!(tput.1.routings_examined <= tput_control.1.routings_examined);
    }
}

/// The exit fires on the e15 workload itself: the full terminal
/// permutation of the 4:1 Benes B_3 (4^8 raw routings).
#[test]
fn benes_r3_permutation_at_four_to_one_stops_at_the_proven_optimum() {
    let benes = oversubscribed(&BenesNetwork::standard(3), 4);
    let h = benes.terminal_count();
    let pairs: Vec<(usize, usize)> = (0..h).map(|i| (i, (i + 1) % h)).collect();
    let flows = host_flows(&benes, &pairs);
    let (best, stats) = search_throughput_max_min_with(&benes, &flows, SearchConfig::default());
    assert_eq!(best.throughput(), Rational::from_integer(2));
    assert!(stats.profile.proven_blocks >= 1);
    assert!(stats.profile.blocks_skipped >= 1);
    check_matches_exhaustive(&benes, &flows);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn benes_winners_match_exhaustive_search(
        pairs in prop::collection::vec((0..8usize, 0..8usize), 1..=5),
        shift in 0..3u32,
    ) {
        let benes = oversubscribed(&BenesNetwork::standard(3), 1 << shift);
        check_matches_exhaustive(&benes, &host_flows(&benes, &pairs));
    }

    #[test]
    fn fat_tree_winners_match_exhaustive_search(
        pairs in prop::collection::vec((0..16usize, 0..16usize), 1..=5),
        shift in 0..3u32,
    ) {
        let ft = FatTree::new(4, Rational::from_integer(1 << shift));
        check_matches_exhaustive(&ft, &host_flows(&ft, &pairs));
    }

    #[test]
    fn clos_overlay_winners_match_exhaustive_search(
        pairs in prop::collection::vec((0..12usize, 0..12usize), 1..=6),
        shift in 0..3u32,
    ) {
        let clos = oversubscribed(&ClosNetwork::standard(3), 1 << shift);
        check_matches_exhaustive(&clos, &host_flows(&clos, &pairs));
    }
}
