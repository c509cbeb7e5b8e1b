//! Span-tree determinism and search-profile invariants across thread
//! counts.
//!
//! The observability contract: under stable export (count weights, no
//! nanoseconds), the aggregated span tree and the [`SearchProfile`]
//! attached to [`SearchStats`] are pure functions of the instance —
//! byte-identical for any engine thread count, because per-block
//! profiles merge by summation in canonical block order and every
//! `search.block` span records under the caller's `search` span, on
//! whichever worker the block ran.
//!
//! Everything lives in one `#[test]` because span tracing aggregates
//! into process-global state: concurrent tests in this binary would
//! interleave their span trees.

use clos_core::objectives::{
    search_lex_max_min_with, search_throughput_max_min_with, SearchProfile,
};
use clos_core::search::SearchConfig;
use clos_net::{ClosNetwork, Flow};

fn flows_from(clos: &ClosNetwork, coords: &[(usize, usize, usize, usize)]) -> Vec<Flow> {
    coords
        .iter()
        .map(|&(a, b, c, d)| Flow::new(clos.source(a, b), clos.destination(c, d)))
        .collect()
}

/// Fixed C_2 instances covering ties, hot ToRs, a single flow, and a
/// permutation-ish spread.
const INSTANCES: &[&[(usize, usize, usize, usize)]] = &[
    &[(0, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 0)],
    &[(0, 0, 2, 0), (0, 0, 2, 0), (1, 0, 3, 0)],
    &[(0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (1, 1, 2, 1)],
    &[(2, 1, 3, 0)],
    &[
        (0, 0, 1, 1),
        (1, 0, 0, 1),
        (2, 0, 3, 1),
        (3, 0, 2, 1),
        (0, 1, 2, 0),
    ],
];

#[test]
fn profiles_and_span_trees_are_thread_count_invariant() {
    // Part 1: SearchStats (including the profile) are identical for 1,
    // 2, 4, and 16 threads, with and without branch sampling, and the
    // profile's internal invariants hold. That includes the proven-exit
    // provenance (`proven_blocks`, `blocks_skipped`), which must also
    // fire somewhere, or its invariance would be vacuous.
    let mut exits = 0;
    for (k, coords) in INSTANCES.iter().enumerate() {
        let clos = ClosNetwork::standard(2);
        let flows = flows_from(&clos, coords);
        for sample in [None, Some(1), Some(3)] {
            let cfg1 = SearchConfig {
                threads: Some(1),
                no_prune: false,
                trace_sample: sample,
            };
            let (one_alloc, one_stats) = search_lex_max_min_with(&clos, &flows, cfg1);
            for threads in [2, 4, 16] {
                let cfg = SearchConfig {
                    threads: Some(threads),
                    ..cfg1
                };
                let (alloc, stats) = search_lex_max_min_with(&clos, &flows, cfg);
                assert_eq!(
                    one_stats, stats,
                    "stats diverged: instance {k}, {threads} threads, sample {sample:?}"
                );
                assert_eq!(one_alloc.allocation.rates(), alloc.allocation.rates());
            }
            let (tput_alloc, tput_stats) = search_throughput_max_min_with(&clos, &flows, cfg1);
            for threads in [2, 4, 16] {
                let cfg = SearchConfig {
                    threads: Some(threads),
                    ..cfg1
                };
                let (alloc, stats) = search_throughput_max_min_with(&clos, &flows, cfg);
                assert_eq!(
                    tput_stats, stats,
                    "throughput stats diverged: instance {k}, {threads} threads, sample {sample:?}"
                );
                assert_eq!(tput_alloc.allocation.rates(), alloc.allocation.rates());
            }
            for p in [&one_stats.profile, &tput_stats.profile] {
                exits += p.proven_blocks + p.blocks_skipped;
            }

            let p = &one_stats.profile;
            assert_eq!(
                p.depth_pruned.iter().sum::<u64>(),
                one_stats.pruned,
                "per-depth prunes must sum to the total"
            );
            assert_eq!(
                p.bound_pruned + p.root_pruned,
                one_stats.pruned,
                "prune provenance must partition the total"
            );
            assert_eq!(
                p.depth_improvements.iter().sum::<u64>(),
                one_stats.improvements,
                "per-depth improvements must sum to the total"
            );
            if sample.is_none() {
                assert!(p.sampled.is_empty(), "sampling off must record nothing");
            } else {
                if one_stats.routings_examined > 1 {
                    assert!(
                        !p.sampled.is_empty(),
                        "instance {k} examined non-seed leaves but sampled none"
                    );
                }
                assert!(p.sampled.len() <= SearchProfile::MAX_SAMPLED);
                for w in p.sampled.windows(2) {
                    assert!(
                        w[0].block <= w[1].block,
                        "samples must come in canonical block order"
                    );
                }
            }

            // No-prune control: zero prunes of either provenance, at
            // least one exhausted block, never fewer leaves.
            let np = search_throughput_max_min_with(
                &clos,
                &flows,
                SearchConfig {
                    no_prune: true,
                    ..cfg1
                },
            );
            assert_eq!(np.1.pruned, 0);
            assert_eq!(np.1.profile.bound_pruned + np.1.profile.root_pruned, 0);
            assert_eq!(
                np.1.profile.proven_blocks, 0,
                "no_prune must not stop early"
            );
            assert_eq!(
                np.1.profile.blocks_skipped, 0,
                "no_prune must not skip blocks"
            );
            assert!(np.1.profile.blocks_exhausted >= 1);
            assert!(np.1.routings_examined >= one_stats.routings_examined);
            assert!(np.1.routings_examined >= tput_stats.routings_examined);
        }
    }
    assert!(exits > 0, "no instance exercised the proven-optimum exit");

    // Part 2: the stable span exports are byte-identical for 1 vs 4
    // threads — the acceptance bar for `repro --stable --trace`.
    let clos = ClosNetwork::standard(2);
    let flows = flows_from(
        &clos,
        &[
            (0, 1, 0, 1),
            (0, 1, 1, 0),
            (0, 1, 1, 1),
            (1, 0, 1, 0),
            (1, 1, 0, 0),
        ],
    );
    let mut exports = Vec::new();
    for threads in [1usize, 4] {
        clos_telemetry::reset_tracing();
        clos_telemetry::set_tracing(true);
        let cfg = SearchConfig {
            threads: Some(threads),
            no_prune: false,
            trace_sample: None,
        };
        let _ = search_lex_max_min_with(&clos, &flows, cfg);
        clos_telemetry::set_tracing(false);
        let trace = clos_telemetry::take_trace();
        for path in [
            &["search"][..],
            &["search", "search.compile"],
            &["search", "search.seed"],
            &["search", "search.block"],
            &["search", "search.block", "waterfill"],
        ] {
            assert!(
                trace.count_at(path).is_some(),
                "{threads}-thread trace is missing span path {path:?}"
            );
        }
        // Blocks on spawned workers enter the caller's span path, so no
        // block records at the trace root.
        assert_eq!(
            trace.count_at(&["search.block"]),
            None,
            "{threads}-thread trace has a top-level search.block"
        );
        exports.push((trace.to_chrome_trace(true), trace.to_folded(true)));
    }
    clos_telemetry::reset_tracing();
    assert_eq!(
        exports[0].0, exports[1].0,
        "stable Chrome trace differs between 1 and 4 threads"
    );
    assert_eq!(
        exports[0].1, exports[1].1,
        "stable folded stacks differ between 1 and 4 threads"
    );
}
