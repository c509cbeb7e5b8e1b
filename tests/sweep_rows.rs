//! The sweep experiments that run their rows on the `--threads` workers
//! (`clos_core::search::map_rows`), and a searching sweep whose search
//! blocks run on them, return the same rows and the same stable trace
//! for any thread count.
//!
//! The thread count and the span trace are process-global, so one test
//! sets the count for each case in turn; this binary holds no other test
//! that could observe either.

use clos_bench::experiments::{e10_oversubscription, e13_churn, e4_starvation, e7_fct};
use clos_core::search::set_search_threads;
use clos_telemetry::{reset_tracing, set_tracing, span, take_trace};

/// The exact columns of an E13 row: everything but the wall-clock epoch
/// latencies.
fn e13_exact(rows: &[e13_churn::Row]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            format!(
                "n={} events={} arrivals={} departures={} epochs={} peak={} final={} \
                 checksum={} starved={} spread={:?} batching={} verified={}",
                r.n,
                r.events,
                r.arrivals,
                r.departures,
                r.epochs,
                r.peak_live,
                r.final_live,
                r.checksum,
                r.starved,
                r.rate_spread,
                r.cross_batch_equal,
                r.verified,
            )
        })
        .collect()
}

/// Runs every sweep at small sizes, each under a span named by its
/// experiment id as `repro` opens it, and returns the rows with the
/// stable (count-weighted) folded trace. `Debug` prints rationals
/// exactly and floats round-trip, so equal strings mean equal rows.
fn sweeps() -> (Vec<(&'static str, String)>, String) {
    type Sweep = fn() -> String;
    let sweeps: [(&'static str, Sweep); 4] = [
        ("e4", || format!("{:?}", e4_starvation::run(&[3, 4, 5], 5))),
        ("e7", || {
            format!("{:?}", e7_fct::run(2, &[0.4, 1.2], 120, 1))
        }),
        ("e13", || {
            format!("{:?}", e13_exact(&e13_churn::run(&[2, 3], 1_200)))
        }),
        // A searching sweep: its rows run in turn, and each search's
        // blocks run on the workers.
        ("e10", || {
            format!("{:?}", e10_oversubscription::run(2, 2, 4))
        }),
    ];
    reset_tracing();
    set_tracing(true);
    let rows = sweeps
        .iter()
        .map(|&(id, sweep)| {
            let _span = span(id);
            (id, sweep())
        })
        .collect();
    set_tracing(false);
    let folded = take_trace().to_folded(true);
    reset_tracing();
    (rows, folded)
}

#[test]
fn sweep_rows_are_thread_count_invariant() {
    set_search_threads(1);
    let (sequential, sequential_trace) = sweeps();
    set_search_threads(3);
    let (parallel, parallel_trace) = sweeps();
    set_search_threads(0);
    for ((id, one), (_, three)) in sequential.iter().zip(&parallel) {
        assert_eq!(one, three, "{id}: rows differ between 1 and 3 workers");
    }
    // Rows that ran on a worker record under their experiment's span,
    // exactly as inline rows do.
    assert_eq!(sequential_trace, parallel_trace);
    for path in [
        "e4;waterfill ",
        "e7;fct ",
        "e13;churn.epoch;waterfill ",
        "e10;replication;search;search.block ",
    ] {
        assert!(
            parallel_trace.lines().any(|line| line.starts_with(path)),
            "no {path:?} in the trace:\n{parallel_trace}"
        );
    }
}
