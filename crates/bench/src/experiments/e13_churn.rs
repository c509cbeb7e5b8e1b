//! E13 — flow churn: incremental max-min allocation under open-loop
//! arrivals and departures.
//!
//! The paper's impossibility results are statements about *static*
//! allocations; real data-center traffic is a churn process. This
//! experiment drives the `clos-churn` engine with a seeded Poisson
//! trace over `C_n` and checks that the online regime inherits the
//! static guarantees: every event is processed, the flushed allocation
//! is a pure function of the event prefix (so recompute batching is
//! invisible), the incremental engine agrees with a full-recompute
//! oracle at every epoch, and no live flow is driven to zero by churn
//! alone (the starved-flow count is exactly zero).
//!
//! Epoch latencies and the best/worst rate spread are measured and
//! rendered for the table, but only exact quantities (counts,
//! checksums) feed the verdicts and the JSON report.

use std::time::Instant;

use clos_churn::{
    ChurnConfig, ChurnEngine, OnlinePolicy, Pattern, SizeDist, TraceConfig, TraceGenerator,
};
use clos_core::search::map_rows;
use clos_net::ClosNetwork;
use clos_rational::{Scalar, TotalF64};

use crate::table::Table;

/// One churn run on `C_n`.
#[derive(Clone, Debug)]
pub struct Row {
    /// Network size.
    pub n: usize,
    /// Total events applied.
    pub events: usize,
    /// Arrivals within the trace.
    pub arrivals: u64,
    /// Departures within the trace.
    pub departures: u64,
    /// Recompute epochs the verified engine ran.
    pub epochs: u64,
    /// Peak concurrent flow count.
    pub peak_live: u64,
    /// Live flows at the end of the trace.
    pub final_live: usize,
    /// FNV-1a checksum of the final allocation (hex).
    pub checksum: String,
    /// Live flows whose final rate is non-positive or non-finite
    /// (exact count; the verdict input).
    pub starved: usize,
    /// Best live rate divided by worst live rate at the end (render
    /// only; 1.0 when no flow is live).
    pub rate_spread: f64,
    /// Two engines with different recompute cadences produced identical
    /// final allocations.
    pub cross_batch_equal: bool,
    /// The oracle-verified engine completed the whole trace.
    pub verified: bool,
    /// Median epoch latency (nanoseconds; wall-derived, render only).
    pub epoch_p50_ns: u64,
    /// 99th-percentile epoch latency (nanoseconds; render only).
    pub epoch_p99_ns: u64,
}

fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

/// Runs the churn experiment on each `C_n` with `events` trace events.
///
/// The rows are independent and run on the `--threads` workers
/// ([`map_rows`]); every exact column is the same for any thread count.
#[must_use]
pub fn run(ns: &[usize], events: usize) -> Vec<Row> {
    map_rows(ns, |&n| run_row(n, events))
}

fn run_row(n: usize, events: usize) -> Row {
    let clos = ClosNetwork::standard(n);
    let cfg = TraceConfig {
        arrival_rate_per_sec: 1_000_000,
        lifetime: SizeDist::Exponential { mean_ns: 2_000_000 },
        pattern: Pattern::Uniform,
        events,
        seed: 7 + n as u64,
    };
    // Engine A: oracle-verified at every epoch, flushed every 64
    // events. Auto-flush is disabled (huge batch) so the manual
    // flush cadence is the only epoch boundary and can be timed.
    let mut a = ChurnEngine::<TotalF64>::new(
        clos.clone(),
        OnlinePolicy::greedy(),
        ChurnConfig {
            batch: events + 1,
            verify: true,
        },
    );
    // Engine B: same trace, a much coarser cadence, no verifier.
    let mut b = ChurnEngine::<TotalF64>::new(
        clos.clone(),
        OnlinePolicy::greedy(),
        ChurnConfig {
            batch: events + 1,
            verify: false,
        },
    );
    let mut epoch_ns = Vec::new();
    for (i, ev) in TraceGenerator::new(&clos, &cfg).enumerate() {
        a.apply(ev.event);
        b.apply(ev.event);
        if (i + 1) % 64 == 0 {
            let start = Instant::now();
            a.flush();
            epoch_ns.push(start.elapsed().as_nanos() as u64);
        }
        if (i + 1) % 512 == 0 {
            b.flush();
        }
    }
    a.flush();
    b.flush();

    let rates: Vec<f64> = a.live_flows().map(|(_, r)| r.to_f64()).collect();
    let starved = rates
        .iter()
        .filter(|r| !(r.is_finite() && **r > 0.0))
        .count();
    let rate_spread = match (
        rates.iter().copied().reduce(f64::max),
        rates.iter().copied().reduce(f64::min),
    ) {
        (Some(max), Some(min)) if min > 0.0 => max / min,
        _ => 1.0,
    };
    let cross_batch_equal = a.checksum() == b.checksum() && a.levels() == b.levels();
    epoch_ns.sort_unstable();
    let stats = a.stats();
    Row {
        n,
        events,
        arrivals: stats.arrivals,
        departures: stats.departures,
        epochs: stats.epochs,
        peak_live: stats.peak_live,
        final_live: a.live(),
        checksum: format!("{:016x}", a.checksum()),
        starved,
        rate_spread,
        cross_batch_equal,
        verified: stats.events == events as u64,
        epoch_p50_ns: percentile(&epoch_ns, 50),
        epoch_p99_ns: percentile(&epoch_ns, 99),
    }
}

/// Renders the E13 table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(vec![
        "n",
        "events",
        "epochs",
        "peak live",
        "final live",
        "checksum",
        "starved",
        "rate spread",
        "epoch p50 (us)",
        "epoch p99 (us)",
    ]);
    for r in rows {
        t.row(vec![
            r.n.to_string(),
            r.events.to_string(),
            r.epochs.to_string(),
            r.peak_live.to_string(),
            r.final_live.to_string(),
            r.checksum.clone(),
            r.starved.to_string(),
            format!("{:.3}", r.rate_spread),
            format!("{:.1}", r.epoch_p50_ns as f64 / 1e3),
            format!("{:.1}", r.epoch_p99_ns as f64 / 1e3),
        ]);
    }
    t.render()
}

/// Machine-checkable verdicts: every event processed under oracle
/// verification, batching invisible in the flushed allocation, and the
/// churn regime leaves every live flow a positive rate (the exact
/// starved-flow count is zero; the float rate spread stays render-only).
#[must_use]
pub fn verdicts(rows: &[Row]) -> Vec<(String, bool)> {
    rows.iter()
        .flat_map(|r| {
            vec![
                (
                    format!("n{}_all_events_processed", r.n),
                    r.verified && r.arrivals + r.departures == r.events as u64,
                ),
                (format!("n{}_batching_invisible", r.n), r.cross_batch_equal),
                (format!("n{}_no_total_starvation", r.n), r.starved == 0),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_experiment_holds_on_small_traces() {
        let rows = run(&[2], 1_500);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.arrivals + r.departures, 1_500);
        assert!(r.cross_batch_equal);
        assert!(r.verified);
        assert!(r.peak_live > 0);
        assert_eq!(r.starved, 0);
        assert!(r.rate_spread >= 1.0);
        assert!(verdicts(&rows).iter().all(|(_, ok)| *ok));
        assert!(render(&rows).contains("rate spread"));
    }
}
