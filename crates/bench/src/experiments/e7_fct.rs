//! E7 — §7 (R1): flow completion times under max-min fair congestion
//! control versus admission scheduling, across offered loads.

use clos_core::search::map_rows;
use clos_net::ClosNetwork;
use clos_sim::{simulate_fct, FctConfig, FctStats, SizeDist, Transport};

use crate::table::Table;

/// One (load, transport) cell of the FCT experiment.
#[derive(Clone, Debug)]
pub struct Row {
    /// Offered load per host link (1.0 = saturation).
    pub load: f64,
    /// Transport under test.
    pub transport: Transport,
    /// Measured statistics.
    pub stats: FctStats,
}

/// Runs the FCT comparison on `C_n` for each offered load, with
/// fixed-size flows (the regime where scheduling's benefit is cleanest)
/// and the churn engine's greedy online path selection. The
/// (load, transport) cells are independent and run on the `--threads`
/// workers ([`map_rows`]), heaviest load first so the longest cells do
/// not start last; rows come back in load-major order.
#[must_use]
pub fn run(n: usize, loads: &[f64], flow_count: usize, seed: u64) -> Vec<Row> {
    assert!(
        loads.iter().all(|&load| load > 0.0),
        "load must be positive"
    );
    let clos = ClosNetwork::standard(n);
    let hosts = (clos.tor_count() * clos.hosts_per_tor()) as f64;
    let cells: Vec<(f64, Transport)> = loads
        .iter()
        .flat_map(|&load| [Transport::FairSharing, Transport::Scheduling].map(|t| (load, t)))
        .collect();
    let mut heaviest_first: Vec<usize> = (0..cells.len()).collect();
    heaviest_first.sort_by(|&a, &b| cells[b].0.total_cmp(&cells[a].0));
    let mut rows = map_rows(&heaviest_first, |&cell| {
        let (load, transport) = cells[cell];
        let config = FctConfig {
            arrival_rate: load * hosts,
            size_dist: SizeDist::Fixed(1.0),
            flow_count,
            seed,
        };
        let stats = simulate_fct(&clos, &config, transport);
        (
            cell,
            Row {
                load,
                transport,
                stats,
            },
        )
    });
    rows.sort_unstable_by_key(|&(cell, _)| cell);
    rows.into_iter().map(|(_, row)| row).collect()
}

/// Renders the E7 table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(vec![
        "load",
        "transport",
        "mean FCT",
        "p50 FCT",
        "p99 FCT",
        "mean slowdown",
        "makespan",
    ]);
    for r in rows {
        t.row(vec![
            format!("{:.2}", r.load),
            match r.transport {
                Transport::FairSharing => "fair-sharing".to_string(),
                Transport::Scheduling => "scheduling".to_string(),
            },
            format!("{:.3}", r.stats.mean_fct),
            format!("{:.3}", r.stats.p50_fct),
            format!("{:.3}", r.stats.p99_fct),
            format!("{:.3}", r.stats.mean_slowdown),
            format!("{:.1}", r.stats.makespan),
        ]);
    }
    t.render()
}

/// Machine-checkable verdicts for the JSON report: every measured FCT
/// statistic is finite, positive, and internally ordered.
#[must_use]
pub fn verdicts(rows: &[Row]) -> Vec<(String, bool)> {
    vec![(
        "fct_stats_sane".to_string(),
        rows.iter().all(|r| {
            r.stats.mean_fct.is_finite()
                && r.stats.mean_fct > 0.0
                && r.stats.p50_fct <= r.stats.p99_fct
                && r.stats.makespan > 0.0
        }),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduling_wins_at_high_load() {
        let rows = run(2, &[0.2, 1.5], 250, 13);
        assert_eq!(rows.len(), 4);
        // At low load the two transports are close; at high load
        // scheduling has lower mean FCT (the §7 argument).
        let high_fair = rows
            .iter()
            .find(|r| r.load == 1.5 && r.transport == Transport::FairSharing)
            .unwrap();
        let high_sched = rows
            .iter()
            .find(|r| r.load == 1.5 && r.transport == Transport::Scheduling)
            .unwrap();
        assert!(
            high_sched.stats.mean_fct < high_fair.stats.mean_fct,
            "scheduling {} vs fair {}",
            high_sched.stats.mean_fct,
            high_fair.stats.mean_fct
        );
        let low_fair = rows
            .iter()
            .find(|r| r.load == 0.2 && r.transport == Transport::FairSharing)
            .unwrap();
        assert!(low_fair.stats.mean_fct < high_fair.stats.mean_fct);
    }

    #[test]
    fn render_has_transport_column() {
        let rows = run(2, &[0.3], 60, 5);
        let s = render(&rows);
        assert!(s.contains("fair-sharing"));
        assert!(s.contains("scheduling"));
    }
}
