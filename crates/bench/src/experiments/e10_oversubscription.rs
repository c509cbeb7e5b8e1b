//! E10 — ablation connecting to the multirate-rearrangeability literature
//! (§6, related work): how many middle switches does it take before
//! macro-switch max-min rates become replicable?
//!
//! The classic conjecture (Chung & Ross) says a Clos fabric with `h` hosts
//! per ToR replicates *every* feasible macro-switch allocation iff it has
//! at least `2h − 1` middle switches. Here we measure the empirical analog
//! for *max-min fair* macro rates over random workloads: the fraction of
//! collections whose rates admit a feasible unsplittable routing, as the
//! middle-switch count grows from `h` (the paper's `C_n` proportions) to
//! `2h − 1`.

use clos_core::replication::{find_feasible_routing_with, first_fit_routing};
use clos_core::search::{map_rows, SearchConfig};
use clos_fairness::max_min_fair;
use clos_net::{ClosNetwork, ClosParams, Flow, MacroSwitch};
use clos_rational::Rational;
use clos_workloads::Workload;

use crate::table::Table;

/// One (middle-count) sweep point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Hosts per ToR (`h`).
    pub hosts_per_tor: usize,
    /// Number of middle switches tested.
    pub middles: usize,
    /// Trials run.
    pub trials: usize,
    /// Trials where exact search found a feasible routing at macro rates.
    pub exact_feasible: usize,
    /// Trials where first-fit found one.
    pub first_fit_feasible: usize,
}

impl Row {
    /// Fraction of trials that were exactly feasible.
    #[must_use]
    pub fn exact_fraction(&self) -> f64 {
        self.exact_feasible as f64 / self.trials as f64
    }
}

/// Runs the sweep on a fabric with `tor_pairs` ToRs per side and
/// `hosts_per_tor` hosts, varying the middle-switch count from
/// `hosts_per_tor` to `2·hosts_per_tor − 1`, with `trials` random uniform
/// workloads per point. Each trial's search is a few dozen tiny blocks,
/// so the trials are the rows that run on the `--threads` workers
/// ([`map_rows`]), each searching on its own worker.
///
/// # Panics
///
/// Panics if any dimension is zero.
#[must_use]
pub fn run(tor_pairs: usize, hosts_per_tor: usize, trials: usize) -> Vec<Row> {
    assert!(tor_pairs >= 1 && hosts_per_tor >= 1 && trials >= 1);
    let fabrics: Vec<(ClosNetwork, MacroSwitch)> = (hosts_per_tor..=(2 * hosts_per_tor - 1))
        .map(|middles| {
            let params = ClosParams {
                middle_switches: middles,
                tor_pairs,
                hosts_per_tor,
                link_capacity: Rational::ONE,
            };
            (
                ClosNetwork::with_params(params),
                MacroSwitch::with_params(params),
            )
        })
        .collect();
    let hosts = tor_pairs * hosts_per_tor;
    let cells: Vec<(usize, u64)> = (0..fabrics.len())
        .flat_map(|point| (0..trials as u64).map(move |seed| (point, seed)))
        .collect();
    let one_worker = SearchConfig {
        threads: Some(1),
        ..SearchConfig::default()
    };
    // (exact search feasible, first fit feasible) per trial.
    let outcomes = map_rows(&cells, |&(point, seed)| {
        let (clos, ms) = &fabrics[point];
        let flows: Vec<Flow> =
            Workload::UniformRandom { flows: 2 * hosts }.generate(clos, 1000 + seed);
        let ms_flows = ms.translate_flows(clos, &flows);
        let ms_routing = ms.routing(&ms_flows);
        let rates = max_min_fair::<Rational>(ms.network(), &ms_flows, &ms_routing)
            .expect("host links finite");
        (
            find_feasible_routing_with(clos, &flows, rates.rates(), one_worker).is_some(),
            first_fit_routing(clos, &flows, rates.rates()).is_some(),
        )
    });
    fabrics
        .iter()
        .zip(outcomes.chunks(trials))
        .map(|((clos, _), point)| Row {
            hosts_per_tor,
            middles: clos.middle_count(),
            trials,
            exact_feasible: point.iter().filter(|&&(exact, _)| exact).count(),
            first_fit_feasible: point.iter().filter(|&&(_, first_fit)| first_fit).count(),
        })
        .collect()
}

/// Renders the E10 table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(vec![
        "hosts/ToR",
        "middles",
        "trials",
        "exact feasible",
        "first-fit feasible",
        "exact fraction",
    ]);
    for r in rows {
        t.row(vec![
            r.hosts_per_tor.to_string(),
            r.middles.to_string(),
            r.trials.to_string(),
            r.exact_feasible.to_string(),
            r.first_fit_feasible.to_string(),
            format!("{:.2}", r.exact_fraction()),
        ]);
    }
    t.render()
}

/// Machine-checkable verdicts for the JSON report: feasibility counts are
/// consistent (first-fit ⊆ exact ⊆ trials), and at `m = 2h − 1` — the
/// rearrangeability regime — every sampled trial is feasible.
#[must_use]
pub fn verdicts(rows: &[Row]) -> Vec<(String, bool)> {
    let mut v: Vec<(String, bool)> = rows
        .iter()
        .map(|r| {
            (
                format!("m{}_counts_consistent", r.middles),
                r.first_fit_feasible <= r.exact_feasible && r.exact_feasible <= r.trials,
            )
        })
        .collect();
    for r in rows.iter().filter(|r| r.middles >= 2 * r.hosts_per_tor - 1) {
        v.push((
            format!("m{}_rearrangeable_all_feasible", r.middles),
            r.exact_feasible == r.trials,
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_middles_never_hurt() {
        let rows = run(3, 3, 8);
        assert_eq!(rows.len(), 3); // middles in {3, 4, 5}
                                   // Feasible fraction is monotone in the middle count on these
                                   // seeds, and first-fit never beats exact.
        for w in rows.windows(2) {
            assert!(w[1].exact_feasible >= w[0].exact_feasible);
        }
        for r in &rows {
            assert!(r.first_fit_feasible <= r.exact_feasible);
        }
    }

    #[test]
    fn rearrangeable_regime_is_fully_feasible() {
        let rows = run(2, 2, 10);
        // At 2h - 1 = 3 middles every sampled collection replicates.
        let last = rows.last().unwrap();
        assert_eq!(last.middles, 3);
        assert_eq!(last.exact_feasible, last.trials);
        assert!(!render(&rows).is_empty());
    }
}
