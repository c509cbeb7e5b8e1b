//! E12 — ablation: weighted congestion control.
//!
//! What if congestion control shared each bottleneck in proportion to the
//! macro-switch rates instead of equally? That is weighted max-min
//! fairness with `w_f = a^MmF_MS(f)` — a per-routing realization of the
//! §7 "relative max-min fairness" idea that needs no new routing
//! machinery, only a different transport. On the Theorem 4.3 instance it
//! lifts the starved flow from `1/n` to `n/(2n−1) > ½`: a *constant*
//! relative guarantee where unweighted fairness has none.

use clos_core::constructions::theorem_4_3;
use clos_core::relative::{macro_reference_rates, relative_rates};
use clos_fairness::{max_min_fair_weighted, Allocation};
use clos_rational::Rational;

use crate::table::Table;

/// One sweep point of the weighted-fairness ablation.
#[derive(Clone, Debug)]
pub struct Row {
    /// Network size.
    pub n: usize,
    /// Type-3 rate under unweighted congestion control (Theorem 4.3 says
    /// `1/n`).
    pub unweighted_rate: Rational,
    /// Type-3 rate under macro-weighted congestion control.
    pub weighted_rate: Rational,
    /// The paper-side prediction `n/(2n−1)` for the weighted rate.
    pub predicted_weighted: Rational,
    /// Worst relative rate (network/macro) over all flows, unweighted.
    pub unweighted_min_ratio: Rational,
    /// Worst relative rate over all flows, weighted.
    pub weighted_min_ratio: Rational,
}

/// Runs the ablation on the Theorem 4.3 certificate routing for each `n`.
#[must_use]
pub fn run(ns: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in ns {
        let t = theorem_4_3(n);
        let clos = &t.instance.clos;
        let flows = &t.instance.flows;
        let reference = macro_reference_rates(clos, &t.instance.ms, flows);

        let cert = t.certificate();
        let unweighted = &cert.allocation;
        let weighted = max_min_fair_weighted(clos.network(), flows, &cert.routing, &reference)
            .expect("weights are strictly positive macro-switch rates");

        let min_ratio = |alloc: &Allocation<Rational>| {
            relative_rates(alloc.rates(), &reference)
                .min()
                .expect("nonempty")
        };

        rows.push(Row {
            n,
            unweighted_rate: unweighted.rate(t.type3_flow()),
            weighted_rate: weighted.rate(t.type3_flow()),
            predicted_weighted: Rational::new(n as i128, (2 * n - 1) as i128),
            unweighted_min_ratio: min_ratio(unweighted),
            weighted_min_ratio: min_ratio(&weighted),
        });
    }
    rows
}

/// Renders the E12 table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(vec![
        "n",
        "type-3 unweighted",
        "type-3 weighted",
        "predicted n/(2n-1)",
        "min ratio unweighted",
        "min ratio weighted",
    ]);
    for r in rows {
        t.row(vec![
            r.n.to_string(),
            r.unweighted_rate.to_string(),
            r.weighted_rate.to_string(),
            r.predicted_weighted.to_string(),
            r.unweighted_min_ratio.to_string(),
            r.weighted_min_ratio.to_string(),
        ]);
    }
    t.render()
}

/// Machine-checkable verdicts for the JSON report: the weighted rate
/// matches the `n/(2n−1)` prediction and never degrades the worst relative
/// rate, at every sweep point.
#[must_use]
pub fn verdicts(rows: &[Row]) -> Vec<(String, bool)> {
    rows.iter()
        .map(|r| {
            (
                format!("n{}_weighted_matches_prediction", r.n),
                r.weighted_rate == r.predicted_weighted
                    && r.weighted_min_ratio >= r.unweighted_min_ratio,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_gives_constant_relative_guarantee() {
        let rows = run(&[3, 4, 6, 8]);
        for r in &rows {
            assert_eq!(r.unweighted_rate, Rational::new(1, r.n as i128));
            assert_eq!(r.weighted_rate, r.predicted_weighted);
            assert!(r.weighted_rate > Rational::new(1, 2));
            // The weighted transport's worst flow keeps at least 1/2 of
            // its macro rate on this instance; the unweighted one decays
            // with n.
            assert!(r.weighted_min_ratio >= Rational::new(1, 2));
            assert_eq!(r.unweighted_min_ratio, Rational::new(1, r.n as i128));
        }
        assert!(render(&rows).contains("weighted"));
    }
}
