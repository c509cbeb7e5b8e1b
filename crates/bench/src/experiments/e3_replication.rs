//! E3 — Figure 3 / Theorem 4.2: the macro-switch max-min rates of the
//! adversarial collection admit no feasible routing in `C_n`, while
//! dropping the type-3 flow restores feasibility.

use clos_core::constructions::theorem_4_2;
use clos_core::replication::{find_feasible_routing, first_fit_routing};
use clos_net::Flow;
use clos_rational::Rational;

use crate::table::Table;

/// One replication-feasibility check.
#[derive(Clone, Debug)]
pub struct Row {
    /// Network size.
    pub n: usize,
    /// Which variant: the full adversarial collection or the control
    /// without the type-3 flow.
    pub variant: &'static str,
    /// Number of flows.
    pub flows: usize,
    /// Whether the first-fit heuristic found a feasible routing.
    pub first_fit: bool,
    /// Whether the exact search found a feasible routing (`None` if the
    /// exact search was skipped for size).
    pub exact: Option<bool>,
    /// Whether the Claim 4.5 arithmetic certificate proves infeasibility
    /// (full variant only; independent of instance size).
    pub certified_infeasible: Option<bool>,
}

/// Runs the feasibility checks for each `n`; exact search is run when
/// `n <= exact_limit`.
#[must_use]
pub fn run(ns: &[usize], exact_limit: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in ns {
        let t = theorem_4_2(n);
        let rates = t.instance.macro_allocation();

        let full_flows: &[Flow] = &t.instance.flows;
        let full_rates: &[Rational] = rates.rates();
        rows.push(Row {
            n,
            variant: "full (with type 3)",
            flows: full_flows.len(),
            first_fit: first_fit_routing(&t.instance.clos, full_flows, full_rates).is_some(),
            exact: (n <= exact_limit)
                .then(|| find_feasible_routing(&t.instance.clos, full_flows, full_rates).is_some()),
            certified_infeasible: Some(t.certify_infeasibility().is_ok()),
        });

        // Control: drop the (last) type-3 flow.
        let control_flows = &full_flows[..full_flows.len() - 1];
        let control_rates = &full_rates[..full_rates.len() - 1];
        rows.push(Row {
            n,
            variant: "control (no type 3)",
            flows: control_flows.len(),
            first_fit: first_fit_routing(&t.instance.clos, control_flows, control_rates).is_some(),
            exact: (n <= exact_limit).then(|| {
                find_feasible_routing(&t.instance.clos, control_flows, control_rates).is_some()
            }),
            certified_infeasible: None,
        });
    }
    rows
}

/// Renders the E3 table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(vec![
        "n",
        "variant",
        "flows",
        "first-fit",
        "exact search",
        "claim-4.5 certificate",
    ]);
    for r in rows {
        t.row(vec![
            r.n.to_string(),
            r.variant.to_string(),
            r.flows.to_string(),
            if r.first_fit {
                "feasible"
            } else {
                "infeasible"
            }
            .to_string(),
            match r.exact {
                Some(true) => "feasible".to_string(),
                Some(false) => "infeasible".to_string(),
                None => "(skipped)".to_string(),
            },
            match r.certified_infeasible {
                Some(true) => "infeasible (certified)".to_string(),
                Some(false) => "certificate failed!".to_string(),
                None => "-".to_string(),
            },
        ]);
    }
    t.render()
}

/// Machine-checkable verdicts for the JSON report: the full adversarial
/// collection is provably infeasible at macro rates (and no search
/// contradicts the certificate), while the control stays feasible.
///
/// Control rows above `exact_limit` have no solver evidence when the
/// first-fit heuristic fails (it is incomplete, so its failure proves
/// nothing); a skipped check must not read as a failed reproduction, so
/// those rows only fail on a positive disproof by the exact search and
/// are named `_not_refuted` to keep the distinction visible in reports.
#[must_use]
pub fn verdicts(rows: &[Row]) -> Vec<(String, bool)> {
    rows.iter()
        .map(|r| {
            if r.variant.starts_with("full") {
                (
                    format!("n{}_full_infeasible", r.n),
                    r.certified_infeasible == Some(true) && !r.first_fit && r.exact != Some(true),
                )
            } else if r.exact.is_none() && !r.first_fit {
                (format!("n{}_control_not_refuted", r.n), true)
            } else {
                (
                    format!("n{}_control_feasible", r.n),
                    r.first_fit || r.exact == Some(true),
                )
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem_4_2_shape() {
        let rows = run(&[3], 3);
        assert_eq!(rows.len(), 2);
        // Full collection: provably infeasible, by search AND certificate.
        assert_eq!(rows[0].exact, Some(false));
        assert_eq!(rows[0].certified_infeasible, Some(true));
        assert!(!rows[0].first_fit);
        // Control: feasible, and even first-fit finds it.
        assert_eq!(rows[1].exact, Some(true));
        // Flow counts: n(n-1) + n + n(n-1) + 1.
        assert_eq!(rows[0].flows, 16);
        assert_eq!(rows[1].flows, 15);
    }

    #[test]
    fn exact_skipped_above_limit_but_certificate_applies() {
        let rows = run(&[4], 3);
        assert!(rows.iter().all(|r| r.exact.is_none()));
        // The arithmetic certificate still settles the full variant.
        assert_eq!(rows[0].certified_infeasible, Some(true));
        let s = render(&rows);
        assert!(s.contains("(skipped)"));
        assert!(s.contains("infeasible (certified)"));
    }

    #[test]
    fn skipped_control_rows_are_not_refuted_rather_than_failed() {
        // Above the exact limit the first-fit heuristic fails on the
        // control collection; that proves nothing, so the verdict must
        // pass (vacuously) under the `_not_refuted` name.
        let rows = run(&[5], 3);
        let vs = verdicts(&rows);
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].0, "n5_full_infeasible");
        assert!(vs[0].1);
        assert_eq!(vs[1].0, "n5_control_not_refuted");
        assert!(vs[1].1);
        // Within the exact limit the control verdict stays a positive
        // feasibility claim.
        let resolved = verdicts(&run(&[3], 3));
        assert_eq!(resolved[1].0, "n3_control_feasible");
        assert!(resolved[1].1);
    }
}
