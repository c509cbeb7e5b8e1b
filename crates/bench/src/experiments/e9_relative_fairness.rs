//! E9 — §7 (R2 discussion): relative max-min fairness, the paper's open
//! question, explored empirically.
//!
//! For each instance we compare the worst flow's *relative* rate (network
//! rate / macro-switch rate) under three policies: the absolute
//! lex-max-min optimum (what Theorem 4.3 says can starve to `1/n`), the
//! relative-max-min optimum (exact where searchable, pair-move local
//! search otherwise), and the greedy router.

use clos_core::constructions::{example_2_3, theorem_4_3};
use clos_core::objectives::search_lex_max_min;
use clos_core::relative::{
    macro_reference_rates, relative_local_search, relative_rates, search_relative_max_min,
};
use clos_core::routers::{route_and_allocate, GreedyRouter};
use clos_net::{ClosNetwork, Flow, MacroSwitch};
use clos_rational::Rational;
use clos_workloads::Workload;

use crate::table::Table;

/// One instance of the relative-fairness comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Instance label.
    pub instance: String,
    /// Number of flows.
    pub flows: usize,
    /// Worst relative rate under the absolute lex-max-min optimum (exact
    /// where searchable; certificate for Theorem 4.3).
    pub lex_min_ratio: Rational,
    /// Worst relative rate under the relative-max-min policy.
    pub relative_min_ratio: Rational,
    /// Whether the relative number is an exact optimum (`true`) or a
    /// local-search lower bound (`false`).
    pub relative_exact: bool,
    /// Worst relative rate under the greedy baseline.
    pub greedy_min_ratio: Rational,
}

fn min_ratio(rates: &[Rational], reference: &[Rational]) -> Rational {
    relative_rates(rates, reference).min().expect("nonempty")
}

fn row_for(
    label: String,
    clos: &ClosNetwork,
    ms: &MacroSwitch,
    flows: &[Flow],
    exact: bool,
) -> Row {
    let reference = macro_reference_rates(clos, ms, flows);
    let lex = search_lex_max_min(clos, flows).0;
    let (relative_min_ratio, relative_exact) = if exact {
        let (best, _) = search_relative_max_min(clos, ms, flows);
        (best.min_ratio(), true)
    } else {
        (relative_local_search(clos, ms, flows, 4).min_ratio(), false)
    };
    let greedy = route_and_allocate(&mut GreedyRouter::new(), clos, ms, flows);
    Row {
        instance: label,
        flows: flows.len(),
        lex_min_ratio: min_ratio(lex.allocation.rates(), &reference),
        relative_min_ratio,
        relative_exact,
        greedy_min_ratio: min_ratio(greedy.allocation.rates(), &reference),
    }
}

/// Runs the comparison: Example 2.3, random collections on `C_2`, and the
/// Theorem 4.3 adversarial instance (local search only — its routing space
/// is astronomically large).
#[must_use]
pub fn run(random_seeds: &[u64], flows_per_seed: usize) -> Vec<Row> {
    let mut rows = Vec::new();

    let ex = example_2_3();
    rows.push(row_for(
        "example 2.3".to_string(),
        &ex.instance.clos,
        &ex.instance.ms,
        &ex.instance.flows,
        true,
    ));

    let clos = ClosNetwork::standard(2);
    let ms = MacroSwitch::standard(2);
    for &seed in random_seeds {
        let flows = Workload::UniformRandom {
            flows: flows_per_seed,
        }
        .generate(&clos, seed);
        rows.push(row_for(
            format!("uniform(seed={seed})"),
            &clos,
            &ms,
            &flows,
            true,
        ));
    }

    // Theorem 4.3's instance: does directly optimizing the relative
    // objective rescue the starved flow? (Local-search lower bound; the
    // exact optimum is open.)
    let t = theorem_4_3(3);
    let reference = macro_reference_rates(&t.instance.clos, &t.instance.ms, &t.instance.flows);
    let cert = t.certificate();
    let relative = relative_local_search(&t.instance.clos, &t.instance.ms, &t.instance.flows, 3);
    let greedy = route_and_allocate(
        &mut GreedyRouter::new(),
        &t.instance.clos,
        &t.instance.ms,
        &t.instance.flows,
    );
    rows.push(Row {
        instance: "thm 4.3 (n=3)".to_string(),
        flows: t.instance.flows.len(),
        lex_min_ratio: min_ratio(cert.allocation.rates(), &reference),
        relative_min_ratio: relative.min_ratio(),
        relative_exact: false,
        greedy_min_ratio: min_ratio(greedy.allocation.rates(), &reference),
    });
    rows
}

/// Renders the E9 table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(vec![
        "instance",
        "flows",
        "lex-MmF min ratio",
        "relative-MmF min ratio",
        "exact?",
        "greedy min ratio",
    ]);
    for r in rows {
        t.row(vec![
            r.instance.clone(),
            r.flows.to_string(),
            r.lex_min_ratio.to_string(),
            r.relative_min_ratio.to_string(),
            if r.relative_exact {
                "exact"
            } else {
                "local-search"
            }
            .to_string(),
            r.greedy_min_ratio.to_string(),
        ]);
    }
    t.render()
}

/// Machine-checkable verdicts for the JSON report: relative ratios stay
/// positive, and wherever the relative optimum is exact it dominates the
/// absolute lex optimum's worst ratio.
#[must_use]
pub fn verdicts(rows: &[Row]) -> Vec<(String, bool)> {
    let mut v = vec![(
        "relative_ratios_positive".to_string(),
        rows.iter().all(|r| r.relative_min_ratio.is_positive()),
    )];
    for r in rows.iter().filter(|r| r.relative_exact) {
        v.push((
            format!("{}_relative_dominates_lex", r.instance),
            r.relative_min_ratio >= r.lex_min_ratio,
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_never_worse_than_lex_in_relative_terms() {
        let rows = run(&[1, 2], 6);
        for r in &rows {
            if r.relative_exact {
                // The exact relative optimum dominates any other routing's
                // worst ratio, including the lex optimum's.
                assert!(
                    r.relative_min_ratio >= r.lex_min_ratio,
                    "{}: relative {} < lex {}",
                    r.instance,
                    r.relative_min_ratio,
                    r.lex_min_ratio
                );
            }
            assert!(r.relative_min_ratio.is_positive());
        }
        // Example 2.3: the divergence is strict (3/4 vs 2/3).
        let ex = &rows[0];
        assert_eq!(ex.lex_min_ratio, Rational::new(2, 3));
        assert_eq!(ex.relative_min_ratio, Rational::new(3, 4));
    }

    #[test]
    fn theorem_instance_included() {
        let rows = run(&[], 4);
        let adv = rows.iter().find(|r| r.instance.starts_with("thm")).unwrap();
        // Lex-max-min starves to 1/n = 1/3 on this instance.
        assert_eq!(adv.lex_min_ratio, Rational::new(1, 3));
        assert!(adv.relative_min_ratio >= Rational::new(1, 4));
        assert!(!render(&rows).is_empty());
    }
}
