//! E4 — Theorem 4.3: lex-max-min fairness starves a flow to `1/n` of its
//! macro-switch rate.
//!
//! For each `n`, the adversarial instance's certificate routing (Lemma 4.6
//! Step 1) is evaluated and double-checked: its allocation is max-min fair
//! (bottleneck property), matches the rates of Lemma 4.6, and its sorted
//! vector dominates a battery of alternative routings (all single-flow
//! deviations plus random assignments) — a sampled version of Lemma 4.6
//! Step 2.

use clos_core::compiled::{CompiledInstance, EvalScratch};
use clos_core::constructions::theorem_4_3;
use clos_core::search::map_rows;
use clos_fairness::verify_bottleneck_property;
use clos_rational::Rational;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::Table;

/// One sweep point of the starvation experiment.
#[derive(Clone, Debug)]
pub struct Row {
    /// Network size.
    pub n: usize,
    /// Macro-switch rate of the type-3 flow (always 1 per Lemma 4.4).
    pub macro_rate: Rational,
    /// Lex-max-min rate of the type-3 flow (the paper predicts `1/n`).
    pub lex_rate: Rational,
    /// `lex_rate / macro_rate` — the starvation factor.
    pub starvation: Rational,
    /// Whether the certificate allocation passed the bottleneck property.
    pub certificate_max_min: bool,
    /// How many alternative routings were checked against the certificate.
    pub alternatives_checked: usize,
    /// Whether the certificate's sorted vector dominated all of them.
    pub dominates_alternatives: bool,
}

/// Maximum instance size (in flows) for which the dominance battery
/// (single-flow deviations + random samples) is run; larger instances
/// report only the certificate checks, which stay cheap at any size.
const DOMINANCE_FLOW_LIMIT: usize = 400;

/// Runs the sweep; `samples` random alternative routings are checked per
/// `n` in addition to all single-flow deviations, for instances up to
/// 400 flows (larger instances report only the certificate checks). The
/// rows are independent and run on the `--threads` workers
/// ([`map_rows`]).
#[must_use]
pub fn run(ns: &[usize], samples: usize) -> Vec<Row> {
    map_rows(ns, |&n| run_row(n, samples))
}

fn run_row(n: usize, samples: usize) -> Row {
    let t = theorem_4_3(n);
    let clos = &t.instance.clos;
    let flows = &t.instance.flows;
    // Only the type-3 rate is kept, so the macro-switch allocation is
    // gone before the certificate's water-fill (at n = 32 both hold
    // ~34k rates).
    let macro_rate = t.instance.macro_allocation().rate(t.type3_flow());
    let cert = t.certificate();
    let cert_sorted = cert.allocation.sorted();

    let certificate_max_min = verify_bottleneck_property(
        clos.network(),
        flows,
        &cert.routing,
        &cert.allocation,
        Rational::ZERO,
    )
    .is_ok();

    let mut alternatives_checked = 0;
    let mut dominates = true;
    if flows.len() <= DOMINANCE_FLOW_LIMIT {
        let _span = clos_telemetry::span("starvation.dominance");
        let assignment = t.certificate_assignment();
        let compiled = CompiledInstance::new(clos, flows);
        let mut scratch = EvalScratch::default();
        let mut check = |alt: &[usize]| {
            compiled.evaluate(&mut scratch, alt);
            alternatives_checked += 1;
            if scratch.sorted_by(|rates, buf| buf.extend_from_slice(rates)) > cert_sorted.rates() {
                dominates = false;
            }
        };
        // All single-flow deviations.
        let mut alt = assignment.clone();
        for i in 0..flows.len() {
            for m in 0..n {
                if m == assignment[i] {
                    continue;
                }
                alt[i] = m;
                check(&alt);
            }
            alt[i] = assignment[i];
        }
        // Random assignments.
        let mut rng = StdRng::seed_from_u64(n as u64);
        for _ in 0..samples {
            for slot in &mut alt {
                *slot = rng.gen_range(0..n);
            }
            check(&alt);
        }
    }

    let lex_rate = cert.allocation.rate(t.type3_flow());
    Row {
        n,
        macro_rate,
        lex_rate,
        starvation: lex_rate / macro_rate,
        certificate_max_min,
        alternatives_checked,
        dominates_alternatives: dominates,
    }
}

/// Renders the E4 table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(vec![
        "n",
        "MS rate",
        "lex-MmF rate",
        "starvation",
        "cert is MmF",
        "alts checked",
        "dominates",
    ]);
    for r in rows {
        t.row(vec![
            r.n.to_string(),
            r.macro_rate.to_string(),
            r.lex_rate.to_string(),
            r.starvation.to_string(),
            r.certificate_max_min.to_string(),
            r.alternatives_checked.to_string(),
            r.dominates_alternatives.to_string(),
        ]);
    }
    t.render()
}

/// Machine-checkable verdicts for the JSON report: Theorem 4.3's exact
/// `1/n` starvation, with a max-min-certified and dominance-checked
/// certificate, at every sweep point.
#[must_use]
pub fn verdicts(rows: &[Row]) -> Vec<(String, bool)> {
    rows.iter()
        .map(|r| {
            (
                format!("n{}_starved_to_one_over_n", r.n),
                r.starvation == Rational::new(1, r.n as i128)
                    && r.certificate_max_min
                    && r.dominates_alternatives,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starvation_is_exactly_one_over_n() {
        let rows = run(&[3, 4], 20);
        for r in &rows {
            assert_eq!(r.macro_rate, Rational::ONE);
            assert_eq!(r.lex_rate, Rational::new(1, r.n as i128));
            assert_eq!(r.starvation, Rational::new(1, r.n as i128));
            assert!(r.certificate_max_min);
            assert!(r.dominates_alternatives, "n={}", r.n);
            assert!(r.alternatives_checked > 0);
        }
    }

    /// Pinned battery sizes and verdicts: every single-flow deviation
    /// plus 20 random assignments per `n`, all dominated.
    #[test]
    fn dominance_battery_reference() {
        let got: Vec<(usize, bool)> = run(&[3, 4, 5], 20)
            .iter()
            .map(|r| (r.alternatives_checked, r.dominates_alternatives))
            .collect();
        assert_eq!(got, vec![(88, true), (251, true), (604, true)]);
    }

    #[test]
    fn render_mentions_starvation() {
        let rows = run(&[3], 2);
        assert!(render(&rows).contains("starvation"));
    }
}
