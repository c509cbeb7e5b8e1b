//! E11 — LP cross-validation: the iterative-LP derivation of max-min
//! fairness agrees with water-filling, and the splittable LP relaxation
//! recovers the macro-switch abstraction exactly (§1 demand satisfaction).

use clos_core::lp_models::{max_min_via_lp, max_splittable_throughput, splittable_max_min};
use clos_core::macro_switch::{macro_max_min, max_throughput};
use clos_core::RoutedAllocation;
use clos_net::{ClosNetwork, Flow, MacroSwitch, Routing};
use clos_rational::Rational;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::Table;

/// One cross-validation instance.
#[derive(Clone, Debug)]
pub struct Row {
    /// Instance label.
    pub instance: String,
    /// Number of flows.
    pub flows: usize,
    /// Iterative-LP max-min equals water-filling max-min (routed,
    /// unsplittable).
    pub lp_matches_waterfill: bool,
    /// Splittable LP max-min equals the macro-switch max-min allocation.
    pub splittable_matches_macro: bool,
    /// Maximum splittable throughput in the Clos network.
    pub splittable_throughput: Rational,
    /// `T^MT` (unsplittable matching bound) for comparison.
    pub matching_throughput: Rational,
}

/// Runs the cross-validation on `seeds.len()` random instances in `C_2`
/// plus the Theorem 4.2 collection in `C_3`.
#[must_use]
pub fn run(seeds: &[u64], flows_per_instance: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    let clos = ClosNetwork::standard(2);
    let ms = MacroSwitch::standard(2);
    for &seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let flows: Vec<Flow> = (0..flows_per_instance)
            .map(|_| {
                Flow::new(
                    clos.source(rng.gen_range(0..4), rng.gen_range(0..2)),
                    clos.destination(rng.gen_range(0..4), rng.gen_range(0..2)),
                )
            })
            .collect();
        let routing: Routing = flows
            .iter()
            .map(|&f| clos.path_via(f, rng.gen_range(0..2)))
            .collect();
        let ms_flows = ms.translate_flows(&clos, &flows);

        let wf = RoutedAllocation::new(&clos, &flows, routing);
        let lp = max_min_via_lp(clos.network(), &flows, &wf.routing);
        let split = splittable_max_min(&clos, &flows);
        let ms_alloc = macro_max_min(&ms, &ms_flows);

        rows.push(Row {
            instance: format!("uniform C_2 (seed={seed})"),
            flows: flows.len(),
            lp_matches_waterfill: lp == wf.allocation,
            splittable_matches_macro: split == ms_alloc,
            splittable_throughput: max_splittable_throughput(&clos, &flows),
            matching_throughput: max_throughput(&ms, &ms_flows).throughput(),
        });
    }

    // The adversarial showcase: unsplittable infeasibility, splittable
    // equality.
    let t = clos_core::constructions::theorem_4_2(3);
    let ms_alloc = macro_max_min(&t.instance.ms, &t.instance.ms_flows);
    let split = splittable_max_min(&t.instance.clos, &t.instance.flows);
    rows.push(Row {
        instance: "thm 4.2 (n=3)".to_string(),
        flows: t.instance.flows.len(),
        lp_matches_waterfill: true, // not routed; LP1/LP2 not applicable
        splittable_matches_macro: split == ms_alloc,
        splittable_throughput: max_splittable_throughput(&t.instance.clos, &t.instance.flows),
        matching_throughput: max_throughput(&t.instance.ms, &t.instance.ms_flows).throughput(),
    });
    rows
}

/// Renders the E11 table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(vec![
        "instance",
        "flows",
        "LP == waterfill",
        "splittable == macro",
        "T split",
        "T^MT",
    ]);
    for r in rows {
        t.row(vec![
            r.instance.clone(),
            r.flows.to_string(),
            r.lp_matches_waterfill.to_string(),
            r.splittable_matches_macro.to_string(),
            r.splittable_throughput.to_string(),
            r.matching_throughput.to_string(),
        ]);
    }
    t.render()
}

/// Machine-checkable verdicts for the JSON report: the iterative-LP and
/// water-filling derivations agree, and splittable routing restores the
/// macro-switch abstraction, on every instance.
#[must_use]
pub fn verdicts(rows: &[Row]) -> Vec<(String, bool)> {
    rows.iter()
        .map(|r| {
            (
                format!("{}_lp_and_splittable_agree", r.instance),
                r.lp_matches_waterfill && r.splittable_matches_macro,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cross_checks_agree() {
        let rows = run(&[0, 1, 2], 6);
        for r in &rows {
            assert!(r.lp_matches_waterfill, "{}", r.instance);
            assert!(r.splittable_matches_macro, "{}", r.instance);
            assert!(r.splittable_throughput >= r.matching_throughput);
        }
        assert!(render(&rows).contains("thm 4.2"));
    }
}
