//! Demand satisfaction: why the macro-switch abstraction is exact for
//! splittable flows (§1) and breaks for unsplittable ones (Theorem 4.2).
//!
//! Takes the paper's adversarial collection at its macro-switch max-min
//! rates and routes it twice: splittably (hose-model even split — always
//! fits) and unsplittably (exact search — provably impossible).
//!
//! ```text
//! cargo run --release -p clos-bench --example demand_satisfaction
//! ```

use clos_core::constructions::theorem_4_2;
use clos_core::replication::{find_feasible_routing, first_fit_routing};
use clos_core::splittable::demand_satisfaction;

fn main() {
    let n = 3;
    let t = theorem_4_2(n);
    let rates = t.instance.macro_allocation();
    println!(
        "Theorem 4.2 collection on C_{n}: {} flows at macro-switch max-min rates",
        t.instance.flows.len()
    );
    println!(
        "  rates: type 1 & 3 at 1, type 2 at 1/{n} (sorted head: {})",
        rates
            .sorted()
            .rates()
            .iter()
            .take(4)
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Splittable: the hose-model even split certifies feasibility.
    match demand_satisfaction(&t.instance.clos, &t.instance.flows, rates.rates()) {
        Ok(cert) => {
            println!("\nsplittable routing   : FEASIBLE");
            println!(
                "  even split over {} middle switches; max fabric load {} (capacity {})",
                t.instance.clos.middle_count(),
                cert.max_fabric_load,
                cert.capacity
            );
        }
        Err(e) => println!("\nsplittable routing   : infeasible ({e})"),
    }

    // Unsplittable: the exact search proves no routing exists.
    let exact = find_feasible_routing(&t.instance.clos, &t.instance.flows, rates.rates());
    println!(
        "unsplittable routing : {}",
        if exact.is_some() {
            "feasible (unexpected!)"
        } else {
            "INFEASIBLE — proven by exhausting all middle-switch assignments"
        }
    );
    let ff = first_fit_routing(&t.instance.clos, &t.instance.flows, rates.rates());
    println!(
        "first-fit heuristic  : {}",
        if ff.is_some() {
            "found a routing"
        } else {
            "stuck (as expected)"
        }
    );

    // Dropping the single type-3 flow restores unsplittable feasibility.
    let without = &t.instance.flows[..t.instance.flows.len() - 1];
    let without_rates = &rates.rates()[..rates.rates().len() - 1];
    let control = find_feasible_routing(&t.instance.clos, without, without_rates);
    println!(
        "\nwithout the type-3 flow: {}",
        if control.is_some() {
            "feasible — one flow's worth of integrality is the entire gap"
        } else {
            "still infeasible (unexpected!)"
        }
    );
    println!("\nThis is the paper's R2 in miniature: splittability (not capacity)");
    println!("is what makes the macro-switch abstraction exact.");
}
