//! E15 — the topology abstraction at work: exact routing/allocation
//! search over three multi-stage fabrics at increasing oversubscription.
//!
//! The paper's impossibility results are stated on the three-stage Clos
//! `C_n`, but nothing in the search machinery depends on that shape:
//! any [`Fabric`] exposes per-flow candidate paths indexed by routing
//! class, and the branch-and-bound enumerates class assignments. This
//! experiment runs the *same* exact lex-max-min and throughput-max-min
//! searches over
//!
//! * the paper's Clos `C_n`,
//! * a Benes network `B_r` (2r−1 switch columns, 6-link paths at
//!   `r = 3` — the canonical rearrangeable fabric), and
//! * a full `k`-ary fat-tree (5 switch stages, 6-link paths, with a
//!   native edge↔aggregation oversubscription knob),
//!
//! each at oversubscription ratios 1:1, 2:1, and 4:1 (for Clos/Benes an
//! overlay scales every switch↔switch link to `1/ρ`; the fat-tree
//! scales its edge↔aggregation tier natively). All rates are exact
//! rationals.
//!
//! Checked invariants: the lex optimum never has a worse minimum rate
//! than the throughput optimum and never a better total (Definitions
//! 2.4/2.5); minimum rates are monotone non-increasing in `ρ`; a
//! shift-by-one permutation achieves unit rates on the 1:1 Benes
//! network (rearrangeability); and the collapsed 1:1 fat-tree — whose
//! underlying network is byte-identical to a Clos — searches to exactly
//! the Clos optima.

use clos_core::objectives::{search_lex_max_min, search_throughput_max_min};
use clos_net::{
    interior_overlay, BenesNetwork, ClosNetwork, ClosParams, Fabric, FatTree, Flow, Network,
    NodeKind,
};
use clos_rational::Rational;

use crate::table::Table;

/// One (topology, oversubscription) sweep point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Topology label, e.g. `benes(r=3)`.
    pub topology: String,
    /// Oversubscription ratio `ρ` (interior capacity is `1/ρ`).
    pub oversub: u32,
    /// Routing classes per flow (candidate paths).
    pub classes: usize,
    /// Flows in the workload.
    pub flows: usize,
    /// Minimum rate of the lex-max-min optimum.
    pub lex_min: Rational,
    /// Total rate of the lex-max-min optimum.
    pub lex_total: Rational,
    /// Minimum rate of the throughput-max-min optimum.
    pub tput_min: Rational,
    /// Total rate of the throughput-max-min optimum.
    pub tput_total: Rational,
    /// Routings evaluated across both searches.
    pub routings_examined: u64,
}

/// A shift-by-one (partial) permutation workload: source host `i` sends
/// to destination host `i + 1 mod H`, for the first `take` sources.
/// With `take = H` this is a full permutation of the hosts.
#[must_use]
pub fn ring_flows(net: &Network, take: usize) -> Vec<Flow> {
    let sources = net.nodes_of_kind(NodeKind::Source);
    let dests = net.nodes_of_kind(NodeKind::Destination);
    let h = sources.len();
    (0..take.min(h))
        .map(|i| Flow::new(sources[i], dests[(i + 1) % h]))
        .collect()
}

/// Runs both exact searches over `fabric` and records the sweep point.
fn measure<F: Fabric + Sync>(topology: String, oversub: u32, fabric: &F, flows: &[Flow]) -> Row {
    let (lex, lex_stats) = search_lex_max_min(fabric, flows);
    let (tput, tput_stats) = search_throughput_max_min(fabric, flows);
    Row {
        topology,
        oversub,
        classes: fabric.class_count(),
        flows: flows.len(),
        lex_min: lex.allocation.min_rate().unwrap_or(Rational::ZERO),
        lex_total: lex.throughput(),
        tput_min: tput.allocation.min_rate().unwrap_or(Rational::ZERO),
        tput_total: tput.throughput(),
        routings_examined: lex_stats.routings_examined + tput_stats.routings_examined,
    }
}

/// Flow-count cap for fabrics searched with a partial workload: with up
/// to 4 routing classes the assignment space stays ≤ 4^6 per search.
const PARTIAL_FLOWS: usize = 6;

/// Runs the sweep. `quick` restricts to the smallest instance of each
/// topology family; the full run adds `C_3` and the order-3 Benes
/// network (6-link paths, no class-interchange symmetry to exploit).
#[must_use]
pub fn run(quick: bool) -> Vec<Row> {
    let oversubs: [u32; 3] = [1, 2, 4];
    let clos_ns: Vec<usize> = if quick { vec![2] } else { vec![2, 3] };
    let benes_rs: Vec<usize> = if quick { vec![2] } else { vec![2, 3] };
    let mut rows = Vec::new();

    for &rho in &oversubs {
        for &n in &clos_ns {
            let base = ClosNetwork::standard(n);
            let clos = base.with_capacities(&interior_overlay(
                base.network(),
                base.nominal_capacity(),
                rho,
            ));
            let flows = ring_flows(clos.network(), PARTIAL_FLOWS);
            rows.push(measure(format!("clos(n={n})"), rho, &clos, &flows));
        }
        for &r in &benes_rs {
            let base = BenesNetwork::standard(r);
            let benes = base.with_capacities(&interior_overlay(
                base.network(),
                base.nominal_capacity(),
                rho,
            ));
            // The full terminal permutation: the rearrangeability
            // workload, small enough to search exactly (4^8 at r = 3).
            let flows = ring_flows(benes.network(), benes.terminal_count());
            rows.push(measure(format!("benes(r={r})"), rho, &benes, &flows));
        }
        let ft = FatTree::new(4, Rational::from_integer(i128::from(rho)));
        let flows = ring_flows(ft.network(), PARTIAL_FLOWS);
        rows.push(measure("fat-tree(k=4)".to_string(), rho, &ft, &flows));
    }

    // The degenerate pair (1:1 only): the collapsed fat-tree's network
    // is byte-identical to the (4, 4, 4) Clos, so the searches must
    // return identical optima; `verdicts` pins the two rows together.
    let collapsed = FatTree::collapsed(4);
    let flows = ring_flows(collapsed.network(), PARTIAL_FLOWS);
    rows.push(measure(
        "fat-tree-collapsed(k=4)".to_string(),
        1,
        &collapsed,
        &flows,
    ));
    let clos444 = ClosNetwork::with_params(ClosParams {
        middle_switches: 4,
        tor_pairs: 4,
        hosts_per_tor: 4,
        link_capacity: Rational::ONE,
    });
    let flows = ring_flows(clos444.network(), PARTIAL_FLOWS);
    rows.push(measure(
        "clos(m=4,t=4,h=4)".to_string(),
        1,
        &clos444,
        &flows,
    ));

    rows
}

/// Renders the E15 table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(vec![
        "topology",
        "oversub",
        "classes",
        "flows",
        "lex min",
        "lex total",
        "tput min",
        "tput total",
        "routings",
    ]);
    for r in rows {
        t.row(vec![
            r.topology.clone(),
            format!("{}:1", r.oversub),
            r.classes.to_string(),
            r.flows.to_string(),
            r.lex_min.to_string(),
            r.lex_total.to_string(),
            r.tput_min.to_string(),
            r.tput_total.to_string(),
            r.routings_examined.to_string(),
        ]);
    }
    t.render()
}

/// Machine-checkable verdicts for the JSON report (see module docs).
#[must_use]
pub fn verdicts(rows: &[Row]) -> Vec<(String, bool)> {
    let mut v = Vec::new();
    for r in rows {
        let tag = format!("{}_rho{}", r.topology, r.oversub);
        v.push((
            format!("{tag}_lex_min_ge_tput_min"),
            r.lex_min >= r.tput_min,
        ));
        v.push((
            format!("{tag}_tput_total_ge_lex_total"),
            r.tput_total >= r.lex_total,
        ));
    }
    // Minimum rates never improve as oversubscription grows.
    let mut topologies: Vec<&str> = Vec::new();
    for r in rows {
        if !topologies.contains(&r.topology.as_str()) {
            topologies.push(r.topology.as_str());
        }
    }
    for topology in topologies {
        let sweep: Vec<&Row> = rows.iter().filter(|r| r.topology == topology).collect();
        if sweep.len() < 2 {
            continue;
        }
        // Rows are pushed in ascending ρ order per topology.
        let monotone = sweep.windows(2).all(|w| w[0].lex_min >= w[1].lex_min);
        v.push((format!("{topology}_min_rate_monotone_in_oversub"), monotone));
    }
    // Rearrangeability: the 1:1 Benes network carries a terminal
    // permutation at unit rates.
    for r in rows
        .iter()
        .filter(|r| r.topology.starts_with("benes") && r.oversub == 1)
    {
        v.push((
            format!("{}_permutation_unit_rates", r.topology),
            r.lex_min == Rational::ONE && r.lex_total == Rational::from_integer(r.flows as i128),
        ));
    }
    // Collapsed fat-tree ≡ Clos: identical optima on the shared network.
    let collapsed = rows
        .iter()
        .find(|r| r.topology == "fat-tree-collapsed(k=4)");
    let clos = rows.iter().find(|r| r.topology == "clos(m=4,t=4,h=4)");
    if let (Some(ft), Some(cl)) = (collapsed, clos) {
        v.push((
            "fattree_collapsed_matches_clos".to_string(),
            ft.lex_min == cl.lex_min
                && ft.lex_total == cl.lex_total
                && ft.tput_min == cl.tput_min
                && ft.tput_total == cl.tput_total,
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use clos_net::Capacity;

    #[test]
    fn quick_sweep_passes_all_verdicts() {
        let rows = run(true);
        // 3 topologies × 3 ratios + the two degenerate-pair rows.
        assert_eq!(rows.len(), 11);
        for (check, pass) in verdicts(&rows) {
            assert!(pass, "verdict {check} failed");
        }
        assert!(!render(&rows).is_empty());
    }

    #[test]
    fn benes_unit_rates_at_one_to_one() {
        let benes = BenesNetwork::standard(2);
        let flows = ring_flows(benes.network(), benes.terminal_count());
        let (lex, _) = search_lex_max_min(&benes, &flows);
        assert!(lex.allocation.rates().iter().all(|&r| r == Rational::ONE));
    }

    #[test]
    fn oversubscription_overlay_only_touches_interior_links() {
        let clos = ClosNetwork::standard(2);
        let overlay = interior_overlay(clos.network(), clos.nominal_capacity(), 2);
        // Exactly the 2·t·m fabric links are scaled.
        assert_eq!(overlay.len(), 2 * clos.tor_count() * clos.middle_count());
        let scaled = clos.with_capacities(&overlay);
        for l in scaled.network().links() {
            let host_adjacent = scaled.network().node(l.src()).kind() == NodeKind::Source
                || scaled.network().node(l.dst()).kind() == NodeKind::Destination;
            if host_adjacent {
                assert_eq!(l.capacity(), Capacity::finite_value(Rational::ONE));
            } else {
                assert_eq!(l.capacity(), Capacity::finite_value(Rational::new(1, 2)));
            }
        }
    }
}
