//! E14 — failures: congestion and starvation blowup of stale routings
//! under accumulating fabric failures, versus the exhaustively
//! recomputed optimum.
//!
//! A seeded [`FailureSchedule`] degrades `C_n` one event at a time
//! (single-link degradations, middle-switch removals, correlated pod
//! events, applied as capacity overlays — identifiers stay stable).
//! Three routings computed on the *pristine* fabric — the
//! lex-max-min optimum, the throughput-max-min optimum, and the
//! Doom-Switch construction — are repaired only by randomized *local
//! fast reroute* (each flow crossing a dead link moves to a uniformly
//! random surviving middle; cf. Bankhamer, Elsässer & Schmid, arXiv
//! 2108.02136), while the optimum is recomputed from scratch on every
//! failed fabric by the capacity-class-aware exhaustive search.
//!
//! Exact-rational verdicts per step:
//!
//! * the recomputed lex optimum lexicographically dominates the stale
//!   lex routing + reroute, and the recomputed throughput optimum
//!   dominates every repaired routing's throughput (recomputation is
//!   never worse than local repair);
//! * the recomputed lex optimum starves *exactly* the flows with no
//!   surviving path — moving a reachable zero-rate flow onto a
//!   surviving middle always lex-improves the sorted vector, so the
//!   optimum never starves spuriously;
//! * after a reroute sweep every reachable flow has a positive rate
//!   (local repair also never starves spuriously — what it loses
//!   against the optimum is congestion, not reachability).

use clos_churn::LocalReroute;
use clos_core::doom_switch::doom_switch_assignment;
use clos_core::objectives::{search_lex_max_min, search_throughput_max_min};
use clos_core::search::{run_search, LexMaxMin, SearchConfig, ThroughputMaxMin};
use clos_core::RoutedAllocation;
use clos_fairness::Allocation;
use clos_net::{Capacity, ClosNetwork, FailureSchedule, Flow, LinkId, MacroSwitch};
use clos_rational::Rational;

use crate::table::Table;

/// One failure step on one `C_n`.
#[derive(Clone, Debug)]
pub struct Row {
    /// Network size.
    pub n: usize,
    /// Failure-schedule prefix length applied (1-based).
    pub step: usize,
    /// Links whose capacity the cumulative overlay changed.
    pub degraded_links: usize,
    /// Flows with no surviving path (every middle dead for their pair).
    pub unreachable: usize,
    /// Throughput of the recomputed throughput-max-min optimum.
    pub opt_tput: Rational,
    /// Starved flows under the recomputed lex-max-min optimum.
    pub opt_starved: usize,
    /// Throughput of the stale lex routing after local fast reroute.
    pub lex_reroute_tput: Rational,
    /// Starved flows of the stale lex routing after reroute.
    pub lex_reroute_starved: usize,
    /// Throughput of the stale throughput routing after reroute.
    pub tput_reroute_tput: Rational,
    /// Throughput of the Doom-Switch routing after reroute.
    pub doom_reroute_tput: Rational,
    /// Starved flows of the Doom-Switch routing after reroute.
    pub doom_reroute_starved: usize,
    /// Flows moved by this step's three reroute sweeps.
    pub moved: u64,
    /// Flows found stuck (no surviving middle) by this step's sweeps.
    pub stuck: u64,
    /// Recomputed lex optimum `>=` stale-lex + reroute (sorted vectors).
    pub optimum_dominates_reroute: bool,
    /// Recomputed throughput optimum `>=` every repaired throughput.
    pub optimum_dominates_doom: bool,
    /// Recomputed lex optimum starves exactly the unreachable flows.
    pub no_spurious_starvation: bool,
    /// Every reroute-repaired routing starves exactly the unreachable.
    pub reroute_covers_survivors: bool,
}

/// A deterministic flow set spread over ToR pairs and hosts.
fn fixed_flows(clos: &ClosNetwork, count: usize) -> Vec<Flow> {
    let tors = clos.tor_count();
    let hosts = clos.hosts_per_tor();
    (0..count)
        .map(|i| {
            Flow::new(
                clos.source(i % tors, (i / tors) % hosts),
                clos.destination((i * 3 + 1) % tors, i % hosts),
            )
        })
        .collect()
}

fn alive(clos: &ClosNetwork, link: LinkId) -> bool {
    clos.network()
        .link(link)
        .capacity()
        .finite()
        .is_none_or(|c| !c.is_zero())
}

/// Middles whose whole path for `flow` survives; empty iff the flow is
/// unreachable.
fn surviving_middles(clos: &ClosNetwork, flow: Flow) -> Vec<usize> {
    (0..clos.middle_count())
        .filter(|&m| clos.links_via(flow, m).iter().all(|&l| alive(clos, l)))
        .collect()
}

/// One local fast-reroute sweep over a stale assignment (the
/// assignment-vector mirror of `ChurnEngine::reroute_failed`): every
/// flow crossing a dead link moves to a random surviving middle.
/// Returns `(moved, stuck)`.
fn reroute_sweep(
    clos: &ClosNetwork,
    flows: &[Flow],
    assignment: &mut [usize],
    policy: &mut LocalReroute,
) -> (u64, u64) {
    let (mut moved, mut stuck) = (0u64, 0u64);
    for (j, &flow) in flows.iter().enumerate() {
        let dead = clos
            .links_via(flow, assignment[j])
            .iter()
            .any(|&l| !alive(clos, l));
        if !dead {
            continue;
        }
        let candidates = surviving_middles(clos, flow);
        if candidates.is_empty() {
            stuck += 1;
        } else {
            assignment[j] = policy.pick(&candidates);
            moved += 1;
        }
    }
    (moved, stuck)
}

fn starved(alloc: &Allocation<Rational>) -> usize {
    alloc.rates().iter().filter(|r| r.is_zero()).count()
}

/// Runs the failure experiment: each `C_n` gets `2n` fixed flows and a
/// seeded failure schedule of `steps` events; after every event the
/// stale routings are locally repaired and the optima recomputed.
#[must_use]
pub fn run(ns: &[usize], steps: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in ns {
        let clos = ClosNetwork::standard(n);
        let ms = MacroSwitch::standard(n);
        let flows = fixed_flows(&clos, 2 * n);
        let schedule = FailureSchedule::random(&clos, 0xe14 + n as u64, steps);

        // Only the winning assignments are needed here, not their rates.
        let (mut lex_asn, _) = run_search(&clos, &flows, &LexMaxMin, SearchConfig::default());
        let (mut tput_asn, _) =
            run_search(&clos, &flows, &ThroughputMaxMin, SearchConfig::default());
        let mut doom_asn = doom_switch_assignment(&clos, &ms, &flows);
        let mut policy = LocalReroute::new(0x5eed + n as u64);
        // The optima depend on the link capacities alone (the flows are
        // fixed), and an event can leave every capacity as it was
        // (halving a dead link, say), so each distinct capacity state is
        // searched once.
        let mut optima: Vec<(Vec<Capacity>, RoutedAllocation, RoutedAllocation)> = Vec::new();

        for step in 1..=steps {
            let overlay = schedule.overlay_at(&clos, step);
            let degraded_links = overlay
                .iter()
                .filter(|&(&l, &c)| clos.network().link(l).capacity() != c)
                .count();
            let failed = clos.with_capacities(&overlay);
            let unreachable = flows
                .iter()
                .filter(|&&f| surviving_middles(&failed, f).is_empty())
                .count();

            let (m1, s1) = reroute_sweep(&failed, &flows, &mut lex_asn, &mut policy);
            let (m2, s2) = reroute_sweep(&failed, &flows, &mut tput_asn, &mut policy);
            let (m3, s3) = reroute_sweep(&failed, &flows, &mut doom_asn, &mut policy);

            let capacities: Vec<Capacity> =
                failed.network().links().map(|l| l.capacity()).collect();
            let known = optima.iter().position(|(c, _, _)| *c == capacities);
            let state = known.unwrap_or_else(|| {
                let (lex, _) = search_lex_max_min(&failed, &flows);
                let (tput, _) = search_throughput_max_min(&failed, &flows);
                optima.push((capacities, lex, tput));
                optima.len() - 1
            });
            let (_, opt_lex, opt_tput) = &optima[state];
            let lex_alloc = RoutedAllocation::from_assignment(&failed, &flows, &lex_asn).allocation;
            let tput_alloc =
                RoutedAllocation::from_assignment(&failed, &flows, &tput_asn).allocation;
            let doom_alloc =
                RoutedAllocation::from_assignment(&failed, &flows, &doom_asn).allocation;

            let opt_starved = starved(&opt_lex.allocation);
            let lex_reroute_starved = starved(&lex_alloc);
            let tput_reroute_starved = starved(&tput_alloc);
            let doom_reroute_starved = starved(&doom_alloc);
            rows.push(Row {
                n,
                step,
                degraded_links,
                unreachable,
                opt_tput: opt_tput.throughput(),
                opt_starved,
                lex_reroute_tput: lex_alloc.throughput(),
                lex_reroute_starved,
                tput_reroute_tput: tput_alloc.throughput(),
                doom_reroute_tput: doom_alloc.throughput(),
                doom_reroute_starved,
                moved: m1 + m2 + m3,
                stuck: s1 + s2 + s3,
                optimum_dominates_reroute: opt_lex.allocation.sorted() >= lex_alloc.sorted(),
                optimum_dominates_doom: opt_tput.throughput() >= doom_alloc.throughput()
                    && opt_tput.throughput() >= tput_alloc.throughput()
                    && opt_tput.throughput() >= lex_alloc.throughput(),
                no_spurious_starvation: opt_starved == unreachable,
                reroute_covers_survivors: lex_reroute_starved == unreachable
                    && tput_reroute_starved == unreachable
                    && doom_reroute_starved == unreachable,
            });
        }
    }
    rows
}

/// Renders the E14 table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(vec![
        "n",
        "step",
        "degraded",
        "unreachable",
        "T opt",
        "T lex+frr",
        "T tput+frr",
        "T doom+frr",
        "starved opt/frr",
        "moved",
        "stuck",
    ]);
    for r in rows {
        t.row(vec![
            r.n.to_string(),
            r.step.to_string(),
            r.degraded_links.to_string(),
            r.unreachable.to_string(),
            r.opt_tput.to_string(),
            r.lex_reroute_tput.to_string(),
            r.tput_reroute_tput.to_string(),
            r.doom_reroute_tput.to_string(),
            format!("{}/{}", r.opt_starved, r.lex_reroute_starved),
            r.moved.to_string(),
            r.stuck.to_string(),
        ]);
    }
    t.render()
}

/// Machine-checkable verdicts, aggregated over every step of each `n`
/// (all comparisons exact rationals; see the module docs).
#[must_use]
pub fn verdicts(rows: &[Row]) -> Vec<(String, bool)> {
    let mut ns: Vec<usize> = rows.iter().map(|r| r.n).collect();
    ns.dedup();
    ns.into_iter()
        .flat_map(|n| {
            let of_n: Vec<&Row> = rows.iter().filter(|r| r.n == n).collect();
            vec![
                (
                    format!("n{n}_optimum_dominates_reroute"),
                    of_n.iter().all(|r| r.optimum_dominates_reroute),
                ),
                (
                    format!("n{n}_optimum_dominates_doom"),
                    of_n.iter().all(|r| r.optimum_dominates_doom),
                ),
                (
                    format!("n{n}_no_spurious_starvation"),
                    of_n.iter().all(|r| r.no_spurious_starvation),
                ),
                (
                    format!("n{n}_reroute_covers_survivors"),
                    of_n.iter().all(|r| r.reroute_covers_survivors),
                ),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_experiment_holds_on_small_fabrics() {
        let rows = run(&[2, 3], 8);
        assert_eq!(rows.len(), 16);
        assert!(rows.iter().any(|r| r.degraded_links > 0));
        assert!(rows.iter().any(|r| r.moved > 0), "no failure hit a flow");
        assert!(verdicts(&rows).iter().all(|(_, ok)| *ok));
        assert!(render(&rows).contains("T doom+frr"));
    }

    #[test]
    fn runs_are_reproducible() {
        let a = run(&[2], 4);
        let b = run(&[2], 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.opt_tput, y.opt_tput);
            assert_eq!(x.lex_reroute_tput, y.lex_reroute_tput);
            assert_eq!(x.moved, y.moved);
        }
    }
}
