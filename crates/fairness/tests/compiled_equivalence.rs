//! Equivalence of the compiled water-filling loop with progressive filling.
//!
//! [`WaterfillInstance::run`] is the only water-filling loop in the
//! workspace: `max_min_fair_traced` and the other wrappers compile and call
//! it, so the "compiled equals fresh" tests below pin the wrapper's
//! translation (dense indices, scratch reuse), not the loop. The loop itself
//! is checked against [`reference_fill`], textbook progressive filling
//! written plainly: every round recomputes every link's level, then makes
//! two full passes in link order. Everything is compared exactly — in
//! `Rational` and in `TotalF64`, where "equal" means bit-equal, because
//! both sides perform the same floating-point operations in the same order.

use clos_fairness::{
    max_min_fair_traced, max_min_fair_weighted, WaterfillInstance, WaterfillScratch,
};
use clos_net::{Capacity, ClosNetwork, Flow, LinkId, Network, Routing};
use clos_rational::{Rational, Scalar, TotalF64};
use proptest::prelude::*;

/// Builds the flow collection and per-flow middle routing from raw
/// coordinate tuples.
fn build(
    clos: &ClosNetwork,
    raw_flows: &[(usize, usize, usize, usize)],
    middles: &[usize],
) -> (Vec<Flow>, Routing) {
    let flows: Vec<Flow> = raw_flows
        .iter()
        .map(|&(si, sj, ti, tj)| Flow::new(clos.source(si, sj), clos.destination(ti, tj)))
        .collect();
    let routing: Routing = flows
        .iter()
        .zip(middles)
        .map(|(&f, &m)| clos.path_via(f, m))
        .collect();
    (flows, routing)
}

/// Runs every assignment through ONE compiled instance and ONE scratch
/// (reused, never reallocated) and asserts rates, trace levels, and
/// bottleneck links are exactly those of a fresh `max_min_fair_traced`
/// call per assignment.
fn assert_compiled_matches_fresh<S: Scalar>(
    clos: &ClosNetwork,
    raw_flows: &[(usize, usize, usize, usize)],
    assignments: &[Vec<usize>],
) {
    let instance = WaterfillInstance::<S>::compile(clos.network());
    let mut scratch = WaterfillScratch::new();
    let mut dense: Vec<usize> = Vec::new();
    for middles in assignments {
        let (flows, routing) = build(clos, raw_flows, middles);
        let (fresh, trace) = max_min_fair_traced::<S>(clos.network(), &flows, &routing).unwrap();

        scratch.begin();
        for path in routing.paths() {
            dense.clear();
            dense.extend(path.links().iter().filter_map(|&l| instance.dense_index(l)));
            assert!(!dense.is_empty(), "Clos paths always cross finite links");
            scratch.push_flow(&dense);
        }
        instance.run(&mut scratch);

        assert_eq!(scratch.rates(), fresh.rates(), "rates diverged");
        assert_eq!(scratch.levels(), trace.levels.as_slice(), "levels diverged");
        let bottlenecks: Vec<LinkId> = scratch
            .bottlenecks()
            .iter()
            .map(|&d| instance.link_id(d as usize))
            .collect();
        assert_eq!(bottlenecks, trace.bottleneck_of, "bottlenecks diverged");
    }
}

/// All `n^flows` assignments of `flows` flows to `n` middles.
fn all_assignments(n: usize, flows: usize) -> Vec<Vec<usize>> {
    let total = n.pow(flows as u32);
    (0..total)
        .map(|mut code| {
            (0..flows)
                .map(|_| {
                    let m = code % n;
                    code /= n;
                    m
                })
                .collect()
        })
        .collect()
}

/// Exhaustive deterministic check on a hot-ToR C_2 instance: all 16
/// assignments through one reused scratch, in both scalar modes.
#[test]
fn exhaustive_c2_hot_tor_both_scalars() {
    let clos = ClosNetwork::standard(2);
    // Two flows off ToR 0 (shared uplinks), one intra-ToR, one crossing.
    let raw = [(0, 0, 2, 0), (0, 1, 2, 1), (1, 0, 1, 1), (3, 0, 0, 0)];
    let assignments = all_assignments(2, raw.len());
    assert_eq!(assignments.len(), 16);
    assert_compiled_matches_fresh::<Rational>(&clos, &raw, &assignments);
    assert_compiled_matches_fresh::<TotalF64>(&clos, &raw, &assignments);
}

/// Duplicate flows (identical endpoints) share links with themselves;
/// the member lists then contain repeated dense indices, which the
/// counting-sort layout must preserve exactly.
#[test]
fn duplicate_flows_c3_both_scalars() {
    let clos = ClosNetwork::standard(3);
    let raw = [(0, 0, 3, 0), (0, 0, 3, 0), (0, 0, 3, 0), (1, 1, 4, 1)];
    let assignments = vec![
        vec![0, 0, 0, 0],
        vec![0, 1, 2, 0],
        vec![2, 2, 1, 1],
        vec![1, 1, 1, 2],
    ];
    assert_compiled_matches_fresh::<Rational>(&clos, &raw, &assignments);
    assert_compiled_matches_fresh::<TotalF64>(&clos, &raw, &assignments);
}

/// Flow endpoints as `(src_tor, src_host, dst_tor, dst_host)` tuples.
type FlowTuples = Vec<(usize, usize, usize, usize)>;

/// A random flow collection on `C_n` plus a batch of random assignments
/// for it, encoded as index tuples so proptest can shrink them.
fn flows_and_assignments(
    n: usize,
    max_flows: usize,
    batch: usize,
) -> impl Strategy<Value = (FlowTuples, Vec<Vec<usize>>)> {
    let tor = 2 * n;
    let host = n;
    let flow = (0..tor, 0..host, 0..tor, 0..host);
    prop::collection::vec(flow, 1..=max_flows).prop_flat_map(move |flows| {
        let len = flows.len();
        (
            Just(flows),
            prop::collection::vec(prop::collection::vec(0..n, len..=len), 1..=batch),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exact `Rational` equivalence on random C_2 instances, with the
    /// scratch carried across a whole batch of assignments.
    #[test]
    fn compiled_equals_fresh_rational_c2(
        (raw, assignments) in flows_and_assignments(2, 10, 6),
    ) {
        let clos = ClosNetwork::standard(2);
        assert_compiled_matches_fresh::<Rational>(&clos, &raw, &assignments);
    }

    /// Same on the larger C_3 fabric.
    #[test]
    fn compiled_equals_fresh_rational_c3(
        (raw, assignments) in flows_and_assignments(3, 12, 4),
    ) {
        let clos = ClosNetwork::standard(3);
        assert_compiled_matches_fresh::<Rational>(&clos, &raw, &assignments);
    }

    /// Bit-exact `TotalF64` equivalence: the compiled pipeline performs
    /// the same floating-point operations in the same order as the
    /// wrapper, so even rounding is identical.
    #[test]
    fn compiled_equals_fresh_total_f64(
        (raw, assignments) in flows_and_assignments(3, 10, 6),
    ) {
        let clos = ClosNetwork::standard(3);
        assert_compiled_matches_fresh::<TotalF64>(&clos, &raw, &assignments);
    }
}

/// One waterfill entry: dense links plus the number of identical flows
/// it stands for.
type Entry = (Vec<usize>, usize);

/// Runs `entries` pushed in `order`, either as one multiplicity entry each
/// (`grouped`) or as that many separate unit flows. Returns, per entry in
/// its original position, the `(rate, bottleneck)` of each of its flows,
/// plus the run's levels.
fn run_entries<S: Scalar>(
    instance: &WaterfillInstance<S>,
    entries: &[Entry],
    order: &[usize],
    grouped: bool,
) -> (Vec<Vec<(S, usize)>>, Vec<S>) {
    let mut scratch = WaterfillScratch::new();
    scratch.begin();
    for &i in order {
        let (links, m) = &entries[i];
        if grouped {
            scratch.push_flows(links, *m);
        } else {
            for _ in 0..*m {
                scratch.push_flow(links);
            }
        }
    }
    instance.run(&mut scratch);
    let mut per_entry = vec![Vec::new(); entries.len()];
    let mut k = 0;
    for &i in order {
        let copies = if grouped { 1 } else { entries[i].1 };
        for _ in 0..copies {
            per_entry[i].push((scratch.rates()[k], scratch.bottlenecks()[k] as usize));
            k += 1;
        }
        if grouped {
            let shared = per_entry[i][0];
            per_entry[i].resize(entries[i].1, shared);
        }
    }
    (per_entry, scratch.levels().to_vec())
}

/// Asserts that `k` copies pushed separately and one entry of
/// multiplicity `k` give bit-identical rates, levels, and bottlenecks,
/// and that neither changes under the push-order permutation `order`.
fn assert_multiplicity_exact<S: Scalar>(clos: &ClosNetwork, entries: &[Entry], order: &[usize]) {
    let instance = WaterfillInstance::<S>::compile(clos.network());
    let identity: Vec<usize> = (0..entries.len()).collect();
    let separate = run_entries(&instance, entries, &identity, false);
    assert_eq!(
        run_entries(&instance, entries, &identity, true),
        separate,
        "multiplicity entries diverged from separate copies"
    );
    assert_eq!(
        run_entries(&instance, entries, order, true),
        separate,
        "permuted multiplicity entries diverged"
    );
    assert_eq!(
        run_entries(&instance, entries, order, false),
        separate,
        "permuted separate copies diverged"
    );
}

/// Random entries on `C_n`, each `(src_tor, src_host, dst_tor, dst_host,
/// middle, multiplicity, sort key)` with multiplicities up to
/// `max_multiplicity`; the sort keys define a permutation of the push
/// order.
fn multiplied_entries(
    n: usize,
    max_entries: usize,
    max_multiplicity: usize,
) -> impl Strategy<Value = Vec<(usize, usize, usize, usize, usize, usize, u64)>> {
    let entry = (
        0..2 * n,
        0..n,
        0..2 * n,
        0..n,
        0..n,
        1..=max_multiplicity,
        any::<u64>(),
    );
    prop::collection::vec(entry, 1..=max_entries)
}

/// Dense entries and a push-order permutation from raw tuples.
fn entries_and_order(
    clos: &ClosNetwork,
    raw: &[(usize, usize, usize, usize, usize, usize, u64)],
) -> (Vec<Entry>, Vec<usize>) {
    let instance = WaterfillInstance::<Rational>::compile(clos.network());
    let entries = raw
        .iter()
        .map(|&(si, sj, ti, tj, m, k, _)| {
            let flow = Flow::new(clos.source(si, sj), clos.destination(ti, tj));
            let links = clos
                .path_via(flow, m)
                .links()
                .iter()
                .filter_map(|&l| instance.dense_index(l))
                .collect();
            (links, k)
        })
        .collect();
    let mut order: Vec<usize> = (0..raw.len()).collect();
    order.sort_by_key(|&i| (raw[i].6, i));
    (entries, order)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A multiplicity-`k` entry is exactly `k` pushed copies, in both
    /// scalars, and results do not depend on push order (the churn
    /// engine's member lists are reordered by departures).
    #[test]
    fn multiplicity_equals_copies_in_any_order(raw in multiplied_entries(3, 10, 6)) {
        let clos = ClosNetwork::standard(3);
        let (entries, order) = entries_and_order(&clos, &raw);
        assert_multiplicity_exact::<Rational>(&clos, &entries, &order);
        assert_multiplicity_exact::<TotalF64>(&clos, &entries, &order);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Multiplicities in the thousands: one round's counted frozen-load
    /// adds on a link run far past the point where `TotalF64`'s
    /// `add_repeated` starts jumping over binades, and still equal the
    /// per-flow adds of separate copies, in any push order, in both
    /// scalars.
    #[test]
    fn large_multiplicities_equal_copies(raw in multiplied_entries(3, 6, 3000)) {
        let clos = ClosNetwork::standard(3);
        let (entries, order) = entries_and_order(&clos, &raw);
        assert_multiplicity_exact::<Rational>(&clos, &entries, &order);
        assert_multiplicity_exact::<TotalF64>(&clos, &entries, &order);
    }
}

/// One entry of a water-filling description, in reference form.
struct RefEntry<S> {
    /// Dense links (duplicates count double).
    links: Vec<usize>,
    /// Number of identical flows the entry stands for.
    multiplicity: usize,
    /// The entry's weight; `None` is unit weight.
    weight: Option<S>,
}

/// Rates, levels, and bottlenecks of one water-filling run.
type Fill<S> = (Vec<S>, Vec<S>, Vec<usize>);

/// Textbook progressive filling over `capacities`. Each round computes
/// every link's level afresh, takes the minimum (pass one), then freezes,
/// in link order, every unfrozen flow of every link at that level, each
/// at its weight times the level (pass two). Frozen rates then leave their
/// links' active counts and weights and join their frozen loads, one add
/// per flow, in freezing order. A run with any weighted entry divides a
/// link's residual by the summed weights of its unfrozen flows, counting a
/// multiplicity-`m` entry as `m` flows of its weight; otherwise by their
/// number.
fn reference_fill<S: Scalar>(capacities: &[S], entries: &[RefEntry<S>]) -> Fill<S> {
    let links = capacities.len();
    let weighted = entries.iter().any(|e| e.weight.is_some());
    let weight = |e: &RefEntry<S>| e.weight.unwrap_or(S::one());
    let mut count = vec![0usize; links];
    let mut active_weight = vec![S::zero(); links];
    for e in entries {
        for &d in &e.links {
            for _ in 0..e.multiplicity {
                count[d] += 1;
                if weighted {
                    active_weight[d] += weight(e);
                }
            }
        }
    }
    let mut frozen_load = vec![S::zero(); links];
    let mut frozen = vec![false; entries.len()];
    let mut rates = vec![S::zero(); entries.len()];
    let mut bottlenecks = vec![0; entries.len()];
    let mut levels = Vec::new();
    let level_of = |d: usize, count: &[usize], active_weight: &[S], frozen_load: &[S]| {
        let residual = if capacities[d] > frozen_load[d] {
            capacities[d] - frozen_load[d]
        } else {
            S::zero()
        };
        let active = if weighted {
            active_weight[d]
        } else {
            S::from_usize(count[d])
        };
        residual / active
    };
    while frozen.iter().any(|&f| !f) {
        let level = (0..links)
            .filter(|&d| count[d] > 0)
            .map(|d| level_of(d, &count, &active_weight, &frozen_load))
            .reduce(S::min)
            .expect("unfrozen flows cross a link");
        let mut newly_frozen = Vec::new();
        for d in 0..links {
            if count[d] == 0 || level_of(d, &count, &active_weight, &frozen_load) != level {
                continue;
            }
            for (i, e) in entries.iter().enumerate() {
                if !frozen[i] && e.links.contains(&d) {
                    frozen[i] = true;
                    rates[i] = if weighted { weight(e) * level } else { level };
                    bottlenecks[i] = d;
                    newly_frozen.push(i);
                }
            }
        }
        levels.push(level);
        for i in newly_frozen {
            let e = &entries[i];
            for &d in &e.links {
                for _ in 0..e.multiplicity {
                    count[d] -= 1;
                    frozen_load[d] += rates[i];
                    if weighted {
                        active_weight[d] -= weight(e);
                    }
                }
            }
        }
    }
    (rates, levels, bottlenecks)
}

/// Describes the unweighted `entries` in `scratch` (a unit one via
/// `push_flow`, any other via `push_flows`), runs the instance, and
/// returns the run's results.
fn compiled_fill<S: Scalar>(
    instance: &WaterfillInstance<S>,
    scratch: &mut WaterfillScratch<S>,
    entries: &[RefEntry<S>],
) -> Fill<S> {
    scratch.begin();
    for e in entries {
        match e.multiplicity {
            1 => scratch.push_flow(&e.links),
            m => scratch.push_flows(&e.links, m),
        }
    }
    instance.run(scratch);
    (
        scratch.rates().to_vec(),
        scratch.levels().to_vec(),
        scratch.bottlenecks().iter().map(|&d| d as usize).collect(),
    )
}

/// Raw reference entry: `(src_tor, src_host, dst_tor, dst_host, middle,
/// multiplicity, weight numerator, weight denominator)`. The unweighted
/// comparison reads the multiplicity, the weighted one the weight.
type RawEntry = (usize, usize, usize, usize, usize, usize, u64, u64);

/// Random entries on `C_n`: multiplicity 1 to `max_multiplicity`, weight
/// 1/3 to 5 over mixed denominators.
fn reference_entries(
    n: usize,
    max_entries: usize,
    max_multiplicity: usize,
) -> impl Strategy<Value = Vec<RawEntry>> {
    let entry = (
        0..2 * n,
        0..n,
        0..2 * n,
        0..n,
        0..n,
        1..=max_multiplicity,
        1..=5u64,
        1..=3u64,
    );
    prop::collection::vec(entry, 1..=max_entries)
}

/// `clos`'s network with link capacities cycled from `capacities`, in
/// halves (so zero capacities and exact ties are common).
fn capacitated(clos: &ClosNetwork, capacities: &[u64]) -> Network {
    let mut net = clos.network().clone();
    let ids: Vec<LinkId> = net.links().map(|l| l.id()).collect();
    for (&id, &halves) in ids.iter().zip(capacities.iter().cycle()) {
        let cap = Rational::new(i128::from(halves), 2);
        net.set_link_capacity(id, Capacity::finite_value(cap));
    }
    net
}

/// `raw`'s flows, each routed via its middle, on `clos`.
fn reference_routing(clos: &ClosNetwork, raw: &[RawEntry]) -> (Vec<Flow>, Routing) {
    let flows: Vec<Flow> = raw
        .iter()
        .map(|&(si, sj, ti, tj, ..)| Flow::new(clos.source(si, sj), clos.destination(ti, tj)))
        .collect();
    let routing = flows
        .iter()
        .zip(raw)
        .map(|(&flow, &(.., middle, _, _, _))| clos.path_via(flow, middle))
        .collect();
    (flows, routing)
}

/// The dense links of every path of `routing` in `instance`.
fn dense_paths<S: Scalar>(instance: &WaterfillInstance<S>, routing: &Routing) -> Vec<Vec<usize>> {
    routing
        .paths()
        .iter()
        .map(|path| {
            path.links()
                .iter()
                .filter_map(|&l| instance.dense_index(l))
                .collect()
        })
        .collect()
}

/// Asserts that the compiled run equals [`reference_fill`] bit for bit on
/// `raw`'s unweighted entries (at their multiplicities) over `clos` with
/// the given per-link capacities, run twice through one reused scratch.
fn assert_matches_reference<S: Scalar>(clos: &ClosNetwork, capacities: &[u64], raw: &[RawEntry]) {
    let instance = WaterfillInstance::<S>::compile(&capacitated(clos, capacities));
    let caps: Vec<S> = (0..instance.link_count())
        .map(|d| instance.capacity(d))
        .collect();
    let (_, routing) = reference_routing(clos, raw);
    let entries: Vec<RefEntry<S>> = dense_paths(&instance, &routing)
        .into_iter()
        .zip(raw)
        .map(|(links, &(.., m, _, _))| RefEntry {
            links,
            multiplicity: m,
            weight: None,
        })
        .collect();
    let expected = reference_fill(&caps, &entries);
    let mut scratch = WaterfillScratch::new();
    for _ in 0..2 {
        let (rates, levels, bottlenecks) = compiled_fill(&instance, &mut scratch, &entries);
        assert_eq!(rates, expected.0, "rates diverged from the reference");
        assert_eq!(levels, expected.1, "levels diverged from the reference");
        assert_eq!(
            bottlenecks, expected.2,
            "bottlenecks diverged from the reference"
        );
    }
}

/// Asserts that [`max_min_fair_weighted`] gives `raw`'s flows (weight
/// `num/den` each) exactly the rates of the weighted [`reference_fill`]
/// over `clos` with the given per-link capacities.
fn assert_weighted_matches_reference(clos: &ClosNetwork, capacities: &[u64], raw: &[RawEntry]) {
    let net = capacitated(clos, capacities);
    let instance = WaterfillInstance::<Rational>::compile(&net);
    let caps: Vec<Rational> = (0..instance.link_count())
        .map(|d| instance.capacity(d))
        .collect();
    let (flows, routing) = reference_routing(clos, raw);
    let weights: Vec<Rational> = raw
        .iter()
        .map(|&(.., num, den)| Rational::from_ratio(num, den))
        .collect();
    let entries: Vec<RefEntry<Rational>> = dense_paths(&instance, &routing)
        .into_iter()
        .zip(&weights)
        .map(|(links, &w)| RefEntry {
            links,
            multiplicity: 1,
            weight: Some(w),
        })
        .collect();
    let (ref_rates, _, _) = reference_fill(&caps, &entries);
    let alloc = max_min_fair_weighted(&net, &flows, &routing, &weights).unwrap();
    assert_eq!(
        alloc.rates(),
        ref_rates.as_slice(),
        "weighted rates diverged from the reference"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The compiled loop is textbook progressive filling: same rates,
    /// levels, and bottlenecks, bit for bit, in both scalars, with unit
    /// and multiplicity entries, on C_3 with link capacities drawn from
    /// {0, 1/2, 1, 3/2, 2} (cycled over the links).
    #[test]
    fn compiled_run_equals_reference_fill(
        raw in reference_entries(3, 12, 4),
        capacities in prop::collection::vec(0..=4u64, 1..=8),
    ) {
        let clos = ClosNetwork::standard(3);
        assert_matches_reference::<Rational>(&clos, &capacities, &raw);
        assert_matches_reference::<TotalF64>(&clos, &capacities, &raw);
    }

    /// Weighted max-min fairness on the plain water-fill (weights scaled
    /// to multiplicities) is textbook weighted progressive filling: the
    /// same rates, exactly, on random C_3 routings with weights 1/3 to 5
    /// over mixed denominators and capacities from {0, 1/2, 1, 3/2, 2}.
    #[test]
    fn weighted_wrapper_equals_reference_fill(
        raw in reference_entries(3, 12, 1),
        capacities in prop::collection::vec(0..=4u64, 1..=8),
    ) {
        let clos = ClosNetwork::standard(3);
        assert_weighted_matches_reference(&clos, &capacities, &raw);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The reference comparison with multiplicities up to 3000: the
    /// compiled run's counted adds, committed once per link and round,
    /// equal the reference's one add per flow bit for bit, in both
    /// scalars.
    #[test]
    fn large_multiplicities_equal_reference_fill(
        raw in reference_entries(3, 8, 3000),
        capacities in prop::collection::vec(0..=4u64, 1..=8),
    ) {
        let clos = ClosNetwork::standard(3);
        assert_matches_reference::<Rational>(&clos, &capacities, &raw);
        assert_matches_reference::<TotalF64>(&clos, &capacities, &raw);
    }
}

/// One step applied to a maintained description: `(kind, index,
/// multiplicity)`. Kind 0 pushes `raw[index]`'s links as a new entry, kind
/// 1 sets an existing entry's multiplicity (zero removes it, and a
/// removed entry given flows again joins its links' member lists at the
/// end), kind 2 runs the description and checks it.
type Step = (u8, usize, usize);

/// Runs the maintained description in `scratch` (each entry's links and
/// current multiplicity are in `entries`) and asserts that its rates,
/// bottlenecks, levels, and per-link flow counts equal those of a fresh
/// `begin` + `push_flows` description of its live entries, pushed in the
/// order of `keys`, bit for bit.
fn assert_maintained_equals_fresh<S: Scalar>(
    instance: &WaterfillInstance<S>,
    scratch: &mut WaterfillScratch<S>,
    entries: &[Entry],
    keys: &[u64],
) {
    instance.run(scratch);
    let mut live: Vec<usize> = (0..entries.len()).filter(|&i| entries[i].1 > 0).collect();
    live.sort_by_key(|&i| (keys[i % keys.len()], i));
    let mut fresh = WaterfillScratch::new();
    fresh.begin();
    for &i in &live {
        fresh.push_flows(&entries[i].0, entries[i].1);
    }
    instance.run(&mut fresh);
    assert_eq!(scratch.live_entries(), live.len(), "live entry count");
    for (j, &i) in live.iter().enumerate() {
        assert_eq!(scratch.rates()[i], fresh.rates()[j], "rate of entry {i}");
        assert_eq!(
            scratch.bottlenecks()[i],
            fresh.bottlenecks()[j],
            "bottleneck of entry {i}"
        );
    }
    assert_eq!(scratch.levels(), fresh.levels(), "levels diverged");
    for d in 0..instance.link_count() {
        assert_eq!(scratch.link_flows(d), fresh.link_flows(d), "flows on {d}");
    }
}

/// Applies `steps` to one scratch (starting from `raw`'s entries pushed
/// at their multiplicities), checking at every run step and at the end.
fn assert_maintained_description<S: Scalar>(
    clos: &ClosNetwork,
    raw: &[(usize, usize, usize, usize, usize, usize, u64)],
    steps: &[Step],
) {
    let instance = WaterfillInstance::<S>::compile(clos.network());
    let (pool, _) = entries_and_order(clos, raw);
    let keys: Vec<u64> = raw.iter().map(|r| r.6).collect();
    let mut entries: Vec<Entry> = Vec::new();
    let mut scratch = WaterfillScratch::new();
    scratch.begin();
    for (links, m) in &pool {
        scratch.push_flows(links, *m);
        entries.push((links.clone(), *m));
    }
    for &(kind, index, m) in steps {
        match kind {
            0 => {
                let links = &pool[index % pool.len()].0;
                scratch.push_flows(links, m);
                entries.push((links.clone(), m));
            }
            1 => {
                let i = index % entries.len();
                scratch.set_multiplicity(i, m);
                assert_eq!(scratch.multiplicity(i), m);
                entries[i].1 = m;
            }
            _ => assert_maintained_equals_fresh(&instance, &mut scratch, &entries, &keys),
        }
    }
    assert_maintained_equals_fresh(&instance, &mut scratch, &entries, &keys);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A description kept current through pushes, removals, re-inserts,
    /// and multiplicity changes (0↔1 crossings included; removals reorder
    /// the member lists) runs exactly like a fresh description of the
    /// same live entries in any push order, in both scalars, also when
    /// the scratch runs between steps.
    #[test]
    fn maintained_description_equals_fresh_push(
        raw in multiplied_entries(3, 8, 4),
        steps in prop::collection::vec((0..3u8, any::<usize>(), 0..=3usize), 0..40),
    ) {
        let clos = ClosNetwork::standard(3);
        assert_maintained_description::<Rational>(&clos, &raw, &steps);
        assert_maintained_description::<TotalF64>(&clos, &raw, &steps);
    }
}

/// A network for replay tests, [`capacitated`] from `capacities`, and a
/// pool of entries on it. Each raw entry is `(src_tor,
/// src_host, dst_tor, dst_host, middle, repeat)`; `repeat` makes the
/// entry cross its first link a second time.
fn replay_pool<S: Scalar>(
    clos: &ClosNetwork,
    capacities: &[u64],
    raw: &[(usize, usize, usize, usize, usize, bool)],
) -> (WaterfillInstance<S>, Vec<Vec<usize>>) {
    let instance = WaterfillInstance::<S>::compile(&capacitated(clos, capacities));
    let pool = raw
        .iter()
        .map(|&(si, sj, ti, tj, middle, repeat)| {
            let flow = Flow::new(clos.source(si, sj), clos.destination(ti, tj));
            let mut links: Vec<usize> = clos
                .path_via(flow, middle)
                .links()
                .iter()
                .filter_map(|&l| instance.dense_index(l))
                .collect();
            if repeat {
                links.push(links[0]);
            }
            links
        })
        .collect();
    (instance, pool)
}

/// Runs the edited-in-place description in `scratch` (entry `i` crosses
/// `pool[i]` at multiplicity `counts[i]`) and asserts its rates,
/// bottlenecks, and levels equal a fresh scratch's over the live entries,
/// bit for bit. Returns the rounds the run replayed.
fn assert_resumed_equals_fresh<S: Scalar>(
    instance: &WaterfillInstance<S>,
    scratch: &mut WaterfillScratch<S>,
    pool: &[Vec<usize>],
    counts: &[usize],
) -> usize {
    instance.run(scratch);
    let mut fresh = WaterfillScratch::new();
    fresh.begin();
    let live: Vec<usize> = (0..pool.len()).filter(|&i| counts[i] > 0).collect();
    for &i in &live {
        fresh.push_flows(&pool[i], counts[i]);
    }
    instance.run(&mut fresh);
    for (j, &i) in live.iter().enumerate() {
        assert_eq!(scratch.rates()[i], fresh.rates()[j], "rate of entry {i}");
        assert_eq!(
            scratch.bottlenecks()[i],
            fresh.bottlenecks()[j],
            "bottleneck of entry {i}"
        );
    }
    assert_eq!(scratch.levels(), fresh.levels(), "levels diverged");
    assert!(scratch.replayed_entries() <= live.len());
    assert!(scratch.replayed_flows() <= counts.iter().sum::<usize>());
    scratch.replayed_rounds()
}

/// Describes `pool` without flows, then applies each batch of `(entry,
/// multiplicity)` edits through `set_multiplicity` and runs after every
/// batch, checking each run against a fresh one. Returns the rounds
/// replayed over all runs.
fn assert_edit_sequence<S: Scalar>(
    clos: &ClosNetwork,
    capacities: &[u64],
    raw: &[(usize, usize, usize, usize, usize, bool)],
    batches: &[Vec<(usize, usize)>],
) -> usize {
    let (instance, pool) = replay_pool::<S>(clos, capacities, raw);
    let mut scratch = WaterfillScratch::new();
    scratch.begin();
    for links in &pool {
        scratch.push_flows(links, 0);
    }
    let mut counts = vec![0; pool.len()];
    let mut replayed = 0;
    for batch in batches {
        for &(entry, m) in batch {
            let i = entry % pool.len();
            scratch.set_multiplicity(i, m);
            counts[i] = m;
        }
        replayed += assert_resumed_equals_fresh(&instance, &mut scratch, &pool, &counts);
    }
    replayed
}

/// Raw replay-pool entries on `C_2`, one in five crossing a link twice.
fn replay_entries() -> impl Strategy<Value = Vec<(usize, usize, usize, usize, usize, bool)>> {
    let entry = (
        0..4usize,
        0..2usize,
        0..4usize,
        0..2usize,
        0..2usize,
        0..5u8,
    );
    let entries = prop::collection::vec(entry, 6..=16);
    entries.prop_map(|raw| {
        raw.into_iter()
            .map(|(si, sj, ti, tj, middle, r)| (si, sj, ti, tj, middle, r == 0))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A description edited in place between runs (entries going 0 → m →
    /// 0, the same entry or link edited repeatedly, entries crossing a
    /// link twice, zero capacities, exact ties) resumes each run from the
    /// previous one's log, and every run equals a fresh scratch's rates,
    /// bottlenecks, and levels, bit for bit, in both scalars.
    ///
    /// Each run's edits are few, so most runs replay rounds; capacities
    /// are zero one time in ten.
    #[test]
    fn resumed_runs_equal_fresh_runs(
        raw in replay_entries(),
        capacities in prop::collection::vec(
            (0..=9u64).prop_map(|x| if x == 0 { 0 } else { 1 + x % 4 }),
            1..=8,
        ),
        batches in prop::collection::vec(
            prop::collection::vec((any::<usize>(), 0..=3usize), 1..=2),
            8..=48,
        ),
    ) {
        let clos = ClosNetwork::standard(2);
        assert_edit_sequence::<Rational>(&clos, &capacities, &raw, &batches);
        assert_edit_sequence::<TotalF64>(&clos, &capacities, &raw, &batches);
    }
}

/// Single-entry edits on a loaded description replay most rounds: the
/// resumption is exercised, not merely harmless.
#[test]
fn single_edits_replay_rounds() {
    let clos = ClosNetwork::standard(3);
    let raw: Vec<_> = (0..18)
        .map(|k| (k % 6, k % 3, (k * 5 + 1) % 6, (k + 1) % 3, k % 3, false))
        .collect();
    let mut batches: Vec<Vec<(usize, usize)>> = (0..18).map(|k| vec![(k, 1 + k % 3)]).collect();
    batches.extend((0..18).map(|k| vec![(17 - k, k % 2)]));
    let replayed = assert_edit_sequence::<Rational>(&clos, &[2, 3, 4], &raw, &batches);
    assert!(replayed > 0, "no round was replayed");
    let replayed = assert_edit_sequence::<TotalF64>(&clos, &[2, 3, 4], &raw, &batches);
    assert!(replayed > 0, "no round was replayed");
}

/// A run never resumes against another instance, even a recompile of the
/// same network, nor after `begin`; it resumes again once it has run
/// against the new instance.
#[test]
fn resumes_only_the_same_instance_and_description() {
    let clos = ClosNetwork::standard(3);
    let raw: Vec<_> = (0..9)
        .map(|k| (k % 6, k % 3, (k + 2) % 6, k % 3, k % 3, false))
        .collect();
    let (first, pool) = replay_pool::<Rational>(&clos, &[2], &raw);
    let (recompiled, _) = replay_pool::<Rational>(&clos, &[2], &raw);
    let mut counts = vec![1; pool.len()];
    let mut scratch = WaterfillScratch::new();
    scratch.begin();
    for links in &pool {
        scratch.push_flows(links, 0);
    }
    for i in 0..pool.len() {
        scratch.set_multiplicity(i, 1);
    }
    assert_eq!(scratch.dirty_links().len(), {
        let mut links: Vec<usize> = pool.concat();
        links.sort_unstable();
        links.dedup();
        links.len()
    });
    assert_eq!(
        assert_resumed_equals_fresh(&first, &mut scratch, &pool, &counts),
        0
    );
    assert!(scratch.dirty_links().is_empty(), "a run takes the edits in");

    // An unchanged description replays every round against its instance.
    let rounds = scratch.levels().len();
    assert_eq!(
        assert_resumed_equals_fresh(&first, &mut scratch, &pool, &counts),
        rounds
    );
    assert_eq!(scratch.replayed_entries(), pool.len());
    assert_eq!(scratch.replayed_flows(), pool.len());

    // The recompiled instance is not the one the log was written for.
    counts[8] = 2;
    scratch.set_multiplicity(8, 2);
    assert_eq!(
        assert_resumed_equals_fresh(&recompiled, &mut scratch, &pool, &counts),
        0
    );
    assert_eq!(scratch.replayed_entries(), 0);
    assert_eq!(
        assert_resumed_equals_fresh(&recompiled, &mut scratch, &pool, &counts),
        scratch.levels().len()
    );

    // `begin` starts a description that is not edited in place: no dirty
    // links, no resumption.
    scratch.begin();
    for links in &pool {
        scratch.push_flow(links);
    }
    assert!(scratch.dirty_links().is_empty());
    first.run(&mut scratch);
    first.run(&mut scratch);
    assert_eq!(scratch.replayed_rounds(), 0);
}
