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

use clos_fairness::{max_min_fair_traced, WaterfillInstance, WaterfillScratch};
use clos_net::{Capacity, ClosNetwork, Flow, LinkId, Routing};
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
            .map(|&d| instance.link_id(d))
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

/// Runs `entries` pushed in `order`, either as one weighted entry each
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
            per_entry[i].push((scratch.rates()[k], scratch.bottlenecks()[k]));
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
fn weighted_entries(
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
    fn multiplicity_equals_copies_in_any_order(raw in weighted_entries(3, 10, 6)) {
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
    fn large_multiplicities_equal_copies(raw in weighted_entries(3, 6, 3000)) {
        let clos = ClosNetwork::standard(3);
        let (entries, order) = entries_and_order(&clos, &raw);
        assert_multiplicity_exact::<Rational>(&clos, &entries, &order);
        assert_multiplicity_exact::<TotalF64>(&clos, &entries, &order);
    }
}

/// Runs `entries` in order through one scratch, describing entry `i`,
/// `(links, k)`, with `push(scratch, i, links, k)`. Returns per-entry
/// `(rate, bottleneck)` pairs in push order, plus the run's levels.
fn run_weighted<S: Scalar>(
    instance: &WaterfillInstance<S>,
    entries: &[Entry],
    push: impl Fn(&mut WaterfillScratch<S>, usize, &[usize], usize),
) -> (Vec<(S, usize)>, Vec<S>) {
    let mut scratch = WaterfillScratch::new();
    scratch.begin();
    for (i, (links, k)) in entries.iter().enumerate() {
        push(&mut scratch, i, links, *k);
    }
    instance.run(&mut scratch);
    let results = scratch
        .rates()
        .iter()
        .copied()
        .zip(scratch.bottlenecks().iter().copied())
        .collect();
    (results, scratch.levels().to_vec())
}

/// Asserts that unit-weight entries reproduce `push_flow` bit for bit.
fn assert_unit_weights_exact<S: Scalar>(clos: &ClosNetwork, entries: &[Entry]) {
    let instance = WaterfillInstance::<S>::compile(clos.network());
    let plain = run_weighted(&instance, entries, |s, _, links, _| s.push_flow(links));
    let weighted = run_weighted(&instance, entries, |s, _, links, _| {
        s.push_weighted_flow(links, S::one());
    });
    assert_eq!(weighted, plain, "unit-weight entries diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Weight-one entries are plain entries: rates, levels, and
    /// bottlenecks are bit-identical in both scalars.
    #[test]
    fn unit_weights_equal_plain_entries(raw in weighted_entries(3, 10, 6)) {
        let clos = ClosNetwork::standard(3);
        let (entries, _) = entries_and_order(&clos, &raw);
        assert_unit_weights_exact::<Rational>(&clos, &entries);
        assert_unit_weights_exact::<TotalF64>(&clos, &entries);
    }

    /// In exact arithmetic an entry of integer weight `k` fills like `k`
    /// flows squeezed into one: identical levels and bottlenecks, and
    /// exactly `k` times the rate of a multiplicity-`k` entry (whose rate
    /// is per flow) — also when both kinds share one description.
    #[test]
    fn integer_weight_is_multiplicity_times_rate(raw in weighted_entries(3, 10, 6)) {
        let clos = ClosNetwork::standard(3);
        let (entries, _) = entries_and_order(&clos, &raw);
        let instance = WaterfillInstance::<Rational>::compile(clos.network());
        let weight = |k: usize| Rational::from_integer(k as i128);
        let (per_flow, multiplied_levels) = run_weighted(&instance, &entries, |s, _, links, k| {
            s.push_flows(links, k);
        });
        let (weighted, weighted_levels) = run_weighted(&instance, &entries, |s, _, links, k| {
            s.push_weighted_flow(links, weight(k));
        });
        prop_assert_eq!(&weighted_levels, &multiplied_levels);
        for (((rate, bottleneck), (flow_rate, flow_bottleneck)), (_, k)) in
            weighted.iter().zip(&per_flow).zip(&entries)
        {
            prop_assert_eq!(*rate, *flow_rate * weight(*k));
            prop_assert_eq!(bottleneck, flow_bottleneck);
        }
        // Alternate the two kinds within one description.
        let (mixed, mixed_levels) = run_weighted(&instance, &entries, |s, i, links, k| {
            if i % 2 == 1 {
                s.push_weighted_flow(links, weight(k));
            } else {
                s.push_flows(links, k);
            }
        });
        prop_assert_eq!(&mixed_levels, &multiplied_levels);
        for (i, entry) in mixed.iter().enumerate() {
            let expected = if i % 2 == 1 { weighted[i] } else { per_flow[i] };
            prop_assert_eq!(*entry, expected);
        }
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

/// Describes `entries` in `scratch` (a weighted entry via
/// `push_weighted_flow`, a unit one via `push_flow`, any other via
/// `push_flows`), runs the instance, and returns the run's results.
fn compiled_fill<S: Scalar>(
    instance: &WaterfillInstance<S>,
    scratch: &mut WaterfillScratch<S>,
    entries: &[RefEntry<S>],
) -> Fill<S> {
    scratch.begin();
    for e in entries {
        match (e.weight, e.multiplicity) {
            (Some(w), _) => scratch.push_weighted_flow(&e.links, w),
            (None, 1) => scratch.push_flow(&e.links),
            (None, m) => scratch.push_flows(&e.links, m),
        }
    }
    instance.run(scratch);
    (
        scratch.rates().to_vec(),
        scratch.levels().to_vec(),
        scratch.bottlenecks().to_vec(),
    )
}

/// Raw reference entry: `(src_tor, src_host, dst_tor, dst_host, middle,
/// multiplicity, weight numerator, weight denominator)`. A zero numerator
/// makes an unweighted entry.
type RawEntry = (usize, usize, usize, usize, usize, usize, u64, u64);

/// Random entries on `C_n`; five in eight weighted (weight 1/3 to 5),
/// the rest unweighted with multiplicity 1 to `max_multiplicity`.
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
        (0..=7u64).prop_map(|x| x.saturating_sub(2)),
        1..=3u64,
    );
    prop::collection::vec(entry, 1..=max_entries)
}

/// Asserts that the compiled run equals [`reference_fill`] bit for bit on
/// `raw` over `clos` with the given per-link capacities, for the entries
/// as given and again with every weight dropped (an unweighted run), both
/// through one reused scratch.
fn assert_matches_reference<S: Scalar>(clos: &ClosNetwork, capacities: &[u64], raw: &[RawEntry]) {
    let mut net = clos.network().clone();
    let ids: Vec<LinkId> = net.links().map(|l| l.id()).collect();
    for (&id, &halves) in ids.iter().zip(capacities.iter().cycle()) {
        let cap = Rational::new(i128::from(halves), 2);
        net.set_link_capacity(id, Capacity::finite_value(cap));
    }
    let instance = WaterfillInstance::<S>::compile(&net);
    let caps: Vec<S> = (0..instance.link_count())
        .map(|d| instance.capacity(d))
        .collect();
    let entries: Vec<RefEntry<S>> = raw
        .iter()
        .map(|&(si, sj, ti, tj, middle, m, num, den)| {
            let flow = Flow::new(clos.source(si, sj), clos.destination(ti, tj));
            let links = clos
                .path_via(flow, middle)
                .links()
                .iter()
                .filter_map(|&l| instance.dense_index(l))
                .collect();
            let weight = (num > 0).then(|| S::from_ratio(num, den));
            RefEntry {
                links,
                multiplicity: if weight.is_some() { 1 } else { m },
                weight,
            }
        })
        .collect();
    let unweighted: Vec<RefEntry<S>> = raw
        .iter()
        .zip(&entries)
        .map(|(&(.., m, _, _), e)| RefEntry {
            links: e.links.clone(),
            multiplicity: m,
            weight: None,
        })
        .collect();
    let mut scratch = WaterfillScratch::new();
    for description in [&entries, &unweighted] {
        let (rates, levels, bottlenecks) = compiled_fill(&instance, &mut scratch, description);
        let (ref_rates, ref_levels, ref_bottlenecks) = reference_fill(&caps, description);
        assert_eq!(rates, ref_rates, "rates diverged from the reference");
        assert_eq!(levels, ref_levels, "levels diverged from the reference");
        assert_eq!(
            bottlenecks, ref_bottlenecks,
            "bottlenecks diverged from the reference"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The compiled loop is textbook progressive filling: same rates,
    /// levels, and bottlenecks, bit for bit, in both scalars, with unit,
    /// multiplicity, and weighted entries, on C_3 with link capacities
    /// drawn from {0, 1/2, 1, 3/2, 2} (cycled over the links).
    #[test]
    fn compiled_run_equals_reference_fill(
        raw in reference_entries(3, 12, 4),
        capacities in prop::collection::vec(0..=4u64, 1..=8),
    ) {
        let clos = ClosNetwork::standard(3);
        assert_matches_reference::<Rational>(&clos, &capacities, &raw);
        assert_matches_reference::<TotalF64>(&clos, &capacities, &raw);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The reference comparison with multiplicities up to 3000: the
    /// compiled run's counted adds, committed once per link and round,
    /// equal the reference's one add per flow bit for bit, in weighted
    /// and unweighted runs and in both scalars.
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
        raw in weighted_entries(3, 8, 4),
        steps in prop::collection::vec((0..3u8, any::<usize>(), 0..=3usize), 0..40),
    ) {
        let clos = ClosNetwork::standard(3);
        assert_maintained_description::<Rational>(&clos, &raw, &steps);
        assert_maintained_description::<TotalF64>(&clos, &raw, &steps);
    }
}
