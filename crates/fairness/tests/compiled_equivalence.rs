//! Equivalence of the compiled evaluation pipeline and the allocating
//! wrapper.
//!
//! The branch-and-bound engine evaluates routings through a
//! [`WaterfillInstance`] compiled once plus a [`WaterfillScratch`] reused
//! across evaluations; `max_min_fair_traced` compiles afresh per call.
//! These tests pin the refactoring contract: for any instance and any
//! assignment sequence, the compiled-scratch path produces *exactly* the
//! same rates, water-filling levels, and bottleneck links as a fresh
//! allocating call — in exact `Rational` arithmetic and in `TotalF64`,
//! where "equal" means bit-equal, not approximately equal.

use clos_fairness::{max_min_fair_traced, WaterfillInstance, WaterfillScratch};
use clos_net::{ClosNetwork, Flow, LinkId, Routing};
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
/// middle, multiplicity, sort key)`; the sort keys define a permutation
/// of the push order.
fn weighted_entries(
    n: usize,
    max_entries: usize,
) -> impl Strategy<Value = Vec<(usize, usize, usize, usize, usize, usize, u64)>> {
    let entry = (
        0..2 * n,
        0..n,
        0..2 * n,
        0..n,
        0..n,
        1..=6usize,
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
    /// engine's live-path list is unordered).
    #[test]
    fn multiplicity_equals_copies_in_any_order(raw in weighted_entries(3, 10)) {
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
    fn unit_weights_equal_plain_entries(raw in weighted_entries(3, 10)) {
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
    fn integer_weight_is_multiplicity_times_rate(raw in weighted_entries(3, 10)) {
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
