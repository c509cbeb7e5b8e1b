//! Property tests: the incremental engine is bit-identical to a fresh
//! full water-filling run over random event traces, in both scalar
//! modes, at every batch size.

use clos_churn::{
    ChurnConfig, ChurnEngine, FlowEvent, FlowKey, OnlinePolicy, Pattern, SizeDist, TraceConfig,
    TraceGenerator,
};
use clos_fairness::{WaterfillInstance, WaterfillScratch};
use clos_net::{ClosNetwork, Flow};
use clos_rational::{Rational, Scalar, TotalF64};
use proptest::prelude::*;

/// Recomputes the live allocation from scratch — fresh instance, fresh
/// scratch, every live flow pushed in the engine's slot order — and
/// asserts the engine's cached rates, bottlenecks, and levels match bit
/// for bit.
fn assert_matches_fresh_run<S: Scalar + std::fmt::Debug>(engine: &ChurnEngine<S>) {
    let clos = engine.fabric();
    let instance = WaterfillInstance::<S>::compile(clos.network());
    let mut scratch = WaterfillScratch::new();
    scratch.begin();
    let live: Vec<(FlowKey, S)> = engine.live_flows().collect();
    for &(key, _) in &live {
        let flow = engine.flow(key).expect("live flow has endpoints");
        let middle = engine.class_of(key).expect("live flow has a placement");
        let links: Vec<usize> = clos
            .links_via(flow, middle)
            .iter()
            .filter_map(|&l| instance.dense_index(l))
            .collect();
        assert_eq!(links.len(), 4, "every Clos link is finite");
        scratch.push_flow(&links);
    }
    instance.run(&mut scratch);
    for (i, &(key, rate)) in live.iter().enumerate() {
        assert_eq!(rate, scratch.rates()[i], "rate of key {key} diverged");
        assert_eq!(
            engine.bottleneck(key),
            Some(instance.link_id(scratch.bottlenecks()[i] as usize)),
            "bottleneck of key {key} diverged"
        );
    }
    // A fresh run's raw level sequence can contain floating-point
    // duplicate rounds (see `ChurnEngine::levels`); the sorted
    // deduplicated sequences must agree bit for bit in every mode.
    let mut fresh_levels = scratch.levels().to_vec();
    fresh_levels.sort_unstable();
    fresh_levels.dedup();
    assert_eq!(engine.levels(), fresh_levels, "levels diverged");
}

fn policy(choice: u8, seed: u64) -> OnlinePolicy {
    match choice % 3 {
        0 => OnlinePolicy::ecmp(seed),
        1 => OnlinePolicy::greedy(),
        _ => OnlinePolicy::first_fit(),
    }
}

fn trace(n: usize, events: usize, seed: u64) -> (ClosNetwork, TraceConfig) {
    let clos = ClosNetwork::standard(n);
    let cfg = TraceConfig {
        arrival_rate_per_sec: 1_000_000,
        lifetime: SizeDist::Exponential { mean_ns: 30_000 },
        pattern: Pattern::Uniform,
        events,
        seed,
    };
    (clos, cfg)
}

fn run_trace<S: Scalar + std::fmt::Debug>(
    n: usize,
    events: usize,
    seed: u64,
    batch: usize,
    choice: u8,
    verify: bool,
) -> ChurnEngine<S> {
    let (clos, cfg) = trace(n, events, seed);
    let mut engine = ChurnEngine::<S>::new(
        clos.clone(),
        policy(choice, seed),
        ChurnConfig { batch, verify },
    );
    for ev in TraceGenerator::new(&clos, &cfg) {
        engine.apply(ev.event);
    }
    engine.flush();
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact rationals: incremental == fresh full run, and the engine's
    /// own full-recompute oracle (`verify`) agrees at every epoch.
    #[test]
    fn incremental_matches_oracle_rational(
        n in 1usize..4,
        events in 1usize..400,
        seed in 0u64..1_000_000,
        batch in 1usize..64,
        choice in 0u8..3,
    ) {
        let engine = run_trace::<Rational>(n, events, seed, batch, choice, true);
        assert_matches_fresh_run(&engine);
        prop_assert_eq!(engine.stats().events, events as u64);
    }

    /// Floating point (`TotalF64`): the same guarantee, bit for bit.
    #[test]
    fn incremental_matches_oracle_total_f64(
        n in 1usize..4,
        events in 1usize..400,
        seed in 0u64..1_000_000,
        batch in 1usize..64,
        choice in 0u8..3,
    ) {
        let engine = run_trace::<TotalF64>(n, events, seed, batch, choice, true);
        assert_matches_fresh_run(&engine);
    }

    /// Two engines fed the same trace with different batch sizes agree
    /// byte for byte (rates, levels, checksum) at every common flushed
    /// checkpoint.
    #[test]
    fn batch_size_does_not_change_results(
        n in 1usize..4,
        events in 1usize..300,
        seed in 0u64..1_000_000,
        batch_a in 1usize..16,
        batch_b in 16usize..256,
        choice in 0u8..3,
    ) {
        let (clos, cfg) = trace(n, events, seed);
        let mut a = ChurnEngine::<TotalF64>::new(
            clos.clone(),
            policy(choice, seed),
            ChurnConfig { batch: batch_a, verify: false },
        );
        let mut b = ChurnEngine::<TotalF64>::new(
            clos.clone(),
            policy(choice, seed),
            ChurnConfig { batch: batch_b, verify: false },
        );
        for (i, ev) in TraceGenerator::new(&clos, &cfg).enumerate() {
            a.apply(ev.event);
            b.apply(ev.event);
            if (i + 1) % 25 == 0 {
                a.flush();
                b.flush();
                prop_assert_eq!(a.checksum(), b.checksum());
            }
        }
        a.flush();
        b.flush();
        prop_assert_eq!(a.checksum(), b.checksum());
        prop_assert_eq!(a.levels(), b.levels());
        let rates_a: Vec<(FlowKey, TotalF64)> = a.live_flows().collect();
        let rates_b: Vec<(FlowKey, TotalF64)> = b.live_flows().collect();
        prop_assert_eq!(rates_a, rates_b);
    }
}

/// Drives a `C_2` engine with `verify` on through a crowded trace: 240
/// flows between one host pair, split by first fit over the two middles,
/// beside 60 flows that share their ToR links, then departures. Each
/// path carries over 64 live flows, so an epoch's counted frozen-load
/// adds on a link are in the hundreds and `TotalF64`'s `add_repeated`
/// jumps over binades; the per-flow oracle must agree at every epoch.
fn crowded_path<S: Scalar + std::fmt::Debug>() {
    let clos = ClosNetwork::standard(2);
    let mut engine = ChurnEngine::<S>::new(
        clos.clone(),
        OnlinePolicy::first_fit(),
        ChurnConfig {
            batch: 32,
            verify: true,
        },
    );
    let hot = Flow::new(clos.source(0, 0), clos.destination(2, 0));
    let mut key: FlowKey = 0;
    for _ in 0..240 {
        engine.apply(FlowEvent::Arrive { key, flow: hot });
        key += 1;
    }
    for i in 0..60 {
        let flow = Flow::new(clos.source(i % 2, 1), clos.destination(2 + i % 2, 1));
        engine.apply(FlowEvent::Arrive { key, flow });
        key += 1;
    }
    engine.flush();
    let mut per_class = [0usize; 2];
    for k in 0..240 {
        per_class[engine.class_of(k).expect("hot flow is live")] += 1;
    }
    assert!(per_class.iter().all(|&c| c >= 64), "{per_class:?}");
    assert_matches_fresh_run(&engine);
    for k in (0..key).step_by(3) {
        engine.apply(FlowEvent::Depart { key: k });
    }
    engine.flush();
    assert_matches_fresh_run(&engine);
    assert_eq!(engine.live(), 200);
}

/// A path with far more than 64 live flows, in both scalars.
#[test]
fn crowded_path_matches_oracle_in_both_scalars() {
    crowded_path::<Rational>();
    crowded_path::<TotalF64>();
}
