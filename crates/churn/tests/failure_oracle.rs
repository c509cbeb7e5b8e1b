//! Property tests: the churn engine stays bit-identical to a fresh
//! full water-filling run when flow churn *races failure overlays* —
//! departures and arrivals landing in the same batch as a link death
//! exercise path multiplicities changing on zero-capacity links.

use clos_churn::{
    ChurnConfig, ChurnEngine, FlowEvent, FlowKey, LocalReroute, OnlinePolicy, Pattern, SizeDist,
    TraceConfig, TraceGenerator,
};
use clos_fairness::{WaterfillInstance, WaterfillScratch};
use clos_net::{Capacity, CapacityMap, ClosNetwork, FailureSchedule, Flow};
use clos_rational::{Rational, Scalar, TotalF64};
use proptest::prelude::*;

/// Recomputes the live allocation from scratch over the engine's
/// *current* (failure-degraded) topology and asserts the cached rates,
/// bottlenecks, and levels match bit for bit.
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
        assert_eq!(links.len(), 4, "every Clos link stays finite when dead");
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

/// Runs a churn trace with a failure schedule interleaved every
/// `failure_every` events (the overlay lands mid-batch, so departures
/// and arrivals race it inside one epoch), optionally sweeping the
/// local fast-reroute policy after each overlay. The engine's own
/// full-recompute oracle (`verify: true`) checks every epoch.
fn run_race<S: Scalar + std::fmt::Debug>(
    n: usize,
    events: usize,
    seed: u64,
    batch: usize,
    choice: u8,
    failure_every: usize,
    reroute: bool,
) -> ChurnEngine<S> {
    let clos = ClosNetwork::standard(n);
    let cfg = TraceConfig {
        arrival_rate_per_sec: 1_000_000,
        lifetime: SizeDist::Exponential { mean_ns: 30_000 },
        pattern: Pattern::Uniform,
        events,
        seed,
    };
    let schedule = FailureSchedule::random(&clos, seed ^ 0xfa11, events / failure_every + 1);
    let mut engine = ChurnEngine::<S>::new(
        clos.clone(),
        policy(choice, seed),
        ChurnConfig {
            batch,
            verify: true,
        },
    );
    let mut reroute_policy = LocalReroute::new(seed ^ 0x5eed);
    let mut failures = 0usize;
    for (i, ev) in TraceGenerator::new(&clos, &cfg).enumerate() {
        engine.apply(ev.event);
        if (i + 1) % failure_every == 0 {
            failures += 1;
            // Cumulative overlay: each step re-applies the prefix, so
            // already-applied links are no-ops and only the new event's
            // links count as changed.
            engine.apply_failure(&schedule.overlay_at(&clos, failures));
            if reroute {
                engine.reroute_failed(&mut reroute_policy);
            }
        }
    }
    engine.flush();
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact rationals: departures racing failures inside one batch
    /// keep the incremental state bit-identical to a fresh run.
    #[test]
    fn failure_race_matches_oracle_rational(
        n in 2usize..4,
        events in 50usize..300,
        seed in 0u64..1_000_000,
        batch in 1usize..48,
        choice in 0u8..3,
        failure_every in 10usize..40,
        reroute in any::<bool>(),
    ) {
        let engine = run_race::<Rational>(
            n, events, seed, batch, choice, failure_every, reroute);
        assert_matches_fresh_run(&engine);
        prop_assert!(engine.stats().failures > 0);
    }

    /// Floating point (`TotalF64`): the same guarantee, bit for bit.
    #[test]
    fn failure_race_matches_oracle_total_f64(
        n in 2usize..4,
        events in 50usize..300,
        seed in 0u64..1_000_000,
        batch in 1usize..48,
        choice in 0u8..3,
        failure_every in 10usize..40,
        reroute in any::<bool>(),
    ) {
        let engine = run_race::<TotalF64>(
            n, events, seed, batch, choice, failure_every, reroute);
        assert_matches_fresh_run(&engine);
    }
}

/// A departure in the same batch as the death of its own links: a
/// path crossing a zero-capacity link loses a flow, then the epoch
/// recomputes under the new capacities. Pinned deterministically (no
/// proptest shrink noise).
#[test]
fn departure_races_middle_death_in_one_batch() {
    let clos = ClosNetwork::standard(3);
    let mut engine = ChurnEngine::<Rational>::new(
        clos.clone(),
        OnlinePolicy::first_fit(),
        ChurnConfig {
            batch: 1024,
            verify: true,
        },
    );
    // Three flows on one ToR pair spread over middles 0, 1, 2 by
    // first fit; two more share middle 0 from another pair.
    for (key, (st, dt)) in [
        (0, (0, 1)),
        (1, (0, 1)),
        (2, (0, 1)),
        (3, (2, 3)),
        (4, (2, 3)),
    ] {
        engine.apply(FlowEvent::Arrive {
            key,
            flow: Flow::new(clos.source(st, 0), clos.destination(dt, 0)),
        });
    }
    engine.flush();
    assert!(engine.live_flows().all(|(_, r)| r.is_positive()));

    // Same batch: middle 0 dies, the flow routed through it departs,
    // and a new flow arrives and is placed while the fabric is down.
    let schedule = FailureSchedule::new(vec![clos_net::FailureEvent::RemoveMiddle { middle: 0 }]);
    engine.apply_failure(&schedule.overlay_at(&clos, 1));
    engine.apply(FlowEvent::Depart { key: 0 });
    engine.apply(FlowEvent::Arrive {
        key: 5,
        flow: Flow::new(clos.source(4, 0), clos.destination(5, 0)),
    });
    engine.flush();

    // Survivors routed through the dead middle are starved...
    let starved: Vec<FlowKey> = engine
        .live_flows()
        .filter(|&(_, r)| r.is_zero())
        .map(|(k, _)| k)
        .collect();
    for key in &starved {
        assert_eq!(engine.class_of(*key), Some(0), "only middle-0 flows starve");
    }
    assert!(!starved.is_empty(), "first fit placed flows on middle 0");

    // ...until the local fast reroute moves them to surviving middles.
    let outcome = engine.reroute_failed(&mut LocalReroute::new(9));
    engine.flush();
    assert_eq!(outcome.moved, starved.len() as u64);
    assert_eq!(outcome.stuck, 0);
    assert!(engine.live_flows().all(|(_, r)| r.is_positive()));
    assert_eq!(engine.stats().rerouted_flows, outcome.moved);
}

/// A flow whose every middle is dead is stuck: reroute reports it and
/// leaves it in place at rate zero.
#[test]
fn flow_with_no_surviving_path_is_stuck() {
    let clos = ClosNetwork::standard(2);
    let mut engine = ChurnEngine::<Rational>::new(
        clos.clone(),
        OnlinePolicy::greedy(),
        ChurnConfig {
            batch: 1,
            verify: true,
        },
    );
    engine.apply(FlowEvent::Arrive {
        key: 0,
        flow: Flow::new(clos.source(0, 0), clos.destination(2, 0)),
    });
    engine.apply(FlowEvent::Arrive {
        key: 1,
        flow: Flow::new(clos.source(1, 1), clos.destination(3, 1)),
    });
    // Kill every uplink out of ToR 0: flow 0 has no surviving path,
    // flow 1 is untouched.
    let mut overlay = clos_net::CapacityMap::new();
    for m in 0..2 {
        overlay.insert(
            clos.uplink(0, m),
            clos_net::Capacity::finite_value(Rational::ZERO),
        );
    }
    engine.apply_failure(&overlay);
    engine.flush();
    let outcome = engine.reroute_failed(&mut LocalReroute::new(3));
    engine.flush();
    assert_eq!(outcome.moved, 0);
    assert_eq!(outcome.stuck, 1);
    assert_eq!(engine.rate(0), Some(Rational::ZERO));
    assert_eq!(engine.rate(1), Some(Rational::ONE));
    assert_matches_fresh_run(&engine);
}

/// A reroute empties a path while its old flows still report its rate,
/// and arrivals after a repair fill it again: the engine's waterfill
/// entry for the path loses its last flow and later regains one, and the
/// verify oracle checks every epoch against a per-flow recompute.
#[test]
fn reroute_empties_a_path_and_repair_refills_it() {
    let clos = ClosNetwork::standard(2);
    let mut engine = ChurnEngine::<Rational>::new(
        clos.clone(),
        OnlinePolicy::greedy(),
        ChurnConfig {
            batch: 64,
            verify: true,
        },
    );
    // Four flows between one host pair: greedy alternates the middles,
    // so keys 0 and 2 take middle 0 and keys 1 and 3 middle 1.
    let flow = Flow::new(clos.source(0, 0), clos.destination(2, 0));
    for key in 0..4 {
        engine.apply(FlowEvent::Arrive { key, flow });
    }
    engine.flush();
    let quarter = Rational::new(1, 4);
    for key in 0..4 {
        assert_eq!(engine.class_of(key), Some(key as usize % 2));
        assert_eq!(engine.rate(key), Some(quarter));
    }
    let old_bottleneck = engine.bottleneck(0);

    // Middle 0's uplink dies: the reroute moves keys 0 and 2 to middle 1
    // and leaves the middle-0 path without flows, yet both keep reporting
    // its rate and bottleneck until the flush.
    let uplink = clos.uplink(0, 0);
    let mut overlay = CapacityMap::new();
    overlay.insert(uplink, Capacity::finite_value(Rational::ZERO));
    engine.apply_failure(&overlay);
    let outcome = engine.reroute_failed(&mut LocalReroute::new(1));
    assert_eq!((outcome.moved, outcome.stuck), (2, 0));
    for key in [0, 2] {
        assert_eq!(engine.class_of(key), Some(1));
        assert_eq!(engine.rate(key), Some(quarter));
        assert_eq!(engine.bottleneck(key), old_bottleneck);
    }
    engine.flush();
    assert!(engine.live_flows().all(|(_, rate)| rate == quarter));
    let paths_before = engine.stats().recomputed_paths;
    engine.apply(FlowEvent::Depart { key: 3 });
    engine.flush();
    // Only the middle-1 path is live.
    assert_eq!(engine.stats().recomputed_paths, paths_before + 1);

    // Repair the uplink: the next arrival goes back to the emptied path.
    overlay.insert(uplink, Capacity::finite_value(Rational::ONE));
    engine.apply_failure(&overlay);
    engine.apply(FlowEvent::Arrive { key: 4, flow });
    assert_eq!(engine.class_of(4), Some(0));
    engine.flush();
    assert_eq!(engine.stats().recomputed_paths, paths_before + 3);
    assert!(engine.live_flows().all(|(_, rate)| rate == quarter));
    assert_matches_fresh_run(&engine);
}
