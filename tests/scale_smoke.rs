//! Scale smoke tests: the fast (f64) pipeline handles fabric sizes well
//! beyond the theorem instances without blowing up. These are correctness
//! checks at size, not benchmarks — `repro`'s per-experiment wall times,
//! `bench_search` and `bench_churn` do the timing.

use clos_core::doom_switch::doom_switch;
use clos_core::routers::{macro_demands, GreedyRouter, Router};
use clos_fairness::{max_min_fair, verify_bottleneck_property};
use clos_net::{ClosNetwork, MacroSwitch};
use clos_rational::TotalF64;
use clos_workloads::Workload;

#[test]
fn c8_thousand_flows_fast_path() {
    let clos = ClosNetwork::standard(8);
    let ms = MacroSwitch::standard(8);
    let hosts = clos.tor_count() * clos.hosts_per_tor(); // 128
    let flows = Workload::UniformRandom { flows: 8 * hosts }.generate(&clos, 3);
    assert_eq!(flows.len(), 1024);

    let demands = macro_demands(&clos, &ms, &flows);
    let routing = GreedyRouter::new().route(&clos, &demands, &flows);
    let alloc = max_min_fair::<TotalF64>(clos.network(), &flows, &routing).unwrap();
    assert_eq!(alloc.len(), 1024);
    // Sanity at scale: rates in (0, 1], allocation certified max-min fair
    // within float tolerance.
    assert!(alloc
        .rates()
        .iter()
        .all(|r| r.get() > 0.0 && r.get() <= 1.0 + 1e-9));
    assert!(verify_bottleneck_property(
        clos.network(),
        &flows,
        &routing,
        &alloc,
        TotalF64::new(1e-9)
    )
    .is_ok());
}

#[test]
fn c16_doom_switch_scales() {
    // Matching + coloring + exact water-filling on a 16-middle fabric with
    // dense same-pair traffic.
    let clos = ClosNetwork::standard(16);
    let ms = MacroSwitch::standard(16);
    let hosts = clos.tor_count() * clos.hosts_per_tor(); // 512
    let flows = Workload::UniformRandom { flows: hosts }.generate(&clos, 5);
    let out = doom_switch(&clos, &ms, &flows);
    assert_eq!(out.allocation.len(), flows.len());
    // Doom-Switch never exceeds the theorem bound.
    let ms_flows = ms.translate_flows(&clos, &flows);
    let t_ms = clos_core::macro_switch::macro_max_min(&ms, &ms_flows).throughput();
    assert!(out.throughput() <= clos_rational::Rational::TWO * t_ms);
}

#[test]
fn big_adversarial_certificates_stay_cheap() {
    // Theorem 4.3 at n = 24: ~14k flows, exact arithmetic, certificate
    // allocation + Lemma 4.6 rates verified. (The exhaustive search would
    // need ~24^14000 routings; the certificate needs one water-fill.)
    let t = clos_core::constructions::theorem_4_3(24);
    assert!(t.instance.flows.len() > 10_000);
    let cert = t.certificate();
    assert_eq!(
        cert.allocation.rate(t.type3_flow()),
        clos_rational::Rational::new(1, 24)
    );
    assert!(t.certify_infeasibility().is_ok());
}
