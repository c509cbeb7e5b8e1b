//! On an arrival-only trace the online ECMP policy reproduces the
//! batch `EcmpRouter`'s placements byte for byte: both consume one
//! `gen_range(0..n)` draw per flow from an identically seeded `StdRng`.

use clos_churn::{
    ChurnConfig, ChurnEngine, FlowEvent, FlowKey, OnlinePolicy, Pattern, SizeDist, TraceConfig,
    TraceGenerator,
};
use clos_core::routers::{macro_demands, EcmpRouter, Router};
use clos_net::{ClosNetwork, MacroSwitch};
use clos_rational::Rational;

#[test]
fn online_ecmp_reproduces_batch_ecmp_on_arrival_only_traces() {
    let clos = ClosNetwork::standard(3);
    // Lifetimes far beyond the trace horizon: every event is an arrival.
    let cfg = TraceConfig {
        arrival_rate_per_sec: 1_000_000,
        lifetime: SizeDist::Empirical {
            lifetimes_ns: vec![u64::MAX / 4],
        },
        pattern: Pattern::Uniform,
        events: 200,
        seed: 17,
    };
    let mut engine =
        ChurnEngine::<Rational>::new(clos.clone(), OnlinePolicy::ecmp(99), ChurnConfig::default());
    let mut flows = Vec::new();
    for ev in TraceGenerator::new(&clos, &cfg) {
        match ev.event {
            FlowEvent::Arrive { flow, .. } => flows.push(flow),
            FlowEvent::Depart { .. } => panic!("trace must be arrival-only"),
        }
        engine.apply(ev.event);
    }
    engine.flush();
    assert_eq!(flows.len(), 200);

    let ms = MacroSwitch::standard(3);
    let demands = macro_demands(&clos, &ms, &flows);
    let routing = EcmpRouter::new(99).route(&clos, &demands, &flows);
    for (k, (path, &flow)) in routing.paths().iter().zip(&flows).enumerate() {
        let middle = engine.class_of(k as FlowKey).expect("all flows stay live");
        assert_eq!(
            path,
            &clos.path_via(flow, middle),
            "flow {k} placed differently online vs batch"
        );
    }
}
