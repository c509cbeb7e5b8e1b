//! Heap-peak bounds for the two largest resident layouts: E4's `C_32`
//! row (33,761 flows on 8,192 links) and a churn replay of ~20k live
//! flows followed by a fresh per-flow water-fill description of them.
//!
//! The binary installs the counting allocator and reads the most bytes
//! held at once while each workload runs, above what was held when it
//! started. Each bound is the measured peak plus 3%: a copied result
//! vector or a wider flow key, resident at the peak, lifts the reading
//! past it. The counters are process-wide, so the binary has one test,
//! which measures the workloads one after the other.

use clos_bench::experiments::e4_starvation;
use clos_churn::{
    ChurnConfig, ChurnEngine, FlowEvent, OnlinePolicy, Pattern, SizeDist, TraceConfig,
    TraceGenerator,
};
use clos_fairness::{WaterfillInstance, WaterfillScratch};
use clos_net::{ClosNetwork, Fabric, LinkId};
use clos_rational::TotalF64;

#[global_allocator]
static GLOBAL: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Runs `work` and returns its heap peak in bytes above the bytes held
/// when it started, with its result.
fn heap_peak<R>(work: impl FnOnce() -> R) -> (usize, R) {
    let base = counting_alloc::live_bytes();
    counting_alloc::reset_peak();
    let out = work();
    (counting_alloc::peak_bytes() - base, out)
}

#[test]
fn heap_peaks_stay_within_bounds() {
    let e4 = e4_c32_row();
    let churn = churn_check();
    for (name, peak, bound) in [
        ("E4 C_32 row", e4, E4_C32_BOUND),
        ("churn check", churn, CHURN_CHECK_BOUND),
    ] {
        println!(
            "{name}: heap peak {peak} B ({:.2} MB), bound {bound} B",
            peak as f64 / 1e6
        );
    }
    assert!(e4 <= E4_C32_BOUND, "E4 C_32 row: heap peak {e4} B");
    assert!(
        churn <= CHURN_CHECK_BOUND,
        "churn check: heap peak {churn} B"
    );
}

/// E4's sweep row at n = 32: the certificate water-fill and its checks.
fn e4_c32_row() -> usize {
    let (peak, rows) = heap_peak(|| e4_starvation::run(&[32], 0));
    assert_eq!(rows[0].starvation, clos_rational::Rational::new(1, 32));
    peak
}

/// Replays a churn trace with about 20k live flows through the engine,
/// flushing every 2048 events, then describes every live flow on its own
/// in a fresh water-fill and checks its rate, with the trace still held.
fn churn_check() -> usize {
    let clos = ClosNetwork::standard(4);
    let config = TraceConfig {
        arrival_rate_per_sec: 1_000_000,
        lifetime: SizeDist::Exponential {
            mean_ns: 25_000_000,
        },
        pattern: Pattern::Uniform,
        events: 70_000,
        seed: 42,
    };
    let (peak, checked) = heap_peak(|| {
        let trace: Vec<FlowEvent> = TraceGenerator::new(&clos, &config)
            .map(|t| t.event)
            .collect();
        let mut engine = ChurnEngine::<TotalF64>::new(
            clos.clone(),
            OnlinePolicy::greedy(),
            ChurnConfig {
                batch: 2048,
                verify: false,
            },
        );
        for &event in &trace {
            engine.apply(event);
        }
        engine.flush();

        let mut links: Vec<LinkId> = Vec::new();
        let mut starts = vec![0];
        for (key, _) in engine.live_flows() {
            let flow = engine.flow(key).expect("a live key has endpoints");
            let class = engine.class_of(key).expect("a live key has a placement");
            clos.append_links_via(flow, class, &mut links);
            starts.push(links.len());
        }
        let instance = WaterfillInstance::<TotalF64>::compile(clos.network());
        let mut scratch = WaterfillScratch::new();
        scratch.begin();
        let mut dense = Vec::new();
        for w in starts.windows(2) {
            dense.clear();
            dense.extend(
                links[w[0]..w[1]]
                    .iter()
                    .map(|&l| instance.dense_index(l).expect("Clos links are finite")),
            );
            scratch.push_flow(&dense);
        }
        instance.run(&mut scratch);
        let live: Vec<TotalF64> = engine.live_flows().map(|(_, rate)| rate).collect();
        assert_eq!(live, scratch.rates(), "the engine matches a fresh run");
        assert_eq!(trace.len(), config.events);
        live.len()
    });
    assert!(checked > 20_000, "{checked} live flows");
    peak
}

/// Measured 9,579,171 B (x86-64 Linux); +3%.
const E4_C32_BOUND: usize = 9_866_000;
/// Measured 5,033,048 B (x86-64 Linux); +3%.
const CHURN_CHECK_BOUND: usize = 5_184_000;
