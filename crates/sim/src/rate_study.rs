//! Per-flow rate ratios: Clos network versus macro-switch (§6).

use clos_core::routers::Router;
use clos_fairness::{WaterfillInstance, WaterfillScratch};
use clos_net::{ClosNetwork, Flow, MacroSwitch, Routing};
use clos_rational::TotalF64;

/// Summary statistics of a set of per-flow rate ratios.
///
/// A ratio of 1 means the flow attains its macro-switch rate; below 1 it
/// is degraded by the fabric; above 1 it profits from other flows'
/// degradation (e.g. matched flows under Doom-Switch).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RatioSummary {
    /// Number of flows.
    pub count: usize,
    /// Minimum ratio (the most-starved flow — the paper's focus).
    pub min: f64,
    /// Arithmetic mean ratio.
    pub mean: f64,
    /// Median ratio.
    pub p50: f64,
    /// 10th percentile.
    pub p10: f64,
    /// 99th percentile (from below; ratios above 1 appear here).
    pub p99: f64,
    /// Maximum ratio.
    pub max: f64,
}

/// The full outcome of a rate study: the routing, per-flow ratios, and
/// their summary.
#[derive(Clone, Debug)]
pub struct RateStudy {
    /// The routing produced by the router under study.
    pub routing: Routing,
    /// Per-flow ratio of Clos max-min rate to macro-switch max-min rate.
    pub ratios: Vec<f64>,
    /// Summary statistics of `ratios`.
    pub summary: RatioSummary,
}

/// Summarizes a list of ratios.
///
/// # Panics
///
/// Panics if `ratios` is empty.
///
/// # Examples
///
/// ```
/// use clos_sim::summarize;
///
/// let s = summarize(&[0.5, 1.0, 1.0, 1.5]);
/// assert_eq!(s.min, 0.5);
/// assert_eq!(s.max, 1.5);
/// assert_eq!(s.mean, 1.0);
/// ```
#[must_use]
pub fn summarize(ratios: &[f64]) -> RatioSummary {
    assert!(!ratios.is_empty(), "cannot summarize zero ratios");
    let mut sorted = ratios.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Nearest-rank percentile: the smallest value with at least p·N values
    // at or below it.
    let pct = |p: f64| {
        let rank = ((sorted.len() as f64) * p).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    };
    RatioSummary {
        count: sorted.len(),
        min: sorted[0],
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        p50: pct(0.50),
        p10: pct(0.10),
        p99: pct(0.99),
        max: *sorted.last().expect("nonempty"),
    }
}

/// Routes `flows` with `router`, imposes max-min fair rates, and reports
/// each flow's rate relative to its macro-switch max-min rate.
///
/// This is the experiment of the paper's §6: practical routers track the
/// macro-switch abstraction well on stochastic inputs, while adversarial
/// inputs produce arbitrarily small ratios.
///
/// # Panics
///
/// Panics if a flow endpoint is invalid for `clos`/`ms` or the collection
/// is empty.
///
/// # Examples
///
/// ```
/// use clos_core::routers::GreedyRouter;
/// use clos_net::{ClosNetwork, MacroSwitch};
/// use clos_sim::rate_ratio_study;
/// use clos_workloads::Workload;
///
/// let clos = ClosNetwork::standard(2);
/// let ms = MacroSwitch::standard(2);
/// // ToR-aligned stride traffic: greedy replicates the macro-switch rates.
/// let flows = Workload::Stride { stride: 2 }.generate(&clos, 0);
/// let study = rate_ratio_study(&clos, &ms, &flows, &mut GreedyRouter::new());
/// assert_eq!(study.summary.min, 1.0);
/// ```
#[must_use]
pub fn rate_ratio_study(
    clos: &ClosNetwork,
    ms: &MacroSwitch,
    flows: &[Flow],
    router: &mut dyn Router,
) -> RateStudy {
    assert!(!flows.is_empty(), "rate study needs at least one flow");
    let _span = clos_telemetry::span("rate_study");
    let demands = if router.uses_demands() {
        clos_core::routers::macro_demands(clos, ms, flows)
    } else {
        Vec::new()
    };
    let routing = {
        let _span = clos_telemetry::span("route");
        router.route(clos, &demands, flows)
    };
    // Both water-fillings go through the compiled pipeline with one shared
    // scratch: the scratch is instance-independent, so the macro-switch run
    // reuses the buffers the Clos run warmed up.
    let mut scratch = WaterfillScratch::new();
    let clos_instance = WaterfillInstance::<TotalF64>::compile(clos.network());
    run_waterfill(&clos_instance, &routing, &mut scratch);
    let clos_rates = scratch.rates().to_vec();

    let ms_flows = ms.translate_flows(clos, flows);
    let ms_routing = ms.routing(&ms_flows);
    let ms_instance = WaterfillInstance::<TotalF64>::compile(ms.network());
    run_waterfill(&ms_instance, &ms_routing, &mut scratch);

    let ratios: Vec<f64> = clos_rates
        .iter()
        .zip(scratch.rates())
        .map(|(c, m)| {
            debug_assert!(m.get() > 0.0, "max-min rates are strictly positive");
            c.get() / m.get()
        })
        .collect();
    let summary = summarize(&ratios);
    RateStudy {
        routing,
        ratios,
        summary,
    }
}

/// Loads `routing` into `scratch` (dense link indices of `instance`) and
/// water-fills it. Every path here crosses at least one finite link (host
/// links are finite in both models), so rates are always bounded.
fn run_waterfill(
    instance: &WaterfillInstance<TotalF64>,
    routing: &Routing,
    scratch: &mut WaterfillScratch<TotalF64>,
) {
    scratch.begin();
    let mut buf: Vec<usize> = Vec::new();
    for path in routing.paths() {
        buf.clear();
        buf.extend(path.links().iter().filter_map(|&l| instance.dense_index(l)));
        assert!(!buf.is_empty(), "flow path must cross a finite link");
        scratch.push_flow(&buf);
    }
    instance.run(scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use clos_core::routers::{EcmpRouter, GreedyRouter, LocalSearchRouter};
    use clos_workloads::Workload;

    fn setup(n: usize) -> (ClosNetwork, MacroSwitch) {
        (ClosNetwork::standard(n), MacroSwitch::standard(n))
    }

    #[test]
    fn summarize_percentiles() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = summarize(&v);
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.p10, 10.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
        // Singleton: every percentile is the value itself.
        let one = summarize(&[0.7]);
        assert_eq!(one.p50, 0.7);
        assert_eq!(one.p99, 0.7);
    }

    #[test]
    #[should_panic(expected = "zero ratios")]
    fn summarize_rejects_empty() {
        let _ = summarize(&[]);
    }

    /// Pins the nearest-rank ("from below") convention at the boundary
    /// sizes: rank `ceil(p·N)` clamped to `[1, N]`, 1-indexed into the
    /// sorted list.
    #[test]
    fn summarize_percentile_boundaries() {
        // N = 1: every rank clamps to the single element.
        let one = summarize(&[2.5]);
        assert_eq!((one.p10, one.p50, one.p99), (2.5, 2.5, 2.5));
        assert_eq!((one.min, one.max, one.mean), (2.5, 2.5, 2.5));

        // N = 2: p10 -> ceil(0.2) = rank 1; p50 -> ceil(1.0) = rank 1;
        // p99 -> ceil(1.98) = rank 2. The median is the LOWER of the two.
        let two = summarize(&[4.0, 1.0]);
        assert_eq!((two.p10, two.p50, two.p99), (1.0, 1.0, 4.0));

        // N = 4: p10 -> ceil(0.4) = rank 1; p50 -> ceil(2.0) = rank 2;
        // p99 -> ceil(3.96) = rank 4 (the max, not sorted[2]).
        let four = summarize(&[0.5, 1.5, 1.0, 1.0]);
        assert_eq!((four.p10, four.p50, four.p99), (0.5, 1.0, 1.5));

        // N = 100: exact ranks 10, 50, 99 — p99 is sorted[98], i.e. the
        // second-largest value, NOT the max.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&hundred);
        assert_eq!((s.p10, s.p50, s.p99), (10.0, 50.0, 99.0));
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn greedy_replicates_stride_exactly() {
        // ToR-aligned traffic: the n flows per ToR pair spread over the n
        // middles deterministically.
        let (clos, ms) = setup(3);
        let flows = Workload::Stride { stride: 3 }.generate(&clos, 0);
        let study = rate_ratio_study(&clos, &ms, &flows, &mut GreedyRouter::new());
        assert!((study.summary.min - 1.0).abs() < 1e-9);
        assert!((study.summary.max - 1.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_on_permutation_never_below_half() {
        // Greedy is not König: it can pair two unit flows on one fabric
        // link, halving them — but no worse on a permutation.
        let (clos, ms) = setup(3);
        for seed in 0..8 {
            let flows = Workload::Permutation.generate(&clos, seed);
            let study = rate_ratio_study(&clos, &ms, &flows, &mut GreedyRouter::new());
            assert!(
                study.summary.min >= 0.5 - 1e-9,
                "seed {seed}: {:?}",
                study.summary
            );
            assert!(study.summary.p50 >= 0.5 - 1e-9);
        }
    }

    #[test]
    fn ecmp_can_fall_below_one_but_not_to_zero() {
        let (clos, ms) = setup(2);
        let flows = Workload::UniformRandom { flows: 24 }.generate(&clos, 3);
        let study = rate_ratio_study(&clos, &ms, &flows, &mut EcmpRouter::new(17));
        assert!(study.summary.min > 0.0);
        assert!(study.summary.min <= 1.0 + 1e-9);
        assert_eq!(study.ratios.len(), 24);
    }

    #[test]
    fn local_search_min_ratio_at_least_ecmp_on_average() {
        // Not guaranteed per-instance, but across seeds the mean of min
        // ratios under local search should beat ECMP.
        let (clos, ms) = setup(2);
        let mut ecmp_sum = 0.0;
        let mut ls_sum = 0.0;
        for seed in 0..10 {
            let flows = Workload::UniformRandom { flows: 16 }.generate(&clos, seed);
            ecmp_sum += rate_ratio_study(&clos, &ms, &flows, &mut EcmpRouter::new(seed))
                .summary
                .min;
            ls_sum += rate_ratio_study(&clos, &ms, &flows, &mut LocalSearchRouter::default())
                .summary
                .min;
        }
        assert!(
            ls_sum >= ecmp_sum * 0.95,
            "local search {ls_sum} vs ecmp {ecmp_sum}"
        );
    }

    #[test]
    fn incast_is_macro_switch_friendly() {
        // Incast bottlenecks at the destination host link in both models,
        // so any sane router replicates it.
        let (clos, ms) = setup(3);
        let flows = Workload::Incast { senders: 12 }.generate(&clos, 9);
        let study = rate_ratio_study(&clos, &ms, &flows, &mut GreedyRouter::new());
        assert!((study.summary.min - 1.0).abs() < 1e-9);
    }

    #[test]
    fn adversarial_instance_shows_starvation() {
        // Theorem 4.3's instance: even the lex-optimal routing starves the
        // type-3 flow to 1/n; greedy routing cannot do better than some
        // flow being degraded.
        let t = clos_core::constructions::theorem_4_3(3);
        let study = rate_ratio_study(
            &t.instance.clos,
            &t.instance.ms,
            &t.instance.flows,
            &mut GreedyRouter::new(),
        );
        assert!(
            study.summary.min < 0.9,
            "adversarial input should degrade someone: {:?}",
            study.summary
        );
    }
}
