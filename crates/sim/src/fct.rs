//! Flow-completion-time simulation: congestion control versus scheduling
//! (§7, discussion of R1).
//!
//! The paper's first result shows max-min fairness can halve throughput;
//! its conclusion suggests *scheduling* — delaying some flows so others
//! transmit at link capacity, analogous to admission control — as the
//! mechanism to recover it, improving average flow completion times (FCT).
//! This simulator makes that comparison concrete: Poisson flow arrivals on
//! a Clos fabric, served either by
//!
//! * [`Transport::FairSharing`] — every active flow gets its max-min fair
//!   rate (recomputed on each arrival/departure), or
//! * [`Transport::Scheduling`] — preemptive priority in arrival order:
//!   after every event, flows are taken in arrival order and each one whose
//!   whole path is free of the flows admitted before it runs at full link
//!   rate; the rest wait. A departure can therefore hand links to an
//!   earlier-arrived waiting flow and stop a later one that was running.
//!
//! Arrivals and departures are events of one [`ChurnEngine`] per run (the
//! flow-level model of Shah & Xie, arXiv 1710.02548), which places each
//! flow with its greedy online policy. Fair sharing reads rates after an
//! engine flush, bit-identical to a per-flow recompute and checked against
//! one in debug builds.

use clos_churn::{ChurnConfig, ChurnEngine, FlowEvent, FlowKey, OnlinePolicy};
use clos_net::{ClosNetwork, Flow};
use clos_rational::TotalF64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The distribution of flow sizes (in capacity·time units).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SizeDist {
    /// Every flow has the same size.
    Fixed(f64),
    /// Exponentially distributed with the given mean.
    Exponential(f64),
    /// A mix of mice and elephants: `large_fraction` of flows have size
    /// `large`, the rest `small`.
    Bimodal {
        /// Mouse size.
        small: f64,
        /// Elephant size.
        large: f64,
        /// Fraction of elephants in `[0, 1]`.
        large_fraction: f64,
    },
}

impl SizeDist {
    fn sample(self, rng: &mut StdRng) -> f64 {
        match self {
            SizeDist::Fixed(s) => s,
            SizeDist::Exponential(mean) => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -mean * u.ln()
            }
            SizeDist::Bimodal {
                small,
                large,
                large_fraction,
            } => {
                if rng.gen::<f64>() < large_fraction {
                    large
                } else {
                    small
                }
            }
        }
    }

    fn mean(self) -> f64 {
        match self {
            SizeDist::Fixed(s) => s,
            SizeDist::Exponential(mean) => mean,
            SizeDist::Bimodal {
                small,
                large,
                large_fraction,
            } => large_fraction * large + (1.0 - large_fraction) * small,
        }
    }
}

/// How rates are assigned to active flows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transport {
    /// Max-min fair sharing (congestion control), recomputed per event.
    FairSharing,
    /// Preemptive priority scheduling in arrival order: after every event,
    /// a flow runs at rate 1 iff no earlier-arrived running flow holds a
    /// link of its path; otherwise it waits. A running flow is stopped when
    /// a departure frees the path of an earlier-arrived waiting flow that
    /// shares one of its links.
    Scheduling,
}

/// Configuration of an FCT simulation run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FctConfig {
    /// Poisson arrival rate (flows per unit time), across the whole fabric.
    pub arrival_rate: f64,
    /// Flow size distribution.
    pub size_dist: SizeDist,
    /// Number of flows to generate.
    pub flow_count: usize,
    /// Random seed (arrivals, sizes, endpoints).
    pub seed: u64,
}

impl FctConfig {
    /// The offered load per host uplink implied by the configuration:
    /// `arrival_rate · mean_size / host_count`. Values near or above 1
    /// saturate the fabric.
    #[must_use]
    pub fn offered_load(&self, clos: &ClosNetwork) -> f64 {
        let hosts = (clos.tor_count() * clos.hosts_per_tor()) as f64;
        self.arrival_rate * self.size_dist.mean() / hosts
    }
}

/// Aggregate results of an FCT simulation.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct FctStats {
    /// Number of completed flows (always equals the configured count).
    pub completed: usize,
    /// Mean flow completion time.
    pub mean_fct: f64,
    /// Median flow completion time.
    pub p50_fct: f64,
    /// 99th-percentile flow completion time.
    pub p99_fct: f64,
    /// Worst flow completion time.
    pub max_fct: f64,
    /// Mean slowdown: FCT divided by the flow's ideal full-rate service
    /// time.
    pub mean_slowdown: f64,
    /// Time at which the last flow completed.
    pub makespan: f64,
}

struct Active {
    /// Engine key: the flow's arrival sequence number.
    key: FlowKey,
    /// Indices of the four links of the flow's path, fixed at arrival.
    links: [usize; 4],
    remaining: f64,
    arrival: f64,
    size: f64,
}

/// Admission state of [`Transport::Scheduling`], kept across events.
///
/// Admission is greedy in arrival order: a flow runs iff no earlier-arrived
/// admitted flow holds one of its links. A flow's fate therefore depends
/// only on the flows that arrived before it, so an event invalidates
/// admission only from its own position in arrival order onward: an
/// arrival (always the latest key) from the end, a departure from where
/// the departed flow stood. [`Admission::refresh`] redoes exactly that
/// suffix.
struct Admission {
    /// Live keys in arrival order; keys are arrival sequence numbers, so
    /// appending on arrival keeps it sorted.
    order: Vec<FlowKey>,
    /// Index into the active list of each live key (indexed by key).
    slot: Vec<usize>,
    /// Whether an admitted flow holds the link.
    used: Vec<bool>,
    /// First position of `order` whose admission may be stale.
    stale_from: usize,
}

impl Admission {
    fn new(link_count: usize, flow_count: usize) -> Admission {
        Admission {
            order: Vec::new(),
            slot: vec![0; flow_count],
            used: vec![false; link_count],
            stale_from: 0,
        }
    }

    /// Records the arrival of the flow now at `active[index]`.
    fn arrive(&mut self, key: FlowKey, index: usize) {
        self.slot[key as usize] = index;
        self.stale_from = self.stale_from.min(self.order.len());
        self.order.push(key);
    }

    /// Records the departure of `a`, which ran at `rate`.
    fn depart(&mut self, a: &Active, rate: f64) {
        if rate > 0.0 {
            for &l in &a.links {
                self.used[l] = false;
            }
        }
        let pos = self.order.partition_point(|&k| k < a.key);
        self.order.remove(pos);
        self.stale_from = self.stale_from.min(pos);
    }

    /// Records that the flow with `key` moved to `active[index]`.
    fn moved(&mut self, key: FlowKey, index: usize) {
        self.slot[key as usize] = index;
    }

    /// Brings `rates` (parallel to `active`) up to date: releases the
    /// links of every admitted flow in the stale suffix, then re-admits
    /// that suffix in arrival order.
    fn refresh(&mut self, active: &[Active], rates: &mut [f64]) {
        let suffix = &self.order[self.stale_from..];
        for &key in suffix {
            let i = self.slot[key as usize];
            if rates[i] > 0.0 {
                for &l in &active[i].links {
                    self.used[l] = false;
                }
                rates[i] = 0.0;
            }
        }
        for &key in suffix {
            let i = self.slot[key as usize];
            let links = &active[i].links;
            if links.iter().all(|&l| !self.used[l]) {
                for &l in links {
                    self.used[l] = true;
                }
                rates[i] = 1.0;
            }
        }
        self.stale_from = self.order.len();
    }
}

/// The fate of one simulated flow.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FlowRecord {
    /// Arrival time.
    pub arrival: f64,
    /// Flow size (capacity·time units).
    pub size: f64,
    /// Flow completion time (departure − arrival).
    pub fct: f64,
}

impl FlowRecord {
    /// FCT divided by the ideal full-rate service time.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        self.fct / self.size
    }
}

/// Runs a flow-level FCT simulation on `clos`.
///
/// Arrivals are Poisson with uniformly random source–destination pairs;
/// each arrival immediately takes the middle switch the churn engine's
/// greedy policy picks and keeps it for life (unsplittable flows, no
/// re-routing). Rates follow `transport` and are piecewise-constant
/// between events.
///
/// # Panics
///
/// Panics if the configuration is degenerate (`flow_count == 0`,
/// non-positive arrival rate or sizes).
///
/// # Examples
///
/// ```
/// use clos_net::ClosNetwork;
/// use clos_sim::{simulate_fct, FctConfig, SizeDist, Transport};
///
/// let clos = ClosNetwork::standard(2);
/// let config = FctConfig {
///     arrival_rate: 4.0,
///     size_dist: SizeDist::Fixed(1.0),
///     flow_count: 50,
///     seed: 7,
/// };
/// let stats = simulate_fct(&clos, &config, Transport::FairSharing);
/// assert_eq!(stats.completed, 50);
/// assert!(stats.mean_fct >= 1.0); // a size-1 flow needs at least 1 time unit
/// ```
#[must_use]
pub fn simulate_fct(clos: &ClosNetwork, config: &FctConfig, transport: Transport) -> FctStats {
    simulate_fct_records(clos, config, transport).0
}

/// Like [`simulate_fct`], additionally returning the per-flow records
/// (arrival, size, FCT) so callers can break results down — e.g. mouse vs
/// elephant slowdowns under bimodal sizes.
///
/// # Panics
///
/// Same as [`simulate_fct`].
#[must_use]
pub fn simulate_fct_records(
    clos: &ClosNetwork,
    config: &FctConfig,
    transport: Transport,
) -> (FctStats, Vec<FlowRecord>) {
    assert!(config.flow_count > 0, "flow_count must be positive");
    assert!(config.arrival_rate > 0.0, "arrival rate must be positive");
    let _span = clos_telemetry::span("fct");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let hosts = clos.tor_count() * clos.hosts_per_tor();

    // Pre-generate the arrival process.
    let mut arrivals = Vec::with_capacity(config.flow_count);
    let mut t_arr = 0.0;
    for _ in 0..config.flow_count {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t_arr += -u.ln() / config.arrival_rate;
        let src = rng.gen_range(0..hosts);
        let dst = rng.gen_range(0..hosts);
        let size = config.size_dist.sample(&mut rng);
        assert!(size > 0.0, "flow sizes must be positive");
        arrivals.push((t_arr, src, dst, size));
    }
    simulate_arrivals(clos, &arrivals, transport)
}

/// One flow of an arrival process: arrival time, source host, destination
/// host (hosts numbered ToR by ToR), and size.
type Arrival = (f64, usize, usize, f64);

/// The event loop of [`simulate_fct_records`] over a given arrival process,
/// sorted by arrival time; the flow at index `i` gets engine key `i`.
fn simulate_arrivals(
    clos: &ClosNetwork,
    arrivals: &[Arrival],
    transport: Transport,
) -> (FctStats, Vec<FlowRecord>) {
    assert!(
        arrivals.len() <= FlowKey::MAX as usize,
        "a run simulates fewer than 2^32 flows (engine keys are 32 bits)"
    );
    // One engine per run, keyed by arrival sequence. It never flushes on
    // its own: fair sharing flushes before each rate read, scheduling only
    // uses its placements.
    let mut engine = ChurnEngine::<TotalF64>::new(
        clos.clone(),
        OnlinePolicy::greedy(),
        ChurnConfig {
            batch: usize::MAX,
            verify: cfg!(debug_assertions),
        },
    );
    let mut active: Vec<Active> = Vec::new();
    // Per-flow rates, parallel to `active` and reused across events.
    let mut rates: Vec<f64> = Vec::new();
    let mut admission = match transport {
        Transport::FairSharing => None,
        Transport::Scheduling => Some(Admission::new(clos.network().link_count(), arrivals.len())),
    };
    let mut records: Vec<FlowRecord> = Vec::new();
    let mut now = 0.0f64;
    let mut next_arrival = 0usize;
    let mut makespan = 0.0f64;

    const EPS: f64 = 1e-12;
    loop {
        if active.is_empty() && next_arrival == arrivals.len() {
            break;
        }
        match &mut admission {
            None => {
                engine.flush();
                rates.clear();
                rates.extend(active.iter().map(|a| {
                    engine
                        .rate(a.key)
                        .expect("active flows are live in the engine")
                        .get()
                }));
            }
            Some(admission) => admission.refresh(&active, &mut rates),
        }
        // Next completion among flows with positive rate.
        let mut dt_complete = f64::INFINITY;
        for (a, &r) in active.iter().zip(&rates) {
            if r > 0.0 {
                dt_complete = dt_complete.min((a.remaining / r).max(0.0));
            }
        }
        let dt_arrival = if next_arrival < arrivals.len() {
            arrivals[next_arrival].0 - now
        } else {
            f64::INFINITY
        };
        let dt = dt_complete.min(dt_arrival);
        assert!(
            dt.is_finite(),
            "simulation stalled: active flows but no progress possible"
        );
        // Advance work.
        for (a, &r) in active.iter_mut().zip(&rates) {
            a.remaining -= r * dt;
        }
        now += dt;

        if dt_complete <= dt_arrival {
            // Handle completions (possibly several tie).
            let mut i = 0;
            while i < active.len() {
                if active[i].remaining <= EPS * active[i].size.max(1.0) {
                    let a = active.swap_remove(i);
                    let rate = rates.swap_remove(i);
                    if let Some(admission) = &mut admission {
                        admission.depart(&a, rate);
                        if let Some(moved) = active.get(i) {
                            admission.moved(moved.key, i);
                        }
                    }
                    engine.apply(FlowEvent::Depart { key: a.key });
                    makespan = makespan.max(now);
                    records.push(FlowRecord {
                        arrival: a.arrival,
                        size: a.size,
                        fct: now - a.arrival,
                    });
                } else {
                    i += 1;
                }
            }
        }
        if dt_arrival <= dt_complete && next_arrival < arrivals.len() {
            let (t, src, dst, size) = arrivals[next_arrival];
            debug_assert!(t <= now + EPS, "arrival handled at its timestamp");
            // Below `arrivals.len()`, which fits a key (checked above).
            let key = next_arrival as FlowKey;
            next_arrival += 1;
            let flow = Flow::new(
                clos.source(src / clos.hosts_per_tor(), src % clos.hosts_per_tor()),
                clos.destination(dst / clos.hosts_per_tor(), dst % clos.hosts_per_tor()),
            );
            engine.apply(FlowEvent::Arrive { key, flow });
            let middle = engine
                .class_of(key)
                .expect("an arrived flow is live in the engine");
            if let Some(admission) = &mut admission {
                admission.arrive(key, active.len());
            }
            active.push(Active {
                key,
                links: clos.links_via(flow, middle).map(|l| l.index()),
                remaining: size,
                arrival: now,
                size,
            });
            rates.push(0.0);
        }
    }

    // Summaries (nearest-rank percentiles).
    let mut sorted: Vec<f64> = records.iter().map(|r| r.fct).collect();
    sorted.sort_by(f64::total_cmp);
    let pct = |p: f64| {
        let rank = ((sorted.len() as f64) * p).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    };
    let stats = FctStats {
        completed: records.len(),
        mean_fct: sorted.iter().sum::<f64>() / sorted.len() as f64,
        p50_fct: pct(0.50),
        p99_fct: pct(0.99),
        max_fct: pct(1.0),
        mean_slowdown: records.iter().map(FlowRecord::slowdown).sum::<f64>() / records.len() as f64,
        makespan,
    };
    (stats, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config() -> FctConfig {
        FctConfig {
            arrival_rate: 8.0,
            size_dist: SizeDist::Fixed(1.0),
            flow_count: 120,
            seed: 11,
        }
    }

    #[test]
    fn all_flows_complete_under_both_transports() {
        let clos = ClosNetwork::standard(2);
        let cfg = base_config();
        for transport in [Transport::FairSharing, Transport::Scheduling] {
            let stats = simulate_fct(&clos, &cfg, transport);
            assert_eq!(stats.completed, cfg.flow_count, "{transport:?}");
            assert!(stats.mean_fct >= 1.0 - 1e-9);
            assert!(stats.p99_fct >= stats.p50_fct);
            assert!(stats.max_fct >= stats.p99_fct);
            assert!(stats.makespan > 0.0);
            assert!(stats.mean_slowdown >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn simulation_is_seed_deterministic() {
        let clos = ClosNetwork::standard(2);
        let cfg = base_config();
        let a = simulate_fct(&clos, &cfg, Transport::FairSharing);
        let b = simulate_fct(&clos, &cfg, Transport::FairSharing);
        assert_eq!(a, b);
    }

    #[test]
    fn light_load_gives_ideal_fct() {
        // With arrivals far apart, every flow runs alone at rate 1.
        let clos = ClosNetwork::standard(2);
        let cfg = FctConfig {
            arrival_rate: 0.01,
            size_dist: SizeDist::Fixed(2.0),
            flow_count: 20,
            seed: 3,
        };
        let stats = simulate_fct(&clos, &cfg, Transport::FairSharing);
        assert!((stats.mean_fct - 2.0).abs() < 1e-6);
        assert!((stats.mean_slowdown - 1.0).abs() < 1e-6);
    }

    #[test]
    fn scheduling_matches_fair_sharing_at_light_load() {
        let clos = ClosNetwork::standard(2);
        let cfg = FctConfig {
            arrival_rate: 0.01,
            size_dist: SizeDist::Fixed(1.0),
            flow_count: 20,
            seed: 5,
        };
        let fair = simulate_fct(&clos, &cfg, Transport::FairSharing);
        let sched = simulate_fct(&clos, &cfg, Transport::Scheduling);
        assert!((fair.mean_fct - sched.mean_fct).abs() < 1e-6);
    }

    #[test]
    fn scheduling_improves_mean_fct_under_contention() {
        // §7 (R1): with equal-size flows under heavy contention, serializing
        // flows at full rate beats fair sharing on mean FCT (the classic
        // FIFO-vs-processor-sharing comparison).
        let clos = ClosNetwork::standard(2);
        let cfg = FctConfig {
            arrival_rate: 16.0,
            size_dist: SizeDist::Fixed(1.0),
            flow_count: 300,
            seed: 23,
        };
        let fair = simulate_fct(&clos, &cfg, Transport::FairSharing);
        let sched = simulate_fct(&clos, &cfg, Transport::Scheduling);
        assert!(
            sched.mean_fct < fair.mean_fct,
            "scheduling {} should beat fair sharing {}",
            sched.mean_fct,
            fair.mean_fct
        );
    }

    #[test]
    fn offered_load_formula() {
        let clos = ClosNetwork::standard(2);
        let cfg = FctConfig {
            arrival_rate: 8.0,
            size_dist: SizeDist::Fixed(1.0),
            flow_count: 10,
            seed: 0,
        };
        assert!((cfg.offered_load(&clos) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn size_distributions_sample_sanely() {
        let mut rng = StdRng::seed_from_u64(1);
        let exp = SizeDist::Exponential(4.0);
        let mean: f64 = (0..4000).map(|_| exp.sample(&mut rng)).sum::<f64>() / 4000.0;
        assert!((mean - 4.0).abs() < 0.5, "sampled mean {mean}");
        assert_eq!(exp.mean(), 4.0);
        let bi = SizeDist::Bimodal {
            small: 1.0,
            large: 10.0,
            large_fraction: 0.5,
        };
        assert_eq!(bi.mean(), 5.5);
        let samples: Vec<f64> = (0..100).map(|_| bi.sample(&mut rng)).collect();
        assert!(samples.contains(&1.0));
        assert!(samples.contains(&10.0));
    }

    #[test]
    fn heavy_tailed_sizes_complete_too() {
        let clos = ClosNetwork::standard(2);
        let cfg = FctConfig {
            arrival_rate: 4.0,
            size_dist: SizeDist::Bimodal {
                small: 0.1,
                large: 5.0,
                large_fraction: 0.1,
            },
            flow_count: 150,
            seed: 31,
        };
        let stats = simulate_fct(&clos, &cfg, Transport::FairSharing);
        assert_eq!(stats.completed, 150);
    }

    #[test]
    fn records_match_stats_and_split_by_size() {
        let clos = ClosNetwork::standard(2);
        let cfg = FctConfig {
            arrival_rate: 6.0,
            size_dist: SizeDist::Bimodal {
                small: 0.25,
                large: 4.0,
                large_fraction: 0.3,
            },
            flow_count: 200,
            seed: 9,
        };
        let (stats, records) = simulate_fct_records(&clos, &cfg, Transport::FairSharing);
        assert_eq!(records.len(), stats.completed);
        // Stats are derived from records.
        let mean = records.iter().map(|r| r.fct).sum::<f64>() / records.len() as f64;
        assert!((mean - stats.mean_fct).abs() < 1e-12);
        // Per-class breakdown: both classes appear, and every record is
        // physically sane (FCT at least the ideal service time).
        let mice: Vec<_> = records.iter().filter(|r| r.size == 0.25).collect();
        let elephants: Vec<_> = records.iter().filter(|r| r.size == 4.0).collect();
        assert!(!mice.is_empty() && !elephants.is_empty());
        for r in &records {
            assert!(r.fct >= r.size - 1e-9, "FCT below ideal: {r:?}");
            assert!(r.slowdown() >= 1.0 - 1e-9);
            assert!(r.arrival >= 0.0);
        }
    }

    #[test]
    fn scheduling_preempts_a_later_flow_for_an_earlier_one() {
        // A (t = 0) holds host 0's uplink until t = 2, so B (t = 0.5, also
        // from host 0) waits. C (t = 1) shares no link with A and starts at
        // once, but shares B's destination host link. When A departs, B
        // outranks C in arrival order and takes that link: C stops at t = 2
        // with one unit done and resumes when B finishes at t = 3.
        let clos = ClosNetwork::standard(2);
        let host = |tor: usize| tor * clos.hosts_per_tor();
        let arrivals = [
            (0.0, host(0), host(1), 2.0),
            (0.5, host(0), host(2), 1.0),
            (1.0, host(3), host(2), 2.0),
        ];
        let (stats, records) = simulate_arrivals(&clos, &arrivals, Transport::Scheduling);
        let fates: Vec<(f64, f64)> = records.iter().map(|r| (r.arrival, r.fct)).collect();
        assert_eq!(fates, [(0.0, 2.0), (0.5, 2.5), (1.0, 3.0)]);
        assert_eq!(stats.makespan, 4.0);
    }

    #[test]
    #[should_panic(expected = "flow_count must be positive")]
    fn zero_flows_rejected() {
        let clos = ClosNetwork::standard(1);
        let cfg = FctConfig {
            arrival_rate: 1.0,
            size_dist: SizeDist::Fixed(1.0),
            flow_count: 0,
            seed: 0,
        };
        let _ = simulate_fct(&clos, &cfg, Transport::FairSharing);
    }
}
