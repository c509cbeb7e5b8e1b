//! Bit-identity of the FCT simulator against its plain reference loop.
//!
//! [`reference_records`] is the event loop written without any of the
//! simulator's bookkeeping: every event it recomputes scheduling admission
//! from scratch (sort the active set by arrival, look up each flow's path,
//! scan it against a fresh link-occupancy table) and allocates fresh rate
//! vectors. `simulate_fct_records` keeps cached link ids, an arrival-ordered
//! index and reused buffers, and re-admits only the suffix an event can
//! change; these tests pin that it produces the same `FctStats` and the same
//! records, in the same order, bit for bit, under both transports.

use clos_churn::{ChurnConfig, ChurnEngine, FlowEvent, FlowKey, OnlinePolicy};
use clos_net::{ClosNetwork, Flow};
use clos_rational::TotalF64;
use clos_sim::{simulate_fct_records, FctConfig, FctStats, FlowRecord, SizeDist, Transport};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws one flow size exactly as the simulator does.
fn sample(dist: SizeDist, rng: &mut StdRng) -> f64 {
    match dist {
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

struct Active {
    key: FlowKey,
    flow: Flow,
    middle: usize,
    remaining: f64,
    arrival: f64,
    size: f64,
}

/// The FCT event loop with every rate recomputed from scratch per event.
fn reference_records(
    clos: &ClosNetwork,
    config: &FctConfig,
    transport: Transport,
) -> (FctStats, Vec<FlowRecord>) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let hosts = clos.tor_count() * clos.hosts_per_tor();
    let mut arrivals = Vec::with_capacity(config.flow_count);
    let mut t_arr = 0.0;
    for seq in 0..config.flow_count {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t_arr += -u.ln() / config.arrival_rate;
        let src = rng.gen_range(0..hosts);
        let dst = rng.gen_range(0..hosts);
        let size = sample(config.size_dist, &mut rng);
        arrivals.push((t_arr, src, dst, size, seq));
    }

    let mut engine = ChurnEngine::<TotalF64>::new(
        clos.clone(),
        OnlinePolicy::greedy(),
        ChurnConfig {
            batch: usize::MAX,
            verify: false,
        },
    );
    let mut active: Vec<Active> = Vec::new();
    let mut records: Vec<FlowRecord> = Vec::new();
    let mut now = 0.0f64;
    let mut next_arrival = 0usize;
    let mut makespan = 0.0f64;

    let compute_rates = |engine: &mut ChurnEngine<TotalF64>, active: &[Active]| -> Vec<f64> {
        match transport {
            Transport::FairSharing => {
                engine.flush();
                active
                    .iter()
                    .map(|a| engine.rate(a.key).unwrap().get())
                    .collect()
            }
            Transport::Scheduling => {
                let mut order: Vec<usize> = (0..active.len()).collect();
                order.sort_by_key(|&i| active[i].key);
                let mut used = vec![false; clos.network().link_count()];
                let mut rates = vec![0.0; active.len()];
                for &i in &order {
                    let path = clos.path_via(active[i].flow, active[i].middle);
                    if path.links().iter().all(|e| !used[e.index()]) {
                        for e in path.links() {
                            used[e.index()] = true;
                        }
                        rates[i] = 1.0;
                    }
                }
                rates
            }
        }
    };

    const EPS: f64 = 1e-12;
    loop {
        if active.is_empty() && next_arrival == arrivals.len() {
            break;
        }
        let rates = compute_rates(&mut engine, &active);
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
        assert!(dt.is_finite(), "reference simulation stalled");
        for (a, &r) in active.iter_mut().zip(&rates) {
            a.remaining -= r * dt;
        }
        now += dt;

        if dt_complete <= dt_arrival {
            let mut i = 0;
            while i < active.len() {
                if active[i].remaining <= EPS * active[i].size.max(1.0) {
                    let a = active.swap_remove(i);
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
            let (_, src, dst, size, seq) = arrivals[next_arrival];
            next_arrival += 1;
            let flow = Flow::new(
                clos.source(src / clos.hosts_per_tor(), src % clos.hosts_per_tor()),
                clos.destination(dst / clos.hosts_per_tor(), dst % clos.hosts_per_tor()),
            );
            let key = seq as FlowKey;
            engine.apply(FlowEvent::Arrive { key, flow });
            let middle = engine.class_of(key).unwrap();
            active.push(Active {
                key,
                flow,
                middle,
                remaining: size,
                arrival: now,
                size,
            });
        }
    }

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
        max_fct: *sorted.last().unwrap(),
        mean_slowdown: records.iter().map(FlowRecord::slowdown).sum::<f64>() / records.len() as f64,
        makespan,
    };
    (stats, records)
}

fn stats_bits(s: &FctStats) -> [u64; 7] {
    [
        s.completed as u64,
        s.mean_fct.to_bits(),
        s.p50_fct.to_bits(),
        s.p99_fct.to_bits(),
        s.max_fct.to_bits(),
        s.mean_slowdown.to_bits(),
        s.makespan.to_bits(),
    ]
}

fn record_bits(records: &[FlowRecord]) -> Vec<[u64; 3]> {
    records
        .iter()
        .map(|r| [r.arrival.to_bits(), r.size.to_bits(), r.fct.to_bits()])
        .collect()
}

/// Asserts the simulator and the reference agree bit for bit.
fn assert_matches_reference(clos: &ClosNetwork, config: &FctConfig, transport: Transport) {
    let (stats, records) = simulate_fct_records(clos, config, transport);
    let (want_stats, want_records) = reference_records(clos, config, transport);
    assert_eq!(
        stats_bits(&stats),
        stats_bits(&want_stats),
        "{transport:?} {config:?}: {stats:?} vs {want_stats:?}"
    );
    assert_eq!(
        record_bits(&records),
        record_bits(&want_records),
        "{transport:?} {config:?}: records differ"
    );
}

fn config_for(
    clos: &ClosNetwork,
    load: f64,
    size_dist: SizeDist,
    flows: usize,
    seed: u64,
) -> FctConfig {
    let mut config = FctConfig {
        arrival_rate: 1.0,
        size_dist,
        flow_count: flows,
        seed,
    };
    config.arrival_rate = load / config.offered_load(clos);
    config
}

fn size_dist(choice: u8) -> SizeDist {
    match choice {
        0 => SizeDist::Fixed(1.0),
        1 => SizeDist::Exponential(1.0),
        _ => SizeDist::Bimodal {
            small: 0.25,
            large: 4.0,
            large_fraction: 0.2,
        },
    }
}

/// E7's fabric, sizes and offered loads (C_3, fixed sizes, loads below and
/// above saturation) at a fifth of its flow count.
#[test]
fn e7_cells_match_reference() {
    let clos = ClosNetwork::standard(3);
    for load in [0.4, 0.8, 1.2, 1.6] {
        let config = config_for(&clos, load, SizeDist::Fixed(1.0), 400, 1);
        for transport in [Transport::FairSharing, Transport::Scheduling] {
            assert_matches_reference(&clos, &config, transport);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random fabrics, size distributions, loads and seeds: both
    /// transports stay bit-identical to the reference.
    #[test]
    fn simulator_matches_reference(
        n in 2usize..4,
        choice in 0u8..3,
        load_pct in 10u32..200,
        flows in 20usize..160,
        seed in 0u64..1_000_000,
    ) {
        let clos = ClosNetwork::standard(n);
        let config = config_for(&clos, f64::from(load_pct) / 100.0, size_dist(choice), flows, seed);
        for transport in [Transport::FairSharing, Transport::Scheduling] {
            assert_matches_reference(&clos, &config, transport);
        }
    }
}
