//! Churn driver of the repository benchmark (`perfbench/run.py` runs it).
//!
//! Runs one pass of a churn workload: replays a seeded open-loop Poisson
//! trace through `clos-churn`'s public API on `C_4` with the greedy policy,
//! timing each call from outside the engine.
//!
//! * `churn-bulk` — about 1.1e5 live flows, `flush` every 2048 events,
//!   4e5 events: throughput at scale;
//! * `churn-fresh` — about 512 live flows, `flush` after every event, 3e4
//!   events: the latency of publishing fresh rates.
//!
//! The pass first generates its trace and builds its engine (set-up,
//! timed on its own), then replays the trace. Afterwards the live routing
//! is rebuilt through public accessors and recomputed with a fresh
//! `WaterfillInstance<TotalF64>`; every live rate must match bit for bit.
//!
//! With `--trace 1` the pass records spans around every `apply`, every
//! `flush` and every checkpoint recompute, turns on the telemetry registry
//! while the engine runs, and reports per-layer values instead of
//! end-to-end ones.
//!
//! `--reference N` instead times the reference kernel `N` times (see
//! [`reference_kernel`]) and prints one time per line.
//!
//! Otherwise the last line of standard output is one JSON object,
//! `{"attempted":…,"failed":…,"values":{"name":…,…}}`.
//!
//! ```text
//! perfbench-churn --workload churn-bulk|churn-fresh --seed N --trace 0|1
//!                 [--events N]
//! perfbench-churn --reference N
//! ```

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use clos_churn::{
    ChurnConfig, ChurnEngine, FlowEvent, OnlinePolicy, Pattern, SizeDist, TraceConfig,
    TraceGenerator,
};
use clos_fairness::{WaterfillInstance, WaterfillScratch};
use clos_net::{ClosNetwork, Fabric, LinkId};
use clos_rational::{Scalar, TotalF64};
use clos_telemetry::Snapshot;

/// One churn workload: a trace shape plus how often rates are published.
struct Workload {
    name: &'static str,
    /// Poisson arrivals per simulated second.
    rate: u64,
    /// Mean exponential lifetime; `rate × mean` is the steady live count.
    mean_ns: u64,
    /// Events per pass.
    events: usize,
    /// Events between flushes.
    flush_every: usize,
    /// Events between traced-run checkpoints (a multiple of `flush_every`).
    checkpoint_every: usize,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "churn-bulk",
        rate: 1_000_000,
        mean_ns: 130_000_000,
        events: 400_000,
        flush_every: 2048,
        checkpoint_every: 32_768,
    },
    Workload {
        name: "churn-fresh",
        rate: 1_000_000,
        mean_ns: 512_000,
        events: 30_000,
        flush_every: 1,
        checkpoint_every: 1024,
    },
];

enum Mode {
    Pass {
        workload: &'static Workload,
        seed: u64,
        trace: bool,
        events: usize,
    },
    Reference(usize),
}

const USAGE: &str = "usage: perfbench-churn --workload churn-bulk|churn-fresh --seed N \
--trace 0|1 [--events N]\n       perfbench-churn --reference N";

fn parse_args() -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut trace = false;
    let mut events = None;
    let mut reference = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = args.next().ok_or(format!("{arg} needs a value\n{USAGE}"))?;
        let bad = || format!("bad {arg} {value}");
        let count = || match value.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(bad()),
        };
        match arg.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.iter().find(|w| w.name == value).ok_or_else(bad)?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--events" => events = Some(count()?),
            "--reference" => reference = Some(count()?),
            _ => return Err(format!("unknown argument {arg}\n{USAGE}")),
        }
    }
    if let Some(reps) = reference {
        return Ok(Mode::Reference(reps));
    }
    let workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    Ok(Mode::Pass {
        workload,
        seed,
        trace,
        events: events.unwrap_or(workload.events),
    })
}

/// Fixed work owned by the benchmark: pseudo-random read-modify-writes over
/// a 16 MiB table, then a sort of 64 Ki keys. `run.py` times it next to
/// each pass; a shared host that slows the pass slows this too, so the
/// ratio cancels most of that load. Returns wall seconds.
fn reference_kernel() -> f64 {
    const TABLE: usize = 1 << 22;
    let mut table: Vec<u32> = (0..TABLE as u32).collect();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc: u64 = 0;
    let start = Instant::now();
    for _ in 0..3_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & (TABLE - 1);
        acc = acc.wrapping_add(u64::from(table[i]));
        table[i] = table[i].wrapping_mul(3).wrapping_add(acc as u32);
    }
    let mut keys: Vec<u64> = (0..1u64 << 16)
        .map(|k| k.wrapping_mul(x | 1) ^ acc)
        .collect();
    keys.sort_unstable();
    black_box(&keys);
    start.elapsed().as_secs_f64()
}

fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Nearest-rank percentile of a sorted slice (0 when empty).
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Rebuilds the engine's live routing through its public accessors,
/// recomputes every rate with a fresh compiled waterfill, and compares bit
/// for bit. Returns (flows checked, mismatches, nanoseconds spent in the
/// compile and run of the recompute).
fn check(engine: &ChurnEngine<TotalF64>, clos: &ClosNetwork) -> (u64, u64, u64) {
    let mut published = Vec::with_capacity(engine.live());
    let mut links: Vec<LinkId> = Vec::new();
    let mut starts = vec![0];
    for (key, rate) in engine.live_flows() {
        let flow = engine.flow(key).expect("a live key has endpoints");
        let class = engine.class_of(key).expect("a live key has a placement");
        clos.append_links_via(flow, class, &mut links);
        starts.push(links.len());
        published.push(rate);
    }
    if published.is_empty() {
        return (0, 0, 0);
    }

    let start = Instant::now();
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
    let nanos = nanos_since(start);

    let mismatches = published
        .iter()
        .zip(scratch.rates())
        .filter(|(a, b)| a.to_f64().to_bits() != b.to_f64().to_bits())
        .count();
    (published.len() as u64, mismatches as u64, nanos)
}

/// The result of one pass: correctness counts plus named values.
struct Pass {
    attempted: u64,
    failed: u64,
    values: Vec<(&'static str, f64)>,
}

/// Generates the trace, builds the engine, replays the trace, and checks
/// the final allocation.
fn run_pass(w: &Workload, seed: u64, traced: bool, events: usize) -> Pass {
    let clos = ClosNetwork::standard(4);
    let setup = Instant::now();
    let config = TraceConfig {
        arrival_rate_per_sec: w.rate,
        lifetime: SizeDist::Exponential { mean_ns: w.mean_ns },
        pattern: Pattern::Uniform,
        events,
        seed,
    };
    let trace: Vec<FlowEvent> = TraceGenerator::new(&clos, &config)
        .map(|t| t.event)
        .collect();
    // Flushes are explicit, so the engine's own batching never fires.
    let mut engine = ChurnEngine::<TotalF64>::new(
        clos.clone(),
        OnlinePolicy::greedy(),
        ChurnConfig {
            batch: usize::MAX,
            verify: false,
        },
    );
    let setup_s = setup.elapsed().as_secs_f64();

    let mut pass = Pass {
        attempted: 0,
        failed: 0,
        values: Vec::new(),
    };
    let last = trace.len();
    let flushes_at = |i: usize| (i + 1).is_multiple_of(w.flush_every) || i + 1 == last;
    if traced {
        let (mut apply_ns, mut flush_ns, mut recompute_ns) = (0u64, Vec::new(), Vec::new());
        clos_telemetry::set_enabled(true);
        let before = Snapshot::take();
        for (i, &event) in trace.iter().enumerate() {
            let t = Instant::now();
            engine.apply(event);
            apply_ns += nanos_since(t);
            if flushes_at(i) {
                let t = Instant::now();
                engine.flush();
                flush_ns.push(nanos_since(t));
                if (i + 1).is_multiple_of(w.checkpoint_every) && i + 1 != last {
                    // The reference recompute stays out of the engine's
                    // telemetry.
                    clos_telemetry::set_enabled(false);
                    let (checked, bad, nanos) = check(&engine, &clos);
                    clos_telemetry::set_enabled(true);
                    pass.attempted += checked;
                    pass.failed += bad;
                    recompute_ns.push(nanos);
                }
            }
        }
        let telemetry = Snapshot::take().delta_since(&before);
        clos_telemetry::set_enabled(false);
        let counter = |name: &str| {
            telemetry
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, v)| v)
        };

        let (checked, bad, nanos) = check(&engine, &clos);
        pass.attempted += checked;
        pass.failed += bad;
        recompute_ns.push(nanos);
        flush_ns.sort_unstable();
        recompute_ns.sort_unstable();
        let flush_p50_us = percentile(&flush_ns, 0.50) / 1e3;
        let full_us = percentile(&recompute_ns, 0.50) / 1e3;
        let s = engine.stats();
        pass.values = vec![
            ("churn.apply_ns", ratio(apply_ns, last as u64)),
            ("churn.applies", last as f64),
            ("churn.flush_us_p50", flush_p50_us),
            ("churn.flush_us_p90", percentile(&flush_ns, 0.90) / 1e3),
            ("churn.flushes", flush_ns.len() as f64),
            ("churn.epochs", s.epochs as f64),
            (
                "churn.recomputed_per_epoch",
                ratio(s.recomputed_flows, s.epochs),
            ),
            (
                "churn.dirty_links_per_epoch",
                ratio(s.dirty_links, s.epochs),
            ),
            ("churn.recomputed_flows", s.recomputed_flows as f64),
            ("churn.reused_flows", s.reused_flows as f64),
            ("churn.dirty_links", s.dirty_links as f64),
            (
                "churn.reuse_frac",
                ratio(s.reused_flows, s.reused_flows + s.recomputed_flows),
            ),
            (
                "churn.flush_vs_full",
                if full_us > 0.0 {
                    flush_p50_us / full_us
                } else {
                    0.0
                },
            ),
            ("churn.epoch_s", counter("churn.epoch.nanos") as f64 / 1e9),
            ("fairness.full_recompute_us", full_us),
            ("fairness.full_recomputes", recompute_ns.len() as f64),
            (
                "fairness.waterfill_s",
                counter("waterfill.nanos") as f64 / 1e9,
            ),
            (
                "fairness.waterfill_calls",
                counter("waterfill.calls") as f64,
            ),
            (
                "fairness.waterfill_rounds",
                counter("waterfill.rounds") as f64,
            ),
        ];
    } else {
        // Each event's publish latency runs from the start of its `apply`
        // to the return of the `flush` that publishes its rates.
        let mut latency = Vec::with_capacity(last);
        let mut pending = Vec::with_capacity(w.flush_every);
        let start = Instant::now();
        for (i, &event) in trace.iter().enumerate() {
            pending.push(nanos_since(start));
            engine.apply(event);
            if flushes_at(i) {
                engine.flush();
                let published = nanos_since(start);
                latency.extend(pending.drain(..).map(|t| published - t));
            }
        }
        let pass_s = start.elapsed().as_secs_f64();
        latency.sort_unstable();

        let (checked, bad, _) = check(&engine, &clos);
        pass.attempted += checked;
        pass.failed += bad;
        pass.values = vec![
            ("setup_s", setup_s),
            ("pass_s", pass_s),
            ("events_per_s", last as f64 / pass_s),
            ("publish_p50_us", percentile(&latency, 0.50) / 1e3),
            ("publish_p99_us", percentile(&latency, 0.99) / 1e3),
            ("publish_samples", latency.len() as f64),
        ];
    }
    pass.attempted += 1;
    pass.failed += u64::from(engine.stats().events != last as u64);
    pass
}

fn main() -> ExitCode {
    let mode = match parse_args() {
        Ok(mode) => mode,
        Err(message) => {
            eprintln!("perfbench-churn: {message}");
            return ExitCode::FAILURE;
        }
    };
    let (workload, seed, traced, events) = match mode {
        Mode::Reference(reps) => {
            for _ in 0..reps {
                println!("{}", reference_kernel());
            }
            return ExitCode::SUCCESS;
        }
        Mode::Pass {
            workload,
            seed,
            trace,
            events,
        } => (workload, seed, trace, events),
    };
    let pass = run_pass(workload, seed, traced, events);
    let values: Vec<String> = pass
        .values
        .iter()
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .collect();
    println!(
        "{{\"attempted\":{},\"failed\":{},\"values\":{{{}}}}}",
        pass.attempted,
        pass.failed,
        values.join(",")
    );
    ExitCode::SUCCESS
}
