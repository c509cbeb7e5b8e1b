//! `bench_churn` — sustained-throughput benchmark of the incremental
//! flow-churn engine (`clos-churn`) on open-loop Poisson traces.
//!
//! Two standard scenarios ride the versioned `BENCH_churn.json` report:
//!
//! * **c3** — `C_3` (72 fabric links) at a steady-state target of about
//!   3×10⁴ concurrent flows over 1.5×10⁵ events;
//! * **c4** — `C_4` (128 fabric links) at a target above 10⁵ concurrent
//!   flows over 4×10⁵ events — the scale evidence for the ≥10⁵
//!   sustained flow-events/sec acceptance gate (`--min-events-per-sec`).
//!
//! Every scenario row records the engine's deterministic counters
//! (events, arrivals, departures, epochs, peak/final concurrency,
//! recomputed flows and paths — their ratio is the mean number of flows
//! sharing a recomputed path — and the reused flows, those on paths
//! frozen in water-filling rounds replayed from the previous epoch) plus
//! the FNV-1a
//! rate checksum of the final flushed allocation; `bench_compare`
//! treats those as exact and only the wall-derived metrics (`wall_ms`,
//! `events_per_sec`) as noisy. `--stable` zeroes the wall-derived metrics so the report is
//! byte-reproducible for baseline refreshes.
//!
//! The wall clock covers trace generation as well as the engine: events
//! are drawn from the `TraceGenerator` inside the timed loop, so
//! `events_per_sec` is the rate of generating and applying them (the
//! generator's departure queue is part of the measured cost).
//!
//! `--epochs-out PATH` additionally publishes the rate epochs: at every
//! `--checkpoint` multiple of applied events the engine is flushed and
//! one JSON line `{"event":…,"live":…,"checksum":"…"}` is appended.
//! Because the engine's flushed state is a pure function of the event
//! prefix (batching only defers, never changes, recomputation), two
//! runs over the same trace with *different* `--batch` sizes must
//! produce **byte-identical** epoch files — CI diffs them.
//!
//! Usage:
//!
//! ```text
//! bench_churn [--scale c3|c4|both] [--events N] [--batch B]
//!             [--checkpoint N] [--policy ecmp|greedy|first-fit]
//!             [--seed S] [--stable] [--out PATH] [--epochs-out PATH]
//!             [--min-events-per-sec X]
//! ```

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use clos_churn::{
    ChurnConfig, ChurnEngine, OnlinePolicy, Pattern, SizeDist, TraceConfig, TraceGenerator,
};
use clos_net::ClosNetwork;
use clos_rational::TotalF64;
use clos_telemetry::json::JsonValue;

/// Parsed command-line options.
struct Options {
    scale: String,
    events: Option<usize>,
    batch: usize,
    checkpoint: usize,
    policy: String,
    seed: u64,
    stable: bool,
    out: String,
    epochs_out: Option<String>,
    min_events_per_sec: f64,
}

const USAGE: &str = "usage: bench_churn [--scale c3|c4|both] [--events N] [--batch B] \
[--checkpoint N] [--policy P] [--seed S] [--stable] [--out PATH] [--epochs-out PATH] \
[--min-events-per-sec X]
  --scale SCALE            scenario set: c3, c4, or both (default both)
  --events N               override the per-scenario event count
  --batch B                events per recompute epoch (default 2048)
  --checkpoint N           flush and publish an epoch record every N events
                           (default 2048; used with --epochs-out)
  --policy P               online policy: ecmp, greedy, or first-fit
                           (default greedy)
  --seed S                 trace and policy seed (default 42)
  --stable                 zero wall-derived metrics for byte-reproducible output
  --out PATH               output JSON path (default BENCH_churn.json)
  --epochs-out PATH        write JSON-lines rate epochs for cross-batch byte-diffs
  --min-events-per-sec X   fail unless every scenario sustains X events/sec
                           (default 0: record without gating)";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        scale: "both".to_string(),
        events: None,
        batch: 2048,
        checkpoint: 2048,
        policy: "greedy".to_string(),
        seed: 42,
        stable: false,
        out: "BENCH_churn.json".to_string(),
        epochs_out: None,
        min_events_per_sec: 0.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--scale" => {
                let v = value("--scale")?;
                if !["c3", "c4", "both"].contains(&v.as_str()) {
                    return Err(format!("bad --scale {v} (want c3, c4, or both)"));
                }
                opts.scale = v;
            }
            "--events" => {
                let v = value("--events")?;
                let n: usize = v.parse().map_err(|_| format!("bad --events {v}"))?;
                if n == 0 {
                    return Err("--events must be positive".to_string());
                }
                opts.events = Some(n);
            }
            "--batch" => {
                let v = value("--batch")?;
                let b: usize = v.parse().map_err(|_| format!("bad --batch {v}"))?;
                if b == 0 {
                    return Err("--batch must be positive".to_string());
                }
                opts.batch = b;
            }
            "--checkpoint" => {
                let v = value("--checkpoint")?;
                let c: usize = v.parse().map_err(|_| format!("bad --checkpoint {v}"))?;
                if c == 0 {
                    return Err("--checkpoint must be positive".to_string());
                }
                opts.checkpoint = c;
            }
            "--policy" => {
                let v = value("--policy")?;
                if OnlinePolicy::from_name(&v, 0).is_none() {
                    return Err(format!(
                        "bad --policy {v} (want ecmp, greedy, or first-fit)"
                    ));
                }
                opts.policy = v;
            }
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--stable" => opts.stable = true,
            "--out" => opts.out = value("--out")?,
            "--epochs-out" => opts.epochs_out = Some(value("--epochs-out")?),
            "--min-events-per-sec" => {
                let v = value("--min-events-per-sec")?;
                opts.min_events_per_sec = v
                    .parse()
                    .map_err(|_| format!("bad --min-events-per-sec {v}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// One churn scenario: a topology scale plus a trace sized (via
/// Little's law, target ≈ rate × mean lifetime) for its steady-state
/// concurrency target.
struct Scenario {
    name: &'static str,
    n: usize,
    /// Poisson arrival rate (flows per simulated second).
    rate: u64,
    /// Mean exponential lifetime in nanoseconds.
    mean_ns: u64,
    /// Default total event budget.
    events: usize,
}

const SCENARIOS: &[Scenario] = &[
    // ~3e4 steady-state concurrent flows on C_3.
    Scenario {
        name: "c3",
        n: 3,
        rate: 1_000_000,
        mean_ns: 30_000_000,
        events: 150_000,
    },
    // Target 1.3e5 concurrent flows on C_4: after ~4e5 events the ramp
    // has passed 1e5 live flows (the acceptance floor).
    Scenario {
        name: "c4",
        n: 4,
        rate: 1_000_000,
        mean_ns: 130_000_000,
        events: 400_000,
    },
];

/// One scenario's measured run.
struct Measured {
    stats: clos_churn::RecomputeStats,
    final_live: usize,
    checksum: u64,
    wall_ms: f64,
    epochs_lines: String,
}

fn run_scenario(s: &Scenario, opts: &Options) -> Measured {
    let clos = ClosNetwork::standard(s.n);
    let events = opts.events.unwrap_or(s.events);
    let trace_cfg = TraceConfig {
        arrival_rate_per_sec: s.rate,
        lifetime: SizeDist::Exponential { mean_ns: s.mean_ns },
        pattern: Pattern::Uniform,
        events,
        seed: opts.seed,
    };
    let policy = OnlinePolicy::from_name(&opts.policy, opts.seed).expect("validated in parse_args");
    let mut engine = ChurnEngine::<TotalF64>::new(
        clos.clone(),
        policy,
        ChurnConfig {
            batch: opts.batch,
            verify: false,
        },
    );
    let mut epochs_lines = String::new();
    let mut applied = 0usize;
    let start = Instant::now();
    for ev in TraceGenerator::new(&clos, &trace_cfg) {
        engine.apply(ev.event);
        applied += 1;
        if opts.epochs_out.is_some() && applied.is_multiple_of(opts.checkpoint) {
            engine.flush();
            writeln!(
                epochs_lines,
                "{{\"scenario\":\"{}\",\"event\":{},\"live\":{},\"checksum\":\"{:016x}\"}}",
                s.name,
                applied,
                engine.live(),
                engine.checksum()
            )
            .expect("writing to a String cannot fail");
        }
    }
    engine.flush();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Measured {
        stats: engine.stats(),
        final_live: engine.live(),
        checksum: engine.checksum(),
        wall_ms,
        epochs_lines,
    }
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    let selected: Vec<&Scenario> = SCENARIOS
        .iter()
        .filter(|s| opts.scale == "both" || opts.scale == s.name)
        .collect();

    let mut rows = Vec::new();
    let mut epochs_file = String::new();
    let mut slowest = f64::INFINITY;
    println!(
        "{:<4} {:>9} {:>7} {:>8} {:>10} {:>10} {:>12} {:>12}",
        "run", "events", "epochs", "batch", "peak_live", "final_live", "wall_ms", "events/s"
    );
    for s in &selected {
        let m = run_scenario(s, &opts);
        let events = opts.events.unwrap_or(s.events) as u64;
        assert_eq!(m.stats.events, events, "trace must deliver every event");
        let events_per_sec = events as f64 / (m.wall_ms / 1e3).max(1e-12);
        slowest = slowest.min(events_per_sec);
        println!(
            "{:<4} {:>9} {:>7} {:>8} {:>10} {:>10} {:>12.1} {:>12.0}",
            s.name,
            events,
            m.stats.epochs,
            opts.batch,
            m.stats.peak_live,
            m.final_live,
            m.wall_ms,
            events_per_sec
        );
        let (wall_ms, events_per_sec) = if opts.stable {
            (0.0, 0.0)
        } else {
            (m.wall_ms, events_per_sec)
        };
        rows.push(JsonValue::Object(vec![
            ("scenario".to_string(), JsonValue::from(s.name)),
            ("n".to_string(), JsonValue::from(s.n)),
            ("policy".to_string(), JsonValue::from(opts.policy.as_str())),
            ("batch".to_string(), JsonValue::from(opts.batch)),
            ("events".to_string(), JsonValue::from(m.stats.events)),
            ("arrivals".to_string(), JsonValue::from(m.stats.arrivals)),
            (
                "departures".to_string(),
                JsonValue::from(m.stats.departures),
            ),
            ("epochs".to_string(), JsonValue::from(m.stats.epochs)),
            (
                "peak_concurrent".to_string(),
                JsonValue::from(m.stats.peak_live),
            ),
            ("final_live".to_string(), JsonValue::from(m.final_live)),
            (
                "recomputed_flows".to_string(),
                JsonValue::from(m.stats.recomputed_flows),
            ),
            (
                "recomputed_paths".to_string(),
                JsonValue::from(m.stats.recomputed_paths),
            ),
            (
                "reused_flows".to_string(),
                JsonValue::from(m.stats.reused_flows),
            ),
            (
                "rate_checksum".to_string(),
                JsonValue::from(format!("{:016x}", m.checksum)),
            ),
            ("wall_ms".to_string(), JsonValue::from(wall_ms)),
            (
                "events_per_sec".to_string(),
                JsonValue::from(events_per_sec),
            ),
        ]));
        epochs_file.push_str(&m.epochs_lines);
    }

    let report = JsonValue::Object(vec![
        ("schema".to_string(), JsonValue::from("bench_churn/v1")),
        ("seed".to_string(), JsonValue::from(opts.seed)),
        ("stable".to_string(), JsonValue::from(opts.stable)),
        ("scenarios".to_string(), JsonValue::Array(rows)),
    ]);
    fs::write(&opts.out, format!("{report}\n")).map_err(|e| format!("write {}: {e}", opts.out))?;
    println!("report written to {}", opts.out);
    if let Some(path) = &opts.epochs_out {
        fs::write(path, &epochs_file).map_err(|e| format!("write {path}: {e}"))?;
        println!("rate epochs written to {path}");
    }

    if opts.min_events_per_sec > 0.0 && slowest < opts.min_events_per_sec {
        return Err(format!(
            "sustained rate {slowest:.0} events/sec below the required {:.0}",
            opts.min_events_per_sec
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench_churn: {message}");
            ExitCode::FAILURE
        }
    }
}
