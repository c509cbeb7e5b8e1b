//! `bench_search` — wall-clock benchmark of the branch-and-bound routing
//! search on fixed, deterministic instances.
//!
//! Three engine configurations run on each instance:
//!
//! * **baseline** — one thread, pruning disabled: the pre-engine
//!   exhaustive scan over the canonical enumeration;
//! * **prune** — one thread, pruning enabled: isolates the
//!   branch-and-bound contribution;
//! * **tuned** — pruning plus the auto-selected thread count (or
//!   `--threads N`): the production configuration.
//!
//! All three must return byte-identical `RoutedAllocation`s — the binary
//! exits nonzero on any divergence, so CI doubles as a determinism gate.
//! Results land in a single JSON document (default `BENCH_search.json`)
//! with per-configuration wall times, examined/pruned counts, and the
//! prune-only and total speedups.
//!
//! The instances are hand-built (no RNG): a tie-rich C_3 collection, a
//! 9-flow hot-ToR C_3 collection, a 9-flow hot-ToR C_4 collection that
//! doubles as the n = 4 scale evidence for the e-series experiments, and
//! e15's full terminal permutation of the Benes network B_3 under its
//! 4:1 interior overlay — the fabric where the search stops at a proven
//! optimum (every flow gets its interior cap), so the exit's exact
//! counts are gated with the rest.
//!
//! Beyond the end-to-end searches, the run microbenchmarks the compiled
//! evaluation pipeline directly (`eval_pipeline` in the report): repeated
//! `Problem::evaluate` + `Objective::beats` rounds on the hot-ToR C_4
//! instance through one warmed [`EvalScratch`]. The binary's allocator is
//! a counting wrapper around the system allocator, and the run **fails**
//! if the timed steady-state loop performs a single heap allocation —
//! CI-enforcing the scratch-reuse contract. Each configuration row also
//! reports `evals_per_sec` (examined routings over wall time).
//!
//! Usage:
//!
//! ```text
//! bench_search [--out PATH] [--threads N] [--min-speedup X] [--reps R]
//!              [--profile]
//! ```
//!
//! `--min-speedup X` makes the run fail unless the best total speedup
//! (baseline / tuned) over the Clos instance/objective rows reaches `X`
//! (the `benes3x4` row is recorded but not gated on speed); the default
//! `0` records without gating, for single-core or otherwise
//! wall-clock-hostile environments.
//!
//! `--profile` attaches the engine's [`SearchProfile`] to every
//! configuration row: per-depth node/prune/improvement histograms and
//! prune-provenance counters (symmetry-canonical rejection vs. admissible
//! prefix bound vs. block exhaustion vs. the proven-optimum exit: blocks
//! stopped at a proven optimum, blocks never started). The histograms
//! are exact engine counts, deterministic for any thread count, so they
//! double as exact regression metrics for `bench_compare`.

use std::fs;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use clos_bench::experiments::e15_topologies::ring_flows;
use clos_core::compiled::EvalScratch;
use clos_core::objectives::{
    search_lex_max_min_with, search_throughput_max_min_with, SearchProfile, SearchStats,
};
use clos_core::search::{
    search_threads, set_search_threads, LexMaxMin, Objective, Problem, SearchConfig,
};
use clos_core::RoutedAllocation;
use clos_fairness::SortedRates;
use clos_net::{interior_overlay, BenesNetwork, ClosNetwork, Fabric, Flow};
use clos_rational::Rational;
use clos_telemetry::json::JsonValue;

// The counting allocator lives in `vendor/counting-alloc`: implementing
// `GlobalAlloc` is inherently unsafe and the workspace lint contract
// forbids unsafe code in first-party crates.
#[global_allocator]
static GLOBAL: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Parsed command-line options.
struct Options {
    out: String,
    threads: Option<usize>,
    min_speedup: f64,
    reps: u32,
    profile: bool,
}

const USAGE: &str = "usage: bench_search [--out PATH] [--threads N] [--min-speedup X] [--reps R] \
[--profile]
  --out PATH        output JSON path (default BENCH_search.json)
  --threads N       thread count for the tuned configuration (default: auto)
  --min-speedup X   fail unless some Clos row speeds up by at least X (default 0)
  --reps R          timing repetitions per configuration, best-of (default 3)
  --profile         attach per-depth search-tree histograms and
                    prune-provenance counters to every configuration row";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        out: "BENCH_search.json".to_string(),
        threads: None,
        min_speedup: 0.0,
        reps: 3,
        profile: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--out" => opts.out = value("--out")?,
            "--threads" => {
                let v = value("--threads")?;
                let n: usize = v.parse().map_err(|_| format!("bad --threads {v}"))?;
                if n == 0 {
                    return Err("--threads must be positive".to_string());
                }
                opts.threads = Some(n);
            }
            "--min-speedup" => {
                let v = value("--min-speedup")?;
                opts.min_speedup = v.parse().map_err(|_| format!("bad --min-speedup {v}"))?;
            }
            "--reps" => {
                let v = value("--reps")?;
                let r: u32 = v.parse().map_err(|_| format!("bad --reps {v}"))?;
                if r == 0 {
                    return Err("--reps must be positive".to_string());
                }
                opts.reps = r;
            }
            "--profile" => opts.profile = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// A fixed benchmark instance: network size plus hand-picked flows.
struct Instance {
    name: &'static str,
    n: usize,
    coords: &'static [(usize, usize, usize, usize)],
}

/// The fixed Clos instance set, smallest first; the best total speedup
/// over these rows carries the `--min-speedup` gate.
const INSTANCES: &[Instance] = &[
    // Tie-rich: three identical flows plus two sharing a source ToR; every
    // spread of the triple over distinct middles produces an identical
    // key, stressing the first-canonical-wins tie-break.
    Instance {
        name: "ties3",
        n: 3,
        coords: &[
            (0, 0, 3, 0),
            (0, 0, 3, 0),
            (0, 0, 3, 0),
            (1, 0, 4, 0),
            (1, 1, 4, 1),
        ],
    },
    // Nine all-distinct flows on C_3, six of them leaving the three-uplink
    // ToR 0: uplink contention makes the lex prefix bound bite.
    Instance {
        name: "hot3",
        n: 3,
        coords: &[
            (0, 0, 3, 0),
            (0, 0, 3, 1),
            (0, 1, 4, 0),
            (0, 1, 4, 1),
            (0, 2, 5, 0),
            (0, 2, 5, 1),
            (1, 0, 3, 2),
            (1, 1, 4, 2),
            (2, 0, 5, 2),
        ],
    },
    // Nine flows on C_4 — the n = 4 scale evidence: five flows leave the
    // four-uplink ToR 0 (one uplink must carry two of them), plus a
    // permutation tail. The hot ToR drives the deepest pruning, so this
    // instance typically posts the gating speedup.
    Instance {
        name: "hot4",
        n: 4,
        coords: &[
            (0, 0, 4, 0),
            (0, 1, 4, 1),
            (0, 2, 4, 2),
            (0, 3, 4, 3),
            (0, 0, 5, 0),
            (1, 0, 5, 1),
            (1, 1, 6, 0),
            (2, 0, 6, 1),
            (3, 0, 7, 0),
        ],
    },
];

fn build(instance: &Instance) -> (ClosNetwork, Vec<Flow>) {
    let clos = ClosNetwork::standard(instance.n);
    let flows = instance
        .coords
        .iter()
        .map(|&(si, sj, ti, tj)| Flow::new(clos.source(si, sj), clos.destination(ti, tj)))
        .collect();
    (clos, flows)
}

/// One configuration's measurement: best-of-`reps` wall time plus the
/// (rep-invariant) search statistics and result.
struct Measured {
    wall_ms: f64,
    stats: SearchStats,
    result: RoutedAllocation,
}

fn measure<F: Fabric + Sync>(
    fabric: &F,
    flows: &[Flow],
    objective: &str,
    config: SearchConfig,
    reps: u32,
) -> Measured {
    let mut best_ms = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..reps {
        let start = Instant::now();
        let (result, stats) = match objective {
            "lex" => search_lex_max_min_with(fabric, flows, config),
            "throughput" => search_throughput_max_min_with(fabric, flows, config),
            other => unreachable!("unknown objective {other}"),
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ms < best_ms {
            best_ms = ms;
        }
        outcome = Some((result, stats));
    }
    let (result, stats) = outcome.expect("reps >= 1 enforced by parse_args");
    Measured {
        wall_ms: best_ms,
        stats,
        result,
    }
}

fn config_json(m: &Measured, with_profile: bool) -> JsonValue {
    let evals_per_sec = m.stats.routings_examined as f64 / (m.wall_ms / 1e3).max(1e-12);
    let mut fields = vec![
        ("wall_ms".to_string(), JsonValue::from(m.wall_ms)),
        (
            "routings_examined".to_string(),
            JsonValue::from(m.stats.routings_examined),
        ),
        ("pruned".to_string(), JsonValue::from(m.stats.pruned)),
        (
            "improvements".to_string(),
            JsonValue::from(m.stats.improvements),
        ),
        ("evals_per_sec".to_string(), JsonValue::from(evals_per_sec)),
    ];
    if with_profile {
        fields.push(("profile".to_string(), profile_json(&m.stats.profile)));
    }
    JsonValue::Object(fields)
}

/// Serializes a [`SearchProfile`] as a JSON object: the three per-depth
/// histograms plus the prune-provenance counters. Sampled branch traces
/// are summarized by count only — they are a debugging aid, not a
/// regression metric.
fn profile_json(p: &SearchProfile) -> JsonValue {
    let histogram =
        |values: &[u64]| JsonValue::Array(values.iter().map(|&v| JsonValue::from(v)).collect());
    JsonValue::Object(vec![
        ("depth_nodes".to_string(), histogram(&p.depth_nodes)),
        ("depth_pruned".to_string(), histogram(&p.depth_pruned)),
        (
            "depth_improvements".to_string(),
            histogram(&p.depth_improvements),
        ),
        (
            "symmetry_skipped".to_string(),
            JsonValue::from(p.symmetry_skipped),
        ),
        ("bound_pruned".to_string(), JsonValue::from(p.bound_pruned)),
        ("root_pruned".to_string(), JsonValue::from(p.root_pruned)),
        (
            "blocks_exhausted".to_string(),
            JsonValue::from(p.blocks_exhausted),
        ),
        (
            "proven_blocks".to_string(),
            JsonValue::from(p.proven_blocks),
        ),
        (
            "blocks_skipped".to_string(),
            JsonValue::from(p.blocks_skipped),
        ),
        (
            "sampled_branches".to_string(),
            JsonValue::from(p.sampled.len()),
        ),
    ])
}

/// Outcome of the compiled-pipeline microbenchmark: best-of-reps wall
/// time for `evals` evaluate+beats rounds, plus every heap allocation the
/// timed loops performed (the zero-allocation gate).
struct EvalBench {
    evals: u64,
    wall_ms: f64,
    allocations: u64,
}

/// Microbenchmarks the raw evaluation pipeline on the hot-ToR C_4
/// instance: compile once, warm one [`EvalScratch`] and a fixed lex
/// incumbent, then time evaluate+beats rounds over rotated assignments.
/// Steady-state allocations are counted across *all* reps.
fn eval_pipeline_bench(reps: u32) -> EvalBench {
    /// Timed passes over the assignment set per rep; with the 4
    /// assignments below this is 100,000 evaluations per rep, a few
    /// hundred ms on a 2-core x86-64 host.
    const PASSES: u64 = 25_000;
    let instance = INSTANCES
        .iter()
        .find(|i| i.name == "hot4")
        .expect("hot4 is a fixed instance");
    let (clos, flows) = build(instance);
    let problem = Problem::new(&clos, &flows);
    let n = clos.middle_count();
    // Rotated assignments: deterministic variety touching every
    // (flow, middle) table row.
    let assignments: Vec<Vec<usize>> = (0..n)
        .map(|base| (0..flows.len()).map(|i| (base + i) % n).collect())
        .collect();
    let mut scratch = EvalScratch::default();
    // Materialize the incumbent once (this allocates, as the engine does
    // on improvements), then warm every scratch buffer.
    problem.evaluate(&mut scratch, &assignments[0]);
    let lex = &LexMaxMin as &dyn Objective<ClosNetwork, Key = SortedRates<Rational>>;
    let incumbent = lex.key(&mut scratch);
    for a in &assignments {
        problem.evaluate(&mut scratch, a);
        black_box(lex.beats(&incumbent, &mut scratch));
    }

    let mut best_ms = f64::INFINITY;
    let mut allocations = 0;
    for _ in 0..reps {
        let before = counting_alloc::allocation_count();
        let start = Instant::now();
        for _ in 0..PASSES {
            for a in &assignments {
                problem.evaluate(&mut scratch, a);
                black_box(lex.beats(&incumbent, &mut scratch));
            }
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        allocations += counting_alloc::allocation_count() - before;
        if ms < best_ms {
            best_ms = ms;
        }
    }
    EvalBench {
        evals: PASSES * assignments.len() as u64,
        wall_ms: best_ms,
        allocations,
    }
}

/// Runs the three configurations (`baseline`, `prune`, `tuned`) on one
/// instance/objective, checks that they agree on the optimum, prints the
/// table line, and returns the report row with its total speedup.
/// `(name, n)` labels the row; `n` is the fabric's routing-class count.
fn bench_row<F: Fabric + Sync>(
    (name, n): (&str, usize),
    fabric: &F,
    flows: &[Flow],
    objective: &str,
    [baseline_cfg, prune_cfg, tuned_cfg]: [SearchConfig; 3],
    opts: &Options,
) -> Result<(JsonValue, f64), String> {
    let baseline = measure(fabric, flows, objective, baseline_cfg, opts.reps);
    let prune = measure(fabric, flows, objective, prune_cfg, opts.reps);
    let tuned = measure(fabric, flows, objective, tuned_cfg, opts.reps);

    if prune.result != baseline.result || tuned.result != baseline.result {
        return Err(format!(
            "{name}/{objective}: configurations disagree on the optimal \
             RoutedAllocation — determinism violated"
        ));
    }

    let speedup_prune = baseline.wall_ms / prune.wall_ms.max(1e-9);
    let speedup_total = baseline.wall_ms / tuned.wall_ms.max(1e-9);
    println!(
        "{:<10} {:>10} {:>6} {:>12.3} {:>12.3} {:>12.3} {:>7.1}x {:>7.1}x",
        name,
        objective,
        flows.len(),
        baseline.wall_ms,
        prune.wall_ms,
        tuned.wall_ms,
        speedup_prune,
        speedup_total
    );
    if opts.profile {
        let p = &tuned.stats.profile;
        println!(
            "  tuned profile: nodes/depth {:?}, pruned/depth {:?}, \
             symmetry_skipped {}, bound {}, root {}, exhausted {}, \
             proven {}, skipped {}",
            p.depth_nodes,
            p.depth_pruned,
            p.symmetry_skipped,
            p.bound_pruned,
            p.root_pruned,
            p.blocks_exhausted,
            p.proven_blocks,
            p.blocks_skipped
        );
    }

    let row = JsonValue::Object(vec![
        ("instance".to_string(), JsonValue::from(name)),
        ("objective".to_string(), JsonValue::from(objective)),
        ("n".to_string(), JsonValue::from(n)),
        ("flows".to_string(), JsonValue::from(flows.len())),
        ("baseline".to_string(), config_json(&baseline, opts.profile)),
        ("prune".to_string(), config_json(&prune, opts.profile)),
        ("tuned".to_string(), config_json(&tuned, opts.profile)),
        ("speedup_prune".to_string(), JsonValue::from(speedup_prune)),
        ("speedup_total".to_string(), JsonValue::from(speedup_total)),
        ("results_identical".to_string(), JsonValue::from(true)),
    ]);
    Ok((row, speedup_total))
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    if let Some(threads) = opts.threads {
        set_search_threads(threads);
    }
    let tuned_threads = search_threads();

    let baseline_cfg = SearchConfig {
        threads: Some(1),
        no_prune: true,
        trace_sample: None,
    };
    let prune_cfg = SearchConfig {
        threads: Some(1),
        no_prune: false,
        trace_sample: None,
    };
    let tuned_cfg = SearchConfig {
        threads: None,
        no_prune: false,
        trace_sample: None,
    };

    let configs = [baseline_cfg, prune_cfg, tuned_cfg];
    let mut rows = Vec::new();
    let mut gated_speedup = 0.0_f64;
    println!(
        "{:<10} {:>10} {:>6} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "instance",
        "objective",
        "flows",
        "baseline_ms",
        "prune_ms",
        "tuned_ms",
        "sp_prune",
        "sp_total"
    );
    for instance in INSTANCES {
        let (clos, flows) = build(instance);
        // The throughput objective rides along on the largest instance
        // only; lex is the paper's primary objective.
        let objectives: &[&str] = if instance.name == "hot4" {
            &["lex", "throughput"]
        } else {
            &["lex"]
        };
        for objective in objectives {
            let (row, speedup) = bench_row(
                (instance.name, instance.n),
                &clos,
                &flows,
                objective,
                configs,
                &opts,
            )?;
            gated_speedup = gated_speedup.max(speedup);
            rows.push(row);
        }
    }
    // e15's B_3 at 4:1: the full terminal permutation, throughput.
    let base = BenesNetwork::standard(3);
    let benes = base.with_capacities(&interior_overlay(
        base.network(),
        base.nominal_capacity(),
        4,
    ));
    let flows = ring_flows(benes.network(), benes.terminal_count());
    // Its exact counts are gated by `bench_compare`; its speedup stays out
    // of `--min-speedup`, where the exit alone would carry the gate and
    // hide a loss of pruning or parallelism on the Clos rows.
    let (row, _) = bench_row(
        ("benes3x4", benes.class_count()),
        &benes,
        &flows,
        "throughput",
        configs,
        &opts,
    )?;
    rows.push(row);

    let eval = eval_pipeline_bench(opts.reps);
    let eval_rate = eval.evals as f64 / (eval.wall_ms / 1e3).max(1e-12);
    println!(
        "eval pipeline (hot4/lex): {} evals in {:.3} ms ({:.0} evals/s), \
         {} steady-state allocations",
        eval.evals, eval.wall_ms, eval_rate, eval.allocations
    );
    if eval.allocations != 0 {
        return Err(format!(
            "compiled evaluation pipeline allocated {} times in the steady \
             state — the scratch-reuse contract is broken",
            eval.allocations
        ));
    }

    let report = JsonValue::Object(vec![
        ("schema".to_string(), JsonValue::from("bench_search/v3")),
        ("tuned_threads".to_string(), JsonValue::from(tuned_threads)),
        ("reps".to_string(), JsonValue::from(u64::from(opts.reps))),
        ("instances".to_string(), JsonValue::Array(rows)),
        (
            "eval_pipeline".to_string(),
            JsonValue::Object(vec![
                ("instance".to_string(), JsonValue::from("hot4")),
                ("objective".to_string(), JsonValue::from("lex")),
                ("evals".to_string(), JsonValue::from(eval.evals)),
                ("wall_ms".to_string(), JsonValue::from(eval.wall_ms)),
                ("evals_per_sec".to_string(), JsonValue::from(eval_rate)),
                (
                    "steady_state_allocations".to_string(),
                    JsonValue::from(eval.allocations),
                ),
            ]),
        ),
    ]);
    fs::write(&opts.out, format!("{report}\n")).map_err(|e| format!("write {}: {e}", opts.out))?;
    println!("report written to {}", opts.out);

    if opts.min_speedup > 0.0 && gated_speedup < opts.min_speedup {
        return Err(format!(
            "best total speedup {gated_speedup:.2}x below the required {:.2}x",
            opts.min_speedup
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench_search: {message}");
            ExitCode::FAILURE
        }
    }
}
