#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload verdicts|churn-bulk|churn-fresh
        --seed N --seconds S --trace 0|1 [--tiny]

Run from anywhere inside a source checkout. The script builds `repro` and
the churn driver (`perfbench/churn.rs`) with cargo, offline, into
`$CARGO_TARGET_DIR` (default `.bench_build` at the checkout root), then:

* `verdicts` runs `repro` over all 15 experiments at full parameters, with
  the search thread count fixed at min(2, nproc);
* `churn-bulk` and `churn-fresh` run the churn driver, which times
  `clos-churn`'s public API from outside the engine.

Passes repeat until `--seconds` have elapsed and the medians are reported.
`--trace 0` prints the end-to-end metrics, measured with tracing and
telemetry off and scaled by a reference kernel timed around each pass
(see `run_passes`); `--trace 1` prints the per-layer metrics. Metrics a
workload does not exercise read 0. `--tiny` shrinks every workload for
the self-test. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verdicts", "churn-bulk", "churn-fresh")
EXPERIMENTS = 15
SETUP_REPS = 3
# Events per churn pass under --tiny.
TINY_EVENTS = {"churn-bulk": 20_000, "churn-fresh": 2_000}
HEADING = re.compile(rb"^=== E\d+: ")
# Reference-kernel seconds on a lightly loaded 2.0 GHz Xeon core, and
# timings per bracket (see run_passes).
REF_NOMINAL_S = 0.040
REF_REPS = 5
# End-to-end values scaled by the reference speed.
TIMES = {"setup_s", "pass_s", "publish_p50_us", "publish_p99_us"}
RATES = {"events_per_s"}

END_TO_END = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("events_per_s", "1/s"),
    ("publish_p50_us", "us"),
    ("publish_p99_us", "us"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = (
    [(f"bench.e{i}_s", "s") for i in range(1, EXPERIMENTS + 1)]
    + [
        ("core.search_s", "s"),
        ("core.search_compile_s", "s"),
        ("core.search_assignments", "count"),
        ("core.search_pruned", "count"),
        ("fairness.waterfill_s", "s"),
        ("fairness.waterfill_calls", "count"),
        ("fairness.waterfill_rounds", "count"),
        ("fairness.full_recompute_us", "us"),
        ("fairness.full_recomputes", "count"),
        ("lp.simplex_s", "s"),
        ("lp.simplex_pivots", "count"),
        ("lp.simplex_degenerate_pivots", "count"),
        ("graph.matching_calls", "count"),
        ("graph.coloring_calls", "count"),
        ("churn.apply_ns", "ns"),
        ("churn.applies", "count"),
        ("churn.flush_us_p50", "us"),
        ("churn.flush_us_p90", "us"),
        ("churn.flushes", "count"),
        ("churn.epochs", "count"),
        ("churn.recomputed_per_epoch", "count"),
        ("churn.dirty_links_per_epoch", "count"),
        ("churn.recomputed_flows", "count"),
        ("churn.reused_flows", "count"),
        ("churn.dirty_links", "count"),
        ("churn.reuse_frac", "ratio"),
        ("churn.flush_vs_full", "ratio"),
        ("churn.epoch_s", "s"),
        ("verdicts.trace_overhead", "ratio"),
        ("verdicts.traced_s", "s"),
        ("verdicts.untraced_s", "s"),
        ("verdicts.threads", "count"),
    ]
)
# Per-layer metrics read from `repro --json` counter deltas:
# name -> (counter, scale).
COUNTER_METRICS = {
    "core.search_s": ("search.nanos", 1e-9),
    "core.search_compile_s": ("search.compile.nanos", 1e-9),
    "core.search_assignments": ("search.assignments", 1),
    "core.search_pruned": ("search.pruned", 1),
    "fairness.waterfill_s": ("waterfill.nanos", 1e-9),
    "fairness.waterfill_calls": ("waterfill.calls", 1),
    "fairness.waterfill_rounds": ("waterfill.rounds", 1),
    "lp.simplex_s": ("simplex.nanos", 1e-9),
    "lp.simplex_pivots": ("simplex.pivots", 1),
    "lp.simplex_degenerate_pivots": ("simplex.degenerate_pivots", 1),
    "graph.matching_calls": ("matching.calls", 1),
    "graph.coloring_calls": ("coloring.calls", 1),
    "churn.epochs": ("churn.epochs", 1),
    "churn.recomputed_flows": ("churn.recomputed_flows", 1),
    "churn.reused_flows": ("churn.reused_flows", 1),
    "churn.dirty_links": ("churn.dirty_links", 1),
    "churn.epoch_s": ("churn.epoch.nanos", 1e-9),
}


class BenchError(Exception):
    """A failure that invalidates the whole run."""


class Tally:
    """Correctness checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1


def ratio(a, b):
    return a / b if b else 0.0


def build(target):
    """Builds `repro` and the churn driver; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"no cargo workspace at {ROOT}: run from a source checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest, extra in (
        (ROOT / "Cargo.toml", ["-p", "clos-bench", "--bin", "repro"]),
        (BENCH / "Cargo.toml", []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(manifest), *extra]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return target / "release" / "repro", target / "release" / "perfbench-churn"


def spawn(cmd, cwd, on_line=None):
    """Runs `cmd` to completion, feeding each stdout line to `on_line`.

    Returns (wall seconds, peak RSS in MB, exit code, stdout lines)."""
    lines = []
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=cwd)
    with proc.stdout:
        for line in iter(proc.stdout.readline, b""):
            if on_line:
                on_line(line)
            lines.append(line)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode, lines


def repro_pass(repro, threads, extra, cwd):
    """One `repro` run. Returns (wall s, per-experiment latencies s, peak
    RSS MB, exit code). All experiments are requested at launch, so an
    experiment's latency runs from the launch to the publication of its
    results: the next experiment's heading, or the end of the run."""
    marks = []

    def on_line(line):
        if HEADING.match(line):
            marks.append(time.perf_counter())

    start = time.perf_counter()
    wall, rss, code, _ = spawn([str(repro), "--threads", str(threads), *extra], cwd, on_line)
    end = time.perf_counter()
    latencies = [t - start for t in marks[1:] + [end]]
    return wall, latencies, rss, code


def read_records(path, tally):
    """Parses a `repro --json` report and counts its audits."""
    records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    records = [r for r in records if r.get("record") == "experiment"]
    if len(records) < EXPERIMENTS:
        raise BenchError(f"{path.name}: {len(records)} experiment records, want {EXPERIMENTS}")
    for rec in records:
        for audit in rec["audits"]:
            tally.check(audit["pass"] is True)
    return records


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), -(-len(ordered) * p // 100)))
    return ordered[int(rank) - 1]


def reference(driver, cwd):
    """Median seconds of REF_REPS timings of the reference kernel."""
    _, _, code, lines = spawn([str(driver), "--reference", str(REF_REPS)], cwd)
    if code != 0 or len(lines) != REF_REPS:
        raise BenchError(f"reference kernel exited with {code}")
    return statistics.median(float(line) for line in lines)


def run_passes(args, one_pass, driver, cwd):
    """Repeats `one_pass` (a function returning a dict of values) until
    `--seconds` have elapsed, at least once, and returns the per-key
    medians.

    Untraced, each pass is bracketed by timings of the reference kernel,
    and its times are scaled by REF_NOMINAL_S over their mean (rates by
    the inverse): load from other tenants of a shared host slows the pass
    and the kernel alike, so it largely cancels."""
    passes = []
    before = None if args.trace else reference(driver, cwd)
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        values = one_pass()
        if before is not None:
            after = reference(driver, cwd)
            scale = REF_NOMINAL_S / ((before + after) / 2)
            for name in values:
                if name in TIMES:
                    values[name] *= scale
                elif name in RATES:
                    values[name] /= scale
            values["reference_s"] = (before + after) / 2
            before = after
        passes.append(values)
    print(f"  {len(passes)} pass(es)")
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


def run_verdicts(args, repro, driver, scratch, tally):
    threads = min(2, os.cpu_count() or 1)
    flags = ["--quick"] if args.tiny else []
    print(f"verdicts: repro --threads {threads} (nproc {os.cpu_count()})"
          f"{' --quick' if args.tiny else ''}")
    json_path = scratch / f"verdicts-{os.getpid()}.jsonl"
    trace_path = scratch / f"verdicts-{os.getpid()}-trace.json"

    def untraced_pass():
        wall, latencies, rss, code = repro_pass(repro, threads, flags, scratch)
        tally.check(code == 0)
        tally.check(len(latencies) == EXPERIMENTS)
        return wall, latencies, rss

    if not args.trace:
        # Warm-up and audit run: the only one with telemetry on.
        _, _, _, code = repro_pass(repro, threads, flags + ["--json", str(json_path)], scratch)
        tally.check(code == 0)
        audits = sum(len(r["audits"]) for r in read_records(json_path, tally))
        print(f"  {audits} audits per run")

        def one_pass():
            setup = []
            for _ in range(SETUP_REPS):
                wall, _, _, code = repro_pass(repro, threads, ["--experiment", "e1"], scratch)
                tally.check(code == 0)
                setup.append(wall)
            wall, latencies, rss = untraced_pass()
            return {
                "setup_s": statistics.median(setup),
                "pass_s": wall,
                "events_per_s": audits / wall,
                "publish_p50_us": percentile(latencies, 50) * 1e6,
                "publish_p99_us": percentile(latencies, 99) * 1e6,
                "publish_samples": len(latencies),
                "peak_rss_mb": rss,
            }

        return run_passes(args, one_pass, driver, scratch)

    def one_traced_pass():
        traced_flags = flags + ["--json", str(json_path), "--trace", str(trace_path)]
        traced, _, _, code = repro_pass(repro, threads, traced_flags, scratch)
        tally.check(code == 0)
        values = layer_metrics(read_records(json_path, tally))
        untraced = untraced_pass()[0]
        values["verdicts.traced_s"] = traced
        values["verdicts.untraced_s"] = untraced
        values["verdicts.trace_overhead"] = traced / untraced
        values["verdicts.threads"] = threads
        return values

    return run_passes(args, one_traced_pass, driver, scratch)


def layer_metrics(records):
    """Per-layer metrics of one traced `repro` run."""
    out = {f"bench.{r['id']}_s": r["wall_ms"] / 1e3 for r in records}
    totals = {}
    for rec in records:
        for name, value in rec["counters"].items():
            totals[name] = totals.get(name, 0) + value
    for metric, (counter, scale) in COUNTER_METRICS.items():
        out[metric] = totals.get(counter, 0) * scale
    epochs = out["churn.epochs"]
    out["churn.recomputed_per_epoch"] = ratio(out["churn.recomputed_flows"], epochs)
    out["churn.dirty_links_per_epoch"] = ratio(out["churn.dirty_links"], epochs)
    out["churn.reuse_frac"] = ratio(
        out["churn.reused_flows"], out["churn.reused_flows"] + out["churn.recomputed_flows"])
    return out


def run_churn(args, driver, scratch, tally):
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd += ["--events", str(TINY_EVENTS[args.workload])]

    def one_pass():
        _, rss, code, lines = spawn(cmd, scratch)
        if code != 0 or not lines:
            raise BenchError(f"churn driver exited with {code}")
        report = json.loads(lines[-1])
        tally.attempted += report["attempted"]
        tally.failed += report["failed"]
        values = report["values"]
        if not args.trace:
            values["peak_rss_mb"] = rss
        return values

    print(f"{args.workload}: seed {args.seed}, "
          f"{TINY_EVENTS[args.workload] if args.tiny else 'full'} events per pass")
    return run_passes(args, one_pass, driver, scratch)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (for the self-test)")
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    try:
        repro, driver = build(target)
        scratch = target / "perfbench-runs"
        scratch.mkdir(parents=True, exist_ok=True)
        tally = Tally()
        if args.workload == "verdicts":
            measured = run_verdicts(args, repro, driver, scratch, tally)
        else:
            measured = run_churn(args, driver, scratch, tally)
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": measured.get(name, 0), "unit": unit} for name, unit in wanted}
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>18.6f} {m['unit']}")
    if "publish_samples" in measured:
        print(f"  publish percentiles over {measured['publish_samples']:.0f} samples per pass")
    if "reference_s" in measured:
        print(f"  times scaled to the reference kernel: {measured['reference_s']:.6f} s "
              f"measured, {REF_NOMINAL_S} s nominal")
    print(f"  fail_frac = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / max(tally.attempted, 1)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
