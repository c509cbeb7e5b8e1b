//! `bench_compare` — diff fresh bench reports against checked-in
//! baselines and fail on regression.
//!
//! The perf observatory's gate: `bench_search` and `bench_churn` write
//! reports, this binary diffs them against the versioned baselines
//! under `benches/baselines/` and exits nonzero when any comparison
//! finds a regression. The schema key of each document pair selects
//! the comparison: `bench_search/*` reports compare instance/objective
//! rows and the eval pipeline, `bench_churn/*` reports compare
//! scenario/policy/batch rows. Metrics split into two classes:
//!
//! * **exact** — engine counts that are deterministic for any thread
//!   count (`routings_examined`, `pruned`, `improvements`, the
//!   `--profile` histograms and provenance counters, the eval-pipeline
//!   `evals` and `steady_state_allocations`). Any difference is a
//!   behavioural change, not noise, and fails the comparison outright.
//! * **noisy** — wall-clock-derived numbers (`wall_ms`,
//!   `evals_per_sec`, the speedup ratios). These regress only beyond
//!   `--tolerance` (default 0.15, i.e. 15%), and `--skip-wall` drops
//!   them entirely for cross-machine comparisons where the baseline's
//!   absolute timings are meaningless.
//!
//! A row present in the baseline but missing from the current report is
//! a coverage regression and fails; extra current rows are reported and
//! allowed (they become exact metrics once the baseline is refreshed).
//! Noisy metrics that *improve* beyond tolerance are flagged as
//! `improved` without failing — refresh the baseline to lock them in.
//!
//! Usage:
//!
//! ```text
//! bench_compare --baseline PATH --current PATH [--baseline PATH --current PATH ...]
//!               [--tolerance X] [--skip-wall]
//! ```
//!
//! `--baseline`/`--current` repeat to vet several reports in one
//! invocation (e.g. `BENCH_search.json` and `BENCH_churn.json`); the
//! i-th baseline pairs with the i-th current report and the run fails
//! if any pair regresses.

use std::fs;
use std::process::ExitCode;

use clos_telemetry::json::JsonValue;

/// Parsed command-line options.
struct Options {
    /// Paired in order: `baselines[i]` is compared with `currents[i]`.
    baselines: Vec<String>,
    currents: Vec<String>,
    tolerance: f64,
    skip_wall: bool,
}

const USAGE: &str = "usage: bench_compare --baseline PATH --current PATH \
[--baseline PATH --current PATH ...] [--tolerance X] [--skip-wall]
  --baseline PATH   checked-in reference report (benches/baselines/...); repeatable
  --current PATH    freshly generated report to vet; pairs with the matching --baseline
  --tolerance X     allowed fractional slowdown on noisy metrics (default 0.15)
  --skip-wall       ignore wall-clock-derived metrics entirely (cross-machine CI)";

fn parse_args() -> Result<Options, String> {
    let mut baselines = Vec::new();
    let mut currents = Vec::new();
    let mut tolerance = 0.15;
    let mut skip_wall = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--baseline" => baselines.push(value("--baseline")?),
            "--current" => currents.push(value("--current")?),
            "--tolerance" => {
                let v = value("--tolerance")?;
                tolerance = v.parse().map_err(|_| format!("bad --tolerance {v}"))?;
                if !(0.0..=10.0).contains(&tolerance) {
                    return Err("--tolerance must be in [0, 10]".to_string());
                }
            }
            "--skip-wall" => skip_wall = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if baselines.is_empty() {
        return Err(format!("--baseline is required\n{USAGE}"));
    }
    if baselines.len() != currents.len() {
        return Err(format!(
            "{} --baseline flags but {} --current flags — they pair in order\n{USAGE}",
            baselines.len(),
            currents.len()
        ));
    }
    Ok(Options {
        baselines,
        currents,
        tolerance,
        skip_wall,
    })
}

/// Verdict for one compared metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Verdict {
    /// Within tolerance (noisy) or equal (exact).
    Ok,
    /// Noisy metric improved beyond tolerance; informational only.
    Improved,
    /// Noisy metric regressed beyond tolerance — fails the run.
    Regression,
    /// Exact metric differs — fails the run.
    Mismatch,
    /// Skipped (`--skip-wall`), or absent from one side.
    Skipped,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Mismatch => "EXACT-MISMATCH",
            Verdict::Skipped => "skipped",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Regression | Verdict::Mismatch)
    }
}

/// One row of the printed delta table.
struct Delta {
    metric: String,
    baseline: String,
    current: String,
    delta: String,
    verdict: Verdict,
}

/// The comparison engine: accumulates per-metric deltas plus the overall
/// failure flag. Separated from I/O so the logic is unit-testable on
/// synthetic documents.
struct Comparison {
    tolerance: f64,
    skip_wall: bool,
    deltas: Vec<Delta>,
    notes: Vec<String>,
}

/// Coerces a JSON scalar to `f64` for noisy-metric arithmetic.
fn as_f64(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Int(n) => Some(*n as f64),
        JsonValue::Float(x) => Some(*x),
        _ => None,
    }
}

fn fmt_value(v: &JsonValue) -> String {
    match v {
        JsonValue::Float(x) => format!("{x:.3}"),
        other => other.to_string(),
    }
}

impl Comparison {
    fn new(tolerance: f64, skip_wall: bool) -> Comparison {
        Comparison {
            tolerance,
            skip_wall,
            deltas: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn push(&mut self, metric: &str, baseline: String, current: String, verdict: Verdict) {
        self.deltas.push(Delta {
            metric: metric.to_string(),
            baseline,
            current,
            delta: String::new(),
            verdict,
        });
    }

    /// Compares an exact metric: any difference is a mismatch. Absent on
    /// both sides is fine (e.g. `--profile` off in both runs); absent on
    /// exactly one side is a mismatch — the reports disagree on shape.
    fn exact(&mut self, metric: &str, base: Option<&JsonValue>, curr: Option<&JsonValue>) {
        match (base, curr) {
            (None, None) => {}
            (Some(b), Some(c)) => {
                let verdict = if b == c {
                    Verdict::Ok
                } else {
                    Verdict::Mismatch
                };
                self.push(metric, fmt_value(b), fmt_value(c), verdict);
            }
            (b, c) => {
                let show =
                    |v: Option<&JsonValue>| v.map_or_else(|| "absent".to_string(), fmt_value);
                self.push(metric, show(b), show(c), Verdict::Mismatch);
            }
        }
    }

    /// Compares a noisy metric. `higher_is_better` flips the direction:
    /// `wall_ms` regresses upward, `evals_per_sec` regresses downward.
    fn noisy(
        &mut self,
        metric: &str,
        base: Option<&JsonValue>,
        curr: Option<&JsonValue>,
        higher_is_better: bool,
    ) {
        let (Some(b), Some(c)) = (base.and_then(as_f64), curr.and_then(as_f64)) else {
            // A noisy metric missing from either side is not a
            // behavioural signal; note it and move on.
            if base.is_some() || curr.is_some() {
                self.push(metric, "?".to_string(), "?".to_string(), Verdict::Skipped);
            }
            return;
        };
        if self.skip_wall {
            self.push(
                metric,
                format!("{b:.3}"),
                format!("{c:.3}"),
                Verdict::Skipped,
            );
            return;
        }
        // Relative change in the "bigger is worse" orientation.
        let worsening = if higher_is_better {
            (b - c) / b.abs().max(1e-12)
        } else {
            (c - b) / b.abs().max(1e-12)
        };
        let verdict = if worsening > self.tolerance {
            Verdict::Regression
        } else if worsening < -self.tolerance {
            Verdict::Improved
        } else {
            Verdict::Ok
        };
        let signed = (c - b) / b.abs().max(1e-12) * 100.0;
        self.deltas.push(Delta {
            metric: metric.to_string(),
            baseline: format!("{b:.3}"),
            current: format!("{c:.3}"),
            delta: format!("{signed:+.1}%"),
            verdict,
        });
    }

    /// Compares one configuration object (`baseline` / `prune` /
    /// `tuned`) of one instance row.
    fn config(&mut self, prefix: &str, base: &JsonValue, curr: &JsonValue) {
        for key in ["routings_examined", "pruned", "improvements"] {
            self.exact(&format!("{prefix}.{key}"), base.get(key), curr.get(key));
        }
        self.noisy(
            &format!("{prefix}.wall_ms"),
            base.get("wall_ms"),
            curr.get("wall_ms"),
            false,
        );
        self.noisy(
            &format!("{prefix}.evals_per_sec"),
            base.get("evals_per_sec"),
            curr.get("evals_per_sec"),
            true,
        );
        // Profile counters are exact engine counts; compare whenever
        // both runs recorded them. `sampled_branches` depends on the
        // `trace_sample` knob, not engine behaviour, so it is exempt.
        if let (Some(bp), Some(cp)) = (base.get("profile"), curr.get("profile")) {
            for key in [
                "depth_nodes",
                "depth_pruned",
                "depth_improvements",
                "symmetry_skipped",
                "bound_pruned",
                "root_pruned",
                "blocks_exhausted",
                "proven_blocks",
                "blocks_skipped",
            ] {
                self.exact(&format!("{prefix}.profile.{key}"), bp.get(key), cp.get(key));
            }
        } else if base.get("profile").is_some() != curr.get("profile").is_some() {
            self.notes.push(format!(
                "{prefix}: profile present in only one report — run both with --profile \
                 to gate the histograms"
            ));
        }
    }

    /// Compares two whole reports, dispatching on the schema family:
    /// `bench_churn/*` documents compare scenario rows, everything else
    /// takes the `bench_search` instance-row path.
    fn documents(&mut self, base: &JsonValue, curr: &JsonValue) {
        match (base.get("schema"), curr.get("schema")) {
            (Some(b), Some(c)) if b != c => {
                self.notes.push(format!(
                    "schema differs: baseline {b}, current {c} — comparing shared metrics"
                ));
            }
            (Some(_), Some(_)) => {}
            _ => self.push(
                "schema",
                "present".to_string(),
                "present".to_string(),
                Verdict::Mismatch,
            ),
        }
        let family = |prefix: &str| {
            base.get("schema")
                .and_then(as_str)
                .is_some_and(|s| s.starts_with(prefix))
        };
        if family("bench_churn/") {
            self.churn_documents(base, curr);
            return;
        }
        if family("bench_lint/") {
            self.lint_documents(base, curr);
            return;
        }

        let empty = Vec::new();
        let rows = |doc: &JsonValue| -> Vec<JsonValue> {
            match doc.get("instances") {
                Some(JsonValue::Array(items)) => items.clone(),
                _ => empty.clone(),
            }
        };
        let key = |row: &JsonValue| -> String {
            format!(
                "{}/{}",
                row.get("instance").and_then(as_str).unwrap_or_default(),
                row.get("objective").and_then(as_str).unwrap_or_default()
            )
        };
        let base_rows = rows(base);
        let curr_rows = rows(curr);
        for brow in &base_rows {
            let k = key(brow);
            let Some(crow) = curr_rows.iter().find(|r| key(r) == k) else {
                self.push(
                    &k,
                    "present".to_string(),
                    "missing".to_string(),
                    Verdict::Mismatch,
                );
                continue;
            };
            self.exact(&format!("{k}.flows"), brow.get("flows"), crow.get("flows"));
            for config in ["baseline", "prune", "tuned"] {
                if let (Some(bc), Some(cc)) = (brow.get(config), crow.get(config)) {
                    self.config(&format!("{k}.{config}"), bc, cc);
                } else {
                    self.push(
                        &format!("{k}.{config}"),
                        "?".to_string(),
                        "?".to_string(),
                        Verdict::Mismatch,
                    );
                }
            }
            for ratio in ["speedup_prune", "speedup_total"] {
                self.noisy(
                    &format!("{k}.{ratio}"),
                    brow.get(ratio),
                    crow.get(ratio),
                    true,
                );
            }
        }
        for crow in &curr_rows {
            let k = key(crow);
            if !base_rows.iter().any(|r| key(r) == k) {
                self.notes.push(format!(
                    "current report adds row {k} not in the baseline — refresh the \
                     baseline to gate it"
                ));
            }
        }

        match (base.get("eval_pipeline"), curr.get("eval_pipeline")) {
            (Some(be), Some(ce)) => {
                self.exact("eval_pipeline.evals", be.get("evals"), ce.get("evals"));
                self.exact(
                    "eval_pipeline.steady_state_allocations",
                    be.get("steady_state_allocations"),
                    ce.get("steady_state_allocations"),
                );
                self.noisy(
                    "eval_pipeline.wall_ms",
                    be.get("wall_ms"),
                    ce.get("wall_ms"),
                    false,
                );
                self.noisy(
                    "eval_pipeline.evals_per_sec",
                    be.get("evals_per_sec"),
                    ce.get("evals_per_sec"),
                    true,
                );
            }
            (None, None) => {}
            _ => self.push(
                "eval_pipeline",
                "?".to_string(),
                "?".to_string(),
                Verdict::Mismatch,
            ),
        }
    }

    /// Compares two `bench_churn/*` reports: scenario rows keyed by
    /// scenario/policy/batch, engine counters and the rate checksum
    /// exact, wall-derived throughput noisy.
    fn churn_documents(&mut self, base: &JsonValue, curr: &JsonValue) {
        let rows = |doc: &JsonValue| -> Vec<JsonValue> {
            match doc.get("scenarios") {
                Some(JsonValue::Array(items)) => items.clone(),
                _ => Vec::new(),
            }
        };
        let key = |row: &JsonValue| -> String {
            format!(
                "{}/{}/b{}",
                row.get("scenario").and_then(as_str).unwrap_or_default(),
                row.get("policy").and_then(as_str).unwrap_or_default(),
                row.get("batch").map(fmt_value).unwrap_or_default()
            )
        };
        let base_rows = rows(base);
        let curr_rows = rows(curr);
        for brow in &base_rows {
            let k = key(brow);
            let Some(crow) = curr_rows.iter().find(|r| key(r) == k) else {
                self.push(
                    &k,
                    "present".to_string(),
                    "missing".to_string(),
                    Verdict::Mismatch,
                );
                continue;
            };
            for metric in [
                "n",
                "events",
                "arrivals",
                "departures",
                "epochs",
                "peak_concurrent",
                "final_live",
                "recomputed_flows",
                "recomputed_paths",
                "reused_flows",
                "rate_checksum",
            ] {
                self.exact(&format!("{k}.{metric}"), brow.get(metric), crow.get(metric));
            }
            self.noisy(
                &format!("{k}.wall_ms"),
                brow.get("wall_ms"),
                crow.get("wall_ms"),
                false,
            );
            self.noisy(
                &format!("{k}.events_per_sec"),
                brow.get("events_per_sec"),
                crow.get("events_per_sec"),
                true,
            );
        }
        for crow in &curr_rows {
            let k = key(crow);
            if !base_rows.iter().any(|r| key(r) == k) {
                self.notes.push(format!(
                    "current report adds scenario {k} not in the baseline — refresh the \
                     baseline to gate it"
                ));
            }
        }
    }

    /// Compares two `bench_lint/*` reports: workspace coverage,
    /// surviving-diagnostic and allowlist-suppression counts, and the
    /// per-rule tallies are exact (any drift is a linter behaviour
    /// change or new debt); the full-pass wall time is noisy.
    fn lint_documents(&mut self, base: &JsonValue, curr: &JsonValue) {
        for metric in ["files_scanned", "diagnostics", "suppressed"] {
            self.exact(
                &format!("lint.{metric}"),
                base.get(metric),
                curr.get(metric),
            );
        }
        match (base.get("rules"), curr.get("rules")) {
            (Some(JsonValue::Object(b)), Some(JsonValue::Object(c))) => {
                for (key, bv) in b {
                    let cv = c.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                    self.exact(&format!("lint.rules.{key}"), Some(bv), cv);
                }
                for (key, _) in c {
                    if !b.iter().any(|(k, _)| k == key) {
                        self.notes.push(format!(
                            "current report adds rule {key} not in the baseline — refresh \
                             the baseline to gate it"
                        ));
                    }
                }
            }
            _ => self.push(
                "lint.rules",
                "?".to_string(),
                "?".to_string(),
                Verdict::Mismatch,
            ),
        }
        self.noisy(
            "lint.wall_ms",
            base.get("wall_ms"),
            curr.get("wall_ms"),
            false,
        );
    }

    fn failed(&self) -> bool {
        self.deltas.iter().any(|d| d.verdict.fails())
    }
}

fn as_str(v: &JsonValue) -> Option<String> {
    match v {
        JsonValue::Str(s) => Some(s.clone()),
        _ => None,
    }
}

fn print_table(cmp: &Comparison) {
    println!(
        "{:<44} {:>14} {:>14} {:>8}  verdict",
        "metric", "baseline", "current", "delta"
    );
    for d in &cmp.deltas {
        println!(
            "{:<44} {:>14} {:>14} {:>8}  {}",
            d.metric,
            d.baseline,
            d.current,
            d.delta,
            d.verdict.label()
        );
    }
    for note in &cmp.notes {
        println!("note: {note}");
    }
    let failures = cmp.deltas.iter().filter(|d| d.verdict.fails()).count();
    let skipped = cmp
        .deltas
        .iter()
        .filter(|d| d.verdict == Verdict::Skipped)
        .count();
    println!(
        "{} metrics compared, {} failing, {} skipped",
        cmp.deltas.len(),
        failures,
        skipped
    );
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn run() -> Result<bool, String> {
    let opts = parse_args()?;
    let mut ok = true;
    for (baseline, current) in opts.baselines.iter().zip(&opts.currents) {
        let base = load(baseline)?;
        let curr = load(current)?;
        let mut cmp = Comparison::new(opts.tolerance, opts.skip_wall);
        cmp.documents(&base, &curr);
        println!("== {baseline} vs {current}");
        print_table(&cmp);
        ok &= !cmp.failed();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench_compare: regression detected");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("bench_compare: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal synthetic report with one row and an eval pipeline.
    fn report(examined: u64, wall_ms: f64, rate: f64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"schema":"bench_search/v3","tuned_threads":4,"reps":3,
                "instances":[{{"instance":"hot3","objective":"lex","n":3,"flows":9,
                  "baseline":{{"wall_ms":{wall_ms},"routings_examined":{examined},
                    "pruned":0,"improvements":3,"evals_per_sec":{rate}}},
                  "prune":{{"wall_ms":{wall_ms},"routings_examined":{examined},
                    "pruned":5,"improvements":3,"evals_per_sec":{rate}}},
                  "tuned":{{"wall_ms":{wall_ms},"routings_examined":{examined},
                    "pruned":5,"improvements":3,"evals_per_sec":{rate}}},
                  "speedup_prune":2.0,"speedup_total":3.0,
                  "results_identical":true}}],
                "eval_pipeline":{{"instance":"hot4","objective":"lex","evals":8000,
                  "wall_ms":{wall_ms},"evals_per_sec":{rate},
                  "steady_state_allocations":0}}}}"#
        ))
        .expect("synthetic report parses")
    }

    #[test]
    fn identical_reports_pass() {
        let doc = report(100, 10.0, 1000.0);
        let mut cmp = Comparison::new(0.15, false);
        cmp.documents(&doc, &doc);
        assert!(!cmp.failed());
        assert!(cmp.deltas.iter().all(|d| d.verdict == Verdict::Ok));
    }

    #[test]
    fn small_noise_within_tolerance_passes() {
        let mut cmp = Comparison::new(0.15, false);
        cmp.documents(&report(100, 10.0, 1000.0), &report(100, 11.0, 950.0));
        assert!(!cmp.failed());
    }

    #[test]
    fn twenty_percent_slowdown_fails() {
        let mut cmp = Comparison::new(0.15, false);
        cmp.documents(&report(100, 10.0, 1000.0), &report(100, 12.5, 800.0));
        assert!(cmp.failed());
        assert!(cmp
            .deltas
            .iter()
            .any(|d| d.verdict == Verdict::Regression && d.metric.ends_with("wall_ms")));
    }

    #[test]
    fn skip_wall_ignores_any_slowdown() {
        let mut cmp = Comparison::new(0.15, true);
        cmp.documents(&report(100, 10.0, 1000.0), &report(100, 100.0, 100.0));
        assert!(!cmp.failed());
    }

    #[test]
    fn exact_count_drift_fails_even_with_skip_wall() {
        let mut cmp = Comparison::new(0.15, true);
        cmp.documents(&report(100, 10.0, 1000.0), &report(101, 10.0, 1000.0));
        assert!(cmp.failed());
        assert!(cmp
            .deltas
            .iter()
            .any(|d| d.verdict == Verdict::Mismatch && d.metric.ends_with("routings_examined")));
    }

    #[test]
    fn large_improvement_is_reported_not_failed() {
        let mut cmp = Comparison::new(0.15, false);
        cmp.documents(&report(100, 10.0, 1000.0), &report(100, 5.0, 2000.0));
        assert!(!cmp.failed());
        assert!(cmp.deltas.iter().any(|d| d.verdict == Verdict::Improved));
    }

    #[test]
    fn missing_row_is_a_coverage_mismatch() {
        let base = report(100, 10.0, 1000.0);
        let mut curr = report(100, 10.0, 1000.0);
        if let JsonValue::Object(entries) = &mut curr {
            for (k, v) in entries.iter_mut() {
                if k == "instances" {
                    *v = JsonValue::Array(Vec::new());
                }
            }
        }
        let mut cmp = Comparison::new(0.15, false);
        cmp.documents(&base, &curr);
        assert!(cmp.failed());
    }

    /// A minimal synthetic churn report with one scenario row.
    fn churn_report(checksum: &str, wall_ms: f64, rate: f64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"schema":"bench_churn/v1","seed":42,"stable":false,
                "scenarios":[{{"scenario":"c4","n":4,"policy":"greedy","batch":2048,
                  "events":400000,"arrivals":255863,"departures":144137,"epochs":196,
                  "peak_concurrent":111731,"final_live":111726,
                  "recomputed_flows":15368018,"recomputed_paths":795923,"reused_flows":0,
                  "rate_checksum":"{checksum}","wall_ms":{wall_ms},
                  "events_per_sec":{rate}}}]}}"#
        ))
        .expect("synthetic churn report parses")
    }

    #[test]
    fn identical_churn_reports_pass() {
        let doc = churn_report("63c29866f6b133bc", 2200.0, 180000.0);
        let mut cmp = Comparison::new(0.15, false);
        cmp.documents(&doc, &doc);
        assert!(!cmp.failed());
        assert!(cmp
            .deltas
            .iter()
            .any(|d| d.metric.contains("c4/greedy/b2048")));
    }

    #[test]
    fn churn_checksum_drift_fails_even_with_skip_wall() {
        let mut cmp = Comparison::new(0.15, true);
        cmp.documents(
            &churn_report("63c29866f6b133bc", 2200.0, 180000.0),
            &churn_report("0000000000000000", 2200.0, 180000.0),
        );
        assert!(cmp.failed());
        assert!(cmp
            .deltas
            .iter()
            .any(|d| d.verdict == Verdict::Mismatch && d.metric.ends_with("rate_checksum")));
    }

    #[test]
    fn churn_throughput_regression_fails() {
        let mut cmp = Comparison::new(0.15, false);
        cmp.documents(
            &churn_report("63c29866f6b133bc", 2200.0, 180000.0),
            &churn_report("63c29866f6b133bc", 4400.0, 90000.0),
        );
        assert!(cmp.failed());
        assert!(cmp
            .deltas
            .iter()
            .any(|d| d.verdict == Verdict::Regression && d.metric.ends_with("events_per_sec")));
    }

    #[test]
    fn churn_missing_scenario_is_a_coverage_mismatch() {
        let base = churn_report("63c29866f6b133bc", 2200.0, 180000.0);
        let mut curr = churn_report("63c29866f6b133bc", 2200.0, 180000.0);
        if let JsonValue::Object(entries) = &mut curr {
            for (k, v) in entries.iter_mut() {
                if k == "scenarios" {
                    *v = JsonValue::Array(Vec::new());
                }
            }
        }
        let mut cmp = Comparison::new(0.15, false);
        cmp.documents(&base, &curr);
        assert!(cmp.failed());
    }

    /// A minimal synthetic lint-timing report.
    fn lint_report(suppressed: u64, l10: u64, wall_ms: f64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"schema":"bench_lint/v1","stable":false,"files_scanned":88,
                "diagnostics":0,"suppressed":{suppressed},
                "rules":{{"L1":0,"L7":0,"L8":0,"L9":0,"L10":{l10}}},
                "wall_ms":{wall_ms}}}"#
        ))
        .expect("synthetic lint report parses")
    }

    #[test]
    fn identical_lint_reports_pass() {
        let doc = lint_report(68, 0, 350.0);
        let mut cmp = Comparison::new(0.15, false);
        cmp.documents(&doc, &doc);
        assert!(!cmp.failed());
        assert!(cmp.deltas.iter().any(|d| d.metric == "lint.suppressed"));
    }

    #[test]
    fn lint_debt_growth_fails_even_with_skip_wall() {
        let mut cmp = Comparison::new(0.15, true);
        cmp.documents(&lint_report(68, 0, 350.0), &lint_report(70, 0, 350.0));
        assert!(cmp.failed());
        assert!(cmp
            .deltas
            .iter()
            .any(|d| d.verdict == Verdict::Mismatch && d.metric == "lint.suppressed"));
    }

    #[test]
    fn lint_per_rule_drift_fails() {
        let mut cmp = Comparison::new(0.15, true);
        cmp.documents(&lint_report(68, 0, 350.0), &lint_report(68, 3, 350.0));
        assert!(cmp.failed());
        assert!(cmp
            .deltas
            .iter()
            .any(|d| d.verdict == Verdict::Mismatch && d.metric == "lint.rules.L10"));
    }

    #[test]
    fn lint_slowdown_fails_only_when_wall_gated() {
        let mut cmp = Comparison::new(0.15, false);
        cmp.documents(&lint_report(68, 0, 350.0), &lint_report(68, 0, 700.0));
        assert!(cmp.failed());
        let mut cmp = Comparison::new(0.15, true);
        cmp.documents(&lint_report(68, 0, 350.0), &lint_report(68, 0, 700.0));
        assert!(!cmp.failed());
    }

    #[test]
    fn profile_histograms_gate_exactly_when_both_present() {
        let with_profile = |nodes: &str| {
            JsonValue::parse(&format!(
                r#"{{"wall_ms":1.0,"routings_examined":10,"pruned":2,
                    "improvements":1,"evals_per_sec":100.0,
                    "profile":{{"depth_nodes":{nodes},"depth_pruned":[0,2],
                      "depth_improvements":[1,0],"symmetry_skipped":4,
                      "bound_pruned":2,"root_pruned":0,"blocks_exhausted":1,
                      "sampled_branches":0}}}}"#
            ))
            .expect("synthetic config parses")
        };
        let mut cmp = Comparison::new(0.15, true);
        cmp.config("row.tuned", &with_profile("[1,3]"), &with_profile("[1,3]"));
        assert!(!cmp.failed());
        let mut cmp = Comparison::new(0.15, true);
        cmp.config("row.tuned", &with_profile("[1,3]"), &with_profile("[1,4]"));
        assert!(cmp.failed());
    }
}
