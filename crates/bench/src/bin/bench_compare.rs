//! `bench_compare` — diff fresh bench reports against checked-in
//! baselines and fail on regression.
//!
//! The perf observatory's gate: `bench_search`, `bench_churn` and
//! `bench_lint` write reports, this binary diffs them against the
//! versioned baselines under `benches/baselines/` and exits nonzero when
//! any comparison finds a regression. One rule walks every report:
//!
//! * objects compare key by key, labelled by their dotted path; arrays
//!   of objects are rows, matched and labelled by their identity fields
//!   (`instance`, `objective`, `scenario`, `policy`, `batch`) joined
//!   with `/`; run-configuration keys (`tuned_threads`, `reps`,
//!   `stable`) are skipped, and `schema` drift is noted;
//! * **noisy** — `wall_ms` (lower is better) and names ending `_per_sec`
//!   or starting `speedup_` (higher is better) regress only beyond
//!   `--tolerance` (default 0.15, i.e. 15%); `--skip-wall` drops them
//!   for cross-machine comparisons, and a timing of exactly 0 (a
//!   `--stable` report) was never measured and is skipped;
//! * **exact** — every other value (engine counts, histograms,
//!   checksums). Any difference is a behavioural change and fails.
//!
//! A key or row of the baseline missing from the current report fails;
//! one only in the current report is noted (refreshing the baseline
//! gates it). Noisy metrics that *improve* beyond tolerance are flagged
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
use std::num::FpCategory;
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
    /// Skipped (`--skip-wall`, or never measured).
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

    /// Compares an exact metric: any difference is a mismatch.
    fn exact(&mut self, metric: &str, base: &JsonValue, curr: &JsonValue) {
        let verdict = if base == curr {
            Verdict::Ok
        } else {
            Verdict::Mismatch
        };
        self.push(metric, fmt_value(base), fmt_value(curr), verdict);
    }

    /// A baseline key or row the current report lacks: a coverage
    /// regression.
    fn missing(&mut self, label: &str) {
        self.push(
            label,
            "present".to_string(),
            "missing".to_string(),
            Verdict::Mismatch,
        );
    }

    /// A current key or row the baseline lacks: allowed, and gated once
    /// the baseline is refreshed.
    fn added(&mut self, label: &str) {
        self.notes.push(format!(
            "current report adds {label} not in the baseline — refresh the baseline to gate it"
        ));
    }

    /// Compares a noisy metric. `higher_is_better` flips the direction:
    /// `wall_ms` regresses upward, `evals_per_sec` regresses downward.
    fn noisy(&mut self, metric: &str, base: &JsonValue, curr: &JsonValue, higher_is_better: bool) {
        let (Some(b), Some(c)) = (as_f64(base), as_f64(curr)) else {
            // A noisy name carrying a non-number is not a timing.
            self.push(metric, "?".to_string(), "?".to_string(), Verdict::Skipped);
            return;
        };
        // A timing of exactly 0 was never measured (a `--stable` report
        // zeroes its wall-derived fields): no relative change exists.
        let unmeasured = [b, c].iter().any(|x| x.classify() == FpCategory::Zero);
        if self.skip_wall || unmeasured {
            if !self.skip_wall {
                self.notes.push(format!(
                    "{metric}: a report carries 0 (never measured, e.g. --stable) — not gated"
                ));
            }
            self.push(
                metric,
                format!("{b:.3}"),
                format!("{c:.3}"),
                Verdict::Skipped,
            );
            return;
        }
        let change = (c - b) / b.abs();
        // Relative change in the "bigger is worse" orientation.
        let worsening = if higher_is_better { -change } else { change };
        let verdict = if worsening > self.tolerance {
            Verdict::Regression
        } else if worsening < -self.tolerance {
            Verdict::Improved
        } else {
            Verdict::Ok
        };
        self.deltas.push(Delta {
            metric: metric.to_string(),
            baseline: format!("{b:.3}"),
            current: format!("{c:.3}"),
            delta: format!("{:+.1}%", change * 100.0),
            verdict,
        });
    }

    /// Compares two whole reports: the `schema` key first (drift is
    /// noted, a missing schema is a mismatch), then everything else by
    /// the one rule of [`Comparison::object`].
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
        self.object("", base, curr, &[]);
    }

    /// Compares two objects key by key, labelling each metric by its
    /// dotted path under `prefix`. Keys in `matched` (a row's identity
    /// fields, already equal by matching) and [`UNCOMPARED_KEYS`] are
    /// passed over. Nested objects recurse; arrays of objects are rows,
    /// matched by [`row_key`]; noisy names (see [`noisy_direction`])
    /// gate within tolerance; every other value is exact. A baseline
    /// key missing from the current report is a mismatch, a key only in
    /// the current report is a note.
    fn object(&mut self, prefix: &str, base: &JsonValue, curr: &JsonValue, matched: &[&str]) {
        let compared = |key: &str| !UNCOMPARED_KEYS.contains(&key) && !matched.contains(&key);
        for (key, b) in entries(base).iter().filter(|(k, _)| compared(k)) {
            let label = join(prefix, key);
            let Some(c) = curr.get(key) else {
                self.missing(&label);
                continue;
            };
            if let Some(higher_is_better) = noisy_direction(key) {
                self.noisy(&label, b, c, higher_is_better);
                continue;
            }
            match (b, c) {
                (JsonValue::Object(_), JsonValue::Object(_)) => self.object(&label, b, c, &[]),
                (JsonValue::Array(bs), JsonValue::Array(cs))
                    if bs
                        .iter()
                        .chain(cs)
                        .all(|v| matches!(v, JsonValue::Object(_))) =>
                {
                    self.rows(prefix, bs, cs);
                }
                _ => self.exact(&label, b, c),
            }
        }
        for (key, _) in entries(curr).iter().filter(|(k, _)| compared(k)) {
            if base.get(key).is_none() {
                self.added(&join(prefix, key));
            }
        }
    }

    /// Compares two arrays of rows: each baseline row pairs with the
    /// current row of the same [`row_key`] and is labelled by that key
    /// under `prefix`. A baseline row with no partner is a coverage
    /// mismatch; a current row with none is a note.
    fn rows(&mut self, prefix: &str, base: &[JsonValue], curr: &[JsonValue]) {
        for b in base {
            let label = join(prefix, &row_key(b));
            match curr.iter().find(|c| row_key(c) == row_key(b)) {
                Some(c) => self.object(&label, b, c, &ROW_KEYS),
                None => self.missing(&label),
            }
        }
        for c in curr {
            if !base.iter().any(|b| row_key(b) == row_key(c)) {
                self.added(&join(prefix, &row_key(c)));
            }
        }
    }

    fn failed(&self) -> bool {
        self.deltas.iter().any(|d| d.verdict.fails())
    }
}

/// Keys that describe how a report was produced, not what the engine
/// did: never compared. `schema` is checked once by
/// [`Comparison::documents`].
const UNCOMPARED_KEYS: [&str; 4] = ["schema", "tuned_threads", "reps", "stable"];

/// Identity fields of a report row (`bench_search` instance rows,
/// `bench_churn` scenario rows); rows match across reports by the values
/// of the ones they carry.
const ROW_KEYS: [&str; 5] = ["instance", "objective", "scenario", "policy", "batch"];

/// The noisy-name rule: `Some(higher_is_better)` for a wall-clock-derived
/// metric, `None` for an exact one.
fn noisy_direction(key: &str) -> Option<bool> {
    if key == "wall_ms" {
        Some(false)
    } else if key.ends_with("_per_sec") || key.starts_with("speedup_") {
        Some(true)
    } else {
        None
    }
}

fn entries(v: &JsonValue) -> &[(String, JsonValue)] {
    match v {
        JsonValue::Object(entries) => entries,
        _ => &[],
    }
}

/// A row's identity: its [`ROW_KEYS`] values joined with `/`.
fn row_key(row: &JsonValue) -> String {
    ROW_KEYS
        .iter()
        .filter_map(|key| row.get(key))
        .map(|v| match v {
            JsonValue::Str(s) => s.clone(),
            other => other.to_string(),
        })
        .collect::<Vec<_>>()
        .join("/")
}

fn join(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
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
            r#"{{"schema":"bench_search/v4","tuned_threads":4,"reps":3,
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
        let curr = with(&base, "instances", JsonValue::Array(Vec::new()));
        let mut cmp = Comparison::new(0.15, false);
        cmp.documents(&base, &curr);
        assert!(cmp.failed());
    }

    /// `doc` with its top-level `key` set to `value`.
    fn with(doc: &JsonValue, key: &str, value: JsonValue) -> JsonValue {
        let mut doc = doc.clone();
        if let JsonValue::Object(entries) = &mut doc {
            for (k, v) in entries.iter_mut() {
                if k == key {
                    *v = value.clone();
                }
            }
        }
        doc
    }

    #[test]
    fn run_configuration_differences_pass() {
        // CI's runner and the baseline's builder differ in core count.
        let base = report(100, 10.0, 1000.0);
        let curr = with(&base, "tuned_threads", JsonValue::Int(2));
        let curr = with(&curr, "reps", JsonValue::Int(5));
        let mut cmp = Comparison::new(0.15, true);
        cmp.documents(&base, &curr);
        assert!(!cmp.failed());
        assert!(cmp
            .deltas
            .iter()
            .all(|d| d.metric != "tuned_threads" && d.metric != "reps"));
    }

    #[test]
    fn unlisted_field_drift_fails() {
        // No metric list names `seed` or a row's `n`: the one rule gates
        // them anyway.
        let base = report(100, 10.0, 1000.0);
        let mut curr = base.clone();
        if let Some(JsonValue::Array(rows)) = curr.get("instances").cloned() {
            let mut row = rows[0].clone();
            if let JsonValue::Object(entries) = &mut row {
                for (k, v) in entries.iter_mut() {
                    if k == "n" {
                        *v = JsonValue::Int(4);
                    }
                }
            }
            curr = with(&curr, "instances", JsonValue::Array(vec![row]));
        }
        let mut cmp = Comparison::new(0.15, true);
        cmp.documents(&base, &curr);
        assert!(cmp
            .deltas
            .iter()
            .any(|d| d.verdict == Verdict::Mismatch && d.metric == "hot3/lex.n"));

        let churn = churn_report("63c29866f6b133bc", 2200.0, 180000.0);
        let mut cmp = Comparison::new(0.15, true);
        cmp.documents(&churn, &with(&churn, "seed", JsonValue::Int(7)));
        assert!(cmp
            .deltas
            .iter()
            .any(|d| d.verdict == Verdict::Mismatch && d.metric == "seed"));
    }

    #[test]
    fn rows_in_a_different_order_still_match() {
        let rows = |order: [u64; 2]| {
            JsonValue::parse(&format!(
                r#"{{"schema":"bench_churn/v1","scenarios":[
                    {{"scenario":"c3","policy":"greedy","batch":{},"epochs":{}}},
                    {{"scenario":"c3","policy":"greedy","batch":{},"epochs":{}}}]}}"#,
                order[0], order[0], order[1], order[1]
            ))
            .expect("synthetic churn report parses")
        };
        let mut cmp = Comparison::new(0.15, true);
        cmp.documents(&rows([1, 2048]), &rows([2048, 1]));
        assert!(!cmp.failed());
        assert!(cmp.notes.is_empty());
        for label in ["c3/greedy/1.epochs", "c3/greedy/2048.epochs"] {
            assert!(cmp
                .deltas
                .iter()
                .any(|d| d.verdict == Verdict::Ok && d.metric == label));
        }
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
            .any(|d| d.metric.contains("c4/greedy/2048")));
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
        let curr = with(&base, "scenarios", JsonValue::Array(Vec::new()));
        let mut cmp = Comparison::new(0.15, false);
        cmp.documents(&base, &curr);
        assert!(cmp.failed());
    }

    #[test]
    fn zero_baseline_timing_is_skipped_not_gated() {
        // A `--stable` baseline (walls zeroed) against a timed run.
        let mut cmp = Comparison::new(0.15, false);
        cmp.documents(
            &churn_report("63c29866f6b133bc", 0.0, 0.0),
            &churn_report("63c29866f6b133bc", 49.5, 180000.0),
        );
        assert!(!cmp.failed());
        for metric in ["c4/greedy/2048.wall_ms", "c4/greedy/2048.events_per_sec"] {
            assert!(cmp
                .deltas
                .iter()
                .any(|d| d.verdict == Verdict::Skipped && d.metric == metric));
        }
        assert!(!cmp.notes.is_empty());
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
        assert!(cmp.deltas.iter().any(|d| d.metric == "suppressed"));
    }

    #[test]
    fn lint_debt_growth_fails_even_with_skip_wall() {
        let mut cmp = Comparison::new(0.15, true);
        cmp.documents(&lint_report(68, 0, 350.0), &lint_report(70, 0, 350.0));
        assert!(cmp.failed());
        assert!(cmp
            .deltas
            .iter()
            .any(|d| d.verdict == Verdict::Mismatch && d.metric == "suppressed"));
    }

    #[test]
    fn lint_per_rule_drift_fails() {
        let mut cmp = Comparison::new(0.15, true);
        cmp.documents(&lint_report(68, 0, 350.0), &lint_report(68, 3, 350.0));
        assert!(cmp.failed());
        assert!(cmp
            .deltas
            .iter()
            .any(|d| d.verdict == Verdict::Mismatch && d.metric == "rules.L10"));
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
                      "bound_pruned":2,"root_pruned":0,"blocks_exhausted":1}}}}"#
            ))
            .expect("synthetic config parses")
        };
        let mut cmp = Comparison::new(0.15, true);
        cmp.object(
            "row.tuned",
            &with_profile("[1,3]"),
            &with_profile("[1,3]"),
            &[],
        );
        assert!(!cmp.failed());
        let mut cmp = Comparison::new(0.15, true);
        cmp.object(
            "row.tuned",
            &with_profile("[1,3]"),
            &with_profile("[1,4]"),
            &[],
        );
        assert!(cmp.failed());
    }

    #[test]
    fn key_missing_from_current_fails_extra_key_is_a_note() {
        let full = report(100, 10.0, 1000.0);
        let mut plain = full.clone();
        if let JsonValue::Object(entries) = &mut plain {
            entries.retain(|(k, _)| k != "eval_pipeline");
        }
        // A key the baseline has and the current report lacks fails; the
        // reverse is only a note.
        let mut cmp = Comparison::new(0.15, true);
        cmp.documents(&full, &plain);
        assert!(cmp.failed());
        let mut cmp = Comparison::new(0.15, true);
        cmp.documents(&plain, &full);
        assert!(!cmp.failed());
        assert!(cmp.notes.iter().any(|n| n.contains("eval_pipeline")));
    }
}
