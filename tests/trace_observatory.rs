//! End-to-end tests of the observability surface: the `repro --trace`
//! span export and the `bench_compare` regression gate, driven through
//! the real binaries.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh scratch path per call: tests run in parallel threads of one
/// process, so the process id alone would let concurrent `compare`
/// calls overwrite each other's fixtures.
fn temp_path(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let seq = NEXT.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "clos_trace_observatory_{}_{seq}_{name}",
        std::process::id()
    ));
    p
}

/// `repro --stable --trace` must emit byte-identical Chrome traces for
/// 1 and 4 engine threads — the span-tree structure (and its stable
/// count weights) is a pure function of the experiment set.
#[test]
fn stable_trace_is_byte_identical_across_thread_counts() {
    let mut traces = Vec::new();
    for threads in ["1", "4"] {
        let out = temp_path(&format!("t{threads}.json"));
        let status = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--experiment", "e1", "--quick", "--stable"])
            .args(["--threads", threads])
            .arg("--trace")
            .arg(&out)
            .status()
            .expect("repro binary runs");
        assert!(status.success(), "repro --threads {threads} failed");
        let text = std::fs::read_to_string(&out).expect("trace file written");
        let _ = std::fs::remove_file(&out);
        assert!(
            text.starts_with("{\"schema\":\"clos-trace/v1\""),
            "trace file must carry the schema header"
        );
        assert!(
            text.contains("\"name\":\"e1\""),
            "trace must contain the per-experiment span"
        );
        traces.push(text);
    }
    assert_eq!(
        traces[0], traces[1],
        "stable traces differ between 1 and 4 threads"
    );
}

fn compare(baseline: &str, current: &str, extra: &[&str]) -> (bool, String) {
    let b = temp_path("baseline.json");
    let c = temp_path("current.json");
    std::fs::write(&b, baseline).expect("write baseline fixture");
    std::fs::write(&c, current).expect("write current fixture");
    let output = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .arg("--baseline")
        .arg(&b)
        .arg("--current")
        .arg(&c)
        .args(extra)
        .output()
        .expect("bench_compare binary runs");
    let _ = std::fs::remove_file(&b);
    let _ = std::fs::remove_file(&c);
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

/// Synthetic single-row report; wall-clock fields are parameterized so
/// tests can inject slowdowns.
fn fixture(examined: u64, wall_ms: f64) -> String {
    let rate = 1000.0 / wall_ms * 100.0;
    format!(
        r#"{{"schema":"bench_search/v3","tuned_threads":2,"reps":3,
"instances":[{{"instance":"hot3","objective":"lex","n":3,"flows":9,
"baseline":{{"wall_ms":{wall_ms},"routings_examined":{examined},"pruned":0,"improvements":3,"evals_per_sec":{rate}}},
"prune":{{"wall_ms":{wall_ms},"routings_examined":{examined},"pruned":7,"improvements":3,"evals_per_sec":{rate}}},
"tuned":{{"wall_ms":{wall_ms},"routings_examined":{examined},"pruned":7,"improvements":3,"evals_per_sec":{rate}}},
"speedup_prune":2.0,"speedup_total":3.0,"results_identical":true}}],
"eval_pipeline":{{"instance":"hot4","objective":"lex","evals":8000,"wall_ms":{wall_ms},"evals_per_sec":{rate},"steady_state_allocations":0}}}}"#
    )
}

#[test]
fn unmodified_rerun_passes_within_tolerance() {
    // A 5% wobble sits inside the default 15% tolerance.
    let (ok, table) = compare(&fixture(100, 10.0), &fixture(100, 10.5), &[]);
    assert!(ok, "5% noise must pass the default tolerance:\n{table}");
    assert!(table.contains("0 failing"), "{table}");
}

#[test]
fn injected_twenty_percent_slowdown_fails() {
    let (ok, table) = compare(&fixture(100, 10.0), &fixture(100, 12.0), &[]);
    assert!(!ok, "20% slowdown must exit nonzero:\n{table}");
    assert!(table.contains("REGRESSION"), "{table}");
}

#[test]
fn skip_wall_ignores_slowdowns_but_not_count_drift() {
    let (ok, _) = compare(&fixture(100, 10.0), &fixture(100, 50.0), &["--skip-wall"]);
    assert!(ok, "--skip-wall must ignore wall-clock regressions");
    let (ok, table) = compare(&fixture(100, 10.0), &fixture(101, 10.0), &["--skip-wall"]);
    assert!(!ok, "exact count drift must fail even with --skip-wall");
    assert!(table.contains("EXACT-MISMATCH"), "{table}");
}

#[test]
fn wider_tolerance_admits_the_same_slowdown() {
    let (ok, _) = compare(
        &fixture(100, 10.0),
        &fixture(100, 12.0),
        &["--tolerance", "0.5"],
    );
    assert!(ok, "--tolerance 0.5 must admit a 20% slowdown");
}

/// The checked-in baseline must parse and carry the schema marker the
/// observatory is versioned by.
#[test]
fn checked_in_baseline_carries_schema_v3() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("benches/baselines/BENCH_search.json");
    let text = std::fs::read_to_string(&path).expect("versioned baseline exists");
    assert!(text.contains("\"schema\":\"bench_search/v3\""));
    // Self-comparison of the checked-in baseline is the trivial gate:
    // zero delta on every metric.
    let (ok, table) = compare(&text, &text, &[]);
    assert!(ok, "baseline must compare clean against itself:\n{table}");
    assert!(table.contains("0 failing"), "{table}");
}
