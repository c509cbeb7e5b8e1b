//! Machine-readable experiment reports: the JSON-Lines record schema.

use std::collections::BTreeMap;
use std::io;

use crate::json::{JsonError, JsonValue};

/// One named pass/fail verdict from a [`RoutingAudit`]-style bound check.
///
/// [`RoutingAudit`]: https://docs.rs/clos-core
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AuditVerdict {
    /// What was checked (e.g. `"routing 1 bounds"`).
    pub check: String,
    /// Whether the check passed.
    pub pass: bool,
}

/// One JSON-Lines record describing a completed experiment.
///
/// Map-valued fields use `BTreeMap` so the field order — and therefore the
/// JSON that [`to_json_line`] emits — is deterministic.
///
/// # Examples
///
/// ```
/// use clos_telemetry::{AuditVerdict, ExperimentRecord};
///
/// let mut rec = ExperimentRecord::new("e1", "Example 2.3");
/// rec.quick = true;
/// rec.wall_ms = 0.25;
/// rec.param("routings", "2");
/// rec.result("throughput", "3");
/// rec.audit("routing 1 bounds", true);
/// let line = rec.to_json_line();
/// assert!(line.starts_with("{\"record\":\"experiment\",\"id\":\"e1\""));
/// assert_eq!(ExperimentRecord::from_json_line(&line).unwrap(), rec);
/// assert!(rec.all_pass());
/// ```
///
/// [`to_json_line`]: ExperimentRecord::to_json_line
#[derive(Clone, PartialEq, Debug)]
pub struct ExperimentRecord {
    /// Record discriminator; always `"experiment"`.
    pub record: String,
    /// Experiment id (`"e1"` … `"e12"`).
    pub id: String,
    /// Human-readable experiment title.
    pub title: String,
    /// Whether the run used `--quick` parameters.
    pub quick: bool,
    /// Wall-clock time of the experiment in milliseconds.
    pub wall_ms: f64,
    /// Input parameters (sweep sizes, seeds, …), stringified.
    pub params: BTreeMap<String, String>,
    /// Telemetry counter deltas attributable to this experiment.
    pub counters: BTreeMap<String, u64>,
    /// Key results (throughputs, ratios, …), stringified exactly
    /// (rationals keep their `p/q` form).
    pub results: BTreeMap<String, String>,
    /// Bound-check verdicts; `pass` on the record summarizes them.
    pub audits: Vec<AuditVerdict>,
    /// `true` iff every audit verdict passed.
    pub pass: bool,
}

impl ExperimentRecord {
    /// Creates an empty record for experiment `id`.
    #[must_use]
    pub fn new(id: &str, title: &str) -> ExperimentRecord {
        ExperimentRecord {
            record: "experiment".to_string(),
            id: id.to_string(),
            title: title.to_string(),
            quick: false,
            wall_ms: 0.0,
            params: BTreeMap::new(),
            counters: BTreeMap::new(),
            results: BTreeMap::new(),
            audits: Vec::new(),
            pass: true,
        }
    }

    /// Records an input parameter.
    pub fn param(&mut self, key: &str, value: impl ToString) {
        self.params.insert(key.to_string(), value.to_string());
    }

    /// Records a key result.
    pub fn result(&mut self, key: &str, value: impl ToString) {
        self.results.insert(key.to_string(), value.to_string());
    }

    /// Records an audit verdict and folds it into [`pass`](Self::pass).
    pub fn audit(&mut self, check: &str, pass: bool) {
        self.audits.push(AuditVerdict {
            check: check.to_string(),
            pass,
        });
        self.pass &= pass;
    }

    /// Stores the counter deltas (as produced by
    /// [`Snapshot::delta_since`](crate::Snapshot::delta_since)).
    pub fn set_counters(&mut self, deltas: Vec<(String, u64)>) {
        self.counters = deltas.into_iter().collect();
    }

    /// Returns `true` iff every recorded audit verdict passed.
    #[must_use]
    pub fn all_pass(&self) -> bool {
        self.audits.iter().all(|v| v.pass)
    }

    /// Converts the record to a [`JsonValue`] (the schema documented on
    /// the struct fields).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let map = |m: &BTreeMap<String, String>| {
            JsonValue::Object(
                m.iter()
                    .map(|(k, v)| (k.clone(), JsonValue::from(v.clone())))
                    .collect(),
            )
        };
        JsonValue::Object(vec![
            ("record".to_string(), JsonValue::from(self.record.clone())),
            ("id".to_string(), JsonValue::from(self.id.clone())),
            ("title".to_string(), JsonValue::from(self.title.clone())),
            ("quick".to_string(), JsonValue::from(self.quick)),
            ("wall_ms".to_string(), JsonValue::from(self.wall_ms)),
            ("params".to_string(), map(&self.params)),
            (
                "counters".to_string(),
                JsonValue::Object(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), JsonValue::from(v)))
                        .collect(),
                ),
            ),
            ("results".to_string(), map(&self.results)),
            (
                "audits".to_string(),
                JsonValue::Array(
                    self.audits
                        .iter()
                        .map(|v| {
                            JsonValue::Object(vec![
                                ("check".to_string(), JsonValue::from(v.check.clone())),
                                ("pass".to_string(), JsonValue::from(v.pass)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("pass".to_string(), JsonValue::from(self.pass)),
        ])
    }

    /// Serializes the record as one JSON-Lines line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        self.to_json().to_string()
    }

    /// Parses a record back from a JSON-Lines line produced by
    /// [`to_json_line`](Self::to_json_line).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the text is not valid JSON or does not
    /// match the record schema.
    pub fn from_json_line(line: &str) -> Result<ExperimentRecord, JsonError> {
        let value = JsonValue::parse(line)?;
        let schema_err = |message: &str| JsonError {
            offset: 0,
            message: message.to_string(),
        };
        let string = |key: &str| -> Result<String, JsonError> {
            match value.get(key) {
                Some(JsonValue::Str(s)) => Ok(s.clone()),
                _ => Err(schema_err(&format!("missing string field {key:?}"))),
            }
        };
        let boolean = |key: &str| -> Result<bool, JsonError> {
            match value.get(key) {
                Some(&JsonValue::Bool(b)) => Ok(b),
                _ => Err(schema_err(&format!("missing bool field {key:?}"))),
            }
        };
        let wall_ms = match value.get("wall_ms") {
            Some(&JsonValue::Float(x)) => x,
            #[allow(clippy::cast_precision_loss)]
            Some(&JsonValue::Int(n)) => n as f64,
            _ => return Err(schema_err("missing number field \"wall_ms\"")),
        };
        let string_map = |key: &str| -> Result<BTreeMap<String, String>, JsonError> {
            match value.get(key) {
                Some(JsonValue::Object(entries)) => entries
                    .iter()
                    .map(|(k, v)| match v {
                        JsonValue::Str(s) => Ok((k.clone(), s.clone())),
                        _ => Err(schema_err(&format!("non-string entry in {key:?}"))),
                    })
                    .collect(),
                _ => Err(schema_err(&format!("missing object field {key:?}"))),
            }
        };
        let counters = match value.get("counters") {
            Some(JsonValue::Object(entries)) => entries
                .iter()
                .map(|(k, v)| match v {
                    &JsonValue::Int(n) if n >= 0 => u64::try_from(n)
                        .map(|n| (k.clone(), n))
                        .map_err(|_| schema_err(&format!("counter {k:?} out of range"))),
                    _ => Err(schema_err(&format!("bad counter entry {k:?}"))),
                })
                .collect::<Result<BTreeMap<String, u64>, JsonError>>()?,
            _ => return Err(schema_err("missing object field \"counters\"")),
        };
        let audits = match value.get("audits") {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|item| {
                    let check = match item.get("check") {
                        Some(JsonValue::Str(s)) => s.clone(),
                        _ => return Err(schema_err("audit entry without \"check\"")),
                    };
                    let pass = match item.get("pass") {
                        Some(&JsonValue::Bool(b)) => b,
                        _ => return Err(schema_err("audit entry without \"pass\"")),
                    };
                    Ok(AuditVerdict { check, pass })
                })
                .collect::<Result<Vec<_>, JsonError>>()?,
            _ => return Err(schema_err("missing array field \"audits\"")),
        };
        Ok(ExperimentRecord {
            record: string("record")?,
            id: string("id")?,
            title: string("title")?,
            quick: boolean("quick")?,
            wall_ms,
            params: string_map("params")?,
            counters,
            results: string_map("results")?,
            audits,
            pass: boolean("pass")?,
        })
    }
}

/// Writes [`ExperimentRecord`]s (or raw [`JsonValue`]s) as JSON Lines.
///
/// # Examples
///
/// ```
/// use clos_telemetry::{ExperimentRecord, JsonLinesWriter};
///
/// let mut buf = Vec::new();
/// let mut sink = JsonLinesWriter::new(&mut buf);
/// sink.write_record(&ExperimentRecord::new("e1", "t")).unwrap();
/// sink.write_record(&ExperimentRecord::new("e2", "t")).unwrap();
/// let text = String::from_utf8(buf).unwrap();
/// assert_eq!(text.lines().count(), 2);
/// ```
#[derive(Debug)]
pub struct JsonLinesWriter<W: io::Write> {
    inner: W,
}

impl<W: io::Write> JsonLinesWriter<W> {
    /// Wraps a writer.
    pub fn new(inner: W) -> JsonLinesWriter<W> {
        JsonLinesWriter { inner }
    }

    /// Writes one record as one line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_record(&mut self, record: &ExperimentRecord) -> io::Result<()> {
        self.write_value(&record.to_json())
    }

    /// Writes one raw JSON value as one line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_value(&mut self, value: &JsonValue) -> io::Result<()> {
        writeln!(self.inner, "{value}")
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentRecord {
        let mut rec = ExperimentRecord::new("e5", "Doom-Switch doubles throughput");
        rec.quick = true;
        rec.wall_ms = 12.75;
        rec.param("pairs", "[(3, 4), (7, 16)]");
        rec.result("gain n=7 k=16", "33/17");
        rec.set_counters(vec![
            ("waterfill.rounds".to_string(), 42),
            ("search.assignments".to_string(), 7),
        ]);
        rec.audit("upper bound t_doom <= 2 t_macro", true);
        rec.audit("lower bound t_doom >= n - 2", true);
        rec
    }

    #[test]
    fn own_encoder_round_trips() {
        let rec = sample();
        let line = rec.to_json_line();
        assert!(!line.contains('\n'));
        assert_eq!(ExperimentRecord::from_json_line(&line).unwrap(), rec);
    }

    #[test]
    fn failed_audit_clears_pass() {
        let mut rec = sample();
        assert!(rec.pass && rec.all_pass());
        rec.audit("T <= T^MT", false);
        assert!(!rec.pass);
        assert!(!rec.all_pass());
        let parsed = ExperimentRecord::from_json_line(&rec.to_json_line()).unwrap();
        assert!(!parsed.pass);
        assert_eq!(parsed.audits.len(), 3);
    }

    #[test]
    fn schema_violations_rejected() {
        for bad in [
            "[]",
            "{}",
            r#"{"record":"experiment"}"#,
            r#"{"record":"experiment","id":"e1","title":"t","quick":true,"wall_ms":"fast","params":{},"counters":{},"results":{},"audits":[],"pass":true}"#,
            r#"{"record":"experiment","id":"e1","title":"t","quick":true,"wall_ms":1,"params":{},"counters":{"c":-1},"results":{},"audits":[],"pass":true}"#,
            r#"{"record":"experiment","id":"e1","title":"t","quick":true,"wall_ms":1,"params":{},"counters":{},"results":{},"audits":[{"check":"x"}],"pass":true}"#,
        ] {
            assert!(ExperimentRecord::from_json_line(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn integer_wall_ms_accepted() {
        let line = r#"{"record":"experiment","id":"e1","title":"t","quick":false,"wall_ms":3,"params":{},"counters":{},"results":{},"audits":[],"pass":true}"#;
        let rec = ExperimentRecord::from_json_line(line).unwrap();
        assert!((rec.wall_ms - 3.0).abs() < f64::EPSILON);
    }

    #[test]
    fn writer_emits_one_line_per_record() {
        let mut buf = Vec::new();
        let mut sink = JsonLinesWriter::new(&mut buf);
        sink.write_record(&sample()).unwrap();
        sink.write_record(&sample()).unwrap();
        sink.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(ExperimentRecord::from_json_line(line).is_ok());
        }
    }

    /// The exact bytes of one record, committed: the float format, each
    /// escape class, UTF-8 pass-through and the field order are pinned
    /// here, not checked against a second encoder.
    #[test]
    fn golden_line_is_byte_exact_and_parses_back() {
        let mut rec = ExperimentRecord::new(
            "e4",
            "Starvation \"doom\" path C:\\fabric\t\u{1b}: rate → 1/n ≤ ½",
        );
        rec.quick = true;
        // Below 1e-4 `{:?}` switches to exponent form, so this pins the
        // float format, not only the digits.
        rec.wall_ms = 0.000_015;
        rec.param("n", "4");
        rec.param("sizes", "[2, 3]");
        rec.set_counters(vec![
            ("waterfill.rounds".to_string(), 7),
            ("search.assignments".to_string(), 81),
        ]);
        rec.result("starvation_factor", "1/4");
        rec.audit("factor <= 1/n", true);
        rec.audit("T >= T^MT", false);
        let golden = concat!(
            r#"{"record":"experiment","id":"e4","#,
            r#""title":"Starvation \"doom\" path C:\\fabric\t\u001b: rate → 1/n ≤ ½","#,
            r#""quick":true,"wall_ms":1.5e-5,"params":{"n":"4","sizes":"[2, 3]"},"#,
            r#""counters":{"search.assignments":81,"waterfill.rounds":7},"#,
            r#""results":{"starvation_factor":"1/4"},"#,
            r#""audits":[{"check":"factor <= 1/n","pass":true},"#,
            r#"{"check":"T >= T^MT","pass":false}],"pass":false}"#,
        );
        assert_eq!(rec.to_json_line(), golden);
        assert_eq!(ExperimentRecord::from_json_line(golden).unwrap(), rec);
    }
}
