//! Property tests: arbitrary JSON values and experiment records survive a
//! round trip through the hand-rolled encoder/parser.

use clos_telemetry::json::JsonValue;
use clos_telemetry::ExperimentRecord;
use proptest::prelude::*;

fn arb_json() -> impl Strategy<Value = JsonValue> {
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        any::<i64>().prop_map(|n| JsonValue::Int(i128::from(n))),
        // Finite floats only: the encoder maps non-finite values to null.
        any::<f64>()
            .prop_filter("finite", |x| x.is_finite())
            .prop_map(JsonValue::Float),
        ".*".prop_map(JsonValue::from),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(JsonValue::Array),
            prop::collection::vec((".*", inner), 0..6).prop_map(JsonValue::Object),
        ]
    })
}

fn arb_record() -> impl Strategy<Value = ExperimentRecord> {
    (
        "e[0-9]{1,2}",
        ".*",
        any::<bool>(),
        any::<f64>().prop_filter("finite", |x| x.is_finite()),
        prop::collection::btree_map("[a-z_]{1,8}", ".*", 0..4),
        prop::collection::btree_map("[a-z_.]{1,12}", any::<u64>(), 0..4),
        prop::collection::btree_map("[a-z_]{1,8}", ".*", 0..4),
        prop::collection::vec((".*", any::<bool>()), 0..4),
    )
        .prop_map(
            |(id, title, quick, wall_ms, params, counters, results, audits)| {
                let mut rec = ExperimentRecord::new(&id, &title);
                rec.quick = quick;
                rec.wall_ms = wall_ms;
                rec.params = params;
                rec.counters = counters;
                rec.results = results;
                for (check, pass) in audits {
                    rec.audit(&check, pass);
                }
                rec
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_value_round_trips(value in arb_json()) {
        let encoded = value.to_string();
        let parsed = JsonValue::parse(&encoded).expect("own encoder emits valid JSON");
        prop_assert_eq!(parsed, value);
    }

    #[test]
    fn record_round_trips_through_own_codec(rec in arb_record()) {
        let line = rec.to_json_line();
        prop_assert!(!line.contains('\n'));
        let parsed = ExperimentRecord::from_json_line(&line).expect("schema round-trip");
        prop_assert_eq!(parsed, rec);
    }
}
