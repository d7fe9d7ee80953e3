//! Byte-level golden test for the Chrome `trace_event` export
//! (`schema_version: 1`), in the JSON codec's pretty layout. If this fails
//! you changed the document: bump [`fairwos_obs::TRACE_SCHEMA_VERSION`],
//! regenerate the fixture
//! (`cargo test -p fairwos-obs --test golden_trace -- --ignored`), and
//! re-check the output still loads in Perfetto.

use fairwos_obs::json::{self, Value};
use fairwos_obs::{Event, TimedEvent, Trace};

const FIXTURE: &str = include_str!("fixtures/trace_golden.json");

/// A two-event document: one matched `"B"`/`"E"` span pair on thread 0,
/// pinning the envelope fields and the ns→µs timestamp formatting.
fn golden_events() -> Vec<TimedEvent> {
    vec![
        TimedEvent {
            ts_ns: 1_500,
            tid: 0,
            event: Event::SpanBegin {
                label: "train/stage2/epoch".to_owned(),
            },
        },
        TimedEvent {
            ts_ns: 2_501_250,
            tid: 0,
            event: Event::SpanEnd {
                label: "train/stage2/epoch".to_owned(),
            },
        },
    ]
}

#[test]
fn trace_document_matches_fixture_byte_for_byte() {
    assert_eq!(json::to_string_pretty(&Trace(&golden_events())), FIXTURE);
    let parsed = Value::parse(FIXTURE).expect("fixture parses");
    assert_eq!(json::to_string_pretty(&parsed), FIXTURE, "fixture re-emits");
}

#[test]
#[ignore = "writes the fixture; run explicitly after an intentional schema change"]
fn regenerate() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/trace_golden.json");
    std::fs::write(&path, json::to_string_pretty(&Trace(&golden_events()))).unwrap();
}
