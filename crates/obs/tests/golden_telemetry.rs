//! Byte-level golden test for the telemetry JSONL schema
//! (`schema_version: 1`), one compact codec line per record. If this fails
//! you changed the line layout:
//! bump [`fairwos_obs::TELEMETRY_SCHEMA_VERSION`], regenerate the fixture
//! (`cargo test -p fairwos-obs --test golden_telemetry -- --ignored`), and
//! update `docs/OBSERVABILITY.md`.

use fairwos_obs::json::{self, Value};
use fairwos_obs::{EpochRecord, EvalMetrics, TelemetrySink};

const FIXTURE: &str = include_str!("fixtures/telemetry_golden.jsonl");

/// One stage-2 record (empty λ/counters, no eval) and one stage-3 record
/// (full shape) — together they exercise every branch of the serializer.
fn golden_sink() -> TelemetrySink {
    let mut sink = TelemetrySink::new();
    sink.push(EpochRecord {
        stage: 2,
        epoch: 0,
        loss_cls: std::f64::consts::LN_2,
        loss_inv: 0.0,
        loss_suf: 0.0,
        lambda: Vec::new(),
        grad_norm: 1.25,
        counters: Vec::new(),
        eval: None,
    });
    sink.push(EpochRecord {
        stage: 3,
        epoch: 4,
        loss_cls: 0.5,
        loss_inv: 0.25,
        loss_suf: 1.5,
        lambda: vec![0.75, 0.25],
        grad_norm: 2.5,
        counters: vec![("tensor/matmul/flops".to_owned(), 1200)],
        eval: Some(EvalMetrics {
            accuracy: 0.7,
            f1: 0.6,
            delta_sp: 0.05,
            delta_eo: 0.04,
        }),
    });
    sink
}

#[test]
fn telemetry_jsonl_matches_fixture_byte_for_byte() {
    assert_eq!(golden_sink().to_jsonl(), FIXTURE);
    for line in FIXTURE.lines() {
        let parsed = Value::parse(line).expect("fixture line parses");
        assert_eq!(json::to_string(&parsed), line, "fixture line re-emits");
    }
}

#[test]
#[ignore = "writes the fixture; run explicitly after an intentional schema change"]
fn regenerate() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/telemetry_golden.jsonl");
    std::fs::write(&path, golden_sink().to_jsonl()).unwrap();
}
