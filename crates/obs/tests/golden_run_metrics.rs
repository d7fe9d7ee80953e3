//! Golden-snapshot test for the `bench_pipeline.json` schema.
//!
//! A hand-built [`RunMetrics`] batch is serialized and compared
//! byte-for-byte against the checked-in fixture, so any change to the
//! schema — field order, number formatting, the wrapper document — shows
//! up as an explicit diff in review instead of silently breaking
//! downstream readers of `results/bench_pipeline.json`. The fixture is in
//! the JSON codec's pretty layout: parsed and re-emitted, it is unchanged.
//!
//! To regenerate after an *intentional* schema change (bump
//! `SCHEMA_VERSION` first):
//!
//! ```sh
//! cargo test -p fairwos-obs --test golden_run_metrics -- --ignored regenerate
//! ```

use fairwos_obs::json::{self, Value};
use fairwos_obs::{CounterMetric, Pipeline, RunMetrics, ScaleMetric, SpanMetric};

const FIXTURE: &str = include_str!("fixtures/run_metrics_golden.json");

/// Two runs exercising every schema corner: populated and empty metric
/// arrays, a zero seed, a label needing string escaping, and floats with
/// short and long shortest-representations.
fn golden_runs() -> Vec<RunMetrics> {
    vec![
        RunMetrics {
            method: "Fairwos".to_owned(),
            dataset: "nba".to_owned(),
            backbone: "GCN".to_owned(),
            seed: 2025,
            wall_secs: 1.25,
            spans: vec![
                SpanMetric {
                    label: "train/stage1_encoder".to_owned(),
                    count: 1,
                    total_secs: 0.75,
                    min_secs: 0.75,
                    max_secs: 0.75,
                },
                SpanMetric {
                    label: "train/stage2/epoch".to_owned(),
                    count: 500,
                    total_secs: 0.4,
                    min_secs: 0.0005,
                    max_secs: 0.003,
                },
            ],
            counters: vec![
                CounterMetric {
                    label: "graph/spmm/fma".to_owned(),
                    calls: 1500,
                    total: 123456789,
                },
                CounterMetric {
                    label: "tensor/matmul/flops".to_owned(),
                    calls: 3000,
                    total: 9876543210,
                },
            ],
            scales: vec![
                ScaleMetric {
                    label: "train/edges".to_owned(),
                    max: 16570,
                },
                ScaleMetric {
                    label: "train/nodes".to_owned(),
                    max: 403,
                },
            ],
        },
        RunMetrics {
            method: "Vanilla \"baseline\"".to_owned(),
            dataset: "synthetic".to_owned(),
            backbone: "SAGE".to_owned(),
            seed: 0,
            wall_secs: 0.0078125,
            spans: Vec::new(),
            counters: Vec::new(),
            scales: Vec::new(),
        },
    ]
}

#[test]
fn pipeline_json_matches_the_checked_in_fixture() {
    let actual = json::to_string_pretty(&Pipeline(&golden_runs()));
    assert_eq!(
        actual, FIXTURE,
        "bench_pipeline.json schema drifted from the golden fixture; if the \
         change is intentional, bump SCHEMA_VERSION and regenerate with \
         `cargo test -p fairwos-obs --test golden_run_metrics -- --ignored regenerate`"
    );
    let parsed = Value::parse(FIXTURE).expect("fixture parses");
    assert_eq!(json::to_string_pretty(&parsed), FIXTURE, "fixture re-emits");
}

#[test]
fn fixture_is_valid_for_naive_line_readers() {
    // The trajectory tooling greps the file line-by-line; pin the coarse
    // landmarks it keys on so the full-byte assertion above isn't the only
    // documentation of them.
    assert!(FIXTURE.starts_with("{\n  \"schema_version\": 1,\n"));
    assert!(FIXTURE.contains("\"tool\": \"fairwos-obs\""));
    assert!(FIXTURE.contains("\"runs\": ["));
    assert!(FIXTURE.ends_with("]\n}"));
}

#[test]
#[ignore = "writes the fixture; run explicitly after an intentional schema change"]
fn regenerate() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/run_metrics_golden.json");
    std::fs::write(&path, json::to_string_pretty(&Pipeline(&golden_runs()))).unwrap();
}
