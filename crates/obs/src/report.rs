//! The always-compiled metrics schema: [`RunMetrics`] and the
//! `results/bench_pipeline.json` document ([`Pipeline`]). These types exist
//! in both build modes — only the *contents* differ (empty vectors when the
//! `enabled` feature is off) — so harness code never needs feature gates of
//! its own.
//!
//! The document is a **stable contract**: its keys, key order and number
//! text are pinned by the golden-snapshot test in
//! `tests/golden_run_metrics.rs`, its layout is the JSON codec's pretty
//! layout, and downstream tooling reads `results/bench_pipeline.json` by
//! this schema. Bump [`SCHEMA_VERSION`] on any shape change and regenerate
//! the fixture.

use std::path::Path;

use crate::json::{self, JsonWriter, ToJson};

/// Version stamp written into the pipeline file so readers can detect
/// schema drift without guessing from the shape.
pub const SCHEMA_VERSION: u32 = 1;

/// Aggregated timings for one span label within a run.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanMetric {
    /// Hierarchical `/`-separated label, e.g. `train/stage2/epoch`.
    pub label: String,
    /// How many guard drops were recorded under this label.
    pub count: u64,
    /// Sum of all recorded wall times, in seconds.
    pub total_secs: f64,
    /// Shortest single recording, in seconds.
    pub min_secs: f64,
    /// Longest single recording, in seconds.
    pub max_secs: f64,
}

crate::json_struct!(ToJson for SpanMetric { label, count, total_secs, min_secs, max_secs });

/// Accumulated total for one counter label within a run.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterMetric {
    /// Counter label, e.g. `tensor/matmul/flops`.
    pub label: String,
    /// Number of `counter_add` calls under this label.
    pub calls: u64,
    /// Sum of all amounts added under this label.
    pub total: u64,
}

crate::json_struct!(ToJson for CounterMetric { label, calls, total });

/// Peak value observed for one gauge label within a run.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleMetric {
    /// Gauge label, e.g. `train/nodes`.
    pub label: String,
    /// Maximum value recorded under this label.
    pub max: u64,
}

crate::json_struct!(ToJson for ScaleMetric { label, max });

/// One training run's worth of observability: identity, wall time, and the
/// registry snapshot taken at capture time.
#[derive(Clone, Debug, PartialEq)]
pub struct RunMetrics {
    /// Method name as the bench harness reports it, e.g. `Fairwos`.
    pub method: String,
    /// Dataset name, e.g. `nba`.
    pub dataset: String,
    /// Backbone name, e.g. `GCN`.
    pub backbone: String,
    /// RNG seed the run used.
    pub seed: u64,
    /// End-to-end wall time of the run in seconds, as measured by the
    /// harness (not derived from spans — it includes uninstrumented work).
    pub wall_secs: f64,
    /// Span aggregates, sorted by label.
    pub spans: Vec<SpanMetric>,
    /// Counter totals, sorted by label.
    pub counters: Vec<CounterMetric>,
    /// Gauge maxima, sorted by label.
    pub scales: Vec<ScaleMetric>,
}

crate::json_struct!(ToJson for RunMetrics {
    method, dataset, backbone, seed, wall_secs, spans, counters, scales
});

impl RunMetrics {
    /// Snapshots the global registry into a run record.
    ///
    /// With the `enabled` feature this drains nothing — the registry keeps
    /// its state until the next `reset()` — it only copies the aggregates,
    /// sorted by label. Without the feature the three vectors are empty.
    pub fn capture(method: &str, dataset: &str, backbone: &str, seed: u64, wall_secs: f64) -> Self {
        #[cfg(feature = "enabled")]
        let (spans, counters, scales) = crate::registry::snapshot();
        #[cfg(not(feature = "enabled"))]
        let (spans, counters, scales) = (Vec::new(), Vec::new(), Vec::new());
        RunMetrics {
            method: method.to_owned(),
            dataset: dataset.to_owned(),
            backbone: backbone.to_owned(),
            seed,
            wall_secs,
            spans,
            counters,
            scales,
        }
    }
}

/// The `results/bench_pipeline.json` document over a batch of runs:
/// `{"schema_version": …, "tool": "fairwos-obs", "runs": […]}`.
pub struct Pipeline<'a>(pub &'a [RunMetrics]);

impl ToJson for Pipeline<'_> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("schema_version", &SCHEMA_VERSION);
        w.field("tool", "fairwos-obs");
        w.field("runs", self.0);
        w.end_object();
    }
}

/// Writes the [`Pipeline`] document of `runs` to `path` (pretty), creating
/// parent directories.
///
/// # Errors
///
/// Propagates any I/O error from directory creation or the file write.
pub fn write_pipeline_json(path: &Path, runs: &[RunMetrics]) -> std::io::Result<()> {
    crate::write_file(path, &json::to_string_pretty(&Pipeline(runs)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunMetrics {
        RunMetrics {
            method: "Fairwos".to_owned(),
            dataset: "nba".to_owned(),
            backbone: "GCN".to_owned(),
            seed: 2025,
            wall_secs: 1.25,
            spans: vec![SpanMetric {
                label: "train/stage1_encoder".to_owned(),
                count: 1,
                total_secs: 0.5,
                min_secs: 0.5,
                max_secs: 0.5,
            }],
            counters: vec![CounterMetric {
                label: "tensor/matmul/flops".to_owned(),
                calls: 3,
                total: 600,
            }],
            scales: vec![ScaleMetric {
                label: "train/nodes".to_owned(),
                max: 403,
            }],
        }
    }

    #[test]
    fn run_json_has_the_pinned_shape() {
        let expected = concat!(
            "{\n",
            "  \"method\": \"Fairwos\",\n",
            "  \"dataset\": \"nba\",\n",
            "  \"backbone\": \"GCN\",\n",
            "  \"seed\": 2025,\n",
            "  \"wall_secs\": 1.25,\n",
            "  \"spans\": [\n",
            "    {\n",
            "      \"label\": \"train/stage1_encoder\",\n",
            "      \"count\": 1,\n",
            "      \"total_secs\": 0.5,\n",
            "      \"min_secs\": 0.5,\n",
            "      \"max_secs\": 0.5\n",
            "    }\n",
            "  ],\n",
            "  \"counters\": [\n",
            "    {\n",
            "      \"label\": \"tensor/matmul/flops\",\n",
            "      \"calls\": 3,\n",
            "      \"total\": 600\n",
            "    }\n",
            "  ],\n",
            "  \"scales\": [\n",
            "    {\n",
            "      \"label\": \"train/nodes\",\n",
            "      \"max\": 403\n",
            "    }\n",
            "  ]\n",
            "}",
        );
        assert_eq!(json::to_string_pretty(&sample()), expected);
    }

    #[test]
    fn empty_vectors_serialize_as_empty_arrays() {
        let rm = RunMetrics {
            spans: Vec::new(),
            counters: Vec::new(),
            scales: Vec::new(),
            ..sample()
        };
        let doc = json::to_string_pretty(&rm);
        assert!(doc.contains("\"spans\": [],\n"), "{doc}");
        assert!(doc.contains("\"counters\": [],\n"), "{doc}");
        assert!(doc.contains("\"scales\": []\n"), "{doc}");
    }

    #[test]
    fn pipeline_document_wraps_runs_with_version_and_tool() {
        let doc = json::to_string_pretty(&Pipeline(&[sample(), sample()]));
        assert!(doc.starts_with("{\n  \"schema_version\": 1,\n  \"tool\": \"fairwos-obs\",\n"));
        assert_eq!(doc.matches("\"method\": \"Fairwos\"").count(), 2);
        assert!(doc.ends_with("]\n}"), "{doc}");
        let empty = json::to_string_pretty(&Pipeline(&[]));
        assert!(empty.contains("\"runs\": []\n}"), "{empty}");
    }

    #[test]
    fn write_creates_parent_directories() {
        let dir = std::env::temp_dir().join("fairwos_obs_report_test");
        let path = dir.join("nested").join("pipeline.json");
        let _ = std::fs::remove_dir_all(&dir);
        write_pipeline_json(&path, &[sample()]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, json::to_string_pretty(&Pipeline(&[sample()])));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
