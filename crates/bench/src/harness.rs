//! Shared machinery: method construction, timed runs, aggregation records.

use fairwos_baselines::{FairGkd, FairRF, KSmote, RemoveR, Vanilla};
use fairwos_core::{FairMethod, FairwosConfig, FairwosTrainer, TrainInput};
use fairwos_datasets::FairGraphDataset;
use fairwos_fairness::{EvalReport, MeanStd, RunAggregator};
use fairwos_nn::Backbone;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every method that appears in the paper's tables and figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MethodKind {
    /// `Vanilla\S` — the raw backbone.
    Vanilla,
    /// `RemoveR` — drop candidate-related attributes.
    RemoveR,
    /// `KSMOTE` — pseudo-groups by clustering + parity regularizer.
    KSmote,
    /// `FairRF` — correlation minimization with related features.
    FairRF,
    /// `FairGKD\S` — partial knowledge distillation.
    FairGkd,
    /// Full Fairwos.
    Fairwos,
    /// Ablation: Fairwos without the encoder (Fig. 4/8 `Fwos w/o E`).
    FairwosWoE,
    /// Ablation: Fairwos without fairness promotion (`Fwos w/o F`).
    FairwosWoF,
    /// Ablation: Fairwos without weight updating (`Fwos w/o W`).
    FairwosWoW,
}

impl MethodKind {
    /// The six methods of Table II, in paper row order.
    pub fn table2() -> [MethodKind; 6] {
        [
            MethodKind::Vanilla,
            MethodKind::RemoveR,
            MethodKind::KSmote,
            MethodKind::FairRF,
            MethodKind::FairGkd,
            MethodKind::Fairwos,
        ]
    }

    /// The five variants of Fig. 4 (backbone + ablations + full).
    pub fn fig4() -> [MethodKind; 5] {
        [
            MethodKind::Vanilla,
            MethodKind::FairwosWoE,
            MethodKind::FairwosWoF,
            MethodKind::FairwosWoW,
            MethodKind::Fairwos,
        ]
    }
}

/// The harness-default Fairwos configuration: the paper's architecture with
/// a CPU-sized schedule and a regularization weight calibrated to our
/// per-pair-normalized distance (see EXPERIMENTS.md, "α correspondence").
pub fn fairwos_config(backbone: Backbone) -> FairwosConfig {
    FairwosConfig {
        alpha: 2.0,
        top_k: 2,
        finetune_epochs: 40,
        ..FairwosConfig::fast(backbone)
    }
}

/// Builds a ready-to-run method. RemoveR and FairRF receive the dataset's
/// documented proxy columns as their candidate/related feature lists —
/// the domain knowledge those methods assume.
pub fn build_method(
    kind: MethodKind,
    backbone: Backbone,
    ds: &FairGraphDataset,
) -> Box<dyn FairMethod> {
    let proxies: Vec<usize> = (0..ds.spec.corr_features).collect();
    match kind {
        MethodKind::Vanilla => Box::new(Vanilla::new(backbone)),
        MethodKind::RemoveR => Box::new(RemoveR::new(backbone, proxies)),
        MethodKind::KSmote => Box::new(KSmote::new(backbone)),
        MethodKind::FairRF => Box::new(FairRF::new(backbone, proxies)),
        MethodKind::FairGkd => Box::new(FairGkd::new(backbone)),
        MethodKind::Fairwos => Box::new(FairwosTrainer::new(fairwos_config(backbone))),
        MethodKind::FairwosWoE => Box::new(FairwosTrainer::new(FairwosConfig {
            use_encoder: false,
            ..fairwos_config(backbone)
        })),
        MethodKind::FairwosWoF => Box::new(FairwosTrainer::new(FairwosConfig {
            use_fairness: false,
            ..fairwos_config(backbone)
        })),
        MethodKind::FairwosWoW => Box::new(FairwosTrainer::new(FairwosConfig {
            use_weight_update: false,
            ..fairwos_config(backbone)
        })),
    }
}

/// One timed training run evaluated on the test split (where the sensitive
/// attribute is revealed, per the paper's protocol).
pub fn run_method(method: &dyn FairMethod, ds: &FairGraphDataset, seed: u64) -> (EvalReport, f64) {
    let input = TrainInput {
        graph: &ds.graph,
        features: &ds.features,
        labels: &ds.labels,
        train: &ds.split.train,
        val: &ds.split.val,
    };
    #[expect(clippy::disallowed_methods, reason = "the bench measures wall time")]
    let start = Instant::now();
    let probs = method.fit_predict(&input, seed);
    let secs = start.elapsed().as_secs_f64();
    let test_probs: Vec<f32> = ds.split.test.iter().map(|&v| probs[v]).collect();
    let test_labels = ds.labels_of(&ds.split.test);
    let test_sens = ds.sensitive_of(&ds.split.test);
    (
        EvalReport::compute(&test_probs, &test_labels, &test_sens),
        secs,
    )
}

/// Aggregated result of `runs` repetitions of one method on one dataset.
pub struct MethodRun {
    /// Display name ("Fairwos", "RemoveR", …).
    pub name: String,
    /// Per-metric aggregation.
    pub agg: RunAggregator,
    /// Wall-clock seconds per run.
    pub times: Vec<f64>,
    /// Per-run observability snapshots (stage spans, kernel counters).
    /// Empty unless the workspace is built with the `obs` feature.
    pub pipeline: Vec<fairwos_obs::RunMetrics>,
}

impl MethodRun {
    /// Executes `runs` seeded repetitions of `kind` on `ds`.
    pub fn execute(
        kind: MethodKind,
        backbone: Backbone,
        ds: &FairGraphDataset,
        runs: usize,
        base_seed: u64,
    ) -> Self {
        let method = build_method(kind, backbone, ds);
        let mut agg = RunAggregator::new();
        let mut times = Vec::with_capacity(runs);
        let mut pipeline = Vec::new();
        for r in 0..runs {
            let seed = base_seed + r as u64;
            fairwos_obs::reset();
            let (report, secs) = run_method(method.as_ref(), ds, seed);
            agg.push_report(&report);
            times.push(secs);
            if fairwos_obs::is_enabled() {
                pipeline.push(fairwos_obs::RunMetrics::capture(
                    &method.name(),
                    &ds.spec.name,
                    &backbone.to_string(),
                    seed,
                    secs,
                ));
            }
        }
        Self {
            name: method.name(),
            agg,
            times,
            pipeline,
        }
    }

    /// A Table-II-style text row: `ACC ΔDP ΔEO`, percent, mean±std.
    ///
    /// # Panics
    /// If no run recorded `accuracy`, `delta_sp` or `delta_eo`.
    pub fn table_row(&self) -> String {
        let cell = |m: &str| {
            self.agg
                .mean_std(m)
                .expect("metric recorded")
                .percent_cell()
        };
        format!(
            "{:<12} | {:>14} | {:>14} | {:>14}",
            self.name,
            cell("accuracy"),
            cell("delta_sp"),
            cell("delta_eo")
        )
    }

    /// Mean ± std of wall-clock seconds.
    pub fn time_stats(&self) -> MeanStd {
        MeanStd::of(&self.times)
    }

    /// Serializable record of this run.
    ///
    /// # Panics
    /// Not in practice: every metric the aggregator lists has a value.
    pub fn record(&self, dataset: &str, backbone: Backbone) -> RunRecord {
        let mut metrics = BTreeMap::new();
        for m in self.agg.metrics() {
            metrics.insert(
                m.to_string(),
                self.agg.mean_std(m).expect("metric recorded"),
            );
        }
        RunRecord {
            dataset: dataset.to_string(),
            backbone: backbone.to_string(),
            method: self.name.clone(),
            runs: self.times.len(),
            metrics,
            seconds: self.time_stats(),
        }
    }
}

/// Default location of the observability batch the experiment binaries
/// write when built with the `obs` feature.
pub const PIPELINE_METRICS_PATH: &str = "results/bench_pipeline.json";

/// Writes the accumulated per-run observability snapshots to
/// [`PIPELINE_METRICS_PATH`] in the stable `fairwos-obs` pipeline schema.
///
/// Does nothing in uninstrumented builds, so binaries can call it
/// unconditionally. A write failure is reported on stderr rather than
/// aborting — metrics must never take down an experiment that already ran.
pub fn write_pipeline_metrics(runs: &[fairwos_obs::RunMetrics]) {
    if !fairwos_obs::is_enabled() {
        return;
    }
    let path = std::path::Path::new(PIPELINE_METRICS_PATH);
    match fairwos_obs::write_pipeline_json(path, runs) {
        Ok(()) => eprintln!("wrote {PIPELINE_METRICS_PATH} ({} runs)", runs.len()),
        Err(e) => eprintln!("warning: could not write {PIPELINE_METRICS_PATH}: {e}"),
    }
}

/// Default location of the Chrome-trace timeline the instrumented
/// experiment binaries export (load it in `ui.perfetto.dev`).
pub const TRACE_PATH: &str = "results/trace.json";

/// Default location of the per-epoch training telemetry JSONL.
pub const TELEMETRY_PATH: &str = "results/telemetry.jsonl";

/// Drains the global event journal into [`TRACE_PATH`] as a Chrome-trace
/// JSON document.
///
/// Does nothing in uninstrumented builds (the journal is empty and the
/// export would be meaningless), so binaries can call it unconditionally.
/// Like [`write_pipeline_metrics`], a write failure is reported on stderr
/// rather than aborting.
pub fn write_trace_artifact() {
    if !fairwos_obs::is_enabled() {
        return;
    }
    let events = fairwos_obs::journal_events();
    let path = std::path::Path::new(TRACE_PATH);
    match fairwos_obs::write_trace_json(path, &events) {
        Ok(()) => eprintln!("wrote {TRACE_PATH} ({} events)", events.len()),
        Err(e) => eprintln!("warning: could not write {TRACE_PATH}: {e}"),
    }
}

/// Machine-readable experiment row (the JSON log the binaries emit).
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Dataset name.
    pub dataset: String,
    /// Backbone name.
    pub backbone: String,
    /// Method display name.
    pub method: String,
    /// Repetitions aggregated.
    pub runs: usize,
    /// Metric → mean±std.
    pub metrics: BTreeMap<String, MeanStd>,
    /// Wall-clock seconds.
    pub seconds: MeanStd,
}

fairwos_obs::json_struct!(ToJson for RunRecord {
    dataset, backbone, method, runs, metrics, seconds
});

#[cfg(test)]
mod tests {
    use super::*;
    use fairwos_datasets::DatasetSpec;

    #[test]
    fn build_all_methods() {
        let ds = FairGraphDataset::generate(&DatasetSpec::nba().scaled(0.2), 0);
        for kind in [
            MethodKind::Vanilla,
            MethodKind::RemoveR,
            MethodKind::KSmote,
            MethodKind::FairRF,
            MethodKind::FairGkd,
            MethodKind::Fairwos,
            MethodKind::FairwosWoE,
            MethodKind::FairwosWoF,
            MethodKind::FairwosWoW,
        ] {
            let m = build_method(kind, Backbone::Gcn, &ds);
            assert!(!m.name().is_empty());
        }
        assert_eq!(
            build_method(MethodKind::FairwosWoE, Backbone::Gcn, &ds).name(),
            "Fwos w/o E"
        );
    }

    #[test]
    fn method_run_aggregates() {
        let ds = FairGraphDataset::generate(&DatasetSpec::nba().scaled(0.25), 1);
        let run = MethodRun::execute(MethodKind::Vanilla, Backbone::Gcn, &ds, 2, 100);
        assert_eq!(run.times.len(), 2);
        assert_eq!(run.agg.run_count("accuracy"), 2);
        let row = run.table_row();
        assert!(row.contains("Vanilla"));
        let record = run.record("nba", Backbone::Gcn);
        assert_eq!(record.runs, 2);
        assert!(record.metrics.contains_key("delta_sp"));
        assert!(record.seconds.mean > 0.0);
    }
}
