//! Per-epoch training telemetry: one typed [`EpochRecord`] per stage-2 /
//! stage-3 epoch, serialized as JSON Lines (`results/telemetry.jsonl`).
//!
//! Like [`crate::RunMetrics`], everything here is always compiled and
//! dependency-free; the *trainer* decides whether to emit records (it only
//! does so when handed a [`TelemetrySink`]). Each line is the codec's
//! compact text of one record; the keys, their order and the number text
//! are a stable contract pinned by `tests/golden_telemetry.rs` — bump
//! [`TELEMETRY_SCHEMA_VERSION`] on any shape change and regenerate the
//! fixture.

use std::path::Path;

use crate::json::{self, JsonWriter, ToJson};

/// Version stamp written into every telemetry line so readers can detect
/// schema drift without guessing from the shape.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 1;

/// Utility/fairness metrics computed on the eval split at an
/// `eval_interval` epoch (revealed sensitive attribute required, so these
/// are evaluation-only — the trainer never sees them).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalMetrics {
    /// Classification accuracy at threshold 0.5.
    pub accuracy: f64,
    /// Binary F1 score at threshold 0.5.
    pub f1: f64,
    /// Statistical-parity gap ΔSP.
    pub delta_sp: f64,
    /// Equal-opportunity gap ΔEO.
    pub delta_eo: f64,
}

crate::json_struct!(ToJson for EvalMetrics { accuracy, f1, delta_sp, delta_eo });

/// One epoch's worth of training telemetry.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochRecord {
    /// Training stage: 2 = classifier pre-training, 3 = fine-tuning.
    pub stage: u8,
    /// 0-based epoch index within the stage.
    pub epoch: u64,
    /// Classification (utility) loss — BCE on the training nodes.
    pub loss_cls: f64,
    /// Invariance loss — the λ-weighted counterfactual regularizer
    /// `α Σᵢ λᵢ Dᵢ` (0 during stage 2, where it is not optimized).
    pub loss_inv: f64,
    /// Sufficiency proxy — the unweighted mean of the per-attribute
    /// aggregated counterfactual distances `Dᵢ` (0 during stage 2).
    pub loss_suf: f64,
    /// The per-attribute weights λ in effect *after* this epoch's update.
    /// Empty during stage 2, where λ is not yet active.
    pub lambda: Vec<f64>,
    /// Global L2 norm of all parameter gradients accumulated this epoch.
    pub grad_norm: f64,
    /// Kernel-counter deltas since the previous record, sorted by label.
    /// Empty in uninstrumented builds (counters need the `enabled` feature).
    pub counters: Vec<(String, u64)>,
    /// Eval-split metrics, present only on `eval_interval` epochs when the
    /// caller provided an eval split.
    pub eval: Option<EvalMetrics>,
}

/// One object per record, `schema_version` first; the counter deltas are
/// an object keyed by label.
impl ToJson for EpochRecord {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("schema_version", &TELEMETRY_SCHEMA_VERSION);
        w.field("stage", &self.stage);
        w.field("epoch", &self.epoch);
        w.field("loss_cls", &self.loss_cls);
        w.field("loss_inv", &self.loss_inv);
        w.field("loss_suf", &self.loss_suf);
        w.field("lambda", &self.lambda);
        w.field("grad_norm", &self.grad_norm);
        w.key("counters");
        w.object(&self.counters);
        w.field("eval", &self.eval);
        w.end_object();
    }
}

/// Collects [`EpochRecord`]s during a fit and writes them as JSON Lines.
///
/// The sink is a plain value (no global state): the trainer appends into
/// whatever sink the caller hands it, and the caller decides where the
/// records go afterwards.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySink {
    records: Vec<EpochRecord>,
}

impl TelemetrySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one record.
    pub fn push(&mut self, record: EpochRecord) {
        self.records.push(record);
    }

    /// The collected records, in push order.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Number of collected records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records were collected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes every record as one compact line each (each line
    /// terminated by `\n`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&json::to_string(r));
            out.push('\n');
        }
        out
    }

    /// Writes [`TelemetrySink::to_jsonl`] to `path`, creating parent
    /// directories.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from directory creation or the file write.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        crate::write_file(path, &self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage3_record() -> EpochRecord {
        EpochRecord {
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
        }
    }

    #[test]
    fn line_layout_is_stable() {
        let expected = concat!(
            "{\"schema_version\":1,\"stage\":3,\"epoch\":4,",
            "\"loss_cls\":0.5,\"loss_inv\":0.25,\"loss_suf\":1.5,",
            "\"lambda\":[0.75,0.25],\"grad_norm\":2.5,",
            "\"counters\":{\"tensor/matmul/flops\":1200},",
            "\"eval\":{\"accuracy\":0.7,\"f1\":0.6,\"delta_sp\":0.05,\"delta_eo\":0.04}}",
        );
        assert_eq!(json::to_string(&stage3_record()), expected);
    }

    #[test]
    fn stage2_record_serializes_empties_and_null_eval() {
        let r = EpochRecord {
            stage: 2,
            epoch: 0,
            loss_cls: 0.625,
            loss_inv: 0.0,
            loss_suf: 0.0,
            lambda: Vec::new(),
            grad_norm: 1.25,
            counters: Vec::new(),
            eval: None,
        };
        let line = json::to_string(&r);
        assert!(line.contains("\"lambda\":[]"), "{line}");
        assert!(line.contains("\"counters\":{}"), "{line}");
        assert!(line.ends_with("\"eval\":null}"), "{line}");
    }

    #[test]
    fn non_finite_losses_become_null_not_invalid_json() {
        let r = EpochRecord {
            loss_cls: f64::NAN,
            grad_norm: f64::INFINITY,
            ..stage3_record()
        };
        let line = json::to_string(&r);
        assert!(line.contains("\"loss_cls\":null"), "{line}");
        assert!(line.contains("\"grad_norm\":null"), "{line}");
    }

    #[test]
    fn sink_writes_one_line_per_record() {
        let mut sink = TelemetrySink::new();
        assert!(sink.is_empty());
        sink.push(stage3_record());
        sink.push(stage3_record());
        assert_eq!(sink.len(), 2);
        let body = sink.to_jsonl();
        assert_eq!(body.lines().count(), 2);
        assert!(body.ends_with('\n'));

        let dir = std::env::temp_dir().join("fairwos_obs_telemetry_test");
        let path = dir.join("nested").join("telemetry.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        sink.write_jsonl(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), body);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
