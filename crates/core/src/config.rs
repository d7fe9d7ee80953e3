//! Configuration surface of the Fairwos trainer.

use fairwos_nn::Backbone;

/// How the per-attribute weights λ are updated each fine-tuning epoch.
///
/// The paper's *text* (§III-E) argues that attributes with a **large**
/// counterfactual distance `Dᵢ` have the strongest causal link to the
/// prediction and should get the largest λᵢ — but the paper's *derivation*
/// (Eq. 17–24, minimizing `α·λ·D + ‖λ‖²` over the simplex) provably assigns
/// the largest weight to the **smallest** `Dᵢ`. Both readings are
/// implemented so the discrepancy can be measured
/// (`exp_ablation_lambda`); the default follows the derivation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightMode {
    /// The closed-form KKT solution of Eq. 24 (emphasizes small `Dᵢ`).
    KktClosedForm,
    /// λᵢ ∝ Dᵢ — the paper's verbal intent (emphasizes large `Dᵢ`).
    ProportionalToDistance,
}

fairwos_obs::json_enum!(ToJson, FromJson for WeightMode { KktClosedForm, ProportionalToDistance });

/// How counterfactual targets are obtained for the fairness regularizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CfStrategy {
    /// The paper's method (Eq. 11–12): search the *real* training set for
    /// the top-K nearest same-label nodes with a flipped pseudo-sensitive
    /// attribute. Counterfactuals are always realistic observations.
    SearchReal,
    /// The perturbation approach of prior work (NIFTY/GEAR style), kept as
    /// an ablation of the paper's core design claim: flip each
    /// pseudo-sensitive dimension by mirroring it around its median and
    /// re-encode. Produces potentially non-realistic counterfactuals that
    /// ignore inter-attribute correlations.
    PerturbAttribute,
}

fairwos_obs::json_enum!(ToJson, FromJson for CfStrategy { SearchReal, PerturbAttribute });

/// Divergence-watchdog thresholds, checked once per stage-2/stage-3 epoch:
/// the obs crate's [`fairwos_obs::WatchdogPolicy`] itself, which the
/// trainer hands to its watchdogs unchanged. It decodes field by field
/// with defaults, so configs serialized before the watchdog existed still
/// load.
pub use fairwos_obs::WatchdogPolicy as WatchdogConfig;

/// Checkpointing and divergence-recovery policy of fits with a checkpoint
/// store ([`crate::FitOptions::checkpoints`]).
///
/// Decoded field-by-field with defaults, so configs serialized before the
/// recovery subsystem existed still load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryConfig {
    /// A checkpoint is written every `checkpoint_interval` stage-2/stage-3
    /// epochs (plus one at each stage boundary). Must be ≥ 1.
    pub checkpoint_interval: usize,
    /// How many checkpoint generations the store retains; older ones are
    /// pruned after each successful write. Must be ≥ 1.
    pub retain: usize,
    /// Attempts per checkpoint write before the transient-failure retry
    /// gives up and surfaces the error. Must be ≥ 1.
    pub write_attempts: usize,
    /// How many divergence rollbacks a fit with a store performs (each one
    /// scaling the learning rate by [`RecoveryConfig::lr_backoff`]) before
    /// surfacing the divergence error.
    pub max_rollbacks: usize,
    /// Learning-rate multiplier applied on each divergence rollback. Must
    /// be in `(0, 1]`.
    pub lr_backoff: f32,
}

fairwos_obs::json_struct!(ToJson, FromJson for RecoveryConfig {
    checkpoint_interval, retain, write_attempts, max_rollbacks, lr_backoff, ..Self::default()
});

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            checkpoint_interval: 10,
            retain: 3,
            write_attempts: 3,
            max_rollbacks: 2,
            lr_backoff: 0.5,
        }
    }
}

/// Mini-batch neighbor-sampled training knobs (see `docs/SCALING.md`).
///
/// When present on [`FairwosConfig::minibatch`], stages 1–3 train on
/// BFS-partitioned node blocks over deterministically sampled subgraphs
/// instead of the full graph. With `batch_nodes ≥ num_nodes` and an
/// all-zero `fanout` the single batch *is* the full graph and training is
/// bit-for-bit identical to the full-batch path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinibatchConfig {
    /// Maximum nodes per BFS partition block (one block = one batch).
    /// Must be ≥ 1.
    pub batch_nodes: usize,
    /// Per-layer neighbor fanout for the classifier's sampler; `0` means
    /// *all* neighbors (infinite fanout). Length must equal
    /// [`FairwosConfig::num_layers`]; the single-layer encoder sampler uses
    /// `fanout[0]`.
    pub fanout: Vec<usize>,
    /// Write a mid-epoch checkpoint (with the batch cursor) every this many
    /// processed batches; `0` disables mid-epoch checkpoints. Only consulted
    /// by fits with a checkpoint store.
    pub checkpoint_batches: usize,
    /// Shuffle the batch order each epoch (drawn from the checkpointed
    /// sampler RNG, so shuffled runs stay resumable and seed-deterministic).
    pub shuffle: bool,
}

fairwos_obs::json_struct!(ToJson, FromJson for MinibatchConfig {
    batch_nodes, fanout, checkpoint_batches = 0, shuffle = false
});

impl MinibatchConfig {
    /// Blocks of `batch_nodes` seeds with the given per-layer fanout, no
    /// mid-epoch checkpoints, and a fixed (unshuffled) batch order.
    pub fn new(batch_nodes: usize, fanout: Vec<usize>) -> Self {
        Self {
            batch_nodes,
            fanout,
            checkpoint_batches: 0,
            shuffle: false,
        }
    }
}

/// All hyper-parameters of Algorithm 1, including the ablation switches
/// used by the Fig. 4 experiment.
#[derive(Clone, Debug)]
pub struct FairwosConfig {
    /// GNN backbone for both the encoder and the classifier.
    pub backbone: Backbone,
    /// Output dimension of the encoder = number of pseudo-sensitive
    /// attributes `I`. The paper's default is 16 (studied in Fig. 5).
    pub encoder_dim: usize,
    /// Hidden dimension of the GNN classifier (paper: 16).
    pub hidden_dim: usize,
    /// Conv layers in the classifier (paper: 1).
    pub num_layers: usize,
    /// Fairness regularization weight α (paper grid: 0.01–5, Fig. 6 uses
    /// 0.01–0.08).
    pub alpha: f32,
    /// Number of graph counterfactuals per node and attribute, K
    /// (paper grid: 1–20, Fig. 6 uses 1–4).
    pub top_k: usize,
    /// How many fine-tuning epochs a counterfactual search result is reused
    /// before the top-K search re-runs against the current embeddings.
    /// `1` (the default, and the paper's Algorithm 1) refreshes every epoch;
    /// larger values amortize the search over several θ-steps.
    pub cf_refresh_interval: usize,
    /// Adam learning rate for the two pre-training stages (paper: 1e-3).
    pub learning_rate: f32,
    /// Adam learning rate for the fine-tuning stage. The fairness gradient
    /// reshapes representations that pre-training spent hundreds of epochs
    /// forming; a gentler step keeps stage 3 from undoing stage 2.
    pub finetune_learning_rate: f32,
    /// Encoder pre-training epochs (paper: 1000 for the first stage).
    pub encoder_epochs: usize,
    /// Classifier pre-training epochs.
    pub classifier_epochs: usize,
    /// Fine-tuning (fairness) epochs (paper: 15).
    pub finetune_epochs: usize,
    /// Early-stopping patience on validation accuracy during pre-training.
    pub patience: usize,
    /// How counterfactual targets are produced (the paper's search vs. the
    /// perturbation ablation).
    pub counterfactual: CfStrategy,
    /// How λ is re-solved each epoch (KKT closed form vs. the paper's
    /// verbal large-D reading).
    pub weight_mode: WeightMode,
    /// Ablation: use the encoder (`false` = **Fwos w/o E**, pseudo-sensitive
    /// attributes are the raw features).
    pub use_encoder: bool,
    /// Ablation: apply the fairness regularizer (`false` = **Fwos w/o F**).
    pub use_fairness: bool,
    /// Ablation: update λ via the KKT solution (`false` = **Fwos w/o W**,
    /// uniform weights throughout).
    pub use_weight_update: bool,
    /// Every how many epochs telemetry computes eval-split metrics
    /// (accuracy/F1/ΔSP/ΔEO). Only consulted when telemetry and an eval
    /// split are set ([`crate::FitOptions`]); `1` evaluates every epoch.
    pub eval_interval: usize,
    /// Divergence-watchdog thresholds (see [`WatchdogConfig`]).
    pub watchdog: WatchdogConfig,
    /// Checkpoint/recovery policy (see [`RecoveryConfig`]); only consulted
    /// by fits with a checkpoint store.
    pub recovery: RecoveryConfig,
    /// Mini-batch neighbor-sampled training (see [`MinibatchConfig`]);
    /// `None` (the default) trains full-batch.
    pub minibatch: Option<MinibatchConfig>,
}

fairwos_obs::json_struct!(ToJson, FromJson for FairwosConfig {
    backbone, encoder_dim, hidden_dim, num_layers, alpha, top_k, cf_refresh_interval = 1,
    learning_rate, finetune_learning_rate, encoder_epochs, classifier_epochs, finetune_epochs,
    patience, counterfactual, weight_mode, use_encoder, use_fairness, use_weight_update,
    eval_interval = 1, watchdog = WatchdogConfig::default(), recovery = RecoveryConfig::default(),
    minibatch
});

impl FairwosConfig {
    /// The paper's configuration (§V-A4): hidden 16, 1 layer, lr 1e-3,
    /// 1000 pre-training epochs, 15 fine-tuning epochs. α and K default to
    /// mid-grid values (0.04, 2).
    pub fn paper_default(backbone: Backbone) -> Self {
        Self {
            backbone,
            encoder_dim: 16,
            hidden_dim: 16,
            num_layers: 1,
            alpha: 0.04,
            top_k: 2,
            cf_refresh_interval: 1,
            learning_rate: 1e-3,
            finetune_learning_rate: 1e-3,
            encoder_epochs: 1000,
            classifier_epochs: 1000,
            finetune_epochs: 15,
            patience: 100,
            counterfactual: CfStrategy::SearchReal,
            weight_mode: WeightMode::KktClosedForm,
            use_encoder: true,
            use_fairness: true,
            use_weight_update: true,
            eval_interval: 1,
            watchdog: WatchdogConfig::default(),
            recovery: RecoveryConfig::default(),
            minibatch: None,
        }
    }

    /// A faster profile for CPU experiment sweeps: identical architecture,
    /// fewer pre-training epochs with a larger learning rate. Used by the
    /// benchmark harness; the paper profile remains available for full runs.
    pub fn fast(backbone: Backbone) -> Self {
        Self {
            learning_rate: 1e-2,
            finetune_learning_rate: 2.5e-3,
            encoder_epochs: 150,
            classifier_epochs: 200,
            patience: 40,
            ..Self::paper_default(backbone)
        }
    }

    /// Validates internal consistency; called by the trainer.
    ///
    /// # Panics
    /// If any dimension/iteration knob is zero or a rate is non-positive.
    pub fn validate(&self) {
        assert!(self.encoder_dim >= 1, "encoder_dim must be ≥ 1");
        assert!(self.hidden_dim >= 1, "hidden_dim must be ≥ 1");
        assert!(self.num_layers >= 1, "num_layers must be ≥ 1");
        assert!(self.top_k >= 1, "top_k must be ≥ 1");
        assert!(
            self.cf_refresh_interval >= 1,
            "cf_refresh_interval must be ≥ 1"
        );
        assert!(self.alpha >= 0.0, "alpha must be non-negative");
        assert!(self.learning_rate > 0.0, "learning_rate must be positive");
        assert!(
            self.finetune_learning_rate > 0.0,
            "finetune_learning_rate must be positive"
        );
        assert!(self.eval_interval >= 1, "eval_interval must be ≥ 1");
        assert!(
            self.watchdog.spike_factor > 1.0,
            "watchdog.spike_factor must be > 1"
        );
        assert!(self.watchdog.window >= 1, "watchdog.window must be ≥ 1");
        assert!(
            self.watchdog.grad_limit > 0.0,
            "watchdog.grad_limit must be positive"
        );
        assert!(
            self.watchdog.lambda_tol > 0.0,
            "watchdog.lambda_tol must be positive"
        );
        assert!(
            self.watchdog.loss_floor > 0.0,
            "watchdog.loss_floor must be positive"
        );
        assert!(
            self.recovery.checkpoint_interval >= 1,
            "recovery.checkpoint_interval must be ≥ 1"
        );
        assert!(self.recovery.retain >= 1, "recovery.retain must be ≥ 1");
        assert!(
            self.recovery.write_attempts >= 1,
            "recovery.write_attempts must be ≥ 1"
        );
        assert!(
            self.recovery.lr_backoff > 0.0 && self.recovery.lr_backoff <= 1.0,
            "recovery.lr_backoff must be in (0, 1]"
        );
        if let Some(mb) = &self.minibatch {
            assert!(mb.batch_nodes >= 1, "minibatch.batch_nodes must be ≥ 1");
            assert_eq!(
                mb.fanout.len(),
                self.num_layers,
                "minibatch.fanout must have one entry per classifier layer"
            );
            assert_eq!(
                self.counterfactual,
                CfStrategy::SearchReal,
                "minibatch training supports CfStrategy::SearchReal only"
            );
        }
    }

    /// The ablation variant names used in Fig. 4 / Fig. 8.
    pub fn variant_name(&self) -> &'static str {
        match (self.use_encoder, self.use_fairness, self.use_weight_update) {
            (true, true, true) => "Fairwos",
            (false, true, true) => "Fwos w/o E",
            (true, false, _) => "Fwos w/o F",
            (true, true, false) => "Fwos w/o W",
            _ => "Fwos (custom)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairwos_obs::json::{self, FromJson, Value};

    /// Decodes `cfg`'s JSON with the top-level `keys` removed, as a config
    /// written before those fields existed would read.
    fn decode_without(cfg: &FairwosConfig, keys: &[&str]) -> FairwosConfig {
        let text = json::to_string(cfg);
        let mut value = Value::parse(&text).expect("config JSON parses");
        let Value::Obj(members) = &mut value else {
            panic!("a config encodes as an object")
        };
        let before = members.len();
        members.retain(|(k, _)| !keys.contains(&k.as_ref()));
        assert_eq!(
            members.len() + keys.len(),
            before,
            "a removed key was absent"
        );
        FairwosConfig::from_value(&value).expect("config without the fields deserializes")
    }

    #[test]
    fn paper_default_matches_section_5a4() {
        let c = FairwosConfig::paper_default(Backbone::Gcn);
        assert_eq!(c.hidden_dim, 16);
        assert_eq!(c.num_layers, 1);
        assert_eq!(c.learning_rate, 1e-3);
        assert_eq!(c.encoder_epochs, 1000);
        assert_eq!(c.finetune_epochs, 15);
        c.validate();
    }

    #[test]
    fn variant_names() {
        let base = FairwosConfig::paper_default(Backbone::Gin);
        assert_eq!(base.variant_name(), "Fairwos");
        assert_eq!(
            FairwosConfig {
                use_encoder: false,
                ..base.clone()
            }
            .variant_name(),
            "Fwos w/o E"
        );
        assert_eq!(
            FairwosConfig {
                use_fairness: false,
                ..base.clone()
            }
            .variant_name(),
            "Fwos w/o F"
        );
        assert_eq!(
            FairwosConfig {
                use_weight_update: false,
                ..base.clone()
            }
            .variant_name(),
            "Fwos w/o W"
        );
    }

    #[test]
    #[should_panic(expected = "top_k must be ≥ 1")]
    fn validate_rejects_zero_k() {
        FairwosConfig {
            top_k: 0,
            ..FairwosConfig::paper_default(Backbone::Gcn)
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "cf_refresh_interval must be ≥ 1")]
    fn validate_rejects_zero_refresh_interval() {
        FairwosConfig {
            cf_refresh_interval: 0,
            ..FairwosConfig::paper_default(Backbone::Gcn)
        }
        .validate();
    }

    #[test]
    fn watchdog_and_eval_interval_default_when_absent_from_serialized_config() {
        // Configs serialized before the watchdog existed must still load.
        let cfg = FairwosConfig::paper_default(Backbone::Gcn);
        let restored = decode_without(&cfg, &["watchdog", "eval_interval"]);
        assert_eq!(restored.eval_interval, 1);
        assert_eq!(restored.watchdog, WatchdogConfig::default());
        restored.validate();
    }

    #[test]
    fn watchdog_config_mirrors_obs_policy() {
        // The config holds the obs policy itself, serialized under the
        // field names and order the persisted configs have always used.
        let policy: fairwos_obs::WatchdogPolicy =
            FairwosConfig::paper_default(Backbone::Gcn).watchdog;
        assert_eq!(policy, fairwos_obs::WatchdogPolicy::default());
        assert_eq!(
            json::to_string(&policy),
            r#"{"spike_factor":50.0,"window":10,"grad_limit":1000000.0,"lambda_tol":0.001,"loss_floor":0.001}"#
        );
    }

    #[test]
    #[should_panic(expected = "watchdog.spike_factor must be > 1")]
    fn validate_rejects_non_amplifying_spike_factor() {
        FairwosConfig {
            watchdog: WatchdogConfig {
                spike_factor: 1.0,
                ..WatchdogConfig::default()
            },
            ..FairwosConfig::paper_default(Backbone::Gcn)
        }
        .validate();
    }

    #[test]
    fn recovery_defaults_when_absent_from_serialized_config() {
        // Configs serialized before the recovery subsystem existed must
        // still load.
        let cfg = FairwosConfig::paper_default(Backbone::Gcn);
        let restored = decode_without(&cfg, &["recovery"]);
        assert_eq!(restored.recovery, RecoveryConfig::default());
        restored.validate();
    }

    #[test]
    #[should_panic(expected = "recovery.lr_backoff must be in (0, 1]")]
    fn validate_rejects_out_of_range_lr_backoff() {
        FairwosConfig {
            recovery: RecoveryConfig {
                lr_backoff: 1.5,
                ..RecoveryConfig::default()
            },
            ..FairwosConfig::paper_default(Backbone::Gcn)
        }
        .validate();
    }

    #[test]
    fn minibatch_defaults_to_none_when_absent_from_serialized_config() {
        // Configs serialized before mini-batch training existed must still
        // load (as full-batch configs).
        let cfg = FairwosConfig::paper_default(Backbone::Gcn);
        let restored = decode_without(&cfg, &["minibatch"]);
        assert_eq!(restored.minibatch, None);
        restored.validate();
    }

    #[test]
    fn minibatch_config_round_trips_and_validates() {
        let cfg = FairwosConfig {
            minibatch: Some(MinibatchConfig {
                batch_nodes: 64,
                fanout: vec![5],
                checkpoint_batches: 3,
                shuffle: true,
            }),
            ..FairwosConfig::paper_default(Backbone::Gcn)
        };
        cfg.validate();
        let json = json::to_string(&cfg);
        let back: FairwosConfig = json::from_str(&json).expect("config deserializes");
        assert_eq!(back.minibatch, cfg.minibatch);
        // The ergonomic constructor defaults the optional knobs off.
        let mb = MinibatchConfig::new(32, vec![0]);
        assert_eq!(mb.checkpoint_batches, 0);
        assert!(!mb.shuffle);
    }

    #[test]
    #[should_panic(expected = "minibatch.batch_nodes must be ≥ 1")]
    fn validate_rejects_zero_batch_nodes() {
        FairwosConfig {
            minibatch: Some(MinibatchConfig::new(0, vec![0])),
            ..FairwosConfig::paper_default(Backbone::Gcn)
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "one entry per classifier layer")]
    fn validate_rejects_fanout_layer_mismatch() {
        FairwosConfig {
            minibatch: Some(MinibatchConfig::new(32, vec![5, 5])),
            ..FairwosConfig::paper_default(Backbone::Gcn)
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "SearchReal only")]
    fn validate_rejects_minibatch_with_perturbation() {
        FairwosConfig {
            minibatch: Some(MinibatchConfig::new(32, vec![0])),
            counterfactual: CfStrategy::PerturbAttribute,
            ..FairwosConfig::paper_default(Backbone::Gcn)
        }
        .validate();
    }

    #[test]
    fn refresh_interval_defaults_when_absent_from_serialized_config() {
        // Configs serialized before the field existed must still load.
        let cfg = FairwosConfig::paper_default(Backbone::Gcn);
        let restored = decode_without(&cfg, &["cf_refresh_interval"]);
        assert_eq!(restored.cf_refresh_interval, 1);
    }
}
