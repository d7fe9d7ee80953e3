//! **Fairwos** — Fair Graph Neural Networks via Graph Counterfactuals
//! *without* Sensitive Attributes (Wang, Gu, Bao & Chang, ICDE 2025).
//!
//! The framework learns fair node representations when the sensitive
//! attribute is unavailable at training time, in five stages
//! (paper §III, Fig. 2):
//!
//! 1. **Encoder module** ([`Encoder`]) — pre-trains a GNN encoder on the
//!    classification task (Eq. 4–5) and extracts low-dimensional node
//!    attributes `X⁰` (Eq. 6). Each dimension of `X⁰` is one
//!    *pseudo-sensitive attribute*: a learned proxy through which the hidden
//!    sensitive attribute can influence predictions (Fig. 3).
//! 2. **GNN classifier** ([`fairwos_nn::Gnn`]) — the backbone (GCN or GIN)
//!    trained on `(V, E, X⁰)` with cross-entropy (Eq. 7–10).
//! 3. **Counterfactual data augmentation** ([`counterfactual`]) — for each
//!    node and each pseudo-sensitive attribute, finds the top-K *real* nodes
//!    with the same (pseudo-)label but a different attribute value that are
//!    closest in embedding space (Eq. 11–12). Searching real data instead of
//!    perturbing features avoids non-realistic counterfactuals.
//! 4. **Fair representation learning** ([`FairwosTrainer`]) — minimizes the
//!    distance between each node's embedding and its counterfactuals'
//!    embeddings, weighted per attribute (Eq. 13–15).
//! 5. **Weight updating** ([`lambda`]) — the per-attribute weights λ are
//!    re-solved in closed form from the KKT conditions (Eq. 17–24), which is
//!    exactly a Euclidean projection onto the probability simplex.
//!
//! # Quick start
//!
//! ```no_run
//! use fairwos_core::{FairwosConfig, FairwosTrainer, TrainInput};
//! use fairwos_nn::Backbone;
//! # let (graph, features, labels, train, val): (fairwos_graph::Graph, fairwos_tensor::Matrix, Vec<f32>, Vec<usize>, Vec<usize>) = todo!();
//!
//! let input = TrainInput { graph: &graph, features: &features, labels: &labels,
//!                          train: &train, val: &val };
//! let config = FairwosConfig::paper_default(Backbone::Gcn);
//! let trained = FairwosTrainer::new(config)
//!     .fit(&input, 42)
//!     .expect("training diverged — see the watchdog thresholds in config");
//! let probs = trained.predict_probs();           // P(y = 1) for every node
//! let x0 = trained.pseudo_sensitive_attributes(); // the X⁰ of Fig. 7
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod checkpoint;
mod config;
pub mod counterfactual;
mod encoder;
pub mod lambda;
mod method;
mod minibatch;
pub mod persist;
mod trainer;

pub use checkpoint::{
    BatchCursor, CheckpointLog, CheckpointStore, FaultPlan, FaultyCheckpointStore,
    FsCheckpointStore, MemoryCheckpointStore, TrainingCheckpoint,
};
pub use config::{
    CfStrategy, FairwosConfig, MinibatchConfig, RecoveryConfig, WatchdogConfig, WeightMode,
};
pub use counterfactual::{CounterfactualSets, SearchSpace};
pub use encoder::{binarize_at_medians, Encoder};
pub use lambda::{lambda_feasible, project_to_simplex, update_lambda};
pub use method::{FairMethod, InputError, TrainInput};
pub use minibatch::BatchPlan;
pub use persist::{FairwosModelFile, PersistError};
pub use trainer::{
    FairwosTrainer, FinetuneEpochStats, FitOptions, TelemetryEval, TrainError, TrainedFairwos,
    TrainingDiverged, TrainingHistory,
};

/// Re-exported from [`fairwos_obs`]: the watchdog trigger carried by
/// [`TrainingDiverged::reason`].
pub use fairwos_obs::Divergence;
