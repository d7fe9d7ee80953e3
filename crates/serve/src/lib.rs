//! **fairwos-serve** — concurrent fair-prediction serving for trained
//! Fairwos models (ROADMAP item 2: the read path for "heavy traffic").
//!
//! A [`ServeEngine`] loads a sealed [`fairwos_core::FairwosModelFile`]
//! through the panic-free persistence layer, precomputes every node's
//! probability **once** against a warmed
//! [`fairwos_graph::AdjacencyCache`], and then answers single-node and
//! batched classification queries from a fixed thread pool. Requests
//! coalesce through a bounded MPSC queue drained in batches, each batch
//! answered against one immutable model snapshot.
//!
//! Three contracts, tested in `tests/serve_concurrency.rs`,
//! `tests/serve_faults.rs`, and `tests/proptest_serve.rs`:
//!
//! * **Determinism** — a response is a pure function of
//!   `(node, generation)`; replaying a query log via [`replay`] is
//!   bit-identical to any live interleaving (`docs/SERVING.md`).
//! * **Zero drops** — accepted requests are always answered, through
//!   backpressure, shutdown, and hot reloads.
//! * **Reload safety** — [`ServeEngine::reload`] publishes a new generation
//!   via a hand-rolled [`EpochSwap`] without blocking in-flight requests; a
//!   torn/corrupt/vanished artifact is rejected (journaled as
//!   `serve/reload_rejected`) and the previous generation keeps serving.
//!
//! An opt-in admin plane rides alongside: [`AdminServer`] serves
//! `GET /metrics` (Prometheus text), `/healthz`, `/readyz`, and `/stats`
//! from its own listener thread, and a [`FairnessMonitor`] attached via
//! [`ServeEngine::start_with_monitor`] folds every answered prediction into
//! a windowed online ΔSP estimate, alerting when it drifts from the
//! generation's training-time baseline (`docs/OBSERVABILITY.md`).
//!
//! ```
//! use fairwos_core::{FairwosConfig, FairwosTrainer, TrainInput};
//! use fairwos_datasets::{DatasetSpec, FairGraphDataset};
//! use fairwos_nn::Backbone;
//! use fairwos_serve::{FsModelSource, ServeConfig, ServeData, ServeEngine};
//!
//! // Train a tiny model and persist it (the write side).
//! let ds = FairGraphDataset::generate(&DatasetSpec::nba().scaled(0.3), 7);
//! let cfg = FairwosConfig {
//!     encoder_epochs: 30,
//!     classifier_epochs: 40,
//!     finetune_epochs: 3,
//!     ..FairwosConfig::fast(Backbone::Gcn)
//! };
//! let input = TrainInput {
//!     graph: &ds.graph,
//!     features: &ds.features,
//!     labels: &ds.labels,
//!     train: &ds.split.train,
//!     val: &ds.split.val,
//! };
//! let mut trained = FairwosTrainer::new(cfg).fit(&input, 0).expect("trains");
//! let path = std::env::temp_dir().join("fairwos_serve_doctest.json");
//! trained.to_model_file().save(&path).expect("saves");
//!
//! // Serve it (the read side).
//! let data = ServeData::new(&ds.graph, ds.features.clone());
//! let engine = ServeEngine::start(
//!     data,
//!     Box::new(FsModelSource::new(&path)),
//!     ServeConfig::default(),
//! )
//! .expect("initial load");
//! let pred = engine.query(0).expect("answered");
//! assert_eq!(pred.generation, 0);
//! assert_eq!(pred.label, pred.prob >= 0.5);
//! let gen1 = engine.reload().expect("hot reload");
//! assert_eq!(gen1, 1);
//! engine.shutdown();
//! # let _ = std::fs::remove_file(&path);
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]

mod admin;
mod engine;
mod http;
mod model;
mod monitor;
mod queue;
mod source;
mod stats;
mod swap;

pub use admin::{
    handle_healthz, handle_metrics, handle_readyz, handle_stats, AdminConfig, AdminResponse,
    AdminServer,
};
pub use engine::{replay, Prediction, ServeConfig, ServeEngine, ServeError, Ticket};
pub use http::{
    http_get, is_oversized, read_request, write_response, HttpRequest, MAX_REQUEST_BYTES,
};
pub use model::{ServableModel, ServeData};
pub use monitor::{FairnessMonitor, MonitorConfig, MonitorReport};
pub use queue::BoundedQueue;
pub use source::{
    FaultyModelSource, FsModelSource, MemoryModelSource, MemorySourceHandle, ModelSource,
    SourceFaultPlan,
};
pub use stats::{LatencyHistogram, ServeStats};
pub use swap::EpochSwap;
