//! The baselines of the Fairwos evaluation (paper §V-A3) — all methods that
//! learn fair(er) classifiers **without** sensitive attributes:
//!
//! | Method | Idea | Module |
//! |---|---|---|
//! | `Vanilla\S` | the raw backbone GNN | [`Vanilla`] |
//! | `RemoveR` | drop all candidate-related attributes, then train | [`RemoveR`] |
//! | `KSMOTE` (Yan et al. 2020) | k-means pseudo-groups + prediction-parity regularizer | [`KSmote`] |
//! | `FairRF` (Zhao et al. 2022) | minimize correlation between predictions and related features | [`FairRF`] |
//! | `FairGKD\S` (Zhu et al. 2024) | distill a student from two partial teachers (features-only MLP, structure-only GNN) | [`FairGkd`] |
//!
//! Every baseline implements [`fairwos_core::FairMethod`], so the experiment
//! harness runs them and Fairwos through the same entry point.
//!
//! KSMOTE and FairRF were designed for i.i.d. data; following the paper
//! ("we directly use the code provided by \[24\], \[38\] on our backbone GNN"),
//! their regularizers are applied to a GNN backbone here.

#![warn(clippy::unwrap_used, clippy::expect_used)]

mod common;
mod fairgkd;
mod fairrf;
mod ksmote;
mod remove_r;
mod vanilla;

pub use common::{train_gnn, LogitRegularizer, TrainOpts};
pub use fairgkd::FairGkd;
pub use fairrf::FairRF;
pub use ksmote::KSmote;
pub use remove_r::RemoveR;
pub use vanilla::Vanilla;
