//! Neural-network layers with hand-derived analytic backpropagation.
//!
//! The Fairwos paper trains everything with stochastic gradient descent over
//! a handful of differentiable blocks (Eq. 4–16). Instead of depending on an
//! autodiff framework (thin on graph primitives in Rust), this crate derives
//! each layer's backward pass by hand and pins it down with finite-difference
//! gradient checks ([`gradcheck`]).
//!
//! # Architecture
//!
//! * [`Param`] — a weight matrix paired with its gradient accumulator.
//! * [`GraphContext`] — the propagation matrices of one graph (`Â` for GCN,
//!   `A` for GIN), built once and shared by every forward/backward call.
//! * Layers — [`Linear`], [`GcnConv`], [`GinConv`], [`SageConv`],
//!   [`GatConv`], [`Relu`]; each caches what its backward pass needs in
//!   `forward_ws`, and both passes draw their buffers from a [`Workspace`].
//! * [`Gnn`] — the one network of the paper: a conv stack (GCN / GIN /
//!   SAGE / GAT) with a linear head, producing node embeddings `h` and
//!   logits. The classifier has one logit (Eq. 9), the stage-1 encoder two
//!   softmax classes (Eq. 5). `backward_ws` accepts an *extra* embedding
//!   gradient — that is how the fairness regularizer (Eq. 13) flows into
//!   the shared conv weights.
//! * Losses ([`loss`]) — masked BCE-with-logits (paper Eq. 10), masked
//!   softmax cross-entropy (encoder pre-training, Eq. 5), and the squared-L2
//!   representation distance (Eq. 33).
//! * Optimizers ([`Adam`], [`Sgd`]) — the paper uses Adam with lr 1e-3.
//!
//! # Gradient flow for the full Fairwos objective
//!
//! ```text
//! L = L_U(logits)  +  α Σ_i λ_i Σ_k ‖h − h̄ᵏ‖²      (Eq. 15)
//!       │                          │
//!       ▼                          ▼
//!   d logits                  d h (extra)
//!       └──── head backward ──────┴──► conv layers backward ──► d params
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod activation;
mod context;
mod gat;
pub mod gradcheck;
pub mod layers;
pub mod loss;
mod model;
pub mod optim;
mod param;
mod sage;

pub use activation::Relu;
pub use context::GraphContext;
pub use gat::GatConv;
pub use layers::{GcnConv, GinConv, Linear};
pub use model::{Backbone, Gnn, GnnConfig, GnnInput, GnnOutput};
pub use optim::{Adam, Optimizer, Sgd};
pub use param::{Init, Param, Zeroed};
pub use sage::SageConv;

// Re-exported so downstream crates can drive the `_ws` layer variants
// without depending on fairwos-tensor directly.
pub use fairwos_tensor::Workspace;
