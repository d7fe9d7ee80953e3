//! Unsupervised analysis tools used by the experiments and baselines:
//!
//! * [`kmeans()`] — Lloyd's algorithm with k-means++ seeding (KSMOTE's
//!   pseudo-group discovery).
//! * [`pca()`] — principal components via power iteration with deflation
//!   (initialisation for t-SNE, dimensionality diagnostics).
//! * [`tsne()`] — exact t-SNE (Van der Maaten & Hinton 2008) for Fig. 7's
//!   visualisation of pseudo-sensitive attributes.
//! * [`correlation`] — Pearson/Spearman coefficients (FairRF's related-
//!   feature regularizer and the bias diagnostics).
//! * [`information`] — discrete entropy / mutual information (the empirical
//!   side of the paper's Theorem 1 chain).
//! * [`silhouette`] — cluster-separation score, our quantitative stand-in
//!   for "the t-SNE plot shows separated groups".

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod correlation;
pub mod information;
pub mod kmeans;
pub mod pca;
pub mod silhouette;
pub mod tsne;

pub use correlation::{pearson, spearman};
pub use information::{discretize, entropy, mutual_information};
pub use kmeans::{kmeans, KMeansResult};
pub use pca::pca;
pub use silhouette::silhouette_score;
pub use tsne::{tsne, TsneConfig};
