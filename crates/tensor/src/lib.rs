//! Dense row-major `f32` linear algebra for the Fairwos reproduction.
//!
//! This crate is the numeric substrate underneath every other crate in the
//! workspace: graph convolutions, the encoder, the fairness losses, k-means,
//! and t-SNE all reduce to operations on [`Matrix`].
//!
//! # Design
//!
//! * **Row-major `Vec<f32>` storage.** Node-feature matrices are tall and
//!   skinny (`N × d` with `d ≤ a few hundred`), so row-major layout keeps a
//!   node's feature vector contiguous — the access pattern of message
//!   passing, top-K counterfactual search, and per-row losses.
//! * **Shape errors are bugs, not data.** Dimension mismatches panic with a
//!   message naming both shapes. This mirrors `ndarray`/BLAS conventions:
//!   shapes are static properties of the model architecture, not runtime
//!   inputs, so a `Result` would only push `unwrap`s to every call site.
//! * **One parallel-for.** [`par::for_each_chunk_mut`] is the workspace's
//!   std-only parallel-for over fixed chunks; dataset generation, the
//!   silhouette score and t-SNE use it above [`par::PAR_THRESHOLD`] units
//!   of work. The kernels (`matmul*`, the row bands) run on the calling
//!   thread: threads under them made the serving benchmark slower.
//! * **Row bands.** [`fill_row_bands`] fills a tall output a fixed band of
//!   rows at a time, so an inference pass can aggregate and transform each
//!   band in a small scratch instead of building a whole-graph
//!   intermediate.
//!
//! # The `checked` feature
//!
//! Building with `--features checked` arms debug numerics contracts in the
//! matmul, elementwise, and softmax kernels: after (and for matmul, before)
//! each instrumented op, every operand is scanned for NaN/Inf and a violation
//! panics with the **op name**, the operand role, and the offending
//! coordinate — e.g. `numerics contract violated in op `matmul`: lhs has
//! non-finite value NaN at (0,1) of a 2x2 matrix`. The contracts are only
//! active when `debug_assertions` are on; in release builds (and in any build
//! without the feature) the checks compile to nothing, so the feature is safe
//! to leave enabled in dev profiles. Run the workspace's numerics tests with
//! `cargo test -p fairwos-tensor --features checked`.
//!
//! # Quick example
//!
//! ```
//! use fairwos_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! assert_eq!(c.row_sums(), vec![3.0, 7.0]);
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation
)]

mod band;
pub mod checked;
mod init;
mod matmul;
mod matrix;
mod ops;
pub mod par;
mod pool;
mod reduce;

pub use band::{fill_row_bands, BAND_ROWS};
pub use fairwos_chaos::Isa;
pub use init::{
    export_rng_state, glorot_uniform, he_normal, restore_rng, seeded_rng, FairRng, RngState,
};
pub use matmul::{dot, sq_dist, SqDistLanes};
pub use matrix::Matrix;
pub use pool::Workspace;
pub use reduce::log_softmax_assign;

/// Tolerance-based float comparison used across the workspace's tests.
///
/// Returns `true` when `a` and `b` differ by at most `tol` absolutely *or*
/// relatively (whichever is looser), which is the right notion for values
/// that span several orders of magnitude (losses vs. gradients).
pub fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(1.0, 1.0 + 1e-7, 1e-5));
        assert!(approx_eq(1e6, 1e6 * (1.0 + 1e-6), 1e-5));
        assert!(!approx_eq(1.0, 1.1, 1e-3));
        assert!(approx_eq(0.0, 0.0, 1e-9));
    }
}
