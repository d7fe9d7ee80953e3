//! The encoder module (paper §III-B, Eq. 4–6): learns low-dimensional node
//! attributes `X⁰` whose dimensions serve as pseudo-sensitive attributes.

use crate::minibatch::{weighted_mean, Schedule};
use crate::persist::{import_gnn_weights, PersistError};
use crate::TrainInput;
use fairwos_nn::loss::softmax_cross_entropy_masked_ws;
use fairwos_nn::{Adam, Backbone, Gnn, GnnConfig, GraphContext, Optimizer, Workspace, Zeroed};
use fairwos_tensor::{FairRng, Matrix};

/// A one-layer GCN with a two-class softmax head, pre-trained on the node
/// classification task (Eq. 4–5) and then used as a frozen feature
/// extractor (Eq. 6).
///
/// The encoder is *supervised by the task*, not by the sensitive attribute
/// (which is unavailable): because `s` influences the graph structure and
/// the non-sensitive features (Fig. 3), a task-trained compression of both
/// necessarily carries the channels through which `s` can leak — exactly
/// what the downstream regularizer needs to control.
pub struct Encoder {
    gnn: Gnn,
    /// Cross-entropy per pre-training epoch (diagnostics).
    pub losses: Vec<f32>,
}

impl Encoder {
    /// The encoder's network over `in_dim` features: one GCN layer of width
    /// `dim`, then the two-class head.
    fn config(in_dim: usize, dim: usize) -> GnnConfig {
        GnnConfig {
            backbone: Backbone::Gcn,
            in_dim,
            hidden_dim: dim,
            num_layers: 1,
            out_dim: 2,
        }
    }

    /// Pre-trains an encoder of output dimension `dim` for `epochs` epochs
    /// with Adam(`lr`) on the labeled nodes of `input`, one step per batch
    /// of `schedule`: [`Schedule::Identity`] trains full-batch, a sampled
    /// schedule per block. Weight init draws from `rng` either way, so a
    /// single-block infinite-fanout schedule reproduces the full-batch
    /// encoder bit for bit.
    ///
    /// The whole graph's `Â·X` is built once: the identity schedule's batch
    /// borrows it, a sampled batch takes its rows (the exact first-layer
    /// aggregate, not one over the sampled subgraph), and `X⁰` is computed
    /// from it.
    ///
    /// Returns the encoder and its whole-graph extraction `X⁰` (Eq. 6),
    /// equal to [`Encoder::extract`] bit for bit.
    ///
    /// # Panics
    /// If `input` fails [`TrainInput::validate`]. Callers with an error
    /// channel (the trainer) validate before reaching this point.
    pub(crate) fn pretrain(
        input: &TrainInput<'_>,
        ctx: &GraphContext,
        dim: usize,
        epochs: usize,
        lr: f32,
        rng: &mut FairRng,
        schedule: &mut Schedule,
    ) -> (Self, Matrix) {
        input.assert_valid();
        let mut gnn = Gnn::new(Self::config(input.features.cols(), dim), rng);
        let labels: Vec<usize> = input.labels.iter().map(|&y| (y >= 0.5) as usize).collect();
        let mut opt = Adam::new(lr);
        let mut losses = Vec::with_capacity(epochs);
        // Stage 1 runs once per fit, so it owns its pool rather than
        // borrowing the trainer workspace.
        let mut ws = Workspace::new();
        // X is constant: the whole graph's aggregate `Â·X` is computed once
        // per fit. A sampled batch takes its rows of it rather than
        // aggregating over its sampled subgraph.
        let full_input = gnn.aggregate_input(ctx, input.features, &mut ws);
        let mut agg: Vec<(f32, u64)> = Vec::new();
        for epoch in 0..epochs {
            fairwos_obs::journal_epoch(1, epoch as u64);
            let _obs = fairwos_obs::span("train/stage1/epoch");
            let batches = schedule.begin_epoch(input, ctx, None);
            agg.clear();
            for b in batches.batches(input, ctx) {
                if b.train.is_empty() {
                    continue;
                }
                let _obs = b.trace();
                gnn.zero_grad();
                let local_input = b.gather(&full_input, &mut ws);
                let batch_input = local_input.as_ref().unwrap_or(&full_input);
                let out = gnn.forward_train_ws(batch_input, &mut ws);
                let (loss, dlogits) = softmax_cross_entropy_masked_ws(
                    &out.logits,
                    &b.local(&labels),
                    b.train,
                    &mut ws,
                );
                agg.push((loss, b.train.len() as u64));
                gnn.backward_ws(batch_input, &dlogits, None, &mut ws);
                ws.give(dlogits);
                ws.give(out.logits);
                ws.give(out.embeddings);
                if let Some(local) = local_input {
                    local.recycle(&mut ws);
                }
                opt.step(&mut gnn.params_mut());
            }
            losses.push(weighted_mean(&agg));
        }
        let encoder = Self { gnn, losses };
        let x0 = encoder.extract_aggregated(ctx, input.features, full_input.aggregate());
        (encoder, x0)
    }

    /// Extracts `X⁰ = Encoder(G)` (Eq. 6): the post-ReLU encoder activations
    /// for every node, `N × dim`. The convolution runs banded with the ReLU
    /// fused per band, so no `N × features` aggregate is built, and the
    /// head computes nothing.
    pub fn extract(&self, ctx: &GraphContext, features: &Matrix) -> Matrix {
        self.gnn.embed(ctx, features)
    }

    /// `Â·X`: the aggregate of `features` that the encoder's one GCN layer
    /// reads. It depends on the graph and the features alone, not on any
    /// weight, so a caller extracting from several encoders over the same
    /// data can compute it once for [`Encoder::extract_aggregated`].
    pub fn aggregate(ctx: &GraphContext, features: &Matrix) -> Matrix {
        ctx.gcn_adj().spmm(features)
    }

    /// [`Encoder::extract`] from `agg`, the [`Encoder::aggregate`] of
    /// `features` over `ctx`: the same bits, without the `N × features`
    /// sparse product. Holds nothing beyond the `N × dim` output.
    pub fn extract_aggregated(
        &self,
        ctx: &GraphContext,
        features: &Matrix,
        agg: &Matrix,
    ) -> Matrix {
        self.gnn.embed_aggregated(ctx, features, agg)
    }

    /// Output dimension of the extracted attributes.
    pub fn dim(&self) -> usize {
        self.gnn.config().hidden_dim
    }

    /// Input feature dimension the encoder was trained on.
    pub fn in_dim(&self) -> usize {
        self.gnn.config().in_dim
    }

    /// Snapshots the encoder's weights (conv then head) for persistence.
    pub fn export_weights(&mut self) -> Vec<Matrix> {
        self.gnn.export_weights()
    }

    /// Rebuilds an encoder from exported weights; `in_dim`/`dim` must match
    /// the exporting encoder's architecture.
    ///
    /// # Errors
    /// [`PersistError::ShapeMismatch`] when the weight count or any weight
    /// shape disagrees with the `in_dim`/`dim` architecture.
    pub fn from_weights(
        in_dim: usize,
        dim: usize,
        weights: &[Matrix],
    ) -> Result<Self, PersistError> {
        let mut gnn = Gnn::new(Self::config(in_dim, dim), &mut Zeroed);
        import_gnn_weights(&mut gnn, weights, "encoder")?;
        Ok(Self {
            gnn,
            losses: Vec::new(),
        })
    }
}

/// Binarizes each column of `x0` at its median: entry `(v, i)` is `true`
/// when node `v` sits above the median of pseudo-sensitive attribute `i`.
///
/// The paper's counterfactual constraint `x_i⁰ ≠ x_j⁰` needs a notion of
/// "different value" for a continuous attribute; a median split is the
/// minimal discretization that makes both sides non-empty.
pub fn binarize_at_medians(x0: &Matrix) -> Vec<Vec<bool>> {
    binarize_at(x0, &x0.col_medians())
}

/// [`binarize_at_medians`] with the column medians already at hand: entry
/// `(v, i)` is `true` when `x0(v, i) > medians[i]`.
pub(crate) fn binarize_at(x0: &Matrix, medians: &[f32]) -> Vec<Vec<bool>> {
    (0..x0.rows())
        .map(|v| {
            x0.row(v)
                .iter()
                .zip(medians)
                .map(|(&x, &m)| x > m)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairwos_graph::GraphBuilder;
    use fairwos_tensor::seeded_rng;

    fn toy_input() -> (
        fairwos_graph::Graph,
        Matrix,
        Vec<f32>,
        Vec<usize>,
        Vec<usize>,
    ) {
        // Two feature-separated classes on a small graph.
        let g = GraphBuilder::new(8)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .edge(4, 5)
            .edge(5, 6)
            .edge(6, 7)
            .edge(3, 4)
            .build();
        let mut x = Matrix::zeros(8, 4);
        let mut labels = vec![0.0f32; 8];
        let mut rng = seeded_rng(99);
        for (v, label) in labels.iter_mut().enumerate() {
            let y = (v >= 4) as usize;
            *label = y as f32;
            for j in 0..4 {
                x.set(
                    v,
                    j,
                    if y == 1 { 1.0 } else { -1.0 } + rng.gen_range(-0.3..0.3),
                );
            }
        }
        (g, x, labels, vec![0, 1, 2, 4, 5, 6], vec![3, 7])
    }

    #[test]
    fn pretrain_reduces_loss_and_learns_task() {
        let (g, x, labels, train, val) = toy_input();
        let input = TrainInput {
            graph: &g,
            features: &x,
            labels: &labels,
            train: &train,
            val: &val,
        };
        let ctx = GraphContext::new(&g);
        let mut rng = seeded_rng(0);
        let (enc, _) = Encoder::pretrain(
            &input,
            &ctx,
            4,
            200,
            0.05,
            &mut rng,
            &mut Schedule::Identity,
        );
        assert!(
            enc.losses.last().unwrap() < &(enc.losses[0] * 0.5),
            "loss did not halve"
        );
        // The head's predictions recover the labels.
        let probs = enc.gnn.forward_inference(&ctx, &x).logits.softmax_rows();
        for (v, &label) in labels.iter().enumerate() {
            let pred = (probs.get(v, 1) >= 0.5) as usize as f32;
            assert_eq!(pred, label, "node {v}");
        }
    }

    #[test]
    fn extract_shape_and_nonnegativity() {
        let (g, x, labels, train, val) = toy_input();
        let input = TrainInput {
            graph: &g,
            features: &x,
            labels: &labels,
            train: &train,
            val: &val,
        };
        let ctx = GraphContext::new(&g);
        let (enc, x0) = Encoder::pretrain(
            &input,
            &ctx,
            3,
            50,
            0.05,
            &mut seeded_rng(1),
            &mut Schedule::Identity,
        );
        assert_eq!(x0.shape(), (8, 3));
        assert_eq!(enc.dim(), 3);
        // Extracted from the aggregate training held, `X⁰` is the banded
        // extraction's bits.
        let banded = enc.extract(&ctx, &x);
        assert!(x0
            .as_slice()
            .iter()
            .zip(banded.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(
            x0.as_slice().iter().all(|&v| v >= 0.0),
            "post-ReLU must be non-negative"
        );
    }

    #[test]
    fn extract_matches_the_whole_matrix_composition_bit_for_bit() {
        // The banded extraction and the extraction from a held `Â·X`
        // against the unbanded `Â·X`, `matmul`, bias and ReLU: one band, a
        // band boundary, several bands with a tail.
        let mut rng = seeded_rng(0x0E1C_0019);
        for (case, &n) in [1usize, 31, 32, 33, 101, 300].iter().enumerate() {
            let mut b = GraphBuilder::new(n);
            for _ in 0..2 * n {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v {
                    b = b.edge(u, v);
                }
            }
            let ctx = GraphContext::new(&b.build());
            let (f, dim) = ([3, 37, 70][case % 3], [1, 4, 16][case % 3]);
            let weights = [
                Matrix::rand_uniform(f, dim, -1.0, 1.0, &mut rng),
                Matrix::rand_uniform(1, dim, -0.5, 0.5, &mut rng),
                Matrix::rand_uniform(dim, 2, -1.0, 1.0, &mut rng),
                Matrix::zeros(1, 2),
            ];
            let enc = Encoder::from_weights(f, dim, &weights).expect("shapes match");
            let x = Matrix::rand_uniform(n, f, -1.0, 1.0, &mut rng);
            let mut want = ctx.gcn_adj().spmm(&x).matmul(&weights[0]);
            want.add_row_broadcast(weights[1].row(0));
            want.map_assign(|v| v.max(0.0));
            let agg = Encoder::aggregate(&ctx, &x);
            for got in [
                enc.extract(&ctx, &x),
                enc.extract_aggregated(&ctx, &x, &agg),
            ] {
                assert_eq!(got.shape(), want.shape(), "case {case}");
                for (idx, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "case {case} (n {n}): element {idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn binarize_splits_at_median() {
        let m = Matrix::from_rows(&[&[1.0, 10.0], &[2.0, 20.0], &[3.0, 30.0], &[4.0, 40.0]]);
        let b = binarize_at_medians(&m);
        // medians: 2.5, 25 → rows 0,1 false; rows 2,3 true for both cols.
        assert_eq!(b[0], vec![false, false]);
        assert_eq!(b[1], vec![false, false]);
        assert_eq!(b[2], vec![true, true]);
        assert_eq!(b[3], vec![true, true]);
    }

    #[test]
    fn binarize_handles_constant_column() {
        let m = Matrix::from_rows(&[&[5.0], &[5.0], &[5.0]]);
        let b = binarize_at_medians(&m);
        // x > median is false everywhere; no split exists, which the
        // counterfactual search must tolerate (no candidates for that dim).
        assert!(b.iter().all(|row| !row[0]));
    }
}
