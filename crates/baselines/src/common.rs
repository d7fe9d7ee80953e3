//! Shared training loop for the baseline methods.
//!
//! Every baseline is "backbone GNN + (optionally) a differentiable
//! regularizer on the logits"; this module provides that loop once, with
//! early stopping on validation accuracy and best-weights restoration.

use fairwos_fairness::accuracy;
use fairwos_nn::loss::{bce_with_logits_masked_ws, sigmoid};
use fairwos_nn::{Adam, Backbone, Gnn, GnnConfig, GraphContext, Optimizer, Workspace};
use fairwos_tensor::{seeded_rng, Matrix};

/// Architecture and schedule of one baseline training run.
#[derive(Clone, Debug)]
pub struct TrainOpts {
    /// Backbone flavour.
    pub backbone: Backbone,
    /// Hidden dimension (paper: 16).
    pub hidden_dim: usize,
    /// Conv layers (paper: 1).
    pub num_layers: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Early-stopping patience on validation accuracy.
    pub patience: usize,
}

impl TrainOpts {
    /// The paper's backbone setup with a CPU-friendly schedule.
    pub fn default_for(backbone: Backbone) -> Self {
        Self {
            backbone,
            hidden_dim: 16,
            num_layers: 1,
            epochs: 200,
            learning_rate: 1e-2,
            patience: 40,
        }
    }
}

/// A differentiable penalty on the full logits matrix: returns
/// `(loss, d loss / d logits)`. The trainer *adds* the gradient to the BCE
/// gradient before the backward pass.
pub type LogitRegularizer<'r> = dyn FnMut(&Matrix) -> (f32, Matrix) + 'r;

/// Trains a GNN with BCE + an optional logit regularizer; returns the model,
/// its graph context, and the per-epoch total losses.
///
/// # Panics
/// If `features` has a row count other than the node count, or `train` is
/// empty.
pub fn train_gnn(
    graph: &fairwos_graph::Graph,
    features: &Matrix,
    labels: &[f32],
    train: &[usize],
    val: &[usize],
    opts: &TrainOpts,
    seed: u64,
    mut regularizer: Option<&mut LogitRegularizer<'_>>,
) -> (Gnn, GraphContext, Vec<f32>) {
    assert_eq!(features.rows(), graph.num_nodes(), "feature rows vs nodes");
    assert!(!train.is_empty(), "no training nodes");
    let ctx = GraphContext::new(graph);
    let mut gnn = Gnn::new(
        GnnConfig {
            backbone: opts.backbone,
            in_dim: features.cols(),
            hidden_dim: opts.hidden_dim,
            num_layers: opts.num_layers,
            out_dim: 1,
        },
        &mut seeded_rng(seed),
    );
    let mut opt = Adam::new(opts.learning_rate);
    let mut losses = Vec::with_capacity(opts.epochs);
    let mut best_val = f64::NEG_INFINITY;
    let mut best: Vec<Matrix> = Vec::new();
    let mut since_best = 0usize;
    let ws = &mut Workspace::disposable();
    let input = gnn.aggregate_input(&ctx, features, ws);
    for _ in 0..opts.epochs {
        gnn.zero_grad();
        let out = gnn.forward_train_ws(&input, ws);
        let (bce, mut dlogits) = bce_with_logits_masked_ws(&out.logits, labels, train, ws);
        let mut total = bce;
        if let Some(reg) = regularizer.as_deref_mut() {
            let (extra, dextra) = reg(&out.logits);
            total += extra;
            dlogits.add_assign(&dextra);
        }
        losses.push(total);
        gnn.backward_ws(&input, &dlogits, None, ws);
        opt.step(&mut gnn.params_mut());

        let val_acc = if val.is_empty() {
            -(total as f64)
        } else {
            let probs = sigmoid(&out.logits).col(0);
            let vp: Vec<f32> = val.iter().map(|&v| probs[v]).collect();
            let vl: Vec<f32> = val.iter().map(|&v| labels[v]).collect();
            accuracy(&vp, &vl)
        };
        if val_acc > best_val {
            best_val = val_acc;
            best = gnn.params_mut().iter().map(|p| p.value.clone()).collect();
            since_best = 0;
        } else {
            since_best += 1;
            if since_best >= opts.patience {
                break;
            }
        }
    }
    if !best.is_empty() {
        for (p, saved) in gnn.params_mut().into_iter().zip(&best) {
            p.value = saved.clone();
        }
    }
    (gnn, ctx, losses)
}

/// `P(y = 1)` for every node from a trained model.
pub fn predict_probs(gnn: &Gnn, ctx: &GraphContext, features: &Matrix) -> Vec<f32> {
    sigmoid(&gnn.forward_inference(ctx, features).logits).col(0)
}

#[cfg(test)]
pub(crate) mod test_support {
    use fairwos_core::TrainInput;
    use fairwos_datasets::{DatasetSpec, FairGraphDataset};

    /// A small but realistic biased dataset shared by the baseline tests.
    pub fn dataset() -> FairGraphDataset {
        FairGraphDataset::generate(&DatasetSpec::nba().scaled(0.5), 11)
    }

    pub fn input(ds: &FairGraphDataset) -> TrainInput<'_> {
        TrainInput {
            graph: &ds.graph,
            features: &ds.features,
            labels: &ds.labels,
            train: &ds.split.train,
            val: &ds.split.val,
        }
    }

    /// Test-set accuracy of full-graph probability predictions.
    pub fn test_accuracy(ds: &FairGraphDataset, probs: &[f32]) -> f64 {
        let tp: Vec<f32> = ds.split.test.iter().map(|&v| probs[v]).collect();
        let tl = ds.labels_of(&ds.split.test);
        fairwos_fairness::accuracy(&tp, &tl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_support::{dataset, test_accuracy};

    #[test]
    fn plain_training_learns() {
        let ds = dataset();
        let opts = TrainOpts::default_for(Backbone::Gcn);
        let (gnn, ctx, losses) = train_gnn(
            &ds.graph,
            &ds.features,
            &ds.labels,
            &ds.split.train,
            &ds.split.val,
            &opts,
            0,
            None,
        );
        assert!(losses.last().unwrap() < &losses[0]);
        let probs = predict_probs(&gnn, &ctx, &ds.features);
        assert!(test_accuracy(&ds, &probs) > 0.6);
    }

    #[test]
    fn regularizer_gradient_is_applied() {
        // A regularizer that pushes all logits toward −∞ (constant positive
        // gradient) must visibly drag predictions down vs. the plain run.
        let ds = dataset();
        let opts = TrainOpts {
            epochs: 60,
            patience: 60,
            ..TrainOpts::default_for(Backbone::Gcn)
        };
        let (gnn_plain, ctx, _) = train_gnn(
            &ds.graph,
            &ds.features,
            &ds.labels,
            &ds.split.train,
            &ds.split.val,
            &opts,
            1,
            None,
        );
        let mut push_down = |logits: &Matrix| -> (f32, Matrix) {
            (
                logits.sum(),
                Matrix::full(logits.rows(), logits.cols(), 0.05),
            )
        };
        let (gnn_reg, ctx2, _) = train_gnn(
            &ds.graph,
            &ds.features,
            &ds.labels,
            &ds.split.train,
            &[], // no early stop interference
            &opts,
            1,
            Some(&mut push_down),
        );
        let mean_plain: f32 = predict_probs(&gnn_plain, &ctx, &ds.features)
            .iter()
            .sum::<f32>()
            / ds.num_nodes() as f32;
        let mean_reg: f32 = predict_probs(&gnn_reg, &ctx2, &ds.features)
            .iter()
            .sum::<f32>()
            / ds.num_nodes() as f32;
        assert!(
            mean_reg < mean_plain,
            "regularizer had no effect: {mean_reg} vs {mean_plain}"
        );
    }
}
