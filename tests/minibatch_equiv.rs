//! Full-batch ≡ mini-batch equivalence suite.
//!
//! The mini-batch trainer is built on *restriction* (local propagation
//! matrices keep the full matrices' values on the sampled edge set, each
//! divided by the edge's inclusion probability, which is exactly 1 at
//! infinite fanout), exact first-layer aggregates of the constant input,
//! and a dedicated sampler RNG stream (scheduling draws never touch the
//! weight-init stream). Together these give a sharp contract:
//!
//! * **One block covering the graph at infinite fanout** is not
//!   "approximately" full-batch training — it executes the *same floating
//!   point program*, so predictions, λ, and every loss curve must match
//!   full-batch training (the identity plan) bit for bit, on every
//!   backbone.
//! * **Real mini-batching** (several blocks, finite fanout) is genuine
//!   stochastic training: a different optimization trajectory with the
//!   same objective. There the contract is metric-level: the model still
//!   learns (loss decreases), and utility/fairness metrics land in the
//!   same neighborhood as the full-batch run.

use fairwos::prelude::*;

fn dataset() -> FairGraphDataset {
    FairGraphDataset::generate(&DatasetSpec::nba().scaled(0.4), 5)
}

/// Short schedule with early stopping disabled (fixed epoch counts make
/// the full/mini loss curves comparable index by index).
fn base_config() -> FairwosConfig {
    FairwosConfig {
        encoder_dim: 8,
        encoder_epochs: 40,
        classifier_epochs: 60,
        finetune_epochs: 6,
        learning_rate: 0.01,
        patience: 100,
        ..FairwosConfig::fast(Backbone::Gcn)
    }
}

fn input_of(ds: &FairGraphDataset) -> TrainInput<'_> {
    TrainInput {
        graph: &ds.graph,
        features: &ds.features,
        labels: &ds.labels,
        train: &ds.split.train,
        val: &ds.split.val,
    }
}

fn eval_of(ds: &FairGraphDataset, probs: &[f32]) -> EvalReport {
    let test_probs: Vec<f32> = ds.split.test.iter().map(|&v| probs[v]).collect();
    EvalReport::compute(
        &test_probs,
        &ds.labels_of(&ds.split.test),
        &ds.sensitive_of(&ds.split.test),
    )
}

#[test]
fn single_block_infinite_fanout_is_bit_identical_to_full_batch() {
    let ds = dataset();
    for backbone in [Backbone::Gcn, Backbone::Gin, Backbone::Sage, Backbone::Gat] {
        let base = FairwosConfig {
            backbone,
            ..base_config()
        };
        // Full-batch training runs the identity plan: one batch per epoch
        // that is the whole graph, in global ids.
        let full = FairwosTrainer::new(base.clone())
            .fit(&input_of(&ds), 42)
            .expect("full-batch training converges");

        // One sampled block holds every node (batch_nodes > n) and fanout 0
        // = all neighbors: the restricted propagation matrices, the loss
        // mask, and the counterfactual candidate set all coincide with the
        // identity plan's, so the θ trajectory is the same floating-point
        // program.
        let mini_cfg = FairwosConfig {
            minibatch: Some(MinibatchConfig::new(ds.graph.num_nodes() + 1, vec![0])),
            ..base
        };
        let mini = FairwosTrainer::new(mini_cfg)
            .fit(&input_of(&ds), 42)
            .expect("mini-batch training converges");

        assert_eq!(
            full.predict_probs(),
            mini.predict_probs(),
            "{backbone}: single-block ∞-fanout mini-batch diverged from full-batch"
        );
        assert_eq!(full.lambda(), mini.lambda(), "{backbone}: λ diverged");
        // Histories carry every per-epoch loss of all three stages; their
        // `Debug` text prints each float with the shortest digits that parse
        // back to the same bits, a faithful bit-level witness.
        assert_eq!(
            format!("{:?}", full.history),
            format!("{:?}", mini.history),
            "{backbone}: per-epoch training histories diverged"
        );
    }
}

/// Shared tolerance harness for genuine mini-batching: same data, same
/// seed, same `num_layers`-layer GCN, different optimization schedule.
fn assert_minibatch_lands_near_full_batch(num_layers: usize, mb: MinibatchConfig) {
    let ds = dataset();
    let input = input_of(&ds);
    let base = FairwosConfig {
        num_layers,
        ..base_config()
    };
    let full = FairwosTrainer::new(base.clone())
        .fit(&input, 42)
        .expect("full-batch training converges");
    let mini = FairwosTrainer::new(FairwosConfig {
        minibatch: Some(mb),
        ..base
    })
    .fit(&input, 42)
    .expect("mini-batch training converges");

    // The mini-batch model is a valid classifier that actually trained.
    let probs = mini.predict_probs();
    assert!(
        probs
            .iter()
            .all(|p| p.is_finite() && (0.0..=1.0).contains(p)),
        "mini-batch probabilities out of range"
    );
    let losses = &mini.history.classifier_losses;
    let (first, last) = (losses[0], *losses.last().expect("losses recorded"));
    assert!(
        last < first * 0.95,
        "mini-batch classifier loss did not decrease ({first} → {last})"
    );

    // Metric-level agreement with the full-batch run. These are loose by
    // design — SGD over sampled subgraphs is a different trajectory — but
    // tight enough to catch wrong normalization (restricted matrices that
    // renormalize instead of restricting overshoot these immediately).
    let full_last = *full
        .history
        .classifier_losses
        .last()
        .expect("losses recorded");
    assert!(
        (last - full_last).abs() <= 0.5,
        "final classifier loss too far from full-batch: {last} vs {full_last}"
    );
    let (ef, em) = (eval_of(&ds, &full.predict_probs()), eval_of(&ds, &probs));
    for (name, f, m, tol) in [
        ("accuracy", ef.accuracy, em.accuracy, 0.3),
        ("f1", ef.f1, em.f1, 0.4),
        ("delta_sp", ef.delta_sp, em.delta_sp, 0.5),
        ("delta_eo", ef.delta_eo, em.delta_eo, 0.5),
    ] {
        assert!(
            (f - m).abs() <= tol,
            "{name} too far from full-batch: full {f} vs mini {m} (tol {tol})"
        );
    }
}

#[test]
fn multi_batch_infinite_fanout_matches_within_tolerance() {
    // Four-ish blocks of ≤ 48 seeds, every neighborhood kept whole: the
    // stochasticity comes purely from per-block gradient steps.
    assert_minibatch_lands_near_full_batch(1, MinibatchConfig::new(48, vec![0]));
}

#[test]
fn finite_fanout_matches_within_tolerance() {
    // Blocks *and* sampled neighborhoods (3 neighbors per node per layer):
    // the full GraphSAGE-style regime, including epoch-salted resampling.
    assert_minibatch_lands_near_full_batch(1, MinibatchConfig::new(48, vec![3]));
}

#[test]
fn two_layer_finite_fanout_matches_within_tolerance() {
    // A one-layer GCN's first layer reads the exact whole-graph aggregate of
    // its constant input, so its fanout only shapes the batches. The second
    // layer aggregates over the sampled, inverse-inclusion-weighted edges.
    assert_minibatch_lands_near_full_batch(2, MinibatchConfig::new(48, vec![3, 3]));
}
