//! Golden hashes of trained models.
//!
//! Every GNN backbone (GCN, GIN, SAGE, GAT) with one and two layers is fit
//! on a small NBA graph twice, once full-batch (the identity plan) and once
//! over a shuffled plan of 48-node blocks with fanout 3, with the short
//! epoch schedule of `work_counters.rs`. Each fit is reduced to one FNV-1a
//! hash of the `f32` bits of everything it learned: `predict_probs`, λ, the
//! embeddings, the pseudo-sensitive attributes `X⁰`, the three stages' loss
//! histories and the counterfactual pairs of the final embeddings.
//!
//! Only numbers are hashed, never formatted text, so the hashes do not
//! depend on how a JSON codec prints floats.
//!
//! **Updating the table.** A change that must not move trained bits (a
//! refactor, a kernel with the same operation order) leaves [`EXPECTED`]
//! alone. A change that moves them on purpose fails this test, which prints
//! the whole new table; paste it over [`EXPECTED`] and say why in the
//! change log.

use fairwos::chaos::fnv1a64;
use fairwos::prelude::*;

/// One line per fit: backbone, layer count, plan, hash.
const EXPECTED: &str = "\
GCN 1 full fd8225db52d831ec
GCN 1 sampled 788661ffb49ffbaf
GCN 2 full 651fe956caa3f3f7
GCN 2 sampled 5ff81bd40b6bba5f
GIN 1 full 0b67cfd8475a101c
GIN 1 sampled 242a5e572019acfa
GIN 2 full 791740c1a74ce0d5
GIN 2 sampled 564116d6557e5c5d
SAGE 1 full 7f0a040147e22b08
SAGE 1 sampled f83d131ae265462e
SAGE 2 full 534c7dcdfb339cc6
SAGE 2 sampled eb22ac85980a4a3f
GAT 1 full ba691bb3fa3f66bc
GAT 1 sampled 96d47634f885811f
GAT 2 full 6ff7489357800426
GAT 2 sampled 14eddfaa515fb0b9
";

fn config(
    backbone: Backbone,
    num_layers: usize,
    minibatch: Option<MinibatchConfig>,
) -> FairwosConfig {
    FairwosConfig {
        num_layers,
        encoder_dim: 8,
        hidden_dim: 8,
        encoder_epochs: 6,
        classifier_epochs: 5,
        finetune_epochs: 3,
        learning_rate: 0.01,
        // No early stop: every configured epoch runs.
        patience: 6,
        minibatch,
        ..FairwosConfig::paper_default(backbone)
    }
}

/// Appends the bits of `values` to `bytes`.
fn put(bytes: &mut Vec<u8>, values: &[f32]) {
    bytes.extend((values.len() as u64).to_le_bytes());
    for v in values {
        bytes.extend(v.to_bits().to_le_bytes());
    }
}

/// The hash of every learned number of `model`.
fn hash(model: &TrainedFairwos, n: usize) -> u64 {
    let mut bytes = Vec::new();
    put(&mut bytes, &model.predict_probs());
    put(&mut bytes, model.lambda());
    put(&mut bytes, model.embeddings().as_slice());
    put(&mut bytes, model.pseudo_sensitive_attributes().as_slice());
    let history = &model.history;
    put(&mut bytes, &history.encoder_losses);
    put(&mut bytes, &history.classifier_losses);
    for epoch in &history.finetune {
        put(&mut bytes, &[epoch.utility_loss, epoch.fairness_loss]);
        put(&mut bytes, &epoch.attr_distances);
        put(&mut bytes, &epoch.lambda);
    }
    let nodes: Vec<usize> = (0..n).collect();
    for (q, c) in model.counterfactual_pairs(&nodes, &nodes, 2) {
        bytes.extend((q as u64).to_le_bytes());
        bytes.extend((c as u64).to_le_bytes());
    }
    fnv1a64(&bytes)
}

#[test]
fn trained_bits_match_the_golden_hashes() {
    let ds = FairGraphDataset::generate(&DatasetSpec::nba().scaled(0.3), 1);
    let input = TrainInput {
        graph: &ds.graph,
        features: &ds.features,
        labels: &ds.labels,
        train: &ds.split.train,
        val: &ds.split.val,
    };
    let mut got = String::new();
    for backbone in [Backbone::Gcn, Backbone::Gin, Backbone::Sage, Backbone::Gat] {
        for num_layers in 1..=2 {
            let sampled = MinibatchConfig {
                shuffle: true,
                ..MinibatchConfig::new(48, vec![3; num_layers])
            };
            for (plan, minibatch) in [("full", None), ("sampled", Some(sampled))] {
                let model = FairwosTrainer::new(config(backbone, num_layers, minibatch))
                    .fit(&input, 1)
                    .expect("training converges");
                let h = hash(&model, ds.graph.num_nodes());
                got.push_str(&format!("{backbone} {num_layers} {plan} {h:016x}\n"));
            }
        }
    }
    assert!(
        got == EXPECTED,
        "the trained bits changed. If the change is intended, replace EXPECTED \
         in tests/trained_golden.rs with the table below and say in CHANGES.md \
         why.\n--- expected\n{EXPECTED}--- got\n{got}"
    );
}
