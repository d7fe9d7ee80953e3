//! Exact work of a pinned training scenario.
//!
//! Every GNN backbone (GCN, GIN, SAGE, GAT) with one and two layers is fit
//! on a small NBA graph twice, once full-batch and once over a shuffled
//! plan of 48-node blocks with fanout 3, and one run with a checkpoint
//! store is resumed from the middle of its checkpoint sequence. The span counts and
//! the counter totals of the whole scenario (armed by the `obs` feature)
//! must equal [`EXPECTED`], line for line, in the format of the
//! `per_fit_counters` lines of the committed `BENCH_<n>.json` files:
//! `span <label> <count>` and `counter <label> <calls> <total>`, sorted.
//!
//! The counters are machine-independent. FLOPs and FMAs follow from the
//! kernel shapes, `minibatch/*` from the seeded sampler, and span counts
//! from the epoch and batch schedule (early stopping is off). The
//! allocation and pool counters are pinned too. A fit starts no thread:
//! the dense, sparse and banded kernels, the counterfactual search and
//! batch preparation run their fixed chunks in order on the calling
//! thread, and the trainer's buffer pool is owned by that thread. So no
//! total depends on the machine's core count.
//!
//! **Updating the table.** A change that alters work on purpose (a kernel
//! that skips zeros, one fewer forward per epoch) fails this test, which
//! prints the whole new table. Paste it over [`EXPECTED`] and say in the
//! change log which lines moved and why. A change that should not alter
//! work must leave the table as it is.
//!
//! This binary holds only this test: the obs registry is process-global,
//! and Rust runs tests within one binary concurrently, so any other
//! obs-reset test in the same binary would race the counters.

use fairwos::obs;
use fairwos::prelude::*;

/// The pinned table: the `counter` and `span` lines, sorted.
const EXPECTED: &str = "\
counter graph/spmm/fma 330 10532982
counter minibatch/batches 336 336
counter minibatch/sampled_nodes 336 31592
counter tensor/alloc/bytes 1587 2664292
counter tensor/matmul/flops 1547 24553024
counter tensor/matmul_nt/flops 722 4679680
counter tensor/matmul_tn/flops 1252 21064352
counter tensor/pool/hits 5981 5981
counter tensor/pool/misses 356 356
counter tensor/pool/recycled_bytes 5981 16596368
span core/cf_search 102
span core/lambda_kkt 102
span nn/backward 466
span nn/forward_inference 20
span nn/forward_train 506
span train/graph_context 18
span train/minibatch/batch 336
span train/minibatch/prepare 112
span train/stage1/epoch 102
span train/stage1_encoder 17
span train/stage2/epoch 86
span train/stage2_classifier 18
span train/stage3/epoch 54
span train/stage3/lambda_update 102
span train/stage3_finetune 18
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
        recovery: RecoveryConfig {
            checkpoint_interval: 2,
            retain: 100,
            ..RecoveryConfig::default()
        },
        minibatch,
        ..FairwosConfig::paper_default(backbone)
    }
}

/// Fits `cfg` with a checkpoint store, then resumes it from a store that
/// holds only the first half of the checkpoint generations.
fn fit_and_resume_mid_run(input: &TrainInput<'_>, cfg: FairwosConfig) {
    let trainer = FairwosTrainer::new(cfg);
    let mut clean = MemoryCheckpointStore::new();
    let full = trainer
        .fit_with(
            input,
            1,
            FitOptions {
                checkpoints: Some(&mut clean),
                ..FitOptions::default()
            },
        )
        .expect("training converges");
    let generations = clean.generations().expect("in-memory store is infallible");
    let cut = generations[generations.len() / 2];
    let mut crashed = MemoryCheckpointStore::new();
    for &g in generations.iter().filter(|&&g| g <= cut) {
        let blob = clean.read(g).expect("in-memory store is infallible");
        crashed
            .write(g, &blob)
            .expect("in-memory store is infallible");
    }
    let resumed = trainer
        .fit_with(
            input,
            1,
            FitOptions {
                checkpoints: Some(&mut crashed),
                ..FitOptions::default()
            },
        )
        .expect("resume converges");
    // The pinned table counts these two `predict_probs` inference passes.
    assert_eq!(full.predict_probs(), resumed.predict_probs());
}

/// The sorted `span` and `counter` lines of the registry.
fn table(metrics: &obs::RunMetrics) -> String {
    let mut lines: Vec<String> = metrics
        .spans
        .iter()
        .map(|s| format!("span {} {}", s.label, s.count))
        .chain(
            metrics
                .counters
                .iter()
                .map(|c| format!("counter {} {} {}", c.label, c.calls, c.total)),
        )
        .collect();
    lines.sort();
    lines.iter().map(|l| format!("{l}\n")).collect()
}

#[test]
fn pinned_scenario_does_the_pinned_work() {
    if !obs::is_enabled() {
        eprintln!("work_counters: skipped (build without the `obs` feature)");
        return;
    }
    let ds = FairGraphDataset::generate(&DatasetSpec::nba().scaled(0.3), 5);
    let input = TrainInput {
        graph: &ds.graph,
        features: &ds.features,
        labels: &ds.labels,
        train: &ds.split.train,
        val: &ds.split.val,
    };
    obs::reset();
    for backbone in [Backbone::Gcn, Backbone::Gin, Backbone::Sage, Backbone::Gat] {
        for num_layers in 1..=2 {
            let sampled = MinibatchConfig {
                shuffle: true,
                ..MinibatchConfig::new(48, vec![3; num_layers])
            };
            for minibatch in [None, Some(sampled)] {
                FairwosTrainer::new(config(backbone, num_layers, minibatch))
                    .fit(&input, 1)
                    .expect("training converges");
            }
        }
    }
    fit_and_resume_mid_run(&input, config(Backbone::Gcn, 1, None));
    let got = table(&obs::RunMetrics::capture("Fairwos", "nba", "all", 1, 0.0));
    assert!(
        got == EXPECTED,
        "the pinned scenario's work changed. If the change is intended, replace \
         EXPECTED in tests/work_counters.rs with the table below and say in \
         CHANGES.md which lines moved and why.\n\
         --- expected\n{EXPECTED}--- got\n{got}"
    );
}
