//! Fault-injection matrix for crash-consistent training persistence: every
//! scheduled storage fault either heals transparently (write retries,
//! newest-valid-generation fallback, divergence rollback) or surfaces as a
//! typed [`TrainError`] — never a panic, and never a silently different
//! model. Resume correctness is always checked bit-for-bit against an
//! uninterrupted run of the same seed and config.

use fairwos::core::{FaultPlan, FaultyCheckpointStore};
use fairwos::prelude::*;

/// Short schedule with early stopping disabled (patience > classifier
/// epochs) so every run writes the same deterministic checkpoint sequence:
/// the stage-2 boundary, eight stage-2 interval generations, the stage-3
/// boundary, and one stage-3 interval generation.
fn recovery_config() -> FairwosConfig {
    FairwosConfig {
        encoder_dim: 6,
        encoder_epochs: 40,
        classifier_epochs: 60,
        finetune_epochs: 7,
        learning_rate: 0.02,
        patience: 100,
        recovery: RecoveryConfig {
            checkpoint_interval: 7,
            retain: 100,
            ..RecoveryConfig::default()
        },
        ..FairwosConfig::fast(Backbone::Gcn)
    }
}

/// Fit options with only a checkpoint store set.
fn resumable(store: &mut dyn CheckpointStore) -> FitOptions<'_> {
    FitOptions {
        checkpoints: Some(store),
        ..FitOptions::default()
    }
}

fn small_dataset() -> FairGraphDataset {
    FairGraphDataset::generate(&DatasetSpec::nba().scaled(0.3), 5)
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

#[test]
fn transient_write_failures_heal_within_the_retry_budget() {
    let ds = small_dataset();
    let cfg = recovery_config();
    let plain = FairwosTrainer::new(cfg.clone())
        .fit(&input_of(&ds), 5)
        .expect("training converges");

    // Attempts 1 and 5 fail transiently; with write_attempts = 3 both
    // saves succeed on their next attempt without the trainer noticing.
    let plan = FaultPlan {
        fail_writes: vec![1, 5],
        ..FaultPlan::default()
    };
    let mut store = FaultyCheckpointStore::new(MemoryCheckpointStore::new(), plan);
    let trained = FairwosTrainer::new(cfg)
        .fit_with(&input_of(&ds), 5, resumable(&mut store))
        .expect("transient write failures must not abort training");

    assert_eq!(plain.predict_probs(), trained.predict_probs());
    assert_eq!(plain.lambda(), trained.lambda());
    let generations = store.inner().len();
    assert_eq!(
        store.writes_seen(),
        generations + 2,
        "every injected failure costs exactly one retry attempt"
    );
}

#[test]
fn exhausted_write_budget_surfaces_a_typed_persist_error() {
    let ds = small_dataset();
    let cfg = recovery_config(); // write_attempts = 3
    let plan = FaultPlan {
        fail_writes: vec![1, 2, 3],
        ..FaultPlan::default()
    };
    let mut store = FaultyCheckpointStore::new(MemoryCheckpointStore::new(), plan);
    let err = FairwosTrainer::new(cfg)
        .fit_with(&input_of(&ds), 5, resumable(&mut store))
        .expect_err("a persistently failing store must abort training");

    assert!(
        matches!(err, TrainError::Persist(_)),
        "expected a persistence error, got: {err}"
    );
    assert!(err.divergence().is_none());
    assert_eq!(
        store.writes_seen(),
        3,
        "the retry loop stops at the configured budget"
    );
    assert!(
        store.inner().is_empty(),
        "no generation ever reached the store"
    );
}

#[test]
fn resume_skips_torn_corrupt_and_vanished_generations() {
    let ds = small_dataset();
    let trainer = FairwosTrainer::new(recovery_config());
    let full = trainer.fit(&input_of(&ds), 5).expect("training converges");

    // Harvest the checkpoint sequence of a clean resumable run.
    let mut clean = MemoryCheckpointStore::new();
    trainer
        .fit_with(&input_of(&ds), 5, resumable(&mut clean))
        .expect("training converges");
    let generations = clean.generations().expect("in-memory store is infallible");
    let n = generations.len();
    assert!(
        n >= 4,
        "need several generations to corrupt, got {generations:?}"
    );

    // Rebuild a crashed store whose newest three generations are a torn
    // write, footer bit rot, and a file that vanished before the read.
    let mut inner = MemoryCheckpointStore::new();
    for &generation in &generations {
        let mut blob = clean
            .read(generation)
            .expect("in-memory store is infallible");
        if generation == generations[n - 1] {
            blob.truncate(blob.len() / 2);
        }
        if generation == generations[n - 2] {
            let last = blob.len() - 1;
            blob[last] ^= 0xFF;
        }
        inner
            .write(generation, &blob)
            .expect("in-memory store is infallible");
    }
    let plan = FaultPlan {
        vanish_reads: vec![generations[n - 3]],
        ..FaultPlan::default()
    };
    let mut crashed = FaultyCheckpointStore::new(inner, plan);

    // Resume must fall back to the newest intact generation and still end
    // bit-identical to the uninterrupted run.
    let resumed = trainer
        .fit_with(&input_of(&ds), 5, resumable(&mut crashed))
        .expect("resume heals by falling back to an older generation");
    assert_eq!(full.predict_probs(), resumed.predict_probs());
    assert_eq!(full.lambda(), resumed.lambda());
    assert_eq!(
        full.history.classifier_losses,
        resumed.history.classifier_losses
    );
}

#[test]
fn fs_store_resumes_after_the_newest_file_is_truncated() {
    let dir = std::env::temp_dir().join(format!("fairwos-ckpt-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let ds = small_dataset();
    let trainer = FairwosTrainer::new(recovery_config());
    let full = trainer.fit(&input_of(&ds), 5).expect("training converges");

    let mut store = FsCheckpointStore::new(dir.clone());
    trainer
        .fit_with(&input_of(&ds), 5, resumable(&mut store))
        .expect("training converges");
    let generations = store.generations().expect("checkpoint dir is listable");
    assert!(!generations.is_empty());

    // Tear the newest on-disk file in half, as a crash mid-write would
    // without the atomic temp + rename protocol.
    let newest = generations[generations.len() - 1];
    let path = dir.join(format!("ckpt-{newest:010}.fwck"));
    let bytes = std::fs::read(&path).expect("newest checkpoint file readable");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate newest checkpoint");

    let mut reopened = FsCheckpointStore::new(dir.clone());
    let resumed = trainer
        .fit_with(&input_of(&ds), 5, resumable(&mut reopened))
        .expect("resume falls back past the torn file");
    assert_eq!(full.predict_probs(), resumed.predict_probs());

    let _ = std::fs::remove_dir_all(&dir);
}

/// The recovery schedule on the mini-batch path: three blocks of ≤ 40
/// seeds per epoch (nba × 0.3 ≈ 120 nodes), finite fanout, and a cursor
/// checkpoint after every batch.
fn minibatch_recovery_config() -> FairwosConfig {
    FairwosConfig {
        minibatch: Some(MinibatchConfig {
            checkpoint_batches: 1,
            ..MinibatchConfig::new(40, vec![3])
        }),
        ..recovery_config()
    }
}

#[test]
fn mid_epoch_resume_is_bit_identical_to_uninterrupted() {
    use fairwos::core::checkpoint::decode_checkpoint;

    let ds = small_dataset();
    let trainer = FairwosTrainer::new(minibatch_recovery_config());
    let full = trainer.fit(&input_of(&ds), 5).expect("training converges");

    // Harvest the generation sequence of a clean resumable run. Mid-epoch
    // generations are exactly the ones whose decoded blob carries a batch
    // cursor.
    let mut clean = MemoryCheckpointStore::new();
    trainer
        .fit_with(&input_of(&ds), 5, resumable(&mut clean))
        .expect("training converges");
    let generations = clean.generations().expect("in-memory store is infallible");
    let mid: Vec<(u64, TrainingCheckpoint)> = generations
        .iter()
        .filter_map(|&g| {
            let blob = clean.read(g).expect("in-memory store is infallible");
            let ckpt = decode_checkpoint(&blob).expect("clean blobs decode");
            ckpt.batch_cursor.is_some().then_some((g, ckpt))
        })
        .collect();
    assert!(
        mid.len() >= 2,
        "checkpoint_batches = 1 over ≥ 2 batches/epoch must leave mid-epoch \
         generations, got {generations:?}"
    );
    let last_of_stage2 = mid.iter().rposition(|(_, c)| c.stage == 2);
    let first_of_stage3 = mid.iter().position(|(_, c)| c.stage == 3);
    let (Some(last2), Some(first3)) = (last_of_stage2, first_of_stage3) else {
        panic!("this schedule writes mid-epoch generations in both stages");
    };

    // Crash immediately after a mid-epoch write and resume from a store that
    // holds nothing newer: at the first and the last cursor of the whole run,
    // and at the last cursor of stage 2 and the first of stage 3, so both
    // cursor shapes are resumed at both ends. Resume restarts the epoch's
    // remaining batches from the cursor and must end bit-identical to the
    // uninterrupted fit.
    let cuts = [(0, 2), (last2, 2), (first3, 3), (mid.len() - 1, 3)];
    for (i, stage) in cuts {
        let (cut, ckpt) = (mid[i].0, &mid[i].1);
        let cursor = ckpt.batch_cursor.as_ref().expect("a mid-epoch generation");
        assert_eq!(ckpt.stage, stage, "generation {cut} is in the wrong stage");
        // Stage 2 carries the epoch-start validation accuracy; stage 3 the
        // fairness losses and attribute distances.
        assert_eq!(cursor.val_acc.is_some(), stage == 2);
        assert_eq!(cursor.fairness.is_empty(), stage == 2);
        assert_eq!(cursor.attr_d.is_empty(), stage == 2);
        let mut crashed = MemoryCheckpointStore::new();
        for &g in generations.iter().filter(|&&g| g <= cut) {
            let blob = clean.read(g).expect("in-memory store is infallible");
            crashed
                .write(g, &blob)
                .expect("in-memory store is infallible");
        }
        let resumed = trainer
            .fit_with(&input_of(&ds), 5, resumable(&mut crashed))
            .expect("mid-epoch resume converges");
        assert_eq!(
            full.predict_probs(),
            resumed.predict_probs(),
            "resume from mid-epoch generation {cut} diverged"
        );
        assert_eq!(full.lambda(), resumed.lambda());
        assert_eq!(
            full.history.classifier_losses,
            resumed.history.classifier_losses
        );
        assert_eq!(full.history.finetune.len(), resumed.history.finetune.len());
    }
}

#[test]
fn minibatch_checkpoint_fields_survive_the_serde_round_trip() {
    use fairwos::core::checkpoint::{decode_checkpoint, encode_checkpoint};

    // The compiler keeps capture and decoding in step with the struct; this
    // pins the other half of the contract — the mini-batch fields actually
    // travel through the sealed-blob round trip instead of decoding to
    // their missing-key default of `None`.
    let ds = small_dataset();
    let mut store = MemoryCheckpointStore::new();
    FairwosTrainer::new(minibatch_recovery_config())
        .fit_with(&input_of(&ds), 5, resumable(&mut store))
        .expect("training converges");
    let generations = store.generations().expect("in-memory store is infallible");

    let ckpt = generations
        .iter()
        .rev()
        .find_map(|&g| {
            let blob = store.read(g).expect("in-memory store is infallible");
            let c = decode_checkpoint(&blob).expect("clean blobs decode");
            c.batch_cursor.is_some().then_some(c)
        })
        .expect("the schedule writes at least one mid-epoch generation");
    assert!(
        ckpt.sampler_rng.is_some(),
        "mini-batch checkpoints must carry the sampler RNG position"
    );

    let blob = encode_checkpoint(&ckpt).expect("checkpoint re-encodes");
    assert!(
        String::from_utf8_lossy(&blob).contains("\"sampler_rng\"")
            && String::from_utf8_lossy(&blob).contains("\"batch_cursor\""),
        "the mini-batch fields must be spelled out in the stored JSON"
    );
    let back = decode_checkpoint(&blob).expect("re-encoded checkpoint decodes");
    assert_eq!(
        back.sampler_rng, ckpt.sampler_rng,
        "sampler RNG state lost in round trip"
    );
    assert_eq!(
        back.batch_cursor, ckpt.batch_cursor,
        "batch cursor lost in round trip"
    );
}

#[test]
fn divergence_rolls_back_and_retries_with_scaled_lr() {
    let ds = small_dataset();
    let cfg = FairwosConfig {
        use_encoder: false,
        learning_rate: 1e4,
        recovery: RecoveryConfig {
            checkpoint_interval: 7,
            retain: 100,
            max_rollbacks: 1,
            lr_backoff: 1e-6,
            ..RecoveryConfig::default()
        },
        ..recovery_config()
    };
    let mut store = MemoryCheckpointStore::new();
    // The first attempt diverges within the watchdog window; the rollback
    // restarts from the stage-2 boundary checkpoint at lr 1e4 × 1e-6 and
    // converges.
    let trained = FairwosTrainer::new(cfg)
        .fit_with(&input_of(&ds), 7, resumable(&mut store))
        .expect("rollback with a backed-off learning rate must converge");
    let probs = trained.predict_probs();
    assert!(probs
        .iter()
        .all(|p| p.is_finite() && (0.0..=1.0).contains(p)));
    assert!(!store.is_empty());
}

#[test]
fn invalid_input_is_a_typed_error_not_a_panic() {
    let ds = small_dataset();
    let mut input = input_of(&ds);
    input.train = &[];
    let err = FairwosTrainer::new(recovery_config())
        .fit(&input, 0)
        .expect_err("an empty train split cannot be fitted");
    assert!(
        matches!(err, TrainError::Input(InputError::EmptyTrainSplit)),
        "{err}"
    );
    assert!(err.divergence().is_none());
}
