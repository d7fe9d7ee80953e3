//! Crash-consistent training checkpoints (format version 1).
//!
//! A [`TrainingCheckpoint`] captures everything a fit with a checkpoint
//! store ([`crate::FitOptions::checkpoints`]) needs to continue an
//! interrupted run **bit-identically**: stage and epoch, encoder/classifier
//! weights, λ, the Adam moment buffers, the post-init RNG stream position,
//! early-stopping bookkeeping, and the divergence watchdog's trailing-loss
//! window. Checkpoints are opaque sealed byte blobs ([`encode_checkpoint`])
//! written through a [`CheckpointStore`]; the filesystem store writes
//! atomically (temp sibling + fsync + rename, via the same helper as model
//! files) so a crash mid-write leaves either the previous generation or a
//! complete new one, and the integrity footer turns a torn or bit-flipped
//! blob into a typed [`PersistError`] at load time.
//!
//! [`CheckpointLog`] layers policy on a store: monotonically increasing
//! generation numbers, bounded write retries through the shared
//! [`fairwos_chaos::RetryPolicy`] (exponential backoff whose sleeps are
//! *planned deterministically* from a seeded jitter stream — no wall-clock
//! reads, which the workspace bans outside the obs/chaos crates), retention
//! pruning, and a latest-valid scan on load that skips corrupt, mismatched,
//! or vanished generations with journaled alerts instead of failing the
//! resume.
//!
//! [`MemoryCheckpointStore`] and [`FaultyCheckpointStore`] are public test
//! doubles: the fault-injection matrix in `tests/checkpoint_faults.rs`
//! drives every failure mode deterministically through them. The faulty
//! store is a thin shim over a local [`fairwos_chaos::ScheduleRunner`] —
//! the same engine behind the global `failpoint!` registry
//! (`docs/ROBUSTNESS.md`).

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::config::{FairwosConfig, RecoveryConfig};
use crate::persist::{atomic_write, seal, unseal, PersistError};
use crate::trainer::FinetuneEpochStats;
use fairwos_obs::json;
use fairwos_tensor::{Matrix, RngState};

/// Current checkpoint-format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Snapshot of an Adam optimizer's internal state (step count and moment
/// buffers). `Default` gives the fresh-optimizer state used at stage
/// boundaries, where the trainer deliberately starts a new optimizer.
#[derive(Clone, Debug, Default)]
pub struct AdamSnapshot {
    /// Bias-correction step count.
    pub t: u64,
    /// First-moment buffers, in parameter order.
    pub m: Vec<Matrix>,
    /// Second-moment buffers, in parameter order.
    pub v: Vec<Matrix>,
}

fairwos_obs::json_struct!(ToJson, FromJson for AdamSnapshot { t, m, v });

/// Snapshot of the counterfactual sets active when the checkpoint was
/// taken, so a resumed stage-3 run reuses the exact sets the interrupted
/// run had searched (they refresh on a schedule, not every epoch).
#[derive(Clone, Debug)]
pub struct CfSnapshot {
    /// Query node ids.
    pub queries: Vec<usize>,
    /// Per-attribute, per-query counterfactual node lists.
    pub sets: Vec<Vec<Vec<usize>>>,
}

fairwos_obs::json_struct!(ToJson, FromJson for CfSnapshot { queries, sets });

/// Partial-epoch cursor for the mini-batch path: everything the resumed
/// run needs to re-enter an interrupted epoch at the next batch and finish
/// it bit-identically (see `docs/SCALING.md`).
///
/// The per-batch aggregates travel with the cursor because the epoch's
/// history entries (loss, fine-tune stats) are only emitted once the epoch
/// completes — a resume must not recompute the already-processed batches.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchCursor {
    /// Index (in the epoch's batch order) of the next batch to process.
    pub batch: usize,
    /// Sampler RNG state at the *start* of the interrupted epoch, before
    /// the epoch salt and shuffle draws — resume redraws them to recover
    /// the identical batch order and subgraphs.
    pub epoch_rng: RngState,
    /// The epoch-start full-graph validation accuracy, when it was
    /// computed before the interruption (`None` = derive from the epoch
    /// loss as the full-batch path does without a validation split).
    pub val_acc: Option<f64>,
    /// Per-contributing-batch `(utility loss, train-node count)` pairs
    /// accumulated so far this epoch.
    pub utility: Vec<(f32, u64)>,
    /// Per-contributing-batch fairness losses (stage 3) so far this epoch.
    pub fairness: Vec<f32>,
    /// Per-contributing-batch per-attribute counterfactual distances
    /// (stage 3) so far this epoch.
    pub attr_d: Vec<Vec<f32>>,
    /// Largest per-batch gradient norm seen so far this epoch.
    pub grad_max: f32,
}

fairwos_obs::json_struct!(ToJson, FromJson for BatchCursor {
    batch, epoch_rng, val_acc, utility, fairness, attr_d, grad_max
});

/// Everything needed to resume training bit-identically. `stage`/`epoch`
/// name the *next* epoch to run: a checkpoint with `stage: 2, epoch: 40`
/// resumes by executing stage-2 epoch 40. Exception: when
/// [`TrainingCheckpoint::batch_cursor`] is present (mini-batch mid-epoch
/// checkpoints), `epoch` names the epoch *in progress* and resume re-enters
/// it at the cursor's batch.
///
/// Derived artifacts that are pure functions of persisted state (X⁰, the
/// median bits, the graph context) are recomputed on resume rather than
/// stored.
///
/// New trainer state cannot silently escape crash recovery: the
/// `json_struct!` below takes no `..base`, so decoding builds this struct
/// literal field by field, and so does the trainer's capture. A field
/// either one leaves out is a compile error (E0063).
#[derive(Clone, Debug)]
pub struct TrainingCheckpoint {
    /// Checkpoint-format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The seed the run was started with; resume refuses a different seed.
    pub seed: u64,
    /// The full training configuration; resume refuses a different config.
    pub config: FairwosConfig,
    /// Stage of the next epoch to run (2 or 3; stage 1 completes before the
    /// first checkpoint).
    pub stage: u8,
    /// Next epoch (0-based, within `stage`) to run.
    pub epoch: usize,
    /// Learning-rate scale in effect (1.0 normally; halved per divergence
    /// rollback by the recovery loop).
    pub lr_scale: f32,
    /// RNG stream position after weight initialization. Training draws no
    /// randomness after init, so this is belt-and-braces for bit-identity.
    pub rng: RngState,
    /// Encoder weights (conv + head), absent for the w/o E variant.
    pub encoder_weights: Option<Vec<Matrix>>,
    /// Stage-1 per-epoch losses (diagnostics carried into the final model).
    pub encoder_losses: Vec<f32>,
    /// Classifier weights in export order.
    pub gnn_weights: Vec<Matrix>,
    /// The active optimizer's state (stage-2 or stage-3 Adam).
    pub opt: AdamSnapshot,
    /// Per-attribute fairness weights λ.
    pub lambda: Vec<f32>,
    /// Stage-2 per-epoch losses recorded so far.
    pub classifier_losses: Vec<f32>,
    /// Best validation score seen (stage 2 early stopping); `None` encodes
    /// "none yet" (JSON has no −∞).
    pub best_val: Option<f64>,
    /// Weights at the best validation score (empty if none yet).
    pub best_params: Vec<Matrix>,
    /// Epochs since the best validation score (stage-2 patience counter).
    pub since_best: usize,
    /// Pseudo-labels fixed at the stage-2→3 boundary (empty during
    /// stage 2).
    pub pseudo_labels: Vec<bool>,
    /// Stage-3 per-epoch statistics recorded so far.
    pub finetune: Vec<FinetuneEpochStats>,
    /// Active counterfactual sets (stage 3 with `SearchReal` only).
    pub cf: Option<CfSnapshot>,
    /// The divergence watchdog's trailing-loss window for the active stage.
    pub watchdog_window: Vec<f64>,
    /// Mini-batch sampler RNG position (the state from which the next
    /// epoch's salt/shuffle draws happen). `None` on the full-batch path
    /// and in pre-mini-batch checkpoints.
    pub sampler_rng: Option<RngState>,
    /// Mid-epoch batch cursor (mini-batch path only); `None` for
    /// epoch-boundary checkpoints.
    pub batch_cursor: Option<BatchCursor>,
}

fairwos_obs::json_struct!(ToJson, FromJson for TrainingCheckpoint {
    version, seed, config, stage, epoch, lr_scale, rng, encoder_weights, encoder_losses,
    gnn_weights, opt, lambda, classifier_losses, best_val, best_params, since_best, pseudo_labels,
    finetune, cf, watchdog_window, sampler_rng, batch_cursor
});

/// Serializes and seals a checkpoint into an opaque store blob.
///
/// # Errors
/// None: encoding cannot fail. The `Result` keeps the signature of the
/// store-facing calls that share `?` with it.
pub fn encode_checkpoint(ckpt: &TrainingCheckpoint) -> Result<Vec<u8>, PersistError> {
    Ok(seal(json::to_string(ckpt).into_bytes()))
}

/// Verifies and parses a sealed checkpoint blob. Unlike model files there
/// is no legacy path: the footer is mandatory, so any truncation or byte
/// flip is a typed error.
///
/// # Errors
/// [`PersistError::Corrupt`] on a failed footer check,
/// [`PersistError::Parse`] on invalid JSON, or
/// [`PersistError::UnsupportedVersion`].
pub fn decode_checkpoint(bytes: &[u8]) -> Result<TrainingCheckpoint, PersistError> {
    let payload = unseal(bytes).map_err(|detail| PersistError::Corrupt {
        what: "checkpoint".to_owned(),
        detail,
    })?;
    let ckpt: TrainingCheckpoint = json::from_slice(payload).map_err(PersistError::Parse)?;
    if ckpt.version != CHECKPOINT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: ckpt.version,
            expected: CHECKPOINT_VERSION,
        });
    }
    Ok(ckpt)
}

/// Where checkpoint generations live. Implementations store opaque byte
/// blobs under monotonically increasing generation numbers; all policy
/// (retries, retention, validity scanning) lives in [`CheckpointLog`].
pub trait CheckpointStore {
    /// Durably stores `bytes` as generation `generation` (overwriting any
    /// existing blob of that generation).
    ///
    /// # Errors
    /// [`PersistError::Io`] on storage failure.
    fn write(&mut self, generation: u64, bytes: &[u8]) -> Result<(), PersistError>;

    /// Reads back the blob of `generation`.
    ///
    /// # Errors
    /// [`PersistError::Io`] when the generation is missing or unreadable.
    fn read(&mut self, generation: u64) -> Result<Vec<u8>, PersistError>;

    /// All stored generation numbers, sorted ascending.
    ///
    /// # Errors
    /// [`PersistError::Io`] on storage failure.
    fn generations(&mut self) -> Result<Vec<u64>, PersistError>;

    /// Removes the blob of `generation` (missing is not an error).
    ///
    /// # Errors
    /// [`PersistError::Io`] on storage failure.
    fn remove(&mut self, generation: u64) -> Result<(), PersistError>;
}

/// Filesystem store: one file per generation (`ckpt-<gen>.fwck`) in a
/// directory, written atomically with the integrity footer already inside
/// the blob.
pub struct FsCheckpointStore {
    dir: PathBuf,
}

impl FsCheckpointStore {
    /// A store rooted at `dir` (created on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    fn path_of(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{generation:010}.fwck"))
    }

    fn io_err(&self, generation: u64, source: std::io::Error) -> PersistError {
        PersistError::Io {
            path: self.path_of(generation).display().to_string(),
            source,
        }
    }
}

impl CheckpointStore for FsCheckpointStore {
    /// Failpoint: `ckpt/fs/write` (fail / delay, keyed by generation).
    /// Torn and corrupt writes are injected one layer down, at
    /// `persist/atomic/write`.
    fn write(&mut self, generation: u64, bytes: &[u8]) -> Result<(), PersistError> {
        if let Some(action) = fairwos_chaos::failpoint!("ckpt/fs/write", generation) {
            if let Some(d) = action.delay() {
                std::thread::sleep(d);
            }
            if matches!(action, fairwos_chaos::FaultAction::Fail) {
                return Err(self.io_err(
                    generation,
                    std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "injected checkpoint write failure",
                    ),
                ));
            }
        }
        std::fs::create_dir_all(&self.dir).map_err(|e| PersistError::Io {
            path: self.dir.display().to_string(),
            source: e,
        })?;
        atomic_write(&self.path_of(generation), bytes).map_err(|e| self.io_err(generation, e))
    }

    /// Failpoint: `ckpt/fs/read` (fail / vanish / torn / corrupt / delay,
    /// keyed by generation).
    fn read(&mut self, generation: u64) -> Result<Vec<u8>, PersistError> {
        let fault = fairwos_chaos::failpoint!("ckpt/fs/read", generation);
        if let Some(action) = fault {
            if let Some(d) = action.delay() {
                std::thread::sleep(d);
            }
            match action {
                fairwos_chaos::FaultAction::Fail => {
                    return Err(self.io_err(
                        generation,
                        std::io::Error::new(
                            std::io::ErrorKind::Interrupted,
                            "injected checkpoint read failure",
                        ),
                    ));
                }
                fairwos_chaos::FaultAction::Vanish => {
                    return Err(self.io_err(
                        generation,
                        std::io::Error::new(
                            std::io::ErrorKind::NotFound,
                            "injected vanished checkpoint",
                        ),
                    ));
                }
                _ => {}
            }
        }
        let mut bytes =
            std::fs::read(self.path_of(generation)).map_err(|e| self.io_err(generation, e))?;
        if let Some(action) = fault {
            action.apply_to_bytes(&mut bytes);
        }
        Ok(bytes)
    }

    fn generations(&mut self) -> Result<Vec<u64>, PersistError> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => {
                return Err(PersistError::Io {
                    path: self.dir.display().to_string(),
                    source: e,
                })
            }
        };
        let mut gens = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| PersistError::Io {
                path: self.dir.display().to_string(),
                source: e,
            })?;
            let name = entry.file_name();
            let stem = name
                .to_str()
                .and_then(|n| n.strip_prefix("ckpt-"))
                .and_then(|n| n.strip_suffix(".fwck"));
            if let Some(gen) = stem.and_then(|s| s.parse::<u64>().ok()) {
                gens.push(gen);
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    fn remove(&mut self, generation: u64) -> Result<(), PersistError> {
        match std::fs::remove_file(self.path_of(generation)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(self.io_err(generation, e)),
        }
    }
}

/// In-memory store for tests and the fault-injection matrix.
#[derive(Default)]
pub struct MemoryCheckpointStore {
    slots: BTreeMap<u64, Vec<u8>>,
}

impl MemoryCheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored generations.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the store holds no generations.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn write(&mut self, generation: u64, bytes: &[u8]) -> Result<(), PersistError> {
        self.slots.insert(generation, bytes.to_vec());
        Ok(())
    }

    fn read(&mut self, generation: u64) -> Result<Vec<u8>, PersistError> {
        self.slots
            .get(&generation)
            .cloned()
            .ok_or_else(|| PersistError::Io {
                path: format!("memory://ckpt/{generation}"),
                source: std::io::Error::new(std::io::ErrorKind::NotFound, "no such generation"),
            })
    }

    fn generations(&mut self) -> Result<Vec<u64>, PersistError> {
        Ok(self.slots.keys().copied().collect())
    }

    fn remove(&mut self, generation: u64) -> Result<(), PersistError> {
        self.slots.remove(&generation);
        Ok(())
    }
}

/// Deterministic fault schedule for [`FaultyCheckpointStore`]. Write
/// indices are 1-based and count every `write` call on the faulty store
/// (including retries), so a plan addresses exactly the n-th attempt.
///
/// This is a convenience front-end: [`FaultPlan::schedule`] lowers it onto
/// a [`fairwos_chaos::FaultSchedule`] over the shim-internal failpoints
/// `ckpt/store/write` and `ckpt/store/read`, so the test double runs on the
/// same engine as the production `failpoint!` seams.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Write attempts that fail with a transient I/O error.
    pub fail_writes: Vec<usize>,
    /// Write attempts whose payload is silently truncated to half — a torn
    /// write that reported success.
    pub torn_writes: Vec<usize>,
    /// Write attempts with one mid-payload byte flipped — post-write
    /// on-disk corruption the integrity footer must catch.
    pub corrupt_writes: Vec<usize>,
    /// Generations that are gone by the time they are read (NotFound).
    pub vanish_reads: Vec<u64>,
}

impl FaultPlan {
    /// Lowers the plan onto the chaos engine's schedule form. Rule order
    /// (fail, torn, corrupt) preserves the plan's precedence for attempt
    /// indices scheduled in more than one list.
    pub fn schedule(&self) -> fairwos_chaos::FaultSchedule {
        use fairwos_chaos::{FaultAction, Trigger};
        let nth = |v: &[usize]| Trigger::Nth(v.iter().map(|&n| n as u64).collect());
        let mut schedule = fairwos_chaos::FaultSchedule::new(0);
        schedule
            .rule(
                "ckpt/store/write",
                nth(&self.fail_writes),
                FaultAction::Fail,
            )
            .rule(
                "ckpt/store/write",
                nth(&self.torn_writes),
                FaultAction::Torn,
            )
            .rule(
                "ckpt/store/write",
                nth(&self.corrupt_writes),
                FaultAction::Corrupt,
            )
            .rule(
                "ckpt/store/read",
                Trigger::Key(self.vanish_reads.clone()),
                FaultAction::Vanish,
            )
            .touch("ckpt/store/write");
        schedule
    }
}

/// A [`CheckpointStore`] wrapper that injects the faults scheduled in a
/// [`FaultPlan`] while delegating everything else to the inner store —
/// a thin shim over a local [`fairwos_chaos::ScheduleRunner`].
pub struct FaultyCheckpointStore<S: CheckpointStore> {
    inner: S,
    runner: fairwos_chaos::ScheduleRunner,
}

impl<S: CheckpointStore> FaultyCheckpointStore<S> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        Self {
            inner,
            runner: fairwos_chaos::ScheduleRunner::new(plan.schedule()),
        }
    }

    /// How many write attempts the store has seen (for asserting retry
    /// counts).
    pub fn writes_seen(&self) -> usize {
        self.runner.hits("ckpt/store/write") as usize
    }

    /// The wrapped store, for direct inspection.
    pub fn inner(&mut self) -> &mut S {
        &mut self.inner
    }
}

impl<S: CheckpointStore> CheckpointStore for FaultyCheckpointStore<S> {
    fn write(&mut self, generation: u64, bytes: &[u8]) -> Result<(), PersistError> {
        match self.runner.fire("ckpt/store/write") {
            Some(fairwos_chaos::FaultAction::Fail) => Err(PersistError::Io {
                path: format!("fault://write/{generation}"),
                source: std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "injected transient write failure",
                ),
            }),
            Some(action) => {
                let mut bad = bytes.to_vec();
                action.apply_to_bytes(&mut bad);
                self.inner.write(generation, &bad)
            }
            None => self.inner.write(generation, bytes),
        }
    }

    fn read(&mut self, generation: u64) -> Result<Vec<u8>, PersistError> {
        if self
            .runner
            .fire_keyed("ckpt/store/read", generation)
            .is_some()
        {
            return Err(PersistError::Io {
                path: format!("fault://read/{generation}"),
                source: std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    "injected vanished checkpoint",
                ),
            });
        }
        self.inner.read(generation)
    }

    fn generations(&mut self) -> Result<Vec<u64>, PersistError> {
        self.inner.generations()
    }

    fn remove(&mut self, generation: u64) -> Result<(), PersistError> {
        self.inner.remove(generation)
    }
}

/// Policy layer over a [`CheckpointStore`]: generation numbering, bounded
/// write retries, retention pruning, and the latest-valid scan used by
/// resume.
pub struct CheckpointLog<'a> {
    store: &'a mut dyn CheckpointStore,
    recovery: RecoveryConfig,
}

impl<'a> CheckpointLog<'a> {
    /// A log writing through `store` under the given recovery policy.
    pub fn new(store: &'a mut dyn CheckpointStore, recovery: RecoveryConfig) -> Self {
        Self { store, recovery }
    }

    /// Encodes and durably stores `ckpt` as the next generation, retrying
    /// transient write failures up to `recovery.write_attempts` times
    /// through the shared [`fairwos_chaos::RetryPolicy`] (bounded
    /// exponential backoff with seeded jitter, planned deterministically —
    /// no wall-clock reads), journaling the checkpoint event on success,
    /// and pruning generations beyond `recovery.retain` (best-effort;
    /// prune failures are alerts, not errors). Returns the generation
    /// written.
    ///
    /// # Errors
    /// The last write error when every attempt failed, or an encode /
    /// store-enumeration error.
    pub fn save(&mut self, ckpt: &TrainingCheckpoint) -> Result<u64, PersistError> {
        // Backoff plan for transient write failures. Deliberately NOT part
        // of RecoveryConfig: resume compares configs by serialized form,
        // so adding fields there would orphan existing checkpoints.
        const WRITE_RETRY_BASE_US: u64 = 500;
        const WRITE_RETRY_MAX_US: u64 = 5_000;
        const WRITE_RETRY_DEADLINE_US: u64 = 20_000;

        let bytes = encode_checkpoint(ckpt)?;
        let generation = self.store.generations()?.last().copied().unwrap_or(0) + 1;
        if let Some(action) = fairwos_chaos::failpoint!("ckpt/log/save", generation) {
            if let Some(d) = action.delay() {
                std::thread::sleep(d);
            }
            if action == fairwos_chaos::FaultAction::Fail {
                // A SIGKILL-style interrupt for the soak harness: the save
                // aborts before any write attempt, as if the process died.
                return Err(PersistError::Io {
                    path: format!("chaos://ckpt/log/save/{generation}"),
                    source: std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "injected checkpoint-save abort",
                    ),
                });
            }
        }
        let attempts = self.recovery.write_attempts.max(1);
        let policy = fairwos_chaos::RetryPolicy::backoff(
            attempts as u32,
            WRITE_RETRY_BASE_US,
            WRITE_RETRY_MAX_US,
        )
        .with_deadline_us(WRITE_RETRY_DEADLINE_US)
        .with_jitter_seed(generation);
        let store = &mut *self.store;
        policy.run(
            |_attempt| store.write(generation, &bytes),
            |attempt, e| {
                fairwos_obs::journal_alert(
                    "recovery/write_retry",
                    &format!(
                        "checkpoint generation {generation} write attempt \
                         {attempt}/{attempts} failed: {e}"
                    ),
                );
            },
        )?;
        fairwos_obs::journal_checkpoint(generation, ckpt.stage, ckpt.epoch as u64);
        let gens = self.store.generations()?;
        let retain = self.recovery.retain.max(1);
        if gens.len() > retain {
            for &old in &gens[..gens.len() - retain] {
                if let Err(e) = self.store.remove(old) {
                    fairwos_obs::journal_alert(
                        "recovery/prune_failed",
                        &format!("checkpoint generation {old} could not be pruned: {e}"),
                    );
                }
            }
        }
        Ok(generation)
    }

    /// Scans generations newest-first and returns the first checkpoint that
    /// decodes cleanly and matches `seed` and `config` (compared by
    /// serialized form), or `None` when no generation qualifies. Corrupt,
    /// unreadable, or mismatched generations are skipped with a journaled
    /// alert — a damaged newest checkpoint degrades to an older one instead
    /// of failing the resume.
    ///
    /// # Errors
    /// Only store-enumeration failures; per-generation problems are skips,
    /// not errors.
    pub fn load_latest(
        &mut self,
        seed: u64,
        config: &FairwosConfig,
    ) -> Result<Option<(u64, TrainingCheckpoint)>, PersistError> {
        let want_config = json::to_string(config);
        let gens = self.store.generations()?;
        for &generation in gens.iter().rev() {
            let bytes = match self.store.read(generation) {
                Ok(b) => b,
                Err(e) => {
                    skip_alert(generation, &format!("unreadable: {e}"));
                    continue;
                }
            };
            let ckpt = match decode_checkpoint(&bytes) {
                Ok(c) => c,
                Err(e) => {
                    skip_alert(generation, &format!("invalid: {e}"));
                    continue;
                }
            };
            if ckpt.seed != seed {
                let why = format!("seed {} does not match run seed {seed}", ckpt.seed);
                skip_alert(generation, &why);
                continue;
            }
            if json::to_string(&ckpt.config) != want_config {
                skip_alert(generation, "config does not match the run's config");
                continue;
            }
            return Ok(Some((generation, ckpt)));
        }
        Ok(None)
    }
}

fn skip_alert(generation: u64, why: &str) {
    fairwos_obs::journal_alert(
        "recovery/checkpoint_skipped",
        &format!("checkpoint generation {generation} skipped: {why}"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairwos_nn::Backbone;
    use fairwos_obs::json::{FromJson, Value};
    use fairwos_tensor::{export_rng_state, seeded_rng};

    fn dummy_ckpt(seed: u64, stage: u8, epoch: usize) -> TrainingCheckpoint {
        TrainingCheckpoint {
            version: CHECKPOINT_VERSION,
            seed,
            config: FairwosConfig::paper_default(Backbone::Gcn),
            stage,
            epoch,
            lr_scale: 1.0,
            rng: export_rng_state(&seeded_rng(seed)),
            encoder_weights: None,
            encoder_losses: vec![1.0, 0.5],
            gnn_weights: vec![Matrix::ones(2, 2)],
            opt: AdamSnapshot::default(),
            lambda: vec![0.5, 0.5],
            classifier_losses: vec![0.7],
            best_val: None,
            best_params: Vec::new(),
            since_best: 0,
            pseudo_labels: Vec::new(),
            finetune: Vec::new(),
            cf: None,
            watchdog_window: vec![0.7],
            sampler_rng: None,
            batch_cursor: None,
        }
    }

    fn recovery() -> RecoveryConfig {
        RecoveryConfig::default()
    }

    #[test]
    fn legacy_checkpoints_without_minibatch_fields_still_decode() {
        // Checkpoints written before the mini-batch path existed lack the
        // sampler/cursor keys; decoding must fill them as None.
        let mut ckpt = dummy_ckpt(0, 2, 0);
        ckpt.sampler_rng = Some(export_rng_state(&seeded_rng(99)));
        let text = json::to_string(&ckpt);
        let mut value = Value::parse(&text).expect("checkpoint JSON parses");
        let Value::Obj(members) = &mut value else {
            panic!("a checkpoint encodes as an object")
        };
        let before = members.len();
        members.retain(|(k, _)| k != "sampler_rng" && k != "batch_cursor");
        assert_eq!(members.len() + 2, before, "both keys were present");
        let legacy = TrainingCheckpoint::from_value(&value).expect("legacy checkpoint decodes");
        assert_eq!(legacy.sampler_rng, None);
        assert_eq!(legacy.batch_cursor, None);
    }

    #[test]
    fn batch_cursor_round_trips_through_the_sealed_format() {
        let mut ckpt = dummy_ckpt(2, 3, 4);
        ckpt.sampler_rng = Some(export_rng_state(&seeded_rng(99)));
        ckpt.batch_cursor = Some(BatchCursor {
            batch: 3,
            epoch_rng: export_rng_state(&seeded_rng(98)),
            val_acc: Some(0.75),
            utility: vec![(0.5, 12), (0.4, 9)],
            fairness: vec![0.1, 0.2],
            attr_d: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            grad_max: 1.5,
        });
        let bytes = encode_checkpoint(&ckpt).expect("encodes");
        let back = decode_checkpoint(&bytes).expect("decodes");
        assert_eq!(back.sampler_rng, ckpt.sampler_rng);
        assert_eq!(back.batch_cursor, ckpt.batch_cursor);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ckpt = dummy_ckpt(3, 2, 17);
        let bytes = encode_checkpoint(&ckpt).expect("encodes");
        let back = decode_checkpoint(&bytes).expect("decodes");
        assert_eq!(back.seed, 3);
        assert_eq!((back.stage, back.epoch), (2, 17));
        assert_eq!(back.gnn_weights, ckpt.gnn_weights);
        assert_eq!(back.rng, ckpt.rng);
    }

    #[test]
    fn decode_requires_the_footer() {
        let ckpt = dummy_ckpt(0, 2, 0);
        let json = json::to_string(&ckpt).into_bytes();
        match decode_checkpoint(&json) {
            Err(PersistError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_every_truncation_and_byte_flip() {
        let bytes = encode_checkpoint(&dummy_ckpt(1, 3, 2)).expect("encodes");
        for cut in 1..bytes.len() {
            assert!(
                decode_checkpoint(&bytes[..bytes.len() - cut]).is_err(),
                "truncation by {cut} went undetected"
            );
        }
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(
                decode_checkpoint(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn decode_rejects_future_versions() {
        let mut ckpt = dummy_ckpt(0, 2, 0);
        ckpt.version = CHECKPOINT_VERSION + 1;
        let bytes = encode_checkpoint(&ckpt).expect("encodes");
        match decode_checkpoint(&bytes) {
            Err(PersistError::UnsupportedVersion { found, expected }) => {
                assert_eq!(found, CHECKPOINT_VERSION + 1);
                assert_eq!(expected, CHECKPOINT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn log_assigns_increasing_generations_and_prunes() {
        let mut store = MemoryCheckpointStore::new();
        let policy = RecoveryConfig {
            retain: 2,
            ..recovery()
        };
        let mut log = CheckpointLog::new(&mut store, policy);
        for epoch in 0..5 {
            let generation = log.save(&dummy_ckpt(0, 2, epoch)).expect("save succeeds");
            assert_eq!(generation, epoch as u64 + 1);
        }
        let gens = store.generations().expect("enumerable");
        assert_eq!(
            gens,
            vec![4, 5],
            "only the newest `retain` generations survive"
        );
    }

    #[test]
    fn load_latest_returns_newest_matching() {
        let mut store = MemoryCheckpointStore::new();
        let mut log = CheckpointLog::new(&mut store, recovery());
        log.save(&dummy_ckpt(0, 2, 10)).expect("save succeeds");
        log.save(&dummy_ckpt(0, 2, 20)).expect("save succeeds");
        let cfg = FairwosConfig::paper_default(Backbone::Gcn);
        let (generation, ckpt) = log
            .load_latest(0, &cfg)
            .expect("scan succeeds")
            .expect("a checkpoint matches");
        assert_eq!(generation, 2);
        assert_eq!(ckpt.epoch, 20);
    }

    #[test]
    fn load_latest_skips_mismatched_seed_and_config() {
        let mut store = MemoryCheckpointStore::new();
        let mut log = CheckpointLog::new(&mut store, recovery());
        log.save(&dummy_ckpt(0, 2, 10)).expect("save succeeds");
        log.save(&dummy_ckpt(9, 2, 20)).expect("save succeeds");
        let cfg = FairwosConfig::paper_default(Backbone::Gcn);
        // Newest has seed 9 — skipped; generation 1 (seed 0) is returned.
        let (generation, ckpt) = log
            .load_latest(0, &cfg)
            .expect("scan succeeds")
            .expect("older checkpoint matches");
        assert_eq!(generation, 1);
        assert_eq!(ckpt.epoch, 10);
        // A different config matches nothing.
        let other = FairwosConfig::paper_default(Backbone::Gin);
        assert!(log.load_latest(0, &other).expect("scan succeeds").is_none());
    }

    #[test]
    fn transient_write_failure_is_retried() {
        let plan = FaultPlan {
            fail_writes: vec![1],
            ..FaultPlan::default()
        };
        let mut store = FaultyCheckpointStore::new(MemoryCheckpointStore::new(), plan);
        let mut log = CheckpointLog::new(&mut store, recovery());
        log.save(&dummy_ckpt(0, 2, 0)).expect("retry succeeds");
        assert_eq!(store.writes_seen(), 2, "one failure + one successful retry");
    }

    #[test]
    fn persistent_write_failure_surfaces_after_budget() {
        let plan = FaultPlan {
            fail_writes: vec![1, 2, 3],
            ..FaultPlan::default()
        };
        let mut store = FaultyCheckpointStore::new(MemoryCheckpointStore::new(), plan);
        let policy = RecoveryConfig {
            write_attempts: 3,
            ..recovery()
        };
        let mut log = CheckpointLog::new(&mut store, policy);
        match log.save(&dummy_ckpt(0, 2, 0)) {
            Err(PersistError::Io { .. }) => {}
            other => panic!("expected Io, got {other:?}"),
        }
        assert_eq!(store.writes_seen(), 3, "exactly the attempt budget");
    }

    #[test]
    fn torn_and_corrupt_writes_are_skipped_on_load() {
        // Writes 2 and 3 are damaged; the scan falls back to generation 1.
        let plan = FaultPlan {
            torn_writes: vec![2],
            corrupt_writes: vec![3],
            ..FaultPlan::default()
        };
        let mut store = FaultyCheckpointStore::new(MemoryCheckpointStore::new(), plan);
        let mut log = CheckpointLog::new(&mut store, recovery());
        log.save(&dummy_ckpt(0, 2, 10)).expect("save succeeds");
        log.save(&dummy_ckpt(0, 2, 20))
            .expect("save reports success despite tear");
        log.save(&dummy_ckpt(0, 2, 30))
            .expect("save reports success despite corruption");
        let cfg = FairwosConfig::paper_default(Backbone::Gcn);
        let (generation, ckpt) = log
            .load_latest(0, &cfg)
            .expect("scan succeeds")
            .expect("intact generation survives");
        assert_eq!(generation, 1);
        assert_eq!(ckpt.epoch, 10);
    }

    #[test]
    fn vanished_reads_are_skipped_on_load() {
        let plan = FaultPlan {
            vanish_reads: vec![2],
            ..FaultPlan::default()
        };
        let mut store = FaultyCheckpointStore::new(MemoryCheckpointStore::new(), plan);
        let mut log = CheckpointLog::new(&mut store, recovery());
        log.save(&dummy_ckpt(0, 2, 10)).expect("save succeeds");
        log.save(&dummy_ckpt(0, 2, 20)).expect("save succeeds");
        let cfg = FairwosConfig::paper_default(Backbone::Gcn);
        let (generation, _) = log
            .load_latest(0, &cfg)
            .expect("scan succeeds")
            .expect("older generation survives");
        assert_eq!(generation, 1);
    }

    #[test]
    fn fs_store_roundtrips_and_enumerates() {
        let dir = std::env::temp_dir().join("fairwos_fs_ckpt_store_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = FsCheckpointStore::new(&dir);
        assert!(store
            .generations()
            .expect("missing dir is empty")
            .is_empty());
        store.write(3, b"three").expect("write succeeds");
        store.write(1, b"one").expect("write succeeds");
        assert_eq!(store.generations().expect("enumerable"), vec![1, 3]);
        assert_eq!(store.read(3).expect("readable"), b"three");
        store.remove(1).expect("removable");
        store.remove(1).expect("double remove is fine");
        assert_eq!(store.generations().expect("enumerable"), vec![3]);
        match store.read(9) {
            Err(PersistError::Io { path, .. }) => assert!(path.contains("ckpt-0000000009")),
            other => panic!("expected Io, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fs_store_survives_checkpoint_log_end_to_end() {
        let dir = std::env::temp_dir().join("fairwos_fs_ckpt_log_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = FsCheckpointStore::new(&dir);
        {
            let mut log = CheckpointLog::new(&mut store, recovery());
            log.save(&dummy_ckpt(4, 3, 2)).expect("save succeeds");
        }
        // A fresh store over the same directory sees the checkpoint.
        let mut reopened = FsCheckpointStore::new(&dir);
        let mut log = CheckpointLog::new(&mut reopened, recovery());
        let cfg = FairwosConfig::paper_default(Backbone::Gcn);
        let (_, ckpt) = log
            .load_latest(4, &cfg)
            .expect("scan succeeds")
            .expect("checkpoint found");
        assert_eq!((ckpt.stage, ckpt.epoch), (3, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
