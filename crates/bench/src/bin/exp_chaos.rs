//! **Extension** — deterministic chaos soak across train → checkpoint →
//! serve (`docs/ROBUSTNESS.md`).
//!
//! For each pinned seed, arms a `fairwos-chaos` [`FaultSchedule`] and drives
//! the full pipeline through it twice, asserting the robustness invariants
//! end to end:
//!
//! 1. **Train → interrupt → resume** — a transient checkpoint-write failure
//!    heals inside the shared retry policy; a SIGKILL-style abort at the
//!    `ckpt/log/save` failpoint kills the run mid-training; resuming from
//!    the surviving generations ends **bit-identical** to an uninterrupted
//!    fit of the same seed.
//! 2. **Serve under fault** — torn artifacts reject every reload while the
//!    old generation keeps answering byte-identically and **zero queries
//!    drop**; the reload circuit breaker opens after the configured
//!    consecutive rejections and short-circuits further reloads; after the
//!    cooldown a healthy artifact publishes the next generation.
//! 3. **Accountability** — every injected fault appears in the runner's
//!    injection log, in the journal (`chaos/injected` alerts), and in the
//!    `chaos/injected` counter, with all three totals equal.
//! 4. **Replayability** — the second run of the same seed produces the
//!    byte-identical fault sequence (the soak is a replayable bug report,
//!    not a flake).
//!
//! Requires `--features chaos` (which pulls in `obs`); refuses to run as a
//! silent no-op otherwise. CI runs this with `--out results/chaos.json`.

use fairwos_bench::Args;
use fairwos_chaos::{FaultAction, FaultSchedule, Trigger};
use fairwos_core::{
    CheckpointStore, FairwosConfig, FairwosModelFile, FairwosTrainer, FitOptions,
    FsCheckpointStore, RecoveryConfig, TrainInput,
};
use fairwos_datasets::{DatasetSpec, FairGraphDataset};
use fairwos_nn::Backbone;
use fairwos_serve::{
    http_get, AdminConfig, AdminServer, FsModelSource, ServeConfig, ServeData, ServeEngine,
    ServeError,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The pinned soak seeds; each must pass, and each must replay identically.
const SEEDS: [u64; 3] = [17, 29, 83];

/// Checkpoint generation at which the injected abort kills training.
const INTERRUPT_GENERATION: u64 = 3;

/// Consecutive rejected reloads that open the breaker in this soak.
const BREAKER_THRESHOLD: usize = 3;

/// Breaker cooldown for the soak (short, so the healthy-probe wait is
/// milliseconds).
const BREAKER_COOLDOWN_US: u64 = 5_000;

/// Queries hammered through the engine per seed (all must be answered).
const HAMMER_QUERIES: usize = 1_000;

struct ChaosReport {
    schema_version: u32,
    dataset: String,
    scale: f64,
    seeds: Vec<SeedReport>,
    pass: bool,
}

fairwos_obs::json_struct!(ToJson for ChaosReport { schema_version, dataset, scale, seeds, pass });

struct SeedReport {
    seed: u64,
    /// Fault sequence of the training phase (`seq:point#hit:action`).
    train_faults: Vec<String>,
    /// Fault sequence of the serving phase.
    serve_faults: Vec<String>,
    /// Total faults injected (== journaled `chaos/injected` alerts == the
    /// `chaos/injected` counter).
    injected_total: u64,
    resume_bit_identical: bool,
    queries_answered: u64,
    breaker_opened: bool,
    /// Second run of the same seed produced the byte-identical sequence.
    replay_identical: bool,
    /// Wall-clock of the two runs (timing only — never compared).
    elapsed_ms: u128,
}

fairwos_obs::json_struct!(ToJson for SeedReport {
    seed, train_faults, serve_faults, injected_total, resume_bit_identical, queries_answered,
    breaker_opened, replay_identical, elapsed_ms
});

/// Everything a scenario run produces that must be identical across runs of
/// the same seed.
struct ScenarioOutcome {
    train_faults: Vec<String>,
    serve_faults: Vec<String>,
    queries_answered: u64,
    breaker_opened: bool,
}

fn soak_config() -> FairwosConfig {
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

fn input_of(ds: &FairGraphDataset) -> TrainInput<'_> {
    TrainInput {
        graph: &ds.graph,
        features: &ds.features,
        labels: &ds.labels,
        train: &ds.split.train,
        val: &ds.split.val,
    }
}

/// Fit options with only a checkpoint store set.
fn resumable(store: &mut dyn CheckpointStore) -> FitOptions<'_> {
    FitOptions {
        checkpoints: Some(store),
        ..FitOptions::default()
    }
}

/// The training-phase schedule: one healed transient write failure, a
/// seeded-probability fsync delay (exercising the ChaCha draw path), and
/// the SIGKILL-style abort at generation [`INTERRUPT_GENERATION`].
fn train_schedule(seed: u64) -> FaultSchedule {
    let mut schedule = FaultSchedule::new(seed);
    schedule
        .rule("ckpt/fs/write", Trigger::Nth(vec![2]), FaultAction::Fail)
        .rule(
            "persist/atomic/dir_fsync",
            Trigger::Prob(0.3),
            FaultAction::Delay { micros: 200 },
        )
        .rule(
            "ckpt/log/save",
            Trigger::Key(vec![INTERRUPT_GENERATION]),
            FaultAction::Fail,
        );
    schedule
}

/// The serving-phase schedule: the first three fetches observe a torn
/// artifact (tripping the breaker), every publish is stretched by a delay,
/// and the first admin request dies mid-read.
fn serve_schedule(seed: u64) -> FaultSchedule {
    let mut schedule = FaultSchedule::new(seed);
    schedule
        .rule(
            "serve/source/fetch",
            Trigger::Nth(vec![1, 2, 3]),
            FaultAction::Torn,
        )
        .rule(
            "serve/swap/publish",
            Trigger::Every(1),
            FaultAction::Delay { micros: 500 },
        )
        .rule("serve/admin/read", Trigger::Nth(vec![1]), FaultAction::Fail);
    schedule
}

fn reference_probs(file: &FairwosModelFile, ds: &FairGraphDataset) -> Vec<f32> {
    file.restore(&ds.graph, &ds.features)
        .expect("restore succeeds")
        .predict_probs()
}

/// One full scenario for one seed. `reference` is the uninterrupted fit of
/// the same seed (computed once, shared by both runs); `run` tags the
/// scratch paths so the two runs never collide.
fn run_scenario(
    ds: &FairGraphDataset,
    seed: u64,
    run: usize,
    reference: &fairwos_core::TrainedFairwos,
    healthy_file: &FairwosModelFile,
) -> ScenarioOutcome {
    let tag = format!("{}-{seed}-{run}", std::process::id());
    let ckpt_dir = std::env::temp_dir().join(format!("fairwos-chaos-ckpt-{tag}"));
    let artifact = std::env::temp_dir().join(format!("fairwos-chaos-model-{tag}.fwm"));
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    fairwos_obs::reset();
    fairwos_obs::set_journal_capacity(8192);

    // --- Phase 1: train under fault, die mid-run, resume bit-identically.
    fairwos_chaos::arm(train_schedule(seed));
    let trainer = FairwosTrainer::new(soak_config());
    let mut store = FsCheckpointStore::new(ckpt_dir.clone());
    let aborted = trainer.fit_with(&input_of(ds), seed, resumable(&mut store));
    let train_faults: Vec<String> = fairwos_chaos::disarm()
        .iter()
        .map(|f| f.to_string())
        .collect();
    assert!(
        aborted.is_err(),
        "seed {seed}: the injected ckpt/log/save abort must kill the run"
    );
    assert!(
        train_faults.iter().any(|f| f.contains("ckpt/log/save")),
        "seed {seed}: the abort must be in the injection log: {train_faults:?}"
    );
    assert!(
        train_faults.iter().any(|f| f.contains("ckpt/fs/write")),
        "seed {seed}: the healed write failure must be in the log: {train_faults:?}"
    );

    let mut reopened = FsCheckpointStore::new(ckpt_dir.clone());
    let mut resumed = trainer
        .fit_with(&input_of(ds), seed, resumable(&mut reopened))
        .expect("resume from the surviving generations converges");
    assert_eq!(
        reference.predict_probs(),
        resumed.predict_probs(),
        "seed {seed}: resume diverged from the uninterrupted fit"
    );
    assert_eq!(reference.lambda(), resumed.lambda());

    // --- Phase 2: serve the resumed model; hammer it (zero drops).
    let resumed_file = resumed.to_model_file();
    resumed_file.save(&artifact).expect("artifact saves");
    let serve_table = reference_probs(&resumed_file, ds);
    let engine = Arc::new(
        ServeEngine::start(
            ServeData::new(&ds.graph, ds.features.clone()),
            Box::new(FsModelSource::new(&artifact)),
            ServeConfig {
                breaker_threshold: BREAKER_THRESHOLD,
                breaker_cooldown_us: BREAKER_COOLDOWN_US,
                ..ServeConfig::default()
            },
        )
        .expect("healthy initial load"),
    );
    let admin = AdminServer::start(&engine, AdminConfig::default()).expect("admin starts");

    let mut queries_answered = 0u64;
    for i in 0..HAMMER_QUERIES {
        let node = i % engine.num_nodes();
        let pred = engine.query(node).expect("query answered");
        assert_eq!(pred.prob, serve_table[node], "wrong probability served");
        queries_answered += 1;
    }

    // --- Phase 3: reloads under fault; breaker; recovery.
    fairwos_chaos::arm(serve_schedule(seed));

    // The first admin request dies mid-read (400); the next is healthy.
    let (status, _) = http_get(admin.local_addr(), "/healthz", Duration::from_secs(5))
        .expect("admin answers the injected read failure");
    assert_eq!(status, 400, "injected admin read failure must answer 400");
    let (status, body) = http_get(admin.local_addr(), "/healthz", Duration::from_secs(5))
        .expect("healthy admin request");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    for attempt in 1..=BREAKER_THRESHOLD {
        let err = engine
            .reload()
            .expect_err("torn artifact must reject the reload");
        assert!(
            matches!(err, ServeError::Reload(_)),
            "reject {attempt}: expected ServeError::Reload, got {err}"
        );
        assert_eq!(engine.generation(), 0, "old generation must keep serving");
        let pred = engine.query(attempt).expect("query during rejects");
        assert_eq!(pred.prob, serve_table[attempt], "old table must answer");
    }
    assert_eq!(engine.stats().reloads_rejected, BREAKER_THRESHOLD as u64);
    let breaker_opened = matches!(
        engine.reload().expect_err("breaker must short-circuit"),
        ServeError::BreakerOpen { .. }
    );
    assert!(breaker_opened, "breaker must be open after the threshold");
    assert_eq!(
        engine.stats().reloads_rejected,
        BREAKER_THRESHOLD as u64,
        "a short-circuited reload is not a rejection (no fetch happened)"
    );

    // Heal: rewrite the artifact, wait out the cooldown, probe publishes.
    healthy_file.save(&artifact).expect("healthy rewrite");
    std::thread::sleep(Duration::from_micros(3 * BREAKER_COOLDOWN_US));
    assert_eq!(
        engine.reload().expect("half-open probe publishes"),
        1,
        "a rejected reload must not consume a generation number"
    );
    let healthy_table = reference_probs(healthy_file, ds);
    let pred = engine.query(0).expect("query after recovery");
    assert_eq!(pred.generation, 1);
    assert_eq!(pred.prob, healthy_table[0]);

    let serve_faults: Vec<String> = fairwos_chaos::disarm()
        .iter()
        .map(|f| f.to_string())
        .collect();
    assert!(
        serve_faults
            .iter()
            .any(|f| f.contains("serve/swap/publish")),
        "seed {seed}: the publish delay must be in the log: {serve_faults:?}"
    );

    // --- Phase 4: accountability — log == journal == counter.
    let injected_total = (train_faults.len() + serve_faults.len()) as u64;
    let journaled = fairwos_obs::journal_events()
        .iter()
        .filter(|e| {
            matches!(&e.event, fairwos_obs::Event::Alert { code, .. }
                if code == "chaos/injected")
        })
        .count() as u64;
    assert_eq!(
        journaled, injected_total,
        "seed {seed}: every injected fault must be journaled exactly once"
    );
    let counted = fairwos_obs::counter_totals()
        .iter()
        .find(|(label, _)| label == "chaos/injected")
        .map_or(0, |(_, v)| *v);
    assert_eq!(
        counted, injected_total,
        "seed {seed}: the chaos/injected counter must match the log"
    );

    drop(admin);
    let engine = Arc::try_unwrap(engine).unwrap_or_else(|_| panic!("all clones joined"));
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let _ = std::fs::remove_file(&artifact);

    ScenarioOutcome {
        train_faults,
        serve_faults,
        queries_answered,
        breaker_opened,
    }
}

fn main() {
    if !fairwos_chaos::is_enabled() || !fairwos_obs::is_enabled() {
        eprintln!(
            "exp_chaos requires --features chaos (failpoint registry + obs); \
             refusing to run as a no-op"
        );
        std::process::exit(2);
    }

    let args = Args::parse(0.3, 1);
    let ds = FairGraphDataset::generate(&DatasetSpec::nba().scaled(args.scale), 5);
    println!(
        "Chaos soak on {} ({} nodes), seeds {SEEDS:?}",
        ds.spec.name,
        ds.num_nodes()
    );

    // The healthy recovery artifact, shared by every scenario.
    let healthy_file = FairwosTrainer::new(soak_config())
        .fit(&input_of(&ds), 1_000)
        .expect("training converges")
        .to_model_file();

    let mut seed_reports = Vec::with_capacity(SEEDS.len());
    for seed in SEEDS {
        #[expect(clippy::disallowed_methods, reason = "the bench measures wall time")]
        let started = Instant::now();
        let reference = FairwosTrainer::new(soak_config())
            .fit(&input_of(&ds), seed)
            .expect("training converges");

        let first = run_scenario(&ds, seed, 1, &reference, &healthy_file);
        let second = run_scenario(&ds, seed, 2, &reference, &healthy_file);
        let replay_identical =
            first.train_faults == second.train_faults && first.serve_faults == second.serve_faults;
        assert!(
            replay_identical,
            "seed {seed}: replay must reproduce the byte-identical fault \
             sequence\nrun 1: {:?} / {:?}\nrun 2: {:?} / {:?}",
            first.train_faults, first.serve_faults, second.train_faults, second.serve_faults
        );

        let injected_total = (first.train_faults.len() + first.serve_faults.len()) as u64;
        println!(
            "seed {seed}: {injected_total} faults injected, {} queries answered, \
             breaker opened, replay identical ({} ms)",
            first.queries_answered,
            started.elapsed().as_millis()
        );
        seed_reports.push(SeedReport {
            seed,
            train_faults: first.train_faults,
            serve_faults: first.serve_faults,
            injected_total,
            resume_bit_identical: true,
            queries_answered: first.queries_answered,
            breaker_opened: first.breaker_opened,
            replay_identical,
            elapsed_ms: started.elapsed().as_millis(),
        });
    }

    // Different seeds must not share a fault sequence: the `Prob` rule's
    // per-seed ChaCha stream has to show up in the schedule's behavior.
    let sequences: Vec<&Vec<String>> = seed_reports.iter().map(|r| &r.train_faults).collect();
    assert!(
        sequences.windows(2).any(|w| w[0] != w[1]),
        "distinct seeds should produce distinct fault sequences: {sequences:?}"
    );

    let report = ChaosReport {
        schema_version: 1,
        dataset: ds.spec.name.clone(),
        scale: args.scale,
        seeds: seed_reports,
        pass: true,
    };
    args.write_out(&report);
    println!("chaos soak: ok ({} seeds, each replayed)", SEEDS.len());
}
