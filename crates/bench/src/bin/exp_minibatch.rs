//! **Extension** — full-batch vs neighbor-sampled mini-batch training.
//!
//! Runs the same Fairwos schedule on NBA three ways — full-batch,
//! mini-batch with whole neighborhoods (fanout ∞), and mini-batch with
//! sampled neighborhoods (finite fanout) — and reports wall time plus the
//! test-split utility/fairness metrics for each, mean ± std over `--runs`
//! seeds. Before the sweep it re-asserts the equivalence contract in
//! release mode: a single all-covering block at infinite fanout must be
//! *bit-for-bit* the full-batch model (`docs/SCALING.md`).
//!
//! CI runs this with `--out results/minibatch.json`.

use fairwos_bench::{write_pipeline_metrics, Args};
use fairwos_core::{FairwosConfig, FairwosTrainer, MinibatchConfig, TrainInput};
use fairwos_datasets::{DatasetSpec, FairGraphDataset};
use fairwos_fairness::{EvalReport, MeanStd};
use fairwos_nn::Backbone;
use std::time::Instant;

fn schedule() -> FairwosConfig {
    FairwosConfig {
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

/// One training variant aggregated over the seeds.
struct VariantRecord {
    name: String,
    batch_nodes: Option<usize>,
    fanout: Option<Vec<usize>>,
    seconds: MeanStd,
    accuracy: MeanStd,
    f1: MeanStd,
    delta_sp: MeanStd,
    delta_eo: MeanStd,
}

fairwos_obs::json_struct!(ToJson for VariantRecord {
    name, batch_nodes, fanout, seconds, accuracy, f1, delta_sp, delta_eo
});

struct MinibatchReport {
    schema_version: u32,
    dataset: String,
    nodes: usize,
    runs: usize,
    /// `true` iff single-block ∞-fanout reproduced full-batch bit-for-bit.
    bitwise_equivalence: bool,
    variants: Vec<VariantRecord>,
}

fairwos_obs::json_struct!(ToJson for MinibatchReport {
    schema_version, dataset, nodes, runs, bitwise_equivalence, variants
});

fn run_variant(
    name: &str,
    ds: &FairGraphDataset,
    minibatch: Option<MinibatchConfig>,
    args: &Args,
    pipeline: &mut Vec<fairwos_obs::RunMetrics>,
) -> VariantRecord {
    let (mut secs, mut acc, mut f1, mut dsp, mut deo) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in 0..args.runs {
        let seed = args.seed + r as u64;
        let cfg = FairwosConfig {
            minibatch: minibatch.clone(),
            ..schedule()
        };
        fairwos_obs::reset();
        #[expect(clippy::disallowed_methods, reason = "the bench measures wall time")]
        let started = Instant::now();
        let trained = FairwosTrainer::new(cfg)
            .fit(&input_of(ds), seed)
            .expect("training converges");
        secs.push(started.elapsed().as_secs_f64());
        pipeline.push(fairwos_obs::RunMetrics::capture(
            "Fairwos",
            &format!("minibatch/{name}"),
            "GCN",
            seed,
            *secs.last().expect("just pushed"),
        ));
        let probs = trained.predict_probs();
        let test_probs: Vec<f32> = ds.split.test.iter().map(|&v| probs[v]).collect();
        let report = EvalReport::compute(
            &test_probs,
            &ds.labels_of(&ds.split.test),
            &ds.sensitive_of(&ds.split.test),
        );
        acc.push(report.accuracy);
        f1.push(report.f1);
        dsp.push(report.delta_sp);
        deo.push(report.delta_eo);
    }
    let rec = VariantRecord {
        name: name.to_owned(),
        batch_nodes: minibatch.as_ref().map(|m| m.batch_nodes),
        fanout: minibatch.map(|m| m.fanout),
        seconds: MeanStd::of(&secs),
        accuracy: MeanStd::of(&acc),
        f1: MeanStd::of(&f1),
        delta_sp: MeanStd::of(&dsp),
        delta_eo: MeanStd::of(&deo),
    };
    println!(
        "{:<24} | {:>6.2}s ±{:>5.2} | ACC {:>5.1}% | F1 {:>5.1}% | ΔSP {:>5.1}% | ΔEO {:>5.1}%",
        rec.name,
        rec.seconds.mean,
        rec.seconds.std,
        100.0 * rec.accuracy.mean,
        100.0 * rec.f1.mean,
        100.0 * rec.delta_sp.mean,
        100.0 * rec.delta_eo.mean,
    );
    rec
}

fn main() {
    let args = Args::parse(1.0, 3);
    let ds = FairGraphDataset::generate(&DatasetSpec::nba().scaled(args.scale), args.seed);
    let n = ds.num_nodes();
    println!(
        "Mini-batch comparison on {} ({} nodes, {} runs)\n",
        ds.spec.name, n, args.runs
    );

    // Acceptance gate: the degenerate mini-batch schedule (one block that
    // covers the graph, every neighborhood whole) is the same floating
    // point program as full-batch training.
    let full = FairwosTrainer::new(schedule())
        .fit(&input_of(&ds), args.seed)
        .expect("training converges");
    let degenerate = FairwosTrainer::new(FairwosConfig {
        minibatch: Some(MinibatchConfig::new(n + 1, vec![0])),
        ..schedule()
    })
    .fit(&input_of(&ds), args.seed)
    .expect("training converges");
    let bitwise =
        full.predict_probs() == degenerate.predict_probs() && full.lambda() == degenerate.lambda();
    assert!(
        bitwise,
        "single-block ∞-fanout mini-batch must be bit-identical to full-batch"
    );
    println!("bitwise equivalence (1 block, fanout ∞): ok\n");

    let batch = (n / 4).max(1);
    let mut pipeline: Vec<fairwos_obs::RunMetrics> = Vec::new();
    let variants = vec![
        run_variant("full-batch", &ds, None, &args, &mut pipeline),
        run_variant(
            "minibatch fanout=all",
            &ds,
            Some(MinibatchConfig::new(batch, vec![0])),
            &args,
            &mut pipeline,
        ),
        run_variant(
            "minibatch fanout=5",
            &ds,
            Some(MinibatchConfig::new(batch, vec![5])),
            &args,
            &mut pipeline,
        ),
    ];

    args.write_out(&MinibatchReport {
        schema_version: 1,
        dataset: ds.spec.name.clone(),
        nodes: n,
        runs: args.runs,
        bitwise_equivalence: bitwise,
        variants,
    });
    write_pipeline_metrics(&pipeline);
}
