//! `fairwos-cli` — dataset generation, training, evaluation, and inference
//! from the command line, with JSON files as the interchange format.
//!
//! ```sh
//! fairwos-cli generate --dataset nba --seed 42 --out nba.json
//! fairwos-cli stats    --data nba.json
//! fairwos-cli train    --data nba.json --backbone gcn --alpha 2.0 --out model.json
//! fairwos-cli evaluate --data nba.json --model model.json
//! fairwos-cli predict  --data nba.json --model model.json --out probs.json
//! ```

use fairwos::core::FairwosModelFile;
use fairwos::prelude::*;
use std::collections::BTreeMap;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: fairwos-cli <command> [flags]

commands:
  generate  --dataset <name> [--scale <f>] [--seed <n>] --out <file>
            sample a synthetic benchmark (bail/credit/pokec-z/pokec-n/nba/occupation)
  stats     --data <file>
            print the Table-I row of a dataset file
  train     --data <file> [--backbone gcn|gin|sage] [--alpha <f>] [--k <n>]
            [--encoder-dim <n>] [--seed <n>] [--checkpoint-dir <dir>]
            [--checkpoint-interval <n>] --out <model-file>
            train Fairwos and save the model; with --checkpoint-dir the run
            checkpoints periodically and resumes from a prior interrupted
            run of the same seed/config
  evaluate  --data <file> --model <model-file>
            utility + fairness of a saved model on the dataset's test split
  predict   --data <file> --model <model-file> --out <file>
            write P(y=1) for every node as a JSON array"
    );
    exit(2);
}

fn parse_flags(args: &[String]) -> BTreeMap<String, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            eprintln!("unexpected argument {flag}");
            usage();
        };
        let Some(value) = it.next() else {
            eprintln!("missing value for --{name}");
            usage();
        };
        flags.insert(name.to_string(), value.clone());
    }
    flags
}

fn required<'a>(flags: &'a BTreeMap<String, String>, name: &str) -> &'a str {
    flags.get(name).map(String::as_str).unwrap_or_else(|| {
        eprintln!("missing required flag --{name}");
        usage();
    })
}

fn load_dataset(flags: &BTreeMap<String, String>) -> FairGraphDataset {
    let path = required(flags, "data");
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("reading {path}: {e}");
        exit(1);
    });
    FairGraphDataset::from_json(&json).unwrap_or_else(|e| {
        eprintln!("invalid dataset file {path}: {e}");
        exit(1);
    })
}

fn backbone_of(flags: &BTreeMap<String, String>) -> Backbone {
    match flags.get("backbone").map(String::as_str).unwrap_or("gcn") {
        "gcn" => Backbone::Gcn,
        "gin" => Backbone::Gin,
        "sage" => Backbone::Sage,
        other => {
            eprintln!("unknown backbone {other} (expected gcn, gin, or sage)");
            exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage()
    };
    let flags = parse_flags(rest);
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().expect("--seed takes an integer"))
        .unwrap_or(42);

    match command.as_str() {
        "generate" => {
            let name = required(&flags, "dataset");
            let scale: f64 = flags
                .get("scale")
                .map(|s| s.parse().expect("--scale takes a float"))
                .unwrap_or(1.0);
            let spec = DatasetSpec::by_name(name).unwrap_or_else(|| {
                eprintln!("unknown dataset {name}");
                exit(2);
            });
            let ds = FairGraphDataset::generate(&spec.scaled(scale), seed);
            let out = required(&flags, "out");
            std::fs::write(out, ds.to_json()).expect("write dataset");
            println!("{}", DatasetStats::table_header());
            println!("{}", DatasetStats::of(&ds).table_row());
            println!("wrote {out}");
        }
        "stats" => {
            let ds = load_dataset(&flags);
            println!("{}", DatasetStats::table_header());
            println!("{}", DatasetStats::of(&ds).table_row());
            let (p0, p1) = ds.base_rates();
            println!("base rates P(y=1 | s) = ({p0:.3}, {p1:.3})");
        }
        "train" => {
            let ds = load_dataset(&flags);
            let mut config = FairwosConfig {
                alpha: 2.0,
                finetune_epochs: 40,
                ..FairwosConfig::fast(backbone_of(&flags))
            };
            if let Some(a) = flags.get("alpha") {
                config.alpha = a.parse().expect("--alpha takes a float");
            }
            if let Some(k) = flags.get("k") {
                config.top_k = k.parse().expect("--k takes an integer");
            }
            if let Some(d) = flags.get("encoder-dim") {
                config.encoder_dim = d.parse().expect("--encoder-dim takes an integer");
            }
            if let Some(iv) = flags.get("checkpoint-interval") {
                config.recovery.checkpoint_interval =
                    iv.parse().expect("--checkpoint-interval takes an integer");
            }
            let input = TrainInput {
                graph: &ds.graph,
                features: &ds.features,
                labels: &ds.labels,
                train: &ds.split.train,
                val: &ds.split.val,
            };
            let trainer = FairwosTrainer::new(config);
            let fitted = match flags.get("checkpoint-dir") {
                Some(dir) => {
                    let mut store = FsCheckpointStore::new(dir.as_str());
                    let options = FitOptions {
                        checkpoints: Some(&mut store),
                        ..FitOptions::default()
                    };
                    trainer.fit_with(&input, seed, options)
                }
                None => trainer.fit(&input, seed),
            };
            let mut trained = fitted.unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(1);
            });
            let out = required(&flags, "out");
            trained.to_model_file().save(out).unwrap_or_else(|e| {
                eprintln!("writing model: {e}");
                exit(1);
            });
            println!("trained; λ = {:?}", trained.lambda());
            println!("wrote {out}");
        }
        "evaluate" | "predict" => {
            let ds = load_dataset(&flags);
            let model_path = required(&flags, "model");
            let model = FairwosModelFile::load(model_path).unwrap_or_else(|e| {
                eprintln!("invalid model file: {e}");
                exit(1);
            });
            let restored = model.restore(&ds.graph, &ds.features).unwrap_or_else(|e| {
                eprintln!("model does not fit this dataset: {e}");
                exit(1);
            });
            let probs = restored.predict_probs();
            if command == "predict" {
                let out = required(&flags, "out");
                std::fs::write(out, fairwos_obs::json::to_string(&probs))
                    .expect("write predictions");
                println!("wrote {out} ({} probabilities)", probs.len());
            } else {
                let tp: Vec<f32> = ds.split.test.iter().map(|&v| probs[v]).collect();
                let report = EvalReport::compute(
                    &tp,
                    &ds.labels_of(&ds.split.test),
                    &ds.sensitive_of(&ds.split.test),
                );
                println!(
                    "test ACC {:.2}%  ΔSP {:.2}%  ΔEO {:.2}%  AUC {:.3}  F1 {:.3}",
                    report.accuracy * 100.0,
                    report.delta_sp * 100.0,
                    report.delta_eo * 100.0,
                    report.auc,
                    report.f1
                );
            }
        }
        _ => usage(),
    }
}
