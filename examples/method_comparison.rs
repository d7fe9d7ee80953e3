//! Run every method of the paper's Table II on one dataset and print a
//! mini comparison table — the programmatic version of the benchmark
//! harness, showing how to drive arbitrary `FairMethod`s from user code.
//!
//! ```sh
//! cargo run --release --example method_comparison [-- <dataset> [scale]]
//! # e.g. cargo run --release --example method_comparison -- bail 0.03
//! ```

use fairwos::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "bail".to_string());
    let scale: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(0.03);

    let spec = DatasetSpec::by_name(&name).unwrap_or_else(|| {
        panic!("unknown dataset {name}; try bail/credit/pokec-z/pokec-n/nba/occupation")
    });
    let spec = if name == "nba" {
        spec
    } else {
        spec.scaled(scale)
    };
    let ds = FairGraphDataset::generate(&spec, 2025);
    println!(
        "{name}: {} nodes, {} edges",
        ds.num_nodes(),
        ds.graph.num_edges()
    );

    let input = TrainInput {
        graph: &ds.graph,
        features: &ds.features,
        labels: &ds.labels,
        train: &ds.split.train,
        val: &ds.split.val,
    };

    // The related/candidate features RemoveR and FairRF assume as domain
    // knowledge: the dataset's documented proxy columns.
    let proxies: Vec<usize> = (0..ds.spec.corr_features).collect();
    let methods: Vec<Box<dyn FairMethod>> = vec![
        Box::new(Vanilla::new(Backbone::Gcn)),
        Box::new(RemoveR::new(Backbone::Gcn, proxies.clone())),
        Box::new(KSmote::new(Backbone::Gcn)),
        Box::new(FairRF::new(Backbone::Gcn, proxies)),
        Box::new(FairGkd::new(Backbone::Gcn)),
        Box::new(FairwosTrainer::new(FairwosConfig {
            alpha: 2.0,
            finetune_epochs: 40,
            ..FairwosConfig::fast(Backbone::Gcn)
        })),
    ];

    println!(
        "{:<12} | {:>7} | {:>7} | {:>7} | {:>8}",
        "Method", "ACC%", "ΔSP%", "ΔEO%", "seconds"
    );
    for method in &methods {
        #[expect(clippy::disallowed_methods, reason = "the example prints fit times")]
        let start = std::time::Instant::now();
        let probs = method.fit_predict(&input, 2025);
        let secs = start.elapsed().as_secs_f64();
        let tp: Vec<f32> = ds.split.test.iter().map(|&v| probs[v]).collect();
        let report = EvalReport::compute(
            &tp,
            &ds.labels_of(&ds.split.test),
            &ds.sensitive_of(&ds.split.test),
        );
        println!(
            "{:<12} | {:>7.2} | {:>7.2} | {:>7.2} | {:>8.2}",
            method.name(),
            report.accuracy * 100.0,
            report.delta_sp * 100.0,
            report.delta_eo * 100.0,
            secs
        );
    }
}
