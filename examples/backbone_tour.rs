//! Backbone tour: run the same Fairwos pipeline over all four message-
//! passing backbones (GCN, GIN, GraphSAGE, GAT) and compare.
//!
//! The paper evaluates GCN and GIN and notes the framework "is flexible for
//! various backbones" — this example demonstrates that flexibility.
//!
//! ```sh
//! cargo run --release --example backbone_tour
//! ```

use fairwos::prelude::*;

fn main() {
    let ds = FairGraphDataset::generate(&DatasetSpec::bail().scaled(0.02), 11);
    println!(
        "bail @ {} nodes, {} edges\n",
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
    println!(
        "{:<6} | {:>7} | {:>7} | {:>7} | {:>9} | {:>8}",
        "Back.", "ACC%", "ΔSP%", "ΔEO%", "Π‖W_a‖", "seconds"
    );
    for backbone in [Backbone::Gcn, Backbone::Gin, Backbone::Sage, Backbone::Gat] {
        let config = FairwosConfig {
            alpha: 2.0,
            finetune_epochs: 40,
            ..FairwosConfig::fast(backbone)
        };
        #[expect(clippy::disallowed_methods, reason = "the example prints fit times")]
        let start = std::time::Instant::now();
        let trained = FairwosTrainer::new(config)
            .fit(&input, 11)
            .expect("training diverged");
        let secs = start.elapsed().as_secs_f64();
        let probs = trained.predict_probs();
        let tp: Vec<f32> = ds.split.test.iter().map(|&v| probs[v]).collect();
        let report = EvalReport::compute(
            &tp,
            &ds.labels_of(&ds.split.test),
            &ds.sensitive_of(&ds.split.test),
        );
        println!(
            "{:<6} | {:>7.2} | {:>7.2} | {:>7.2} | {:>9.3} | {:>8.2}",
            backbone.to_string(),
            report.accuracy * 100.0,
            report.delta_sp * 100.0,
            report.delta_eo * 100.0,
            trained.weight_product_norm(),
            secs
        );
    }
}
