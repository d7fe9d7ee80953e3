//! **Extension** — serving throughput/latency through `fairwos-serve`.
//!
//! Trains one quick Fairwos model, seals it to disk, and serves it the way
//! a deployment would (`docs/SERVING.md`): precomputed probability table,
//! coalescing queue, fixed worker pool. Three phases are measured:
//!
//! 1. **Cached single-node queries** — a pipelined window of
//!    `query_async` tickets; gated at ≥ `SERVE_MIN_QPS` queries/sec
//!    (default 100 000 — override the env var, `0` disables the gate).
//! 2. **Batched queries** — `query_batch_into` with caller-reused buffers,
//!    the allocation-free direct path.
//! 3. **Hot reload under load** — a client hammers queries while the model
//!    artifact is atomically rewritten and reloaded; zero dropped queries.
//!
//! An [`AdminServer`] rides alongside for the whole run, scraped at 10 Hz
//! (`/metrics` + `/readyz`) by a background client, so the throughput gate
//! prices in the cost of live telemetry (`docs/OBSERVABILITY.md`).
//!
//! CI runs this with `--out results/serving.json`.

use fairwos_bench::Args;
use fairwos_core::{FairwosConfig, FairwosTrainer, TrainInput};
use fairwos_datasets::{DatasetSpec, FairGraphDataset};
use fairwos_nn::Backbone;
use fairwos_serve::{
    http_get, AdminConfig, AdminServer, FsModelSource, Prediction, ServeConfig, ServeData,
    ServeEngine,
};
use fairwos_tensor::Workspace;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tickets kept in flight during the single-node throughput phase.
const PIPELINE_WINDOW: usize = 512;

/// Scrape cadence for the background admin client (10 Hz).
const SCRAPE_INTERVAL: Duration = Duration::from_millis(100);

/// Per-request timeout for the background admin client.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

struct ServingReport {
    schema_version: u32,
    dataset: String,
    nodes: usize,
    workers: usize,
    /// Single-node queries answered per second (pipelined `query_async`).
    single_qps: f64,
    /// Predictions per second through the direct batched path.
    batch_qps: f64,
    /// p50 queue-to-response latency in µs (0 without `--features obs`).
    p50_latency_us: f64,
    /// p99 queue-to-response latency in µs (0 without `--features obs`).
    p99_latency_us: f64,
    /// Hot reloads performed while a client hammered queries.
    reloads: u64,
    /// Queries answered concurrently with those reloads (all verified).
    queries_during_reloads: u64,
    /// `/metrics` + `/readyz` scrapes completed by the 10 Hz admin client
    /// running concurrently with every measured phase.
    admin_scrapes: u64,
    /// Scrapes that failed or returned a non-200 status (must be 0).
    scrape_failures: u64,
    /// Throughput gate: `single_qps >= min_qps` (or the gate was disabled).
    min_qps: f64,
    pass: bool,
}

fairwos_obs::json_struct!(ToJson for ServingReport {
    schema_version, dataset, nodes, workers, single_qps, batch_qps, p50_latency_us, p99_latency_us,
    reloads, queries_during_reloads, admin_scrapes, scrape_failures, min_qps, pass
});

fn train_model(ds: &FairGraphDataset, seed: u64) -> fairwos_core::FairwosModelFile {
    let cfg = FairwosConfig {
        encoder_epochs: 40,
        classifier_epochs: 60,
        finetune_epochs: 5,
        ..FairwosConfig::fast(Backbone::Gcn)
    };
    let input = TrainInput {
        graph: &ds.graph,
        features: &ds.features,
        labels: &ds.labels,
        train: &ds.split.train,
        val: &ds.split.val,
    };
    FairwosTrainer::new(cfg)
        .fit(&input, seed)
        .expect("training converges")
        .to_model_file()
}

/// Pipelined single-node phase: keep a window of async tickets in flight so
/// the throughput measures the engine, not one caller's round-trip latency.
fn measure_single_qps(engine: &ServeEngine, total: usize) -> f64 {
    let nodes = engine.num_nodes();
    let mut window: Vec<_> = Vec::with_capacity(PIPELINE_WINDOW);
    #[expect(clippy::disallowed_methods, reason = "the bench measures wall time")]
    let started = Instant::now();
    let mut issued = 0usize;
    let mut answered = 0usize;
    while answered < total {
        while issued < total && window.len() < PIPELINE_WINDOW {
            window.push(engine.query_async(issued % nodes).expect("enqueue"));
            issued += 1;
        }
        for ticket in window.drain(..) {
            let pred = ticket.wait().expect("answered");
            assert_eq!(pred.label, pred.prob >= 0.5);
            answered += 1;
        }
    }
    total as f64 / started.elapsed().as_secs_f64()
}

/// Direct batched phase through caller-reused buffers.
fn measure_batch_qps(engine: &ServeEngine, rounds: usize, batch: usize) -> f64 {
    let nodes = engine.num_nodes();
    let query: Vec<usize> = (0..batch).map(|i| i % nodes).collect();
    let mut ws = Workspace::new();
    let mut out: Vec<Prediction> = Vec::with_capacity(batch);
    #[expect(clippy::disallowed_methods, reason = "the bench measures wall time")]
    let started = Instant::now();
    for _ in 0..rounds {
        out.clear();
        engine
            .query_batch_into(&query, &mut ws, &mut out)
            .expect("batch answered");
    }
    (rounds * batch) as f64 / started.elapsed().as_secs_f64()
}

fn main() {
    let args = Args::parse(0.5, 1);
    let ds = FairGraphDataset::generate(&DatasetSpec::nba().scaled(args.scale), args.seed);
    println!(
        "Serving benchmark on {} ({} nodes)",
        ds.spec.name,
        ds.num_nodes()
    );

    let model_a = train_model(&ds, args.seed);
    let model_b = train_model(&ds, args.seed + 1);
    let path = std::env::temp_dir().join(format!("fairwos-exp-serving-{}.fwm", std::process::id()));
    model_a.save(&path).expect("model saves");

    let config = ServeConfig {
        workers: 4,
        queue_capacity: 4096,
        max_batch: 256,
        ..ServeConfig::default()
    };
    let engine = Arc::new(
        ServeEngine::start(
            ServeData::new(&ds.graph, ds.features.clone()),
            Box::new(FsModelSource::new(&path)),
            config,
        )
        .expect("initial load"),
    );

    // Live telemetry plane: scrape /metrics and /readyz at 10 Hz for the
    // whole run, so every measured number includes the admin-plane cost.
    let admin = AdminServer::start(&engine, AdminConfig::default()).expect("admin starts");
    let admin_addr = admin.local_addr();
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scrape_failures = Arc::new(AtomicU64::new(0));
    let scraper = {
        let stop = Arc::clone(&scrape_stop);
        let failures = Arc::clone(&scrape_failures);
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for path in ["/metrics", "/readyz"] {
                    match http_get(admin_addr, path, SCRAPE_TIMEOUT) {
                        Ok((200, _)) => scrapes += 1,
                        Ok(_) | Err(_) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                std::thread::sleep(SCRAPE_INTERVAL);
            }
            scrapes
        })
    };

    // Phase 1: cached single-node throughput (with a short warmup).
    measure_single_qps(&engine, 20_000);
    let single_qps = measure_single_qps(&engine, 200_000);
    println!(
        "single-node: {:>10.0} queries/sec (pipelined x{PIPELINE_WINDOW})",
        single_qps
    );

    // Phase 2: batched throughput.
    let batch_qps = measure_batch_qps(&engine, 2_000, 256);
    println!(
        "batched:     {:>10.0} predictions/sec (batch 256)",
        batch_qps
    );

    // Phase 3: hot reload under load.
    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let nodes = engine.num_nodes();
            let mut answered = 0u64;
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let pred = engine.query(i % nodes).expect("query during reload");
                assert_eq!(pred.label, pred.prob >= 0.5);
                answered += 1;
                i += 1;
            }
            answered
        })
    };
    let mut reloads = 0u64;
    for r in 0..10u64 {
        let next = if r % 2 == 0 { &model_b } else { &model_a };
        next.save(&path).expect("artifact rewrite");
        let generation = engine.reload().expect("hot reload");
        assert_eq!(generation, r + 1);
        reloads += 1;
    }
    stop.store(true, Ordering::Relaxed);
    let queries_during_reloads = hammer.join().expect("hammer thread finishes");
    println!(
        "hot reload:  {reloads} reloads with {queries_during_reloads} concurrent queries, zero drops"
    );

    scrape_stop.store(true, Ordering::Relaxed);
    let admin_scrapes = scraper.join().expect("scraper thread finishes");
    let scrape_failures = scrape_failures.load(Ordering::Relaxed);
    drop(admin);
    println!("admin plane: {admin_scrapes} scrapes at 10 Hz, {scrape_failures} failures");
    assert_eq!(
        scrape_failures, 0,
        "admin scrapes must all succeed under load"
    );

    let stats = engine.stats();
    let p50_latency_us = stats.p50_latency_ns as f64 / 1_000.0;
    let p99_latency_us = stats.p99_latency_ns as f64 / 1_000.0;
    if stats.latency_samples > 0 {
        println!("latency:     p50 ≤ {p50_latency_us:.1}µs, p99 ≤ {p99_latency_us:.1}µs");
    }

    let min_qps: f64 = std::env::var("SERVE_MIN_QPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000.0);
    let pass = min_qps <= 0.0 || single_qps >= min_qps;

    args.write_out(&ServingReport {
        schema_version: 2,
        dataset: ds.spec.name.clone(),
        nodes: ds.num_nodes(),
        workers: 4,
        single_qps,
        batch_qps,
        p50_latency_us,
        p99_latency_us,
        reloads,
        queries_during_reloads,
        admin_scrapes,
        scrape_failures,
        min_qps,
        pass,
    });

    let engine = Arc::try_unwrap(engine).unwrap_or_else(|_| panic!("all clones joined"));
    engine.shutdown();
    let _ = std::fs::remove_file(&path);
    assert!(
        pass,
        "serving throughput gate failed: {single_qps:.0} qps < {min_qps:.0} qps \
         (set SERVE_MIN_QPS to override, 0 to disable)"
    );
    println!("serving gate: ok ({single_qps:.0} qps >= {min_qps:.0} qps)");
}
