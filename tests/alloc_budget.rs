//! Exact heap allocations of the training steady state and of the serving
//! queries.
//!
//! This binary's `#[global_allocator]` forwards to `System` and counts, per
//! thread, the calls to `alloc`, `alloc_zeroed` and `realloc` and the bytes
//! they request (`realloc` counts its new size). It sees every allocation:
//! a `Vec`, a `clone()`, a `Matrix` or a `String`, not only the `Matrix`
//! buffers the `tensor/alloc/bytes` telemetry counter reports.
//!
//! **Training.** Each case of [`cases`] is fit twice with the same seed,
//! identical in every knob except `finetune_epochs` (3 and 8). Stages 1–2
//! and the first 3 fine-tuning epochs are bit-identical between the two
//! fits, so the difference of the two counts is exactly what the 5 extra
//! steady-state epochs allocate: the forward and backward passes, the
//! counterfactual search and fairness term, and the λ update. A fit starts
//! no thread, so the counts of the thread that runs it are the fit's whole
//! allocations, and the cases run side by side, one thread each.
//!
//! **Serving.** `ServableModel::query_one` over every node, and 100 calls
//! of `ServableModel::query_batch_into` with a warm pool and a reused
//! output buffer, must allocate nothing.
//!
//! Every row must equal [`EXPECTED`]. The numbers are the same in debug
//! and release builds. A change that allocates more or less on these
//! paths fails the test, which prints the whole new table: a change that
//! means to, pastes it over [`EXPECTED`] and says in the change log which
//! rows moved and why.
//!
//! **Features.** The table is pinned for the default features; `checked`
//! leaves it unchanged. Under `obs` a label key is allocated the first
//! time a span, counter or gauge records under it, every span's journal
//! events own a copy of its label, and the process-global registry and
//! journal grow on whichever thread reaches them first, so
//! the counts change from run to run: under `obs` the test prints the
//! table and compares nothing.

use fairwos::core::FairwosModelFile;
use fairwos::prelude::*;
use fairwos::serve::ServableModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System`, counting the allocating calls of each thread.
struct Counting;

thread_local! {
    // `const` and `Cell<u64>`: no lazy initialisation and no destructor,
    // so the allocator can touch them at any point of a thread's life.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    CALLS.with(|c| c.set(c.get() + 1));
    BYTES.with(|b| b.set(b.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocating calls and requested bytes.
struct Allocs {
    calls: u64,
    bytes: u64,
}

/// `f`'s result and what it allocated on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    let now = || Allocs {
        calls: CALLS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    };
    let before = now();
    let out = f();
    let after = now();
    let used = Allocs {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
    };
    (out, used)
}

/// The pinned table: one `fit <backbone> <layers> <plan> <calls> <bytes>`
/// row per fit pair (the 8-epoch fit minus the 3-epoch fit), and one
/// `serve <query path> <calls> <bytes>` row per serving query path.
const EXPECTED: &str = "\
fit GCN 1 identity 252 139532
fit GCN 1 sampled 8330 2549194
fit GCN 2 identity 277 140652
fit GIN 1 identity 287 140972
fit GIN 1 sampled 8539 2673882
fit GIN 2 identity 337 143532
fit SAGE 1 identity 262 140252
fit SAGE 1 sampled 8314 2542818
fit SAGE 2 identity 277 140812
fit GAT 1 identity 4312 1317252
fit GAT 1 sampled 16739 2911552
fit GAT 2 identity 8377 2494812
serve query_one 0 0
serve query_batch_into 0 0
";

/// A fit pair: backbone, layer count, plan name and mini-batch settings.
type Case = (Backbone, usize, &'static str, Option<MinibatchConfig>);

/// Every backbone with one layer on the identity plan, then on blocks of
/// ≤ 48 seeds with two sampled neighbours per node (resampled every
/// epoch); then with two layers, whose first convolution also
/// backpropagates into its input.
fn cases() -> Vec<Case> {
    [Backbone::Gcn, Backbone::Gin, Backbone::Sage, Backbone::Gat]
        .into_iter()
        .flat_map(|b| {
            [
                (b, 1, "identity", None),
                (b, 1, "sampled", Some(MinibatchConfig::new(48, vec![2]))),
                (b, 2, "identity", None),
            ]
        })
        .collect()
}

fn config(
    backbone: Backbone,
    num_layers: usize,
    finetune_epochs: usize,
    minibatch: Option<MinibatchConfig>,
) -> FairwosConfig {
    FairwosConfig {
        num_layers,
        encoder_epochs: 30,
        classifier_epochs: 40,
        finetune_epochs,
        learning_rate: 0.01,
        patience: 20,
        encoder_dim: 8,
        alpha: 0.5,
        minibatch,
        ..FairwosConfig::paper_default(backbone)
    }
}

/// The row of one fit pair, and the 8-epoch fit.
fn fit_row(ds: &FairGraphDataset, case: Case) -> (String, TrainedFairwos) {
    let (backbone, layers, plan, minibatch) = case;
    let input = TrainInput {
        graph: &ds.graph,
        features: &ds.features,
        labels: &ds.labels,
        train: &ds.split.train,
        val: &ds.split.val,
    };
    let fit = |epochs| {
        allocations(|| {
            FairwosTrainer::new(config(backbone, layers, epochs, minibatch.clone()))
                .fit(&input, 7)
                .expect("training converges")
        })
    };
    let (_, short) = fit(3);
    let (trained, long) = fit(8);
    // Signed: under `obs` another thread can pay for the 8-epoch fit's
    // registry growth.
    let row = format!(
        "fit {backbone} {layers} {plan} {} {}",
        long.calls as i64 - short.calls as i64,
        long.bytes as i64 - short.bytes as i64
    );
    (row, trained)
}

/// The two serving rows, on a model built from `file`.
fn serve_rows(ds: &FairGraphDataset, file: &FairwosModelFile) -> Vec<String> {
    let data = ServeData::new(&ds.graph, ds.features.clone());
    let model = ServableModel::build(file, &data, 0).expect("build succeeds");
    let n = model.num_nodes();
    let (probs, one) = allocations(|| (0..n).map(|v| model.query_one(v).prob).sum::<f32>());
    assert!(probs.is_finite());

    let nodes: Vec<usize> = (0..n).rev().step_by(3).collect();
    let mut ws = Workspace::new();
    let mut out = Vec::new();
    model.query_batch_into(&nodes, &mut ws, &mut out);
    let ((), batch) = allocations(|| {
        for _ in 0..100 {
            out.clear();
            model.query_batch_into(&nodes, &mut ws, &mut out);
        }
    });
    assert_eq!(out.len(), nodes.len());
    vec![
        format!("serve query_one {} {}", one.calls, one.bytes),
        format!("serve query_batch_into {} {}", batch.calls, batch.bytes),
    ]
}

#[test]
fn steady_state_epochs_stay_within_alloc_budget() {
    let ds = FairGraphDataset::generate(&DatasetSpec::nba().scaled(0.4), 5);
    let ds = &ds;
    let (mut rows, mut trained): (Vec<String>, Vec<TrainedFairwos>) = std::thread::scope(|s| {
        let handles: Vec<_> = cases()
            .into_iter()
            .map(|case| s.spawn(move || fit_row(ds, case)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fit thread"))
            .unzip()
    });
    rows.extend(serve_rows(ds, &trained[0].to_model_file()));
    let table: String = rows.iter().map(|r| format!("{r}\n")).collect();
    if fairwos::obs::is_enabled() {
        eprintln!("alloc_budget: not compared under the `obs` feature:\n{table}");
        return;
    }
    assert!(
        table == EXPECTED,
        "the steady state's allocations changed; the new table:\n{table}"
    );
}
