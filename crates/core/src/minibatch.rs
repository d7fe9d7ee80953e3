//! The training driver behind `FairwosTrainer::fit_with`: stages 1–3 of
//! Algorithm 1, one θ-step per batch of a [`Schedule`]. Stages 2 and 3 run
//! through one epoch body, `Fit::run_epoch`; stage 3 only adds the
//! counterfactual term of Eq. 16 to each step and the λ update after it.
//!
//! Without [`FairwosConfig::minibatch`](crate::MinibatchConfig) the schedule
//! is the **identity plan**: every epoch is one batch that is the whole
//! graph, in global ids. It borrows the full [`GraphContext`], the per-fit
//! first-layer aggregate and the global train/label/pseudo-label slices, so
//! full-batch training samples, restricts, gathers and re-aggregates
//! nothing.
//!
//! With a mini-batch config the schedule is a sampled [`BatchPlan`]: each
//! epoch shards the node set into BFS partition blocks (see
//! [`fairwos_graph::sampling`]), samples each block's layered computation
//! subgraph with deterministic per-node fanout, and runs
//! forward/backward/Adam per block over *restrictions* of the full graph's
//! propagation matrices. See `docs/SCALING.md` for the knobs and the full
//! determinism contract; the load-bearing pieces are:
//!
//! * **Exact first-layer aggregates** — the first conv layer's input is
//!   constant within a stage (`X` in stage 1, the frozen `X⁰` after it), so
//!   a batch takes its rows of the once-per-fit whole-graph aggregate
//!   ([`GnnInput::gather`]) instead of aggregating over its sampled edges.
//! * **Unbiased restriction, not renormalization** — local propagation
//!   matrices keep the full matrix's values on the sampled (symmetrized)
//!   edge set, each divided by the edge's inclusion probability (exactly 1
//!   at infinite fanout), so with one block covering every node at
//!   infinite fanout each kernel call is bit-identical to the identity
//!   plan's, and `tests/minibatch_equiv.rs` pins full-batch ≡ mini-batch
//!   bit for bit.
//! * **Dedicated sampler RNG streams** — batch salts and shuffles draw from
//!   their own ChaCha streams, never the main training stream, so enabling
//!   mini-batching does not perturb weight initialization.
//! * **Per-epoch aggregates** — losses/distances are aggregated across
//!   batches weighted by train-node count, with a single contributing batch
//!   reported verbatim (no `(x·k)/k` rounding), so histories, telemetry,
//!   and the divergence watchdog keep their full-batch semantics.
//! * **Mid-epoch cursors** — with
//!   [`MinibatchConfig::checkpoint_batches`](crate::MinibatchConfig) > 0 a
//!   resumable run also checkpoints inside an epoch; the
//!   [`BatchCursor`](crate::checkpoint::BatchCursor) re-enters the epoch at
//!   the exact batch, bit-identically (`tests/checkpoint_faults.rs`).
//!
//! Sampled plans deviate from the identity plan by design: the
//! counterfactual top-K search runs per batch over the sampled frontier (so
//! [`FairwosConfig::cf_refresh_interval`](crate::FairwosConfig) > 1 is
//! ignored and checkpoints carry no `cf` snapshot), validation and eval
//! probabilities come from an extra full-graph forward at each epoch start,
//! and λ updates once per batch rather than once per epoch (identical when
//! one block covers the graph).

use std::borrow::Cow;

use crate::checkpoint::{AdamSnapshot, BatchCursor, CheckpointLog, TrainingCheckpoint};
use crate::counterfactual::{search_topk, CounterfactualSets, SearchSpace};
use crate::encoder::{binarize_at, Encoder};
use crate::lambda::{update_lambda, update_lambda_proportional};
use crate::persist::import_gnn_weights;
use crate::trainer::{
    eval_split_metrics, journal_divergence, CounterDeltas, FinetuneEpochStats, FitState,
    TelemetryEval, TrainedFairwos, TrainingHistory,
};
use crate::{CfStrategy, FairwosConfig, MinibatchConfig, TrainError, TrainInput, WeightMode};
use fairwos_fairness::accuracy;
use fairwos_graph::{AdjacencyCache, Graph, NeighborSampler, SubgraphSample};
use fairwos_nn::loss::{bce_with_logits_masked_ws, sigmoid, weighted_sq_l2_rows};
use fairwos_nn::{
    Adam, Gnn, GnnConfig, GnnInput, GnnOutput, GraphContext, Optimizer, Workspace, Zeroed,
};
use fairwos_obs::{Divergence, EpochRecord, SpanGuard, TelemetrySink, Watchdog};
use fairwos_tensor::{export_rng_state, restore_rng, seeded_rng, FairRng, Matrix, RngState};

/// ChaCha stream id of the stage-2/3 batch scheduler (per-epoch salts and
/// optional shuffles). Distinct from the main training stream (0) and from
/// every per-node sampling stream, so scheduling draws never perturb weight
/// initialization.
const SAMPLER_STREAM: u64 = 0x4657_5342_4154_4348;

/// ChaCha stream id of the stage-1 (encoder) batch scheduler. Stage 1
/// always completes before the first checkpoint, so this stream is never
/// persisted.
const ENCODER_SAMPLER_STREAM: u64 = 0x4657_5345_4e43_5331;

/// The per-run batching schedule: a BFS partition of the node set plus the
/// deterministic neighbor sampler that expands each block into its
/// computation subgraph.
pub struct BatchPlan {
    blocks: Vec<Vec<usize>>,
    sampler: NeighborSampler,
    shuffle: bool,
}

/// One prepared mini-batch: the sampled subgraph, its propagation context
/// (restricted from the full graph's matrices, inverse-inclusion weighted),
/// and the batch's slice of the training split in local ids.
pub(crate) struct PreparedBatch {
    /// The sampled computation subgraph (global↔local remapping).
    pub(crate) sub: SubgraphSample,
    /// Propagation context over the restricted matrices.
    pub(crate) ctx: GraphContext,
    /// Local ids of the block's train nodes, in `input.train` order.
    pub(crate) train_locals: Vec<usize>,
    /// Labels of every subgraph node, indexed by local id.
    pub(crate) labels_local: Vec<f32>,
}

impl BatchPlan {
    /// Partitions `graph` into blocks of at most `batch_nodes` nodes and
    /// pairs them with `sampler`.
    ///
    /// # Panics
    /// If `batch_nodes` is zero (checked by
    /// [`FairwosConfig::validate`](crate::FairwosConfig)).
    pub fn new(graph: &Graph, batch_nodes: usize, sampler: NeighborSampler, shuffle: bool) -> Self {
        Self {
            blocks: fairwos_graph::partition(graph, batch_nodes),
            sampler,
            shuffle,
        }
    }

    /// Number of mini-batches per epoch.
    pub fn num_batches(&self) -> usize {
        self.blocks.len()
    }

    /// Draws the epoch's sampling salt (and, with shuffling enabled, the
    /// batch visit order) from the dedicated scheduler stream.
    pub(crate) fn epoch_begin(&self, rng: &mut FairRng) -> (u64, Vec<usize>) {
        let salt = rng.gen::<u64>();
        let mut order: Vec<usize> = (0..self.blocks.len()).collect();
        if self.shuffle {
            rng.shuffle(&mut order);
        }
        (salt, order)
    }

    /// Samples and prepares every batch of one epoch, in `order`.
    /// Preparation is read-only over the full graph and per-batch
    /// independent, so each batch depends only on the salt and its block;
    /// the training loop consumes the batches in the same fixed order,
    /// keeping gradient accumulation deterministic.
    pub(crate) fn prepare_epoch(
        &self,
        input: &TrainInput<'_>,
        ctx_full: &GraphContext,
        salt: u64,
        order: &[usize],
    ) -> Vec<PreparedBatch> {
        let _obs = fairwos_obs::span("train/minibatch/prepare");
        order
            .iter()
            .map(|&bi| self.prepare_one(input, ctx_full, salt, bi))
            .collect()
    }

    fn prepare_one(
        &self,
        input: &TrainInput<'_>,
        ctx_full: &GraphContext,
        salt: u64,
        bi: usize,
    ) -> PreparedBatch {
        let block = &self.blocks[bi];
        let sub = self.sampler.sample_block(input.graph, salt, block);
        fairwos_obs::counter_add("minibatch/sampled_nodes", sub.num_nodes() as u64);
        // Restrict all four propagation matrices: the batch context must
        // serve whichever normalization the backbone asks for past its first
        // layer (and GAT's first layer). The full matrices are built lazily
        // once per run by the shared cache; restriction divides their values
        // by each sampled edge's inclusion probability.
        let gcn = sub.restrict(ctx_full.gcn_adj());
        let sum = sub.restrict(ctx_full.sum_adj());
        let mean = sub.restrict(ctx_full.mean_adj());
        let mean_t = sub.restrict(ctx_full.mean_adj_t());
        let ctx = GraphContext::from_cache(AdjacencyCache::with_prebuilt(
            sub.local_graph(),
            gcn,
            sum,
            mean,
            mean_t,
        ));
        let labels_local: Vec<f32> = sub.nodes().iter().map(|&v| input.labels[v]).collect();
        let mut train_locals = Vec::new();
        for &v in input.train {
            if block.binary_search(&v).is_ok() {
                #[expect(clippy::expect_used, reason = "block nodes are always in the subgraph")]
                train_locals.push(sub.local_of(v).expect("block node sampled"));
            }
        }
        PreparedBatch {
            sub,
            ctx,
            train_locals,
            labels_local,
        }
    }
}

/// The batch schedule a training stage runs over.
// One value per training stage, so its large variant's size is never
// multiplied (the workspace allows `clippy::large_enum_variant`).
pub(crate) enum Schedule {
    /// The identity plan: every epoch is one batch that is the whole graph,
    /// in global ids — full-batch training.
    Identity,
    /// A sampled plan: each epoch draws its salt (and, with shuffling, its
    /// batch order) from `scheduler`, then takes one step per block.
    Sampled {
        /// The partition and neighbor sampler.
        plan: BatchPlan,
        /// The dedicated scheduler stream.
        scheduler: FairRng,
    },
}

impl Schedule {
    /// A sampled schedule over `graph` whose scheduler is ChaCha stream
    /// `stream` of `seed`.
    fn sampled(
        graph: &Graph,
        mb: &MinibatchConfig,
        fanout: Vec<usize>,
        seed: u64,
        stream: u64,
    ) -> Self {
        let mut scheduler = seeded_rng(seed);
        scheduler.set_stream(stream);
        let plan = BatchPlan::new(
            graph,
            mb.batch_nodes,
            NeighborSampler::new(seed, fanout),
            mb.shuffle,
        );
        Schedule::Sampled { plan, scheduler }
    }

    /// The scheduler state a checkpoint persists (`None` for the identity
    /// plan, which draws nothing).
    fn scheduler_state(&self) -> Option<RngState> {
        match self {
            Schedule::Identity => None,
            Schedule::Sampled { scheduler, .. } => Some(export_rng_state(scheduler)),
        }
    }

    /// Starts an epoch. `resume_at` (a mid-epoch cursor's epoch-start
    /// scheduler state) rewinds the scheduler first, so the salt and order
    /// draws replay exactly.
    pub(crate) fn begin_epoch(
        &mut self,
        input: &TrainInput<'_>,
        ctx_full: &GraphContext,
        resume_at: Option<&RngState>,
    ) -> Epoch {
        match self {
            Schedule::Identity => Epoch::Whole,
            Schedule::Sampled { plan, scheduler } => {
                if let Some(state) = resume_at {
                    *scheduler = restore_rng(state);
                }
                let start = export_rng_state(scheduler);
                let (salt, order) = plan.epoch_begin(scheduler);
                let batches = plan.prepare_epoch(input, ctx_full, salt, &order);
                Epoch::Sampled { start, batches }
            }
        }
    }
}

/// One epoch's batches, in visit order.
pub(crate) enum Epoch {
    /// The identity plan's single batch: the whole graph.
    Whole,
    /// Sampled blocks, with the scheduler state at the epoch start (what a
    /// mid-epoch cursor records).
    Sampled {
        start: RngState,
        batches: Vec<PreparedBatch>,
    },
}

impl Epoch {
    /// Number of batches.
    pub(crate) fn len(&self) -> usize {
        match self {
            Epoch::Whole => 1,
            Epoch::Sampled { batches, .. } => batches.len(),
        }
    }

    /// Whether the epoch's only batch is the whole graph in global ids.
    pub(crate) fn is_whole(&self) -> bool {
        matches!(self, Epoch::Whole)
    }

    /// The batches as the training step sees them.
    pub(crate) fn batches<'a>(
        &'a self,
        input: &'a TrainInput<'_>,
        ctx_full: &'a GraphContext,
    ) -> impl Iterator<Item = Batch<'a>> + 'a {
        (0..self.len()).map(move |i| match self {
            Epoch::Whole => Batch {
                ctx: ctx_full,
                nodes: None,
                train: input.train,
                labels: input.labels,
            },
            Epoch::Sampled { batches, .. } => Batch {
                ctx: &batches[i].ctx,
                nodes: Some(batches[i].sub.nodes()),
                train: &batches[i].train_locals,
                labels: &batches[i].labels_local,
            },
        })
    }
}

/// One batch as a training step sees it.
pub(crate) struct Batch<'a> {
    /// Propagation context over the batch's nodes.
    pub(crate) ctx: &'a GraphContext,
    /// Global id of each local node; `None` when local ids are global ids.
    pub(crate) nodes: Option<&'a [usize]>,
    /// Local ids of the batch's train nodes, in `input.train` order.
    pub(crate) train: &'a [usize],
    /// Labels indexed by local id.
    pub(crate) labels: &'a [f32],
}

impl Batch<'_> {
    /// The batch's rows of the constant first-layer input `full`: `None`
    /// when the batch is the whole graph (use `full` itself), a pooled
    /// gather of its rows and exact aggregate rows otherwise (see
    /// [`GnnInput::gather`]).
    pub(crate) fn gather<'b>(
        &'b self,
        full: &GnnInput<'_>,
        ws: &mut Workspace,
    ) -> Option<GnnInput<'b>> {
        self.nodes.map(|nodes| full.gather(self.ctx, nodes, ws))
    }

    /// `values` indexed by local id: borrowed when local ids are global ids,
    /// gathered otherwise.
    pub(crate) fn local<'v, T: Clone>(&self, values: &'v [T]) -> Cow<'v, [T]> {
        match self.nodes {
            None => Cow::Borrowed(values),
            Some(nodes) => nodes.iter().map(|&v| values[v].clone()).collect(),
        }
    }

    /// Opens the per-batch span and counts the batch. Sampled batches only,
    /// so full-batch traces carry no mini-batch labels.
    pub(crate) fn trace(&self) -> Option<SpanGuard<'static>> {
        self.nodes.map(|_| {
            let guard = fairwos_obs::span("train/minibatch/batch");
            fairwos_obs::counter_add("minibatch/batches", 1);
            guard
        })
    }
}

/// Train-count-weighted mean of per-batch `(value, count)` losses. A single
/// contributing batch is reported verbatim — no `(x·k)/k` f32 rounding —
/// which is what makes the one-block mini-batch epoch bit-identical to a
/// full-batch epoch.
pub(crate) fn weighted_mean(parts: &[(f32, u64)]) -> f32 {
    match parts {
        [] => 0.0,
        [(value, _)] => *value,
        _ => {
            let total: u64 = parts.iter().map(|&(_, c)| c).sum();
            parts.iter().map(|&(v, c)| v * c as f32).sum::<f32>() / total as f32
        }
    }
}

/// [`weighted_mean`] for a value series parallel to the `(value, count)`
/// utility series (fairness losses share the utility batches' weights).
fn weighted_mean_with(values: &[f32], weights: &[(f32, u64)]) -> f32 {
    match values.len() {
        0 => 0.0,
        1 => values[0],
        _ => {
            let total: u64 = weights.iter().map(|&(_, c)| c).sum();
            values
                .iter()
                .zip(weights)
                .map(|(&v, &(_, c))| v * c as f32)
                .sum::<f32>()
                / total as f32
        }
    }
}

/// Componentwise [`weighted_mean_with`] over per-batch attribute-distance
/// vectors.
fn weighted_mean_rows(rows: &[Vec<f32>], weights: &[(f32, u64)]) -> Vec<f32> {
    match rows.len() {
        0 => Vec::new(),
        1 => rows[0].clone(),
        _ => {
            let total: u64 = weights.iter().map(|&(_, c)| c).sum();
            let dim = rows[0].len();
            (0..dim)
                .map(|i| {
                    rows.iter()
                        .zip(weights)
                        .map(|(r, &(_, c))| r[i] * c as f32)
                        .sum::<f32>()
                        / total as f32
                })
                .collect()
        }
    }
}

/// The larger of two gradient norms, NaN if either is. `f32::max` returns
/// the non-NaN operand, which would hide a batch's NaN gradient from the
/// watchdog's per-epoch check.
fn max_or_nan(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else {
        a.max(b)
    }
}

/// `P(y = 1)` of every node under the current θ, from a full-graph training
/// forward.
fn full_graph_probs(gnn: &mut Gnn, input: &GnnInput<'_>, ws: &mut Workspace) -> Vec<f32> {
    let out = gnn.forward_train_ws(input, ws);
    let probs = sigmoid(&out.logits).col(0);
    ws.give(out.logits);
    ws.give(out.embeddings);
    probs
}

/// Accuracy of `probs` on the validation split (`None` without one).
fn val_accuracy(probs: &[f32], input: &TrainInput<'_>) -> Option<f64> {
    (!input.val.is_empty()).then(|| {
        let val_probs: Vec<f32> = input.val.iter().map(|&v| probs[v]).collect();
        let val_labels: Vec<f32> = input.val.iter().map(|&v| input.labels[v]).collect();
        accuracy(&val_probs, &val_labels)
    })
}

/// The training driver behind [`FairwosTrainer::fit_with`](crate::FairwosTrainer::fit_with),
/// called once the input is validated: stage 1, then stages 2 and 3 as
/// [`Fit::run_epoch`] over the schedule the config selects — the identity
/// plan without [`FairwosConfig::minibatch`](crate::MinibatchConfig), a
/// sampled [`BatchPlan`] with it.
///
/// `persist` arms interval, mid-epoch and stage-boundary checkpoints;
/// `resume` fast-forwards to the state a checkpoint captured (stage 1 is
/// rebuilt from stored weights, never re-trained); `lr_scale` multiplies
/// both learning rates (1.0 on the fresh path — exact under IEEE 754, so a
/// run without rollbacks is bit-identical with and without a store).
pub(crate) fn train(
    cfg: &FairwosConfig,
    input: &TrainInput<'_>,
    seed: u64,
    ws: &mut Workspace,
    telemetry: Option<&mut TelemetrySink>,
    eval: Option<TelemetryEval<'_>>,
    persist: Option<&mut CheckpointLog<'_>>,
    mut resume: Option<TrainingCheckpoint>,
    lr_scale: f32,
) -> Result<TrainedFairwos, TrainError> {
    let lr = cfg.learning_rate * lr_scale;
    let ft_lr = cfg.finetune_learning_rate * lr_scale;
    let resumed_any = resume.is_some();
    let mut rng = seeded_rng(seed);
    fairwos_obs::scale_max("train/nodes", input.graph.num_nodes() as u64);
    fairwos_obs::scale_max("train/edges", input.graph.num_edges() as u64);
    let ctx = {
        let _obs = fairwos_obs::span("train/graph_context");
        GraphContext::new(input.graph)
    };
    // The stage-2/3 schedule; a sampled scheduler stream is what
    // checkpoints persist.
    let mut schedule = match &cfg.minibatch {
        None => Schedule::Identity,
        Some(mb) => Schedule::sampled(input.graph, mb, mb.fanout.clone(), seed, SAMPLER_STREAM),
    };
    if let Schedule::Sampled { plan, .. } = &schedule {
        fairwos_obs::scale_max("minibatch/batches_per_epoch", plan.num_batches() as u64);
    }

    // Stage 1: encoder pre-training → pseudo-sensitive attributes X⁰.
    // On resume the (frozen) encoder is rebuilt from stored weights —
    // never re-trained — and X⁰ is re-extracted deterministically.
    let (mut encoder, x0) = if let Some(c) = resume.as_mut() {
        match c.encoder_weights.take() {
            Some(w) => {
                let enc = Encoder::from_weights(input.features.cols(), cfg.encoder_dim, &w)
                    .map_err(TrainError::Persist)?;
                let x0 = enc.extract(&ctx, input.features);
                (Some(enc), x0)
            }
            None => (None, input.features.clone()),
        }
    } else if cfg.use_encoder {
        let _obs = fairwos_obs::span("train/stage1_encoder");
        // The 1-layer GCN encoder samples with the first classifier fanout,
        // on its own scheduler stream.
        let mut enc_schedule = match &cfg.minibatch {
            None => Schedule::Identity,
            Some(mb) => Schedule::sampled(
                input.graph,
                mb,
                vec![mb.fanout[0]],
                seed,
                ENCODER_SAMPLER_STREAM,
            ),
        };
        let (enc, x0) = Encoder::pretrain(
            input,
            &ctx,
            cfg.encoder_dim,
            cfg.encoder_epochs,
            lr,
            &mut rng,
            &mut enc_schedule,
        );
        (Some(enc), x0)
    } else {
        // w/o E: every raw feature is its own pseudo-sensitive attribute.
        (None, input.features.clone())
    };
    let encoder_losses = match resume.as_mut() {
        Some(c) => std::mem::take(&mut c.encoder_losses),
        None => encoder
            .as_mut()
            .map_or_else(Vec::new, |enc| std::mem::take(&mut enc.losses)),
    };
    // Stage 1 has no per-epoch gradient probe, but a non-finite
    // pre-training loss is still a divergence.
    if let Some((epoch, &loss)) = encoder_losses
        .iter()
        .enumerate()
        .find(|(_, l)| !l.is_finite())
    {
        let reason = Divergence::NonFiniteLoss { loss: loss as f64 };
        return Err(journal_divergence(1, epoch, reason).into());
    }

    // Line 2: λ ← 1/I.
    let lambda = match resume.as_mut() {
        Some(c) => std::mem::take(&mut c.lambda),
        None => vec![1.0 / x0.cols() as f32; x0.cols()],
    };

    // Stage 2: classifier pre-training with early stopping on val ACC.
    let gnn_cfg = GnnConfig {
        backbone: cfg.backbone,
        in_dim: x0.cols(),
        hidden_dim: cfg.hidden_dim,
        num_layers: cfg.num_layers,
        out_dim: 1,
    };
    let mut gnn = if resume.is_some() {
        // The weights come from the checkpoint; the real RNG state is
        // restored just below.
        Gnn::new(gnn_cfg, &mut Zeroed)
    } else {
        Gnn::new(gnn_cfg, &mut rng)
    };
    if let Some(c) = resume.as_ref() {
        import_gnn_weights(&mut gnn, &c.gnn_weights, "classifier").map_err(TrainError::Persist)?;
        rng = restore_rng(&c.rng);
        if let (Some(state), Schedule::Sampled { scheduler, .. }) = (&c.sampler_rng, &mut schedule)
        {
            *scheduler = restore_rng(state);
        }
    }
    // X⁰ is frozen: its first-layer aggregate is computed once per fit. The
    // identity plan's batch borrows it every epoch; sampled plans use it
    // for the epoch-start full-graph passes, and each batch takes its rows
    // of it.
    let full_input = gnn.aggregate_input(&ctx, &x0, ws);
    let mut st = FitState {
        seed,
        cfg,
        lr_scale,
        // All weight-init draws have happened by now; every checkpoint of
        // this run carries this exact post-init RNG state.
        rng: export_rng_state(&rng),
        enc_weights: persist
            .is_some()
            .then(|| encoder.as_mut().map(Encoder::export_weights))
            .flatten(),
        encoder_losses,
        gnn,
        opt: Adam::new(lr),
        watchdog: Watchdog::new(cfg.watchdog),
        lambda,
        classifier_losses: Vec::new(),
        best_val: f64::NEG_INFINITY,
        best_params: Vec::new(),
        since_best: 0,
        pseudo_labels: Vec::new(),
        finetune: Vec::new(),
        cf_sets: None,
    };
    let mut stage2_start = 0usize;
    let mut stage3_start = 0usize;
    // A mid-epoch cursor belongs to the first epoch the resumed run enters.
    let mut cursor = None;
    let mut stage3_resume: Option<(AdamSnapshot, Vec<f64>)> = None;
    match resume.take() {
        Some(c) if c.stage == 2 => {
            st.opt.import_state(c.opt.t, c.opt.m, c.opt.v);
            st.classifier_losses = c.classifier_losses;
            st.best_val = c.best_val.unwrap_or(f64::NEG_INFINITY);
            st.best_params = c.best_params;
            st.since_best = c.since_best;
            st.watchdog.restore_window(&c.watchdog_window);
            stage2_start = c.epoch;
            cursor = c.batch_cursor;
        }
        Some(c) => {
            // Stage 3: the checkpointed GNN weights already include the
            // best-params restore, so stage 2 is skipped wholesale. The
            // pseudo-labels are restored verbatim — recomputing them from
            // mid-fine-tune weights would change the counterfactual search.
            st.classifier_losses = c.classifier_losses;
            st.pseudo_labels = c.pseudo_labels;
            st.finetune = c.finetune;
            st.cf_sets =
                c.cf.map(|cf| CounterfactualSets::from_sets(cf.queries, cf.sets));
            stage2_start = cfg.classifier_epochs;
            stage3_start = c.epoch;
            cursor = c.batch_cursor;
            stage3_resume = Some((c.opt, c.watchdog_window));
        }
        None => {}
    }
    let mut fit = Fit {
        input,
        ctx: &ctx,
        full_input: &full_input,
        ws,
        schedule,
        st,
        persist,
        eval: eval.filter(|_| telemetry.is_some()),
        // Counter deltas are only materialized for an armed telemetry sink
        // (the journal snapshots they emit would otherwise bloat the ring).
        telemetry: telemetry.map(|sink| (sink, CounterDeltas::new())),
        cursor,
    };
    if !resumed_any {
        // Stage-1-completion checkpoint: a crash anywhere in stage 2 never
        // repeats encoder pre-training.
        fit.save(2, 0, None)?;
    }

    let obs_stage2 = fairwos_obs::span("train/stage2_classifier");
    for epoch in stage2_start..cfg.classifier_epochs {
        // Early stop re-checked at loop top so a resumed `since_best` exits
        // exactly where the uninterrupted run did. `max(1)` keeps
        // patience-0 semantics: stop only after a non-improving epoch.
        if fit.st.since_best >= cfg.patience.max(1) {
            break;
        }
        fit.run_epoch(epoch, None)?;
    }
    // Stage-3 checkpoints carry no early-stopping state.
    let best_params = std::mem::take(&mut fit.st.best_params);
    if !best_params.is_empty() {
        fit.st.gnn.import_weights(&best_params);
    }
    fit.st.best_val = f64::NEG_INFINITY;
    fit.st.since_best = 0;
    drop(obs_stage2);

    // Pseudo-labels: ground truth on V_L, full-graph classifier prediction
    // elsewhere (the paper pre-trains the classifier precisely to supply
    // these). A stage-3 resume restored them above.
    if stage3_resume.is_none() {
        let probs = sigmoid(&fit.st.gnn.forward_inference(&ctx, &x0).logits).col(0);
        fit.st.pseudo_labels = probs.iter().map(|&p| p >= 0.5).collect();
        for &v in input.train {
            fit.st.pseudo_labels[v] = input.labels[v] >= 0.5;
        }
    }
    // One sort per column, shared by the median split and stage 3's
    // perturbation baseline.
    let medians = x0.col_medians();
    let bits = binarize_at(&x0, &medians);

    // Stage 3: fine-tuning (lines 5–13).
    if cfg.use_fairness && cfg.alpha > 0.0 {
        let _obs = fairwos_obs::span("train/stage3_finetune");
        // Fresh optimizer state for the new objective, at the gentler
        // fine-tuning rate, and a fresh watchdog: stage 3 optimizes a
        // different objective at a different scale, so stage-2 losses are
        // not a valid baseline.
        fit.st.opt = Adam::new(ft_lr);
        fit.st.watchdog = Watchdog::new(cfg.watchdog);
        match stage3_resume.take() {
            Some((snap, window)) => {
                fit.st.opt.import_state(snap.t, snap.m, snap.v);
                fit.st.watchdog.restore_window(&window);
            }
            // Stage 2→3 boundary checkpoint: resuming from here skips both
            // pre-training stages entirely.
            None => fit.save(3, 0, None)?,
        }
        let fairness = Fairness {
            ctx: &ctx,
            x0: &x0,
            bits: &bits,
            medians: &medians,
        };
        for epoch in stage3_start..cfg.finetune_epochs {
            fit.run_epoch(epoch, Some(&fairness))?;
        }
    }

    let Fit { ws, st, .. } = fit;
    let FitState {
        gnn,
        lambda,
        encoder_losses,
        classifier_losses,
        pseudo_labels,
        finetune,
        ..
    } = st;
    full_input.recycle(ws);
    Ok(TrainedFairwos {
        config: cfg.clone(),
        ctx,
        encoder,
        gnn,
        x0,
        lambda,
        pseudo_labels,
        bits,
        history: TrainingHistory {
            encoder_losses,
            classifier_losses,
            finetune,
        },
    })
}

/// One fit past stage 1: what its epochs read, the state they mutate, and
/// its checkpoint and telemetry hooks.
struct Fit<'a, 'w, 'l> {
    input: &'a TrainInput<'a>,
    ctx: &'a GraphContext,
    /// X⁰ with its first-layer aggregate over the whole graph.
    full_input: &'a GnnInput<'a>,
    ws: &'w mut Workspace,
    schedule: Schedule,
    st: FitState<'a>,
    persist: Option<&'a mut CheckpointLog<'l>>,
    /// The sink and the counter totals its last record saw.
    telemetry: Option<(&'a mut TelemetrySink, CounterDeltas)>,
    /// The eval split, kept only with a sink to record its metrics.
    eval: Option<TelemetryEval<'a>>,
    /// A resumed mid-epoch cursor, taken by the next epoch.
    cursor: Option<BatchCursor>,
}

impl Fit<'_, '_, '_> {
    /// Writes a checkpoint that resumes at `epoch` of `stage` (at the
    /// cursor's batch, with a cursor), when persistence is armed.
    fn save(
        &mut self,
        stage: u8,
        epoch: usize,
        cursor: Option<BatchCursor>,
    ) -> Result<(), TrainError> {
        if let Some(log) = self.persist.as_mut() {
            // A cursor replays its epoch from the epoch-start scheduler
            // state; every other checkpoint starts the next epoch.
            let sampler = match &cursor {
                Some(c) => Some(c.epoch_rng),
                None => self.schedule.scheduler_state(),
            };
            let ckpt = self.st.capture_checkpoint(stage, epoch, sampler, cursor);
            log.save(&ckpt).map_err(TrainError::Persist)?;
        }
        Ok(())
    }

    /// One epoch of stage 2 (`fairness` unset) or stage 3: a θ-step per
    /// batch, then the epoch's history entry, telemetry record, watchdog
    /// check and interval checkpoint. Stage 3 adds the counterfactual term
    /// to each step and updates λ after it. A resumed cursor re-enters the
    /// epoch at its batch, with its accumulators.
    fn run_epoch(
        &mut self,
        epoch: usize,
        fairness: Option<&Fairness<'_>>,
    ) -> Result<(), TrainError> {
        let (cfg, input, ctx, full_input) = (self.st.cfg, self.input, self.ctx, self.full_input);
        let (stage, label) = match fairness {
            None => (2, "train/stage2/epoch"),
            Some(_) => (3, "train/stage3/epoch"),
        };
        fairwos_obs::journal_epoch(stage, epoch as u64);
        let _obs = fairwos_obs::span(label);
        let cursor = self.cursor.take();
        let batches = self
            .schedule
            .begin_epoch(input, ctx, cursor.as_ref().map(|c| &c.epoch_rng));
        let eval_due = self.eval.is_some() && epoch.is_multiple_of(cfg.eval_interval);
        // Stage 2 early-stops on validation accuracy.
        let val_acc = |p: &[f32]| (stage == 2).then(|| val_accuracy(p, input)).flatten();
        let want_probs = eval_due || (stage == 2 && !input.val.is_empty());
        // Validation accuracy and eval metrics come from the full-graph
        // logits at θ_e: the step's pre-step logits when the epoch's only
        // batch is the whole graph, an extra epoch-start forward otherwise.
        // A mid-epoch resume skips that forward (θ is already past some
        // steps) and uses the value the cursor carried instead.
        let mut probs = (want_probs && !batches.is_whole() && cursor.is_none())
            .then(|| full_graph_probs(&mut self.st.gnn, full_input, self.ws));
        let mut acc = cursor.unwrap_or_else(|| BatchCursor {
            batch: 0,
            // The identity plan writes no cursor, so its value is unused.
            epoch_rng: match &batches {
                Epoch::Sampled { start, .. } => *start,
                Epoch::Whole => self.st.rng,
            },
            val_acc: probs.as_deref().and_then(val_acc),
            utility: Vec::new(),
            fairness: Vec::new(),
            attr_d: Vec::new(),
            grad_max: 0.0,
        });
        let start_batch = acc.batch;
        let checkpoint_batches = cfg.minibatch.as_ref().map_or(0, |mb| mb.checkpoint_batches);
        for (bi, b) in batches.batches(input, ctx).enumerate() {
            if bi < start_batch || b.train.is_empty() {
                continue;
            }
            let _obs = b.trace();
            let ws = &mut *self.ws;
            let st = &mut self.st;
            st.gnn.zero_grad();
            let local_input = b.gather(full_input, ws);
            let batch_input = local_input.as_ref().unwrap_or(full_input);
            let out = st.gnn.forward_train_ws(batch_input, ws);
            let (loss_u, dlogits) = bce_with_logits_masked_ws(&out.logits, b.labels, b.train, ws);
            let fair = fairness.map(|f| f.counterfactual_term(st, &b, &out, epoch, ws));
            let dh = fair.as_ref().map(|(_, _, dh)| dh);
            st.gnn.backward_ws(batch_input, &dlogits, dh, ws);
            let fair = fair.map(|(d, loss_fair, dh)| {
                ws.give(dh);
                (d, loss_fair)
            });
            ws.give(dlogits);
            acc.grad_max = max_or_nan(acc.grad_max, st.gnn.grad_norm());
            st.opt.step(&mut st.gnn.params_mut());
            if let Some((d, loss_fair)) = fair {
                // Lines 9–12: λ update.
                if cfg.use_weight_update {
                    let _obs = fairwos_obs::span("train/stage3/lambda_update");
                    st.lambda = match cfg.weight_mode {
                        WeightMode::KktClosedForm => update_lambda(&d, cfg.alpha),
                        WeightMode::ProportionalToDistance => update_lambda_proportional(&d),
                    };
                }
                acc.fairness.push(loss_fair);
                acc.attr_d.push(d);
            }
            if want_probs && batches.is_whole() {
                let p = sigmoid(&out.logits).col(0);
                acc.val_acc = val_acc(&p);
                probs = Some(p);
            }
            acc.utility.push((loss_u, b.train.len() as u64));
            ws.give(out.logits);
            ws.give(out.embeddings);
            if let Some(li) = local_input {
                li.recycle(ws);
            }
            if self.persist.is_some()
                && checkpoint_batches > 0
                && (bi + 1) % checkpoint_batches == 0
                && bi + 1 < batches.len()
            {
                acc.batch = bi + 1;
                self.save(stage, epoch, Some(acc.clone()))?;
            }
        }
        let loss_u = weighted_mean(&acc.utility);
        let loss_fair = weighted_mean_with(&acc.fairness, &acc.utility);
        let attr_d = weighted_mean_rows(&acc.attr_d, &acc.utility);
        // Stage 3 checks the λ just produced: the next θ-step uses it.
        let (loss, lambda) = match fairness {
            None => (loss_u, None),
            Some(_) => (loss_u + loss_fair, Some(self.st.lambda.as_slice())),
        };
        if let Some((sink, deltas)) = self.telemetry.as_mut() {
            let eval = self
                .eval
                .filter(|_| eval_due)
                .zip(probs.as_ref())
                .map(|(ev, p)| eval_split_metrics(p, input.labels, &ev));
            let loss_suf = if attr_d.is_empty() {
                0.0
            } else {
                attr_d.iter().map(|&x| x as f64).sum::<f64>() / attr_d.len() as f64
            };
            sink.push(EpochRecord {
                stage,
                epoch: epoch as u64,
                loss_cls: loss_u as f64,
                loss_inv: loss_fair as f64,
                loss_suf,
                lambda: lambda.map_or_else(Vec::new, |l| l.iter().map(|&x| x as f64).collect()),
                grad_norm: acc.grad_max as f64,
                counters: deltas.tick(),
                eval,
            });
        }
        if let Some(reason) = self
            .st
            .watchdog
            .check(loss as f64, acc.grad_max as f64, lambda)
        {
            return Err(journal_divergence(stage, epoch, reason).into());
        }
        let st = &mut self.st;
        if stage == 2 {
            st.classifier_losses.push(loss_u);
            let val_acc = acc.val_acc.unwrap_or(-(loss_u as f64));
            if val_acc > st.best_val {
                st.best_val = val_acc;
                st.best_params = st.gnn.export_weights();
                st.since_best = 0;
            } else {
                st.since_best += 1;
            }
        } else {
            st.finetune.push(FinetuneEpochStats {
                utility_loss: loss_u,
                fairness_loss: loss_fair,
                attr_distances: attr_d,
                lambda: st.lambda.clone(),
            });
        }
        if (epoch + 1).is_multiple_of(cfg.recovery.checkpoint_interval) {
            // Written only after the watchdog passed, so the latest
            // checkpoint always predates any divergent epoch.
            self.save(stage, epoch + 1, None)?;
        }
        Ok(())
    }
}

/// Stage 3's part of a θ-step: the counterfactual term of Eq. 16.
struct Fairness<'a> {
    ctx: &'a GraphContext,
    x0: &'a Matrix,
    /// Median-split pseudo-sensitive bits of every node.
    bits: &'a [Vec<bool>],
    /// Column medians of X⁰, the perturbation ablation's mirror points.
    medians: &'a [f32],
}

impl Fairness<'_> {
    /// Lines 6–8 on one batch, per the configured strategy: the
    /// per-attribute distances `Dᵢ`, the weighted fairness loss, and its
    /// gradient on the embeddings (a pooled buffer).
    fn counterfactual_term(
        &self,
        st: &mut FitState<'_>,
        b: &Batch<'_>,
        out: &GnnOutput,
        epoch: usize,
        ws: &mut Workspace,
    ) -> (Vec<f32>, f32, Matrix) {
        let cfg = st.cfg;
        // Normalize by the mean squared embedding norm so α is scale-free
        // across backbones: GIN's sum aggregation yields embeddings orders
        // of magnitude larger than GCN's, and an unnormalized ‖h−h̄‖²
        // gradient would drown the BCE term.
        let h_scale = {
            let s: f32 = b
                .train
                .iter()
                .map(|&v| out.embeddings.row(v).iter().map(|x| x * x).sum::<f32>())
                .sum();
            (s / b.train.len() as f32).max(1e-6)
        };
        match cfg.counterfactual {
            CfStrategy::SearchReal => {
                // The paper's method: the top-K search over the batch's
                // train nodes from the current embeddings.
                let pl_local = b.local(&st.pseudo_labels);
                let bits_local = b.local(self.bits);
                let space = SearchSpace {
                    embeddings: &out.embeddings,
                    pseudo_labels: &pl_local,
                    pseudo_sensitive: &bits_local,
                    candidates: b.train,
                };
                // Global-id sets are cached across epochs and refreshed
                // every `cf_refresh_interval` epochs, so the pair list is
                // never rebuilt inside a θ-step. A sampled batch's sets
                // speak its local ids: they are searched per batch and
                // never cached.
                let batch_sets;
                let sets = if b.nodes.is_none() {
                    if epoch.is_multiple_of(cfg.cf_refresh_interval) {
                        st.cf_sets = None;
                    }
                    &*st.cf_sets
                        .get_or_insert_with(|| search_topk(&space, b.train, cfg.top_k))
                } else {
                    batch_sets = search_topk(&space, b.train, cfg.top_k);
                    &batch_sets
                };
                // Attribute i's pairs share the weight α·λᵢ/h_scale/|pairs|;
                // one walk over the slot rows sums every attribute's `Dᵢ`,
                // loss and gradient.
                let weights: Vec<Option<f32>> = st
                    .lambda
                    .iter()
                    .enumerate()
                    .map(|(i, &li)| {
                        let pairs = sets.pair_count(i);
                        (li > 0.0 && pairs > 0).then(|| cfg.alpha * li / h_scale / pairs as f32)
                    })
                    .collect();
                let mut dh = ws.take(out.embeddings.rows(), out.embeddings.cols());
                let sums = sets.pair_sums(&out.embeddings, &weights, &mut dh);
                let d = sums
                    .dist
                    .iter()
                    .enumerate()
                    .map(|(i, &sum)| match sets.pair_count(i) {
                        0 => 0.0,
                        pairs => sum / pairs as f32,
                    })
                    .map(|x| x / h_scale)
                    .collect();
                let loss_fair = weights
                    .iter()
                    .zip(&sums.loss)
                    .filter(|(w, _)| w.is_some())
                    .fold(0.0f32, |acc, (_, &loss)| acc + loss);
                (d, loss_fair, dh)
            }
            CfStrategy::PerturbAttribute => {
                // Ablation: NIFTY/GEAR-style perturbation. For each
                // pseudo-sensitive dimension, mirror it around its median,
                // re-encode, and pull each node toward its own perturbed
                // embedding — a potentially non-realistic counterfactual.
                // Identity plan only (`validate()` rejects it under
                // mini-batching), so ids here are global.
                let mut loss_fair = 0.0f32;
                let mut dh = ws.take(out.embeddings.rows(), out.embeddings.cols());
                let self_pairs: Vec<(usize, usize, f32)> = b
                    .train
                    .iter()
                    .map(|&v| (v, v, 1.0 / b.train.len() as f32))
                    .collect();
                let d = (0..self.x0.cols())
                    .map(|i| {
                        let mut x0p = self.x0.clone();
                        let m = self.medians[i];
                        for v in 0..x0p.rows() {
                            let old = x0p.get(v, i);
                            x0p.set(v, i, 2.0 * m - old);
                        }
                        let target = st.gnn.forward_inference(self.ctx, &x0p).embeddings;
                        let (di, _) = weighted_sq_l2_rows(&out.embeddings, &target, &self_pairs);
                        if st.lambda[i] > 0.0 {
                            let w = cfg.alpha * st.lambda[i] / h_scale;
                            let weighted: Vec<(usize, usize, f32)> = self_pairs
                                .iter()
                                .map(|&(a, b, base)| (a, b, base * w))
                                .collect();
                            let (li, dhi) =
                                weighted_sq_l2_rows(&out.embeddings, &target, &weighted);
                            loss_fair += li;
                            dh.add_assign(&dhi);
                        }
                        di / h_scale
                    })
                    .collect();
                (d, loss_fair, dh)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairwos_graph::GraphBuilder;

    fn ring(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n {
            b.add_edge(v, (v + 1) % n);
        }
        b.build()
    }

    #[test]
    fn plan_covers_every_node_in_fixed_order() {
        let g = ring(10);
        let plan = BatchPlan::new(&g, 4, NeighborSampler::new(7, vec![2]), false);
        assert_eq!(plan.num_batches(), 3);
        let mut srng = seeded_rng(7);
        srng.set_stream(SAMPLER_STREAM);
        let (_, order) = plan.epoch_begin(&mut srng);
        assert_eq!(order, vec![0, 1, 2], "unshuffled order must be identity");
        let covered: usize = plan.blocks.iter().map(Vec::len).sum();
        assert_eq!(covered, 10);
    }

    #[test]
    fn shuffled_plans_replay_deterministically() {
        let g = ring(24);
        let plan = BatchPlan::new(&g, 5, NeighborSampler::new(3, vec![2]), true);
        let run = |seed: u64| {
            let mut srng = seeded_rng(seed);
            srng.set_stream(SAMPLER_STREAM);
            (0..4)
                .map(|_| plan.epoch_begin(&mut srng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5), "same seed must replay salts and orders");
        assert_ne!(run(5), run(6), "different seeds must schedule differently");
        for (_, order) in run(5) {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "shuffle must be a permutation");
        }
    }

    #[test]
    fn weighted_aggregates_keep_single_batches_verbatim() {
        assert_eq!(weighted_mean(&[]), 0.0);
        assert_eq!(weighted_mean(&[(0.3333333, 7)]), 0.3333333);
        let two = weighted_mean(&[(1.0, 1), (4.0, 3)]);
        assert!((two - 3.25).abs() < 1e-6);
        assert_eq!(weighted_mean_with(&[0.125], &[(9.0, 5)]), 0.125);
        assert_eq!(
            weighted_mean_rows(&[vec![0.5, 0.25]], &[(0.0, 3)]),
            vec![0.5, 0.25]
        );
        let rows = weighted_mean_rows(&[vec![1.0], vec![3.0]], &[(0.0, 1), (0.0, 3)]);
        assert!((rows[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn gradient_max_propagates_nan() {
        // `f32::max` drops a NaN operand; folding per-batch gradient norms
        // with it would hide a NaN batch from the watchdog.
        let norms = [1.0f32, f32::NAN, 2.0];
        assert_eq!(norms.iter().copied().fold(0.0f32, f32::max), 2.0);
        assert!(norms.iter().copied().fold(0.0, max_or_nan).is_nan());
        assert!(max_or_nan(f32::NAN, 0.0).is_nan());
        assert_eq!(max_or_nan(0.0, 3.5), 3.5);
        assert_eq!(max_or_nan(f32::INFINITY, 1.0), f32::INFINITY);
    }
}
