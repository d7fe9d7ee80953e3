//! The GNN of the paper: a GCN / GIN / SAGE / GAT stack with a linear head,
//! trained as the classifier (Eq. 7–9) and as the stage-1 encoder (Eq. 4–6).

use std::borrow::Cow;

use crate::{GatConv, GcnConv, GinConv, GraphContext, Init, Linear, Param, Relu, SageConv};
use fairwos_tensor::{Matrix, Workspace};

/// Which message-passing backbone to use. The paper evaluates both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backbone {
    /// Kipf–Welling graph convolution, `H' = Â·X·W`.
    Gcn,
    /// Graph isomorphism network, `H' = MLP((1+ε)X + A·X)`.
    Gin,
    /// GraphSAGE with the mean aggregator,
    /// `H' = X·W_self + (D^{-1}A·X)·W_neigh`.
    Sage,
    /// Graph attention network (single head),
    /// `H'_i = Σ_j α_ij·W·x_j` with learned attention α.
    Gat,
}

fairwos_obs::json_enum!(ToJson, FromJson for Backbone { Gcn, Gin, Sage, Gat });

impl std::fmt::Display for Backbone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backbone::Gcn => write!(f, "GCN"),
            Backbone::Gin => write!(f, "GIN"),
            Backbone::Sage => write!(f, "SAGE"),
            Backbone::Gat => write!(f, "GAT"),
        }
    }
}

/// Architecture of a [`Gnn`].
#[derive(Clone, Debug)]
pub struct GnnConfig {
    /// Message-passing flavour.
    pub backbone: Backbone,
    /// Input feature dimension.
    pub in_dim: usize,
    /// Hidden (= embedding) dimension. The paper uses 16.
    pub hidden_dim: usize,
    /// Number of conv layers. The paper uses 1.
    pub num_layers: usize,
    /// Head width: 1 for the classifier's sigmoid logit (Eq. 9), 2 for the
    /// encoder's softmax (Eq. 5).
    pub out_dim: usize,
}

impl GnnConfig {
    /// The paper's default classifier backbone: 1 layer, 16 hidden units,
    /// one logit.
    pub fn paper_default(backbone: Backbone, in_dim: usize) -> Self {
        Self {
            backbone,
            in_dim,
            hidden_dim: 16,
            num_layers: 1,
            out_dim: 1,
        }
    }
}

enum Conv {
    Gcn(GcnConv),
    Gin(GinConv),
    Sage(SageConv),
    Gat(GatConv),
}

impl Conv {
    fn forward_ws(&mut self, ctx: &GraphContext, x: &Matrix, ws: &mut Workspace) -> Matrix {
        match self {
            Conv::Gcn(c) => c.forward_ws(ctx, x, ws),
            Conv::Gin(c) => c.forward_ws(ctx, x, ws),
            Conv::Sage(c) => c.forward_ws(ctx, x, ws),
            Conv::Gat(c) => c.forward_ws(ctx, x, ws),
        }
    }

    /// The inference forward followed by the backbone's ReLU: fused per
    /// band for the banded convolutions, applied in place for GAT.
    fn forward_inference_relu(&self, ctx: &GraphContext, x: &Matrix) -> Matrix {
        match self {
            Conv::Gcn(c) => c.forward_inference_relu(ctx, x),
            Conv::Gin(c) => c.forward_inference_relu(ctx, x),
            Conv::Sage(c) => c.forward_inference_relu(ctx, x),
            Conv::Gat(c) => {
                let mut y = c.forward_inference(ctx, x);
                y.map_assign(|v| v.max(0.0));
                y
            }
        }
    }

    /// [`Conv::forward_inference_relu`] of a first layer whose aggregate
    /// `agg` of its input `x` the caller holds: the training forward's
    /// products over the whole of `agg`, then the ReLU. Each element is the
    /// banded form's `f32` program.
    fn forward_agg_inference_relu(&self, ctx: &GraphContext, x: &Matrix, agg: &Matrix) -> Matrix {
        let ws = &mut Workspace::disposable();
        let mut y = match self {
            Conv::Gcn(c) => c.forward_agg_ws(agg, ws),
            Conv::Gin(c) => {
                let mut h = c.fc1.forward_uncached_ws(agg, ws);
                h.map_assign(|v| v.max(0.0));
                c.fc2.forward_uncached_ws(&h, ws)
            }
            Conv::Sage(c) => c.forward_agg_ws(x, agg, ws),
            Conv::Gat(c) => c.forward_inference(ctx, x),
        };
        y.map_assign(|v| v.max(0.0));
        y
    }

    fn backward_ws(&mut self, ctx: &GraphContext, dy: &Matrix, ws: &mut Workspace) -> Matrix {
        match self {
            Conv::Gcn(c) => c.backward_ws(ctx, dy, ws),
            Conv::Gin(c) => c.backward_ws(ctx, dy, ws),
            Conv::Sage(c) => c.backward_ws(ctx, dy, ws),
            Conv::Gat(c) => c.backward_ws(ctx, dy, ws),
        }
    }

    /// The input-only aggregate of `x`; `None` for GAT, whose aggregate is
    /// `x` itself.
    fn aggregate_ws(&self, ctx: &GraphContext, x: &Matrix, ws: &mut Workspace) -> Option<Matrix> {
        match self {
            Conv::Gcn(c) => Some(c.aggregate_ws(ctx, x, ws)),
            Conv::Gin(c) => Some(c.aggregate_ws(ctx, x, ws)),
            Conv::Sage(c) => Some(c.aggregate_ws(ctx, x, ws)),
            Conv::Gat(_) => None,
        }
    }

    /// Forward pass over a constant input, borrowing its aggregate.
    fn forward_const_ws(&mut self, input: &GnnInput<'_>, ws: &mut Workspace) -> Matrix {
        let agg = input.aggregate();
        match self {
            Conv::Gcn(c) => c.forward_agg_ws(agg, ws),
            Conv::Gin(c) => c.forward_agg_ws(agg, ws),
            Conv::Sage(c) => c.forward_agg_ws(&input.x, agg, ws),
            Conv::Gat(c) => c.forward_agg_ws(input.ctx, &input.x, ws),
        }
    }

    /// Parameter gradients only: a constant input has no use for `dX`.
    fn backward_const_ws(&mut self, input: &GnnInput<'_>, dy: &Matrix, ws: &mut Workspace) {
        let agg = input.aggregate();
        match self {
            Conv::Gcn(c) => c.backward_params_ws(agg, dy, ws),
            Conv::Gin(c) => c.backward_params_ws(agg, dy, ws),
            Conv::Sage(c) => c.backward_params_ws(&input.x, agg, dy, ws),
            Conv::Gat(c) => c.backward_params_ws(&input.x, dy, ws),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            Conv::Gcn(c) => c.params_mut(),
            Conv::Gin(c) => c.params_mut(),
            Conv::Sage(c) => c.params_mut(),
            Conv::Gat(c) => c.params_mut(),
        }
    }

    fn zero_grad(&mut self) {
        match self {
            Conv::Gcn(c) => c.zero_grad(),
            Conv::Gin(c) => c.zero_grad(),
            Conv::Sage(c) => c.zero_grad(),
            Conv::Gat(c) => c.zero_grad(),
        }
    }

    /// Frobenius norm of the layer's self-transformation weight `W_a`
    /// (Theorem 2). For GIN the MLP's first layer plays that role.
    fn self_weight_norm(&self) -> f32 {
        match self {
            Conv::Gcn(c) => c.w.value.frobenius_norm(),
            Conv::Gin(c) => c.fc1.w.value.frobenius_norm(),
            Conv::Sage(c) => c.w_self.value.frobenius_norm(),
            Conv::Gat(c) => c.w.value.frobenius_norm(),
        }
    }
}

/// The first conv layer's input `X` with its neighbourhood aggregate — `Â·X`
/// (GCN), `(1+ε)X + A·X` (GIN), `D⁻¹A·X` (SAGE) or `X` itself (GAT).
///
/// Built once per input by [`Gnn::aggregate_input`] and owned by the
/// caller; every training forward and backward pass over the same `X`
/// borrows it. The first layer treats `X` as a constant: it never
/// recomputes the aggregate, caches no copy of it, and computes no `dX`.
/// A batch of its rows comes from [`GnnInput::gather`]. Hand the buffers
/// back with [`GnnInput::recycle`] when done.
pub struct GnnInput<'a> {
    ctx: &'a GraphContext,
    /// Borrowed from the caller, or a pooled gather of another input's rows.
    x: Cow<'a, Matrix>,
    /// `None` for GAT, whose aggregate is `x` itself.
    agg: Option<Matrix>,
}

impl GnnInput<'_> {
    /// The first layer's aggregate: what [`Gnn::embed_aggregated`] takes.
    pub fn aggregate(&self) -> &Matrix {
        self.agg.as_ref().unwrap_or(&self.x)
    }

    /// The input of a batch over `ctx`, whose local node `l` is node
    /// `nodes[l]` of this input: both `X` and the aggregate are this
    /// input's rows, copied into buffers from `ws`.
    ///
    /// The aggregate is not recomputed over `ctx`. `X` is constant, so its
    /// exact aggregate over the whole graph serves every batch (VR-GCN's
    /// observation, Chen et al., ICML'18): a batch's first layer reads what
    /// a whole-graph pass reads, however `ctx` was sampled. GAT has no
    /// input-only aggregate (its first layer attends with trained weights),
    /// so its first layer still attends over `ctx`.
    pub fn gather<'b>(
        &self,
        ctx: &'b GraphContext,
        nodes: &[usize],
        ws: &mut Workspace,
    ) -> GnnInput<'b> {
        GnnInput {
            ctx,
            x: Cow::Owned(gather_rows(&self.x, nodes, ws)),
            agg: self.agg.as_ref().map(|agg| gather_rows(agg, nodes, ws)),
        }
    }

    /// Returns the buffers this input owns to `ws`.
    pub fn recycle(self, ws: &mut Workspace) {
        if let Cow::Owned(x) = self.x {
            ws.give(x);
        }
        if let Some(agg) = self.agg {
            ws.give(agg);
        }
    }
}

/// Copies rows `nodes` of `src` into a pooled matrix (`Workspace::take` +
/// row fill — `Matrix::select_rows` would allocate outside the pool on
/// every batch).
fn gather_rows(src: &Matrix, nodes: &[usize], ws: &mut Workspace) -> Matrix {
    let mut out = ws.take(nodes.len(), src.cols());
    for (l, &v) in nodes.iter().enumerate() {
        out.row_mut(l).copy_from_slice(src.row(v));
    }
    out
}

/// Output of one forward pass.
pub struct GnnOutput {
    /// Node embeddings `h` after the last conv + activation (`N × hidden`).
    pub embeddings: Matrix,
    /// Head logits, `N × out_dim`.
    pub logits: Matrix,
}

/// A GNN node classifier: conv stack with a ReLU after each conv → linear
/// head.
///
/// `backward_ws` accepts an *extra* gradient on the embeddings, which is how
/// the fairness regularizer of Eq. 13 reaches the shared conv weights
/// alongside the utility loss.
pub struct Gnn {
    config: GnnConfig,
    convs: Vec<Conv>,
    relus: Vec<Relu>,
    /// Linear classification head (paper Eq. 9).
    pub head: Linear,
}

impl Gnn {
    /// Builds a model with weights from `init`: fresh seeded draws from a
    /// [`fairwos_tensor::FairRng`], or [`crate::Zeroed`] for a model whose
    /// weights are imported next.
    ///
    /// # Panics
    /// If `num_layers == 0` or any dimension is zero.
    pub fn new(config: GnnConfig, init: &mut impl Init) -> Self {
        assert!(config.num_layers >= 1, "need at least one conv layer");
        assert!(
            config.in_dim >= 1 && config.hidden_dim >= 1 && config.out_dim >= 1,
            "zero-sized layer"
        );
        let mut convs = Vec::with_capacity(config.num_layers);
        let mut relus = Vec::with_capacity(config.num_layers);
        for l in 0..config.num_layers {
            let in_dim = if l == 0 {
                config.in_dim
            } else {
                config.hidden_dim
            };
            convs.push(match config.backbone {
                Backbone::Gcn => Conv::Gcn(GcnConv::new(in_dim, config.hidden_dim, init)),
                Backbone::Gin => Conv::Gin(GinConv::new(in_dim, config.hidden_dim, init)),
                Backbone::Sage => Conv::Sage(SageConv::new(in_dim, config.hidden_dim, init)),
                Backbone::Gat => Conv::Gat(GatConv::new(in_dim, config.hidden_dim, init)),
            });
            relus.push(Relu::new());
        }
        let head = Linear::new(config.hidden_dim, config.out_dim, init);
        Self {
            config,
            convs,
            relus,
            head,
        }
    }

    /// The architecture this model was built with.
    pub fn config(&self) -> &GnnConfig {
        &self.config
    }

    /// The first layer's aggregate of `x` over `ctx`, drawn from `ws`:
    /// compute it once per input and pass it to every
    /// [`Gnn::forward_train_ws`] / [`Gnn::backward_ws`] over that input.
    pub fn aggregate_input<'a>(
        &self,
        ctx: &'a GraphContext,
        x: &'a Matrix,
        ws: &mut Workspace,
    ) -> GnnInput<'a> {
        GnnInput {
            ctx,
            x: Cow::Borrowed(x),
            agg: self.convs[0].aggregate_ws(ctx, x, ws),
        }
    }

    /// Training-mode forward pass: caches what [`Gnn::backward_ws`] needs
    /// and draws every intermediate from `ws`, so a steady-state epoch
    /// allocates nothing. The returned [`GnnOutput`]'s buffers also come
    /// from `ws` — hand them back with [`Workspace::give`] once the epoch is
    /// done with them.
    ///
    /// # Panics
    /// If the model has no conv layer, which [`Gnn::new`] rules out.
    pub fn forward_train_ws(&mut self, input: &GnnInput<'_>, ws: &mut Workspace) -> GnnOutput {
        let _obs = fairwos_obs::span("nn/forward_train");
        let mut h: Option<Matrix> = None;
        for (conv, relu) in self.convs.iter_mut().zip(&mut self.relus) {
            let y = match h.as_ref() {
                Some(prev) => conv.forward_ws(input.ctx, prev, ws),
                None => conv.forward_const_ws(input, ws),
            };
            let a = relu.forward_ws(&y, ws);
            ws.give(y);
            if let Some(old) = h.replace(a) {
                ws.give(old);
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "Gnn::new asserts the layer count is non-zero"
        )]
        let h = h.expect("at least one conv layer");
        let logits = self.head.forward_ws(&h, ws);
        GnnOutput {
            embeddings: h,
            logits,
        }
    }

    /// The embeddings `h` of every node: the conv stack, each conv's ReLU
    /// fused into its inference forward. Computes no head logits.
    pub fn embed(&self, ctx: &GraphContext, x: &Matrix) -> Matrix {
        self.embed_after_first(ctx, self.convs[0].forward_inference_relu(ctx, x))
    }

    /// [`Gnn::embed`] with the first layer's aggregate `agg` of `x` at hand
    /// (as [`GnnInput::aggregate`] returns it: `Â·X` for GCN, `x` itself for
    /// GAT). The first layer reads `agg` instead of aggregating `x` again;
    /// the bits are [`Gnn::embed`]'s.
    pub fn embed_aggregated(&self, ctx: &GraphContext, x: &Matrix, agg: &Matrix) -> Matrix {
        let h = self.convs[0].forward_agg_inference_relu(ctx, x, agg);
        self.embed_after_first(ctx, h)
    }

    /// Runs the conv layers after the first over its output `h`.
    fn embed_after_first(&self, ctx: &GraphContext, mut h: Matrix) -> Matrix {
        for conv in &self.convs[1..] {
            h = conv.forward_inference_relu(ctx, &h);
        }
        h
    }

    /// Inference forward pass: [`Gnn::embed`], then the head. Caches
    /// nothing.
    pub fn forward_inference(&self, ctx: &GraphContext, x: &Matrix) -> GnnOutput {
        let _obs = fairwos_obs::span("nn/forward_inference");
        let h = self.embed(ctx, x);
        let logits = self.head.forward_inference(&h);
        GnnOutput {
            embeddings: h,
            logits,
        }
    }

    /// Backward pass from the logits gradient, optionally adding a direct
    /// gradient on the embeddings (the fairness term of Eq. 15/16), with
    /// every intermediate drawn from (and returned to) `ws`. The first layer
    /// accumulates its parameter gradients only.
    ///
    /// Must follow a [`Gnn::forward_train_ws`] call with the same `input`.
    pub fn backward_ws(
        &mut self,
        input: &GnnInput<'_>,
        dlogits: &Matrix,
        dh_extra: Option<&Matrix>,
        ws: &mut Workspace,
    ) {
        let _obs = fairwos_obs::span("nn/backward");
        let mut dh = self.head.backward_ws(dlogits, ws);
        if let Some(extra) = dh_extra {
            dh.add_assign(extra);
        }
        let layers = self.convs.iter_mut().zip(&mut self.relus);
        for (l, (conv, relu)) in layers.enumerate().rev() {
            let d = relu.backward_ws(&dh, ws);
            if l == 0 {
                conv.backward_const_ws(input, &d, ws);
            } else {
                let next = conv.backward_ws(input.ctx, &d, ws);
                ws.give(std::mem::replace(&mut dh, next));
            }
            ws.give(d);
        }
        ws.give(dh);
    }

    /// All trainable parameters (convs then head), in a stable order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = Vec::new();
        for conv in &mut self.convs {
            p.extend(conv.params_mut());
        }
        p.extend(self.head.params_mut());
        p
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        for conv in &mut self.convs {
            conv.zero_grad();
        }
        self.head.zero_grad();
    }

    /// `Π_k ‖W_a^k‖_F` over the conv layers — the upper bound of Theorem 2
    /// on the embedding difference between a graph and its counterfactual.
    pub fn weight_product_norm(&self) -> f32 {
        self.convs.iter().map(Conv::self_weight_norm).product()
    }

    /// Number of scalar parameters.
    pub fn num_parameters(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }

    /// Global L2 norm of all parameter gradients accumulated since the last
    /// [`Gnn::zero_grad`]. Accumulates in `f64` so the norm of an exploding
    /// gradient saturates to `inf` rather than wrapping through NaN — the
    /// divergence watchdog treats both as an explosion.
    pub fn grad_norm(&mut self) -> f32 {
        let sum_sq: f64 = self
            .params_mut()
            .iter()
            .flat_map(|p| p.grad.as_slice())
            .map(|&g| g as f64 * g as f64)
            .sum();
        sum_sq.sqrt() as f32
    }

    /// Snapshots all weights in the stable [`Gnn::params_mut`] order, for
    /// persistence.
    pub fn export_weights(&mut self) -> Vec<Matrix> {
        self.params_mut().iter().map(|p| p.value.clone()).collect()
    }

    /// Restores weights exported by [`Gnn::export_weights`] from a model
    /// with the same [`GnnConfig`].
    ///
    /// # Panics
    /// If the count or any shape disagrees with this model's parameters.
    pub fn import_weights(&mut self, weights: &[Matrix]) {
        let params = self.params_mut();
        assert_eq!(params.len(), weights.len(), "parameter count mismatch");
        for (p, w) in params.into_iter().zip(weights) {
            assert_eq!(p.value.shape(), w.shape(), "parameter shape mismatch");
            p.value = w.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairwos_graph::GraphBuilder;
    use fairwos_tensor::seeded_rng;

    fn small_ctx() -> GraphContext {
        GraphContext::new(
            &GraphBuilder::new(5)
                .edge(0, 1)
                .edge(1, 2)
                .edge(2, 3)
                .edge(3, 4)
                .build(),
        )
    }

    #[test]
    fn forward_shapes() {
        for backbone in [Backbone::Gcn, Backbone::Gin] {
            let mut rng = seeded_rng(0);
            let ctx = small_ctx();
            let mut gnn = Gnn::new(
                GnnConfig {
                    backbone,
                    in_dim: 3,
                    hidden_dim: 8,
                    num_layers: 2,
                    out_dim: 1,
                },
                &mut rng,
            );
            let x = Matrix::rand_uniform(5, 3, -1.0, 1.0, &mut rng);
            let mut ws = Workspace::disposable();
            let input = gnn.aggregate_input(&ctx, &x, &mut ws);
            let out = gnn.forward_train_ws(&input, &mut ws);
            assert_eq!(out.embeddings.shape(), (5, 8));
            assert_eq!(out.logits.shape(), (5, 1));
        }
    }

    #[test]
    fn gather_rows_copies_the_requested_rows() {
        let src = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut ws = Workspace::new();
        let got = gather_rows(&src, &[2, 0], &mut ws);
        assert_eq!(got.row(0), &[5.0, 6.0]);
        assert_eq!(got.row(1), &[1.0, 2.0]);
        ws.give(got);
    }

    #[test]
    fn gathered_inputs_take_the_whole_graph_aggregate_rows() {
        let ctx = small_ctx();
        let batch_ctx = GraphContext::new(&GraphBuilder::new(2).edge(0, 1).build());
        let nodes = [3, 1];
        for backbone in [Backbone::Gcn, Backbone::Gin, Backbone::Sage, Backbone::Gat] {
            let mut rng = seeded_rng(4);
            let gnn = Gnn::new(GnnConfig::paper_default(backbone, 3), &mut rng);
            let x = Matrix::rand_uniform(5, 3, -1.0, 1.0, &mut rng);
            let mut ws = Workspace::disposable();
            let full = gnn.aggregate_input(&ctx, &x, &mut ws);
            let batch = full.gather(&batch_ctx, &nodes, &mut ws);
            for (l, &v) in nodes.iter().enumerate() {
                assert_eq!(batch.x.row(l), x.row(v), "{backbone}: x row {l}");
                assert_eq!(
                    batch.aggregate().row(l),
                    full.aggregate().row(v),
                    "{backbone}: aggregate row {l}"
                );
            }
            assert!(std::ptr::eq(batch.ctx, &batch_ctx));
        }
    }

    #[test]
    fn inference_matches_train() {
        let mut rng = seeded_rng(1);
        let ctx = small_ctx();
        let mut gnn = Gnn::new(GnnConfig::paper_default(Backbone::Gcn, 4), &mut rng);
        let x = Matrix::rand_uniform(5, 4, -1.0, 1.0, &mut rng);
        let mut ws = Workspace::disposable();
        let input = gnn.aggregate_input(&ctx, &x, &mut ws);
        let train = gnn.forward_train_ws(&input, &mut ws);
        let infer = gnn.forward_inference(&ctx, &x);
        for (a, b) in train.logits.as_slice().iter().zip(infer.logits.as_slice()) {
            assert!(fairwos_tensor::approx_eq(*a, *b, 1e-5));
        }
    }

    #[test]
    fn training_reduces_loss() {
        use crate::loss::bce_with_logits_masked_ws;
        use crate::optim::{Adam, Optimizer};
        let mut rng = seeded_rng(2);
        let ctx = small_ctx();
        let mut gnn = Gnn::new(GnnConfig::paper_default(Backbone::Gcn, 2), &mut rng);
        let x = Matrix::rand_uniform(5, 2, -1.0, 1.0, &mut rng);
        let targets = [1.0, 0.0, 1.0, 0.0, 1.0];
        let mask = [0, 1, 2, 3, 4];
        let mut opt = Adam::new(0.05);
        let mut losses = Vec::new();
        let mut ws = Workspace::disposable();
        let input = gnn.aggregate_input(&ctx, &x, &mut ws);
        for _ in 0..60 {
            gnn.zero_grad();
            let out = gnn.forward_train_ws(&input, &mut ws);
            let (loss, dlogits) = bce_with_logits_masked_ws(&out.logits, &targets, &mask, &mut ws);
            gnn.backward_ws(&input, &dlogits, None, &mut ws);
            opt.step(&mut gnn.params_mut());
            losses.push(loss);
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.8),
            "loss {} -> {} did not drop",
            losses[0],
            losses.last().unwrap()
        );
    }

    #[test]
    fn extra_embedding_gradient_changes_updates() {
        let mut rng = seeded_rng(3);
        let ctx = small_ctx();
        let mut a = Gnn::new(GnnConfig::paper_default(Backbone::Gcn, 2), &mut rng);
        let x = Matrix::rand_uniform(5, 2, -1.0, 1.0, &mut rng);

        // Same model, same forward; backward once without and once with an
        // extra embedding gradient — conv gradients must differ.
        let dlogits = Matrix::zeros(5, 1);
        let mut ws = Workspace::disposable();
        let input = a.aggregate_input(&ctx, &x, &mut ws);
        let _ = a.forward_train_ws(&input, &mut ws);
        a.zero_grad();
        a.backward_ws(&input, &dlogits, None, &mut ws);
        let g_plain = a.params_mut()[0].grad.clone();

        let _ = a.forward_train_ws(&input, &mut ws);
        a.zero_grad();
        let extra = Matrix::ones(5, 16);
        a.backward_ws(&input, &dlogits, Some(&extra), &mut ws);
        let g_extra = a.params_mut()[0].grad.clone();

        assert_eq!(g_plain.sum(), 0.0, "zero dlogits and no extra ⇒ zero grads");
        assert!(
            g_extra.frobenius_norm() > 0.0,
            "extra gradient did not reach conv weights"
        );
    }

    #[test]
    fn weight_product_norm_positive() {
        let mut rng = seeded_rng(4);
        let gnn = Gnn::new(
            GnnConfig {
                backbone: Backbone::Gcn,
                in_dim: 3,
                hidden_dim: 4,
                num_layers: 3,
                out_dim: 1,
            },
            &mut rng,
        );
        assert!(gnn.weight_product_norm() > 0.0);
    }

    #[test]
    fn num_parameters_counts() {
        let mut rng = seeded_rng(5);
        let mut gnn = Gnn::new(GnnConfig::paper_default(Backbone::Gcn, 10), &mut rng);
        // GCN: 10*16 + 16 (conv) + 16*1 + 1 (head) = 193.
        assert_eq!(gnn.num_parameters(), 193);
    }

    #[test]
    #[should_panic(expected = "at least one conv layer")]
    fn zero_layers_rejected() {
        let mut rng = seeded_rng(6);
        let _ = Gnn::new(
            GnnConfig {
                backbone: Backbone::Gcn,
                in_dim: 2,
                hidden_dim: 2,
                num_layers: 0,
                out_dim: 1,
            },
            &mut rng,
        );
    }
}
