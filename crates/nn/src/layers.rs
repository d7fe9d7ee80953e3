//! Trainable layers: dense, GCN convolution, GIN convolution.
//!
//! Each layer caches in `forward_ws` exactly what its hand-derived backward
//! pass needs, and `backward_ws` *accumulates* parameter gradients (so
//! utility and fairness losses can both contribute before an optimizer
//! step) and returns the gradient w.r.t. the layer input. Both draw every
//! buffer they return from the caller's [`Workspace`].
//!
//! The graph convolutions also expose that pair split at the constant-input
//! seam, for a first layer whose input never changes during a fit:
//! `aggregate_ws` computes the input-only neighbourhood aggregate once,
//! `forward_agg_ws` runs the weight-dependent rest of the forward pass from
//! a borrowed aggregate, and `backward_params_ws` accumulates parameter
//! gradients from it without computing the (unused) input gradient.
//! `forward_ws`/`backward_ws` are these pieces composed over a cached
//! aggregate, so both paths produce the same bits.
//!
//! Their inference forward passes (`forward_inference` and
//! `forward_inference_relu`) are banded instead
//! ([`fairwos_tensor::fill_row_bands`]): each band of output rows is
//! aggregated into a band-sized scratch, transformed with `matmul_into` and
//! biased before the next band starts, so no whole-graph aggregate is
//! built. Every output element is the same `f32` program as the whole-matrix
//! composition (aggregate, then `matmul`, then `add_row_broadcast`, then the
//! optional ReLU), so the bits are unchanged.

use crate::{GraphContext, Init, Param, Relu};
use fairwos_tensor::{fill_row_bands, Matrix, Workspace};

/// Refreshes a layer's cached activation from `src` without allocating when
/// a same-shape cache from the previous step can be overwritten in place.
pub(crate) fn assign_cache(slot: &mut Option<Matrix>, src: &Matrix) {
    match slot {
        Some(old) if old.shape() == src.shape() => {
            old.as_mut_slice().copy_from_slice(src.as_slice());
        }
        _ => *slot = Some(src.clone()),
    }
}

/// Accumulates a bias gradient: `db += column sums of dY`.
pub(crate) fn add_bias_grad(b: &mut Param, dy: &Matrix) {
    let db = dy.col_sums();
    for (g, d) in b.grad.row_mut(0).iter_mut().zip(db) {
        *g += d;
    }
}

/// Adds `bias` to every row of the band `y`, then applies a ReLU when
/// `relu`: the band's share of `add_row_broadcast` and `map(max(0))`,
/// element by element.
pub(crate) fn add_bias_band(y: &mut [f32], bias: &[f32], relu: bool) {
    for row in y.chunks_exact_mut(bias.len()) {
        for (a, &b) in row.iter_mut().zip(bias) {
            *a += b;
            if relu {
                *a = a.max(0.0);
            }
        }
    }
}

/// Fully connected layer `Y = X·W + b`.
///
/// Backward (given `dY`):
/// `dW = Xᵀ·dY`, `db = column sums of dY`, `dX = dY·Wᵀ`.
pub struct Linear {
    /// Weight, `in_dim × out_dim`.
    pub w: Param,
    /// Bias, `1 × out_dim`.
    pub b: Param,
    cached_input: Option<Matrix>,
}

impl Linear {
    /// Glorot-initialized dense layer.
    pub fn new(in_dim: usize, out_dim: usize, init: &mut impl Init) -> Self {
        Self {
            w: Param::new(init.glorot(in_dim, out_dim)),
            b: Param::new(Matrix::zeros(1, out_dim)),
            cached_input: None,
        }
    }

    /// He-initialized dense layer (for ReLU MLPs, i.e. GIN).
    pub fn new_he(in_dim: usize, out_dim: usize, init: &mut impl Init) -> Self {
        Self {
            w: Param::new(init.he(in_dim, out_dim)),
            b: Param::new(Matrix::zeros(1, out_dim)),
            cached_input: None,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.value.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.value.cols()
    }

    /// `X·W + b` with the output drawn from `ws`, caching `X` for backward.
    pub fn forward_ws(&mut self, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let y = self.forward_uncached_ws(x, ws);
        assign_cache(&mut self.cached_input, x);
        y
    }

    /// `X·W + b` without caching `X`: the caller keeps `X` and hands it to
    /// [`Linear::backward_params_ws`].
    pub(crate) fn forward_uncached_ws(&self, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let mut y = ws.take(x.rows(), self.w.value.cols());
        x.matmul_into(&self.w.value, &mut y);
        y.add_row_broadcast(self.b.value.row(0));
        y
    }

    /// Forward without caching — inference-only path.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w.value);
        y.add_row_broadcast(self.b.value.row(0));
        y
    }

    /// Accumulates `dW`, `db`; returns `dX`, drawn from `ws` like the
    /// weight-gradient temporary.
    ///
    /// # Panics
    /// If called before a forward pass.
    pub fn backward_ws(&mut self, dy: &Matrix, ws: &mut Workspace) -> Matrix {
        #[expect(
            clippy::expect_used,
            reason = "call-order contract documented under # Panics"
        )]
        let x = self
            .cached_input
            .take()
            .expect("Linear::backward before forward");
        self.backward_params_ws(&x, dy, ws);
        self.cached_input = Some(x);
        self.input_grad_ws(dy, ws)
    }

    /// Accumulates `dW = Xᵀ·dY` and `db` for the forward input `x`; computes
    /// no `dX`.
    pub(crate) fn backward_params_ws(&mut self, x: &Matrix, dy: &Matrix, ws: &mut Workspace) {
        let mut dw = ws.take(x.cols(), dy.cols());
        x.matmul_tn_into(dy, &mut dw);
        self.w.grad.add_assign(&dw);
        ws.give(dw);
        add_bias_grad(&mut self.b, dy);
    }

    /// `dX = dY·Wᵀ`.
    fn input_grad_ws(&self, dy: &Matrix, ws: &mut Workspace) -> Matrix {
        let mut dx = ws.take(dy.rows(), self.w.value.rows());
        dy.matmul_nt_into(&self.w.value, &mut dx);
        dx
    }

    /// The layer's parameters, for optimizers.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    /// Clears cached activations and gradients.
    pub fn zero_grad(&mut self) {
        self.w.zero_grad();
        self.b.zero_grad();
    }
}

/// Graph convolution (Kipf & Welling): `H' = Â·X·W + b`.
///
/// This matches the paper's Eq. 7–8 with GCN's mean-style AGGREGATE and
/// additive COMBINE folded into one propagation. Activation is applied by a
/// separate [`Relu`] layer so the final conv can stay linear.
///
/// Backward (given `dH'`, using `Âᵀ = Â`):
/// `dW = (Â·X)ᵀ·dH'`, `db = col sums`, `dX = Â·(dH'·Wᵀ)`.
pub struct GcnConv {
    /// Weight, `in_dim × out_dim`. (The `W_a` of Theorem 2.)
    pub w: Param,
    /// Bias, `1 × out_dim`.
    pub b: Param,
    cached_ax: Option<Matrix>,
}

impl GcnConv {
    /// Glorot-initialized GCN convolution.
    pub fn new(in_dim: usize, out_dim: usize, init: &mut impl Init) -> Self {
        Self {
            w: Param::new(init.glorot(in_dim, out_dim)),
            b: Param::new(Matrix::zeros(1, out_dim)),
            cached_ax: None,
        }
    }

    /// `Â·X·W + b` with all buffers drawn from `ws`, caching `Â·X`. The
    /// cache keeps its pooled buffer; the previous cache is recycled.
    pub fn forward_ws(&mut self, ctx: &GraphContext, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let ax = self.aggregate_ws(ctx, x, ws);
        let y = self.forward_agg_ws(&ax, ws);
        if let Some(old) = self.cached_ax.replace(ax) {
            ws.give(old);
        }
        y
    }

    /// The input-only half of the forward pass: `Â·X`.
    pub fn aggregate_ws(&self, ctx: &GraphContext, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let mut ax = ws.take(x.rows(), x.cols());
        ctx.gcn_adj().spmm_into(x, &mut ax);
        ax
    }

    /// `(Â·X)·W + b` from an aggregate the caller owns; caches nothing.
    pub fn forward_agg_ws(&self, ax: &Matrix, ws: &mut Workspace) -> Matrix {
        let mut y = ws.take(ax.rows(), self.w.value.cols());
        ax.matmul_into(&self.w.value, &mut y);
        y.add_row_broadcast(self.b.value.row(0));
        y
    }

    /// Inference-only forward, banded (see the module docs).
    pub fn forward_inference(&self, ctx: &GraphContext, x: &Matrix) -> Matrix {
        self.infer(ctx, x, false)
    }

    /// [`GcnConv::forward_inference`] followed by a ReLU, fused per band.
    pub fn forward_inference_relu(&self, ctx: &GraphContext, x: &Matrix) -> Matrix {
        self.infer(ctx, x, true)
    }

    /// `Â·X·W + b` (through a ReLU when `relu`), one band of rows at a time.
    fn infer(&self, ctx: &GraphContext, x: &Matrix, relu: bool) -> Matrix {
        let adj = ctx.gcn_adj();
        let (f, o) = (x.cols(), self.w.value.cols());
        let mut ws = Workspace::disposable();
        let mut y = ws.take(x.rows(), o);
        fill_row_bands(
            &mut y,
            |rows| {
                let mut ws = Workspace::disposable();
                (ws.take(rows, f), ws.take(rows, o))
            },
            |rows, (ax, t), out| {
                adj.spmm_rows_into(rows, x, ax);
                ax.matmul_into(&self.w.value, t);
                out.copy_from_slice(t.as_slice());
                add_bias_band(out, self.b.value.row(0), relu);
            },
        );
        y
    }

    /// Accumulates gradients; returns `dX`. All buffers come from `ws`.
    ///
    /// # Panics
    /// If called before a forward pass.
    pub fn backward_ws(&mut self, ctx: &GraphContext, dy: &Matrix, ws: &mut Workspace) -> Matrix {
        #[expect(
            clippy::expect_used,
            reason = "call-order contract documented under # Panics"
        )]
        let ax = self
            .cached_ax
            .take()
            .expect("GcnConv::backward before forward");
        self.backward_params_ws(&ax, dy, ws);
        self.cached_ax = Some(ax);
        // dX = Âᵀ · (dY · Wᵀ); Â symmetric.
        let mut dyw = ws.take(dy.rows(), self.w.value.rows());
        dy.matmul_nt_into(&self.w.value, &mut dyw);
        let mut dx = ws.take(dyw.rows(), dyw.cols());
        ctx.gcn_adj().spmm_into(&dyw, &mut dx);
        ws.give(dyw);
        dx
    }

    /// Accumulates `dW = (Â·X)ᵀ·dY` and `db` from the aggregate `ax` the
    /// forward pass borrowed; computes no `dX`.
    pub fn backward_params_ws(&mut self, ax: &Matrix, dy: &Matrix, ws: &mut Workspace) {
        let mut dw = ws.take(ax.cols(), dy.cols());
        ax.matmul_tn_into(dy, &mut dw);
        self.w.grad.add_assign(&dw);
        ws.give(dw);
        add_bias_grad(&mut self.b, dy);
    }

    /// The layer's parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    /// Clears gradients.
    pub fn zero_grad(&mut self) {
        self.w.zero_grad();
        self.b.zero_grad();
    }
}

/// Graph isomorphism convolution (Xu et al. 2019):
/// `H' = MLP((1 + ε)·X + A·X)` with a 2-layer ReLU MLP.
///
/// `ε` is fixed (GIN-0 style by default), matching the common benchmark
/// configuration; the expressive power comes from the MLP.
pub struct GinConv {
    /// First MLP layer (He init, feeds ReLU).
    pub fc1: Linear,
    /// Hidden activation of the MLP.
    relu: Relu,
    /// Second MLP layer.
    pub fc2: Linear,
    /// The (1+ε) self-weighting; ε = 0 by default.
    pub eps: f32,
    cached_m: Option<Matrix>,
}

impl GinConv {
    /// GIN convolution with an `in → out → out` MLP and ε = 0.
    pub fn new(in_dim: usize, out_dim: usize, init: &mut impl Init) -> Self {
        Self {
            fc1: Linear::new_he(in_dim, out_dim, init),
            relu: Relu::new(),
            fc2: Linear::new_he(out_dim, out_dim, init),
            eps: 0.0,
            cached_m: None,
        }
    }

    /// `MLP((1+ε)X + A·X)` with all buffers drawn from `ws`. The cached
    /// aggregate keeps its pooled buffer; the previous cache is recycled.
    pub fn forward_ws(&mut self, ctx: &GraphContext, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let m = self.aggregate_ws(ctx, x, ws);
        let y = self.forward_agg_ws(&m, ws);
        if let Some(old) = self.cached_m.replace(m) {
            ws.give(old);
        }
        y
    }

    /// The input-only half of the forward pass: `(1+ε)X + A·X`.
    pub fn aggregate_ws(&self, ctx: &GraphContext, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let mut m = ws.take(x.rows(), x.cols());
        ctx.sum_adj().spmm_into(x, &mut m);
        m.add_scaled(1.0 + self.eps, x);
        m
    }

    /// The MLP applied to an aggregate `m` the caller owns. `m` itself is
    /// not cached; the MLP's hidden activations are.
    pub fn forward_agg_ws(&mut self, m: &Matrix, ws: &mut Workspace) -> Matrix {
        let h = self.fc1.forward_uncached_ws(m, ws);
        let a = self.relu.forward_ws(&h, ws);
        ws.give(h);
        let y = self.fc2.forward_ws(&a, ws);
        ws.give(a);
        y
    }

    /// Inference-only forward, banded (see the module docs).
    pub fn forward_inference(&self, ctx: &GraphContext, x: &Matrix) -> Matrix {
        self.infer(ctx, x, false)
    }

    /// [`GinConv::forward_inference`] followed by a ReLU, fused per band.
    pub fn forward_inference_relu(&self, ctx: &GraphContext, x: &Matrix) -> Matrix {
        self.infer(ctx, x, true)
    }

    /// `MLP((1+ε)X + A·X)` (through a ReLU when `relu`), one band of rows at
    /// a time.
    fn infer(&self, ctx: &GraphContext, x: &Matrix, relu: bool) -> Matrix {
        let adj = ctx.sum_adj();
        let (f, hidden, o) = (x.cols(), self.fc1.out_dim(), self.fc2.out_dim());
        let scale = 1.0 + self.eps;
        let mut ws = Workspace::disposable();
        let mut y = ws.take(x.rows(), o);
        fill_row_bands(
            &mut y,
            |rows| {
                let mut ws = Workspace::disposable();
                (ws.take(rows, f), ws.take(rows, hidden), ws.take(rows, o))
            },
            |rows, (m, h, t), out| {
                let r0 = rows.start;
                adj.spmm_rows_into(rows, x, m);
                for i in 0..m.rows() {
                    for (a, &b) in m.row_mut(i).iter_mut().zip(x.row(r0 + i)) {
                        *a += scale * b;
                    }
                }
                m.matmul_into(&self.fc1.w.value, h);
                add_bias_band(h.as_mut_slice(), self.fc1.b.value.row(0), true);
                h.matmul_into(&self.fc2.w.value, t);
                out.copy_from_slice(t.as_slice());
                add_bias_band(out, self.fc2.b.value.row(0), relu);
            },
        );
        y
    }

    /// Accumulates gradients; returns `dX`. All buffers come from `ws`.
    ///
    /// # Panics
    /// If called before a forward pass.
    pub fn backward_ws(&mut self, ctx: &GraphContext, dy: &Matrix, ws: &mut Workspace) -> Matrix {
        #[expect(
            clippy::expect_used,
            reason = "call-order contract documented under # Panics"
        )]
        let m = self
            .cached_m
            .take()
            .expect("GinConv::backward before forward");
        let dr = self.backward_mlp_ws(&m, dy, ws);
        self.cached_m = Some(m);
        let dm = self.fc1.input_grad_ws(&dr, ws);
        ws.give(dr);
        // m = (1+ε)x + A·x  ⇒  dx = (1+ε)·dm + Aᵀ·dm; A symmetric.
        let mut dx = ws.take(dm.rows(), dm.cols());
        ctx.sum_adj().spmm_into(&dm, &mut dx);
        dx.add_scaled(1.0 + self.eps, &dm);
        ws.give(dm);
        dx
    }

    /// Accumulates every MLP parameter gradient from the aggregate `m` the
    /// forward pass borrowed; computes no `dX`.
    pub fn backward_params_ws(&mut self, m: &Matrix, dy: &Matrix, ws: &mut Workspace) {
        let dr = self.backward_mlp_ws(m, dy, ws);
        ws.give(dr);
    }

    /// Backpropagates through `fc2`, the ReLU and `fc1`'s parameters;
    /// returns the gradient at `fc1`'s output.
    fn backward_mlp_ws(&mut self, m: &Matrix, dy: &Matrix, ws: &mut Workspace) -> Matrix {
        let dh = self.fc2.backward_ws(dy, ws);
        let dr = self.relu.backward_ws(&dh, ws);
        ws.give(dh);
        self.fc1.backward_params_ws(m, &dr, ws);
        dr
    }

    /// The layer's parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.fc1.params_mut();
        p.extend(self.fc2.params_mut());
        p
    }

    /// Clears gradients.
    pub fn zero_grad(&mut self) {
        self.fc1.zero_grad();
        self.fc2.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairwos_graph::GraphBuilder;
    use fairwos_tensor::{approx_eq, seeded_rng};

    fn ws() -> Workspace {
        Workspace::disposable()
    }

    fn ctx() -> GraphContext {
        GraphContext::new(
            &GraphBuilder::new(4)
                .edge(0, 1)
                .edge(1, 2)
                .edge(2, 3)
                .build(),
        )
    }

    #[test]
    fn linear_forward_known() {
        let mut rng = seeded_rng(0);
        let mut l = Linear::new(2, 1, &mut rng);
        l.w.value = Matrix::from_rows(&[&[2.0], &[3.0]]);
        l.b.value = Matrix::from_rows(&[&[1.0]]);
        let y = l.forward_ws(&Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 2.0]]), &mut ws());
        assert_eq!(y.col(0), vec![6.0, 7.0]);
        assert_eq!(
            l.forward_inference(&Matrix::from_rows(&[&[1.0, 1.0]]))
                .get(0, 0),
            6.0
        );
    }

    #[test]
    fn linear_backward_shapes_and_bias_grad() {
        let mut rng = seeded_rng(1);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Matrix::rand_uniform(5, 3, -1.0, 1.0, &mut rng);
        let _ = l.forward_ws(&x, &mut ws());
        let dy = Matrix::ones(5, 2);
        let dx = l.backward_ws(&dy, &mut ws());
        assert_eq!(dx.shape(), (5, 3));
        assert_eq!(l.w.grad.shape(), (3, 2));
        // db = column sums of dY = 5 for all-ones dY.
        assert!(l.b.grad.row(0).iter().all(|&g| approx_eq(g, 5.0, 1e-5)));
    }

    #[test]
    fn linear_backward_accumulates() {
        let mut rng = seeded_rng(2);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Matrix::ones(1, 2);
        let _ = l.forward_ws(&x, &mut ws());
        let dy = Matrix::ones(1, 2);
        let _ = l.backward_ws(&dy, &mut ws());
        let g1 = l.w.grad.clone();
        let _ = l.backward_ws(&dy, &mut ws());
        assert_eq!(l.w.grad, g1.scale(2.0));
        l.zero_grad();
        assert_eq!(l.w.grad.sum(), 0.0);
    }

    #[test]
    fn gcn_forward_propagates_neighbors() {
        let mut rng = seeded_rng(3);
        let c = ctx();
        let mut conv = GcnConv::new(1, 1, &mut rng);
        conv.w.value = Matrix::from_rows(&[&[1.0]]);
        conv.b.value = Matrix::zeros(1, 1);
        // One-hot feature on node 0 spreads mass to node 1 only (1 hop).
        let x = Matrix::from_rows(&[&[1.0], &[0.0], &[0.0], &[0.0]]);
        let y = conv.forward_ws(&c, &x, &mut ws());
        assert!(y.get(0, 0) > 0.0);
        assert!(y.get(1, 0) > 0.0);
        assert_eq!(y.get(2, 0), 0.0);
        assert_eq!(y.get(3, 0), 0.0);
    }

    #[test]
    fn gin_forward_uses_sum_aggregation() {
        let mut rng = seeded_rng(4);
        let c = ctx();
        let mut conv = GinConv::new(1, 2, &mut rng);
        let x = Matrix::ones(4, 1);
        let y = conv.forward_ws(&c, &x, &mut ws());
        assert_eq!(y.shape(), (4, 2));
        // Inference path agrees with training path.
        let y2 = conv.forward_inference(&c, &x);
        for (a, b) in y.as_slice().iter().zip(y2.as_slice()) {
            assert!(approx_eq(*a, *b, 1e-5));
        }
    }

    #[test]
    fn param_collections() {
        let mut rng = seeded_rng(5);
        let mut gcn = GcnConv::new(3, 4, &mut rng);
        assert_eq!(gcn.params_mut().len(), 2);
        let mut gin = GinConv::new(3, 4, &mut rng);
        assert_eq!(gin.params_mut().len(), 4);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut rng = seeded_rng(6);
        let mut l = Linear::new(2, 2, &mut rng);
        let _ = l.backward_ws(&Matrix::ones(1, 2), &mut ws());
    }
}
