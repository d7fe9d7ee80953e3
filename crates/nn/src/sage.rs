//! GraphSAGE convolution (Hamilton, Ying & Leskovec, NeurIPS 2017) with the
//! mean aggregator:
//!
//! `H' = X·W_self + (D^{-1}A·X)·W_neigh + b`
//!
//! The paper notes Fairwos "is flexible for various backbones"; GraphSAGE is
//! the third backbone offered here (§VI-A of the paper lists it among the
//! standard spatial GNNs). The mean aggregator keeps activations at the
//! same scale as GCN, unlike GIN's sums.

use crate::layers::{add_bias_band, add_bias_grad, assign_cache};
use crate::{GraphContext, Init, Param};
use fairwos_tensor::{fill_row_bands, Matrix, Workspace};

/// Mean-aggregator GraphSAGE layer.
///
/// Backward (given `dY`, with `M = D^{-1}A` row-normalized):
/// `dW_self = Xᵀ·dY`, `dW_neigh = (M·X)ᵀ·dY`, `db = col sums`,
/// `dX = dY·W_selfᵀ + Mᵀ·(dY·W_neighᵀ)`.
pub struct SageConv {
    /// Self-transformation weight (`W_a` of Theorem 2).
    pub w_self: Param,
    /// Neighbour-aggregation weight.
    pub w_neigh: Param,
    /// Bias, `1 × out_dim`.
    pub b: Param,
    cached_x: Option<Matrix>,
    cached_mx: Option<Matrix>,
}

impl SageConv {
    /// Glorot-initialized SAGE layer.
    pub fn new(in_dim: usize, out_dim: usize, init: &mut impl Init) -> Self {
        Self {
            w_self: Param::new(init.glorot(in_dim, out_dim)),
            w_neigh: Param::new(init.glorot(in_dim, out_dim)),
            b: Param::new(Matrix::zeros(1, out_dim)),
            cached_x: None,
            cached_mx: None,
        }
    }

    /// `X·W_self + (M·X)·W_neigh + b` with all buffers drawn from `ws`,
    /// caching both operands. The cached `M·X` keeps its pooled buffer; the
    /// previous cache is recycled.
    pub fn forward_ws(&mut self, ctx: &GraphContext, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let mx = self.aggregate_ws(ctx, x, ws);
        let y = self.forward_agg_ws(x, &mx, ws);
        assign_cache(&mut self.cached_x, x);
        if let Some(old) = self.cached_mx.replace(mx) {
            ws.give(old);
        }
        y
    }

    /// The input-only half of the forward pass: `M·X`.
    pub fn aggregate_ws(&self, ctx: &GraphContext, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let mut mx = ws.take(x.rows(), x.cols());
        ctx.mean_adj().spmm_into(x, &mut mx);
        mx
    }

    /// `X·W_self + (M·X)·W_neigh + b` from an input and aggregate the
    /// caller owns; caches nothing.
    pub fn forward_agg_ws(&self, x: &Matrix, mx: &Matrix, ws: &mut Workspace) -> Matrix {
        let mut y = ws.take(x.rows(), self.w_self.value.cols());
        x.matmul_into(&self.w_self.value, &mut y);
        let mut t = ws.take(mx.rows(), self.w_neigh.value.cols());
        mx.matmul_into(&self.w_neigh.value, &mut t);
        y.add_assign(&t);
        ws.give(t);
        y.add_row_broadcast(self.b.value.row(0));
        y
    }

    /// Inference-only forward: `X·W_self` in one product, then the
    /// neighbour term and bias one band of rows at a time, so `M·X` is only
    /// ever built a band at a time (each element summed as
    /// `(X·W_self + (M·X)·W_neigh) + b`, the order of the training forward).
    pub fn forward_inference(&self, ctx: &GraphContext, x: &Matrix) -> Matrix {
        self.infer(ctx, x, false)
    }

    /// [`SageConv::forward_inference`] followed by a ReLU, fused per band.
    pub fn forward_inference_relu(&self, ctx: &GraphContext, x: &Matrix) -> Matrix {
        self.infer(ctx, x, true)
    }

    /// `X·W_self + (M·X)·W_neigh + b`, through a ReLU when `relu`.
    fn infer(&self, ctx: &GraphContext, x: &Matrix, relu: bool) -> Matrix {
        let adj = ctx.mean_adj();
        let (f, o) = (x.cols(), self.w_neigh.value.cols());
        let mut ws = Workspace::disposable();
        let mut y = ws.take(x.rows(), o);
        x.matmul_into(&self.w_self.value, &mut y);
        fill_row_bands(
            &mut y,
            |rows| {
                let mut ws = Workspace::disposable();
                (ws.take(rows, f), ws.take(rows, o))
            },
            |rows, (mx, t), out| {
                adj.spmm_rows_into(rows, x, mx);
                mx.matmul_into(&self.w_neigh.value, t);
                for (a, &b) in out.iter_mut().zip(t.as_slice()) {
                    *a += b;
                }
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
        let x = self
            .cached_x
            .take()
            .expect("SageConv::backward before forward");
        #[expect(
            clippy::expect_used,
            reason = "call-order contract documented under # Panics"
        )]
        let mx = self
            .cached_mx
            .take()
            .expect("SageConv::backward before forward");
        self.backward_params_ws(&x, &mx, dy, ws);
        self.cached_x = Some(x);
        self.cached_mx = Some(mx);
        // dX = dY·W_selfᵀ + Mᵀ·(dY·W_neighᵀ); M is NOT symmetric (row
        // normalization), so the transposed propagation matrix is explicit.
        let mut dx = ws.take(dy.rows(), self.w_self.value.rows());
        dy.matmul_nt_into(&self.w_self.value, &mut dx);
        let mut t = ws.take(dy.rows(), self.w_neigh.value.rows());
        dy.matmul_nt_into(&self.w_neigh.value, &mut t);
        let mut mt = ws.take(t.rows(), t.cols());
        ctx.mean_adj_t().spmm_into(&t, &mut mt);
        ws.give(t);
        dx.add_assign(&mt);
        ws.give(mt);
        dx
    }

    /// Accumulates `dW_self = Xᵀ·dY`, `dW_neigh = (M·X)ᵀ·dY` and `db` from
    /// the input and aggregate the forward pass borrowed; computes no `dX`.
    pub fn backward_params_ws(&mut self, x: &Matrix, mx: &Matrix, dy: &Matrix, ws: &mut Workspace) {
        // Both weight matrices are `in × out`, so one temporary serves both.
        let mut dw = ws.take(x.cols(), dy.cols());
        x.matmul_tn_into(dy, &mut dw);
        self.w_self.grad.add_assign(&dw);
        mx.matmul_tn_into(dy, &mut dw);
        self.w_neigh.grad.add_assign(&dw);
        ws.give(dw);
        add_bias_grad(&mut self.b, dy);
    }

    /// The layer's parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w_self, &mut self.w_neigh, &mut self.b]
    }

    /// Clears gradients.
    pub fn zero_grad(&mut self) {
        self.w_self.zero_grad();
        self.w_neigh.zero_grad();
        self.b.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::bce_with_logits_masked_ws;
    use fairwos_graph::GraphBuilder;
    use fairwos_tensor::{approx_eq, seeded_rng};

    fn ws() -> Workspace {
        Workspace::disposable()
    }

    /// Masked BCE over every node.
    fn bce(logits: &Matrix, targets: &[f32]) -> (f32, Matrix) {
        bce_with_logits_masked_ws(logits, targets, &[0, 1, 2, 3], &mut ws())
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
    fn forward_mean_aggregates() {
        let mut rng = seeded_rng(0);
        let c = ctx();
        let mut conv = SageConv::new(1, 1, &mut rng);
        conv.w_self.value = Matrix::from_rows(&[&[0.0]]); // isolate neighbour term
        conv.w_neigh.value = Matrix::from_rows(&[&[1.0]]);
        conv.b.value = Matrix::zeros(1, 1);
        let x = Matrix::from_rows(&[&[2.0], &[4.0], &[6.0], &[8.0]]);
        let y = conv.forward_ws(&c, &x, &mut ws());
        // node 1's neighbours are {0, 2}: mean = 4.
        assert!(approx_eq(y.get(1, 0), 4.0, 1e-5));
        // node 0's only neighbour is 1: mean = 4.
        assert!(approx_eq(y.get(0, 0), 4.0, 1e-5));
    }

    #[test]
    fn inference_matches_train() {
        let mut rng = seeded_rng(1);
        let c = ctx();
        let mut conv = SageConv::new(3, 5, &mut rng);
        let x = Matrix::rand_uniform(4, 3, -1.0, 1.0, &mut rng);
        let a = conv.forward_ws(&c, &x, &mut ws());
        let b = conv.forward_inference(&c, &x);
        for (p, q) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(approx_eq(*p, *q, 1e-6));
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        use crate::gradcheck::{assert_all_pass, GradTarget};
        let mut rng = seeded_rng(2);
        let c = ctx();
        let x = Matrix::rand_uniform(4, 3, -1.0, 1.0, &mut rng);
        let mut conv = SageConv::new(3, 1, &mut rng);
        conv.zero_grad();
        let logits = conv.forward_ws(&c, &x, &mut ws());
        let _ = conv.backward_ws(&c, &bce(&logits, &[1.0, 0.0, 1.0, 0.0]).1, &mut ws());
        let mut target = GradTarget {
            model: conv,
            params: SageConv::params_mut,
            loss: |conv: &SageConv| bce(&conv.forward_inference(&c, &x), &[1.0, 0.0, 1.0, 0.0]).0,
        };
        assert_all_pass("SageConv", &target.check_gradients(&[1e-2], 2e-2), 2e-2);
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        use crate::gradcheck::{assert_all_pass, GradTarget};
        let mut rng = seeded_rng(3);
        let c = ctx();
        let x = Matrix::rand_uniform(4, 2, -1.0, 1.0, &mut rng);
        let targets = [1.0, 1.0, 0.0, 0.0];
        let mut conv = SageConv::new(2, 1, &mut rng);
        conv.zero_grad();
        let logits = conv.forward_ws(&c, &x, &mut ws());
        let dx = conv.backward_ws(&c, &bce(&logits, &targets).1, &mut ws());
        let mut target = GradTarget {
            model: Param { value: x, grad: dx },
            params: |p| vec![p],
            loss: |x: &Param| bce(&conv.forward_inference(&c, &x.value), &targets).0,
        };
        assert_all_pass("dX", &target.check_gradients(&[1e-2], 2e-2), 2e-2);
    }
}
