//! Graph attention convolution (Veličković et al., ICLR 2018), single head:
//!
//! ```text
//! z_i   = W·x_i
//! e_ij  = LeakyReLU(a_src·z_i + a_dst·z_j)        j ∈ N(i) ∪ {i}
//! α_ij  = softmax_j(e_ij)                          (per neighbourhood)
//! h_i   = Σ_j α_ij z_j
//! ```
//!
//! The backward pass chains through the per-neighbourhood softmax
//! analytically; the finite-difference tests pin it down like every other
//! layer in this crate.
//!
//! GAT has no input-only aggregate: attention depends on `W`, so its
//! constant-input aggregate is `X` itself and only the `dX` product is
//! skipped on a constant input.

use crate::layers::assign_cache;
use crate::{GraphContext, Init, Param};
use fairwos_tensor::{dot, Matrix, Workspace};

const LEAKY_SLOPE: f32 = 0.2;

/// Per-node attention state: `(targets, raw logits, normalized α)`, each
/// outer vector indexed by node, inner vectors parallel within a node.
type Attention = (Vec<Vec<usize>>, Vec<Vec<f32>>, Vec<Vec<f32>>);

#[inline]
fn leaky_relu(v: f32) -> f32 {
    if v > 0.0 {
        v
    } else {
        LEAKY_SLOPE * v
    }
}

#[inline]
fn leaky_relu_grad(v: f32) -> f32 {
    if v > 0.0 {
        1.0
    } else {
        LEAKY_SLOPE
    }
}

/// Cached per-forward state: the neighbour lists (with self-loops), raw
/// attention logits, and normalized coefficients.
struct GatCache {
    z: Matrix,
    /// For each node: its attention targets (self first, then neighbours).
    targets: Vec<Vec<usize>>,
    /// Pre-activation attention logits, parallel to `targets`.
    logits: Vec<Vec<f32>>,
    /// Softmax-normalized coefficients, parallel to `targets`.
    alpha: Vec<Vec<f32>>,
}

/// Single-head graph attention layer.
pub struct GatConv {
    /// Feature transform, `in_dim × out_dim`. (The `W_a` of Theorem 2.)
    pub w: Param,
    /// Source attention vector, `1 × out_dim`.
    pub a_src: Param,
    /// Destination attention vector, `1 × out_dim`.
    pub a_dst: Param,
    cache: Option<GatCache>,
    cached_x: Option<Matrix>,
}

impl GatConv {
    /// Glorot-initialized GAT layer.
    pub fn new(in_dim: usize, out_dim: usize, init: &mut impl Init) -> Self {
        Self {
            w: Param::new(init.glorot(in_dim, out_dim)),
            a_src: Param::new(init.glorot(1, out_dim)),
            a_dst: Param::new(init.glorot(1, out_dim)),
            cache: None,
            cached_x: None,
        }
    }

    fn attention(&self, ctx: &GraphContext, z: &Matrix) -> Attention {
        let n = z.rows();
        let src_score: Vec<f32> = (0..n)
            .map(|i| dot(self.a_src.value.row(0), z.row(i)))
            .collect();
        let dst_score: Vec<f32> = (0..n)
            .map(|i| dot(self.a_dst.value.row(0), z.row(i)))
            .collect();
        let mut targets = Vec::with_capacity(n);
        let mut logits = Vec::with_capacity(n);
        let mut alpha = Vec::with_capacity(n);
        for (i, &s_i) in src_score.iter().enumerate() {
            let (cols, _) = ctx.sum_adj().row(i);
            let mut t: Vec<usize> = Vec::with_capacity(cols.len() + 1);
            t.push(i); // self-loop first
            t.extend_from_slice(cols);
            let raw: Vec<f32> = t.iter().map(|&j| leaky_relu(s_i + dst_score[j])).collect();
            // Stable softmax over the neighbourhood.
            let m = raw.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = raw.iter().map(|&e| (e - m).exp()).collect();
            let sum: f32 = exps.iter().sum();
            let a: Vec<f32> = exps.iter().map(|&e| e / sum).collect();
            targets.push(t);
            logits.push(raw);
            alpha.push(a);
        }
        (targets, logits, alpha)
    }

    /// Forward pass with the output drawn from `ws`, caching attention state
    /// for backward. The ragged per-node attention state is not pooled.
    pub fn forward_ws(&mut self, ctx: &GraphContext, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let h = self.forward_agg_ws(ctx, x, ws);
        assign_cache(&mut self.cached_x, x);
        h
    }

    /// Forward pass from an input the caller owns: caches the attention
    /// state but not `X`.
    pub fn forward_agg_ws(&mut self, ctx: &GraphContext, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let z = x.matmul(&self.w.value);
        let (targets, logits, alpha) = self.attention(ctx, &z);
        let mut h = ws.take(z.rows(), z.cols());
        propagate(&z, &targets, &alpha, &mut h);
        self.cache = Some(GatCache {
            z,
            targets,
            logits,
            alpha,
        });
        h
    }

    /// Inference-only forward (no caching).
    pub fn forward_inference(&self, ctx: &GraphContext, x: &Matrix) -> Matrix {
        let z = x.matmul(&self.w.value);
        let (targets, _, alpha) = self.attention(ctx, &z);
        let mut h = Matrix::zeros(z.rows(), z.cols());
        propagate(&z, &targets, &alpha, &mut h);
        h
    }

    /// Accumulates gradients; returns `dX`. The returned gradient and the
    /// temporaries are drawn from `ws`.
    ///
    /// # Panics
    /// If called before a forward pass.
    pub fn backward_ws(&mut self, ctx: &GraphContext, dh: &Matrix, ws: &mut Workspace) -> Matrix {
        let _ = ctx; // neighbourhood structure lives in the cache
        #[expect(
            clippy::expect_used,
            reason = "call-order contract documented under # Panics"
        )]
        let x = self
            .cached_x
            .take()
            .expect("GatConv::backward before forward");
        let dz = self.attention_backward_ws(dh, ws);
        self.add_weight_grad(&x, &dz, ws);
        self.cached_x = Some(x);
        // z = x·W ⇒ dX = dZ·Wᵀ.
        let mut dx = ws.take(dz.rows(), self.w.value.rows());
        dz.matmul_nt_into(&self.w.value, &mut dx);
        ws.give(dz);
        dx
    }

    /// Accumulates every parameter gradient for the input `x` the forward
    /// pass borrowed; computes no `dX`.
    ///
    /// # Panics
    /// If called before a forward pass.
    pub fn backward_params_ws(&mut self, x: &Matrix, dh: &Matrix, ws: &mut Workspace) {
        let dz = self.attention_backward_ws(dh, ws);
        self.add_weight_grad(x, &dz, ws);
        ws.give(dz);
    }

    /// `dW += xᵀ·dZ` (from `z = x·W`).
    fn add_weight_grad(&mut self, x: &Matrix, dz: &Matrix, ws: &mut Workspace) {
        let mut dw = ws.take(x.cols(), dz.cols());
        x.matmul_tn_into(dz, &mut dw);
        self.w.grad.add_assign(&dw);
        ws.give(dw);
    }

    /// Backpropagates `dH` through the aggregation and the attention
    /// softmax: accumulates the `a_src`/`a_dst` gradients and returns `dZ`.
    ///
    /// # Panics
    /// If called before a forward pass.
    fn attention_backward_ws(&mut self, dh: &Matrix, ws: &mut Workspace) -> Matrix {
        #[expect(
            clippy::expect_used,
            reason = "call-order contract documented under # Panics"
        )]
        let cache = self
            .cache
            .as_ref()
            .expect("GatConv::backward before forward");
        let n = cache.z.rows();
        let d = cache.z.cols();

        // dZ accumulates three contributions:
        //  (1) through the aggregation values:    dZ_j += α_ij · dH_i
        //  (2) through the attention coefficients: dα_ij = dH_i · z_j,
        //      chained through the softmax and LeakyReLU into z_i (a_src
        //      side) and z_j (a_dst side),
        //  plus the gradients of a_src / a_dst themselves.
        let mut dz = ws.take(n, d);
        // Row 0 accumulates d(a_src), row 1 d(a_dst).
        let mut da = ws.take(2, d);

        for i in 0..n {
            let dh_i = dh.row(i);
            let targets = &cache.targets[i];
            let alpha = &cache.alpha[i];
            let logits = &cache.logits[i];

            // (1) value path + dα_ij.
            let dalpha: Vec<f32> = targets
                .iter()
                .zip(alpha)
                .map(|(&j, &a)| {
                    let zj = cache.z.row(j);
                    let g = dot(dh_i, zj);
                    let dzj = dz.row_mut(j);
                    for (o, &v) in dzj.iter_mut().zip(dh_i) {
                        *o += a * v;
                    }
                    g
                })
                .collect();

            // (2) softmax backward: de_k = α_k (dα_k − Σ_m α_m dα_m).
            let inner: f32 = alpha.iter().zip(&dalpha).map(|(&a, &g)| a * g).sum();
            for ((&j, (&a, &g)), &raw) in targets.iter().zip(alpha.iter().zip(&dalpha)).zip(logits)
            {
                let de = a * (g - inner) * leaky_relu_grad(unleaky(raw));
                // e_ij = LeakyReLU(a_src·z_i + a_dst·z_j):
                //   d(a_src) += de · z_i,  d(a_dst) += de · z_j,
                //   dz_i += de · a_src,    dz_j += de · a_dst.
                let (da_src, da_dst) = da.as_mut_slice().split_at_mut(d);
                for ((s, t), (&zi, &zj)) in da_src
                    .iter_mut()
                    .zip(da_dst.iter_mut())
                    .zip(cache.z.row(i).iter().zip(cache.z.row(j)))
                {
                    *s += de * zi;
                    *t += de * zj;
                }
                let a_src_row = self.a_src.value.row(0);
                let a_dst_row = self.a_dst.value.row(0);
                {
                    let dzi = dz.row_mut(i);
                    for (o, &v) in dzi.iter_mut().zip(a_src_row) {
                        *o += de * v;
                    }
                }
                {
                    let dzj = dz.row_mut(j);
                    for (o, &v) in dzj.iter_mut().zip(a_dst_row) {
                        *o += de * v;
                    }
                }
            }
        }

        for (g, v) in self.a_src.grad.row_mut(0).iter_mut().zip(da.row(0)) {
            *g += v;
        }
        for (g, v) in self.a_dst.grad.row_mut(0).iter_mut().zip(da.row(1)) {
            *g += v;
        }
        ws.give(da);
        dz
    }

    /// The layer's parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.a_src, &mut self.a_dst]
    }

    /// Clears gradients.
    pub fn zero_grad(&mut self) {
        self.w.zero_grad();
        self.a_src.zero_grad();
        self.a_dst.zero_grad();
    }
}

/// `h_i = Σ_j α_ij z_j` over each node's attention targets, accumulated
/// into the zeroed `h`.
fn propagate(z: &Matrix, targets: &[Vec<usize>], alpha: &[Vec<f32>], h: &mut Matrix) {
    for i in 0..z.rows() {
        let out = h.row_mut(i);
        for (&j, &a) in targets[i].iter().zip(&alpha[i]) {
            for (o, &v) in out.iter_mut().zip(z.row(j)) {
                *o += a * v;
            }
        }
    }
}

/// Inverts LeakyReLU on a stored post-activation logit so the gradient can
/// be evaluated at the pre-activation point. LeakyReLU with slope > 0 is a
/// bijection: positive outputs came from positive inputs.
#[inline]
fn unleaky(post: f32) -> f32 {
    if post > 0.0 {
        post
    } else {
        post / LEAKY_SLOPE
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
                .edge(3, 0)
                .build(),
        )
    }

    #[test]
    fn attention_coefficients_are_distributions() {
        let mut rng = seeded_rng(0);
        let c = ctx();
        let mut conv = GatConv::new(3, 4, &mut rng);
        let x = Matrix::rand_uniform(4, 3, -1.0, 1.0, &mut rng);
        let _ = conv.forward_ws(&c, &x, &mut ws());
        let cache = conv.cache.as_ref().unwrap();
        for (i, alpha) in cache.alpha.iter().enumerate() {
            let sum: f32 = alpha.iter().sum();
            assert!(approx_eq(sum, 1.0, 1e-5), "node {i} α sum {sum}");
            assert!(alpha.iter().all(|&a| a > 0.0));
            // self + 2 neighbours on a 4-cycle.
            assert_eq!(cache.targets[i].len(), 3);
        }
    }

    #[test]
    fn uniform_attention_on_identical_features() {
        // All-equal inputs ⇒ all logits equal ⇒ uniform attention ⇒ output
        // equals z for every node.
        let mut rng = seeded_rng(1);
        let c = ctx();
        let mut conv = GatConv::new(2, 3, &mut rng);
        let x = Matrix::ones(4, 2);
        let h = conv.forward_ws(&c, &x, &mut ws());
        let z = x.matmul(&conv.w.value);
        for (a, b) in h.as_slice().iter().zip(z.as_slice()) {
            assert!(approx_eq(*a, *b, 1e-5));
        }
    }

    #[test]
    fn inference_matches_train() {
        let mut rng = seeded_rng(2);
        let c = ctx();
        let mut conv = GatConv::new(3, 3, &mut rng);
        let x = Matrix::rand_uniform(4, 3, -1.0, 1.0, &mut rng);
        let a = conv.forward_ws(&c, &x, &mut ws());
        let b = conv.forward_inference(&c, &x);
        for (p, q) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(approx_eq(*p, *q, 1e-6));
        }
    }

    #[test]
    fn parameter_gradients_match_finite_differences() {
        use crate::gradcheck::{assert_all_pass, GradTarget};
        let mut rng = seeded_rng(3);
        let c = ctx();
        let x = Matrix::rand_uniform(4, 3, -1.0, 1.0, &mut rng);
        let targets = [1.0, 0.0, 1.0, 0.0];
        // out_dim 1 so the conv output doubles as logits.
        let mut conv = GatConv::new(3, 1, &mut rng);
        conv.zero_grad();
        let logits = conv.forward_ws(&c, &x, &mut ws());
        let _ = conv.backward_ws(&c, &bce(&logits, &targets).1, &mut ws());
        let mut target = GradTarget {
            model: conv,
            params: GatConv::params_mut,
            loss: |conv: &GatConv| bce(&conv.forward_inference(&c, &x), &targets).0,
        };
        assert_all_pass("GatConv", &target.check_gradients(&[1e-2], 3e-2), 3e-2);
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        use crate::gradcheck::{assert_all_pass, GradTarget};
        let mut rng = seeded_rng(4);
        let c = ctx();
        let x = Matrix::rand_uniform(4, 2, -1.0, 1.0, &mut rng);
        let targets = [0.0, 1.0, 0.0, 1.0];
        let mut conv = GatConv::new(2, 1, &mut rng);
        conv.zero_grad();
        let logits = conv.forward_ws(&c, &x, &mut ws());
        let dx = conv.backward_ws(&c, &bce(&logits, &targets).1, &mut ws());
        let mut target = GradTarget {
            model: Param { value: x, grad: dx },
            params: |p| vec![p],
            loss: |x: &Param| bce(&conv.forward_inference(&c, &x.value), &targets).0,
        };
        assert_all_pass("dX", &target.check_gradients(&[1e-2], 3e-2), 3e-2);
    }
}
