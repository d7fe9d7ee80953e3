//! Per-graph propagation context shared by all layers.

use fairwos_graph::{AdjacencyCache, CsrMatrix, Graph};

/// The propagation matrices of one graph, built lazily and cached for the
/// lifetime of the context (i.e. across every training epoch).
///
/// Full-batch training re-multiplies against these every epoch, but each
/// backbone only ever touches its own normalization — GCN never needs the
/// mean-aggregation matrices, SAGE never needs `Â`. The context therefore
/// wraps a [`fairwos_graph::AdjacencyCache`]: each matrix is materialised on
/// first access and reused afterwards. `Â` and `A` are symmetric (undirected
/// graphs), which the backward passes exploit: `Âᵀ = Â`, `Aᵀ = A`.
pub struct GraphContext {
    cache: AdjacencyCache,
}

impl GraphContext {
    /// Wraps `g` in a lazy propagation-matrix cache.
    pub fn new(g: &Graph) -> Self {
        Self {
            cache: AdjacencyCache::new(g),
        }
    }

    /// Wraps an already-populated cache — the mini-batch path builds one
    /// per sampled subgraph via [`AdjacencyCache::with_prebuilt`], with the
    /// propagation matrices *restricted* from the full graph's (each
    /// sampled edge divided by its inclusion probability) rather than
    /// renormalized over the subgraph. Restriction keeps `Â` and `A`
    /// symmetric, so the backward passes' `Âᵀ = Â` holds here too.
    pub fn from_cache(cache: AdjacencyCache) -> Self {
        Self { cache }
    }

    /// Number of nodes in the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.cache.num_nodes()
    }

    /// `Â` — the GCN propagation matrix.
    pub fn gcn_adj(&self) -> &CsrMatrix {
        self.cache.gcn()
    }

    /// `A` — the GIN sum-aggregation matrix.
    pub fn sum_adj(&self) -> &CsrMatrix {
        self.cache.sum()
    }

    /// `M = D^{-1}A` — the GraphSAGE mean-aggregation matrix.
    pub fn mean_adj(&self) -> &CsrMatrix {
        self.cache.mean()
    }

    /// `Mᵀ` — used by SAGE's backward pass.
    pub fn mean_adj_t(&self) -> &CsrMatrix {
        self.cache.mean_t()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairwos_graph::GraphBuilder;
    use fairwos_tensor::Matrix;

    #[test]
    fn context_matrices_consistent() {
        let g = GraphBuilder::new(3).edge(0, 1).edge(1, 2).build();
        let ctx = GraphContext::new(&g);
        assert_eq!(ctx.num_nodes(), 3);
        assert!(ctx.gcn_adj().is_symmetric(1e-6));
        assert!(ctx.sum_adj().is_symmetric(1e-6));
        // Sum aggregation of ones = degree vector.
        let ones = Matrix::ones(3, 1);
        let deg = ctx.sum_adj().spmm(&ones);
        assert_eq!(deg.col(0), vec![1.0, 2.0, 1.0]);
    }
}
