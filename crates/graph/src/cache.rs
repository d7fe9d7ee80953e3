//! Lazily-built, epoch-persistent normalized adjacency matrices.
//!
//! Every GNN backbone propagates with a different normalization of the same
//! graph (GCN: `Â`, GIN: `A`, SAGE: `D⁻¹A` and its transpose). Building all
//! of them eagerly wastes both time and memory — a GCN run never touches the
//! mean-aggregation matrices. [`AdjacencyCache`] builds each CSR on first
//! access and then serves the same instance for the lifetime of the cache,
//! i.e. across every epoch of a training run.

use std::sync::OnceLock;

use crate::{gcn_normalized_adjacency, row_normalized_adjacency, sum_adjacency, CsrMatrix, Graph};

/// Per-graph cache of the normalized adjacencies used by the GNN layers.
///
/// Each matrix is computed at most once (on first access, thread-safe) and
/// kept for the lifetime of the cache, so the sparse structure is shared
/// across all epochs of training instead of being rebuilt.
#[derive(Debug)]
pub struct AdjacencyCache {
    graph: Graph,
    gcn: OnceLock<CsrMatrix>,
    sum: OnceLock<CsrMatrix>,
    mean: OnceLock<CsrMatrix>,
    mean_t: OnceLock<CsrMatrix>,
}

impl AdjacencyCache {
    /// A cache over a clone of `g` with no adjacency built yet.
    pub fn new(g: &Graph) -> Self {
        AdjacencyCache {
            graph: g.clone(),
            gcn: OnceLock::new(),
            sum: OnceLock::new(),
            mean: OnceLock::new(),
            mean_t: OnceLock::new(),
        }
    }

    /// A cache whose four propagation matrices are already built —
    /// used by the mini-batch path, which *restricts* the full graph's
    /// normalized matrices to a sampled subgraph, weighting each sampled
    /// edge by its inverse inclusion probability, instead of renormalizing
    /// (see [`crate::SubgraphSample::restrict`]).
    pub fn with_prebuilt(
        graph: Graph,
        gcn: CsrMatrix,
        sum: CsrMatrix,
        mean: CsrMatrix,
        mean_t: CsrMatrix,
    ) -> Self {
        let cache = AdjacencyCache {
            graph,
            gcn: OnceLock::new(),
            sum: OnceLock::new(),
            mean: OnceLock::new(),
            mean_t: OnceLock::new(),
        };
        let _ = cache.gcn.set(gcn);
        let _ = cache.sum.set(sum);
        let _ = cache.mean.set(mean);
        let _ = cache.mean_t.set(mean_t);
        cache
    }

    /// Number of nodes of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Symmetrically normalized adjacency `Â = D̃^{-1/2}(A+I)D̃^{-1/2}`
    /// (GCN propagation), built on first access.
    pub fn gcn(&self) -> &CsrMatrix {
        self.gcn
            .get_or_init(|| gcn_normalized_adjacency(&self.graph))
    }

    /// Plain adjacency `A` (GIN sum aggregation), built on first access.
    pub fn sum(&self) -> &CsrMatrix {
        self.sum.get_or_init(|| sum_adjacency(&self.graph))
    }

    /// Row-normalized adjacency `D⁻¹A` (mean aggregation), built on first
    /// access.
    pub fn mean(&self) -> &CsrMatrix {
        self.mean
            .get_or_init(|| row_normalized_adjacency(&self.graph))
    }

    /// Transpose of [`AdjacencyCache::mean`] (needed by SAGE's backward
    /// pass: `D⁻¹A` is not symmetric), built on first access.
    pub fn mean_t(&self) -> &CsrMatrix {
        self.mean_t.get_or_init(|| self.mean().transpose())
    }

    /// Eagerly builds the three forward propagation matrices (`Â`, `A`,
    /// `D⁻¹A`); [`AdjacencyCache::mean_t`], which only SAGE's backward pass
    /// and mini-batch restriction read, stays lazy.
    ///
    /// Training never calls this — laziness is the point of the cache. The
    /// serving layer does: it warms the cache once at startup so that no
    /// hot-reloaded model, whatever backbone its config names, ever pays a
    /// lazy CSR build on the request path.
    pub fn warm_all(&self) {
        let _s = fairwos_obs::span("graph/adjacency/warm");
        let _ = self.gcn();
        let _ = self.sum();
        let _ = self.mean();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path_graph() -> Graph {
        GraphBuilder::new(4)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .build()
    }

    #[test]
    fn lazily_built_matrices_match_direct_construction() {
        let g = path_graph();
        let cache = AdjacencyCache::new(&g);
        assert_eq!(cache.gcn(), &gcn_normalized_adjacency(&g));
        assert_eq!(cache.sum(), &sum_adjacency(&g));
        assert_eq!(cache.mean(), &row_normalized_adjacency(&g));
        assert_eq!(cache.mean_t(), &row_normalized_adjacency(&g).transpose());
    }

    #[test]
    fn repeated_access_returns_the_same_instance() {
        let cache = AdjacencyCache::new(&path_graph());
        let a = cache.gcn() as *const CsrMatrix;
        let b = cache.gcn() as *const CsrMatrix;
        assert_eq!(a, b);
    }
}
