//! Property-based tests for the graph substrate.

use fairwos_graph::{
    gcn_normalized_adjacency, generate, traversal, CsrMatrix, Graph, GraphBuilder,
};
use fairwos_tensor::{approx_eq, seeded_rng, Matrix};
use proptest::prelude::*;

/// Strategy: a random graph from an edge list over n nodes.
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (2usize..30).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n), 0..(n * 3)).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            b.extend_edges(edges);
            b.build()
        })
    })
}

proptest! {
    #[test]
    fn csr_adjacency_is_symmetric(g in graph_strategy()) {
        for u in 0..g.num_nodes() {
            for &v in g.neighbors(u) {
                prop_assert!(g.has_edge(v, u), "missing reverse arc {v}->{u}");
                prop_assert_ne!(u, v, "self-loop survived build");
            }
        }
    }

    #[test]
    fn neighbor_lists_sorted_and_deduped(g in graph_strategy()) {
        for u in 0..g.num_nodes() {
            let ns = g.neighbors(u);
            for w in ns.windows(2) {
                prop_assert!(w[0] < w[1], "unsorted or duplicate neighbour");
            }
        }
    }

    #[test]
    fn handshake_lemma(g in graph_strategy()) {
        let total: usize = (0..g.num_nodes()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(total, 2 * g.num_edges());
    }

    #[test]
    fn edges_iter_matches_num_edges(g in graph_strategy()) {
        prop_assert_eq!(g.edges().count(), g.num_edges());
        for (u, v) in g.edges() {
            prop_assert!(u < v);
            prop_assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn gcn_norm_invariants(g in graph_strategy()) {
        let a = gcn_normalized_adjacency(&g);
        prop_assert!(a.is_symmetric(1e-5));
        // Every diagonal entry present (self-loops), all values in (0, 1].
        for v in 0..g.num_nodes() {
            let d = a.get(v, v);
            prop_assert!(d > 0.0 && d <= 1.0);
        }
        // Â is an ℓ2 contraction (eigenvalues in (-1, 1]).
        let x = Matrix::rand_uniform(g.num_nodes(), 1, -1.0, 1.0, &mut seeded_rng(1));
        let y = a.spmm(&x);
        prop_assert!(y.frobenius_norm() <= x.frobenius_norm() * (1.0 + 1e-4));
    }

    #[test]
    fn spmm_matches_dense_reference(g in graph_strategy(), seed in 0u64..100) {
        let a = gcn_normalized_adjacency(&g);
        let x = Matrix::rand_uniform(g.num_nodes(), 4, -1.0, 1.0, &mut seeded_rng(seed));
        let sparse = a.spmm(&x);
        let dense = a.to_dense().matmul(&x);
        for (s, d) in sparse.as_slice().iter().zip(dense.as_slice()) {
            prop_assert!(approx_eq(*s, *d, 1e-4));
        }
    }

    #[test]
    fn csr_transpose_involution(g in graph_strategy()) {
        let a = gcn_normalized_adjacency(&g);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn khop_is_monotone_in_k(g in graph_strategy(), k in 0usize..4) {
        let src = 0;
        let inner = traversal::khop_nodes(&g, src, k);
        let outer = traversal::khop_nodes(&g, src, k + 1);
        let outer_set: std::collections::BTreeSet<_> = outer.iter().collect();
        prop_assert!(inner.iter().all(|v| outer_set.contains(v)));
        prop_assert!(inner.contains(&src));
    }

    #[test]
    fn khop_respects_bfs_distance(g in graph_strategy(), k in 0usize..4) {
        let dist = traversal::bfs_distances(&g, 0);
        let nodes = traversal::khop_nodes(&g, 0, k);
        let set: std::collections::BTreeSet<_> = nodes.into_iter().collect();
        for (v, &dv) in dist.iter().enumerate() {
            prop_assert_eq!(set.contains(&v), dv <= k, "node {} dist {}", v, dv);
        }
    }

    #[test]
    fn components_partition_nodes(g in graph_strategy()) {
        let (count, labels) = traversal::connected_components(&g);
        prop_assert!(labels.iter().all(|&l| l < count));
        // Edge endpoints share a component.
        for (u, v) in g.edges() {
            prop_assert_eq!(labels[u], labels[v]);
        }
    }

    #[test]
    fn induced_subgraph_edge_subset(g in graph_strategy()) {
        let half: Vec<usize> = (0..g.num_nodes()).step_by(2).collect();
        let (sub, map) = g.induced_subgraph(&half);
        for (u, v) in sub.edges() {
            prop_assert!(g.has_edge(map[u], map[v]));
        }
    }

    #[test]
    fn sbm_graph_is_valid(seed in 0u64..50, n in 10usize..80) {
        let sens: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let g = generate::sensitive_sbm(&sens, 0.2, 0.05, &mut seeded_rng(seed));
        prop_assert_eq!(g.num_nodes(), n);
        let h = generate::sensitive_homophily(&g, &sens);
        prop_assert!((0.0..=1.0).contains(&h));
    }

    #[test]
    fn csr_from_triplets_get_roundtrip(entries in prop::collection::vec((0usize..8, 0usize..8, -5.0f32..5.0), 0..20)) {
        // Dedup (r,c) keys first: from_triplets requires unique entries.
        let mut seen = std::collections::BTreeSet::new();
        let unique: Vec<_> = entries.into_iter().filter(|&(r, c, _)| seen.insert((r, c))).collect();
        let m = CsrMatrix::from_triplets(8, 8, &unique);
        prop_assert_eq!(m.nnz(), unique.len());
        for (r, c, v) in unique {
            prop_assert_eq!(m.get(r, c), v);
        }
    }
}
