//! Deterministic GraphSAGE-style neighbor sampling and BFS partitioning.
//!
//! Mini-batch training (see `docs/SCALING.md`) needs three primitives, all
//! of which live here so they can be property-tested against the CSR layer
//! without pulling in the training stack:
//!
//! 1. [`partition`] — shards the node set into cache-local BFS blocks; every
//!    block is one mini-batch's seed set.
//! 2. [`NeighborSampler`] — per-layer fanout sampling over the CSR. Sampling
//!    is a *pure function* of `(seed, salt, layer, node)`: each draw runs on
//!    its own ChaCha stream derived by a SplitMix64 mix of those inputs, so
//!    the result is independent of thread count, call order, and how many
//!    other nodes were sampled before it.
//! 3. [`SubgraphSample`] — the induced computation subgraph of one block:
//!    global↔local id remapping plus *restriction* of the full graph's
//!    normalized propagation matrices to the sampled edge set, each kept
//!    edge weighted by its inverse inclusion probability (GraphSAINT's
//!    normalization, Zeng et al., ICLR'20), so a restricted aggregate is an
//!    unbiased estimate of the full one.
//!
//! # Determinism contract
//!
//! * `fanout = 0` (or a fanout ≥ the node's degree) copies the neighbor list
//!   verbatim and constructs **no RNG** — an "infinite fanout" sample of the
//!   whole node set restricts to the full propagation matrix *bit-for-bit*
//!   (every inclusion probability is exactly 1, so the same values, the same
//!   per-row column order, hence the same FMA order in `spmm`).
//! * The sampled edge set is symmetrized (if `u` sampled `v`, the local
//!   matrices also carry `v → u`), and an edge's inclusion probability is
//!   symmetric in its endpoints, keeping the restricted GCN/GIN operators
//!   symmetric — the analytic backward passes in `fairwos-nn` rely on
//!   `Âᵀ = Â` for those backbones.

use crate::{CsrMatrix, Graph, GraphBuilder};
use fairwos_chaos::splitmix64;
use fairwos_tensor::seeded_rng;
use std::collections::VecDeque;

/// Chains three values through [`splitmix64`] into one stream id.
fn mix3(a: u64, b: u64, c: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(a) ^ b) ^ c)
}

/// Deterministic per-layer fanout sampler over a [`Graph`]'s CSR.
///
/// Each `(salt, layer, node)` draw uses a dedicated ChaCha stream of the
/// sampler's seed, so sampling one node never advances another node's
/// stream: the sample is a pure function of `(seed, salt, layer, node)`.
/// The per-epoch `salt` decorrelates epochs without any mutable state.
#[derive(Clone, Debug)]
pub struct NeighborSampler {
    seed: u64,
    fanout: Vec<usize>,
}

impl NeighborSampler {
    /// A sampler drawing `fanout[l]` neighbors at layer `l`; a fanout of
    /// `0` means *all* neighbors (infinite fanout).
    ///
    /// # Panics
    /// If `fanout` is empty.
    pub fn new(seed: u64, fanout: Vec<usize>) -> Self {
        assert!(!fanout.is_empty(), "sampler needs at least one layer");
        Self { seed, fanout }
    }

    /// Number of sampling layers (the GNN depth this sampler serves).
    pub fn num_layers(&self) -> usize {
        self.fanout.len()
    }

    /// The per-layer fanout vector (`0` = all neighbors).
    pub fn fanout(&self) -> &[usize] {
        &self.fanout
    }

    /// Samples `min(fanout[layer], degree)` distinct neighbors of `node`,
    /// returned in ascending order.
    ///
    /// When the fanout is `0` or covers the whole neighborhood the CSR
    /// neighbor list is copied verbatim and no RNG is constructed;
    /// otherwise a partial Fisher–Yates over the neighbor indices runs on
    /// the ChaCha stream `mix3(salt, layer, node)` of `seed`.
    ///
    /// # Panics
    /// If `layer` or `node` is out of range.
    pub fn sample_neighbors(
        &self,
        graph: &Graph,
        salt: u64,
        layer: usize,
        node: usize,
    ) -> Vec<usize> {
        let neigh = graph.neighbors(node);
        let f = self.fanout[layer];
        if f == 0 || f >= neigh.len() {
            return neigh.to_vec();
        }
        let mut rng = seeded_rng(self.seed);
        rng.set_stream(mix3(salt, layer as u64, node as u64));
        let mut idx: Vec<usize> = (0..neigh.len()).collect();
        for i in 0..f {
            let j = rng.gen_range(i..idx.len());
            idx.swap(i, j);
        }
        let mut out: Vec<usize> = idx[..f].iter().map(|&i| neigh[i]).collect();
        out.sort_unstable();
        out
    }

    /// Expands `block` (the mini-batch seed nodes) into its layered
    /// computation subgraph.
    ///
    /// Layer-0 samples the seeds' neighborhoods; every node first reached
    /// at layer `l` is expanded once with layer-`l+1` fanout. Nodes first
    /// reached at the deepest layer join the subgraph unexpanded (their
    /// restricted propagation rows carry only the edges to the nodes that
    /// picked them, and the diagonal if the full matrix has one). The
    /// sampled edge set is symmetrized so the restricted GCN/GIN operators
    /// stay symmetric. Each node's inclusion rate is recorded for
    /// [`SubgraphSample::restrict`]: the share of its edges its own
    /// expansion keeps (0 when unexpanded).
    ///
    /// # Panics
    /// If `block` contains an out-of-range or duplicate node id.
    pub fn sample_block(&self, graph: &Graph, salt: u64, block: &[usize]) -> SubgraphSample {
        let n = graph.num_nodes();
        let mut seen = vec![false; n];
        let mut order: Vec<usize> = Vec::with_capacity(block.len());
        for &v in block {
            assert!(v < n, "block node {v} out of range for {n} nodes");
            assert!(!seen[v], "duplicate node {v} in block");
            seen[v] = true;
            order.push(v);
        }
        // (expanded node, its inclusion rate, its sampled global
        // neighbors), one entry per expansion; each node is expanded at
        // most once.
        let mut sampled: Vec<(usize, f32, Vec<usize>)> = Vec::new();
        let mut frontier: Vec<usize> = block.to_vec();
        for (layer, &f) in self.fanout.iter().enumerate() {
            let mut next = Vec::new();
            for &v in &frontier {
                let picks = self.sample_neighbors(graph, salt, layer, v);
                let degree = graph.degree(v);
                let rate = if f == 0 || f >= degree {
                    1.0
                } else {
                    f as f32 / degree as f32
                };
                for &u in &picks {
                    if !seen[u] {
                        seen[u] = true;
                        order.push(u);
                        next.push(u);
                    }
                }
                sampled.push((v, rate, picks));
            }
            frontier = next;
        }
        let mut nodes = order;
        nodes.sort_unstable();
        let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        let mut inclusion = vec![0.0; nodes.len()];
        for (v, rate, picks) in &sampled {
            let lv = local_index(&nodes, *v);
            inclusion[lv] = *rate;
            for &u in picks {
                let lu = local_index(&nodes, u);
                neighbors[lv].push(lu);
                neighbors[lu].push(lv);
            }
        }
        for list in &mut neighbors {
            list.sort_unstable();
            list.dedup();
        }
        let targets = block.iter().map(|&v| local_index(&nodes, v)).collect();
        SubgraphSample {
            nodes,
            targets,
            neighbors,
            inclusion,
        }
    }
}

/// Position of `global` in the sorted `nodes` list.
fn local_index(nodes: &[usize], global: usize) -> usize {
    #[expect(
        clippy::expect_used,
        reason = "`nodes` contains every id inserted by construction"
    )]
    nodes
        .binary_search(&global)
        .expect("node is in the subgraph")
}

/// One mini-batch's computation subgraph: the sampled node set with
/// global↔local remapping, the symmetrized sampled edge set, and each
/// node's inclusion rate.
///
/// Local ids are positions in the ascending global id list, so local id
/// order is monotone in global id order — at infinite fanout over a block
/// covering the whole graph, local and global ids coincide and
/// [`SubgraphSample::restrict`] reproduces the full matrix bit-for-bit.
#[derive(Clone, Debug, PartialEq)]
pub struct SubgraphSample {
    /// Sorted global ids of every node in the subgraph.
    nodes: Vec<usize>,
    /// Local ids of the seed block, in block order.
    targets: Vec<usize>,
    /// Per local node: sorted local ids of its sampled (symmetrized)
    /// neighbors.
    neighbors: Vec<Vec<usize>>,
    /// Per local node: the probability `q` that it keeps any one of its
    /// edges when expanded — 1 at fanout 0 or a fanout ≥ its degree,
    /// `fanout / degree` below that, 0 for a node never expanded.
    inclusion: Vec<f32>,
}

impl SubgraphSample {
    /// Number of nodes in the subgraph.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Sorted global ids of the subgraph's nodes; local id = position.
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// Local ids of the seed block, in the block's original order.
    pub fn targets(&self) -> &[usize] {
        &self.targets
    }

    /// The global id of a local node.
    ///
    /// # Panics
    /// If `local` is out of range.
    pub fn global_of(&self, local: usize) -> usize {
        self.nodes[local]
    }

    /// The local id of a global node, if it is in the subgraph.
    pub fn local_of(&self, global: usize) -> Option<usize> {
        self.nodes.binary_search(&global).ok()
    }

    /// The sampled (symmetrized) neighbors of a local node, ascending.
    pub fn neighbors_of(&self, local: usize) -> &[usize] {
        &self.neighbors[local]
    }

    /// Number of undirected sampled edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Restricts a full-graph propagation matrix (GCN-normalized, row
    /// -normalized, or raw sum adjacency) to the sampled edge set. Each
    /// kept off-diagonal entry `w_vu` is divided by the edge's inclusion
    /// probability `p_vu = 1 − (1 − q_v)(1 − q_u)` (either endpoint's
    /// expansion may have kept it), so every row's restricted aggregate is
    /// an unbiased estimate of its full one. `p_vu` is symmetric, so a
    /// symmetric matrix restricts to a symmetric one and the restriction of
    /// a transpose is the transpose of the restriction; at fanout 0 every
    /// `p_vu` is exactly 1 and the values are the full matrix's, bit for
    /// bit. Diagonal entries of the full matrix are always kept verbatim
    /// (the GCN normalization's self-loop); matrices without a diagonal are
    /// unaffected.
    ///
    /// # Panics
    /// If `full` is not square over the parent graph's node ids.
    pub fn restrict(&self, full: &CsrMatrix) -> CsrMatrix {
        assert_eq!(
            full.rows(),
            full.cols(),
            "propagation matrix must be square"
        );
        let nl = self.nodes.len();
        let mut triplets = Vec::new();
        for (lv, &v) in self.nodes.iter().enumerate() {
            for &lu in &self.neighbors[lv] {
                let w = full.get(v, self.nodes[lu]);
                if w != 0.0 {
                    let p = 1.0 - (1.0 - self.inclusion[lv]) * (1.0 - self.inclusion[lu]);
                    triplets.push((lv, lu, w / p));
                }
            }
            let d = full.get(v, v);
            if d != 0.0 {
                triplets.push((lv, lv, d));
            }
        }
        CsrMatrix::from_triplets(nl, nl, &triplets)
    }

    /// The sampled subgraph as an undirected [`Graph`] over local ids
    /// (needed by the GAT backbone, whose attention walks the adjacency
    /// structure).
    pub fn local_graph(&self) -> Graph {
        let mut b = GraphBuilder::new(self.nodes.len());
        for (lv, list) in self.neighbors.iter().enumerate() {
            for &lu in list {
                if lu > lv {
                    b.add_edge(lv, lu);
                }
            }
        }
        b.build()
    }
}

/// Shards the node set into BFS-grown blocks of at most `batch_nodes`
/// nodes; every node lands in exactly one block and blocks are sorted
/// ascending.
///
/// BFS seeds are visited in ascending `(degree, id)` order — peripheral
/// low-degree nodes start new regions, and the BFS queue persists across
/// block cuts so consecutive blocks tile contiguous regions of the graph
/// (cache-local propagation rows). With `batch_nodes ≥ num_nodes` the
/// single block is exactly `0..num_nodes`.
///
/// # Panics
/// If `batch_nodes` is zero.
pub fn partition(graph: &Graph, batch_nodes: usize) -> Vec<Vec<usize>> {
    assert!(batch_nodes >= 1, "batch_nodes must be at least 1");
    let n = graph.num_nodes();
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.sort_by_key(|&v| (graph.degree(v), v));
    let mut queued = vec![false; n];
    let mut queue = VecDeque::new();
    let mut blocks = Vec::new();
    let mut current: Vec<usize> = Vec::with_capacity(batch_nodes.min(n));
    for &s in &seeds {
        if queued[s] {
            continue;
        }
        queued[s] = true;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            current.push(v);
            if current.len() == batch_nodes {
                current.sort_unstable();
                blocks.push(std::mem::take(&mut current));
            }
            for &u in graph.neighbors(v) {
                if !queued[u] {
                    queued[u] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    if !current.is_empty() {
        current.sort_unstable();
        blocks.push(current);
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::sensitive_sbm;
    use crate::{gcn_normalized_adjacency, row_normalized_adjacency, sum_adjacency};

    fn test_graph() -> Graph {
        let sens: Vec<bool> = (0..45).map(|v| v % 3 == 0).collect();
        sensitive_sbm(&sens, 0.25, 0.05, &mut seeded_rng(11))
    }

    #[test]
    fn partition_is_a_disjoint_cover() {
        let g = test_graph();
        let blocks = partition(&g, 7);
        let mut seen = vec![false; g.num_nodes()];
        for block in &blocks {
            assert!(block.len() <= 7);
            assert!(block.windows(2).all(|w| w[0] < w[1]), "block not sorted");
            for &v in block {
                assert!(!seen[v], "node {v} in two blocks");
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "a node was dropped");
    }

    #[test]
    fn partition_with_large_budget_is_the_identity_block() {
        let g = test_graph();
        let blocks = partition(&g, g.num_nodes() + 5);
        assert_eq!(blocks, vec![(0..g.num_nodes()).collect::<Vec<_>>()]);
    }

    #[test]
    fn sampling_is_pure_and_respects_fanout() {
        let g = test_graph();
        let s = NeighborSampler::new(9, vec![3, 2]);
        for v in 0..g.num_nodes() {
            let a = s.sample_neighbors(&g, 77, 0, v);
            let b = s.sample_neighbors(&g, 77, 0, v);
            assert_eq!(a, b, "sampling is not pure");
            assert_eq!(a.len(), g.degree(v).min(3), "fanout bound violated");
            assert!(a.windows(2).all(|w| w[0] < w[1]), "not sorted/distinct");
            for &u in &a {
                assert!(g.neighbors(v).binary_search(&u).is_ok(), "dangling pick");
            }
        }
    }

    #[test]
    fn zero_fanout_copies_the_neighbor_list() {
        let g = test_graph();
        let s = NeighborSampler::new(0, vec![0]);
        for v in 0..g.num_nodes() {
            assert_eq!(s.sample_neighbors(&g, 5, 0, v), g.neighbors(v));
        }
    }

    #[test]
    fn salt_decorrelates_epochs() {
        let g = test_graph();
        let s = NeighborSampler::new(1, vec![2]);
        let hub = (0..g.num_nodes()).max_by_key(|&v| g.degree(v)).unwrap();
        assert!(g.degree(hub) > 2, "need a node with spare neighbors");
        let across: std::collections::BTreeSet<Vec<usize>> = (0..32)
            .map(|salt| s.sample_neighbors(&g, salt, 0, hub))
            .collect();
        assert!(across.len() > 1, "salt has no effect on sampling");
    }

    #[test]
    fn block_sample_remaps_round_trip() {
        let g = test_graph();
        let s = NeighborSampler::new(4, vec![3, 3]);
        let block = partition(&g, 8).remove(1);
        let sub = s.sample_block(&g, 13, &block);
        for local in 0..sub.num_nodes() {
            assert_eq!(sub.local_of(sub.global_of(local)), Some(local));
        }
        assert_eq!(sub.targets().len(), block.len());
        for (t, &v) in sub.targets().iter().zip(&block) {
            assert_eq!(sub.global_of(*t), v);
        }
        // Every sampled edge is a real edge of the parent graph.
        for lv in 0..sub.num_nodes() {
            let v = sub.global_of(lv);
            for &lu in sub.neighbors_of(lv) {
                let u = sub.global_of(lu);
                assert!(g.has_edge(v, u), "sampled non-edge {v}-{u}");
            }
        }
    }

    #[test]
    fn infinite_fanout_full_block_restricts_to_the_full_matrix() {
        let g = test_graph();
        let s = NeighborSampler::new(0, vec![0]);
        let all: Vec<usize> = (0..g.num_nodes()).collect();
        let sub = s.sample_block(&g, 99, &all);
        assert_eq!(sub.nodes(), &all[..]);
        for full in &[gcn_normalized_adjacency(&g), row_normalized_adjacency(&g)] {
            let local = sub.restrict(full);
            assert_eq!(local.nnz(), full.nnz());
            for r in 0..g.num_nodes() {
                assert_eq!(local.row(r), full.row(r), "row {r} differs");
            }
        }
    }

    #[test]
    fn restriction_weights_kept_edges_by_inverse_inclusion() {
        let g = test_graph();
        let v = (0..g.num_nodes()).max_by_key(|&v| g.degree(v)).unwrap();
        let (f, deg) = (2, g.degree(v));
        assert!(f < deg, "need a node with spare neighbors");
        for full in &[
            gcn_normalized_adjacency(&g),
            row_normalized_adjacency(&g),
            sum_adjacency(&g),
        ] {
            // One seed, one layer: `v` keeps each edge with rate f/deg(v),
            // its picks are never expanded, so p = 1 − (1 − f/deg(v)).
            let sub = NeighborSampler::new(6, vec![f]).sample_block(&g, 21, &[v]);
            let local = sub.restrict(full);
            let lv = sub.local_of(v).unwrap();
            let p = 1.0 - (1.0 - f as f32 / deg as f32);
            let mut kept = 0;
            for (lr, gr) in [(lv, v)].into_iter().chain(
                sub.neighbors_of(lv)
                    .iter()
                    .map(|&lu| (lu, sub.global_of(lu))),
            ) {
                let (cols, vals) = local.row(lr);
                for (&lc, &w) in cols.iter().zip(vals) {
                    let gc = sub.global_of(lc);
                    let want = full.get(gr, gc);
                    if lc == lr {
                        assert_eq!(w.to_bits(), want.to_bits(), "diagonal rescaled");
                        continue;
                    }
                    kept += 1;
                    assert_eq!(w.to_bits(), (want / p).to_bits(), "entry {gr},{gc}");
                    let scaled = want * deg as f32 / f as f32;
                    assert!((w - scaled).abs() <= 1e-6 * scaled.abs(), "{w} vs {scaled}");
                }
            }
            assert_eq!(kept, 2 * f, "each pick is kept in both directions");

            // Fanout 0 keeps the seed's row bitwise.
            let sub = NeighborSampler::new(6, vec![0]).sample_block(&g, 21, &[v]);
            let local = sub.restrict(full);
            let (cols, vals) = local.row(sub.local_of(v).unwrap());
            let globals: Vec<usize> = cols.iter().map(|&c| sub.global_of(c)).collect();
            let (full_cols, full_vals) = full.row(v);
            assert_eq!(globals, full_cols);
            let bits = |x: &[f32]| x.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(vals), bits(full_vals));
        }
    }

    #[test]
    fn local_graph_is_the_symmetrized_sample() {
        let g = test_graph();
        let s = NeighborSampler::new(2, vec![2]);
        let block = partition(&g, 10).remove(0);
        let sub = s.sample_block(&g, 3, &block);
        let lg = sub.local_graph();
        assert_eq!(lg.num_nodes(), sub.num_nodes());
        assert_eq!(lg.num_edges(), sub.num_edges());
        for lv in 0..sub.num_nodes() {
            assert_eq!(lg.neighbors(lv), sub.neighbors_of(lv));
        }
    }
}
