//! Graph traversals: BFS k-hop neighbourhoods and connected components.
//!
//! The paper defines a node's "subgraph" `G_u` as its message-passing
//! receptive field — the k-hop neighbourhood for a k-layer GNN. The
//! counterfactual module compares representations rather than raw subgraphs
//! (paper Eq. 12), but the k-hop extraction is exposed for analysis,
//! visualisation, and tests of the receptive-field argument.

use crate::Graph;
use std::collections::VecDeque;

/// Nodes within `k` hops of `source` (including `source`), in BFS order.
///
/// # Panics
/// If `source` is out of range.
pub fn khop_nodes(g: &Graph, source: usize, k: usize) -> Vec<usize> {
    assert!(
        source < g.num_nodes(),
        "source {source} out of {} nodes",
        g.num_nodes()
    );
    let mut dist = vec![usize::MAX; g.num_nodes()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        if dist[u] == k {
            continue;
        }
        for &v in g.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    order
}

/// The k-hop ego subgraph around `source`: the induced subgraph on
/// [`khop_nodes`] plus the index of `source` inside it.
///
/// # Panics
/// If `source` is out of range.
pub fn khop_subgraph(g: &Graph, source: usize, k: usize) -> (Graph, Vec<usize>, usize) {
    let nodes = khop_nodes(g, source, k);
    let (sub, map) = g.induced_subgraph(&nodes);
    #[expect(
        clippy::expect_used,
        reason = "khop_nodes always includes source, so the lookup cannot fail"
    )]
    let center = map
        .iter()
        .position(|&old| old == source)
        .expect("source is in its own k-hop set");
    (sub, map, center)
}

/// BFS distances from `source`; unreachable nodes get `usize::MAX`.
pub fn bfs_distances(g: &Graph, source: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Connected-component label for each node (labels are `0..num_components`).
pub fn connected_components(g: &Graph) -> (usize, Vec<usize>) {
    let n = g.num_nodes();
    let mut label = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        label[start] = next;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if label[v] == usize::MAX {
                    label[v] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    (next, label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// 0-1-2-3 path plus isolated node 4.
    fn path_plus_isolate() -> Graph {
        GraphBuilder::new(5)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .build()
    }

    #[test]
    fn khop_nodes_radius() {
        let g = path_plus_isolate();
        assert_eq!(khop_nodes(&g, 0, 0), vec![0]);
        assert_eq!(khop_nodes(&g, 0, 1), vec![0, 1]);
        assert_eq!(khop_nodes(&g, 0, 2), vec![0, 1, 2]);
        assert_eq!(khop_nodes(&g, 1, 1), vec![1, 0, 2]);
        assert_eq!(khop_nodes(&g, 4, 3), vec![4]);
    }

    #[test]
    fn khop_subgraph_centers_source() {
        let g = path_plus_isolate();
        let (sub, map, center) = khop_subgraph(&g, 2, 1);
        assert_eq!(map, vec![1, 2, 3]);
        assert_eq!(center, 1);
        assert_eq!(sub.num_edges(), 2);
    }

    #[test]
    fn bfs_distances_unreachable() {
        let g = path_plus_isolate();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[..4], [0, 1, 2, 3]);
        assert_eq!(d[4], usize::MAX);
    }

    #[test]
    fn connected_components_counts() {
        let g = path_plus_isolate();
        let (count, labels) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[3]);
        assert_ne!(labels[0], labels[4]);
    }

    #[test]
    fn single_component_cycle() {
        let g = GraphBuilder::new(4)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .edge(3, 0)
            .build();
        let (count, _) = connected_components(&g);
        assert_eq!(count, 1);
        // Whole graph reachable in 2 hops from any node of a 4-cycle.
        assert_eq!(khop_nodes(&g, 0, 2).len(), 4);
    }
}
