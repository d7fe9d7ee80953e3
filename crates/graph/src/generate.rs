//! Random-graph generators.
//!
//! Two families:
//!
//! * [`erdos_renyi`] — the null model, used by tests and micro-benchmarks.
//! * [`sensitive_sbm`] — a two-block stochastic block model whose blocks are
//!   the *sensitive groups*. This is the structural half of the bias model
//!   behind every synthetic benchmark: real fairness datasets exhibit
//!   *sensitive homophily* (same-group nodes link more often), which is how
//!   a GNN's message passing leaks the hidden sensitive attribute even when
//!   the attribute itself is absent from the features.

use crate::{Graph, GraphBuilder};
use fairwos_tensor::FairRng;

/// Erdős–Rényi `G(n, p)`: every unordered pair is an edge independently with
/// probability `p`.
///
/// Sampling uses geometric skips, so the cost is `O(n + |E|)` rather than
/// `O(n²)` — `G(n, p)` at Table-I scale (30k nodes) stays fast.
///
/// # Panics
/// If `p` is outside `[0, 1]`.
pub fn erdos_renyi(n: usize, p: f64, rng: &mut FairRng) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p = {p} outside [0, 1]");
    let mut b = GraphBuilder::new(n);
    sample_pairs_within(&(0..n).collect::<Vec<_>>(), p, rng, &mut b);
    b.build()
}

/// The unordered pairs `(u, v)`, `u < v < m`, at the ascending linear
/// `indices` of the row-major enumeration (row `u` holds the `m - 1 - u`
/// pairs `(u, u + 1..m)`).
///
/// The walk keeps the current row and the index of its first pair and
/// only moves forward, so decoding all of `indices` costs `O(m + |indices|)`.
fn pairs_at(
    m: usize,
    indices: impl IntoIterator<Item = usize>,
) -> impl Iterator<Item = (usize, usize)> {
    let (mut u, mut row_start) = (0, 0);
    indices.into_iter().map(move |idx| {
        debug_assert!(idx >= row_start, "indices must ascend");
        while idx - row_start >= m - 1 - u {
            row_start += m - 1 - u;
            u += 1;
        }
        (u, u + 1 + idx - row_start)
    })
}

/// Two-block stochastic block model keyed by a binary sensitive attribute.
///
/// `sens[v] ∈ {0, 1}` assigns each node to a block; same-block pairs link
/// with probability `p_intra`, cross-block pairs with `p_inter`.
/// `p_intra > p_inter` produces sensitive homophily; the ratio controls how
/// much structure leaks the hidden attribute.
///
/// # Panics
/// If `p_intra` or `p_inter` is outside `[0, 1]`.
pub fn sensitive_sbm(sens: &[bool], p_intra: f64, p_inter: f64, rng: &mut FairRng) -> Graph {
    assert!((0.0..=1.0).contains(&p_intra) && (0.0..=1.0).contains(&p_inter));
    let n = sens.len();
    let mut b = GraphBuilder::new(n);
    // Each stratum (the two blocks, then the cross pairs) is sampled by
    // geometric skips, in time linear in its nodes and edges.
    let groups: [Vec<usize>; 2] = {
        let mut g0 = Vec::new();
        let mut g1 = Vec::new();
        for (v, &s) in sens.iter().enumerate() {
            if s {
                g1.push(v)
            } else {
                g0.push(v)
            }
        }
        [g0, g1]
    };
    // Intra-block edges for each group.
    for group in &groups {
        sample_pairs_within(group, p_intra, rng, &mut b);
    }
    // Inter-block edges.
    sample_pairs_between(&groups[0], &groups[1], p_inter, rng, &mut b);
    b.build()
}

/// Samples Bernoulli(`p`) edges among all unordered pairs within `nodes`,
/// adding them to `b`, in time linear in `nodes` and the edges drawn.
/// Exposed for stratified generators (the synthetic benchmarks sample
/// edges per (sensitive, label) stratum).
pub fn sample_pairs_within(nodes: &[usize], p: f64, rng: &mut FairRng, b: &mut GraphBuilder) {
    let m = nodes.len();
    if m < 2 || p.is_nan() || p <= 0.0 {
        return;
    }
    let total = m * (m - 1) / 2;
    for (i, j) in pairs_at(m, sample_indices(total, p, rng)) {
        b.add_edge(nodes[i], nodes[j]);
    }
}

/// Samples Bernoulli(`p`) edges among all pairs between the disjoint node
/// sets `a` and `c`, adding them to `b`.
pub fn sample_pairs_between(
    a: &[usize],
    c: &[usize],
    p: f64,
    rng: &mut FairRng,
    b: &mut GraphBuilder,
) {
    if a.is_empty() || c.is_empty() || p.is_nan() || p <= 0.0 {
        return;
    }
    let total = a.len() * c.len();
    for idx in sample_indices(total, p, rng) {
        b.add_edge(a[idx / c.len()], c[idx % c.len()]);
    }
}

/// Indices of successes among `total` Bernoulli(p) trials via geometric skips.
///
/// `ln(1 - p)` is taken as `ln_1p(-p)`: `(1 - p).ln()` rounds to `0` for
/// `p < 2⁻⁵³`, which would make every skip `0` and every pair a success.
fn sample_indices(total: usize, p: f64, rng: &mut FairRng) -> Vec<usize> {
    if p >= 1.0 {
        return (0..total).collect();
    }
    let log_q = (-p).ln_1p();
    let mut out = Vec::new();
    let mut idx: u64 = 0;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the skip is a non-negative whole number; past u64::MAX the cast saturates and the walk ends"
        )]
        let skip = (u.ln() / log_q).floor() as u64;
        idx = idx.saturating_add(skip).saturating_add(1);
        if idx > total as u64 {
            break;
        }
        debug_assert!(idx - 1 < total as u64);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "idx ≤ total ≤ usize::MAX here, so the cast cannot truncate"
        )]
        out.push((idx - 1) as usize);
    }
    out
}

/// Fraction of edges whose endpoints share the sensitive attribute.
/// 0.5 means no homophily; 1.0 means perfectly segregated.
///
/// # Panics
/// If `sens.len()` differs from the node count.
pub fn sensitive_homophily(g: &Graph, sens: &[bool]) -> f64 {
    assert_eq!(sens.len(), g.num_nodes());
    let mut same = 0usize;
    let mut total = 0usize;
    for (u, v) in g.edges() {
        total += 1;
        if sens[u] == sens[v] {
            same += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        same as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairwos_tensor::seeded_rng;

    /// The per-index decoder `pairs_at` replaced: it walks the rows from 0
    /// for every index.
    fn pair_from_index(n: usize, idx: usize) -> (usize, usize) {
        let mut remaining = idx;
        for u in 0..n {
            let row = n - 1 - u;
            if remaining < row {
                return (u, u + 1 + remaining);
            }
            remaining -= row;
        }
        unreachable!("index {idx} out of range for n = {n}")
    }

    #[test]
    fn pair_walk_matches_the_per_index_decoder() {
        let mut rng = seeded_rng(12);
        for m in 0..=40usize {
            let total = m * m.saturating_sub(1) / 2;
            let all: Vec<(usize, usize)> = pairs_at(m, 0..total).collect();
            let want: Vec<(usize, usize)> = (0..total).map(|idx| pair_from_index(m, idx)).collect();
            assert_eq!(all, want, "m = {m}, every pair");
            assert!(
                all.windows(2).all(|w| w[0] < w[1]) && all.iter().all(|&(u, v)| u < v && v < m)
            );
            for p in [0.02, 0.3, 0.9] {
                let indices = sample_indices(total, p, &mut rng);
                let got: Vec<(usize, usize)> = pairs_at(m, indices.iter().copied()).collect();
                let want: Vec<(usize, usize)> =
                    indices.iter().map(|&idx| pair_from_index(m, idx)).collect();
                assert_eq!(got, want, "m = {m}, p = {p}");
            }
        }
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = seeded_rng(7);
        let empty = erdos_renyi(10, 0.0, &mut rng);
        assert_eq!(empty.num_edges(), 0);
        let complete = erdos_renyi(10, 1.0, &mut rng);
        assert_eq!(complete.num_edges(), 45);
        // A `p` below 2⁻⁵³ or a NaN `p` must not collapse to the complete
        // graph (`(1 - p).ln()` is `0` there, and NaN passed `p <= 0`).
        let nodes: Vec<usize> = (0..10).collect();
        for (p, edges) in [(0.0, 0), (1e-17, 0), (f64::NAN, 0), (1.0, 45)] {
            let mut b = GraphBuilder::new(10);
            sample_pairs_within(&nodes, p, &mut rng, &mut b);
            assert_eq!(b.build().num_edges(), edges, "within, p = {p}");
            let mut b = GraphBuilder::new(10);
            sample_pairs_between(&nodes[..5], &nodes[5..], p, &mut rng, &mut b);
            assert_eq!(b.build().num_edges(), edges.min(25), "between, p = {p}");
        }
        assert_eq!(erdos_renyi(10, 1e-17, &mut rng).num_edges(), 0);
    }

    #[test]
    fn erdos_renyi_density_close_to_p() {
        let mut rng = seeded_rng(8);
        let n = 300;
        let p = 0.05;
        let g = erdos_renyi(n, p, &mut rng);
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.num_edges() as f64;
        assert!(
            (got - expected).abs() < 0.15 * expected,
            "edges {got} vs expected {expected}"
        );
    }

    #[test]
    fn erdos_renyi_deterministic_given_seed() {
        let a = erdos_renyi(50, 0.1, &mut seeded_rng(3));
        let b = erdos_renyi(50, 0.1, &mut seeded_rng(3));
        assert_eq!(a, b);
    }

    #[test]
    fn sbm_produces_homophily() {
        let mut rng = seeded_rng(9);
        let sens: Vec<bool> = (0..400).map(|i| i % 2 == 0).collect();
        let g = sensitive_sbm(&sens, 0.05, 0.005, &mut rng);
        let h = sensitive_homophily(&g, &sens);
        assert!(h > 0.8, "homophily {h} too low for 10:1 intra/inter ratio");
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn sbm_no_homophily_when_rates_equal() {
        let mut rng = seeded_rng(10);
        let sens: Vec<bool> = (0..400).map(|i| i % 2 == 0).collect();
        let g = sensitive_sbm(&sens, 0.02, 0.02, &mut rng);
        let h = sensitive_homophily(&g, &sens);
        assert!((h - 0.5).abs() < 0.1, "homophily {h} should be ~0.5");
    }

    #[test]
    fn sbm_handles_single_group() {
        let mut rng = seeded_rng(11);
        let sens = vec![false; 20];
        let g = sensitive_sbm(&sens, 0.3, 0.9, &mut rng);
        assert!(g.num_edges() > 0);
        assert_eq!(sensitive_homophily(&g, &sens), 1.0);
    }

    #[test]
    fn homophily_empty_graph_is_zero() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(sensitive_homophily(&g, &[true, false, true]), 0.0);
    }
}
