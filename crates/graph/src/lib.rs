//! Graph representation and kernels for the Fairwos reproduction.
//!
//! Provides the substrate the paper's GNNs run on:
//!
//! * [`Graph`] — an undirected attributed graph in CSR form, built from an
//!   edge list ([`GraphBuilder`]). Message passing iterates a node's
//!   neighbours as one contiguous slice.
//! * [`CsrMatrix`] — a general sparse matrix with values, used for the
//!   symmetrically normalized adjacency `Â = D̃^{-1/2}(A+I)D̃^{-1/2}`
//!   ([`gcn_normalized_adjacency`]) and its sparse–dense products
//!   ([`CsrMatrix::spmm`]).
//! * Random-graph generators ([`generate`]) — Erdős–Rényi and a
//!   sensitive-homophily stochastic block model, the structural bias source
//!   of the synthetic benchmarks.
//! * Traversals ([`traversal`]) — BFS k-hop neighbourhoods (the paper's
//!   "subgraph of node u") and connected components.
//!
//! ```
//! use fairwos_graph::{GraphBuilder, gcn_normalized_adjacency};
//! use fairwos_tensor::Matrix;
//!
//! let g = GraphBuilder::new(3).edge(0, 1).edge(1, 2).build();
//! assert_eq!(g.degree(1), 2);
//! let a_hat = gcn_normalized_adjacency(&g);
//! let x = Matrix::eye(3);
//! let h = a_hat.spmm(&x); // one GCN propagation of identity features
//! assert_eq!(h.shape(), (3, 3));
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation
)]

mod cache;
mod csr;
pub mod generate;
mod graph;
pub mod metrics;
mod norm;
pub mod sampling;
pub mod traversal;

pub use cache::AdjacencyCache;
pub use csr::CsrMatrix;
pub use graph::{Graph, GraphBuilder};
pub use norm::{gcn_normalized_adjacency, row_normalized_adjacency, sum_adjacency};
pub use sampling::{partition, NeighborSampler, SubgraphSample};
