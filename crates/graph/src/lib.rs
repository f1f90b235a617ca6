//! Graph substrate for top-r influential community search.
//!
//! This crate provides the foundation every other crate in the workspace is
//! built on: a compact CSR (compressed sparse row) representation of
//! undirected graphs, a deduplicating builder, vertex bitsets, traversal,
//! connected components, union-find, subgraph induction, statistics, and
//! text I/O (binary persistence lives in the `ic-store` crate).
//!
//! The representation is deliberately simple and cache-friendly: vertices are
//! dense `u32` identifiers in `0..n`, adjacency lists are sorted slices, and
//! all per-vertex state used by the algorithms in sibling crates lives in
//! flat arrays indexed by vertex id.
//!
//! # Example
//!
//! ```
//! use ic_graph::{GraphBuilder, WeightedGraph};
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 0);
//! let g = b.build();
//! assert_eq!(g.num_vertices(), 3);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.degree(1), 2);
//!
//! let wg = WeightedGraph::new(g, vec![1.0, 2.0, 3.0]).unwrap();
//! assert_eq!(wg.total_weight(), 6.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod builder;
mod components;
mod csr;
mod error;
pub mod io;
pub mod stats;
mod subgraph;
mod traverse;
mod unionfind;
mod weighted;

pub use bitset::BitSet;
pub use builder::{graph_from_edges, GraphBuilder};
pub use components::{
    component_of, connected_components, connected_components_within, is_connected,
    is_connected_within, largest_component, ComponentLabels,
};
pub use csr::Graph;
pub use error::GraphError;
pub use subgraph::{induce, InducedSubgraph};
pub use traverse::Bfs;
pub use unionfind::UnionFind;
pub use weighted::WeightedGraph;

/// Dense vertex identifier. Vertices of a [`Graph`] with `n` vertices are
/// exactly the ids `0..n`.
pub type VertexId = u32;
