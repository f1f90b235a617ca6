//! Vertex influence measures.
//!
//! The paper assigns every vertex an *influence value*; its experiments use
//! PageRank with damping 0.85 (Section VI), and the introduction motivates
//! other choices such as degree. Any `Vec<f64>` over the vertices plugs
//! into the community-search algorithms as the weight function `w`; this
//! crate implements the two the reproduction uses.
//!
//! # Example
//!
//! ```
//! use ic_graph::graph_from_edges;
//! use ic_centrality::{pagerank, PageRankConfig};
//!
//! let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
//! let pr = pagerank(&g, &PageRankConfig::default());
//! // The middle vertex of a path is the most central.
//! assert!(pr[1] > pr[0] && pr[1] > pr[2]);
//! // PageRank is a probability distribution.
//! assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod degree;
mod pagerank;

pub use degree::degree_centrality;
pub use pagerank::{pagerank, PageRankConfig};
