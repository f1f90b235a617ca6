//! Synthetic graph and weight generators.
//!
//! The paper evaluates on six SNAP graphs (Email, DBLP, Youtube, Orkut,
//! LiveJournal, FriendSter) and an Aminer co-authorship network. Those
//! downloads are unavailable offline, so this crate builds seeded synthetic
//! analogs that preserve the *mechanisms* the paper's experiments measure:
//! heavy-tailed degree distributions (which drive k-core sizes and
//! algorithm trends), community structure, and PageRank-derived influence
//! values. See `DESIGN.md` §3 for the substitution rationale.
//!
//! Everything is deterministic given a seed.
//!
//! # Example
//!
//! ```
//! use ic_gen::{chung_lu, GraphSeed};
//!
//! let g = chung_lu(1000, 3000, 2.5, GraphSeed(7));
//! assert_eq!(g.num_vertices(), 1000);
//! // Edge count is close to (slightly under, due to collisions) the target.
//! assert!(g.num_edges() > 2000 && g.num_edges() <= 3000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aminer;
mod ba;
mod chunglu;
pub mod datasets;
mod er;
mod planted;
mod sampling;
pub mod stream;
mod weights;

pub use aminer::{aminer_network, AminerNetwork, PlantedGroup};
pub use ba::barabasi_albert;
pub use chunglu::chung_lu;
pub use er::gnm;
pub use planted::{planted_partition, PlantedPartitionConfig};
pub use sampling::AliasTable;
pub use stream::{stream_graph, StreamSpec};
pub use weights::{pagerank_weights, pareto_weights, rank_weights, uniform_weights};

/// Newtype for generator seeds, to keep call sites self-documenting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphSeed(pub u64);
