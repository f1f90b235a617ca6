//! k-core substrate for influential community search.
//!
//! The paper's community model (Definition 3) is built on the k-core: every
//! vertex of a community must have at least `k` neighbors inside it. This
//! crate provides:
//!
//! * [`core_decomposition`] — the O(n+m) bucket-peeling algorithm of
//!   Batagelj & Zaveršnik, producing every vertex's core number;
//! * [`kcore_mask`] / [`maximal_kcore_components`] — extraction of the
//!   maximal k-core and its connected components (line 1 of Algorithms 1
//!   and 2 in the paper);
//! * [`PeelArena`] — the zero-rebuild peeling engine: load a community
//!   once, then delete/cascade/rollback in time proportional to the
//!   affected frontier (the inner loop of every solver);
//! * [`PeelScratch`] — the from-scratch counterpart that re-computes the
//!   connected k-cores of a community after deleting a vertex; retained
//!   as the oracle the incremental engine is validated against;
//! * [`degeneracy_order`] — a degeneracy (smallest-last) ordering;
//! * [`GraphSnapshot`] — an immutable, `Arc`-shared weighted graph with
//!   lazily memoized per-`k` core masks/components and the degeneracy
//!   bound, the substrate of the batched query engine (`ic-engine`);
//! * [`ArenaPool`] — a pool recycling warm [`PeelArena`]s across queries
//!   and batches, with [`quarantine`](ArenaPool::quarantine) for arenas
//!   abandoned by a panicking solver;
//! * [`Budget`] — the cooperative deadline flag the resilience layer
//!   threads through every solver hot loop;
//! * [`CoreMaintainer`] — incremental core-number maintenance under
//!   [`EdgeUpdate`]s (subcore traversal), validated against the
//!   from-scratch decomposition by property tests; its
//!   [`decomposition`](CoreMaintainer::decomposition) seeds
//!   [`GraphSnapshot::with_decomposition`] so the mutable engine swaps
//!   snapshots without re-running the bucket peel;
//! * [`ApplyDelta`] — what an apply changed per level, from its journal.
//!
//! # Example
//!
//! ```
//! use ic_graph::graph_from_edges;
//! use ic_kcore::{core_decomposition, maximal_kcore_components};
//!
//! // A triangle with a pendant vertex.
//! let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
//! let cd = core_decomposition(&g);
//! assert_eq!(cd.core_numbers, vec![2, 2, 2, 1]);
//! assert_eq!(maximal_kcore_components(&g, 2), vec![vec![0, 1, 2]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod budget;
mod decompose;
mod degeneracy;
mod delta;
mod extract;
mod maintain;
mod pool;
mod snapshot;

pub use arena::{ArenaImage, PeelArena, Piece, Split};
pub use budget::{Budget, POLL_STRIDE};
pub use decompose::{core_decomposition, CoreDecomposition};
pub use degeneracy::{degeneracy, degeneracy_order};
pub use delta::{ApplyDelta, LevelDelta};
pub use extract::{
    is_kcore, is_kcore_within, kcore_mask, kcore_size, maximal_kcore_components,
    peel_to_kcore_within,
};
pub use maintain::{CascadeRecord, CoreDelta, CoreMaintainer, EdgeUpdate, PeelScratch};
pub use pool::{ArenaPool, PooledArena};
pub use snapshot::{AdjacencyRefused, AdjacencyState, CoreLevel, GraphSnapshot};
