//! The paper's search algorithms.
//!
//! * [`sum_naive_on`] — Algorithm 1 (`SUM-NAÏVE`);
//! * [`tic_improved_on`] — Algorithm 2 (`TIC-IMPROVED`): exact with ε = 0
//!   ("Improve"), (1−ε)-approximate with ε > 0 ("Approx");
//! * [`exact_topr`] / [`exact_naive`] — Algorithm 3 (`TIC-EXACT`) and the
//!   maximality-aware exhaustive oracle;
//! * [`local_search`] — Algorithm 4 with `SumStrategy` / `AvgStrategy`,
//!   greedy or random;
//! * [`min_topr_on`] / [`max_topr_on`] — threshold-peeling baselines for the
//!   node-domination aggregations (prior work: Li et al. VLDB'15);
//! * [`nonoverlap`] — TONIC (non-overlapping) wrappers;
//! * [`par_local_search`] — multi-threaded local search (the paper's
//!   future-work direction).
//!
//! **Deprecation note (PR 3).** These free functions remain the
//! *algorithm* layer, but as serving *entry points* they are
//! soft-deprecated: they recompute the core decomposition per call and
//! know nothing of snapshots, caches, or family merges. New code should
//! route through [`crate::Query`] — `q.solve(&wg)` dispatches to the
//! right algorithm here, `q.solve_on(&snapshot, &mut arena)` reuses
//! memoized k-core state, and `ic_engine::Engine` adds batching,
//! progressive streams ([`Engine::submit`](../../ic_engine/struct.Engine.html#method.submit)),
//! and mutable-graph epochs on top. The routing table lives in one
//! place ([`crate::Query::solver`]); nothing outside this module should
//! hand-dispatch on aggregation again.

mod bb;
mod common;
mod exact;
mod improved;
mod index;
mod local_search;
mod minmax;
pub mod nonoverlap;
pub mod oracle;
mod par;
mod refine;
mod sum_naive;
mod truss;

pub use bb::{bb_avg_topr, bb_topr};
pub use common::ExpansionCounts;
pub use exact::{all_communities, exact_naive, exact_topr};
pub use improved::{tic_improved_on, tic_improved_with_options, ImprovedOptions, TicEmission};
pub use index::{ExtremumIndex, IndexParts, MinCommunityIndex};
pub use local_search::{
    local_search, local_search_nonoverlapping, run_seed, run_seed_multi, LocalScratch,
    LocalSearchConfig, SeedTarget,
};
pub use minmax::{max_topr_multi_on, max_topr_on, min_topr_multi_on, min_topr_on, MinMaxEmission};
pub use par::{decode_ordered_f64, encode_ordered_f64, par_local_search};
pub use refine::{local_search_refined, refine_community};
pub use sum_naive::sum_naive_on;
pub use truss::{truss_min_topr, truss_sum_topr};

// The per-graph free-function entry points (`min_topr`, `max_topr`,
// `sum_naive`, `tic_improved`) were soft-deprecated in PR 3 and removed
// from the public surface in PR 4: route through [`crate::Query::solve`]
// / [`crate::Query::solve_on`] (or `ic_engine::Engine` when serving more
// than one query). They remain the crate-internal algorithm layer the
// router calls.
pub(crate) use improved::tic_improved;
pub(crate) use minmax::{max_topr, min_topr};

pub(crate) use common::community_from_vertices;
