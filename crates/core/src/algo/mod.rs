//! The paper's search algorithms.
//!
//! * [`sum_naive_on`] — Algorithm 1 (`SUM-NAÏVE`);
//! * [`tic_improved_on`] — Algorithm 2 (`TIC-IMPROVED`): exact with ε = 0
//!   ("Improve"), (1−ε)-approximate with ε > 0 ("Approx");
//! * [`local_search`] — Algorithm 4 with `SumStrategy` / `AvgStrategy`,
//!   greedy or random. Every walk expands a seed the same way: its pool
//!   is built into a seed-memo entry and the strategies replay it; the
//!   engine's walks ([`run_seed_memo`]) keep the entries in a
//!   [`SeedMemo`], the others drop them;
//! * [`ExtremumIndex`] — the threshold peel for the node-domination
//!   aggregations `min` and `max` (prior work: Li et al. VLDB'15), linked
//!   into a community forest that every `r` reads;
//! * [`nonoverlap`] — TONIC (non-overlapping) wrappers.
//!
//! [`oracle`] holds the reference solvers no query routes to: Algorithm 3
//! (`TIC-EXACT`, [`oracle::exact_naive`]), which the paper gives only to
//! motivate the heuristics, the maximality-aware exhaustive
//! [`oracle::exact_topr`], the from-scratch re-peel forms of the arena
//! solvers, and the paper-printed [`oracle::local_search`].
//!
//! These free functions are the *algorithm* layer; they know nothing of
//! caches or family merges. Serving code routes through [`crate::Query`]
//! — `q.solve(&wg)` dispatches to the right algorithm here,
//! `q.solve_on(&snapshot, &mut arena)` reuses memoized k-core state, and
//! `ic_engine::Engine` adds batching, deadline-armed certified prefixes
//! and mutable-graph epochs on top. The routing table lives in one
//! place ([`crate::Query::solver`]); nothing outside this module should
//! hand-dispatch on aggregation again.

mod common;
// The exhaustive solvers, public only as `oracle::{exact_topr, …}`.
mod exact;
mod improved;
mod index;
mod local_search;
mod minmax;
pub mod nonoverlap;
pub mod oracle;
mod seed_memo;
mod sum_naive;

pub use common::ExpansionCounts;
pub use improved::{tic_improved_on, TicSearch};
pub use index::{ExtremumIndex, IndexParts};
pub use local_search::{
    local_search, local_search_nonoverlapping, CoreRows, LocalScratch, LocalSearchConfig,
    SeedTarget,
};
pub use seed_memo::{run_seed_memo, Carried, MemoFamily, SeedMemo, SeedVisit};
pub use sum_naive::sum_naive_on;

pub(crate) use local_search::local_search_in;

pub(crate) use common::community_from_vertices;
