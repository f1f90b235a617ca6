//! Top-r influential community search under aggregation functions.
//!
//! Rust reproduction of *"Finding Top-r Influential Communities under
//! Aggregation Functions"* (ICDE 2022). Given an undirected graph whose
//! vertices carry non-negative influence values, a *k-influential
//! community* (Definition 3 of the paper) is a vertex set `H` such that
//!
//! 1. every vertex of the induced subgraph has degree ≥ `k` (*cohesive*),
//! 2. the induced subgraph is connected (*connected*),
//! 3. no strict superset satisfying 1–2 has the same influence value
//!    (*maximal*),
//!
//! where the influence value `f(H)` is computed by an [`Aggregation`]
//! function: the paper's seven (Table I: `min`, `max`, `sum`,
//! `sum-surplus`, `avg`, `weight density`, `balanced density`), the
//! extension built-ins (`top-t-sum`, `percentile`, `geo-mean`), or any
//! user-defined [`AggregateFn`] registered with [`Aggregation::custom`].
//!
//! # Solvers
//!
//! Queries are routed by the aggregation's declared property
//! [`Certificates`] — see [`Query::solver`] and DESIGN.md §10:
//!
//! | Paper artifact | Entry point | Routed by certificate |
//! |----------------|-------------|------------------------|
//! | Algorithm 1 (`SUM-NAÏVE`) | [`algo::sum_naive_on`] | removal-decreasing |
//! | Algorithm 2 (`TIC-IMPROVED`), ε = 0 "Improve", ε > 0 "Approx" | [`Query::solve`] → [`algo::tic_improved_on`] | removal-decreasing (+ O(1) remove delta for pruning) |
//! | Algorithm 3 (`TIC-EXACT`), a reference only | [`algo::oracle::exact_naive`] / the exhaustive [`algo::oracle::exact_topr`] | not routed; any aggregation, tiny graphs |
//! | Algorithm 4 (`LOCAL SEARCH`) with `SumStrategy`/`AvgStrategy` | [`Query::solve`] → [`algo::local_search`], over the k-core's weight-ordered rows ([`algo::CoreRows`]); each seed's pool is built into a seed-memo entry and replayed, as in the engine | any aggregation, size-constrained (peel extremum `Min` also skips seeds at or under the bar; an entry's value bounds skip the strategies that cannot beat it) |
//! | min/max threshold peel (Li et al. VLDB'15 style) | [`Query::solve`] → [`algo::ExtremumIndex`] | peel extremum |
//! | TONIC (non-overlapping) variants | [`algo::nonoverlap`] | per solver |
//! | Batched local search | `ic_engine::Engine` (one seed walk per `(k, s, greedy)` family over [`algo::run_seed_memo`], replaying a per-snapshot [`algo::SeedMemo`]; families run side by side on its workers) | any aggregation, size-constrained |
//!
//! # Quick start
//!
//! ```
//! use ic_core::{Aggregation, Query};
//! use ic_core::figure1::figure1;
//!
//! // The paper's running example (Figure 1), k = 2: routed onto
//! // TIC-IMPROVED by the sum aggregation's certificates.
//! let wg = figure1();
//! let top = Query::new(2, 2, Aggregation::Sum).solve(&wg).unwrap();
//! assert_eq!(top[0].value, 203.0);          // the whole graph
//! assert_eq!(top[1].value, 195.0);          // everything except v3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod algo;
pub mod certify;
pub mod community;
mod error;
pub mod figure1;
pub mod query;
pub mod verify;

pub use aggregate::{
    AggregateFn, AggregateState, Aggregation, Certificates, CustomAggregation, Extremum, Hardness,
    StateView,
};
pub use community::{Community, TopList};
pub use error::SearchError;
pub use query::{Constraint, Query, Solver};
