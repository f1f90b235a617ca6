//! Per-graph solver harnesses shared by the `experiments` sweeps and the
//! workspace tests.
//!
//! The per-graph free-function entry points (`min_topr`, `sum_naive`,
//! `tic_improved`, …) were removed from `ic-core`'s public API in PR 4;
//! sweeps that time the one-query-at-a-time shape route through the
//! certificate-driven [`Query`] router (or the snapshot entry point for
//! Algorithm 1, which the router does not serve — TIC answers its
//! queries). Each call pays the full per-query cost — decomposition
//! included — preserving what the figures have always measured.

use ic_core::{algo, Aggregation, Community, Query, SearchError};
use ic_graph::WeightedGraph;
use ic_kcore::{GraphSnapshot, PeelArena};

/// `Result` alias shared by the harnesses.
pub type Solved = Result<Vec<Community>, SearchError>;

/// Algorithm 1 (`SUM-NAÏVE`) on a fresh snapshot + arena per call.
pub fn sum_naive(wg: &WeightedGraph, k: usize, r: usize, agg: Aggregation) -> Solved {
    let snap = GraphSnapshot::new(wg.clone());
    let mut arena = PeelArena::for_graph(snap.graph());
    algo::sum_naive_on(&snap, k, r, agg, &mut arena)
}

/// Algorithm 2 (`TIC-IMPROVED`; ε = 0 exact, ε > 0 Approx) through the
/// router, fresh decomposition per call.
pub fn tic_improved(wg: &WeightedGraph, k: usize, r: usize, agg: Aggregation, eps: f64) -> Solved {
    Query::new(k, r, agg).approx(eps).solve(wg)
}

/// The `min`-peeling baseline through the router, fresh decomposition
/// per call.
pub fn min_topr(wg: &WeightedGraph, k: usize, r: usize) -> Solved {
    Query::new(k, r, Aggregation::Min).solve(wg)
}
