//! The per-graph Algorithm 1 harness shared by the `experiments` sweeps
//! and the workspace tests.
//!
//! Sweeps that time the one-query-at-a-time shape call
//! [`ic_core::Query::solve`], which builds a fresh snapshot per call;
//! Algorithm 1 has no route there (TIC answers its queries), so
//! [`sum_naive`] gives it the same shape. Each call pays the full
//! per-query cost — decomposition included — preserving what the
//! figures have always measured.

use ic_core::{algo, Aggregation, Community, SearchError};
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
