//! The unified query vocabulary and the solver routing layer.
//!
//! Until PR 3, the paper's solvers were ~15 positional free functions in
//! [`crate::algo`] and the query vocabulary lived one crate up in
//! `ic-engine` — every caller had to know which algorithm applies to
//! which aggregation. This module is the single place that knowledge
//! lives now:
//!
//! * [`Query`] / [`Constraint`] — what a caller asks for: `(k, r,
//!   aggregation, ε, size constraint)`. Both are `#[non_exhaustive]` so
//!   future fields (weight predicates, non-overlap, …) are not breaking.
//! * [`Query::validate`] — `k = 0`, `r = 0`, ε ∉ [0, 1) (including
//!   NaN), NaN aggregation parameters, and `s ≤ k` are rejected before
//!   the query is planned, by the same check routing runs.
//! * [`Solver`] — the routing decision: which of the paper's algorithms
//!   answers a query. [`Query::solver`] maps the aggregation's declared
//!   [`Certificates`](crate::Certificates) plus `(constraint, ε)` onto
//!   it (and doubles as full validation); [`Query::solve_on`] is the one
//!   dispatch to the algorithm ([`Query::solve`] runs it on a fresh
//!   snapshot), so callers — `ic-engine`'s planner, the examples, the
//!   conformance tests — never hand-dispatch again.
//!
//! This router (or `ic_engine::Engine`, when serving more than one
//! query) is how queries are answered. Because routing reads
//! certificates, a user-defined aggregation registered with
//! [`Aggregation::custom`] is served exactly like a built-in with the
//! same declared properties.
//!
//! ```
//! use ic_core::{Aggregation, Query};
//! use ic_core::figure1::figure1;
//!
//! let wg = figure1();
//! let q = Query::new(2, 2, Aggregation::Sum);
//! q.validate().unwrap();
//! let top = q.solve(&wg).unwrap(); // routed to TIC-IMPROVED
//! assert_eq!(top[0].value, 203.0);
//! ```

use crate::algo::{self, ExtremumIndex, LocalSearchConfig};
use crate::{Aggregation, Community, Extremum, SearchError};
use ic_graph::WeightedGraph;
use ic_kcore::{GraphSnapshot, PeelArena};
use std::time::Duration;

/// One top-r influential community query.
///
/// Construct with [`Query::new`] and its setters (infallible; check
/// with [`Query::validate`], or let routing and planning reject bad
/// parameters per query). The struct is `#[non_exhaustive]`: read the
/// fields freely, but build values through the constructor so future
/// fields stay non-breaking.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Query {
    /// Degree constraint `k` of the community model.
    pub k: usize,
    /// Number of communities to return.
    pub r: usize,
    /// Aggregation function `f`.
    pub aggregation: Aggregation,
    /// Approximation parameter ε for the removal-decreasing
    /// aggregations (`0.0` = exact); must be `0.0` for every other
    /// solver path.
    pub epsilon: f64,
    /// Unconstrained or size-bounded search.
    pub constraint: Constraint,
    /// Optional wall-clock budget, measured from the moment the engine
    /// starts serving the query's batch. `None` = run to completion.
    /// On expiry the engine degrades instead of aborting: exact solvers
    /// return the already-proven rank prefix, approximate/local solvers
    /// return best-so-far, and a query that proved nothing gets a typed
    /// `DeadlineExceeded` error. Direct `solve`/`solve_on` calls ignore
    /// the deadline (they have no degradation channel).
    pub deadline: Option<Duration>,
}

/// Size constraint of a [`Query`].
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Constraint {
    /// Size-unconstrained top-r (polynomial-time aggregations only).
    Unconstrained,
    /// Size-bounded top-r via local search (any aggregation; heuristic).
    SizeBound {
        /// Community size bound `s` (must exceed `k`).
        s: usize,
        /// Greedy (weight-sorted pools) vs Random (BFS-ordered pools).
        greedy: bool,
    },
}

/// Which of the paper's algorithms answers a query — the routing
/// decision of [`Query::solver`]. `#[non_exhaustive]`: match with a
/// wildcard arm outside `ic-core`.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Solver {
    /// Threshold peeling from below (`min`; Li et al. VLDB'15 style).
    MinPeel,
    /// Threshold peeling from above (`max`).
    MaxPeel,
    /// Algorithm 2, exact mode (ε = 0, "Improve").
    TicExact,
    /// Algorithm 2, approximate mode (ε > 0, "Approx", Theorem 6).
    TicApprox,
    /// Algorithm 4, size-constrained local search (NP-hard regime).
    LocalSearch,
}

impl Query {
    /// An exact, unconstrained query. Not validated — call
    /// [`Query::validate`], or rely on routing/planning to reject bad
    /// parameters per query.
    pub fn new(k: usize, r: usize, aggregation: Aggregation) -> Self {
        Query {
            k,
            r,
            aggregation,
            epsilon: 0.0,
            constraint: Constraint::Unconstrained,
            deadline: None,
        }
    }

    /// Sets the approximation parameter ε (Approx mode of Algorithm 2).
    pub fn approx(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Adds a size bound, routing the query through local search.
    pub fn size_bound(mut self, s: usize, greedy: bool) -> Self {
        self.constraint = Constraint::SizeBound { s, greedy };
        self
    }

    /// Arms a wall-clock deadline (see the [`Query::deadline`] field for
    /// the degradation semantics). The clock starts when the engine
    /// begins serving the query's batch.
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Validates the query; equivalent to `self.solver().map(|_| ())`.
    /// Rejects `k = 0`, `r = 0`, ε ∉ [0, 1) (including NaN), NaN
    /// aggregation parameters, `s ≤ k`, and aggregation/constraint
    /// combinations no solver answers.
    pub fn validate(&self) -> Result<(), SearchError> {
        self.solver().map(|_| ())
    }

    /// Routes the query to the algorithm that answers it, validating
    /// every parameter on the way (the single source of truth for both).
    ///
    /// Routing reads the aggregation's declared
    /// [`Certificates`](crate::Certificates), never the enum variants,
    /// so a user-defined [`AggregateFn`](crate::AggregateFn) registered
    /// with [`Aggregation::custom`] routes exactly like a built-in with
    /// the same properties:
    ///
    /// * a declared [`peel_extremum`](crate::Certificates::peel_extremum)
    ///   gets the threshold-peel fast path;
    /// * [`removal_decreasing`](crate::Certificates::removal_decreasing)
    ///   (Corollary 2) gets `TIC-IMPROVED` — with line-13 pruning iff
    ///   [`incremental_removal`](crate::Certificates::incremental_removal)
    ///   is also declared;
    /// * everything else is NP-hard territory: add a size bound to route
    ///   through local search.
    pub fn solver(&self) -> Result<Solver, SearchError> {
        if self.k == 0 {
            return Err(SearchError::InvalidParams(
                "degree constraint k must be positive".into(),
            ));
        }
        if self.r == 0 {
            return Err(SearchError::InvalidParams(
                "result count r must be positive".into(),
            ));
        }
        if let Err(m) = self.aggregation.validate_params() {
            return Err(SearchError::InvalidParams(format!(
                "aggregation {}: {m}",
                self.aggregation.name()
            )));
        }
        let certs = self.aggregation.certificates();
        match self.constraint {
            Constraint::SizeBound { s, .. } => {
                if s <= self.k {
                    return Err(SearchError::InvalidParams(format!(
                        "size bound s = {s} must exceed k = {} (a k-core needs at least k+1 vertices)",
                        self.k
                    )));
                }
                if self.epsilon != 0.0 {
                    return Err(SearchError::InvalidParams(format!(
                        "epsilon = {} is only meaningful for unconstrained sum-like queries",
                        self.epsilon
                    )));
                }
                Ok(Solver::LocalSearch)
            }
            Constraint::Unconstrained => {
                if let Some(extremum) = certs.peel_extremum {
                    if self.epsilon != 0.0 {
                        return Err(SearchError::InvalidParams(format!(
                            "epsilon = {} is only meaningful for unconstrained sum-like queries",
                            self.epsilon
                        )));
                    }
                    Ok(match extremum {
                        Extremum::Min => Solver::MinPeel,
                        Extremum::Max => Solver::MaxPeel,
                    })
                } else if certs.removal_decreasing {
                    if !(0.0..1.0).contains(&self.epsilon) {
                        return Err(SearchError::InvalidParams(format!(
                            "epsilon must be in [0, 1), got {}",
                            self.epsilon
                        )));
                    }
                    Ok(if self.epsilon == 0.0 {
                        Solver::TicExact
                    } else {
                        Solver::TicApprox
                    })
                } else {
                    Err(SearchError::UnsupportedAggregation {
                        algorithm: "Query::solver (unconstrained)",
                        aggregation: self.aggregation,
                        reason:
                            "no polynomial certificate is declared for the unconstrained top-r \
                             problem (it is NP-hard for the paper's remaining aggregations, \
                             Theorems 1, 3); add a size bound to route it through local search",
                    })
                }
            }
        }
    }

    /// Routes and solves the query against `wg`: [`Query::solve_on`] on
    /// a fresh snapshot (its own decomposition) and arena.
    pub fn solve(&self, wg: &WeightedGraph) -> Result<Vec<Community>, SearchError> {
        self.solver()?;
        let snap = GraphSnapshot::new(wg.clone());
        let mut arena = PeelArena::for_graph(snap.graph());
        self.solve_on(&snap, &mut arena)
    }

    /// Routes and solves the query against a memoized [`GraphSnapshot`]
    /// and a caller-owned (typically pooled) arena; the one solver
    /// dispatch. Output depends only on the snapshot's graph.
    pub fn solve_on(
        &self,
        snap: &GraphSnapshot,
        arena: &mut PeelArena,
    ) -> Result<Vec<Community>, SearchError> {
        let peel = |dir| ExtremumIndex::build_on(snap, self.k, dir).topr(snap.weighted(), self.r);
        match self.solver()? {
            Solver::MinPeel => peel(Extremum::Min),
            Solver::MaxPeel => peel(Extremum::Max),
            Solver::TicExact | Solver::TicApprox => {
                algo::tic_improved_on(snap, self.k, self.r, self.aggregation, self.epsilon, arena)
            }
            Solver::LocalSearch => algo::local_search_in(
                snap.weighted(),
                &snap.level(self.k).mask,
                &algo::CoreRows::cached(snap, self.k).0,
                &self.local_search_config(),
                self.aggregation,
            ),
        }
    }

    /// The [`LocalSearchConfig`] of a size-bounded query.
    ///
    /// # Panics
    /// Panics when the query is unconstrained; route through
    /// [`Query::solver`] first.
    pub fn local_search_config(&self) -> LocalSearchConfig {
        match self.constraint {
            Constraint::SizeBound { s, greedy } => LocalSearchConfig {
                k: self.k,
                r: self.r,
                s,
                greedy,
            },
            _ => panic!("local_search_config on an unconstrained query"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::figure1;

    #[test]
    fn builder_accepts_valid_queries() {
        for (q, solver) in [
            (Query::new(2, 3, Aggregation::Sum), Solver::TicExact),
            (
                Query::new(2, 3, Aggregation::Sum).approx(0.25),
                Solver::TicApprox,
            ),
            (
                Query::new(2, 3, Aggregation::Average).size_bound(6, true),
                Solver::LocalSearch,
            ),
            (Query::new(1, 1, Aggregation::Min), Solver::MinPeel),
            (Query::new(1, 1, Aggregation::Max), Solver::MaxPeel),
        ] {
            q.validate().unwrap();
            assert_eq!(q.solver().unwrap(), solver, "{q:?}");
        }
    }

    #[test]
    fn builder_rejects_bad_parameters_at_construction() {
        for (q, why) in [
            (Query::new(0, 3, Aggregation::Min), "k = 0"),
            (Query::new(2, 0, Aggregation::Min), "r = 0"),
            (
                Query::new(2, 3, Aggregation::Sum).approx(f64::NAN),
                "NaN epsilon",
            ),
            (
                Query::new(2, 3, Aggregation::Sum).approx(-0.1),
                "negative epsilon",
            ),
            (
                Query::new(2, 3, Aggregation::Sum).approx(1.0),
                "epsilon = 1",
            ),
            (
                Query::new(2, 3, Aggregation::Min).approx(0.2),
                "epsilon on a node-domination query",
            ),
            (
                Query::new(2, 3, Aggregation::SumSurplus { alpha: f64::NAN }),
                "NaN alpha",
            ),
            (
                Query::new(2, 3, Aggregation::WeightDensity { beta: f64::NAN }).size_bound(6, true),
                "NaN beta",
            ),
            (
                Query::new(4, 3, Aggregation::Sum).size_bound(4, true),
                "s <= k",
            ),
            (
                Query::new(2, 3, Aggregation::Average),
                "NP-hard unconstrained",
            ),
            (
                Query::new(2, 3, Aggregation::BalancedDensity),
                "NP-hard unconstrained",
            ),
        ] {
            assert!(q.validate().is_err(), "{why}");
        }
    }

    #[test]
    fn solve_routes_to_the_same_answers_as_direct_calls() {
        let wg = figure1();
        assert_eq!(
            Query::new(2, 2, Aggregation::Min).solve(&wg).unwrap(),
            ExtremumIndex::build(&wg, 2, Extremum::Min)
                .topr(&wg, 2)
                .unwrap()
        );
        assert_eq!(
            Query::new(2, 4, Aggregation::Max).solve(&wg).unwrap(),
            ExtremumIndex::build(&wg, 2, Extremum::Max)
                .topr(&wg, 4)
                .unwrap()
        );
        assert_eq!(
            Query::new(2, 3, Aggregation::Sum).solve(&wg).unwrap(),
            algo::oracle::tic_improved(&wg, 2, 3, Aggregation::Sum, 0.0).unwrap()
        );
        assert_eq!(
            Query::new(2, 3, Aggregation::Sum)
                .approx(0.1)
                .solve(&wg)
                .unwrap(),
            algo::oracle::tic_improved(&wg, 2, 3, Aggregation::Sum, 0.1).unwrap()
        );
        let cfg = LocalSearchConfig {
            k: 2,
            r: 3,
            s: 5,
            greedy: true,
        };
        assert_eq!(
            Query::new(2, 3, Aggregation::Average)
                .size_bound(5, true)
                .solve(&wg)
                .unwrap(),
            algo::local_search(&wg, &cfg, Aggregation::Average).unwrap()
        );
    }

    #[test]
    fn solve_on_matches_solve() {
        let wg = figure1();
        let snap = GraphSnapshot::new(wg.clone());
        let mut arena = PeelArena::for_graph(snap.graph());
        for q in [
            Query::new(2, 3, Aggregation::Min),
            Query::new(2, 3, Aggregation::Max),
            Query::new(2, 3, Aggregation::Sum),
            Query::new(2, 2, Aggregation::SumSurplus { alpha: 1.0 }).approx(0.2),
            Query::new(2, 2, Aggregation::Average).size_bound(5, false),
            Query::new(2, 3, Aggregation::Sum).size_bound(4, true),
        ] {
            assert_eq!(
                q.solve_on(&snap, &mut arena).unwrap(),
                q.solve(&wg).unwrap(),
                "{q:?}"
            );
        }
    }

    #[test]
    fn invalid_queries_error_on_every_entry_point() {
        let wg = figure1();
        let q = Query::new(2, 0, Aggregation::Min);
        assert!(q.validate().is_err());
        assert!(q.solve(&wg).is_err());
        let snap = GraphSnapshot::new(wg.clone());
        let mut arena = PeelArena::for_graph(snap.graph());
        assert!(q.solve_on(&snap, &mut arena).is_err());
    }
}
