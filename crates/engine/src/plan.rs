//! Query planning: validation, immediate answers, dedup, family
//! merging, and job ordering.
//!
//! The planner turns a batch of [`Query`]s into a list of **jobs** —
//! solver invocations — such that:
//!
//! * invalid queries fail immediately with a per-query error (one bad
//!   query never poisons a batch);
//! * queries with `k` above the snapshot's degeneracy are answered
//!   empty at plan time (the maximal k-core is empty, so the answer is
//!   provably `[]` — no solver run needed);
//! * identical queries share one job (and one result allocation);
//! * every unconstrained query joins one **ranked family** per
//!   `(k, route, deadline)` ([`Job::Ranked`]), answered by one run at the
//!   family's largest `r`. The route is either a read of the snapshot's
//!   memoized extremum community forest — `min`/`max`, every aggregation
//!   certified `peel_extremum` ([`ic_core::algo::ExtremumIndex`],
//!   persisted by `ic-store` or built once per snapshot), **index-served**
//!   in output-sensitive time — or one `TIC-IMPROVED` run (`sum`,
//!   `sum-surplus`). Every solver cuts the top `r` by
//!   `Community::ranking_cmp`, so a top-`r` answer is the length-`r`
//!   prefix of any longer one, value ties included, and a run its
//!   deadline cut short still proves a prefix: the executor slices every
//!   `r` of the family out of the one list. Approximate (ε > 0) answers
//!   depend on `r`, so their key carries it and they never merge across
//!   `r`;
//! * every size-constrained query joins one **local-search family** per
//!   `(k, s, greedy, deadline)` ([`Job::Local`]), one seed walk that
//!   every member's own top-`r` list rides along;
//! * jobs are sorted by `(k, solver kind, parameters)`, so consecutive
//!   jobs reuse the same memoized snapshot level and warm arena;
//! * a snapshot opened from a lazily verified store may still owe the
//!   check of its adjacency arrays. The planner is where that debt is
//!   paid: a query is planned only once the check has passed, unless all
//!   it will do is read an already-memoized forest (which reads no
//!   adjacency). A failed check answers the query
//!   [`EngineError::CorruptStore`] at plan time and plans nothing for it.

use crate::{Constraint, EngineError, Query, QueryAnswer, Solver};
use ic_core::aggregate::canonical_f64_bits;
use ic_core::algo::ExtremumIndex;
use ic_core::{Aggregation, Extremum, SearchError};
use ic_kcore::{AdjacencyState, GraphSnapshot};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Where a job's result goes: query `query` of the batch, and for
/// family jobs which `r`-slot of the family answers it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct JobOutput {
    pub(crate) query: usize,
    pub(crate) slot: usize,
}

/// One member of a [`Job::Local`] family: a distinct `(aggregation, r)`
/// and the queries it answers.
pub(crate) struct LocalMember {
    pub(crate) r: usize,
    pub(crate) aggregation: Aggregation,
    pub(crate) outputs: Vec<JobOutput>,
}

/// How a ranked family computes its list.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Route {
    /// A read of the snapshot's memoized extremum community forest,
    /// bit-identical to the solo peel.
    Forest(Extremum),
    /// One `TIC-IMPROVED` run, exact when `epsilon == 0`.
    Tic {
        aggregation: Aggregation,
        epsilon: f64,
    },
}

/// One executable unit of a plan.
pub(crate) enum Job {
    /// A ranked family: one run of `route` at `max(rs)` returns its
    /// ranked list, and every `r` in `rs` is sliced out of it
    /// (`outputs[i].slot` indexes into `rs`). When deadline-armed, the
    /// run checkpoints one budget, armed at execution start, and a run
    /// cut short returns what it proved.
    Ranked {
        k: usize,
        route: Route,
        rs: Vec<usize>,
        outputs: Vec<JobOutput>,
        deadline: Option<Duration>,
    },
    /// A size-constrained local-search family: queries agreeing on
    /// `(k, s, greedy)` (any aggregation, any `r`) walk the level's seeds
    /// **once**, in ascending order, each member against its own top-`r`
    /// list — Algorithm 4 exactly as `Query::solve` runs it. The seed
    /// pool depends only on `(k, s, greedy)`, so it is built once per
    /// seed for every member, or replayed from the snapshot's seed memo
    /// ([`ic_core::algo::MemoFamily::walk`]). When deadline-armed, the walk
    /// polls one budget, armed at execution start, between seeds.
    Local {
        k: usize,
        s: usize,
        greedy: bool,
        members: Vec<LocalMember>,
        deadline: Option<Duration>,
    },
}

impl Job {
    fn k(&self) -> usize {
        match self {
            Job::Ranked { k, .. } | Job::Local { k, .. } => *k,
        }
    }

    fn sort_key(&self) -> (usize, u8, u64, usize) {
        match self {
            Job::Ranked { k, route, rs, .. } => {
                let (kind, param) = match route {
                    Route::Forest(Extremum::Min) => (0, 0),
                    Route::Forest(Extremum::Max) => (1, 0),
                    Route::Tic {
                        aggregation,
                        epsilon,
                    } => (2 + u8::from(*epsilon > 0.0), aggregation.cache_key().1),
                };
                (*k, kind, param, *rs.last().expect("family is non-empty"))
            }
            Job::Local { k, s, greedy, .. } => (*k, 4, *s as u64, usize::from(*greedy)),
        }
    }
}

/// Summary of what planning did with a batch; exposed through
/// [`Plan::stats`](Plan) for observability and the batch benchmark.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Queries in the batch.
    pub total_queries: usize,
    /// Queries answered at plan time (validation errors,
    /// `k > degeneracy` empties, and result-cache hits).
    pub answered_at_plan: usize,
    /// How many of the plan-time answers were cross-batch result-cache
    /// hits.
    pub cache_hits: usize,
    /// Solver invocations a one-query-at-a-time loop would make for the
    /// plannable queries (= `total_queries - answered_at_plan`).
    pub sequential_runs: usize,
    /// Solver invocations the plan actually makes: one per family job.
    pub solver_runs: usize,
    /// Distinct `k` levels the plan touches.
    pub k_levels: usize,
    /// Queries the plan routes through the snapshot's extremum
    /// community forest (`peel_extremum` certificate, unconstrained):
    /// answered in output-sensitive time from the index — persisted or
    /// built once per snapshot — instead of a fresh peel.
    pub index_routed: usize,
}

/// An executable batch plan. Build with [`crate::Engine::plan`].
pub struct Plan {
    pub(crate) jobs: Vec<Job>,
    /// Results decided at plan time (errors, degeneracy empties, cache
    /// hits), delivered before execution starts.
    pub(crate) immediate: Vec<(usize, crate::cache::Outcome)>,
    /// What planning did; see [`PlanStats`].
    pub stats: PlanStats,
}

/// Hashable identity of a [`Route`]. An approximate TIC key carries the
/// query's `r` (0 for exact runs): ε > 0 output is `r`-dependent by
/// construction, so those runs never merge across `r`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum RouteKey {
    Forest(Extremum),
    Tic { agg: (u8, u64), eps: u64, r: usize },
}

/// Dedup identity of a job: a ranked family per `(k, route, ddl)`, a
/// local-search family per `(k, s, greedy, ddl)`; the `r` spreads live
/// inside the family. `ddl` is the query's deadline in nanoseconds
/// (`u64::MAX` = none), so an armed query never shares a run with an
/// unarmed one — the armed run may stop early and must not drag
/// complete queries down with it.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum JobKey {
    Ranked {
        k: usize,
        route: RouteKey,
        ddl: u64,
    },
    Local {
        k: usize,
        s: usize,
        greedy: bool,
        ddl: u64,
    },
}

/// The deadline component of a [`JobKey`]: nanoseconds, `u64::MAX` for
/// "no deadline" (a real 584-year deadline saturates onto the same key,
/// which merges it with unarmed queries — indistinguishable in
/// practice).
fn ddl_key(q: &Query) -> u64 {
    match q.deadline {
        None => u64::MAX,
        Some(d) => u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
    }
}

/// Validates a query and maps its routing decision ([`Query::solver`] —
/// the single source of dispatch truth since PR 3) onto the planner's
/// job identity: unconstrained queries form ranked families,
/// local-search queries group by `(k, s, greedy)`.
fn validate(q: &Query) -> Result<JobKey, SearchError> {
    let ddl = ddl_key(q);
    let ranked = |route| Ok(JobKey::Ranked { k: q.k, route, ddl });
    let tic = |r| RouteKey::Tic {
        agg: q.aggregation.cache_key(),
        eps: canonical_f64_bits(q.epsilon),
        r,
    };
    match q.solver()? {
        Solver::MinPeel => ranked(RouteKey::Forest(Extremum::Min)),
        Solver::MaxPeel => ranked(RouteKey::Forest(Extremum::Max)),
        Solver::TicExact => ranked(tic(0)),
        Solver::TicApprox => ranked(tic(q.r)),
        // Today LocalSearch routing implies a size bound; if a future
        // `Constraint` variant ever routes here, fail the one query
        // instead of panicking the worker ("one bad query never poisons
        // a batch").
        Solver::LocalSearch => match q.constraint {
            Constraint::SizeBound { s, greedy } => Ok(JobKey::Local {
                k: q.k,
                s,
                greedy,
                ddl,
            }),
            other => Err(SearchError::InvalidParams(format!(
                "the batch planner has no local-search job shape for constraint {other:?}"
            ))),
        },
        other => Err(SearchError::InvalidParams(format!(
            "the batch planner has no job shape for solver {other:?}"
        ))),
    }
}

/// Whether serving the job reads nothing but a forest `snapshot`
/// already holds: the one kind of job that touches no adjacency, armed
/// or not.
fn reads_memoized_forest(snapshot: &GraphSnapshot, key: &JobKey) -> bool {
    match *key {
        JobKey::Ranked {
            k,
            route: RouteKey::Forest(dir),
            ..
        } => ExtremumIndex::peek(snapshot, k, dir).is_some(),
        _ => false,
    }
}

impl Plan {
    pub(crate) fn build(
        snapshot: &GraphSnapshot,
        queries: &[Query],
        cache: Option<&crate::cache::ResultCache>,
    ) -> Plan {
        // A decomposition the store did not carry is computed from
        // adjacency: owed check first.
        let degeneracy: Result<usize, EngineError> = if queries.is_empty() {
            Ok(0)
        } else if snapshot.has_decomposition() {
            Ok(snapshot.degeneracy() as usize)
        } else {
            match snapshot.ensure_adjacency() {
                Ok(()) => Ok(snapshot.degeneracy() as usize),
                Err(refused) => Err(refused.into()),
            }
        };

        let mut immediate: Vec<(usize, crate::cache::Outcome)> = Vec::new();
        let mut cache_hits = 0usize;
        // JobKey -> accumulated members: (query index, query).
        let mut families: HashMap<JobKey, Vec<(usize, Query)>> = HashMap::new();
        let mut order: Vec<JobKey> = Vec::new(); // stable first-seen order

        for (idx, q) in queries.iter().enumerate() {
            let key = match validate(q) {
                Err(e) => {
                    immediate.push((idx, Arc::new(Err(EngineError::Search(e)))));
                    continue;
                }
                Ok(key) => key,
            };
            let degeneracy = match &degeneracy {
                Ok(degeneracy) => *degeneracy,
                Err(refused) => {
                    immediate.push((idx, Arc::new(Err(refused.clone()))));
                    continue;
                }
            };
            if q.k > degeneracy {
                // The maximal k-core is empty: the answer is [] for
                // every solver path, no job needed (and trivially
                // complete under any deadline).
                immediate.push((idx, Arc::new(Ok(QueryAnswer::complete(Vec::new())))));
                continue;
            }
            if let Some(hit) = cache.and_then(|c| c.get(q)) {
                cache_hits += 1;
                immediate.push((idx, hit));
                continue;
            }
            if snapshot.adjacency_state() != AdjacencyState::Verified
                && !reads_memoized_forest(snapshot, &key)
            {
                if let Err(refused) = snapshot.ensure_adjacency() {
                    immediate.push((idx, Arc::new(Err(refused.into()))));
                    continue;
                }
            }
            let entry = families.entry(key).or_insert_with(|| {
                order.push(key);
                Vec::new()
            });
            entry.push((idx, *q));
        }

        let mut jobs: Vec<Job> = Vec::new();
        let mut sequential_runs = 0usize;
        let mut index_routed = 0usize;
        for key in order {
            let members = families.remove(&key).expect("family registered");
            sequential_runs += members.len();
            // All members share one deadline — it is part of the key.
            let (first, deadline) = (members[0].1, members[0].1.deadline);
            match key {
                JobKey::Ranked { k, route, .. } => {
                    let route = match route {
                        RouteKey::Forest(dir) => {
                            index_routed += members.len();
                            Route::Forest(dir)
                        }
                        RouteKey::Tic { .. } => Route::Tic {
                            aggregation: first.aggregation,
                            epsilon: first.epsilon,
                        },
                    };
                    let mut rs: Vec<usize> = members.iter().map(|&(_, q)| q.r).collect();
                    rs.sort_unstable();
                    rs.dedup();
                    let outputs: Vec<JobOutput> = members
                        .iter()
                        .map(|&(query, q)| JobOutput {
                            query,
                            slot: rs.binary_search(&q.r).expect("r registered"),
                        })
                        .collect();
                    jobs.push(Job::Ranked {
                        k,
                        route,
                        rs,
                        outputs,
                        deadline,
                    });
                }
                JobKey::Local { k, s, greedy, .. } => {
                    // Distinct (aggregation, r) members share one
                    // strategy pass; duplicate queries share a member.
                    let mut member_of: HashMap<((u8, u64), usize), usize> = HashMap::new();
                    let mut local: Vec<LocalMember> = Vec::new();
                    for (idx, q) in members {
                        let mk = (q.aggregation.cache_key(), q.r);
                        let mi = *member_of.entry(mk).or_insert_with(|| {
                            local.push(LocalMember {
                                r: q.r,
                                aggregation: q.aggregation,
                                outputs: Vec::new(),
                            });
                            local.len() - 1
                        });
                        local[mi].outputs.push(JobOutput {
                            query: idx,
                            slot: 0,
                        });
                    }
                    jobs.push(Job::Local {
                        k,
                        s,
                        greedy,
                        members: local,
                        deadline,
                    });
                }
            }
        }

        jobs.sort_by_key(|j| j.sort_key());
        let mut k_levels: Vec<usize> = jobs.iter().map(Job::k).collect();
        k_levels.sort_unstable();
        k_levels.dedup();

        let stats = PlanStats {
            total_queries: queries.len(),
            answered_at_plan: immediate.len(),
            cache_hits,
            sequential_runs,
            solver_runs: jobs.len(),
            k_levels: k_levels.len(),
            index_routed,
        };
        Plan {
            jobs,
            immediate,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_core::figure1::figure1;

    fn snap() -> GraphSnapshot {
        GraphSnapshot::new(figure1())
    }

    #[test]
    fn families_collapse_r_variants_and_dedup_repeats() {
        let snap = snap();
        let batch = vec![
            Query::new(2, 5, Aggregation::Min),
            Query::new(2, 1, Aggregation::Min),
            Query::new(2, 5, Aggregation::Min), // exact repeat
            Query::new(2, 5, Aggregation::Max), // different family
            Query::new(2, 5, Aggregation::Sum),
            Query::new(2, 5, Aggregation::Sum), // exact repeat
        ];
        let plan = Plan::build(&snap, &batch, None);
        assert_eq!(plan.stats.total_queries, 6);
        assert_eq!(plan.stats.answered_at_plan, 0);
        assert_eq!(plan.stats.sequential_runs, 6);
        assert_eq!(plan.stats.solver_runs, 3, "min family + max family + sum");
        assert_eq!(plan.stats.k_levels, 1);
        assert_eq!(
            plan.stats.index_routed, 4,
            "built-in min/max queries are forest-served"
        );
    }

    #[test]
    fn builtin_minmax_families_are_marked_indexed() {
        let snap = snap();
        let batch = vec![
            Query::new(2, 3, Aggregation::Min),
            Query::new(2, 1, Aggregation::Min),
            Query::new(2, 2, Aggregation::Max),
        ];
        let plan = Plan::build(&snap, &batch, None);
        assert_eq!(plan.stats.index_routed, 3);
        assert_eq!(plan.stats.solver_runs, 2, "one min and one max family");
    }

    /// A custom `min`: its `peel_extremum` certificate pins its value
    /// to the lightest member's weight bit for bit, so the forest serves
    /// it like the built-in.
    #[derive(Debug)]
    struct CustomMin;

    impl ic_core::AggregateFn for CustomMin {
        fn name(&self) -> &str {
            "custom-min"
        }
        fn certificates(&self) -> ic_core::Certificates {
            Aggregation::Min.certificates()
        }
        fn evaluate(&self, member_weights: &[f64], _total_weight: f64) -> f64 {
            member_weights.iter().copied().fold(f64::INFINITY, f64::min)
        }
        fn evaluate_state(&self, state: &ic_core::StateView<'_>) -> f64 {
            state.min_weight().expect("non-empty state")
        }
    }

    #[test]
    fn custom_minmax_families_are_forest_served() {
        static CUSTOM: std::sync::OnceLock<Aggregation> = std::sync::OnceLock::new();
        let agg = *CUSTOM.get_or_init(|| Aggregation::custom(CustomMin).expect("certifies"));
        let wg = figure1();
        let batch: Vec<Query> = [3, 1, 5, 3].map(|r| Query::new(2, r, agg)).to_vec();
        let plan = Plan::build(&GraphSnapshot::new(wg.clone()), &batch, None);
        assert_eq!(plan.stats.index_routed, 4, "the forest serves the family");
        assert_eq!(plan.stats.solver_runs, 1);

        let engine = crate::Engine::with_threads(wg.clone(), 1);
        for (q, got) in batch.iter().zip(engine.run_batch(&batch)) {
            let want = q.solve(&wg).unwrap();
            assert_eq!(got.unwrap(), want, "r = {}", q.r);
            let builtin = Query::new(q.k, q.r, Aggregation::Min).solve(&wg).unwrap();
            assert_eq!(want, builtin, "r = {}: the same bits as `min`", q.r);
        }
    }

    #[test]
    fn jobs_are_grouped_by_k() {
        let snap = snap();
        let batch = vec![
            Query::new(2, 1, Aggregation::Sum),
            Query::new(1, 1, Aggregation::Min),
            Query::new(2, 1, Aggregation::Min),
            Query::new(1, 1, Aggregation::Sum),
        ];
        let plan = Plan::build(&snap, &batch, None);
        let ks: Vec<usize> = plan.jobs.iter().map(Job::k).collect();
        let mut sorted = ks.clone();
        sorted.sort_unstable();
        assert_eq!(ks, sorted, "jobs must be ordered by k");
        assert_eq!(plan.stats.k_levels, 2);
    }

    #[test]
    fn a_local_family_is_one_job_at_any_thread_count() {
        let wg = figure1();
        let batch = [
            Query::new(2, 2, Aggregation::Average).size_bound(5, true),
            Query::new(2, 4, Aggregation::Sum).size_bound(5, true),
            Query::new(2, 2, Aggregation::Average).size_bound(5, true), // exact repeat
        ];
        let engine = crate::Engine::with_threads(wg, 3);
        let plan = engine.plan(&batch);
        assert_eq!(plan.jobs.len(), 1, "one seed walk for the family");
        assert_eq!(plan.stats.solver_runs, 1);
        match &plan.jobs[0] {
            Job::Local { members, .. } => {
                let outputs: Vec<usize> = members.iter().map(|m| m.outputs.len()).collect();
                assert_eq!(outputs, [2, 1], "duplicates share a member");
            }
            Job::Ranked { .. } => panic!("a size-bounded query plans a local family"),
        }
    }

    #[test]
    fn deadline_armed_queries_merge_only_under_their_own_deadline() {
        let snap = snap();
        let ddl = Duration::from_millis(50);
        let batch = vec![
            Query::new(2, 5, Aggregation::Min),
            Query::new(2, 5, Aggregation::Min).deadline(ddl), // armed: its own family
            Query::new(2, 1, Aggregation::Min).deadline(ddl), // armed, other r: same family
            Query::new(2, 1, Aggregation::Min).deadline(ddl), // exact duplicate: same slot
            Query::new(2, 1, Aggregation::Min).deadline(ddl * 2), // other deadline: own family
        ];
        let plan = Plan::build(&snap, &batch, None);
        assert_eq!(
            plan.stats.solver_runs, 3,
            "unarmed + one family per deadline"
        );
        assert_eq!(
            plan.stats.index_routed, 5,
            "armed queries are forest-served too"
        );
        let armed: Vec<&[usize]> = plan
            .jobs
            .iter()
            .filter_map(|job| match job {
                Job::Ranked {
                    rs,
                    deadline: Some(d),
                    ..
                } if *d == ddl => Some(rs.as_slice()),
                _ => None,
            })
            .collect();
        assert_eq!(armed, [&[1, 5][..]], "one armed family holds both r");
    }

    #[test]
    fn epsilon_variants_are_distinct_jobs() {
        let snap = snap();
        let batch = vec![
            Query::new(2, 3, Aggregation::Sum),
            Query::new(2, 3, Aggregation::Sum).approx(0.1),
            Query::new(2, 3, Aggregation::Sum).approx(0.2),
            Query::new(2, 4, Aggregation::Sum).approx(0.2), // ε > 0: never merged across r
            Query::new(2, 4, Aggregation::Sum).approx(0.2), // exact duplicate: shares
        ];
        let plan = Plan::build(&snap, &batch, None);
        assert_eq!(plan.stats.solver_runs, 4);
    }

    #[test]
    fn an_unarmed_batch_of_every_route_plans_one_run_per_family() {
        let snap = snap();
        let mut batch = Vec::new();
        for k in [1, 2] {
            for r in [1, 3, 5] {
                batch.push(Query::new(k, r, Aggregation::Min));
                batch.push(Query::new(k, r + 1, Aggregation::Max));
                batch.push(Query::new(k, r, Aggregation::Sum));
                batch.push(Query::new(k, r, Aggregation::SumSurplus { alpha: 0.5 }));
                batch.push(Query::new(k, r, Aggregation::Average).size_bound(4, true));
            }
            for r in [2, 4, 4] {
                batch.push(Query::new(k, r, Aggregation::Sum).approx(0.1));
            }
        }
        batch.push(Query::new(99, 2, Aggregation::Sum)); // above the degeneracy
        batch.push(Query::new(2, 0, Aggregation::Min)); // invalid
        let stats = Plan::build(&snap, &batch, None).stats;
        let want = PlanStats {
            total_queries: 38,
            answered_at_plan: 2,
            cache_hits: 0,
            sequential_runs: 36,
            // Per k: min, max, sum, sum-surplus, local search, and the
            // two ε runs (r = 2 and r = 4, the repeat sharing).
            solver_runs: 14,
            k_levels: 2,
            index_routed: 12,
        };
        assert_eq!(stats, want);
    }
}
