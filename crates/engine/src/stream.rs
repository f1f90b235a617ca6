//! Progressive query sessions: the pull-based [`ResultStream`] behind
//! [`Engine::submit`](crate::Engine::submit).
//!
//! A stream owns everything it needs — an `Arc` of the snapshot it was
//! submitted against, an `Arc` of that epoch's arena pool, and (for the
//! live solver paths) a peel arena taken from the pool — so it has no
//! lifetime ties to the engine and survives a concurrent
//! [`Engine::apply`](crate::Engine::apply) untouched (snapshot
//! isolation). Dropping the stream abandons whatever work remains and
//! hands the arena back to the pool: cancellation is free and
//! allocation-free in steady state.
//!
//! Four emission states implement the same contract (any prefix of the
//! stream ≡ the same-length prefix of `run_batch`, bit for bit):
//!
//! | query | state | first result costs |
//! |-------|-------|--------------------|
//! | `min`/`max` | [`MinMaxEmission`] | one stamped peel + one BFS |
//! | exact sum-like | [`TicEmission`] | the confirmations needed to *prove* rank 1 |
//! | approximate (ε > 0) | buffered | the full run (early-accepts break rank order) |
//! | size-constrained | buffered | the full batched execution (see below) |
//!
//! Size-constrained (local search) queries have no incremental hook, so
//! `submit` runs them through the **same** plan/execute machinery as
//! `run_batch` — same worker count, same chunked seed walk, same result
//! cache — and buffers the outcome. Prefix equality with `run_batch` is
//! then by construction (and, across calls, by the shared epoch-tagged
//! cache entry both read).
//!
//! A live stream that is **fully drained** records its result in the
//! engine's epoch-tagged cache — a popular query served through
//! `submit` is memoized exactly like one served through `run_batch`. A
//! cancelled (partially pulled) stream caches nothing: it never
//! computed the full answer.

use crate::cache::ResultCache;
use crate::plan::Plan;
use crate::{exec, Epoch, Query, QueryAnswer, Solver};
use ic_core::algo::{MinMaxEmission, TicEmission};
use ic_core::{Community, Extremum, SearchError};
use ic_kcore::{ArenaPool, Budget, GraphSnapshot, PeelArena};
use std::sync::Arc;

enum StreamState {
    /// Result already known in full (cache hits, degeneracy
    /// short-circuits, buffered solver paths).
    Buffered(std::vec::IntoIter<Community>),
    /// Progressive min/max peel (arena already returned; pulls are BFS
    /// walks over the stamped timeline).
    MinMax(MinMaxEmission),
    /// Progressive TIC-IMPROVED; the search advances per pull on the
    /// stream's arena.
    Tic(TicEmission),
}

/// A progressive query session: communities of one query, yielded in
/// final rank order. Created by [`Engine::submit`](crate::Engine::submit);
/// see there for the contract. Implements [`Iterator`], so
/// `stream.take(n)`, `collect()`, and early `drop` all behave as
/// expected.
pub struct ResultStream {
    snapshot: Arc<GraphSnapshot>,
    epoch: Epoch,
    query: Query,
    state: StreamState,
    /// Pool of the epoch the stream was submitted under, plus the arena
    /// borrowed from it for the lifetime of a live TIC run.
    arenas: Option<Arc<ArenaPool>>,
    arena: Option<PeelArena>,
    /// Engine result cache + everything pulled so far; on full drain of
    /// a live stream, the collected list is memoized (it equals the
    /// `run_batch` answer bit for bit).
    cache: Option<Arc<ResultCache>>,
    collected: Vec<Community>,
}

impl ResultStream {
    /// A stream over an already-complete result list (cache hits,
    /// degeneracy short-circuits, buffered solver paths — nothing left
    /// to memoize).
    pub(crate) fn buffered(
        snapshot: Arc<GraphSnapshot>,
        epoch: Epoch,
        query: Query,
        items: Vec<Community>,
    ) -> Self {
        ResultStream {
            snapshot,
            epoch,
            query,
            state: StreamState::Buffered(items.into_iter()),
            arenas: None,
            arena: None,
            cache: None,
            collected: Vec::new(),
        }
    }

    /// Opens a session for a validated, routed query.
    pub(crate) fn open(
        snapshot: Arc<GraphSnapshot>,
        arenas: Arc<ArenaPool>,
        epoch: Epoch,
        query: Query,
        solver: Solver,
        threads: usize,
        cache: Arc<ResultCache>,
    ) -> Result<Self, SearchError> {
        match solver {
            Solver::MinPeel | Solver::MaxPeel => {
                // The stamped pass needs the arena only inside `start`;
                // it goes straight back to the pool. A query deadline
                // bounds that pass — an expired pass proves no ranking,
                // so the submit itself fails typed. Pulls after a
                // successful start are consumer-paced and not bounded.
                let mut arena = arenas.take_arena();
                let dir = if solver == Solver::MinPeel {
                    Extremum::Min
                } else {
                    Extremum::Max
                };
                let budget = query.deadline.map(|d| Arc::new(Budget::within(d)));
                let started = MinMaxEmission::start(
                    &snapshot,
                    query.k,
                    query.r,
                    dir,
                    &mut arena,
                    budget.as_ref(),
                );
                arenas.put_arena(arena);
                let emission = started?.ok_or(SearchError::DeadlineExceeded)?;
                Ok(ResultStream {
                    snapshot,
                    epoch,
                    query,
                    state: StreamState::MinMax(emission),
                    arenas: None,
                    arena: None,
                    cache: Some(cache),
                    collected: Vec::new(),
                })
            }
            Solver::TicExact | Solver::TicApprox => {
                let mut emission = TicEmission::start_on(
                    &snapshot,
                    query.k,
                    query.r,
                    query.aggregation,
                    query.epsilon,
                )?;
                if let Some(d) = query.deadline {
                    // The search advances lazily inside pulls; on expiry
                    // it flushes the proven prefix / best-so-far and the
                    // stream simply ends early (and caches nothing).
                    emission.set_budget(Some(Arc::new(Budget::within(d))));
                }
                let arena = arenas.take_arena();
                Ok(ResultStream {
                    snapshot,
                    epoch,
                    query,
                    state: StreamState::Tic(emission),
                    arenas: Some(arenas),
                    arena: Some(arena),
                    cache: Some(cache),
                    collected: Vec::new(),
                })
            }
            // Local search (and any future solver without an
            // incremental hook): run the query through the same batched
            // plan/execute machinery as `run_batch` — identical worker
            // count, chunking, and cache population — then emit from
            // the buffer.
            _ => {
                let queries = [query];
                let plan = Plan::build(&snapshot, &queries, threads, Some((cache.as_ref(), epoch)));
                let mut outcome: Option<crate::cache::Outcome> = None;
                // A submit executes immediately — no queue — so the
                // deadline anchor is simply now.
                let anchor = std::time::Instant::now();
                exec::execute(
                    &snapshot,
                    &arenas,
                    threads,
                    anchor,
                    plan,
                    Default::default(),
                    |_, res| {
                        cache.insert(&query, epoch, &res);
                        outcome = Some(res);
                    },
                );
                let outcome = outcome.expect("one query in, one outcome out");
                match outcome.as_ref() {
                    // Degraded buffered answers stream their best-so-far
                    // communities like any other list; the result cache
                    // never retained them (Complete-only inserts).
                    Ok(ans) => Ok(Self::buffered(
                        snapshot,
                        epoch,
                        query,
                        ans.communities.clone(),
                    )),
                    Err(e) => Err(e.clone().into_search()),
                }
            }
        }
    }

    /// The query this stream answers.
    pub fn query(&self) -> Query {
        self.query
    }

    /// The engine epoch the stream was submitted under; the stream's
    /// snapshot stays pinned to it even across later `apply` calls.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The snapshot the stream answers against.
    pub fn snapshot(&self) -> &Arc<GraphSnapshot> {
        &self.snapshot
    }
}

impl Iterator for ResultStream {
    type Item = Community;

    fn next(&mut self) -> Option<Community> {
        let item = match &mut self.state {
            StreamState::Buffered(items) => items.next(),
            StreamState::MinMax(emission) => emission.next_community(self.snapshot.weighted()),
            StreamState::Tic(emission) => emission.next_community(
                self.snapshot.weighted(),
                self.arena.as_mut().expect("live TIC stream holds an arena"),
            ),
        };
        if let Some(cache) = &self.cache {
            match &item {
                Some(c) => self.collected.push(c.clone()),
                None => {
                    // Fully drained live stream: the collected sequence
                    // is the complete rank-ordered answer — memoize it
                    // for run_batch and future submits alike. Unless the
                    // drain was cut short by a deadline: a truncated
                    // sequence must never be cached as the full answer.
                    let truncated =
                        matches!(&self.state, StreamState::Tic(em) if em.deadline_aborted());
                    if !truncated {
                        cache.insert(
                            &self.query,
                            self.epoch,
                            &Arc::new(Ok(QueryAnswer::complete(std::mem::take(
                                &mut self.collected,
                            )))),
                        );
                    }
                    self.cache = None;
                }
            }
        }
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.state {
            StreamState::Buffered(items) => {
                let n = items.len();
                (n, Some(n))
            }
            StreamState::MinMax(emission) => (0, Some(emission.len())),
            StreamState::Tic(_) => (0, Some(self.query.r)),
        }
    }
}

impl Drop for ResultStream {
    fn drop(&mut self) {
        // Cancellation: remaining solver work simply never happens; the
        // arena a live TIC run borrowed goes back to its epoch's pool.
        if let (Some(arenas), Some(arena)) = (self.arenas.take(), self.arena.take()) {
            arenas.put_arena(arena);
        }
    }
}
