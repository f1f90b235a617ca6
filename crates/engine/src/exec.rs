//! Plan execution: one persistent worker pool per engine.
//!
//! [`Pool`] owns the engine's `threads` long-lived workers. They start
//! with the first batch that needs them and are joined when the engine
//! drops. Workers draw jobs from one FIFO queue of [`Batch`]es that
//! spans batches: the oldest batch with an unclaimed job goes first,
//! and within a batch jobs are claimed off an atomic cursor over the
//! plan's sorted job list, so a slow job never blocks the rest behind a
//! static partition. Each job runs on the snapshot, arena pool and seed
//! memo its batch pinned at plan time, on a [`PeelArena`] acquired for
//! the job from that batch's pool (a forest job builds a missing forest
//! on it); a worker keeps one [`LocalScratch`] across the local-search
//! families it runs.
//!
//! A job's answers leave as one slice the moment the job ends, from
//! whichever thread ran it: through the result cache to the batch's
//! [`AnswerSink`](crate::AnswerSink). A fast job never waits for a slow
//! batch-mate. `submit` (serving, every `ic-shard` leg) leaves every job
//! to the pool; a synchronous caller (`Engine::run_batch*`) is one of its
//! own batch's workers: it wakes at most `threads - 1` pool workers and
//! drains its jobs alongside them, so a synchronous one-job batch (or a
//! one-thread engine) never leaves the calling thread or starts the pool.
//!
//! # Failure model
//!
//! Every job runs inside a panic guard. A panicking job yields
//! [`EngineError::Internal`] for *its* queries only; its arena is
//! **quarantined** (a panic mid-peel leaves torn counts — the arena is
//! dropped, never returned to the pool), the worker's local scratch is
//! discarded, and the worker goes on with the next job. A panic inside
//! the result cache still lets the job's answers reach the sink; a
//! synchronous caller re-raises it once its answers are in. A worker
//! survives any panic, a sink's included.
//!
//! # Deadlines
//!
//! Wall-clock budgets anchor at the batch's `anchor` instant — serve
//! start for direct `run_batch_with` calls, the *admission* timestamp
//! for queueing front ends like `ic-serve`, so time spent waiting in an
//! admission queue (or behind an older batch's jobs) counts against the
//! budget. A deadline-armed job checkpoints its [`Budget`]
//! cooperatively. A ranked family's one run returns its list at
//! `max(rs)` and whether the budget cut it short, and one rule
//! ([`slot_outcome`]) answers every `r` of the family: the first
//! `min(r, len)` communities,
//! [`Complete`](crate::AnswerStatus::Complete) when the run was not cut
//! or an exact run proved at least `r`, else
//! [`Degraded`](crate::AnswerStatus::Degraded) — `proven_prefix_len`
//! the slot's length for exact runs, 0 for approximate ones and for
//! local search — and [`EngineError::DeadlineExceeded`] when a cut run
//! has nothing to give.

use crate::plan::{Job, JobOutput, LocalMember, Plan, Route};
use crate::{AnswerSink, AnswerStatus, EngineError, EngineMetrics, Epoch, QueryAnswer, Serving};
use ic_core::algo::{CoreRows, ExtremumIndex, LocalScratch, SeedTarget, TicSearch};
use ic_core::{Aggregation, Community, Query, TopList};
use ic_kcore::{Budget, GraphSnapshot, PeelArena};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Outcome = crate::cache::Outcome;

fn ok_complete(items: Vec<Community>) -> Outcome {
    Arc::new(Ok(QueryAnswer::complete(items)))
}

/// A deadline-truncated answer; `proven` leading entries are certified
/// equal to the full answer's prefix.
fn degraded(items: Vec<Community>, proven: usize) -> Outcome {
    Arc::new(Ok(QueryAnswer {
        communities: items,
        status: AnswerStatus::Degraded {
            proven_prefix_len: proven,
        },
    }))
}

fn fail(e: EngineError) -> Outcome {
    Arc::new(Err(e))
}

/// Best human-readable rendering of a panic payload.
fn panic_detail(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A lock whose guarded state stays consistent across a panic (every
/// critical section here is a push, a take or a flag).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `core.tic_*`: what the TIC runs of this engine did, summed — cascade
/// deletions performed, child communities allocated, parents loaded
/// from the graph, vertices the component splits expanded and splits
/// the arena's one-piece certificate settled without a walk
/// ([`ic_core::algo::ExpansionCounts`]). They depend only on the graph
/// and the queries served (loads also on which root images were already
/// built), so they separate "more work" from "a slower machine" when a
/// solve span grows.
pub(crate) struct TicCounters {
    pub deletions: ic_obs::Counter,
    pub children_materialized: ic_obs::Counter,
    pub loads: ic_obs::Counter,
    pub walked: ic_obs::Counter,
    pub certified: ic_obs::Counter,
}

/// `core.forest_*`: the extremum forests this engine built — one per
/// `(snapshot, k, direction)` a query found unmemoized, 0 for forests a
/// store seeded or an apply shared — and how long each build took.
pub(crate) struct ForestCounters {
    pub builds: ic_obs::Counter,
    pub build_ns: ic_obs::Histogram,
}

/// `core.local_*`: what the local-search walks of this engine did,
/// summed once per family walk — seeds visited, seeds skipped without a pool
/// (a `min` seed at the bar, or a memo entry whose value bounds are at or
/// below every bar), of those the seeds jumped with their block and the
/// seeds their slot record skipped without reading the entry, and seeds
/// replayed from the seed memo (see [`ic_core::algo::MemoFamily::walk`]), target
/// replays run and those that inserted a
/// community, pool vertices collected, and [`CoreRows`] builds
/// (one per `(snapshot, k)` a size-bounded query touched that no apply
/// carried rows to) — and the apply's and the memo's own: levels whose
/// rows an apply carried, entries it invalidated, families and entries
/// the budget turned away, and the bytes the serving snapshot's memo
/// holds.
pub(crate) struct LocalCounters {
    pub seeds: ic_obs::Counter,
    pub seeds_skipped: ic_obs::Counter,
    pub seeds_jumped: ic_obs::Counter,
    pub seeds_capped: ic_obs::Counter,
    pub seeds_replayed: ic_obs::Counter,
    pub targets_replayed: ic_obs::Counter,
    pub targets_inserted: ic_obs::Counter,
    pub pool_vertices: ic_obs::Counter,
    pub rows_builds: ic_obs::Counter,
    pub rows_carried: ic_obs::Counter,
    pub memo_dropped: ic_obs::Counter,
    pub memo_refused: ic_obs::Counter,
    pub memo_bytes: ic_obs::Gauge,
}

/// One planned batch on its way through the pool: the serving state it
/// pinned, its jobs, and where their answers go. Everything is owned,
/// so any pool worker can run any job of it.
pub(crate) struct Batch {
    serving: Serving,
    anchor: Instant,
    jobs: Vec<Job>,
    queries: Vec<Query>,
    trace: Arc<ic_obs::Trace>,
    sink: AnswerSink,
    metrics: Arc<EngineMetrics>,
    solve_sw: ic_obs::Stopwatch,
    /// The next job to claim.
    cursor: AtomicUsize,
    /// Jobs not yet finished; the one that brings it to zero publishes
    /// the batch's solve span and gauges.
    pending: AtomicUsize,
    /// The first panic raised inside the result cache while delivering.
    cache_panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Batch {
    /// Wraps a plan over the `serving` state it was built against and
    /// hands its plan-time answers to `sink`, as one slice.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start(
        serving: Serving,
        anchor: Instant,
        plan: Plan,
        queries: &[Query],
        trace: Arc<ic_obs::Trace>,
        sink: AnswerSink,
        metrics: Arc<EngineMetrics>,
    ) -> Arc<Batch> {
        let batch = Arc::new(Batch {
            serving,
            anchor,
            pending: AtomicUsize::new(plan.jobs.len()),
            jobs: plan.jobs,
            queries: queries.to_vec(),
            trace,
            sink,
            metrics,
            solve_sw: ic_obs::Stopwatch::start(),
            cursor: AtomicUsize::new(0),
            cache_panic: Mutex::new(None),
        });
        batch.deliver(&plan.immediate);
        if batch.jobs.is_empty() {
            batch.finish();
        }
        batch
    }

    /// The epoch of the snapshot every answer of the batch is computed on.
    pub(crate) fn epoch(&self) -> Epoch {
        self.serving.epoch
    }

    /// Jobs no thread has claimed yet.
    pub(crate) fn unclaimed(&self) -> usize {
        self.jobs
            .len()
            .saturating_sub(self.cursor.load(Ordering::Relaxed))
    }

    fn claim(&self) -> Option<usize> {
        let j = self.cursor.fetch_add(1, Ordering::Relaxed);
        (j < self.jobs.len()).then_some(j)
    }

    /// Runs the batch's unclaimed jobs on the calling thread.
    pub(crate) fn help(&self) {
        let mut scratch = None;
        while let Some(j) = self.claim() {
            self.run(j, &mut scratch);
        }
    }

    /// The panic a delivery raised inside the result cache, if any.
    pub(crate) fn take_cache_panic(&self) -> Option<Box<dyn Any + Send>> {
        lock(&self.cache_panic).take()
    }

    /// Runs job `j` on an arena from the batch's pool, then delivers its
    /// answers. They reach the sink only once the job has ended, outside
    /// its panic guard, with the arena already back in the pool.
    fn run(&self, j: usize, scratch: &mut Option<LocalScratch>) {
        let job = &self.jobs[j];
        let mut done: Vec<(usize, Outcome)> = Vec::new();
        {
            let arenas = &self.serving.arenas;
            let mut arena = arenas.acquire();
            let guarded = catch_unwind(AssertUnwindSafe(|| {
                run_job(self, job, &mut arena, scratch, &mut done);
            }));
            if let Err(payload) = guarded {
                // The panicking job may have left the arena (and scratch)
                // mid-peel with torn state: quarantine the arena — it
                // never returns to the pool — and hand a fresh one back
                // instead. The failure is confined to this job's queries.
                let bad = std::mem::replace(&mut *arena, arenas.take_arena());
                arenas.quarantine(bad);
                *scratch = None;
                let detail = panic_detail(payload.as_ref());
                let outcome = fail(EngineError::Internal { detail });
                match job {
                    Job::Ranked { outputs, .. } => send_all(&mut done, outputs, &outcome),
                    Job::Local { members, .. } => {
                        for m in members {
                            send_all(&mut done, &m.outputs, &outcome);
                        }
                    }
                }
            }
        }
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.finish();
        }
        self.deliver(&done);
    }

    /// Hands one job's answers (or the plan-time ones) to the sink as one
    /// slice, caching the complete ones first.
    fn deliver(&self, done: &[(usize, Outcome)]) {
        if done.is_empty() {
            return;
        }
        let epoch = self.serving.epoch;
        let cached = catch_unwind(AssertUnwindSafe(|| {
            for (idx, outcome) in done {
                match outcome.as_ref() {
                    Ok(ans) if !ans.is_complete() => self.trace.tag(ic_obs::Tag::Degraded),
                    Err(EngineError::DeadlineExceeded) => {
                        self.trace.tag(ic_obs::Tag::DeadlineExceeded);
                    }
                    _ => {}
                }
                // Only complete answers are retained (the insert filters).
                self.serving.results.insert(&self.queries[*idx], outcome);
            }
        }));
        if let Err(payload) = cached {
            lock(&self.cache_panic).get_or_insert(payload);
        }
        (self.sink)(epoch, done);
    }

    /// Publishes the solve span and the gauges a finished batch moves.
    fn finish(&self) {
        let m = &self.metrics;
        self.solve_sw.record(&self.trace, ic_obs::Stage::Solve);
        self.solve_sw.observe(&m.solve_ns);
        m.cached_results.set(self.serving.results.len() as i64);
        let arenas = &self.serving.arenas;
        m.arenas_available.set(arenas.available() as i64);
        m.arenas_quarantined.set(arenas.quarantined() as i64);
        m.local.memo_refused.add(self.serving.seeds.take_refused());
        m.local.memo_bytes.set(self.serving.seeds.bytes() as i64);
    }
}

/// The engine's worker pool. See the module docs.
pub(crate) struct Pool {
    threads: usize,
    queue: Arc<Queue>,
    workers: OnceLock<Vec<JoinHandle<()>>>,
}

#[derive(Default)]
struct Queue {
    state: Mutex<Queued>,
    ready: Condvar,
}

#[derive(Default)]
struct Queued {
    /// Oldest first.
    batches: VecDeque<Arc<Batch>>,
    closed: bool,
}

impl Pool {
    pub(crate) fn new(threads: usize) -> Pool {
        Pool {
            threads,
            queue: Arc::default(),
            workers: OnceLock::new(),
        }
    }

    /// Queues `batch` behind every batch already queued and wakes up to
    /// `wake` idle workers for it, starting the workers on first use.
    pub(crate) fn push(&self, batch: Arc<Batch>, wake: usize) {
        self.workers.get_or_init(|| {
            (0..self.threads)
                .map(|_| {
                    let queue = Arc::clone(&self.queue);
                    std::thread::Builder::new()
                        .name("ic-engine-worker".into())
                        .spawn(move || work(&queue))
                        .expect("spawn engine worker")
                })
                .collect()
        });
        let mut state = lock(&self.queue.state);
        state.batches.retain(|b| b.unclaimed() > 0);
        state.batches.push_back(batch);
        drop(state);
        for _ in 0..wake.min(self.threads) {
            self.queue.ready.notify_one();
        }
    }
}

impl Drop for Pool {
    /// Lets the workers finish every queued batch, then joins them.
    fn drop(&mut self) {
        lock(&self.queue.state).closed = true;
        self.queue.ready.notify_all();
        let here = std::thread::current().id();
        for worker in self.workers.take().into_iter().flatten() {
            // An engine whose last handle a sink dropped is dropped on
            // one of its own workers, which then exits by itself.
            if worker.thread().id() != here {
                let _ = worker.join();
            }
        }
    }
}

/// One worker: claims the next job of the oldest batch that has one,
/// runs it, and sleeps while the queue is empty.
fn work(queue: &Queue) {
    let mut scratch: Option<LocalScratch> = None;
    loop {
        let (batch, j) = {
            let mut state = lock(&queue.state);
            loop {
                let next = state
                    .batches
                    .iter()
                    .find_map(|b| b.claim().map(|j| (Arc::clone(b), j)));
                state.batches.retain(|b| b.unclaimed() > 0);
                if let Some(next) = next {
                    break next;
                }
                if state.closed {
                    return;
                }
                state = queue
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Solver panics are handled inside `run`; this guard is for the
        // sink, which a worker must outlive.
        if catch_unwind(AssertUnwindSafe(|| batch.run(j, &mut scratch))).is_err() {
            scratch = None;
        }
    }
}

fn send_all(done: &mut Vec<(usize, Outcome)>, outputs: &[JobOutput], outcome: &Outcome) {
    done.extend(outputs.iter().map(|out| (out.query, Arc::clone(outcome))));
}

/// The one slicing rule of a deadline: slot `r` of a run that returned
/// `ranked` (its list, or any prefix of it holding `min(r, len)`
/// communities) takes the first `r`. Complete when the run was not
/// `cut`, or when an `exact` run proved at least `r`; otherwise the
/// certified prefix when `exact`, best-so-far when not, and the typed
/// deadline error when there is nothing to give.
fn slot_outcome(mut ranked: Vec<Community>, r: usize, cut: bool, exact: bool) -> Outcome {
    let proved_r = ranked.len() >= r;
    ranked.truncate(r);
    if !cut || (exact && proved_r) {
        ok_complete(ranked)
    } else if ranked.is_empty() {
        fail(EngineError::DeadlineExceeded)
    } else {
        let proven = if exact { ranked.len() } else { 0 };
        degraded(ranked, proven)
    }
}

/// Runs one `TIC-IMPROVED` search on the worker's arena and adds its
/// work to the engine's counters; returns the communities and whether
/// the deadline cut the search short. Unarmed (`budget: None`) this is
/// exactly `algo::tic_improved_on`. Armed, on expiry the search returns
/// only what it can stand behind: for ε = 0 exactly the provably-final
/// prefix (Corollary 2: children are strictly smaller than their
/// parent), for ε > 0 best-so-far.
#[allow(clippy::too_many_arguments)]
fn run_tic(
    snap: &GraphSnapshot,
    k: usize,
    r: usize,
    aggregation: Aggregation,
    epsilon: f64,
    budget: Option<Arc<Budget>>,
    arena: &mut PeelArena,
    counters: &TicCounters,
) -> Result<(Vec<Community>, bool), ic_core::SearchError> {
    let mut search = TicSearch::start_on(snap, k, r, aggregation, epsilon)?;
    search.set_budget(budget);
    let items = search.run(snap.weighted(), arena);
    arena.set_budget(None);
    let work = search.work();
    counters.deletions.add(work.deletions);
    counters.children_materialized.add(work.materialized);
    counters.loads.add(work.loads);
    counters.walked.add(work.walked);
    counters.certified.add(work.certified);
    Ok((items, search.deadline_aborted()))
}

fn run_job(
    batch: &Batch,
    job: &Job,
    arena: &mut PeelArena,
    scratch: &mut Option<LocalScratch>,
    done: &mut Vec<(usize, Outcome)>,
) {
    let (snap, anchor) = (&*batch.serving.snapshot, batch.anchor);
    match job {
        Job::Ranked {
            k,
            route,
            rs,
            outputs,
            deadline,
        } => {
            let budget = deadline.map(|d| Arc::new(Budget::after(anchor, d)));
            let (last, rest) = rs.split_last().expect("family is non-empty");
            let (run, exact) = match *route {
                // The snapshot's extremum community forest — persisted
                // via `ic-store` or built once per snapshot — read in
                // output-sensitive time from weights alone, bit-identical
                // to the solo peel (held by the conformance suite). A
                // build the budget cuts short proves nothing; a cut read
                // keeps the value groups it finished. The span is summed
                // per job across parallel workers, so it can exceed the
                // solve span.
                Route::Forest(dir) => {
                    let index_sw = ic_obs::Stopwatch::start();
                    let run =
                        match ExtremumIndex::cached_within(snap, *k, dir, budget.as_ref(), arena) {
                            None => Ok((Vec::new(), true)),
                            Some((index, built)) => {
                                if built {
                                    let forests = &batch.metrics.forests;
                                    forests.builds.inc();
                                    index_sw.observe(&forests.build_ns);
                                }
                                index.read(snap.weighted(), *last, budget.as_deref())
                            }
                        };
                    index_sw.record(&batch.trace, ic_obs::Stage::IndexServe);
                    (run, true)
                }
                Route::Tic {
                    aggregation,
                    epsilon,
                } => (
                    run_tic(
                        snap,
                        *k,
                        *last,
                        aggregation,
                        epsilon,
                        budget,
                        arena,
                        &batch.metrics.tic,
                    ),
                    epsilon == 0.0,
                ),
            };
            match run {
                Ok((ranked, cut)) => {
                    // Every `r` is a prefix of the run at `max(rs)`, which
                    // the last slot takes whole.
                    let mut slots: Vec<Outcome> = rest
                        .iter()
                        .map(|&r| {
                            slot_outcome(ranked[..r.min(ranked.len())].to_vec(), r, cut, exact)
                        })
                        .collect();
                    slots.push(slot_outcome(ranked, *last, cut, exact));
                    done.extend(
                        outputs
                            .iter()
                            .map(|out| (out.query, Arc::clone(&slots[out.slot]))),
                    );
                }
                Err(e) => send_all(done, outputs, &fail(e.into())),
            }
        }
        Job::Local {
            k,
            s,
            greedy,
            members,
            deadline,
        } => run_local_walk(batch, *k, *s, *greedy, members, *deadline, scratch, done),
    }
}

/// Walks one local-search family: every seed of level `k` in ascending
/// order, each expansion shared by every member's strategy — replayed
/// from the family's seed memo when an earlier family or epoch left one,
/// else built and kept — against each member's own top-`r` list. This is
/// [`Query::solve`]'s sequential Algorithm 4 seed for seed, so every
/// member's answer equals it bit for bit at any thread count; the graph
/// and the level's [`CoreRows`] are the snapshot's, shared read-only.
///
/// Under a deadline the walk polls its budget between seeds and stops
/// early. A truncated walk proves no rank prefix, so its lists are
/// best-so-far: every community in them is genuine, just not exhaustive.
#[allow(clippy::too_many_arguments)]
fn run_local_walk(
    batch: &Batch,
    k: usize,
    s: usize,
    greedy: bool,
    members: &[LocalMember],
    deadline: Option<Duration>,
    scratch: &mut Option<LocalScratch>,
    done: &mut Vec<(usize, Outcome)>,
) {
    ic_fail::fail_point!("engine::local_walk");
    let budget = deadline.map(|d| Budget::after(batch.anchor, d));
    let (serving, counters) = (&batch.serving, &batch.metrics.local);
    let snap = &serving.snapshot;
    let wg = snap.weighted();
    let level = snap.level(k);
    let (rows, built) = CoreRows::cached(snap, k);
    counters.rows_builds.add(u64::from(built));
    let memo = serving.seeds.family(&level, s, greedy);

    let mut lists: Vec<TopList> = members.iter().map(|m| TopList::new(m.r)).collect();
    let scratch = scratch.get_or_insert_with(|| LocalScratch::new(wg.num_vertices()));
    let walked = {
        let mut targets: Vec<SeedTarget<'_>> = lists
            .iter_mut()
            .zip(members)
            .map(|(list, m)| SeedTarget {
                aggregation: m.aggregation,
                list,
            })
            .collect();
        let stop = || budget.as_ref().is_some_and(Budget::poll);
        memo.walk(wg, &rows, &level.mask, scratch, &mut targets, stop)
    };
    counters.seeds.add(walked.visited);
    counters.seeds_skipped.add(walked.skipped);
    counters.seeds_jumped.add(walked.jumped);
    counters.seeds_capped.add(walked.capped);
    counters.seeds_replayed.add(walked.replayed);
    let (targets_replayed, targets_inserted) = scratch.take_target_counts();
    counters.targets_replayed.add(targets_replayed);
    counters.targets_inserted.add(targets_inserted);
    counters.pool_vertices.add(walked.pooled);

    let cut = budget.is_some_and(|b| b.expired());
    for (list, m) in lists.into_iter().zip(members) {
        let outcome = slot_outcome(list.into_vec(), m.r, cut, false);
        send_all(done, &m.outputs, &outcome);
    }
}
