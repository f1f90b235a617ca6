//! Plan execution: a work-stealing pool of scoped worker threads.
//!
//! Workers draw jobs from a shared atomic cursor over the plan's sorted
//! job list (idle workers "steal" whatever is next, so a slow job never
//! blocks the rest of the batch behind a static partition). Each worker
//! holds one pooled [`PeelArena`](ic_kcore::PeelArena) for its lifetime
//! and lazily creates one [`LocalScratch`] the first time it executes a
//! local-search chunk; both are reused across every job the worker runs.
//! Completed results flow back to the caller thread over a channel, in
//! completion order, while the batch is still running. A plan that needs
//! one worker (one job, or a one-thread engine) spawns nothing: the
//! calling thread is the worker and hands each job's results over as
//! the job ends.
//!
//! # Failure model
//!
//! Every job runs inside a panic guard. A panicking job yields
//! [`EngineError::Internal`] for *its* queries only; the worker
//! **quarantines** its arena (a panic mid-peel leaves torn counts — the
//! arena is dropped, never returned to the pool), discards its local
//! scratch, takes fresh ones, and keeps draining the job list. For
//! chunked local-search families the panic poisons the whole family
//! (a missing chunk's partials would silently bias the merge), and the
//! chunk countdown is decremented *outside* the guard so the family
//! always completes exactly once.
//!
//! # Deadlines
//!
//! Wall-clock budgets anchor at the `anchor` instant the caller passes
//! to [`execute`] — serve start for direct `run_batch_with` calls, the
//! *admission* timestamp for queueing front ends like `ic-serve`, so
//! time spent waiting in an admission queue counts against the budget.
//! A deadline-armed job checkpoints its [`Budget`] cooperatively. A
//! ranked family's one run returns its list at `max(rs)` and whether
//! the budget cut it short, and one rule ([`slot_outcome`]) answers
//! every `r` of the family: the first `min(r, len)` communities,
//! [`Complete`](crate::AnswerStatus::Complete) when the run was not cut
//! or an exact run proved at least `r`, else
//! [`Degraded`](crate::AnswerStatus::Degraded) — `proven_prefix_len`
//! the slot's length for exact runs, 0 for approximate ones and for
//! local search — and [`EngineError::DeadlineExceeded`] when a cut run
//! has nothing to give.

use crate::plan::{Job, JobOutput, LocalJob, Plan, Route};
use crate::{AnswerStatus, DegradeReason, EngineError, QueryAnswer, Serving};
use ic_core::algo::{
    run_seed_memo, CoreRows, ExtremumIndex, LocalScratch, SeedTarget, SeedVisit, TicSearch,
};
use ic_core::community::{decode_ordered_f64, encode_ordered_f64};
use ic_core::{Aggregation, Community, TopList};
use ic_kcore::{Budget, GraphSnapshot, PeelArena};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
            reason: DegradeReason::DeadlineExpired,
            proven_prefix_len: proven,
        },
    }))
}

fn fail(e: EngineError) -> Outcome {
    Arc::new(Err(e))
}

/// Best human-readable rendering of a panic payload.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// `core.tic_*`: what the TIC runs of this engine did, summed — cascade
/// deletions performed and child communities allocated
/// ([`ic_core::algo::ExpansionCounts`]). Both depend only on the graph
/// and the queries served, so they separate "more work" from "a slower
/// machine" when a solve span grows.
pub(crate) struct TicCounters {
    pub deletions: ic_obs::Counter,
    pub children_materialized: ic_obs::Counter,
}

/// `core.local_*`: what the local-search chunks of this engine did,
/// summed once per chunk — seeds visited, seeds skipped without a pool
/// and seeds replayed from the seed memo (see [`run_seed_memo`]), pool
/// vertices collected, and [`CoreRows`] builds (one per `(snapshot, k)`
/// a size-bounded query touched) — and the memo's own: entries an apply
/// invalidated, and the bytes the serving snapshot's memo holds.
pub(crate) struct LocalCounters {
    pub seeds: ic_obs::Counter,
    pub seeds_skipped: ic_obs::Counter,
    pub seeds_replayed: ic_obs::Counter,
    pub pool_vertices: ic_obs::Counter,
    pub rows_builds: ic_obs::Counter,
    pub memo_dropped: ic_obs::Counter,
    pub memo_bytes: ic_obs::Gauge,
}

/// Where an execution reports: the caller's trace, if there is one,
/// and the engine's solver work counters.
#[derive(Clone, Copy)]
pub(crate) struct ExecObs<'a> {
    pub trace: Option<&'a ic_obs::Trace>,
    pub tic: &'a TicCounters,
    pub local: &'a LocalCounters,
}

/// Runs a plan against one pinned snapshot. The serving state — the
/// snapshot, its arena pool and its seed memo — is grabbed once by the
/// caller (`Engine::execute`) so a concurrent `Engine::apply` can never
/// tear a batch across two graph versions.
pub(crate) fn execute<F>(
    serving: &Serving,
    threads: usize,
    anchor: Instant,
    plan: Plan,
    obs: ExecObs<'_>,
    mut deliver: F,
) where
    F: FnMut(usize, Outcome),
{
    // Every armed job's budget expires at `anchor + deadline`; immediate
    // answers cost no solver time and are delivered regardless.
    for (query, result) in plan.immediate.iter() {
        deliver(*query, Arc::clone(result));
    }
    if plan.jobs.is_empty() {
        return;
    }

    let cursor = AtomicUsize::new(0);
    let workers = threads.max(1).min(plan.jobs.len());
    if workers == 1 {
        drain_jobs(serving, anchor, &plan, &cursor, obs, &mut deliver);
        return;
    }
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Outcome)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (cursor, plan) = (&cursor, &plan);
            scope.spawn(move || {
                // The receiver outlives the scope; a send can only fail
                // if the caller's callback panicked, in which case the
                // batch is already unwinding.
                drain_jobs(serving, anchor, plan, cursor, obs, &mut |query, result| {
                    let _ = tx.send((query, result));
                });
            });
        }
        drop(tx);
        // Stream results on the caller thread as workers finish jobs.
        for (query, result) in rx {
            deliver(query, result);
        }
    });
}

/// One worker: draws jobs off `cursor` until the plan is exhausted,
/// holding one pooled arena throughout. A job's results reach `emit`
/// only once the job has ended, outside its panic guard, so a panic in
/// `emit` itself (the caller's callback, on the single-worker path) is
/// never mistaken for a solver panic — it unwinds through here, and the
/// arena guard still hands the (sound) arena back to the pool.
fn drain_jobs(
    serving: &Serving,
    anchor: Instant,
    plan: &Plan,
    cursor: &AtomicUsize,
    obs: ExecObs<'_>,
    emit: &mut dyn FnMut(usize, Outcome),
) {
    let arenas = &serving.arenas;
    let mut arena = arenas.acquire();
    let mut scratch: Option<LocalScratch> = None;
    let mut done: Vec<(usize, Outcome)> = Vec::new();
    loop {
        let j = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(job) = plan.jobs.get(j) else { break };
        let guarded = catch_unwind(AssertUnwindSafe(|| {
            run_job(
                serving,
                anchor,
                job,
                &mut arena,
                &mut scratch,
                obs,
                &mut done,
            );
        }));
        match guarded {
            Ok(()) => {
                if let Job::LocalChunk { job, .. } = job {
                    finish_chunk(job, &mut done);
                }
            }
            Err(payload) => {
                // The panicking job may have left the arena (and
                // scratch) mid-peel with torn state: quarantine the
                // arena — it never returns to the pool — and continue
                // on fresh ones. The failure is confined to this job's
                // queries.
                let bad = std::mem::replace(&mut *arena, arenas.take_arena());
                arenas.quarantine(bad);
                scratch = None;
                let detail = panic_detail(payload.as_ref());
                match job {
                    Job::LocalChunk { job, .. } => {
                        job.poisoned
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .get_or_insert(detail);
                        finish_chunk(job, &mut done);
                    }
                    Job::Ranked { outputs, .. } => {
                        send_all(&mut done, outputs, &fail(EngineError::Internal { detail }));
                    }
                }
            }
        }
        for (query, result) in done.drain(..) {
            emit(query, result);
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
    Ok((items, search.deadline_aborted()))
}

fn run_job(
    serving: &Serving,
    anchor: Instant,
    job: &Job,
    arena: &mut PeelArena,
    scratch: &mut Option<LocalScratch>,
    obs: ExecObs<'_>,
    done: &mut Vec<(usize, Outcome)>,
) {
    let snap = &*serving.snapshot;
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
                    let run = match ExtremumIndex::cached_within(snap, *k, dir, budget.as_ref()) {
                        None => Ok((Vec::new(), true)),
                        Some(index) => index.read(snap.weighted(), *last, budget.as_deref()),
                    };
                    if let Some(trace) = obs.trace {
                        index_sw.record(trace, ic_obs::Stage::IndexServe);
                    }
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
                        obs.tic,
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
        Job::LocalChunk { job, chunk } => {
            run_local_chunk(serving, anchor, job, *chunk, scratch, obs.local)
        }
    }
}

/// Executes seed chunk `chunk` of a local-search family — parallel
/// Algorithm 4 (the paper's Section VIII direction). Seeds are
/// partitioned into chunks; each chunk runs the sequential per-seed
/// strategy against thread-local top-r lists (the graph and the level's
/// [`CoreRows`], fetched from the snapshot's memo once per chunk, are
/// shared read-only), one seed expansion shared by every member's
/// strategy — replayed from the family's seed memo when an earlier
/// family or epoch left one, else built and kept — and the lists are
/// merged when the last chunk ends. There is
/// no shared mutable top-list and no lock on the hot path: the only
/// cross-thread state is one atomic per member holding the best known
/// r-th value, which a chunk snapshots into its list's pruning floor
/// before a seed and raises after its own list fills
/// (`TopList::set_floor`). The floor only prunes work, so every returned
/// community is valid; but thread-local pruning differs from the
/// sequential global threshold, so with more than one chunk the merged
/// list can differ from the sequential one in either direction, and
/// candidates that tie the floor *exactly* (duplicated weights) make two
/// identical runs tie-break differently. One chunk reproduces
/// `local_search` bit for bit. Completion accounting (and the final
/// merge) lives in [`finish_chunk`], which the worker calls outside the
/// panic guard.
///
/// Under a deadline the chunk polls the family's shared budget between
/// seeds and stops early; whatever its lists hold is still pushed — a
/// truncated chunk's communities are genuine, just not exhaustive, so
/// the merged answer degrades to best-so-far.
fn run_local_chunk(
    serving: &Serving,
    anchor: Instant,
    job: &Arc<LocalJob>,
    chunk: usize,
    scratch: &mut Option<LocalScratch>,
    counters: &LocalCounters,
) {
    ic_fail::fail_point!("engine::local_chunk");
    let snap = &serving.snapshot;
    let wg = snap.weighted();
    let level = snap.level(job.k);
    let (rows, built) = CoreRows::cached(snap, job.k);
    counters.rows_builds.add(u64::from(built));
    let memo = serving
        .seeds
        .family(wg.num_vertices(), job.k, job.s, job.greedy);

    // The shared budget starts with whichever chunk gets here first, so
    // the family's clock never starts before any of its work could.
    let budget = job.deadline.map(|d| {
        Arc::clone(
            job.budget
                .get_or_init(|| Arc::new(Budget::after(anchor, d))),
        )
    });

    let seeds = job
        .seeds
        .get_or_init(|| level.mask.iter().map(|v| v as u32).collect());
    let chunk_size = seeds.len().div_ceil(job.chunks).max(1);
    let lo = (chunk * chunk_size).min(seeds.len());
    let hi = ((chunk + 1) * chunk_size).min(seeds.len());

    let mut locals: Vec<TopList> = job.members.iter().map(|m| TopList::new(m.r)).collect();
    let scratch = scratch.get_or_insert_with(|| LocalScratch::new(wg.num_vertices()));
    let (mut visited, mut skipped, mut replayed, mut pooled) = (0u64, 0u64, 0u64, 0u64);
    {
        let mut targets: Vec<SeedTarget<'_>> = locals
            .iter_mut()
            .zip(&job.members)
            .map(|(list, m)| SeedTarget {
                aggregation: m.aggregation,
                list,
            })
            .collect();
        for &seed in &seeds[lo..hi] {
            if let Some(b) = &budget {
                if b.poll() {
                    break;
                }
            }
            // Snapshot each member's shared floor, expand, publish back.
            for (t, m) in targets.iter_mut().zip(&job.members) {
                t.list
                    .set_floor(decode_ordered_f64(m.floor.load(Ordering::Relaxed)));
            }
            let visit = run_seed_memo(
                wg,
                &rows,
                &level.mask,
                seed,
                job.k,
                job.s,
                job.greedy,
                memo.as_ref(),
                scratch,
                &mut targets,
            );
            visited += 1;
            match visit {
                SeedVisit::Skipped => skipped += 1,
                SeedVisit::Replayed => replayed += 1,
                SeedVisit::Built(pool) => pooled += pool as u64,
            }
            for (t, m) in targets.iter().zip(&job.members) {
                if t.list.len() == t.list.capacity() {
                    m.floor
                        .fetch_max(encode_ordered_f64(t.list.threshold()), Ordering::Relaxed);
                }
            }
        }
    }
    counters.seeds.add(visited);
    counters.seeds_skipped.add(skipped);
    counters.seeds_replayed.add(replayed);
    counters.pool_vertices.add(pooled);

    for (local, m) in locals.into_iter().zip(&job.members) {
        m.partials
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(local);
    }
}

/// Exactly-once completion accounting for one chunk of a local-search
/// family, run **outside** the panic guard: whether the chunk finished
/// or panicked, the countdown decrements once, and the last chunk
/// standing publishes every member — a merged answer normally, a typed
/// `Internal` error for the whole family if any chunk panicked (its
/// partials may be missing wholesale, which would silently bias a
/// merge), and a best-so-far degraded answer if the family's deadline
/// expired mid-walk.
fn finish_chunk(job: &Arc<LocalJob>, done: &mut Vec<(usize, Outcome)>) {
    if job.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
        return;
    }
    let poisoned = job
        .poisoned
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take();
    if let Some(detail) = poisoned {
        let outcome = fail(EngineError::Internal { detail });
        for m in &job.members {
            send_all(done, &m.outputs, &outcome);
        }
        return;
    }
    let expired = job.budget.get().is_some_and(|b| b.expired());
    for m in &job.members {
        let mut merged = TopList::new(m.r);
        let partials = std::mem::take(&mut *m.partials.lock().unwrap_or_else(|e| e.into_inner()));
        for list in partials {
            for c in list.into_vec() {
                merged.insert(c);
            }
        }
        // Local search is heuristic: a truncated seed walk proves no
        // rank prefix, so the merge is best-so-far.
        let outcome = slot_outcome(merged.into_vec(), m.r, expired, false);
        send_all(done, &m.outputs, &outcome);
    }
}
