//! Serving engine for top-r influential community search: batched
//! queries and a mutable graph.
//!
//! The paper answers one query at a time against a frozen graph; a
//! serving system sees *many* queries — varying `k`, `r`, aggregation,
//! and size constraint — against a graph that *changes*. This crate
//! provides four serving surfaces:
//!
//! 1. **Batches** — [`Engine::run_batch`] plans a batch (per-query
//!    validation via [`ic_core::Query::solver`], `k > degeneracy`
//!    short-circuits, dedup, `r`-family merging, `k`-grouped job
//!    ordering) and executes it on the engine's persistent worker pool
//!    with pooled [`PeelArena`](ic_kcore::PeelArena)s;
//!    [`QueryBackend::submit`] hands each job's answers to a sink as the
//!    job ends.
//!    Deterministic solver paths are **bit-identical** to the direct
//!    one-query-at-a-time calls, regardless of thread count or batch
//!    composition (held by `tests/conformance.rs`).
//! 2. **Updates** — [`Engine::apply`] feeds [`EdgeUpdate`]s through an
//!    incremental [`ic_kcore::CoreMaintainer`] and swaps
//!    in a fresh immutable snapshot under a new [`Epoch`]. In-flight
//!    batches keep their snapshot (copy-on-write isolation); cached
//!    answers and memoized per-level state the update provably left
//!    unchanged ([`ApplyOutcome::keeps`], [`ApplyOutcome::ceiling`]) carry
//!    over to the new epoch's serving state, and the rest stay behind
//!    with the old epoch. A
//!    post-`apply` engine answers exactly like an engine built from
//!    scratch on the updated graph (also held by `tests/progressive.rs`).
//! 3. **Persistence** — [`Engine::persist`] writes the current epoch's
//!    warm serving state (graph, decomposition, memoized core levels,
//!    extremum community forests) to a checksummed `ic-store` file, and
//!    [`Engine::open`] warm-starts from one: the zero-rebuild cold
//!    start. Exact-tie `min`/`max` queries are **index-served** from
//!    the forest in output-sensitive time — persisted or built once per
//!    snapshot — and a post-`apply` snapshot keeps only the structures
//!    of levels the update left untouched, so no stale structure is ever
//!    consulted across an update (the others rebuild lazily per level
//!    under the new epoch).
//! 4. **Resilience** — every [`Query`] can carry a deadline
//!    (`Query::deadline`), measured from the [`BatchOptions`] anchor
//!    [`Engine::run_batch_with`] takes; on expiry the
//!    exact solver paths return the already-**proven** rank prefix
//!    tagged [`AnswerStatus::Degraded`] (bit-identical to the full
//!    answer's prefix), best-effort paths return best-so-far, and a
//!    query with nothing proven gets [`EngineError::DeadlineExceeded`].
//!    A panicking solver is **isolated**: its query alone reports
//!    [`EngineError::Internal`], its peel arena is quarantined (never
//!    returned to the pool), and the rest of the batch — and every
//!    later batch — is unaffected. See `DESIGN.md` §12 for the full
//!    failure model.
//!
//! # Quick start
//!
//! ```
//! use ic_engine::prelude::*;
//! use ic_core::figure1::figure1;
//!
//! let engine = Engine::with_threads(figure1(), 2);
//! // Batched:
//! let batch = vec![
//!     Query::new(2, 2, Aggregation::Min),
//!     Query::new(2, 2, Aggregation::Sum),
//!     Query::new(2, 1, Aggregation::Min), // merged into the first peel
//! ];
//! let results = engine.run_batch(&batch);
//! assert_eq!(results[1].as_ref().unwrap()[0].value, 203.0);
//!
//! // Mutable: delete an edge, re-query under the new epoch.
//! let before = engine.epoch();
//! let epoch = engine.apply(&[EdgeUpdate::Remove { u: 0, v: 1 }]);
//! assert!(epoch > before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod answer;
mod cache;
mod exec;
mod plan;

pub use answer::{AnswerStatus, BatchOptions, EngineError, QueryAnswer, SharedAnswer};
pub use plan::{Plan, PlanStats};

// The query vocabulary lives in `ic-core` since PR 3; these re-exports
// keep every pre-existing `ic_engine::{Query, Constraint}` caller
// compiling unchanged.
pub use ic_core::{Constraint, Query, Solver};
pub use ic_kcore::{CascadeRecord, CoreDelta, EdgeUpdate, GraphSnapshot};
pub use ic_store::StoreError;

/// Where a submitted batch's answers go: called with the batch's pinned
/// [`Epoch`] and a slice of `(query index, answer)` pairs, possibly from
/// several threads at once. Every query of the batch appears in exactly
/// one slice.
pub type AnswerSink = Arc<dyn Fn(Epoch, &[(usize, SharedAnswer)]) + Send + Sync>;

/// Anything that can serve a pinned batch of queries: the single-store
/// [`Engine`] or a scatter-gather front over many of them (`ic-shard`'s
/// `ShardedEngine`). Object-safe, so serving layers (`ic-serve`) hold an
/// `Arc<dyn QueryBackend>` and swap backends without recompiling.
///
/// Contract: every answer of a batch is computed against **one** graph
/// version, the [`Epoch`] each sink slice carries; deterministic solver
/// paths are bit-identical across backends serving the same logical
/// graph.
pub trait QueryBackend: Send + Sync {
    /// Plans `queries` under `options` on the calling thread, hands the
    /// plan-time answers to `sink` as one slice, and returns once
    /// planned; every other answer reaches `sink` later, one slice per
    /// finished job, from whichever thread ran it. Stage spans (`plan`,
    /// `solve`, `index_serve`, `merge`), outcome tags and plan
    /// statistics land in `trace` as the batch executes; the `solve`
    /// span is recorded before the last slice is handed over. Each
    /// answer is a [`SharedAnswer`] — for [`Engine`] the slot its result
    /// cache holds, so a cache hit reaches the sink without a copy.
    ///
    /// [`Engine`] runs the jobs on its worker pool; `ic-shard`'s
    /// `ShardedEngine` hands each shard's leg to that shard engine's
    /// `submit` and merges a query when its last leg lands. Every leg
    /// records into the same `trace`, so a batch whose legs run side by
    /// side sums their overlapping `plan` and `solve` walls.
    fn submit(
        &self,
        queries: &[Query],
        options: &BatchOptions,
        trace: Arc<ic_obs::Trace>,
        sink: AnswerSink,
    );

    /// Applies edge updates and returns the epoch serving afterwards and
    /// whether any update changed the edge set.
    ///
    /// The default refuses with [`EngineError::Unsupported`]: a backend
    /// must opt in to mutation. [`Engine`] overrides this with a
    /// validated [`Engine::try_apply`]; scatter-gather fronts
    /// (`ic-shard`) keep the refusal — their snapshots are immutable
    /// mmap-backed store files.
    fn apply_updates(&self, updates: &[EdgeUpdate]) -> Result<(Epoch, bool), EngineError> {
        let _ = updates;
        Err(EngineError::Unsupported {
            detail: "this backend does not support edge updates".into(),
        })
    }

    /// The backend's metrics registry, if it keeps one. Serving layers
    /// (`ic-serve`) merge it into their `STATS` surface; the default
    /// (`None`) simply contributes nothing.
    fn obs_registry(&self) -> Option<&ic_obs::Registry> {
        None
    }
}

impl QueryBackend for Engine {
    fn submit(
        &self,
        queries: &[Query],
        options: &BatchOptions,
        trace: Arc<ic_obs::Trace>,
        sink: AnswerSink,
    ) {
        let batch = self.start(queries, options, trace, sink);
        let jobs = batch.unclaimed();
        if jobs > 0 {
            self.pool.push(batch, jobs);
        }
    }

    fn apply_updates(&self, updates: &[EdgeUpdate]) -> Result<(Epoch, bool), EngineError> {
        let outcome = self.try_apply(updates)?;
        Ok((outcome.epoch, outcome.changed))
    }

    fn obs_registry(&self) -> Option<&ic_obs::Registry> {
        Some(&self.metrics.registry)
    }
}

/// Everything [`Engine::apply_journaled`] learned while applying a
/// batch of updates: the epoch now serving, the per-update cascade
/// journal, and both snapshot handles. [`ApplyOutcome::keeps`] is the
/// one "this answer survives the apply" proof: the engine's result cache
/// carries the answers it holds for across the epoch, and the
/// standing-query layer (`ic-sub`) skips their refreshes.
#[derive(Clone)]
pub struct ApplyOutcome {
    /// The epoch serving after the apply (the pre-apply epoch when
    /// nothing changed).
    pub epoch: Epoch,
    /// Whether any update changed the edge set.
    pub changed: bool,
    /// One cascade record per update, in input order. No-op updates
    /// (duplicate inserts, absent removes) appear with
    /// `applied == false` and empty touched/delta sets.
    pub records: Vec<CascadeRecord>,
    /// The snapshot that was serving before the apply.
    pub old_snapshot: Arc<GraphSnapshot>,
    /// The snapshot serving after the apply (the same handle as
    /// [`old_snapshot`](Self::old_snapshot) when nothing changed).
    pub new_snapshot: Arc<GraphSnapshot>,
}

impl ApplyOutcome {
    /// The highest level the batch can have changed
    /// ([`ApplyDelta::ceiling_of`] its records), `None` when nothing
    /// changed: the new snapshot shares every level above it.
    pub fn ceiling(&self) -> Option<u32> {
        ApplyDelta::ceiling_of(&self.records)
    }

    /// Whether `answer`, the complete answer to `query` before the
    /// apply, is provably still its answer after: each applied update,
    /// in order, keeps it. An update keeps it when
    ///
    /// * `query.k` is above the update's [`CascadeRecord::ceiling`]: the
    ///   level's k-core, vertex set and induced edges, is untouched, and
    ///   so is every answer at that level; or
    /// * `query` is an unconstrained `min` whose answer holds exactly `r`
    ///   communities, and the toggled edge has an endpoint strictly
    ///   lighter than the `r`-th value `θ`. The communities of value
    ///   ≥ `θ` are read off the subgraph induced by the vertices of
    ///   weight ≥ `θ` alone (each is a component of the k-core of the
    ///   vertices at least as heavy as its value), and such a toggle
    ///   leaves that subgraph alone. So the top `r` — the first `r` of
    ///   them by `ranking_cmp`, ties at `θ` included — cannot move.
    ///
    /// There is no value rule for `max` (any toggle inside the core can
    /// split the component a top community is) nor for size-bounded
    /// queries.
    pub fn keeps(&self, query: &Query, answer: &[Community]) -> bool {
        let plain_min = matches!(query.aggregation, ic_core::Aggregation::Min)
            && matches!(query.constraint, Constraint::Unconstrained);
        let bar = (plain_min && answer.len() == query.r)
            .then(|| answer.last().map(|c| c.value))
            .flatten();
        let wg = self.new_snapshot.weighted();
        self.records.iter().all(|record| {
            if record.ceiling().is_none_or(|c| query.k > c as usize) {
                return true;
            }
            let (u, v) = record.update.endpoints();
            bar.is_some_and(|bar| wg.weight(u).min(wg.weight(v)) < bar)
        })
    }
}

/// The worker count an engine gets when none is given: the hardware's
/// available parallelism, or 1 when it cannot be read.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// One-stop import of the full serving vocabulary:
/// `use ic_engine::prelude::*;`.
pub mod prelude {
    pub use crate::{
        AnswerSink, AnswerStatus, BatchOptions, Engine, EngineError, Epoch, Plan, PlanStats,
        QueryAnswer, QueryBackend, SharedAnswer,
    };
    pub use ic_core::{
        AggregateFn, Aggregation, Certificates, Community, Constraint, Extremum, Hardness, Query,
        SearchError, Solver, StateView,
    };
    pub use ic_kcore::{EdgeUpdate, GraphSnapshot};
    pub use ic_store::StoreError;
}

use cache::ResultCache;
use ic_core::algo::{CoreRows, SeedMemo};
use ic_core::{Community, SearchError};
use ic_graph::WeightedGraph;
use ic_kcore::{ApplyDelta, ArenaPool, CoreMaintainer};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, RwLock};

/// A monotone version counter for the engine's graph: every successful
/// [`Engine::apply`] that changes the edge set moves the engine to a new
/// epoch. Results are tagged with the epoch they were computed under.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Epoch(u64);

impl Epoch {
    /// The epoch's position in the update history (0 = as constructed).
    pub fn index(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "epoch {}", self.0)
    }
}

/// The swappable, immutable serving state: everything a batch
/// needs, grabbed once per operation so concurrent [`Engine::apply`]
/// calls never tear a computation across two graph versions. The seed
/// memo and the result cache are the snapshot's: batches only add to
/// them, and an apply carries what it proves unchanged into the next
/// epoch's ([`SeedMemo::carry`], [`ResultCache::carry`]).
#[derive(Clone)]
pub(crate) struct Serving {
    pub(crate) snapshot: Arc<GraphSnapshot>,
    pub(crate) arenas: Arc<ArenaPool>,
    pub(crate) epoch: Epoch,
    pub(crate) seeds: Arc<SeedMemo>,
    pub(crate) results: Arc<ResultCache>,
}

/// Per-engine observability handles: one [`ic_obs::Registry`] per
/// engine instance (never process-global — tests asserting exact counts
/// run several engines per process), with the hot-path handles resolved
/// once at construction so recording is a single atomic op.
struct EngineMetrics {
    registry: ic_obs::Registry,
    batches: ic_obs::Counter,
    queries: ic_obs::Counter,
    plan_ns: ic_obs::Histogram,
    solve_ns: ic_obs::Histogram,
    cache_hits: ic_obs::Counter,
    index_routed: ic_obs::Counter,
    solver_runs: ic_obs::Counter,
    answered_at_plan: ic_obs::Counter,
    cached_results: ic_obs::Gauge,
    arenas_available: ic_obs::Gauge,
    arenas_quarantined: ic_obs::Gauge,
    epoch: ic_obs::Gauge,
    applies: ic_obs::Counter,
    apply_ns: ic_obs::Histogram,
    /// The part of `apply_ns` spent patching the CSR and building the
    /// successor snapshot.
    apply_graph_ns: ic_obs::Histogram,
    /// The part spent deriving the apply's `ApplyDelta` and carrying the
    /// changed levels' rows and the seed memo from it.
    apply_carry_ns: ic_obs::Histogram,
    journal_records: ic_obs::Counter,
    touched_pct: ic_obs::Gauge,
    forests: exec::ForestCounters,
    tic: exec::TicCounters,
    local: exec::LocalCounters,
}

impl EngineMetrics {
    fn new() -> EngineMetrics {
        let registry = ic_obs::Registry::new();
        EngineMetrics {
            batches: registry.counter("engine.batches"),
            queries: registry.counter("engine.queries"),
            plan_ns: registry.histogram("engine.plan_ns"),
            solve_ns: registry.histogram("engine.solve_ns"),
            cache_hits: registry.counter("engine.plan.cache_hits"),
            index_routed: registry.counter("engine.plan.index_routed"),
            solver_runs: registry.counter("engine.plan.solver_runs"),
            answered_at_plan: registry.counter("engine.plan.answered_at_plan"),
            cached_results: registry.gauge("engine.cache.results"),
            arenas_available: registry.gauge("engine.arenas.available"),
            arenas_quarantined: registry.gauge("engine.arenas.quarantined"),
            epoch: registry.gauge("engine.epoch"),
            applies: registry.counter("engine.apply.count"),
            apply_ns: registry.histogram("engine.apply_ns"),
            apply_graph_ns: registry.histogram("engine.apply.graph_ns"),
            apply_carry_ns: registry.histogram("engine.apply.carry_ns"),
            journal_records: registry.counter("engine.apply.journal_records"),
            touched_pct: registry.gauge("engine.apply.touched_pct"),
            forests: exec::ForestCounters {
                builds: registry.counter("core.forest_builds"),
                build_ns: registry.histogram("core.forest_build_ns"),
            },
            tic: exec::TicCounters {
                deletions: registry.counter("core.tic_deletions"),
                children_materialized: registry.counter("core.tic_children_materialized"),
                loads: registry.counter("core.tic_loads"),
                walked: registry.counter("core.tic_walked"),
                certified: registry.counter("core.tic_certified"),
            },
            local: exec::LocalCounters {
                seeds: registry.counter("core.local_seeds"),
                seeds_skipped: registry.counter("core.local_seeds_skipped"),
                seeds_jumped: registry.counter("core.local_seeds_jumped"),
                seeds_capped: registry.counter("core.local_seeds_capped"),
                seeds_replayed: registry.counter("core.local_seeds_replayed"),
                targets_replayed: registry.counter("core.local_targets_replayed"),
                targets_inserted: registry.counter("core.local_targets_inserted"),
                pool_vertices: registry.counter("core.local_pool_vertices"),
                rows_builds: registry.counter("core.local_rows_builds"),
                rows_carried: registry.counter("core.local_rows_carried"),
                memo_dropped: registry.counter("core.local_memo_dropped"),
                memo_refused: registry.counter("core.local_memo_refused"),
                memo_bytes: registry.gauge("core.local_memo_bytes"),
            },
            registry,
        }
    }
}

/// Puts the one run of the adjacency check `snapshot` may owe (see
/// [`Engine::open`]) on `registry`: `store.adjacency_checks`,
/// `store.adjacency_check_failures` (counters) and
/// `store.adjacency_check_ns` (histogram). [`Engine::from_snapshot`] does
/// this for its own registry; a snapshot keeps the first observer it is
/// given, so a front that serves `STATS` from its own registry
/// (`ic-shard`) calls this before building the engine.
pub fn report_adjacency_check(snapshot: &GraphSnapshot, registry: &ic_obs::Registry) {
    let checks = registry.counter("store.adjacency_checks");
    let failures = registry.counter("store.adjacency_check_failures");
    let check_ns = registry.histogram("store.adjacency_check_ns");
    snapshot.observe_adjacency_check(move |elapsed, passed| {
        checks.inc();
        if !passed {
            failures.inc();
        }
        check_ns.observe(elapsed);
    });
}

/// A serving engine over one weighted graph. See the module docs.
pub struct Engine {
    serving: RwLock<Serving>,
    /// Incremental core-number maintainer, seeded lazily on the first
    /// [`Engine::apply`]; guarded separately so updates serialize
    /// without blocking read traffic.
    maintainer: Mutex<Option<CoreMaintainer>>,
    threads: usize,
    metrics: Arc<EngineMetrics>,
    pool: exec::Pool,
}

/// Default bound on the cross-batch result cache (distinct queries).
const DEFAULT_CACHE_CAPACITY: usize = 4096;

impl Engine {
    /// Builds an engine using all available hardware parallelism.
    pub fn new(wg: WeightedGraph) -> Self {
        Self::with_threads(wg, available_threads())
    }

    /// Builds an engine with an explicit worker count (`>= 1`; clamped).
    pub fn with_threads(wg: WeightedGraph, threads: usize) -> Self {
        Self::from_snapshot(GraphSnapshot::new(wg), threads)
    }

    /// Opens an engine from a persisted `ic-store` file (`ICS1`) using
    /// all available hardware parallelism. This is the **zero-rebuild
    /// cold start**: the graph, its core decomposition, memoized core
    /// levels, and precomputed extremum community forests all load from
    /// one checksummed read — no edge-list parse, no CSR rebuild, no
    /// bucket peel — so the first index-served query answers in
    /// milliseconds. Answers are bit-identical to an engine built from
    /// scratch on the same graph (held by the store round-trip suite).
    ///
    /// The file is memory-mapped: the snapshot borrows the kernel page
    /// cache instead of copying every section into owned buffers, so a
    /// cold start pays for the bytes its queries touch, not the file
    /// size. A mapped store carrying section sums is verified at open in
    /// everything except its adjacency arrays: their section hashes and
    /// `O(m)` structure check stay **owed** by the snapshot
    /// (`StoreFile::load_deferred`) and run once, before the first
    /// operation that reads adjacency — any planned query that is not a
    /// read of a persisted forest,
    /// [`try_apply`](Self::try_apply), [`persist`](Self::persist),
    /// [`snapshot`](Self::snapshot). A restart that only ever serves
    /// forest answers never pays for it. If the check fails, those
    /// operations return the typed corruption error
    /// ([`EngineError::CorruptStore`], [`StoreError::Corrupt`]) from then
    /// on — no solver runs, nothing panics — while forest-served answers,
    /// which read verified sections only, keep being served; run
    /// `ic-store verify` on a store before trusting it. The check's one
    /// run is reported as `store.adjacency_checks`,
    /// `store.adjacency_check_failures` and `store.adjacency_check_ns`
    /// on [`obs_registry`](Self::obs_registry).
    pub fn open<P: AsRef<std::path::Path>>(path: P) -> Result<Engine, StoreError> {
        Self::open_with_threads(path, available_threads())
    }

    /// [`Engine::open`] with an explicit worker count (`>= 1`; clamped).
    pub fn open_with_threads<P: AsRef<std::path::Path>>(
        path: P,
        threads: usize,
    ) -> Result<Engine, StoreError> {
        let file = ic_store::StoreFile::open_with(path, &ic_store::OpenOptions::mapped())?;
        let engine = Self::from_snapshot(file.load_deferred()?.into_snapshot(), threads);
        file.report_open(&engine.metrics.registry);
        Ok(engine)
    }

    /// Persists the engine's **current** serving state to an `ic-store`
    /// file: the graph and weights, the core decomposition, and every
    /// core level and extremum community forest the current epoch's
    /// snapshot has memoized (warm state accumulated by served
    /// traffic). A later [`Engine::open`] on the file warm-starts
    /// exactly that state.
    ///
    /// Called after [`Engine::apply`], this persists the *post-update*
    /// graph under its freshly-(re)derived structures — persisted
    /// artifacts are always internally consistent, never a mix of
    /// epochs, because everything is read off one immutable snapshot.
    pub fn persist<P: AsRef<std::path::Path>>(&self, path: P) -> Result<(), StoreError> {
        let snapshot = self.serving().snapshot;
        snapshot
            .ensure_adjacency()
            .map_err(|refused| StoreError::Corrupt {
                what: refused.to_string(),
            })?;
        ic_store::WarmState::memoized(&snapshot)
            .builder()
            .write_to(path)
    }

    /// Builds an engine over an existing snapshot, inheriting whatever
    /// levels it has already memoized.
    pub fn from_snapshot(snapshot: GraphSnapshot, threads: usize) -> Self {
        let arenas = Arc::new(ArenaPool::for_graph(snapshot.graph()));
        let metrics = EngineMetrics::new();
        report_adjacency_check(&snapshot, &metrics.registry);
        Engine {
            serving: RwLock::new(Serving {
                snapshot: Arc::new(snapshot),
                arenas,
                epoch: Epoch(0),
                seeds: Arc::default(),
                results: Arc::new(ResultCache::new(DEFAULT_CACHE_CAPACITY)),
            }),
            maintainer: Mutex::new(None),
            threads: threads.max(1),
            metrics: Arc::new(metrics),
            pool: exec::Pool::new(threads.max(1)),
        }
    }

    /// The engine's metrics registry (`engine.*` names): batch/plan
    /// counters, plan/solve latency histograms, cache/arena/epoch
    /// gauges, and the [`Engine::apply`] cascade-cost metrics.
    pub fn obs_registry(&self) -> &ic_obs::Registry {
        &self.metrics.registry
    }

    fn serving(&self) -> Serving {
        // The serving state is only ever *replaced whole* (one struct
        // assignment under the write lock in `apply`), so a poisoned
        // lock still guards a consistent value: recover and keep
        // serving rather than cascading one panicked thread into total
        // engine failure.
        self.serving
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Distinct query results the current epoch has memoized across
    /// batches. The snapshot is immutable per epoch and the solvers
    /// deterministic, so a hit is bit-identical to re-solving;
    /// [`Engine::apply`] starts the new epoch with the entries
    /// [`ApplyOutcome::keeps`] proves unchanged.
    pub fn cached_results(&self) -> usize {
        self.serving().results.len()
    }

    /// Drops every result the current epoch has memoized (the
    /// snapshot's core levels stay).
    pub fn clear_result_cache(&self) {
        self.serving().results.clear();
    }

    /// The engine's current shared snapshot. Batches started
    /// before a subsequent [`Engine::apply`] keep the snapshot they
    /// started with.
    ///
    /// Handing the graph out is a read of adjacency as far as a
    /// store-opened engine's owed check is concerned (see
    /// [`Engine::open`]): the check runs here if it has not yet. Its
    /// outcome stays on the snapshot
    /// ([`GraphSnapshot::ensure_adjacency`]); a caller that may be looking
    /// at an unverified store asks it before reading adjacency.
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        let snapshot = self.serving().snapshot;
        let _ = snapshot.ensure_adjacency();
        snapshot
    }

    /// The engine's current epoch (see [`Epoch`]).
    pub fn epoch(&self) -> Epoch {
        self.serving().epoch
    }

    /// Worker threads in the engine's pool (started with the first batch
    /// that needs them, joined when the engine drops).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Peel arenas constructed so far by the engine's pool
    /// (steady-state traffic keeps this at the worker count — arenas
    /// are pooled across batches, and [`Engine::apply`] hands the pool
    /// to the new epoch: the vertex set is fixed, and an arena is not
    /// tied to a graph).
    pub fn arenas_created(&self) -> usize {
        self.serving().arenas.created()
    }

    /// Arenas retired from the engine's pool after isolated
    /// solver panics (see [`ic_kcore::ArenaPool::quarantine`]): each one
    /// was live inside a panicking solver and is dropped rather than
    /// recirculated.
    pub fn arenas_quarantined(&self) -> usize {
        self.serving().arenas.quarantined()
    }

    /// Arenas currently parked in the engine's pool. With no
    /// batch in flight this equals
    /// `arenas_created() - arenas_quarantined()` — the pool-restoration
    /// invariant the chaos suite holds.
    pub fn arenas_available(&self) -> usize {
        self.serving().arenas.available()
    }

    /// Plans a batch without executing it: validation, cache lookups,
    /// immediate answers, dedup, family merging, and job ordering.
    /// Exposed for stats introspection ([`PlanStats`]) and testing;
    /// the `run_batch*` entry points plan internally. Planning only
    /// reads the result cache, it never populates it.
    pub fn plan(&self, queries: &[Query]) -> Plan {
        let Serving {
            snapshot, results, ..
        } = self.serving();
        Plan::build(&snapshot, queries, Some(&results))
    }

    /// Executes a batch and returns one result per query, aligned with
    /// the input order. Duplicate queries are answered by one solver run.
    ///
    /// This is the legacy plain surface: it flattens the richer
    /// [`run_batch_with`](Self::run_batch_with) answers — a
    /// deadline-degraded answer yields its communities with the status
    /// dropped, [`EngineError::DeadlineExceeded`] maps to
    /// [`SearchError::DeadlineExceeded`], and an isolated solver panic
    /// maps to [`SearchError::Internal`]. Callers that care about
    /// completeness should use `run_batch_with`.
    pub fn run_batch(&self, queries: &[Query]) -> Vec<Result<Vec<Community>, SearchError>> {
        self.run_batch_with(queries, &BatchOptions::default())
            .into_iter()
            .map(|res| match res {
                Ok(ans) => Ok(ans.communities),
                Err(e) => Err(e.into_search()),
            })
            .collect()
    }

    /// Executes a batch under [`BatchOptions`] and returns one
    /// status-tagged result per query, aligned with the input order.
    ///
    /// Each query's own [`Query::deadline`] is measured from the
    /// options' anchor, or from the moment execution starts when none is
    /// set. Queries that differ only in `r` and share a deadline share
    /// one run, at their largest `r`. When the deadline cuts that run
    /// short, each query takes the first `r` of what it returned:
    ///
    /// * exact paths (`min`/`max` forest reads, exact `TIC-IMPROVED`)
    ///   prove a rank prefix — bit-identical to the full answer's head.
    ///   A query whose `r` it covers is [`AnswerStatus::Complete`]; the
    ///   rest are [`AnswerStatus::Degraded`] with `proven_prefix_len`
    ///   equal to their length;
    /// * approximate (ε > 0) and local-search paths return best-so-far
    ///   (`Degraded`, `proven_prefix_len == 0`);
    /// * a query with nothing to take gets
    ///   [`EngineError::DeadlineExceeded`].
    ///
    /// A solver panic is isolated to its query (reported as
    /// [`EngineError::Internal`]); the rest of the batch completes
    /// normally. Degraded and failed results are never cached.
    pub fn run_batch_with(
        &self,
        queries: &[Query],
        options: &BatchOptions,
    ) -> Vec<Result<QueryAnswer, EngineError>> {
        self.run_batch_pinned(queries, options).1
    }

    /// [`run_batch_with`](Self::run_batch_with), also reporting the
    /// [`Epoch`] the batch was served under. The whole batch runs
    /// against **one** immutable snapshot grabbed at entry — a
    /// concurrent [`Engine::apply`] never tears a batch across graph
    /// versions — and the returned epoch identifies it. Serving front
    /// ends (`ic-serve`) tag every response with this epoch so clients
    /// can correlate in-flight answers with graph versions. The calling
    /// thread drains the batch's jobs beside at most `threads - 1` pool
    /// workers.
    pub fn run_batch_pinned(
        &self,
        queries: &[Query],
        options: &BatchOptions,
    ) -> (Epoch, Vec<Result<QueryAnswer, EngineError>>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let send = move |answer: &(usize, SharedAnswer)| drop(tx.send(answer.clone()));
        let sink: AnswerSink = Arc::new(move |_, answers| answers.iter().for_each(&send));
        let batch = self.start(queries, options, Arc::default(), sink);
        let helpers = batch.unclaimed().saturating_sub(1).min(self.threads - 1);
        if helpers > 0 {
            self.pool.push(Arc::clone(&batch), helpers);
        }
        batch.help();
        let mut slots: Vec<Option<Result<QueryAnswer, EngineError>>> = vec![None; queries.len()];
        for (idx, answer) in rx.iter().take(queries.len()) {
            slots[idx] = Some((*answer).clone());
        }
        if let Some(payload) = batch.take_cache_panic() {
            resume_unwind(payload);
        }
        let slots = slots
            .into_iter()
            .map(|slot| slot.expect("every query is answered exactly once"));
        (batch.epoch(), slots.collect())
    }

    /// Applies a batch of edge updates and swaps in a new snapshot under
    /// a new [`Epoch`] (returned). Returns the unchanged current epoch
    /// when no update changes the edge set (duplicate inserts, absent
    /// removes).
    ///
    /// Core numbers are maintained *incrementally* by a
    /// [`ic_kcore::CoreMaintainer`] (subcore traversal —
    /// cost proportional to the touched subcores, not the graph), and
    /// the new snapshot is seeded with them
    /// ([`GraphSnapshot::successor`]), so the from-scratch
    /// bucket peel never runs again. Vertex weights and the vertex set
    /// are fixed; updates address existing vertex ids.
    ///
    /// Concurrency: updates serialize among themselves; queries never
    /// block. In-flight batches finish on the snapshot they
    /// started with; queries submitted after `apply` returns see the new
    /// graph. Cached answers [`ApplyOutcome::keeps`] proves unchanged are
    /// carried into the new epoch's cache in the same step that swaps the
    /// snapshot, so no read of the new epoch misses one; the old epoch's
    /// cache is read only by the batches that pinned it.
    ///
    /// # Panics
    /// Panics when an update addresses a vertex outside the graph. The
    /// panic is **atomic**: serving state is untouched (the engine keeps
    /// answering on the pre-`apply` snapshot under the old epoch), the
    /// maintainer mutex is left clean — not poisoned — and the next
    /// `apply` reseeds the maintainer from the serving graph, discarding
    /// any half-applied update.
    pub fn apply(&self, updates: &[EdgeUpdate]) -> Epoch {
        self.apply_journaled(updates).epoch
    }

    /// [`Engine::apply_journaled`] with a typed refusal instead of a
    /// panic: every update's endpoints are validated against the serving
    /// vertex set first, and an out-of-range id returns
    /// [`EngineError::Unsupported`] with serving state untouched (as
    /// does a store whose owed adjacency check fails, with
    /// [`EngineError::CorruptStore`]). This is the entry point network
    /// layers use — a malformed client frame must never take the engine
    /// down.
    pub fn try_apply(&self, updates: &[EdgeUpdate]) -> Result<ApplyOutcome, EngineError> {
        let snapshot = self.serving().snapshot;
        snapshot.ensure_adjacency()?;
        let n = snapshot.graph().num_vertices();
        for update in updates {
            let (u, v) = update.endpoints();
            if u as usize >= n || v as usize >= n || u == v {
                return Err(EngineError::Unsupported {
                    detail: format!(
                        "update ({u}, {v}) is invalid for a graph of {n} vertices \
                         (endpoints must be distinct existing ids)"
                    ),
                });
            }
        }
        Ok(self.apply_journaled(updates))
    }

    /// [`Engine::apply`], additionally returning the cascade journal and
    /// both snapshot handles (see [`ApplyOutcome`]).
    ///
    /// The new snapshot's graph is the old one with the rows of the
    /// toggled endpoints replaced by the maintainer's
    /// ([`CoreMaintainer::patched_graph`]), over the same shared weights.
    /// What the apply changed is derived once ([`ApplyDelta`]). The new
    /// snapshot shares the old one's memoized levels, forests and core
    /// rows above [`ApplyOutcome::ceiling`] ([`GraphSnapshot::successor`]).
    /// At or below it, the old core rows and seed memo are carried from
    /// the delta ([`CoreRows::carry`], [`SeedMemo::carry`]); levels and
    /// forests start empty and rebuild lazily on their next query, so no
    /// pre-update structure is ever served.
    ///
    /// # Panics
    /// Same contract as [`Engine::apply`]: panics (atomically) when an
    /// update addresses a vertex outside the graph, or when the engine
    /// was opened from a store whose owed adjacency check fails (see
    /// [`Engine::open`]). Use [`Engine::try_apply`] for a typed
    /// refusal of either.
    pub fn apply_journaled(&self, updates: &[EdgeUpdate]) -> ApplyOutcome {
        // Recover rather than propagate a poisoned mutex: the slot is
        // `Option<CoreMaintainer>` and an interrupted apply leaves it
        // `None` (see below), so the recovered value is always either
        // absent or fully consistent.
        let mut guard = self.maintainer.lock().unwrap_or_else(|e| e.into_inner());
        let Serving {
            snapshot,
            epoch,
            seeds,
            arenas,
            ..
        } = self.serving();
        if let Err(refused) = snapshot.ensure_adjacency() {
            panic!("cannot apply updates to a corrupt store: {refused}");
        }
        let old_snapshot = Arc::clone(&snapshot);
        // Take the maintainer *out* of the slot for the duration of the
        // build. If anything below panics, the slot stays `None` and the
        // next apply reseeds core numbers from the serving graph instead
        // of trusting a maintainer caught mid-update.
        let mut maintainer = guard
            .take()
            .unwrap_or_else(|| CoreMaintainer::from_graph(snapshot.graph()));
        let apply_sw = ic_obs::Stopwatch::start();
        let m = &self.metrics;
        let built = catch_unwind(AssertUnwindSafe(move || {
            let records: Vec<CascadeRecord> = updates
                .iter()
                .map(|&update| maintainer.apply_recorded(update))
                .collect();
            let carry_sw = ic_obs::Stopwatch::start();
            let Some(delta) = ApplyDelta::new(&records, snapshot.graph()) else {
                return (maintainer, records, None);
            };
            let graph_sw = ic_obs::Stopwatch::start();
            let graph = maintainer.patched_graph(snapshot.graph(), &records);
            let new_snapshot = snapshot.successor(graph, maintainer.decomposition(), &delta);
            let graph_took = graph_sw.elapsed();
            m.apply_graph_ns.observe(graph_took);
            let rows_carried = CoreRows::carry(&snapshot, &new_snapshot, &delta);
            let seeds = seeds.carry(&delta);
            m.apply_carry_ns
                .observe(carry_sw.elapsed().saturating_sub(graph_took));
            ic_fail::fail_point!("engine::apply");
            m.local.rows_carried.add(rows_carried);
            (maintainer, records, Some((Arc::new(new_snapshot), seeds)))
        }));
        let (maintainer, records, swap) = match built {
            Ok(built) => built,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        *guard = Some(maintainer);
        m.applies.inc();
        m.journal_records.add(records.len() as u64);
        let mut touched: Vec<u32> = records
            .iter()
            .flat_map(|r| r.touched.iter().copied())
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let n = old_snapshot.graph().num_vertices();
        if n > 0 {
            m.touched_pct
                .set((touched.len() as f64 / n as f64 * 100.0).round() as i64);
        }
        let Some((snapshot, carried)) = swap else {
            apply_sw.observe(&m.apply_ns);
            return ApplyOutcome {
                epoch,
                changed: false,
                records,
                new_snapshot: Arc::clone(&old_snapshot),
                old_snapshot,
            };
        };
        let mut serving = self.serving.write().unwrap_or_else(|e| e.into_inner());
        let outcome = ApplyOutcome {
            epoch: Epoch(serving.epoch.0 + 1),
            changed: true,
            records,
            old_snapshot,
            new_snapshot: Arc::clone(&snapshot),
        };
        // Under the write lock: a read that sees the new epoch also
        // sees every entry carried into it.
        let keeps = |q: &Query, answer: &[Community]| outcome.keeps(q, answer);
        let results = Arc::new(serving.results.carry(keeps));
        // One whole-struct replacement: readers never observe a new
        // snapshot with an old epoch, memo or cache. The arena pool
        // carries over: arenas are sized for the vertex set, which is
        // fixed.
        let seeds = carried.memo;
        m.local.memo_dropped.add(carried.dropped);
        m.local.memo_refused.add(seeds.take_refused());
        m.local.memo_bytes.set(seeds.bytes() as i64);
        m.epoch.set(outcome.epoch.0 as i64);
        m.cached_results.set(results.len() as i64);
        let old = std::mem::replace(
            &mut *serving,
            Serving {
                snapshot,
                arenas,
                epoch: outcome.epoch,
                seeds: Arc::new(seeds),
                results,
            },
        );
        // The old epoch's state is freed after the lock is released, so
        // no read waits behind the deallocation.
        drop(serving);
        drop(old);
        apply_sw.observe(&m.apply_ns);
        outcome
    }

    /// Plans a batch against the serving snapshot on the calling thread
    /// and hands its plan-time answers to `sink`; the returned batch
    /// holds the jobs left to run. Its deadlines measure from the
    /// options' anchor when one is set (admission-anchored serving
    /// layers), from now otherwise.
    fn start(
        &self,
        queries: &[Query],
        options: &BatchOptions,
        trace: Arc<ic_obs::Trace>,
        sink: AnswerSink,
    ) -> Arc<exec::Batch> {
        let serving = self.serving();
        let snapshot = &serving.snapshot;
        let adjacency_owed = snapshot.adjacency_state() == ic_kcore::AdjacencyState::Owed;
        let anchor = options.anchor.unwrap_or_else(std::time::Instant::now);
        let plan_sw = ic_obs::Stopwatch::start();
        let plan = Plan::build(snapshot, queries, Some(&serving.results));
        let m = &self.metrics;
        plan_sw.observe(&m.plan_ns);
        m.batches.inc();
        m.queries.add(plan.stats.total_queries as u64);
        m.cache_hits.add(plan.stats.cache_hits as u64);
        m.index_routed.add(plan.stats.index_routed as u64);
        m.solver_runs.add(plan.stats.solver_runs as u64);
        m.answered_at_plan.add(plan.stats.answered_at_plan as u64);
        plan_sw.record(&trace, ic_obs::Stage::Plan);
        // This batch's plan is what ran (or waited out) the check a
        // store-opened snapshot owed: its plan span carries that.
        if adjacency_owed && snapshot.adjacency_state() != ic_kcore::AdjacencyState::Owed {
            trace.tag(ic_obs::Tag::AdjacencyChecked);
        }
        trace.note_plan(ic_obs::TracePlan {
            queries: plan.stats.total_queries as u64,
            answered_at_plan: plan.stats.answered_at_plan as u64,
            cache_hits: plan.stats.cache_hits as u64,
            solver_runs: plan.stats.solver_runs as u64,
            index_routed: plan.stats.index_routed as u64,
        });
        if plan.stats.solver_runs < plan.stats.sequential_runs {
            trace.tag(ic_obs::Tag::FamilyMerged);
        }
        exec::Batch::start(
            serving,
            anchor,
            plan,
            queries,
            trace,
            sink,
            Arc::clone(&self.metrics),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use ic_core::algo::{self, LocalSearchConfig};
    use ic_core::figure1::figure1;
    use ic_core::verify::check_community;
    use ic_core::Aggregation;

    fn engine(threads: usize) -> Engine {
        Engine::with_threads(figure1(), threads)
    }

    #[test]
    fn batch_matches_direct_solvers_bit_for_bit() {
        for threads in [1usize, 4] {
            let eng = engine(threads);
            let wg = figure1();
            let batch = vec![
                Query::new(2, 2, Aggregation::Min),
                Query::new(2, 5, Aggregation::Max),
                Query::new(2, 3, Aggregation::Sum),
                Query::new(2, 3, Aggregation::Sum).approx(0.1),
                Query::new(2, 2, Aggregation::SumSurplus { alpha: 1.0 }),
            ];
            let got = eng.run_batch(&batch);
            assert_eq!(
                got[0].as_ref().unwrap(),
                &Query::new(2, 2, Aggregation::Min).solve(&wg).unwrap()
            );
            assert_eq!(
                got[1].as_ref().unwrap(),
                &Query::new(2, 5, Aggregation::Max).solve(&wg).unwrap()
            );
            assert_eq!(
                got[2].as_ref().unwrap(),
                &Query::new(2, 3, Aggregation::Sum).solve(&wg).unwrap()
            );
            assert_eq!(
                got[3].as_ref().unwrap(),
                &Query::new(2, 3, Aggregation::Sum)
                    .approx(0.1)
                    .solve(&wg)
                    .unwrap()
            );
            assert_eq!(
                got[4].as_ref().unwrap(),
                &Query::new(2, 2, Aggregation::SumSurplus { alpha: 1.0 })
                    .solve(&wg)
                    .unwrap()
            );
        }
    }

    #[test]
    fn min_family_merge_is_exact_per_r() {
        let eng = engine(2);
        let wg = figure1();
        let batch: Vec<Query> = [1usize, 3, 7, 2, 1]
            .iter()
            .map(|&r| Query::new(2, r, Aggregation::Min))
            .collect();
        let plan = eng.plan(&batch);
        assert_eq!(plan.stats.solver_runs, 1, "one shared peel for all r");
        let got = eng.run_batch(&batch);
        for (q, res) in batch.iter().zip(&got) {
            assert_eq!(
                res.as_ref().unwrap(),
                &Query::new(q.k, q.r, Aggregation::Min).solve(&wg).unwrap(),
                "r = {}",
                q.r
            );
        }
    }

    #[test]
    fn sum_family_merge_is_exact_per_r() {
        let eng = engine(2);
        let wg = figure1();
        let batch: Vec<Query> = [1usize, 3, 7, 2]
            .iter()
            .map(|&r| Query::new(2, r, Aggregation::Sum))
            .collect();
        let plan = eng.plan(&batch);
        assert_eq!(plan.stats.solver_runs, 1, "one exact run for all r");
        let got = eng.run_batch(&batch);
        for (q, res) in batch.iter().zip(&got) {
            assert_eq!(
                res.as_ref().unwrap(),
                &Query::new(q.k, q.r, Aggregation::Sum).solve(&wg).unwrap(),
                "r = {}",
                q.r
            );
        }
    }

    /// The engine registry's current values of `names`, in order.
    fn counters(eng: &Engine, names: &[&str]) -> Vec<f64> {
        let entries = eng.obs_registry().flat_entries();
        let value = |name: &&str| match entries.iter().find(|(n, _)| n == name) {
            Some(entry) => entry.1,
            None => panic!("{name} not registered"),
        };
        names.iter().map(value).collect()
    }

    #[test]
    fn tic_work_counters_reach_the_registry() {
        let counts = |eng: &Engine| {
            counters(
                eng,
                &[
                    "core.tic_deletions",
                    "core.tic_children_materialized",
                    "core.tic_loads",
                    "core.tic_walked",
                    "core.tic_certified",
                ],
            )
        };
        let eng = engine(2);
        assert_eq!(counts(&eng), [0.0; 5]);
        let batch = [
            Query::new(2, 3, Aggregation::Sum),
            Query::new(2, 3, Aggregation::Sum).approx(0.2),
            Query::new(2, 2, Aggregation::Min),
        ];
        eng.run_batch(&batch);
        let first = counts(&eng);
        assert!(first.iter().all(|&c| c > 0.0), "{first:?}");
        // Work counts depend on the graph and the queries only.
        let again = engine(1);
        again.run_batch(&batch);
        assert_eq!(counts(&again), first);
        // The first batch loaded the level's root once, for both sums;
        // a second batch copies it from its image: the same work, that
        // one load fewer.
        again.clear_result_cache();
        again.run_batch(&batch);
        let second = counts(&again);
        let expect = [
            2.0 * first[0],
            2.0 * first[1],
            2.0 * first[2] - 1.0,
            2.0 * first[3],
            2.0 * first[4],
        ];
        assert_eq!(second, expect);
    }

    #[test]
    fn tic_after_an_apply_reads_no_pre_apply_root_image() {
        // K4 at k = 2: the root component's image holds the edge 0–1.
        // Removing it keeps {0, 1, 2, 3} the one 2-core component, so only
        // its induced edges tell the images apart; the children differ
        // ({0, 1, 2} is a community only with the edge).
        let g = ic_graph::graph_from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let wg = WeightedGraph::new(g, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let eng = Engine::with_threads(wg, 1);
        let batch = [
            Query::new(2, 10, Aggregation::Sum),
            Query::new(2, 10, Aggregation::Sum).approx(0.2),
        ];
        eng.run_batch(&batch);
        eng.apply(&[ic_kcore::EdgeUpdate::Remove { u: 0, v: 1 }]);
        let after = eng.snapshot();
        assert_eq!(after.level(2).components, [[0, 1, 2, 3]]);
        let fresh = Engine::with_threads(after.weighted().clone(), 1);
        let got = eng.run_batch(&batch);
        assert_eq!(got, fresh.run_batch(&batch));
        for (q, got) in batch.iter().zip(got) {
            assert_eq!(got.unwrap(), q.solve(after.weighted()).unwrap());
        }
    }

    #[test]
    fn sum_family_serves_every_r_as_a_prefix_under_value_ties() {
        // Two disjoint triangles with identical weights: the top-2 sum
        // communities tie at 9.0. One TIC run at the largest `r` answers
        // the whole family, every `r` its prefix, each equal to the
        // direct run bit for bit.
        let g = ic_graph::graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let wg = ic_graph::WeightedGraph::new(g, vec![3.0; 6]).unwrap();
        let deletions = |eng: &Engine| counters(eng, &["core.tic_deletions"])[0];
        let solo = Engine::with_threads(wg.clone(), 1);
        solo.run_batch(&[Query::new(2, 5, Aggregation::Sum)]);
        for threads in [1usize, 4] {
            let eng = Engine::with_threads(wg.clone(), threads);
            let batch: Vec<Query> = [1usize, 2, 5]
                .iter()
                .map(|&r| Query::new(2, r, Aggregation::Sum))
                .collect();
            assert_eq!(eng.plan(&batch).stats.solver_runs, 1);
            let got = eng.run_batch(&batch);
            assert_eq!(deletions(&eng), deletions(&solo), "one run, at r = 5");
            let longest = got[2].as_ref().unwrap();
            for (q, res) in batch.iter().zip(&got) {
                let res = res.as_ref().unwrap();
                assert_eq!(
                    res,
                    &q.solve(&wg).unwrap(),
                    "threads = {threads}, r = {}",
                    q.r
                );
                assert_eq!(res[..], longest[..res.len()], "r = {}", q.r);
            }
        }
    }

    #[test]
    fn constrained_single_thread_matches_sequential_local_search() {
        let eng = engine(1);
        let wg = figure1();
        // The five aggregations `miss_mix` draws, as one family.
        let aggregations = [
            Aggregation::Average,
            Aggregation::Sum,
            Aggregation::Min,
            Aggregation::Percentile { p: 0.75 },
            Aggregation::TopTSum { t: 2 },
        ];
        let batch = aggregations.map(|agg| Query::new(2, 3, agg).size_bound(4, true));
        let got = eng.run_batch(&batch);
        let config = LocalSearchConfig {
            k: 2,
            r: 3,
            s: 4,
            greedy: true,
        };
        for (agg, got) in aggregations.into_iter().zip(&got) {
            let expect = algo::local_search(&wg, &config, agg).unwrap();
            assert_eq!(got.as_ref().unwrap(), &expect, "{}", agg.name());
        }
    }

    #[test]
    fn local_work_counters_reach_the_registry() {
        let names = [
            "core.local_seeds",
            "core.local_seeds_skipped",
            "core.local_pool_vertices",
            "core.local_rows_builds",
            "core.local_seeds_replayed",
            "core.local_memo_bytes",
            "core.local_memo_refused",
        ];
        let counts = |eng: &Engine| counters(eng, &names);
        let eng = engine(1);
        // Peels and TIC read no rows: nothing is built for them.
        eng.run_batch(&[
            Query::new(2, 2, Aggregation::Min),
            Query::new(2, 2, Aggregation::Max),
            Query::new(2, 2, Aggregation::Sum),
        ]);
        assert_eq!(counts(&eng), [0.0; 7]);
        // One `min` query: every 2-core vertex is a seed, one rows
        // build; once the list is full, seeds that cannot beat its bar
        // are skipped.
        let min = Query::new(2, 1, Aggregation::Min).size_bound(4, true);
        eng.run_batch(&[min]);
        let core = eng.snapshot().level(2).mask.count() as f64;
        let [seeds, skipped, pooled, builds, replayed, bytes, refused] = counts(&eng)[..] else {
            unreachable!("seven names in, seven values out")
        };
        assert_eq!((seeds, builds, replayed, refused), (core, 1.0, 0.0, 0.0));
        assert!(skipped > 0.0 && skipped < seeds, "{skipped}");
        assert!(
            pooled >= 4.0 * (seeds - skipped) && pooled <= 4.0 * seeds,
            "{pooled}"
        );
        assert!(bytes > 0.0, "the expanded seeds are memoized");
        // A second family at the same (k, s, greedy) shares the rows and
        // serves every seed the first expanded from the memo: replayed,
        // or skipped when the entry bounds `avg` at or below its bar. It
        // builds the pools of the seeds `min` skipped.
        let avg = Query::new(2, 1, Aggregation::Average).size_bound(4, true);
        eng.run_batch(&[avg]);
        let [seeds, skipped_now, pooled_now, builds, replayed, _, _] = counts(&eng)[..] else {
            unreachable!("seven names in, seven values out")
        };
        assert_eq!(
            [seeds, pooled_now, builds, replayed + skipped_now - skipped],
            [2.0 * core, pooled + 4.0 * skipped, 1.0, core - skipped]
        );
        // A warm repeat builds nothing, and its bounds skip seeds.
        eng.clear_result_cache();
        eng.run_batch(&[avg]);
        let [seeds, skipped_warm, pooled_warm, _, replayed_warm, _, _] = counts(&eng)[..] else {
            unreachable!("seven names in, seven values out")
        };
        assert_eq!(seeds, 3.0 * core);
        assert_eq!(pooled_warm, pooled_now, "nothing built");
        assert!(skipped_warm > skipped_now, "{skipped_warm} > {skipped_now}");
        assert_eq!(
            (skipped_warm - skipped_now) + (replayed_warm - replayed),
            core
        );
    }

    #[test]
    fn target_counters_tell_the_replays_that_inserted() {
        let spec = ic_gen::datasets::by_name(ic_gen::datasets::Profile::Quick, "email").unwrap();
        let eng = Engine::with_threads(spec.generate_weighted(), 1);
        let names = ["core.local_targets_replayed", "core.local_targets_inserted"];
        let avg = Query::new(4, 1, Aggregation::Average).size_bound(12, true);
        eng.run_batch(&[avg]);
        let [replayed, inserted] = counters(&eng, &names)[..] else {
            unreachable!("two names in, two values out")
        };
        // Cold, a fresh entry's bound is over every prefix, qualifying
        // or not: some replays insert nothing.
        assert!(
            0.0 < inserted && inserted < replayed,
            "{inserted} of {replayed}"
        );
        // Warm, an `avg` entry's bound is its largest qualifying mean:
        // at r = 1 every replay it lets through beats the bar and inserts.
        eng.clear_result_cache();
        eng.run_batch(&[avg]);
        let [replayed_warm, inserted_warm] = counters(&eng, &names)[..] else {
            unreachable!("two names in, two values out")
        };
        assert!(replayed_warm > replayed);
        assert_eq!(replayed_warm - replayed, inserted_warm - inserted);
    }

    mod seed_memo {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(6))]

            /// A warm seed memo changes no answer: every family, served
            /// once from a memo an `avg` family warmed and once from the
            /// one it left itself, equals the paper-printed
            /// `oracle::local_search` — six aggregations over both
            /// strategies, greedy and random, several `s` per `k`, one of
            /// them above every component's size.
            #[test]
            fn warm_memo_answers_equal_the_oracle(
                n in 40usize..80,
                seed in any::<u64>(),
                distinct in 2u32..6,
            ) {
                let g = ic_gen::barabasi_albert(n, 4, ic_gen::GraphSeed(seed));
                let top = f64::from(distinct + 1);
                let weights = ic_gen::uniform_weights(n, 1.0, top, ic_gen::GraphSeed(seed));
                let wg = WeightedGraph::new(g, weights.into_iter().map(f64::floor).collect()).unwrap();
                let eng = Engine::with_threads(wg.clone(), 1);
                let aggregations = [
                    Aggregation::Average,
                    Aggregation::Sum,
                    Aggregation::SumSurplus { alpha: 0.5 },
                    Aggregation::Min,
                    Aggregation::Percentile { p: 0.75 },
                    Aggregation::TopTSum { t: 3 },
                ];
                for k in 2..5 {
                    for s in [k + 1, k + 4, 12, n] {
                        for greedy in [true, false] {
                            let warm = Query::new(k, 2, Aggregation::Average).size_bound(s, greedy);
                            eng.run_batch(&[warm]);
                            let family: Vec<(Aggregation, usize)> = aggregations
                                .iter()
                                .flat_map(|&agg| [1, 4].map(|r| (agg, r)))
                                .collect();
                            let batch: Vec<Query> = family
                                .iter()
                                .map(|&(agg, r)| Query::new(k, r, agg).size_bound(s, greedy))
                                .collect();
                            let want: Vec<Vec<Community>> = family
                                .iter()
                                .map(|&(agg, r)| {
                                    let config = LocalSearchConfig { k, r, s, greedy };
                                    algo::oracle::local_search(&wg, &config, agg).unwrap()
                                })
                                .collect();
                            for _ in 0..2 {
                                eng.clear_result_cache();
                                for ((q, got), want) in batch.iter().zip(eng.run_batch(&batch)).zip(&want) {
                                    prop_assert_eq!(&got.unwrap(), want, "{:?}", q);
                                }
                            }
                        }
                    }
                }
                let [replayed, bytes] = counters(&eng, &["core.local_seeds_replayed", "core.local_memo_bytes"])[..] else {
                    unreachable!("two names in, two values out")
                };
                prop_assert!(replayed > 0.0);
                prop_assert!(bytes > 0.0);
            }
        }
    }

    #[test]
    fn size_bounded_answers_follow_the_core_across_apply() {
        let spec = ic_gen::datasets::by_name(ic_gen::datasets::Profile::Quick, "email").unwrap();
        let eng = Engine::with_threads(spec.generate_weighted(), 1);
        let batch = [Aggregation::Sum, Aggregation::Average, Aggregation::Min]
            .map(|agg| Query::new(4, 10, agg).size_bound(12, true));
        eng.run_batch(&batch); // epoch 0's rows at k = 4 are memoized now
        let before = eng.snapshot();
        let (wg, cores) = (before.weighted(), &before.decomposition().core_numbers);
        let heaviest_first = |keep: fn(u32) -> bool| {
            let mut vs: Vec<u32> = (0..wg.num_vertices() as u32).collect();
            vs.retain(|&v| keep(cores[v as usize]));
            vs.sort_by(|a, b| wg.weight(*b).total_cmp(&wg.weight(*a)));
            vs
        };
        // Lift the heaviest 3-core vertex into the 4-core as one clique
        // with the core's six heaviest, and cut a vertex of core number
        // exactly 4 loose.
        let (inside, lifted) = (heaviest_first(|c| c >= 4), heaviest_first(|c| c == 3)[0]);
        let dropped = *inside.iter().rfind(|&&v| cores[v as usize] == 4).unwrap();
        let clique = [&inside[..6], &[lifted]].concat();
        let mut updates = Vec::new();
        for (i, &u) in clique.iter().enumerate() {
            updates.extend(clique[..i].iter().map(|&v| EdgeUpdate::Insert { u, v }));
        }
        let cut = wg.graph().neighbors(dropped).iter();
        updates.extend(cut.map(|&v| EdgeUpdate::Remove { u: dropped, v }));
        eng.apply(&updates);
        let after = eng.snapshot();
        let mask = &after.level(4).mask;
        assert!(mask.contains(lifted as usize) && !mask.contains(dropped as usize));
        // A fresh engine's answers, and the unmemoized per-graph solver's.
        let fresh = Engine::with_threads(after.weighted().clone(), 1);
        let got = eng.run_batch(&batch);
        assert_eq!(got, fresh.run_batch(&batch));
        for (q, got) in batch.iter().zip(got) {
            assert_eq!(got.unwrap(), q.solve(after.weighted()).unwrap());
        }
        // The apply carried level 4's rows, so the new epoch built none;
        // it laid out one graph and ran one carry.
        let names = [
            "core.local_rows_builds",
            "core.local_rows_carried",
            "engine.apply.graph_ns.count",
            "engine.apply.carry_ns.count",
        ];
        assert_eq!(counters(&eng, &names), [1.0; 4]);
    }

    #[test]
    fn forest_builds_are_counted_once_per_snapshot_level_and_direction() {
        let eng = engine(1);
        let names = ["core.forest_builds", "core.forest_build_ns.count"];
        let builds = |eng: &Engine| counters(eng, &names);
        assert_eq!(builds(&eng), [0.0; 2]);
        eng.run_batch(&[Query::new(2, 2, Aggregation::Min)]);
        eng.clear_result_cache();
        eng.run_batch(&[Query::new(2, 3, Aggregation::Min)]);
        assert_eq!(builds(&eng), [1.0; 2], "the second read is served");
        eng.run_batch(&[Query::new(2, 3, Aggregation::Max)]);
        assert_eq!(builds(&eng), [2.0; 2]);
        // An update inside the 2-core drops both forests of level 2.
        let (u, v) = eng.snapshot().graph().edges().next().unwrap();
        assert_ne!(eng.apply(&[EdgeUpdate::Remove { u, v }]).index(), 0);
        eng.run_batch(&[Query::new(2, 3, Aggregation::Min)]);
        assert_eq!(builds(&eng), [3.0; 2]);
    }

    #[test]
    fn constrained_multi_thread_results_verify() {
        let eng = engine(4);
        let wg = figure1();
        let q = Query::new(2, 3, Aggregation::Sum).size_bound(4, true);
        let got = eng.run_batch(&[q]);
        let res = got[0].as_ref().unwrap();
        assert!(!res.is_empty());
        for c in res {
            check_community(&wg, 2, Some(4), Aggregation::Sum, c).unwrap();
        }
    }

    #[test]
    fn invalid_queries_error_individually_without_poisoning_the_batch() {
        let eng = engine(2);
        let batch = vec![
            Query::new(2, 0, Aggregation::Min),                     // r = 0
            Query::new(2, 2, Aggregation::Average),                 // NP-hard unconstrained
            Query::new(2, 2, Aggregation::Sum).approx(1.5),         // bad epsilon
            Query::new(2, 2, Aggregation::Min).approx(0.5),         // epsilon on min
            Query::new(2, 2, Aggregation::Sum).size_bound(2, true), // s <= k
            Query::new(0, 2, Aggregation::Min),                     // k = 0
            Query::new(2, 2, Aggregation::SumSurplus { alpha: f64::NAN }), // NaN parameter
            Query::new(2, 2, Aggregation::Sum),                     // valid
        ];
        let got = eng.run_batch(&batch);
        for (i, res) in got.iter().take(batch.len() - 1).enumerate() {
            assert!(res.is_err(), "query {i} must fail");
        }
        assert!(got[batch.len() - 1].is_ok());
    }

    #[test]
    fn k_above_degeneracy_answers_empty_at_plan_time() {
        let eng = engine(2);
        let batch = vec![Query::new(100, 3, Aggregation::Min)];
        let plan = eng.plan(&batch);
        assert_eq!(plan.stats.answered_at_plan, 1);
        assert_eq!(plan.stats.solver_runs, 0);
        let got = eng.run_batch(&batch);
        assert!(got[0].as_ref().unwrap().is_empty());
    }

    #[test]
    fn duplicate_queries_share_one_solver_run() {
        let eng = engine(2);
        let q = Query::new(2, 3, Aggregation::Sum);
        let batch = vec![q, q, q, q];
        let plan = eng.plan(&batch);
        assert_eq!(plan.stats.solver_runs, 1);
        let got = eng.run_batch(&batch);
        assert!(got.iter().all(|r| r == &got[0]));
    }

    #[test]
    fn signed_zero_aggregation_parameters_share_one_job_and_cache_entry() {
        let eng = engine(2);
        let batch = vec![
            Query::new(2, 2, Aggregation::SumSurplus { alpha: 0.0 }),
            Query::new(2, 2, Aggregation::SumSurplus { alpha: -0.0 }),
        ];
        let plan = eng.plan(&batch);
        assert_eq!(plan.stats.solver_runs, 1, "-0.0 must not defeat dedup");
        let got = eng.run_batch(&batch);
        assert_eq!(got[0].as_ref().unwrap(), got[1].as_ref().unwrap());
        assert_eq!(eng.cached_results(), 1, "-0.0 must not split the cache");
        assert_eq!(eng.plan(&batch).stats.cache_hits, 2);
    }

    /// Submits `batch` through [`QueryBackend::submit`], waits for as
    /// many answers as it has queries, and returns how often each query
    /// was answered.
    fn submit_and_wait(eng: &Engine, batch: &[Query]) -> Vec<usize> {
        let (tx, rx) = std::sync::mpsc::channel();
        let sink: AnswerSink = Arc::new(move |_, answers| {
            for (idx, _) in answers {
                let _ = tx.send(*idx);
            }
        });
        eng.submit(batch, &BatchOptions::default(), Arc::default(), sink);
        let mut seen = vec![0usize; batch.len()];
        for idx in rx.iter().take(batch.len()) {
            seen[idx] += 1;
        }
        seen
    }

    #[test]
    fn streaming_delivers_every_query_exactly_once() {
        let eng = engine(3);
        let batch = vec![
            Query::new(2, 1, Aggregation::Min),
            Query::new(2, 2, Aggregation::Max),
            Query::new(9, 1, Aggregation::Min), // empty at plan time
            Query::new(2, 0, Aggregation::Min), // immediate error
            Query::new(2, 2, Aggregation::Sum).size_bound(4, true),
        ];
        assert_eq!(submit_and_wait(&eng, &batch), vec![1; batch.len()]);
    }

    #[test]
    fn single_worker_plans_run_on_the_calling_thread() {
        use ic_core::{AggregateFn, Certificates, StateView};
        use std::thread::ThreadId;

        // A custom aggregation that notes which thread evaluates it.
        static SEEN: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
        fn note() {
            SEEN.lock().unwrap().push(std::thread::current().id());
        }
        #[derive(Debug)]
        struct ThreadSpy;
        impl AggregateFn for ThreadSpy {
            fn name(&self) -> &str {
                "thread-spy"
            }
            fn certificates(&self) -> Certificates {
                Certificates::opaque()
            }
            fn evaluate(&self, member_weights: &[f64], _total_weight: f64) -> f64 {
                note();
                member_weights.iter().sum()
            }
            fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
                note();
                state.sum()
            }
        }
        let agg = Aggregation::custom(ThreadSpy).expect("certifies");
        let query = Query::new(2, 2, agg).size_bound(4, true);

        // One worker: the solver runs where `run_batch` was called — the
        // pool is never started.
        let eng = engine(1);
        SEEN.lock().unwrap().clear();
        let got = eng.run_batch(&[query]);
        assert!(!got[0].as_ref().unwrap().is_empty());
        let seen = std::mem::take(&mut *SEEN.lock().unwrap());
        assert!(!seen.is_empty(), "the solver evaluated the aggregation");
        let here = std::thread::current().id();
        assert!(
            seen.iter().all(|id| *id == here),
            "a single-worker plan must not leave the calling thread"
        );

        // A submitted batch runs on the pool, never on the submitter.
        let eng = engine(3);
        assert_eq!(submit_and_wait(&eng, &[query]), [1]);
        let seen = std::mem::take(&mut *SEEN.lock().unwrap());
        assert!(!seen.is_empty() && seen.iter().all(|id| *id != here));
    }

    #[test]
    fn a_panicking_callback_on_the_single_worker_path_returns_the_arena() {
        // The one pool worker runs the job and calls the sink, which
        // panics: the arena is already back, and the worker lives on.
        let eng = engine(1);
        let query = Query::new(2, 2, Aggregation::Sum);
        let (tx, rx) = std::sync::mpsc::channel();
        let sink: AnswerSink = Arc::new(move |_, _| {
            let _ = tx.send(());
            panic!("callback dies")
        });
        eng.submit(&[query], &BatchOptions::default(), Arc::default(), sink);
        rx.recv().unwrap();
        assert_eq!(eng.arenas_quarantined(), 0, "no solver panicked");
        assert_eq!(eng.arenas_available(), eng.arenas_created());
        assert!(eng.run_batch(&[query])[0].is_ok());
    }

    #[test]
    fn an_older_batch_runs_all_its_jobs_before_a_newer_batch_starts() {
        use ic_core::{AggregateFn, Certificates, StateView};
        use std::sync::atomic::{AtomicBool, Ordering};

        // A custom aggregation that holds the engine's one worker until
        // the test has queued every batch behind it (planning evaluates
        // it too, on the submitting thread, which it lets through).
        static OPEN: AtomicBool = AtomicBool::new(false);
        #[derive(Debug)]
        struct Gate;
        impl AggregateFn for Gate {
            fn name(&self) -> &str {
                "gate"
            }
            fn certificates(&self) -> Certificates {
                Certificates::opaque()
            }
            fn evaluate(&self, member_weights: &[f64], _total_weight: f64) -> f64 {
                let worker = std::thread::current().name() == Some("ic-engine-worker");
                while worker && !OPEN.load(Ordering::Acquire) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                member_weights.iter().sum()
            }
            fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
                self.evaluate(&[state.sum()], 0.0)
            }
        }
        let gate =
            Query::new(2, 2, Aggregation::custom(Gate).expect("certifies")).size_bound(4, true);
        let eng = engine(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let submit = |id: usize, batch: &[Query]| {
            let order = Arc::clone(&order);
            let sink: AnswerSink = Arc::new(move |_, _| order.lock().unwrap().push(id));
            eng.submit(batch, &BatchOptions::default(), Arc::default(), sink);
        };
        submit(0, &[gate]);
        // Three jobs each (two TIC runs and a forest read), no two
        // queries alike, so nothing is answered at plan time.
        for id in 1..=2 {
            let r = id;
            submit(
                id,
                &[
                    Query::new(2, r, Aggregation::Sum),
                    Query::new(2, r, Aggregation::SumSurplus { alpha: 1.0 }),
                    Query::new(2, r, Aggregation::Max),
                ],
            );
        }
        OPEN.store(true, Ordering::Release);
        while order.lock().unwrap().len() < 7 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(*order.lock().unwrap(), [0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn arenas_are_reused_across_batches() {
        let eng = engine(2);
        let batch = vec![
            Query::new(2, 2, Aggregation::Min),
            Query::new(2, 2, Aggregation::Sum),
        ];
        // Each apply drops level 2's forests and cached answers, and
        // hands the pool on: the rebuilds peel on arenas built before it,
        // and the last apply, with no batch after it, still holds them.
        let edges: Vec<(u32, u32)> = eng.snapshot().graph().edges().take(2).collect();
        for &(u, v) in &edges {
            let _ = eng.run_batch(&batch);
            assert_ne!(eng.apply(&[EdgeUpdate::Remove { u, v }]).index(), 0);
            let _ = eng.run_batch(&batch);
            eng.apply(&[EdgeUpdate::Insert { u, v }]);
        }
        let created = eng.arenas_created();
        assert!(
            (1..=eng.threads()).contains(&created),
            "created {created} arenas for {} workers",
            eng.threads()
        );
    }

    #[test]
    fn result_cache_serves_repeat_queries_across_batches() {
        let eng = engine(2);
        let batch = vec![
            Query::new(2, 3, Aggregation::Sum),
            Query::new(2, 2, Aggregation::Min),
        ];
        let first = eng.run_batch(&batch);
        assert_eq!(eng.cached_results(), 2);
        let plan = eng.plan(&batch);
        assert_eq!(plan.stats.cache_hits, 2);
        assert_eq!(plan.stats.solver_runs, 0);
        let second = eng.run_batch(&batch);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
        eng.clear_result_cache();
        assert_eq!(eng.cached_results(), 0);
        assert_eq!(eng.plan(&batch).stats.cache_hits, 0);
    }

    #[test]
    fn errors_are_not_cached() {
        let eng = engine(2);
        let bad = Query::new(2, 0, Aggregation::Min);
        assert!(eng.run_batch(&[bad])[0].is_err());
        assert_eq!(eng.cached_results(), 0);
    }

    #[test]
    fn repeated_batches_are_deterministic() {
        let eng = engine(4);
        let batch = vec![
            Query::new(2, 4, Aggregation::Min),
            Query::new(2, 4, Aggregation::Max),
            Query::new(2, 4, Aggregation::Sum),
        ];
        let a = eng.run_batch(&batch);
        let b = eng.run_batch(&batch);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
        }
    }

    #[test]
    fn persist_then_open_serves_identical_answers() {
        let dir = ScratchDir::new("engine-store");
        let path = dir.join("figure1.ics1");

        let eng = engine(2);
        let batch = vec![
            Query::new(2, 3, Aggregation::Min),
            Query::new(2, 5, Aggregation::Max),
            Query::new(2, 2, Aggregation::Sum),
        ];
        let expect = eng.run_batch(&batch);
        // Serving warmed the snapshot: persist captures level + forests.
        eng.persist(&path).unwrap();

        let reopened = Engine::open_with_threads(&path, 2).unwrap();
        // The persisted forests landed in the fresh snapshot's caches...
        assert!(reopened.snapshot().cached_extensions() >= 2);
        assert!(reopened.snapshot().cached_levels() >= 1);
        // ...and answers are bit-identical to the original engine.
        let got = reopened.run_batch(&batch);
        for (a, b) in expect.iter().zip(&got) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn index_and_peel_paths_agree_and_are_counted() {
        let eng = engine(2);
        let wg = figure1();
        let batch = vec![
            Query::new(2, 4, Aggregation::Min),
            Query::new(2, 1, Aggregation::Min),
            Query::new(2, 4, Aggregation::Max),
        ];
        let plan = eng.plan(&batch);
        assert_eq!(plan.stats.index_routed, 3, "built-ins are forest-served");
        let got = eng.run_batch(&batch);
        for (q, res) in batch.iter().zip(&got) {
            assert_eq!(res.as_ref().unwrap(), &q.solve(&wg).unwrap(), "{q:?}");
        }
        // The forest was memoized on the snapshot (one per direction).
        assert_eq!(eng.snapshot().cached_extensions(), 2);
    }

    #[test]
    fn open_rejects_missing_and_corrupt_stores() {
        assert!(Engine::open("/nonexistent/definitely-not-here.ics1").is_err());
        let dir = ScratchDir::new("engine-badstore");
        let path = dir.join("bad.ics1");
        let eng = engine(1);
        eng.persist(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        // A flip inside the adjacency arrays gets past a mapped open —
        // as a debt — and fails closed the moment something would read
        // them; anywhere else it fails the open itself.
        let refused = match Engine::open(&path) {
            Err(_) => true,
            Ok(opened) => matches!(
                opened.run_batch_with(&[Query::new(2, 2, Aggregation::Sum)], &Default::default())
                    [0],
                Err(EngineError::CorruptStore { .. })
            ),
        };
        assert!(refused, "flipped byte must fail closed");
        // The owned read checks the whole payload at open.
        assert!(ic_store::StoreFile::open(&path).is_err());
    }

    #[test]
    fn apply_moves_epochs_and_invalidates_the_cache() {
        let eng = engine(2);
        let q = Query::new(2, 2, Aggregation::Max);
        let before_epoch = eng.epoch();
        let before = eng.run_batch(&[q])[0].clone().unwrap();
        assert_eq!(eng.plan(&[q]).stats.cache_hits, 1);

        // Cut the figure-1 graph: v3's ties into the 2-core.
        let outcome = eng.apply_journaled(&[EdgeUpdate::Remove { u: 2, v: 8 }]);
        assert!(outcome.ceiling() >= Some(2), "the update changes level 2");
        assert!(!outcome.keeps(&q, &before));
        assert!(outcome.epoch > before_epoch);
        assert_eq!(eng.epoch(), outcome.epoch);
        assert_eq!(
            eng.plan(&[q]).stats.cache_hits,
            0,
            "pre-update cache entries must not serve the new epoch"
        );
        let after = eng.run_batch(&[q])[0].clone().unwrap();

        // A fresh engine on the mutated graph must agree exactly.
        let fresh = Engine::with_threads(eng.snapshot().weighted().clone(), eng.threads());
        assert_eq!(&after, fresh.run_batch(&[q])[0].as_ref().unwrap());
    }

    #[test]
    fn apply_without_changes_keeps_the_epoch() {
        let eng = engine(2);
        let e0 = eng.epoch();
        // Edge already present + edge already absent = no change.
        let e1 = eng.apply(&[
            EdgeUpdate::Insert { u: 0, v: 1 },
            EdgeUpdate::Remove { u: 0, v: 9 },
        ]);
        assert_eq!(e0, e1);
    }

    #[test]
    fn apply_journaled_reports_the_cascade_and_both_snapshots() {
        let eng = engine(2);
        let outcome = eng.apply_journaled(&[
            EdgeUpdate::Remove { u: 2, v: 8 },
            EdgeUpdate::Remove { u: 2, v: 8 }, // now absent: a no-op
        ]);
        assert!(outcome.changed);
        assert_eq!(outcome.epoch, eng.epoch());
        assert_eq!(outcome.records.len(), 2);
        assert!(outcome.records[0].applied);
        assert!(!outcome.records[1].applied);
        assert!(outcome.records[1].touched.is_empty());
        assert!(!Arc::ptr_eq(&outcome.old_snapshot, &outcome.new_snapshot));
        assert_eq!(
            outcome.new_snapshot.graph().num_edges() + 1,
            outcome.old_snapshot.graph().num_edges()
        );

        // A pure no-op batch reports unchanged and one shared snapshot.
        let outcome = eng.apply_journaled(&[EdgeUpdate::Remove { u: 2, v: 8 }]);
        assert!(!outcome.changed);
        assert!(Arc::ptr_eq(&outcome.old_snapshot, &outcome.new_snapshot));
    }

    #[test]
    fn try_apply_refuses_out_of_range_updates_atomically() {
        let eng = engine(2);
        let e0 = eng.epoch();
        let Err(err) = eng.try_apply(&[
            EdgeUpdate::Remove { u: 0, v: 1 },
            EdgeUpdate::Insert { u: 0, v: 999 },
        ]) else {
            panic!("vertex 999 is out of range");
        };
        assert!(matches!(err, EngineError::Unsupported { .. }));
        // Nothing applied: the valid leading update was not committed.
        assert_eq!(eng.epoch(), e0);
        assert!(eng.snapshot().graph().neighbors(0).contains(&1));
        // Self-loops are refused too.
        assert!(eng.try_apply(&[EdgeUpdate::Insert { u: 3, v: 3 }]).is_err());
        // A valid batch still goes through the same entry point.
        assert!(
            eng.try_apply(&[EdgeUpdate::Remove { u: 0, v: 1 }])
                .unwrap()
                .epoch
                > e0
        );
    }

    #[test]
    fn apply_carries_unchanged_levels_and_drops_changed_ones() {
        use ic_core::{algo::ExtremumIndex, Extremum};
        // A 5-clique (the 4-core) beside a triangle, weights 1..=8.
        let mut edges = vec![(5, 6), (6, 7), (5, 7)];
        for u in 0..5u32 {
            edges.extend((u + 1..5).map(|v| (u, v)));
        }
        let g = ic_graph::graph_from_edges(8, &edges);
        let weights: Vec<f64> = (1..=8).map(f64::from).collect();
        let eng = Engine::with_threads(WeightedGraph::new(g, weights).unwrap(), 1);
        let batch: Vec<Query> = [2, 4]
            .into_iter()
            .flat_map(|k| [Aggregation::Min, Aggregation::Max].map(|a| Query::new(k, 2, a)))
            .collect();
        eng.run_batch(&batch);
        let old = eng.snapshot();

        // Cutting the triangle changes levels 1 and 2 only.
        let outcome = eng.apply_journaled(&[EdgeUpdate::Remove { u: 5, v: 6 }]);
        assert_eq!(outcome.ceiling(), Some(2));
        let new = &outcome.new_snapshot;
        for dir in [Extremum::Min, Extremum::Max] {
            let carried = ExtremumIndex::peek(new, 4, dir).expect("level 4 is carried");
            assert!(Arc::ptr_eq(
                &carried,
                &ExtremumIndex::peek(&old, 4, dir).unwrap()
            ));
            assert!(
                ExtremumIndex::peek(new, 2, dir).is_none(),
                "level 2 rebuilds"
            );
        }
        let levels: Vec<usize> = new.memoized_levels().iter().map(|l| l.k).collect();
        assert_eq!(levels, [4]);
        // The level-4 answers were carried; the level-2 ones were not
        // (the `min` bar, 3, is below the cut's lighter endpoint, 6).
        assert_eq!(eng.plan(&batch).stats.cache_hits, 2);
        let fresh = Engine::with_threads(new.weighted().clone(), 1);
        assert_eq!(eng.run_batch(&batch), fresh.run_batch(&batch));

        // Inside the clique, below the `min` bar: level 4 changes, but
        // the level-2 `min` answer is carried by value.
        let q = Query::new(2, 1, Aggregation::Min);
        let kept = eng.run_batch(&[q])[0].clone().unwrap();
        let outcome = eng.apply_journaled(&[EdgeUpdate::Remove { u: 0, v: 1 }]);
        assert_eq!(outcome.ceiling(), Some(4));
        assert!(outcome.keeps(&q, &kept));
        assert!(!outcome.keeps(&Query::new(2, 1, Aggregation::Max), &kept));
        assert_eq!(eng.plan(&[q]).stats.cache_hits, 1);
        // Of the batch, only `(2, 2, min)` (bar 2) survives the cut.
        assert_eq!(eng.plan(&batch).stats.cache_hits, 1);
        let fresh = Engine::with_threads(eng.snapshot().weighted().clone(), 1);
        assert_eq!(eng.run_batch(&[q]), fresh.run_batch(&[q]));
    }

    /// Every solver path, for the deadline tests below: two `r` for
    /// each family that slices them out of one run, and an ε pair that
    /// never shares one.
    fn deadline_probe_batch() -> Vec<Query> {
        vec![
            Query::new(2, 3, Aggregation::Min),
            Query::new(2, 1, Aggregation::Min),
            Query::new(2, 4, Aggregation::Max),
            Query::new(2, 2, Aggregation::Max),
            Query::new(2, 3, Aggregation::Sum),
            Query::new(2, 1, Aggregation::Sum),
            Query::new(2, 2, Aggregation::Sum).approx(0.2),
            Query::new(2, 4, Aggregation::Sum).approx(0.2),
            Query::new(2, 3, Aggregation::Sum).size_bound(4, true),
        ]
    }

    #[test]
    fn zero_deadline_yields_typed_failure_or_certified_prefix() {
        let eng = engine(2);
        let base = deadline_probe_batch();
        // The full answers first (same engine, deterministic solvers).
        let full: Vec<Vec<Community>> = base
            .iter()
            .map(|q| eng.run_batch(&[*q])[0].clone().unwrap())
            .collect();
        eng.clear_result_cache();

        let armed: Vec<Query> = base
            .iter()
            .map(|q| q.deadline(std::time::Duration::ZERO))
            .collect();
        let got = eng.run_batch_with(&armed, &BatchOptions::default());
        for ((q, res), want) in base.iter().zip(&got).zip(&full) {
            match res {
                // Nothing proven before the (already expired) deadline.
                Err(EngineError::DeadlineExceeded) => {}
                Err(e) => panic!("{q:?}: unexpected error {e}"),
                Ok(ans) => match ans.status {
                    AnswerStatus::Complete => {
                        panic!("{q:?}: a zero deadline must never complete")
                    }
                    AnswerStatus::Degraded { proven_prefix_len } => {
                        assert!(proven_prefix_len <= ans.communities.len(), "{q:?}");
                        // The certificate: the proven prefix is the full
                        // answer's prefix, bit for bit.
                        assert_eq!(
                            &ans.communities[..proven_prefix_len],
                            &want[..proven_prefix_len],
                            "{q:?}: proven prefix must be bit-identical"
                        );
                    }
                },
            }
        }
        // Degraded and failed results must never be cached.
        assert_eq!(eng.cached_results(), 0);
    }

    #[test]
    fn zero_deadline_on_a_memoized_forest_is_exceeded() {
        use ic_core::{algo::ExtremumIndex, Extremum};
        let eng = engine(2);
        let q = Query::new(2, 3, Aggregation::Min);
        assert!(eng.run_batch(&[q])[0].is_ok());
        eng.clear_result_cache();
        assert!(ExtremumIndex::peek(&eng.snapshot(), 2, Extremum::Min).is_some());
        // Nothing to build: the read itself must see the deadline.
        let armed = q.deadline(std::time::Duration::ZERO);
        let got = eng.run_batch_with(&[armed], &BatchOptions::default());
        assert!(
            matches!(got[0], Err(EngineError::DeadlineExceeded)),
            "{:?}",
            got[0]
        );
    }

    #[test]
    fn generous_deadline_is_complete_and_bit_identical() {
        let eng = engine(2);
        let base = deadline_probe_batch();
        let hour = std::time::Duration::from_secs(3600);
        let armed: Vec<Query> = base.iter().map(|q| q.deadline(hour)).collect();
        // Armed siblings share one run per family, as unarmed ones do;
        // the ε pair stays two runs either way.
        let runs = |batch: &[Query]| eng.plan(batch).stats.solver_runs;
        assert_eq!(runs(&armed), runs(&base));
        assert_eq!(runs(&armed[6..8]), 2);
        assert_eq!(runs(&base[6..8]), 2);
        let want = eng.run_batch(&base);
        eng.clear_result_cache();
        let got = eng.run_batch_with(&armed, &BatchOptions::default());
        for ((q, want), got) in base.iter().zip(&want).zip(&got) {
            let ans = got.as_ref().unwrap();
            assert!(ans.is_complete(), "{q:?}: loose deadline must complete");
            assert_eq!(
                &ans.communities,
                want.as_ref().unwrap(),
                "{q:?}: armed checkpoints must not change the answer"
            );
        }
        // Complete answers cache exactly like unarmed ones.
        assert_eq!(eng.cached_results(), base.len());
    }

    #[test]
    fn admission_anchored_deadline_counts_queue_wait() {
        let eng = engine(2);
        let q = Query::new(2, 3, Aggregation::Sum).deadline(std::time::Duration::from_millis(100));

        // Unanchored, the 100ms budget is generous: the query completes.
        let got = eng.run_batch_with(&[q], &BatchOptions::default());
        assert!(
            got[0].as_ref().unwrap().is_complete(),
            "without queue wait the budget is ample"
        );
        eng.clear_result_cache();

        // Anchored one second in the past — as if the query had sat in
        // an admission queue — the same 100ms budget is already spent
        // before the solver starts: it must NOT complete.
        let Some(admission) =
            std::time::Instant::now().checked_sub(std::time::Duration::from_secs(1))
        else {
            return; // clock too close to boot to represent the wait
        };
        let opts = BatchOptions::default().deadline_from(admission);
        let got = eng.run_batch_with(&[q], &opts);
        match &got[0] {
            Err(EngineError::DeadlineExceeded) => {}
            Ok(ans) => assert!(
                !ans.is_complete(),
                "queue wait must shrink the effective budget"
            ),
            Err(e) => panic!("unexpected error {e}"),
        }
        assert_eq!(eng.cached_results(), 0, "expired answers are not cached");
    }

    #[test]
    fn run_batch_pinned_reports_the_serving_epoch() {
        let eng = engine(2);
        let q = Query::new(2, 2, Aggregation::Min);
        let (epoch, results) = eng.run_batch_pinned(&[q], &BatchOptions::default());
        assert_eq!(epoch, eng.epoch());
        assert!(results[0].is_ok());
        let moved = eng.apply(&[EdgeUpdate::Remove { u: 2, v: 8 }]);
        let (epoch2, _) = eng.run_batch_pinned(&[q], &BatchOptions::default());
        assert_eq!(epoch2, moved, "post-apply batches pin the new epoch");
        assert!(epoch2 > epoch);
    }

    #[test]
    fn armed_repeats_hit_the_cache_and_cut_runs_leave_it_alone() {
        let eng = engine(2);
        let q = Query::new(2, 3, Aggregation::Min);
        // Warm the cache with the complete answer.
        let want = eng.run_batch(&[q])[0].clone().unwrap();
        assert_eq!(eng.cached_results(), 1);
        // The deadline is not part of the cache key: an armed repeat is
        // answered at plan time, bit-identically, with no solver run.
        let armed = [q.deadline(std::time::Duration::from_secs(3600))];
        let stats = eng.plan(&armed).stats;
        assert_eq!((stats.cache_hits, stats.solver_runs), (1, 0));
        let got = eng.run_batch_with(&armed, &BatchOptions::default());
        assert_eq!(got[0].as_ref().unwrap().communities, want);
        // A run its deadline cut short caches nothing.
        let cut = Query::new(2, 3, Aggregation::Sum).deadline(std::time::Duration::ZERO);
        let got = eng.run_batch_with(&[cut], &BatchOptions::default());
        assert!(!got[0].as_ref().is_ok_and(QueryAnswer::is_complete));
        assert_eq!(eng.cached_results(), 1);
    }

    #[test]
    fn apply_panic_is_atomic_and_recoverable() {
        let eng = engine(2);
        let q = Query::new(2, 2, Aggregation::Min);
        let before = eng.run_batch(&[q])[0].clone().unwrap();
        let e0 = eng.epoch();

        // An update addressing a vertex outside the graph panics...
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            eng.apply(&[EdgeUpdate::Insert { u: 0, v: 9_999 }]);
        }));
        assert!(panicked.is_err(), "out-of-range vertex must panic");

        // ...atomically: serving state is untouched and keeps answering.
        assert_eq!(eng.epoch(), e0, "failed apply must not move the epoch");
        eng.clear_result_cache();
        assert_eq!(eng.run_batch(&[q])[0].clone().unwrap(), before);

        // The engine is not wedged: the next (valid) apply succeeds and
        // the post-update answers match a from-scratch engine exactly.
        let e1 = eng.apply(&[EdgeUpdate::Remove { u: 2, v: 8 }]);
        assert!(e1 > e0, "post-panic apply must advance the epoch");
        let after = eng.run_batch(&[q])[0].clone().unwrap();
        let fresh = Engine::with_threads(eng.snapshot().weighted().clone(), eng.threads());
        assert_eq!(&after, fresh.run_batch(&[q])[0].as_ref().unwrap());
    }
}

/// The suites' self-removing scratch directory, shared with this
/// crate's unit tests.
#[cfg(test)]
#[path = "../../../tests/common/scratch.rs"]
mod scratch;
