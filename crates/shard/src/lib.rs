//! `ic-shard`: scatter-gather serving of one logical graph across many
//! per-shard `ICS1` stores and engine instances.
//!
//! A million-node graph does not need a million-node peel per query:
//! communities never span connected components, so the graph can be
//! partitioned along component boundaries (and, inside oversized
//! components, along k-level contours — see `ic_store::shard`) into
//! self-contained shard stores. [`ShardedEngine`] opens every shard in
//! a directory (memory-mapped by default), plans each query against
//! only the shards whose *group* routes that `k` to them, scatters one
//! engine batch per contributing shard, translates local vertex ids
//! back to global ids, and merges the per-shard top-`r` lists under the
//! canonical ranking order.
//!
//! **Bit-identity.** The merged answer equals a single unsharded
//! engine's answer bit for bit, because
//!
//! 1. every community of the unsharded answer lives in exactly one
//!    shard of each group's serving assignment (components are
//!    preserved; k-sliced shards preserve all k-cores for `k >= k_lo`),
//! 2. any community in the global top-`r` is in its own shard's local
//!    top-`r` (dropping other shards only removes competitors), so
//!    per-shard `r`-truncation loses nothing — provided the gather
//!    selects by the order the solver selects by — and
//! 3. that order is *total* and preserved by the strictly increasing
//!    local→global id maps, so the k-way merge is associative and
//!    order-invariant (held by `tests/merge_prop.rs`). It is the
//!    canonical ranking (value desc, size asc, lexicographic vertex list
//!    asc), the one cut every solver makes (DESIGN.md §4).
//!
//! Weight sums stay bit-identical because every shard store carries the
//! *global* total weight (`ShardMeta`), which `sum`-family surpluses
//! evaluate against.
//!
//! Approximate (ε > 0) and size-constrained queries are **rejected**
//! with a typed error: their per-shard answers carry no cross-shard
//! optimality certificate, so a merge could silently differ from the
//! unsharded engine. Exact paths (`min`/`max` peels, exact TIC) merge
//! losslessly; deadline-degraded shard answers fold into a conservative
//! best-so-far merge (`proven_prefix_len = 0`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};

use ic_core::{Community, Query, SearchError, Solver};
use ic_engine::{
    AnswerSink, AnswerStatus, BatchOptions, Engine, EngineError, Epoch, OpenOptions, QueryAnswer,
    QueryBackend, SharedAnswer,
};
use ic_mem::SharedSlice;
use ic_store::{ShardMeta, StoreError, StoreFile};
use std::sync::Arc;

/// One opened shard: its engine, its global-id translation, and the
/// routing metadata persisted at build time.
struct Shard {
    engine: Engine,
    /// Local vertex id -> global vertex id, strictly ascending.
    id_map: SharedSlice<u32>,
    meta: ShardMeta,
    path: PathBuf,
}

/// A scatter-gather serving front over a directory of shard stores.
/// See the module docs; built by [`ShardedEngine::open_dir`].
pub struct ShardedEngine {
    shards: Vec<Shard>,
    /// Routing groups: shard indices per group, ascending `k_lo`.
    groups: Vec<Vec<usize>>,
    global_n: u64,
    global_m: u64,
    metrics: ShardMetrics,
}

/// Scatter-gather observability (`shard.*` names) on a per-instance
/// registry, mirroring the engine's layout. The per-shard engines keep
/// their own registries; this one times the front itself.
struct ShardMetrics {
    registry: ic_obs::Registry,
    batches: ic_obs::Counter,
    fanout: ic_obs::Counter,
    scatter_ns: ic_obs::Histogram,
    merge_ns: ic_obs::Histogram,
}

impl ShardMetrics {
    fn new() -> ShardMetrics {
        let registry = ic_obs::Registry::new();
        ShardMetrics {
            batches: registry.counter("shard.batches"),
            fanout: registry.counter("shard.fanout"),
            scatter_ns: registry.histogram("shard.scatter_ns"),
            merge_ns: registry.histogram("shard.merge_ns"),
            registry,
        }
    }
}

fn corrupt<S: Into<String>>(what: S) -> StoreError {
    StoreError::Corrupt { what: what.into() }
}

impl ShardedEngine {
    /// Opens every `shard-*.ics1` (or `.ics`) store under `dir` with
    /// default options: memory-mapped backing and hardware parallelism
    /// split across shards.
    pub fn open_dir<P: AsRef<Path>>(dir: P) -> Result<ShardedEngine, StoreError> {
        Self::open_dir_with(dir, &OpenOptions::default())
    }

    /// [`ShardedEngine::open_dir`] with explicit [`OpenOptions`].
    /// `options.threads` is the *total* worker budget: it is divided
    /// evenly across shards (at least one each) because scattered
    /// batches run concurrently.
    ///
    /// Fails closed on a malformed shard set: missing/duplicated shard
    /// indices, inconsistent global graph identity, a group without a
    /// `k_lo = 1` base shard, or base shards that do not partition the
    /// global vertex set.
    pub fn open_dir_with<P: AsRef<Path>>(
        dir: P,
        options: &OpenOptions,
    ) -> Result<ShardedEngine, StoreError> {
        let dir = dir.as_ref();
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                matches!(
                    p.extension().and_then(|e| e.to_str()),
                    Some("ics1") | Some("ics")
                )
            })
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(corrupt(format!(
                "no shard stores (*.ics1) found in {}",
                dir.display()
            )));
        }
        let per_shard_threads = (options.threads / paths.len()).max(1);
        let engine_options = options.clone().threads(per_shard_threads);

        // Like `Engine::open`, a mapped shard store is verified here in
        // everything but its adjacency arrays; that check stays owed by
        // the shard's snapshot until one of its queries reads adjacency,
        // and its one run is reported on the front's registry, as is
        // every shard store's open.
        let metrics = ShardMetrics::new();
        let mut shards = Vec::with_capacity(paths.len());
        for path in paths {
            let file = StoreFile::open_with(&path, &engine_options.store)?;
            file.report_open(&metrics.registry);
            let mut contents = file.load_deferred()?;
            let Some(shard) = contents.shard.take() else {
                return Err(corrupt(format!(
                    "{}: not a shard store (no shard-meta section)",
                    path.display()
                )));
            };
            let snapshot = contents.into_snapshot();
            ic_engine::report_adjacency_check(&snapshot, &metrics.registry);
            let engine = Engine::from_snapshot(snapshot, engine_options.threads);
            shards.push(Shard {
                engine,
                id_map: shard.id_map,
                meta: shard.meta,
                path,
            });
        }
        shards.sort_by_key(|s| s.meta.shard_index);
        Self::validate(shards, metrics)
    }

    /// Structural validation + group-table construction over opened
    /// shards (see [`ShardedEngine::open_dir_with`] for what fails).
    fn validate(shards: Vec<Shard>, metrics: ShardMetrics) -> Result<ShardedEngine, StoreError> {
        let first = &shards[0].meta;
        let (global_n, global_m) = (first.global_n, first.global_m);
        for (i, s) in shards.iter().enumerate() {
            let m = &s.meta;
            let name = s.path.display();
            if m.num_shards != shards.len() as u64 {
                return Err(corrupt(format!(
                    "{name}: declares {} shards but the directory holds {}",
                    m.num_shards,
                    shards.len()
                )));
            }
            if m.shard_index != i as u64 {
                return Err(corrupt(format!(
                    "{name}: duplicate or missing shard index (expected {i}, found {})",
                    m.shard_index
                )));
            }
            if m.global_n != global_n
                || m.global_m != global_m
                || m.total_weight_bits != first.total_weight_bits
            {
                return Err(corrupt(format!(
                    "{name}: global graph identity disagrees with shard 0"
                )));
            }
            if s.id_map.last().is_some_and(|&v| v as u64 >= global_n) {
                return Err(corrupt(format!(
                    "{name}: id map addresses vertices beyond the global graph"
                )));
            }
            if m.k_lo == 0 {
                return Err(corrupt(format!("{name}: k_lo must be >= 1")));
            }
        }

        // Group table: per group, shard indices sorted by k_lo; the
        // base shard (k_lo = 1) must exist so every k routes somewhere.
        let max_group = shards.iter().map(|s| s.meta.group).max().unwrap_or(0);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); max_group as usize + 1];
        for (i, s) in shards.iter().enumerate() {
            groups[s.meta.group as usize].push(i);
        }
        for (g, members) in groups.iter_mut().enumerate() {
            members.sort_by_key(|&i| shards[i].meta.k_lo);
            if members.is_empty() {
                return Err(corrupt(format!("group {g} has no shards")));
            }
            if shards[members[0]].meta.k_lo != 1 {
                return Err(corrupt(format!("group {g} has no k_lo = 1 base shard")));
            }
            if members
                .windows(2)
                .any(|w| shards[w[0]].meta.k_lo == shards[w[1]].meta.k_lo)
            {
                return Err(corrupt(format!("group {g} has shards with duplicate k_lo")));
            }
        }

        // The k_lo = 1 base shards must partition the global vertex
        // set: every global id covered exactly once. Anything else
        // would silently drop or double-count communities. A partition
        // has `global_n` entries in all: checking that first bounds the
        // bitmap by id-map bytes present in the files, not by a number
        // the metas declare, and leaves "no id owned twice" (every id is
        // below `global_n`, above) meaning "none unowned" as well.
        let base = || shards.iter().filter(|s| s.meta.k_lo == 1);
        let owned: u64 = base().map(|s| s.id_map.len() as u64).sum();
        if owned != global_n || global_n > u64::from(u32::MAX) + 1 {
            return Err(corrupt(format!(
                "the base shards own {owned} vertices but the shard metas \
                 declare a global graph of {global_n}"
            )));
        }
        let mut seen = vec![false; global_n as usize];
        for s in base() {
            for &v in s.id_map.iter() {
                if seen[v as usize] {
                    return Err(corrupt(format!(
                        "global vertex {v} is owned by two base shards"
                    )));
                }
                seen[v as usize] = true;
            }
        }

        Ok(ShardedEngine {
            shards,
            groups,
            global_n,
            global_m,
            metrics,
        })
    }

    /// The front's metrics registry (`shard.*` names): batch and
    /// fan-out counters plus scatter/merge latency histograms. The
    /// per-shard engines keep their own `engine.*` registries.
    pub fn obs_registry(&self) -> &ic_obs::Registry {
        &self.metrics.registry
    }

    /// Number of opened shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of routing groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Vertices in the logical (unsharded) graph.
    pub fn global_vertices(&self) -> usize {
        self.global_n as usize
    }

    /// Edges in the logical (unsharded) graph.
    pub fn global_edges(&self) -> usize {
        self.global_m as usize
    }

    /// The shard indices a query with this `k` scatters to: per group,
    /// the shard with the largest `k_lo <= k`, skipped entirely when
    /// its k-core is empty (`max_core < k`).
    pub fn route(&self, k: usize) -> Vec<usize> {
        let k = u64::try_from(k).unwrap_or(u64::MAX);
        let mut out = Vec::new();
        for members in &self.groups {
            let serving = members
                .iter()
                .copied()
                .filter(|&i| self.shards[i].meta.k_lo <= k)
                .max_by_key(|&i| self.shards[i].meta.k_lo);
            if let Some(i) = serving {
                if self.shards[i].meta.max_core >= k {
                    out.push(i);
                }
            }
        }
        out
    }

    /// Executes a batch across shards; the sharded equivalent of
    /// [`Engine::run_batch_pinned`]. Results align with the input
    /// order; the epoch is always the initial one (sharded serving is
    /// read-only — there is no cross-shard `apply`).
    pub fn run_batch_pinned(
        &self,
        queries: &[Query],
        options: &BatchOptions,
    ) -> (Epoch, Vec<Result<QueryAnswer, EngineError>>) {
        self.run_batch_inner(queries, options, None)
    }

    fn run_batch_inner(
        &self,
        queries: &[Query],
        options: &BatchOptions,
        trace: Option<&ic_obs::Trace>,
    ) -> (Epoch, Vec<Result<QueryAnswer, EngineError>>) {
        self.metrics.batches.inc();
        let mut slots: Vec<Option<Result<QueryAnswer, EngineError>>> = vec![None; queries.len()];
        // Per shard: which query indices scatter to it.
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (qi, q) in queries.iter().enumerate() {
            match q.solver() {
                Err(e) => {
                    slots[qi] = Some(Err(EngineError::Search(e)));
                    continue;
                }
                Ok(Solver::TicApprox) => {
                    slots[qi] = Some(Err(EngineError::Search(SearchError::InvalidParams(
                        "approximate (epsilon > 0) queries are not shard-mergeable: per-shard \
                         answers carry no cross-shard optimality certificate; use epsilon = 0"
                            .to_string(),
                    ))));
                    continue;
                }
                Ok(Solver::LocalSearch) => {
                    slots[qi] = Some(Err(EngineError::Search(SearchError::InvalidParams(
                        "size-constrained local search is not shard-mergeable: its heuristic \
                         answers depend on the global search pool"
                            .to_string(),
                    ))));
                    continue;
                }
                Ok(Solver::MinPeel | Solver::MaxPeel | Solver::TicExact) => {}
                // `Solver` is non-exhaustive: a solver class this build
                // does not know is by definition not proven mergeable.
                Ok(_) => {
                    slots[qi] = Some(Err(EngineError::Search(SearchError::InvalidParams(
                        "unknown solver class is not shard-mergeable".to_string(),
                    ))));
                    continue;
                }
            }
            let targets = self.route(q.k);
            if targets.is_empty() {
                // Every group's serving shard has an empty k-core: the
                // global k-core is empty too.
                slots[qi] = Some(Ok(QueryAnswer::complete(Vec::new())));
                continue;
            }
            for si in targets {
                per_shard[si].push(qi);
            }
        }

        // Scatter: one engine batch per contributing shard, run
        // concurrently (each shard engine has its own worker pool).
        // The traced call is the one that hands back the engines' shared
        // result slots (no per-shard deep copy); an untraced batch
        // records into a trace nobody reads.
        let scratch = ic_obs::Trace::new();
        let trace_or_scratch = trace.unwrap_or(&scratch);
        let scatter_sw = ic_obs::Stopwatch::start();
        let mut shard_results: Vec<Option<Vec<SharedAnswer>>> =
            (0..self.shards.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = per_shard
                .iter()
                .enumerate()
                .filter(|(_, qis)| !qis.is_empty())
                .map(|(si, qis)| {
                    let shard = &self.shards[si];
                    let subset: Vec<Query> = qis.iter().map(|&qi| queries[qi]).collect();
                    (
                        si,
                        scope.spawn(move || {
                            shard
                                .engine
                                .run_batch_traced(&subset, options, trace_or_scratch)
                                .1
                        }),
                    )
                })
                .collect();
            self.metrics.fanout.add(handles.len() as u64);
            for (si, handle) in handles {
                // A panicking shard solver is already isolated per
                // query inside its engine; a panic escaping the batch
                // call itself is a bug — propagate it.
                shard_results[si] = Some(handle.join().expect("shard batch panicked"));
            }
        });
        if let Some(trace) = trace {
            scatter_sw.record(trace, ic_obs::Stage::Solve);
        }
        scatter_sw.observe(&self.metrics.scatter_ns);

        // Gather: merge each query's per-shard answers.
        let merge_sw = ic_obs::Stopwatch::start();
        for (qi, q) in queries.iter().enumerate() {
            if slots[qi].is_some() {
                continue;
            }
            let mut parts: Vec<(&Shard, &[Community])> = Vec::new();
            let mut degraded: Option<AnswerStatus> = None;
            let mut error: Option<EngineError> = None;
            for (si, qis) in per_shard.iter().enumerate() {
                let Some(pos) = qis.iter().position(|&i| i == qi) else {
                    continue;
                };
                let res = &shard_results[si].as_ref().expect("shard batch ran")[pos];
                match res.as_ref() {
                    Ok(ans) => {
                        if let AnswerStatus::Degraded { reason, .. } = ans.status {
                            // Any degraded contribution makes the merge
                            // best-so-far: no cross-shard rank is proven.
                            degraded = Some(AnswerStatus::Degraded {
                                reason,
                                proven_prefix_len: 0,
                            });
                        }
                        parts.push((&self.shards[si], &ans.communities));
                    }
                    // A shard that proved nothing before its deadline
                    // contributes an empty best-so-far list; the merge
                    // degrades instead of discarding other shards' work.
                    Err(EngineError::DeadlineExceeded) => {
                        degraded = Some(AnswerStatus::Degraded {
                            reason: ic_engine::DegradeReason::DeadlineExpired,
                            proven_prefix_len: 0,
                        });
                    }
                    Err(e) => {
                        error = Some(e.clone());
                        break;
                    }
                }
            }
            slots[qi] = Some(match error {
                Some(e) => Err(e),
                None => {
                    let mut all: Vec<Community> = Vec::new();
                    for (shard, local) in parts {
                        all.extend(translate(local, &shard.id_map));
                    }
                    let communities = top_ranked(all, q.r);
                    match degraded {
                        Some(status) if !communities.is_empty() => Ok(QueryAnswer {
                            communities,
                            status,
                        }),
                        // Nothing proven anywhere: the typed failure,
                        // exactly like the single-engine path.
                        Some(_) => Err(EngineError::DeadlineExceeded),
                        None => Ok(QueryAnswer::complete(communities)),
                    }
                }
            });
        }

        if let Some(trace) = trace {
            merge_sw.record(trace, ic_obs::Stage::Merge);
        }
        merge_sw.observe(&self.metrics.merge_ns);

        (
            Epoch::default(),
            slots
                .into_iter()
                .map(|s| s.expect("every query is answered exactly once"))
                .collect(),
        )
    }
}

impl QueryBackend for ShardedEngine {
    /// Runs the whole batch before returning and hands the sink every
    /// answer as one slice. The scatter phase lands in the trace's
    /// `Solve` span (it is the sharded analogue of solver execution) and
    /// the gather/merge loop in `Merge`; per-shard engines add their own
    /// `IndexServe` sub-spans through [`Engine::run_batch_traced`], whose
    /// shared slots the gather reads in place.
    fn submit(
        &self,
        queries: &[Query],
        options: &BatchOptions,
        trace: Arc<ic_obs::Trace>,
        sink: AnswerSink,
    ) {
        let (epoch, merged) = self.run_batch_inner(queries, options, Some(&trace));
        let answers: Vec<(usize, SharedAnswer)> =
            merged.into_iter().map(Arc::new).enumerate().collect();
        sink(epoch, &answers);
    }

    fn obs_registry(&self) -> Option<&ic_obs::Registry> {
        Some(&self.metrics.registry)
    }
}

/// Translates a shard-local community list to global vertex ids. The id
/// map is strictly ascending, so sorted vertex lists stay sorted and
/// lexicographic comparisons are preserved.
fn translate(communities: &[Community], id_map: &[u32]) -> Vec<Community> {
    communities
        .iter()
        .map(|c| Community {
            vertices: c.vertices.iter().map(|&v| id_map[v as usize]).collect(),
            value: c.value,
        })
        .collect()
}

/// Merges per-shard rank-ordered community lists into the global
/// top-`r` under the canonical ranking order
/// ([`Community::ranking_cmp`]: value desc, size asc, lexicographic
/// vertex list asc).
///
/// The order is *total* on communities with pairwise-distinct vertex
/// sets (as per-shard answers over disjoint vertex sets are), so the
/// result is independent of the order and grouping of the input lists —
/// merging is associative and commutative (held by
/// `tests/merge_prop.rs`).
///
/// This is the borrowed form of the one merge body, `top_ranked`: it
/// ranks references and clones the `r` winners. The gather itself owns
/// its translated lists and moves them through the same body.
pub fn merge_topr(lists: &[Vec<Community>], r: usize) -> Vec<Community> {
    let winners = top_ranked(lists.iter().flatten().collect(), r);
    winners.into_iter().cloned().collect()
}

/// The merge: the `r` best of `all` in canonical ranking order, over
/// communities owned (`Community`) or borrowed (`&Community`).
fn top_ranked<C: std::borrow::Borrow<Community>>(mut all: Vec<C>, r: usize) -> Vec<C> {
    all.sort_by(|a, b| a.borrow().ranking_cmp(b.borrow()));
    all.truncate(r);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_core::figure1::figure1;
    use ic_core::Aggregation;
    use ic_store::shard::build_shard_stores;

    fn shard_dir(tag: &str, cap: usize) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ic-shard-{tag}-{}-{cap}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        build_shard_stores(&figure1(), &[2, 3], cap, &dir).unwrap();
        dir
    }

    #[test]
    fn sharded_answers_match_unsharded_bit_for_bit() {
        let wg = figure1();
        let unsharded = Engine::with_threads(wg.clone(), 2);
        for cap in [3usize, 6, 1 << 20] {
            let dir = shard_dir("parity", cap);
            let sharded = ShardedEngine::open_dir(&dir).unwrap();
            let batch: Vec<Query> = (1..=4)
                .flat_map(|k| {
                    [
                        Query::new(k, 3, Aggregation::Min),
                        Query::new(k, 5, Aggregation::Max),
                        Query::new(k, 2, Aggregation::Sum),
                        Query::new(k, 4, Aggregation::SumSurplus { alpha: 1.0 }),
                    ]
                })
                .collect();
            let want = unsharded
                .run_batch_pinned(&batch, &BatchOptions::default())
                .1;
            let got = sharded.run_batch_pinned(&batch, &BatchOptions::default()).1;
            for ((q, w), g) in batch.iter().zip(&want).zip(&got) {
                assert_eq!(w.as_ref().unwrap(), g.as_ref().unwrap(), "cap {cap}, {q:?}");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn edge_updates_are_refused_typed() {
        let dir = shard_dir("updates", 6);
        let sharded = ShardedEngine::open_dir(&dir).unwrap();
        // A scatter-gather front over immutable store files keeps the
        // trait's default refusal — never a panic, never a silent drop.
        let err = sharded
            .apply_updates(&[ic_engine::EdgeUpdate::Remove { u: 0, v: 1 }])
            .expect_err("sharded backends are read-only");
        assert!(matches!(err, EngineError::Unsupported { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_and_unsupported_queries_fail_typed() {
        let dir = shard_dir("invalid", 6);
        let sharded = ShardedEngine::open_dir(&dir).unwrap();
        let batch = vec![
            Query::new(2, 0, Aggregation::Min),                     // invalid
            Query::new(2, 2, Aggregation::Sum).approx(0.2),         // not mergeable
            Query::new(2, 2, Aggregation::Sum).size_bound(4, true), // not mergeable
            Query::new(2, 2, Aggregation::Min),                     // fine
        ];
        let got = sharded.run_batch_pinned(&batch, &BatchOptions::default()).1;
        assert!(matches!(got[0], Err(EngineError::Search(_))));
        assert!(matches!(
            got[1],
            Err(EngineError::Search(SearchError::InvalidParams(_)))
        ));
        assert!(matches!(
            got[2],
            Err(EngineError::Search(SearchError::InvalidParams(_)))
        ));
        assert!(got[3].is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn k_beyond_every_shard_answers_empty() {
        let dir = shard_dir("empty", 6);
        let sharded = ShardedEngine::open_dir(&dir).unwrap();
        let got = sharded
            .run_batch_pinned(
                &[Query::new(100, 3, Aggregation::Min)],
                &BatchOptions::default(),
            )
            .1;
        let ans = got[0].as_ref().unwrap();
        assert!(ans.is_complete());
        assert!(ans.communities.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_dir_rejects_missing_and_inconsistent_shards() {
        assert!(ShardedEngine::open_dir("/nonexistent/shards").is_err());
        let dir = shard_dir("reject", 6);
        // Deleting a base shard breaks either the index sequence or the
        // vertex partition — both fail closed.
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        paths.sort();
        std::fs::remove_file(&paths[0]).unwrap();
        assert!(ShardedEngine::open_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn routing_covers_each_group_at_most_once() {
        let dir = shard_dir("route", 3);
        let sharded = ShardedEngine::open_dir(&dir).unwrap();
        for k in 1..=6 {
            let targets = sharded.route(k);
            let mut groups: Vec<u64> = targets
                .iter()
                .map(|&i| sharded.shards[i].meta.group)
                .collect();
            groups.sort_unstable();
            groups.dedup();
            assert_eq!(groups.len(), targets.len(), "k={k}: one shard per group");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
