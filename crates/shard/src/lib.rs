//! `ic-shard`: scatter-gather serving of one logical graph across many
//! per-shard `ICS1` stores and engine instances.
//!
//! A million-node graph does not need a million-node peel per query:
//! communities never span connected components, so the graph can be
//! partitioned along component boundaries (and, inside oversized
//! components, along k-level contours — see `ic_store::shard`) into
//! self-contained shard stores. [`ShardedEngine`] opens every shard in
//! a directory (memory-mapped by default), plans each query against
//! only the shards whose *group* routes that `k` to them, hands one leg
//! per contributing shard to that shard engine's worker pool, translates
//! local vertex ids back to global ids, and merges the per-shard top-`r`
//! lists under the canonical ranking order when a query's last leg lands.
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
    AnswerSink, AnswerStatus, BatchOptions, Engine, EngineError, Epoch, QueryAnswer, QueryBackend,
    SharedAnswer,
};
use ic_mem::SharedSlice;
use ic_store::{ShardMeta, StoreError, StoreFile};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

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
    /// Opens every `shard-*.ics1` (or `.ics`) store under `dir`,
    /// memory-mapped, with the hardware's parallelism split across
    /// shards.
    pub fn open_dir<P: AsRef<Path>>(dir: P) -> Result<ShardedEngine, StoreError> {
        Self::open_dir_with(dir, ic_engine::available_threads())
    }

    /// [`ShardedEngine::open_dir`] with an explicit worker count.
    /// `threads` is the *total* worker budget: it is divided evenly
    /// across shards (at least one each) because legs run
    /// concurrently. A shard engine starts its workers on its first leg
    /// and joins them when the front drops; the open starts none.
    ///
    /// Fails closed on a malformed shard set: missing/duplicated shard
    /// indices, inconsistent global graph identity, a group without a
    /// `k_lo = 1` base shard, or base shards that do not partition the
    /// global vertex set.
    pub fn open_dir_with<P: AsRef<Path>>(
        dir: P,
        threads: usize,
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
        let per_shard_threads = (threads / paths.len()).max(1);

        // Like `Engine::open`, a mapped shard store is verified here in
        // everything but its adjacency arrays; that check stays owed by
        // the shard's snapshot until one of its queries reads adjacency,
        // and its one run is reported on the front's registry, as is
        // every shard store's open.
        let metrics = ShardMetrics::new();
        let mut shards = Vec::with_capacity(paths.len());
        for path in paths {
            let file = StoreFile::open_with(&path, &ic_store::OpenOptions::mapped())?;
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
            let engine = Engine::from_snapshot(snapshot, per_shard_threads);
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

    /// [`QueryBackend::submit`], then a wait for every answer: the
    /// sharded [`Engine::run_batch_pinned`]. Results align with the input
    /// order; the epoch is always the initial one (sharded serving is
    /// read-only — there is no cross-shard `apply`).
    pub fn run_batch_pinned(
        &self,
        queries: &[Query],
        options: &BatchOptions,
    ) -> (Epoch, Vec<Result<QueryAnswer, EngineError>>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let send = move |answer: &(usize, SharedAnswer)| drop(tx.send(answer.clone()));
        let sink: AnswerSink = Arc::new(move |_, answers| answers.iter().for_each(&send));
        self.submit(queries, options, Arc::default(), sink);
        let mut slots = vec![None; queries.len()];
        for (qi, answer) in rx.iter().take(queries.len()) {
            slots[qi] = Some((*answer).clone());
        }
        let answers = slots
            .into_iter()
            .map(|a| a.expect("every query is answered exactly once"));
        (Epoch::default(), answers.collect())
    }

    /// The shards `q` scatters to, or the typed error that answers it
    /// at once: only the exact solver classes merge losslessly.
    fn targets(&self, q: &Query) -> Result<Vec<usize>, EngineError> {
        let refuse = |why: &str| Err(EngineError::Search(SearchError::InvalidParams(why.into())));
        match q.solver().map_err(EngineError::Search)? {
            Solver::MinPeel | Solver::MaxPeel | Solver::TicExact => Ok(self.route(q.k)),
            Solver::TicApprox => refuse(
                "approximate (epsilon > 0) queries are not shard-mergeable: per-shard \
                 answers carry no cross-shard optimality certificate; use epsilon = 0",
            ),
            Solver::LocalSearch => refuse(
                "size-constrained local search is not shard-mergeable: its heuristic \
                 answers depend on the global search pool",
            ),
            // `Solver` is non-exhaustive: a solver class this build
            // does not know is by definition not proven mergeable.
            _ => refuse("unknown solver class is not shard-mergeable"),
        }
    }
}

impl QueryBackend for ShardedEngine {
    /// Routes on the calling thread, hands the sink what routing alone
    /// answers as one slice, submits one leg per contributing shard to
    /// that shard engine's `submit`, and returns. A query is merged and
    /// handed over when its last leg answers. The legs record their own
    /// `plan` and `solve` into `trace`; the front adds only `merge`.
    fn submit(
        &self,
        queries: &[Query],
        options: &BatchOptions,
        trace: Arc<ic_obs::Trace>,
        sink: AnswerSink,
    ) {
        self.metrics.batches.inc();
        let mut routed: Vec<(usize, SharedAnswer)> = Vec::new();
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut waiting = vec![0; queries.len()];
        for (qi, q) in queries.iter().enumerate() {
            match self.targets(q) {
                Ok(targets) if !targets.is_empty() => {
                    waiting[qi] = targets.len();
                    targets.into_iter().for_each(|si| per_shard[si].push(qi));
                }
                // Every group's serving shard has an empty k-core: the
                // global k-core is empty too.
                Ok(_) => routed.push((qi, Arc::new(Ok(QueryAnswer::complete(Vec::new()))))),
                Err(e) => routed.push((qi, Arc::new(Err(e)))),
            }
        }
        if !routed.is_empty() {
            sink(Epoch::default(), &routed);
        }
        let legs: Vec<Leg> = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, qis)| !qis.is_empty())
            .map(|(si, qis)| (si, self.shards[si].id_map.clone(), qis))
            .collect();
        if legs.is_empty() {
            return;
        }
        self.metrics.fanout.add(legs.len() as u64);
        // Every count is fixed before the first leg goes out: a leg's
        // plan-time answers land inside its own `submit` call.
        let gather = Arc::new(Gather {
            pending: Mutex::new(waiting.into_iter().map(|n| (n, Vec::new())).collect()),
            rs: queries.iter().map(|q| q.r).collect(),
            trace,
            sink,
            scatter_ns: self.metrics.scatter_ns.clone(),
            merge_ns: self.metrics.merge_ns.clone(),
            scatter_sw: ic_obs::Stopwatch::start(),
            legs,
        });
        for (leg, (si, _, qis)) in gather.legs.iter().enumerate() {
            let subset: Vec<Query> = qis.iter().map(|&qi| queries[qi]).collect();
            let landed = Arc::clone(&gather);
            let leg_sink: AnswerSink = Arc::new(move |_, answers| landed.land(leg, answers));
            let engine = &self.shards[*si].engine;
            engine.submit(&subset, options, Arc::clone(&gather.trace), leg_sink);
        }
    }

    fn obs_registry(&self) -> Option<&ic_obs::Registry> {
        Some(&self.metrics.registry)
    }
}

/// One shard's share of a batch: the shard, its id map, and the batch
/// index of each query the leg carries.
type Leg = (usize, SharedSlice<u32>, Vec<usize>);

/// A query's leg answers so far, each with its leg.
type Parts = Vec<(usize, SharedAnswer)>;

/// One batch's gather: maps each leg's answers back to their queries
/// and merges a query once its last leg has answered.
struct Gather {
    legs: Vec<Leg>,
    /// Each batch query's `r`.
    rs: Vec<usize>,
    /// Per batch query: the legs still out, and the answers of those in
    /// (by leg).
    pending: Mutex<Vec<(usize, Parts)>>,
    trace: Arc<ic_obs::Trace>,
    sink: AnswerSink,
    /// First leg submitted → last leg answer landed.
    scatter_sw: ic_obs::Stopwatch,
    scatter_ns: ic_obs::Histogram,
    merge_ns: ic_obs::Histogram,
}

impl Gather {
    /// Takes one slice of `leg`'s answers, then merges every query whose
    /// last leg this was and hands them to the sink as one slice.
    fn land(&self, leg: usize, answers: &[(usize, SharedAnswer)]) {
        let mut ready = Vec::new();
        {
            let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
            for (local, answer) in answers {
                let qi = self.legs[leg].2[*local];
                let (waiting, parts) = &mut pending[qi];
                parts.push((leg, Arc::clone(answer)));
                *waiting -= 1;
                if *waiting == 0 {
                    ready.push((qi, std::mem::take(parts)));
                }
            }
            if pending.iter().all(|&(waiting, _)| waiting == 0) {
                self.scatter_sw.observe(&self.scatter_ns);
            }
        }
        if ready.is_empty() {
            return;
        }
        let merge_sw = ic_obs::Stopwatch::start();
        // A panicking merge fails its own query, as a panicking job does
        // in the engine; every ready query is still answered.
        let merged: Vec<(usize, SharedAnswer)> = ready
            .into_iter()
            .map(|(qi, parts)| {
                let merged = catch_unwind(AssertUnwindSafe(|| self.merge(self.rs[qi], parts)));
                let lost = EngineError::Internal {
                    detail: "the shard merge panicked".into(),
                };
                (qi, Arc::new(merged.unwrap_or(Err(lost))))
            })
            .collect();
        merge_sw.record(&self.trace, ic_obs::Stage::Merge);
        merge_sw.observe(&self.merge_ns);
        (self.sink)(Epoch::default(), &merged);
    }

    /// Merges one query's leg answers in shard order: the first error
    /// wins; a degraded leg, or one that proved nothing before its
    /// deadline, makes the merge best-so-far (no cross-shard rank is
    /// proven) instead of discarding the other legs' work.
    fn merge(&self, r: usize, mut parts: Parts) -> Result<QueryAnswer, EngineError> {
        parts.sort_unstable_by_key(|&(leg, _)| leg);
        let mut all: Vec<Community> = Vec::new();
        let mut degraded = None;
        for (leg, answer) in &parts {
            match answer.as_ref() {
                Ok(ans) => {
                    if let AnswerStatus::Degraded { reason, .. } = ans.status {
                        degraded = Some(reason);
                    }
                    all.extend(translate(&ans.communities, &self.legs[*leg].1));
                }
                Err(EngineError::DeadlineExceeded) => {
                    degraded = Some(ic_engine::DegradeReason::DeadlineExpired);
                }
                Err(e) => return Err(e.clone()),
            }
        }
        let communities = top_ranked(all, r);
        match degraded {
            None => Ok(QueryAnswer::complete(communities)),
            // Nothing proven anywhere: the typed failure, exactly like
            // the single-engine path.
            Some(_) if communities.is_empty() => Err(EngineError::DeadlineExceeded),
            Some(reason) => Ok(QueryAnswer {
                communities,
                status: AnswerStatus::Degraded {
                    reason,
                    proven_prefix_len: 0,
                },
            }),
        }
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
