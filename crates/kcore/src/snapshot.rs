//! Immutable, shareable snapshot of a weighted graph with memoized
//! k-core state.
//!
//! Every solver in `ic-core` starts by computing the core decomposition
//! (to extract the maximal k-core) — an `O(n + m)` pass that is pure
//! function of the graph. When many queries hit the same graph (the
//! batched-engine regime), that work should be paid once per graph, not
//! once per query. [`GraphSnapshot`] wraps an [`Arc`]-shared
//! [`WeightedGraph`] and memoizes:
//!
//! * the [`CoreDecomposition`] (and hence the degeneracy bound) —
//!   computed lazily on first use, once;
//! * per-`k` [`CoreLevel`]s: the maximal k-core membership mask and its
//!   connected components — computed lazily per distinct `k`, once.
//!
//! All caches are thread-safe: concurrent readers of the same level
//! block only on the one computation, never on each other, and a level
//! is computed exactly once no matter how many workers race for it.
//! The snapshot is immutable by construction — there is no way to mutate
//! the underlying graph through it, so memoized state can never go
//! stale.
//!
//! A snapshot materialized from a lazily verified store may **owe** a
//! check of its adjacency arrays
//! ([`GraphSnapshot::owing_adjacency_check`]): everything else about it
//! was verified when it was built, the adjacency is verified by the
//! first [`GraphSnapshot::ensure_adjacency`] call, and whoever is about
//! to read adjacency makes that call first.

use crate::{core_decomposition, ApplyDelta, CoreDecomposition};
use ic_graph::{connected_components_within, BitSet, Graph, VertexId, WeightedGraph};
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A memoized value attached to a snapshot: lazily initialized once,
/// shared by every reader. The dynamic type is part of the key, so
/// downcasts after lookup are infallible.
type Extension = Arc<OnceLock<Arc<dyn Any + Send + Sync>>>;

/// Memoized per-`k` view of a snapshot: the maximal k-core and its
/// connected components (line 1 of Algorithms 1 and 2 in the paper).
#[derive(Clone, Debug)]
pub struct CoreLevel {
    /// The degree constraint this level describes.
    pub k: usize,
    /// Membership mask of the maximal k-core (vertices with core
    /// number ≥ `k`).
    pub mask: BitSet,
    /// Disjoint connected components of the maximal k-core, each a
    /// sorted vertex list, ordered by smallest vertex.
    pub components: Vec<Vec<VertexId>>,
}

/// Why a snapshot's owed adjacency check failed: the graph's adjacency
/// arrays are corrupt and must not be read. Sticky — every
/// [`GraphSnapshot::ensure_adjacency`] call on that snapshot returns it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdjacencyRefused(Arc<str>);

impl std::fmt::Display for AdjacencyRefused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for AdjacencyRefused {}

/// Where a snapshot's adjacency check stands
/// ([`GraphSnapshot::adjacency_state`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdjacencyState {
    /// Nothing was ever owed, or the check ran and passed: adjacency may
    /// be read.
    Verified,
    /// The check has not run: the next
    /// [`GraphSnapshot::ensure_adjacency`] call pays for it.
    Owed,
    /// The check ran and failed: adjacency must never be read.
    Refused,
}

type AdjacencyObserver = Box<dyn Fn(Duration, bool) + Send + Sync>;

/// A deferred structural check of the snapshot's adjacency: run at most
/// once, by the first caller that needs adjacency.
struct OwedCheck {
    run: Box<dyn Fn() -> Result<(), String> + Send + Sync>,
    outcome: OnceLock<Result<(), AdjacencyRefused>>,
    /// Told how long the check took and whether it passed.
    observer: OnceLock<AdjacencyObserver>,
}

/// Immutable weighted graph plus lazily memoized core structure. See the
/// module docs.
pub struct GraphSnapshot {
    wg: Arc<WeightedGraph>,
    owed: Option<OwedCheck>,
    decomp: OnceLock<Arc<CoreDecomposition>>,
    levels: Mutex<HashMap<usize, Arc<OnceLock<Arc<CoreLevel>>>>>,
    /// Type-erased per-`(k, tag)` side caches: derived structures owned
    /// by crates *above* this one (e.g. `ic-core`'s extremum community
    /// forests) memoize here so they share the snapshot's lifetime and
    /// staleness story — a post-update snapshot inherits them only at
    /// the levels the update provably left alone
    /// ([`successor`](Self::successor)); the rest rebuild lazily, like
    /// [`CoreLevel`]s, unless their owner carries them from the
    /// [`ApplyDelta`] (`ic-core`'s core rows). Every value must therefore
    /// be a function of the level's maximal k-core alone.
    extensions: Mutex<HashMap<(usize, u8, TypeId), Extension>>,
}

impl std::fmt::Debug for GraphSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphSnapshot")
            .field("vertices", &self.wg.num_vertices())
            .field("edges", &self.wg.num_edges())
            .field("cached_levels", &self.cached_levels())
            .field("cached_extensions", &self.cached_extensions())
            .finish()
    }
}

impl GraphSnapshot {
    /// Takes ownership of a weighted graph and wraps it for sharing.
    pub fn new(wg: WeightedGraph) -> Self {
        Self::from_arc(Arc::new(wg))
    }

    /// Wraps an already-shared weighted graph (no copy).
    pub fn from_arc(wg: Arc<WeightedGraph>) -> Self {
        GraphSnapshot {
            wg,
            owed: None,
            decomp: OnceLock::new(),
            levels: Mutex::new(HashMap::new()),
            extensions: Mutex::new(HashMap::new()),
        }
    }

    /// Wraps a weighted graph whose core decomposition is already known
    /// — e.g. maintained incrementally by a
    /// [`CoreMaintainer`](crate::CoreMaintainer) across edge updates —
    /// seeding the memo so the from-scratch bucket peel never runs.
    /// This is how the mutable engine keeps snapshot swaps cheap: a
    /// post-update snapshot starts with its decomposition (and hence
    /// degeneracy bound) in place.
    ///
    /// # Panics
    /// Panics when `decomp` does not describe a graph with the same
    /// number of vertices.
    pub fn with_decomposition(wg: Arc<WeightedGraph>, decomp: CoreDecomposition) -> Self {
        assert_eq!(
            decomp.core_numbers.len(),
            wg.num_vertices(),
            "decomposition covers a different vertex set"
        );
        let snap = Self::from_arc(wg);
        let _ = snap.decomp.set(Arc::new(decomp));
        snap
    }

    /// The snapshot an apply swaps in after this one: `graph` and
    /// `decomp` are the edge set and core numbers after it, over this
    /// snapshot's weights, and `delta` is what it changed. Every memoized
    /// level and extension above `delta`'s ceiling is shared — the same
    /// initialized cell, by `Arc` — since those k-cores, vertex sets and
    /// induced edges, are untouched. Levels at or below it start empty.
    pub fn successor(&self, graph: Graph, decomp: CoreDecomposition, delta: &ApplyDelta) -> Self {
        fn share<K: Copy + Eq + std::hash::Hash, V>(
            from: &Mutex<HashMap<K, Arc<OnceLock<V>>>>,
            kept: impl Fn(K) -> bool,
        ) -> Mutex<HashMap<K, Arc<OnceLock<V>>>> {
            let from = from.lock().expect("snapshot cache poisoned");
            let built = from
                .iter()
                .filter(|&(&key, cell)| kept(key) && cell.get().is_some());
            Mutex::new(built.map(|(&key, cell)| (key, Arc::clone(cell))).collect())
        }
        let above = |k: usize| delta.level(k).is_none();
        GraphSnapshot {
            levels: share(&self.levels, above),
            extensions: share(&self.extensions, |(k, _, _)| above(k)),
            ..Self::with_decomposition(Arc::new(self.wg.with_graph(graph)), decomp)
        }
    }

    /// Marks the snapshot as owing `check`, a structural check of its
    /// graph's adjacency arrays that construction skipped
    /// (`ic_graph::Graph::from_csr_deferred`). Weights, vertex and edge
    /// counts and every seeded structure must already be verified; only
    /// adjacency reads wait for [`ensure_adjacency`](Self::ensure_adjacency).
    pub fn owing_adjacency_check(
        mut self,
        check: impl Fn() -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        self.owed = Some(OwedCheck {
            run: Box::new(check),
            outcome: OnceLock::new(),
            observer: OnceLock::new(),
        });
        self
    }

    /// Discharges the owed adjacency check: the first call runs it
    /// (concurrent callers wait for that one run), every call returns
    /// its outcome. `Ok` means adjacency may be read; an error is sticky
    /// and the adjacency must never be read. Free on a snapshot that
    /// owes nothing.
    pub fn ensure_adjacency(&self) -> Result<(), AdjacencyRefused> {
        let Some(owed) = &self.owed else {
            return Ok(());
        };
        owed.outcome
            .get_or_init(|| {
                let started = Instant::now();
                let outcome = (owed.run)().map_err(|why| AdjacencyRefused(why.into()));
                if let Some(observer) = owed.observer.get() {
                    observer(started.elapsed(), outcome.is_ok());
                }
                outcome
            })
            .clone()
    }

    /// Where the owed check stands, without running it.
    pub fn adjacency_state(&self) -> AdjacencyState {
        match self.owed.as_ref().map(|owed| owed.outcome.get()) {
            None | Some(Some(Ok(()))) => AdjacencyState::Verified,
            Some(None) => AdjacencyState::Owed,
            Some(Some(Err(_))) => AdjacencyState::Refused,
        }
    }

    /// Installs the observer of the owed check's one run — `(elapsed,
    /// passed)` — so its cost can be put on the owner's metrics. The
    /// first observer installed stays; nothing happens on a snapshot that
    /// owes nothing.
    pub fn observe_adjacency_check(
        &self,
        observer: impl Fn(Duration, bool) + Send + Sync + 'static,
    ) {
        if let Some(owed) = &self.owed {
            let _ = owed.observer.set(Box::new(observer));
        }
    }

    /// The snapshot's weighted graph. Weights, total weight and the
    /// vertex and edge counts are always verified; while the snapshot
    /// [owes](Self::owing_adjacency_check) its adjacency check (or after
    /// the check failed) the adjacency arrays behind this reference are
    /// not, and reading them may panic or lie — call
    /// [`ensure_adjacency`](Self::ensure_adjacency) first.
    #[inline]
    pub fn weighted(&self) -> &WeightedGraph {
        &self.wg
    }

    /// The underlying unweighted graph; its adjacency is subject to the
    /// same owed check as [`weighted`](Self::weighted).
    #[inline]
    pub fn graph(&self) -> &Graph {
        self.wg.graph()
    }

    /// The memoized core decomposition (computed on first call).
    pub fn decomposition(&self) -> Arc<CoreDecomposition> {
        Arc::clone(
            self.decomp
                .get_or_init(|| Arc::new(core_decomposition(self.wg.graph()))),
        )
    }

    /// Whether the decomposition is already memoized (seeded or
    /// computed): [`degeneracy`](Self::degeneracy) then reads no
    /// adjacency.
    pub fn has_decomposition(&self) -> bool {
        self.decomp.get().is_some()
    }

    /// The degeneracy of the graph (maximum core number): any query with
    /// `k` above this bound has an empty answer, which the planner uses
    /// to short-circuit without touching the peel machinery.
    pub fn degeneracy(&self) -> u32 {
        self.decomposition().max_core
    }

    /// The memoized [`CoreLevel`] for `k` (computed on first call per
    /// distinct `k`). Levels above the degeneracy are empty but still
    /// cached — they cost `O(n)` once and nothing after.
    pub fn level(&self, k: usize) -> Arc<CoreLevel> {
        let cell = {
            let mut levels = self.levels.lock().expect("snapshot cache poisoned");
            Arc::clone(levels.entry(k).or_insert_with(|| Arc::new(OnceLock::new())))
        };
        // The map lock is released before the (potentially expensive)
        // level computation; racing workers serialize on this one
        // OnceLock only.
        Arc::clone(cell.get_or_init(|| {
            let decomp = self.decomposition();
            let g = self.wg.graph();
            let mut mask = BitSet::new(g.num_vertices());
            for (v, &c) in decomp.core_numbers.iter().enumerate() {
                if c as usize >= k {
                    mask.insert(v);
                }
            }
            let components = connected_components_within(g, &mask);
            Arc::new(CoreLevel {
                k,
                mask,
                components,
            })
        }))
    }

    /// Seeds the memo for level `k` with an already-computed
    /// [`CoreLevel`] — e.g. one loaded from a persisted store — so the
    /// first query at that `k` pays nothing. Returns `false` (and keeps
    /// the existing entry) when the level is already memoized.
    ///
    /// # Panics
    /// Panics when the mask capacity does not match the snapshot's
    /// vertex count: a level for a different graph must never be
    /// grafted onto this snapshot.
    pub fn seed_level(&self, level: CoreLevel) -> bool {
        assert_eq!(
            level.mask.capacity(),
            self.wg.num_vertices(),
            "level mask sized for a different vertex set"
        );
        let cell = {
            let mut levels = self.levels.lock().expect("snapshot cache poisoned");
            Arc::clone(
                levels
                    .entry(level.k)
                    .or_insert_with(|| Arc::new(OnceLock::new())),
            )
        };
        cell.set(Arc::new(level)).is_ok()
    }

    /// Every level memoized (computed or seeded) so far, in ascending
    /// `k` order — what [`seed_level`](Self::seed_level) would need to
    /// reproduce this snapshot's warm state elsewhere.
    pub fn memoized_levels(&self) -> Vec<Arc<CoreLevel>> {
        let levels = self.levels.lock().expect("snapshot cache poisoned");
        let mut out: Vec<Arc<CoreLevel>> = levels
            .values()
            .filter_map(|cell| cell.get().cloned())
            .collect();
        out.sort_by_key(|l| l.k);
        out
    }

    /// Number of distinct `k` levels memoized so far (for cache
    /// observability in tests and stats reporting).
    pub fn cached_levels(&self) -> usize {
        self.levels.lock().expect("snapshot cache poisoned").len()
    }

    /// The memoized extension of type `T` under `(k, tag)`, built on
    /// first use. Like [`level`](Self::level), racing readers serialize
    /// on one `OnceLock` per key and the value is computed exactly once
    /// per snapshot; a snapshot swapped in after a graph update shares
    /// only the extensions of unchanged levels
    /// ([`successor`](Self::successor)), so none of a changed level's
    /// is stale.
    ///
    /// `tag` disambiguates multiple extensions of the same type at one
    /// `k` (e.g. a min- vs max-direction community forest).
    pub fn extension<T, F>(&self, k: usize, tag: u8, build: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let cell = {
            let mut exts = self.extensions.lock().expect("snapshot cache poisoned");
            Arc::clone(
                exts.entry((k, tag, TypeId::of::<T>()))
                    .or_insert_with(|| Arc::new(OnceLock::new())),
            )
        };
        // The map lock is released before the (potentially expensive)
        // build, mirroring `level`.
        let erased = cell.get_or_init(|| Arc::new(build()) as Arc<dyn Any + Send + Sync>);
        Arc::clone(erased)
            .downcast::<T>()
            .expect("extension type is part of the cache key")
    }

    /// The extension of type `T` under `(k, tag)` if it is already
    /// memoized (seeded or built); never builds.
    pub fn peek_extension<T>(&self, k: usize, tag: u8) -> Option<Arc<T>>
    where
        T: Send + Sync + 'static,
    {
        let exts = self.extensions.lock().expect("snapshot cache poisoned");
        let erased = exts.get(&(k, tag, TypeId::of::<T>()))?.get()?;
        Arc::clone(erased).downcast::<T>().ok()
    }

    /// Seeds the extension cache under `(k, tag)` with a prebuilt value
    /// (e.g. a community forest loaded from a persisted store). Returns
    /// `false` (keeping the existing value) when that slot is already
    /// initialized.
    pub fn seed_extension<T>(&self, k: usize, tag: u8, value: Arc<T>) -> bool
    where
        T: Send + Sync + 'static,
    {
        let cell = {
            let mut exts = self.extensions.lock().expect("snapshot cache poisoned");
            Arc::clone(
                exts.entry((k, tag, TypeId::of::<T>()))
                    .or_insert_with(|| Arc::new(OnceLock::new())),
            )
        };
        cell.set(value as Arc<dyn Any + Send + Sync>).is_ok()
    }

    /// Every memoized extension of type `T`, as `(k, tag, value)` in
    /// ascending `(k, tag)` order — the persistence walk of
    /// `Engine::persist`.
    pub fn memoized_extensions<T>(&self) -> Vec<(usize, u8, Arc<T>)>
    where
        T: Send + Sync + 'static,
    {
        let exts = self.extensions.lock().expect("snapshot cache poisoned");
        let mut out: Vec<(usize, u8, Arc<T>)> = exts
            .iter()
            .filter(|((_, _, ty), _)| *ty == TypeId::of::<T>())
            .filter_map(|(&(k, tag, _), cell)| {
                let erased = cell.get()?;
                let value = Arc::clone(erased).downcast::<T>().ok()?;
                Some((k, tag, value))
            })
            .collect();
        out.sort_by_key(|&(k, tag, _)| (k, tag));
        out
    }

    /// Number of `(k, tag, type)` extension slots registered so far.
    pub fn cached_extensions(&self) -> usize {
        self.extensions
            .lock()
            .expect("snapshot cache poisoned")
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maximal_kcore_components;
    use ic_graph::graph_from_edges;

    fn snapshot() -> GraphSnapshot {
        // Triangle + pendant, plus a separate triangle.
        let g = graph_from_edges(7, &[(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6), (6, 4)]);
        GraphSnapshot::new(WeightedGraph::unit_weights(g))
    }

    #[test]
    fn levels_match_direct_extraction() {
        let snap = snapshot();
        for k in 0..4usize {
            let level = snap.level(k);
            assert_eq!(level.k, k);
            assert_eq!(
                level.components,
                maximal_kcore_components(snap.graph(), k),
                "k={k}"
            );
            assert_eq!(
                level.mask.to_vec(),
                crate::kcore_mask(snap.graph(), k).to_vec()
            );
        }
    }

    #[test]
    fn levels_are_memoized_and_shared() {
        let snap = snapshot();
        let a = snap.level(2);
        let b = snap.level(2);
        assert!(Arc::ptr_eq(&a, &b), "same level must be shared");
        assert_eq!(snap.cached_levels(), 1);
        snap.level(3);
        assert_eq!(snap.cached_levels(), 2);
    }

    #[test]
    fn degeneracy_bound() {
        let snap = snapshot();
        assert_eq!(snap.degeneracy(), 2);
        assert!(snap.level(3).components.is_empty());
        assert!(snap.level(100).components.is_empty());
    }

    #[test]
    fn seeded_levels_are_served_without_recompute() {
        let snap = snapshot();
        let reference = snapshot().level(2).as_ref().clone();
        assert!(snap.seed_level(reference));
        assert_eq!(snap.cached_levels(), 1);
        let served = snap.level(2);
        assert_eq!(served.components, snapshot().level(2).components);
        // Seeding an already-present level keeps the existing entry.
        assert!(!snap.seed_level(snapshot().level(2).as_ref().clone()));
    }

    #[test]
    fn extensions_memoize_seed_and_enumerate() {
        let snap = snapshot();
        let built = snap.extension(2, 0, || vec![1u32, 2, 3]);
        let again = snap.extension(2, 0, || unreachable!("must be memoized"));
        assert!(Arc::ptr_eq(&built, &again));
        // Distinct tags and ks are distinct slots.
        let other = snap.extension(2, 1, || vec![9u32]);
        assert_eq!(other.as_slice(), &[9]);
        assert!(!snap.seed_extension(2, 0, Arc::new(vec![0u32])));
        assert!(snap.seed_extension(3, 0, Arc::new(vec![7u32])));
        let all = snap.memoized_extensions::<Vec<u32>>();
        let keys: Vec<(usize, u8)> = all.iter().map(|&(k, t, _)| (k, t)).collect();
        assert_eq!(keys, vec![(2, 0), (2, 1), (3, 0)]);
        assert_eq!(snap.cached_extensions(), 3);
        // Type is part of the key: a different T at the same (k, tag)
        // neither collides nor appears in the enumeration above.
        assert!(snap.peek_extension::<String>(2, 0).is_none());
        let s = snap.extension(2, 0, || String::from("x"));
        assert_eq!(s.as_str(), "x");
        assert!(Arc::ptr_eq(&s, &snap.peek_extension(2, 0).unwrap()));
        assert_eq!(snap.memoized_extensions::<Vec<u32>>().len(), 3);
    }

    #[test]
    fn shared_levels_are_the_same_cells_above_the_ceiling_only() {
        let old = snapshot();
        let (one, two) = (old.level(1), old.level(2));
        let forest = old.extension(2, 0, || vec![1u32]);
        old.extension(1, 0, || vec![2u32]);
        // Cutting the pendant changes level 1 only.
        let mut maintainer = crate::CoreMaintainer::from_graph(old.graph());
        let records = [maintainer.apply_recorded(crate::EdgeUpdate::Remove { u: 2, v: 3 })];
        let delta = ApplyDelta::new(&records, old.graph()).unwrap();
        let graph = maintainer.patched_graph(old.graph(), &records);
        let new = old.successor(graph, maintainer.decomposition(), &delta);
        assert_eq!(new.cached_levels(), 1);
        assert!(Arc::ptr_eq(&new.level(2), &two));
        assert!(!Arc::ptr_eq(&new.level(1), &one), "level 1 is rebuilt");
        let shared = new.peek_extension::<Vec<u32>>(2, 0).unwrap();
        assert!(Arc::ptr_eq(&shared, &forest));
        assert!(new.peek_extension::<Vec<u32>>(1, 0).is_none());
    }

    #[test]
    fn owed_adjacency_check_runs_once_and_sticks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        assert!(snapshot().ensure_adjacency().is_ok(), "nothing owed");
        assert_eq!(snapshot().adjacency_state(), AdjacencyState::Verified);
        for verdict in [Ok(()), Err("mirror edge missing".to_string())] {
            let runs = Arc::new(AtomicUsize::new(0));
            let observed = Arc::new(AtomicUsize::new(0));
            let (r, v) = (Arc::clone(&runs), verdict.clone());
            let snap = snapshot().owing_adjacency_check(move || {
                r.fetch_add(1, Ordering::Relaxed);
                v.clone()
            });
            let o = Arc::clone(&observed);
            snap.observe_adjacency_check(move |_, passed| {
                o.fetch_add(if passed { 1 } else { 100 }, Ordering::Relaxed);
            });
            assert_eq!(snap.adjacency_state(), AdjacencyState::Owed);
            assert_eq!(runs.load(Ordering::Relaxed), 0, "deferred until asked");
            let first = snap.ensure_adjacency();
            assert_eq!(first.is_ok(), verdict.is_ok());
            assert_eq!(snap.ensure_adjacency(), first, "sticky");
            let settled = match verdict {
                Ok(()) => AdjacencyState::Verified,
                Err(_) => AdjacencyState::Refused,
            };
            assert_eq!(snap.adjacency_state(), settled);
            assert_eq!(runs.load(Ordering::Relaxed), 1);
            let seen = if verdict.is_ok() { 1 } else { 100 };
            assert_eq!(observed.load(Ordering::Relaxed), seen);
            if let Err(refused) = first {
                assert_eq!(refused.to_string(), "mirror edge missing");
            }
        }
    }

    #[test]
    fn concurrent_level_access_computes_once() {
        let snap = snapshot();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for k in 0..4 {
                        let level = snap.level(k);
                        assert_eq!(level.k, k);
                    }
                });
            }
        });
        assert_eq!(snap.cached_levels(), 4);
    }
}
