//! Algorithm 4 (`LOCAL SEARCH`) for the NP-hard / size-constrained
//! problems, with the paper's two strategies:
//!
//! * **`SumStrategy`** (used for `sum`-like aggregations): take the seed's
//!   s-nearest-neighbor pool, then drop the last vertex until the
//!   candidate induces a connected k-core;
//! * **`AvgStrategy`** (used for `avg` and every other aggregation): test
//!   every prefix of the pool; greedy mode accepts the first qualifying
//!   prefix (pool sorted descending by weight, so later prefixes only
//!   dilute), random mode keeps the best qualifying prefix.
//!
//! The pool is collected by truncated BFS (the paper's "s-nearest
//! neighbors of `v_i`, exploring 2-hop neighbors when needed"). `greedy`
//! sorts the pool by descending influence, `random` keeps BFS order —
//! these are the paper's Greedy and Random variants (Figs 6–13).
//!
//! This module holds the walks and their machinery; a seed is expanded
//! by the seed memo's code (`seed_memo::expand_seed`): its pool is built
//! into a fresh entry and the strategies replay it, exactly as a
//! memoized entry is replayed, value bounds included. [`local_search`]
//! and [`local_search_nonoverlapping`] drop each entry after its seed.
//!
//! The per-seed machinery is zero-rebuild: one [`LocalScratch`] per query
//! holds epoch-stamped visitation marks, the pool buffers, and an
//! **incremental candidate degree tracker**. Growing or shrinking the
//! candidate by one vertex updates internal degrees and a below-k
//! violation counter in `O(d(v))`, so the k-core test per prefix is O(1)
//! instead of a full candidate rescan, and connectivity BFS only runs for
//! prefixes that already pass the degree and threshold checks.
//!
//! Prefix values come from one kernel, [`prefix_values`]. A greedy pool
//! is sorted, so the kernel keeps each prefix's ascending weights as the
//! suffix of one buffer — at most two writes a vertex, no shifting insert
//! — with the sum and count an [`AggregateState`] would hold: the values
//! are the state's, bit for bit.

use crate::aggregate::StateView;
use crate::algo::common::validate_k_r;
use crate::algo::seed_memo::expand_seed;
use crate::community::encode_ordered_f64;
use crate::{AggregateState, Aggregation, Community, Extremum, SearchError, TopList};
use ic_graph::{BitSet, VertexId, WeightedGraph};
use ic_kcore::{kcore_mask, ApplyDelta, GraphSnapshot, LevelDelta};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Configuration for [`local_search`].
#[derive(Clone, Copy, Debug)]
pub struct LocalSearchConfig {
    /// Degree constraint `k`.
    pub k: usize,
    /// Result count `r`.
    pub r: usize,
    /// Community size bound `s` (must exceed `k`).
    pub s: usize,
    /// Greedy (weight-sorted pools) vs Random (BFS-ordered pools).
    pub greedy: bool,
}

/// The weight-ordered induced adjacency of one k-core level: row `v`
/// holds `v`'s neighbours inside the core, heaviest first (the
/// `heavier_first` order: descending weight, ties by ascending id). It
/// is the only adjacency local search reads. Derived, never persisted:
/// [`CoreRows::cached`] memoizes it per `(snapshot, k)` the way
/// `ExtremumIndex::cached` memoizes a forest. The snapshot an `apply`
/// swaps in shares it if the update left level `k` alone, and otherwise
/// gets it carried with the changed rows rebuilt ([`CoreRows::carry`]).
/// `4·(n + 1) + 4·Σ core-degree` bytes.
#[derive(Debug, PartialEq)]
pub struct CoreRows {
    offsets: Vec<u32>,
    neighbors: Vec<VertexId>,
}

impl CoreRows {
    /// Builds the rows of `core` (any vertex mask of `wg`): one sort of
    /// its vertices, then each, heaviest first, is appended to its
    /// neighbours' rows — which leaves every row sorted.
    pub fn build(wg: &WeightedGraph, core: &BitSet) -> CoreRows {
        let g = wg.graph();
        let n = g.num_vertices();
        let inside = move |v: VertexId| {
            let in_core = move |u: &&VertexId| core.contains(**u as usize);
            g.neighbors(v).iter().filter(in_core)
        };
        let mut order: Vec<VertexId> = core.iter().map(|v| v as VertexId).collect();
        order.sort_unstable_by(|a, b| heavier_first(wg, a, b));
        let mut offsets = vec![0u32; n + 1];
        let mut total = 0usize;
        for v in 0..n {
            if core.contains(v) {
                total += inside(v as VertexId).count();
            }
            offsets[v + 1] = u32::try_from(total).expect("core adjacency fits 32-bit offsets");
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0; total];
        for &u in &order {
            for &v in inside(u) {
                neighbors[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
            }
        }
        CoreRows { offsets, neighbors }
    }

    /// Seeds `new`, the snapshot an apply swapped in after `old`, with
    /// `old`'s rows at each level `delta` changed, and returns how many:
    /// the rows outside the level's `reached`, unchanged, copied in bulk,
    /// and the rest rebuilt from the new graph and core numbers — row for
    /// row [`build`](Self::build) on the new k-core, with no mask built.
    pub fn carry(old: &GraphSnapshot, new: &GraphSnapshot, delta: &ApplyDelta) -> u64 {
        let cores = &new.decomposition().core_numbers;
        let mut carried = 0;
        for (k, tag, rows) in old.memoized_extensions::<CoreRows>() {
            if let Some(level) = delta.level(k) {
                let rows = rows.carried(new.weighted(), cores, k, level);
                new.seed_extension(k, tag, Arc::new(rows));
                carried += 1;
            }
        }
        carried
    }

    fn carried(&self, wg: &WeightedGraph, cores: &[u32], k: usize, level: &LevelDelta) -> CoreRows {
        let n = self.offsets.len() - 1;
        let in_core = |v: &VertexId| cores[*v as usize] as usize >= k;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(self.neighbors.len());
        offsets.push(0u32);
        let copy = |upto: usize, from: usize, offsets: &mut Vec<u32>, neighbors: &mut Vec<u32>| {
            let (lo, hi) = (self.offsets[from], self.offsets[upto]);
            let base = neighbors.len() as u32;
            neighbors.extend_from_slice(&self.neighbors[lo as usize..hi as usize]);
            offsets.extend(self.offsets[from + 1..=upto].iter().map(|&o| o - lo + base));
        };
        let mut next = 0;
        for &v in &level.reached {
            copy(v as usize, next, &mut offsets, &mut neighbors);
            let start = neighbors.len();
            if in_core(&v) {
                neighbors.extend(wg.graph().neighbors(v).iter().filter(|u| in_core(u)));
                neighbors[start..].sort_unstable_by(|a, b| heavier_first(wg, a, b));
            }
            offsets
                .push(u32::try_from(neighbors.len()).expect("core adjacency fits 32-bit offsets"));
            next = v as usize + 1;
        }
        copy(n, next, &mut offsets, &mut neighbors);
        CoreRows { offsets, neighbors }
    }

    /// The rows of `snap`'s `k`-core, built on first use and shared by
    /// every later query on that snapshot; the flag says whether this
    /// call was the one that built them.
    pub fn cached(snap: &GraphSnapshot, k: usize) -> (Arc<CoreRows>, bool) {
        let mut built = false;
        let rows = snap.extension(k, 0, || {
            built = true;
            Self::build(snap.weighted(), &snap.level(k).mask)
        });
        (rows, built)
    }

    fn row(&self, v: VertexId) -> &[VertexId] {
        let (lo, hi) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
        &self.neighbors[lo as usize..hi as usize]
    }
}

/// Runs Algorithm 4: top-r size-constrained k-influential community search
/// under any aggregation. Heuristic (the problem is NP-hard, Theorem 4);
/// results are valid communities but not guaranteed optimal.
pub fn local_search(
    wg: &WeightedGraph,
    config: &LocalSearchConfig,
    aggregation: Aggregation,
) -> Result<Vec<Community>, SearchError> {
    let core = kcore_mask(wg.graph(), config.k);
    local_search_in(wg, &core, &CoreRows::build(wg, &core), config, aggregation)
}

/// [`local_search`] over a k-core mask and rows the caller already has
/// (`core` must be the maximal `config.k`-core of `wg`, `rows` built
/// from it): the body `Query::solve_on` shares with the per-graph form,
/// fed from the snapshot's memoized level and [`CoreRows::cached`].
pub(crate) fn local_search_in(
    wg: &WeightedGraph,
    core: &BitSet,
    rows: &CoreRows,
    config: &LocalSearchConfig,
    aggregation: Aggregation,
) -> Result<Vec<Community>, SearchError> {
    validate_params(config)?;
    let LocalSearchConfig { k, s, greedy, r } = *config;
    let mut list = TopList::new(r);
    let scratch = &mut LocalScratch::new(wg.num_vertices());
    for seed in core.iter().map(|v| v as VertexId) {
        let target = SeedTarget {
            aggregation,
            list: &mut list,
        };
        expand_seed(wg, rows, core, seed, k, s, greedy, scratch, &mut [target]);
    }
    Ok(list.into_vec())
}

/// Non-overlapping variant: once a community is accepted its vertices are
/// removed from the graph (the paper's TONIC adaptation of Algorithm 4).
/// Seeds are visited in descending weight order in greedy mode so the most
/// influential regions are claimed first.
pub fn local_search_nonoverlapping(
    wg: &WeightedGraph,
    config: &LocalSearchConfig,
    aggregation: Aggregation,
) -> Result<Vec<Community>, SearchError> {
    validate_params(config)?;
    let mut core = kcore_mask(wg.graph(), config.k);
    // Rows of the whole level; the shrinking mask filters them.
    let rows = &CoreRows::build(wg, &core);
    let scratch = &mut LocalScratch::new(wg.num_vertices());
    let LocalSearchConfig { k, s, greedy, r } = *config;
    let mut results: Vec<Community> = Vec::with_capacity(r);

    let mut seeds: Vec<u32> = core.iter().map(|v| v as u32).collect();
    if greedy {
        seeds.sort_by(|a, b| heavier_first(wg, a, b));
    }

    for &seed in &seeds {
        if results.len() == r {
            break;
        }
        if !core.contains(seed as usize) {
            continue;
        }
        // Single-slot list: accept the seed's best candidate, if any.
        let mut single = TopList::new(1);
        let target = SeedTarget {
            aggregation,
            list: &mut single,
        };
        expand_seed(wg, rows, &core, seed, k, s, greedy, scratch, &mut [target]);
        if let Some(found) = single.into_vec().pop() {
            for &v in &found.vertices {
                core.remove(v as usize);
            }
            results.push(found);
        }
    }
    results.sort_by(|a, b| a.ranking_cmp(b));
    Ok(results)
}

/// The greedy order of seeds, pools and BFS layers: descending weight,
/// ties by ascending id — a total order on distinct vertices.
pub(crate) fn heavier_first(wg: &WeightedGraph, a: &VertexId, b: &VertexId) -> std::cmp::Ordering {
    wg.weight(*b)
        .total_cmp(&wg.weight(*a))
        .then_with(|| a.cmp(b))
}

pub(crate) fn validate_params(config: &LocalSearchConfig) -> Result<(), SearchError> {
    validate_k_r(config.r)?;
    if config.s <= config.k {
        return Err(SearchError::InvalidParams(format!(
            "size bound s = {} must exceed k = {} (a k-core needs at least k+1 vertices)",
            config.s, config.k
        )));
    }
    Ok(())
}

/// One consumer of a shared seed expansion in
/// [`run_seed_memo`](crate::algo::run_seed_memo): an
/// aggregation paired with the top-r list collecting its results.
pub struct SeedTarget<'a> {
    /// Aggregation this target evaluates candidates under.
    pub aggregation: Aggregation,
    /// The target's own top-r list (its capacity is the query's `r`;
    /// its threshold drives the target's pruning independently).
    pub list: &'a mut TopList,
}

/// Whether no target can use `seed`'s pool: every candidate contains
/// its seed, so when every target's value is its minimum member weight
/// (`peel_extremum: Some(Min)`) and `w(seed)` cannot beat any target's
/// threshold, no prefix of any pool could be inserted.
pub(crate) fn seed_is_hopeless(
    wg: &WeightedGraph,
    seed: VertexId,
    targets: &[SeedTarget<'_>],
) -> bool {
    let hopeless = |t: &SeedTarget<'_>| {
        wg.weight(seed) <= t.list.threshold()
            && t.aggregation.certificates().peel_extremum == Some(Extremum::Min)
    };
    targets.iter().all(hopeless)
}

/// The values a prefix strategy compares with its bar: `visit(len,
/// f(pool[..len]))` for `len` in `k + 1 ..= pool.len()`, in order, until
/// `visit` breaks. Bit-identical to an [`AggregateState`] fed the pool in
/// order: the count, the pool-order `+=` sum and, under
/// `needs_multiset`, the ascending multiset are the state's own.
///
/// A greedy pool (`pool[1..]` in `heavier_first` order) needs no sorted
/// insert: each new weight is at most every earlier one but the seed's,
/// so prefix `len`'s ascending multiset is the suffix
/// `ascending[n - len..]` of an `n`-slot buffer. A step writes the new
/// weight in front — or, while the seed is still the lightest, the seed
/// and then the new weight — and one `with_fn` serves the whole pool. A
/// random-order pool is fed to an [`AggregateState`].
pub(crate) fn prefix_values(
    wg: &WeightedGraph,
    pool: &[VertexId],
    k: usize,
    greedy: bool,
    aggregation: Aggregation,
    ascending: &mut Vec<f64>,
    mut visit: impl FnMut(usize, f64) -> ControlFlow<()>,
) {
    if !greedy {
        let mut state = AggregateState::new(aggregation, wg.total_weight());
        for (i, &v) in pool.iter().enumerate() {
            state.add(wg.weight(v));
            if i + 1 > k && visit(i + 1, state.value()).is_break() {
                return;
            }
        }
        return;
    }
    let (n, total) = (pool.len(), wg.total_weight());
    let multiset = aggregation.certificates().needs_multiset;
    ascending.clear();
    ascending.resize(n, 0.0);
    aggregation.with_fn(|f| {
        let seed = pool.first().map_or(0.0, |&v| wg.weight(v));
        let (mut sum, mut seed_lightest) = (0.0, true);
        for (i, &v) in pool.iter().enumerate() {
            let (w, front) = (wg.weight(v), n - 1 - i);
            sum += w;
            if i == 0 {
                ascending[front] = w;
            } else if seed_lightest && w.total_cmp(&seed).is_ge() {
                // The seed stays the lightest: it moves one slot to the
                // front, and the new weight takes its old slot.
                ascending[front] = seed;
                ascending[front + 1] = w;
            } else {
                seed_lightest = false;
                ascending[front] = w;
            }
            if i + 1 > k {
                let view = StateView::new(i + 1, sum, total, multiset.then(|| &ascending[front..]));
                if visit(i + 1, f.evaluate_state(&view)).is_break() {
                    return;
                }
            }
        }
    });
}

/// Per-walk scratch for seed expansions: pool building buffers, the
/// prefix-value buffer and an incremental candidate degree tracker.
/// Everything is epoch-stamped; the buffers stop growing after the first
/// few seeds (a seed's entry is its own allocation). One instance per
/// walk; see [`run_seed_memo`](crate::algo::run_seed_memo).
pub struct LocalScratch {
    // Pool building.
    pub(crate) pool: Vec<VertexId>,
    /// The first `read_len` vertices of the pool [`Self::build_pool`]
    /// left (BFS order) are those whose rows it read: every layer but
    /// the one that filled the pool.
    pub(crate) read_len: usize,
    layer: Vec<VertexId>,
    next_layer: Vec<VertexId>,
    /// Greedy layer merge: the heaviest `room` new vertices seen so far,
    /// the lightest on top (`heavier_first` as a key, reversed).
    best: BinaryHeap<Reverse<(u64, Reverse<VertexId>)>>,
    visited: Vec<u32>,
    visit_epoch: u32,
    /// [`prefix_values`]' ascending weight buffer.
    pub(crate) ascending: Vec<f64>,
    // Incremental candidate state.
    in_cand: Vec<u32>,
    cand_epoch: u32,
    deg: Vec<u32>,
    below_k: usize,
    cand_len: usize,
    k: usize,
    // Connectivity BFS.
    bfs_visited: Vec<u32>,
    bfs_epoch: u32,
    queue: VecDeque<VertexId>,
}

impl LocalScratch {
    /// Creates scratch state for graphs with up to `n` vertices.
    pub fn new(n: usize) -> Self {
        LocalScratch {
            pool: Vec::new(),
            read_len: 0,
            layer: Vec::new(),
            next_layer: Vec::new(),
            best: BinaryHeap::new(),
            visited: vec![0; n],
            visit_epoch: 0,
            ascending: Vec::new(),
            in_cand: vec![0; n],
            cand_epoch: 0,
            deg: vec![0; n],
            below_k: 0,
            cand_len: 0,
            k: 0,
            bfs_visited: vec![0; n],
            bfs_epoch: 0,
            queue: VecDeque::new(),
        }
    }

    fn bump(epoch: &mut u32, stamps: &mut [u32]) -> u32 {
        if *epoch == u32::MAX {
            stamps.fill(0);
            *epoch = 0;
        }
        *epoch += 1;
        *epoch
    }

    /// Truncated BFS pool into `self.pool`: plain FIFO order in random
    /// mode, per-layer descending-weight order in greedy mode (so the
    /// layer that exceeds the size budget keeps its most influential
    /// members). A layer stops growing at the room the pool has left: a
    /// cut layer is the last one, so nobody reads the marks of the
    /// vertices it left out (or took and dropped again). Greedy merges
    /// the rows of the layer's vertices into the `room` heaviest new
    /// vertices — each row is already heaviest-first, so it is read only
    /// until its next entry cannot make the cut; random mode walks the
    /// graph's own neighbour order.
    pub(crate) fn build_pool(
        &mut self,
        wg: &WeightedGraph,
        rows: &CoreRows,
        mask: &BitSet,
        seed: VertexId,
        limit: usize,
        greedy: bool,
    ) {
        self.pool.clear();
        self.read_len = 0;
        if limit == 0 || !mask.contains(seed as usize) {
            return;
        }
        let visit = Self::bump(&mut self.visit_epoch, &mut self.visited);
        self.visited[seed as usize] = visit;
        self.layer.clear();
        self.layer.push(seed);
        while !self.layer.is_empty() {
            // `layer` was cut to fit.
            self.pool.extend_from_slice(&self.layer);
            let room = limit - self.pool.len();
            if room == 0 {
                return;
            }
            self.read_len = self.pool.len();
            self.next_layer.clear();
            if greedy {
                for &v in &self.layer {
                    for &u in rows.row(v) {
                        if !mask.contains(u as usize) || self.visited[u as usize] == visit {
                            continue;
                        }
                        let key = Reverse((encode_ordered_f64(wg.weight(u)), Reverse(u)));
                        if self.best.len() < room {
                            self.best.push(key);
                        } else {
                            let mut lightest = self.best.peek_mut().expect("room > 0");
                            if key.0 < lightest.0 {
                                break; // and so is the rest of this row
                            }
                            *lightest = key;
                        }
                        self.visited[u as usize] = visit;
                    }
                }
                let mut kept = std::mem::take(&mut self.best).into_vec();
                kept.sort_unstable();
                let heaviest_first = kept.drain(..).map(|Reverse((_, Reverse(u)))| u);
                self.next_layer.extend(heaviest_first);
                self.best = kept.into(); // empty: hands the buffer back
            } else {
                let plain = self.layer.iter().flat_map(|&v| wg.graph().neighbors(v));
                for &u in plain {
                    if self.next_layer.len() == room {
                        break;
                    }
                    if mask.contains(u as usize) && self.visited[u as usize] != visit {
                        self.visited[u as usize] = visit;
                        self.next_layer.push(u);
                    }
                }
            }
            std::mem::swap(&mut self.layer, &mut self.next_layer);
        }
    }

    /// Starts an empty candidate with degree constraint `k`.
    pub(crate) fn begin_candidate(&mut self, k: usize) {
        Self::bump(&mut self.cand_epoch, &mut self.in_cand);
        self.k = k;
        self.below_k = 0;
        self.cand_len = 0;
    }

    /// Adds `v` to the candidate, updating internal degrees and the
    /// below-k violation counter in `O(d(v))`.
    pub(crate) fn push(&mut self, rows: &CoreRows, v: VertexId) {
        let epoch = self.cand_epoch;
        let k = self.k as u32;
        let mut dv = 0u32;
        for &u in rows.row(v) {
            let ui = u as usize;
            if self.in_cand[ui] == epoch {
                dv += 1;
                self.deg[ui] += 1;
                if self.deg[ui] == k {
                    self.below_k -= 1; // u crossed up to the constraint
                }
            }
        }
        self.in_cand[v as usize] = epoch;
        self.deg[v as usize] = dv;
        if dv < k {
            self.below_k += 1;
        }
        self.cand_len += 1;
    }

    /// Removes `v` (must be in the candidate) in `O(d(v))`.
    pub(crate) fn pop(&mut self, rows: &CoreRows, v: VertexId) {
        let epoch = self.cand_epoch;
        let k = self.k as u32;
        debug_assert_eq!(self.in_cand[v as usize], epoch, "pop of a non-member");
        self.in_cand[v as usize] = 0;
        if self.deg[v as usize] < k {
            self.below_k -= 1;
        }
        for &u in rows.row(v) {
            let ui = u as usize;
            if self.in_cand[ui] == epoch {
                self.deg[ui] -= 1;
                if self.deg[ui] + 1 == k {
                    self.below_k += 1; // u dropped below the constraint
                }
            }
        }
        self.cand_len -= 1;
    }

    /// O(1): does every candidate member meet the degree constraint?
    pub(crate) fn is_kcore(&self) -> bool {
        self.cand_len > 0 && self.below_k == 0
    }

    /// BFS connectivity check over the candidate, `O(Σ_{v} d(v))`. Only
    /// called for candidates that already pass [`Self::is_kcore`].
    pub(crate) fn is_connected(&mut self, rows: &CoreRows, start: VertexId) -> bool {
        if self.cand_len == 0 || self.in_cand[start as usize] != self.cand_epoch {
            return false;
        }
        let visit = Self::bump(&mut self.bfs_epoch, &mut self.bfs_visited);
        self.queue.clear();
        self.queue.push_back(start);
        self.bfs_visited[start as usize] = visit;
        let mut reached = 0usize;
        while let Some(x) = self.queue.pop_front() {
            reached += 1;
            for &u in rows.row(x) {
                let ui = u as usize;
                if self.in_cand[ui] == self.cand_epoch && self.bfs_visited[ui] != visit {
                    self.bfs_visited[ui] = visit;
                    self.queue.push_back(u);
                }
            }
        }
        reached == self.cand_len
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::algo::oracle;
    use crate::figure1::{figure1, vs};
    use crate::verify::{check_community, check_structure};

    fn cfg(k: usize, r: usize, s: usize, greedy: bool) -> LocalSearchConfig {
        LocalSearchConfig { k, r, s, greedy }
    }

    #[test]
    fn rejects_bad_params() {
        let wg = figure1();
        assert!(local_search(&wg, &cfg(2, 0, 5, true), Aggregation::Sum).is_err());
        assert!(local_search(&wg, &cfg(3, 2, 3, true), Aggregation::Sum).is_err());
    }

    #[test]
    fn results_are_valid_size_bounded_communities() {
        let wg = figure1();
        for greedy in [true, false] {
            for agg in [Aggregation::Sum, Aggregation::Average, Aggregation::Min] {
                let res = local_search(&wg, &cfg(2, 3, 4, greedy), agg).unwrap();
                assert!(!res.is_empty(), "{} greedy={greedy}", agg.name());
                for c in &res {
                    check_community(&wg, 2, Some(4), agg, c).unwrap_or_else(|e| {
                        panic!("{} greedy={greedy}: {:?} -> {e:?}", agg.name(), c.vertices)
                    });
                }
            }
        }
    }

    #[test]
    fn greedy_avg_finds_the_best_triangle() {
        let wg = figure1();
        let res = local_search(&wg, &cfg(2, 3, 3, true), Aggregation::Average).unwrap();
        // {v1, v2, v4} (avg 24) is discoverable from seed v1/v2/v4 pools.
        assert_eq!(res[0].vertices, vs(&[1, 2, 4]));
        assert_eq!(res[0].value, 24.0);
    }

    #[test]
    fn sum_strategy_finds_the_example_community() {
        let wg = figure1();
        let res = local_search(&wg, &cfg(2, 5, 4, true), Aggregation::Sum).unwrap();
        // With s = 4, {v3, v6, v9, v10} (sum 40) is one of Example 1's
        // size-constrained communities; greedy should rank a community
        // with value >= 40 on top.
        assert!(res[0].value >= 40.0, "top value {}", res[0].value);
        for c in &res {
            assert!(c.len() <= 4);
        }
    }

    #[test]
    fn greedy_beats_random_on_power_law_graph() {
        // The effectiveness claim of Figs 12-13: on heavy-tailed graphs
        // with PageRank weights, the greedy strategy's r-th influence
        // value dominates random's. (Pointwise dominance does not hold on
        // arbitrary tiny fixtures; the claim is about realistic inputs.)
        let spec = ic_gen::datasets::by_name(ic_gen::datasets::Profile::Quick, "email").unwrap();
        let wg = spec.generate_weighted();
        for agg in [Aggregation::Sum, Aggregation::Average] {
            let greedy = local_search(&wg, &cfg(4, 5, 20, true), agg).unwrap();
            let random = local_search(&wg, &cfg(4, 5, 20, false), agg).unwrap();
            let gv = greedy.last().map_or(f64::NEG_INFINITY, |c| c.value);
            let rv = random.last().map_or(f64::NEG_INFINITY, |c| c.value);
            assert!(
                gv >= rv - 1e-12,
                "{}: greedy {gv} < random {rv}",
                agg.name()
            );
        }
    }

    #[test]
    fn nonoverlapping_results_are_disjoint() {
        let wg = figure1();
        for agg in [Aggregation::Sum, Aggregation::Average, Aggregation::Min] {
            let res = local_search_nonoverlapping(&wg, &cfg(2, 3, 4, true), agg).unwrap();
            assert!(
                crate::algo::nonoverlap::is_nonoverlapping(&res),
                "{}",
                agg.name()
            );
            for c in &res {
                check_community(&wg, 2, Some(4), agg, c).unwrap();
            }
        }
    }

    #[test]
    fn min_aggregation_uses_prefix_strategy() {
        let wg = figure1();
        let res = local_search(&wg, &cfg(2, 2, 3, true), Aggregation::Min).unwrap();
        // Best min triangle is {v5, v7, v8} with value 12.
        assert_eq!(res[0].value, 12.0);
    }

    #[test]
    fn weight_density_and_balanced_density_run() {
        let wg = figure1();
        let res = local_search(
            &wg,
            &cfg(2, 2, 5, true),
            Aggregation::WeightDensity { beta: 1.0 },
        )
        .unwrap();
        assert!(!res.is_empty());
        // Balanced density: communities below half the total weight rank
        // -inf; the solver must not return them as positive hits.
        let res = local_search(&wg, &cfg(2, 2, 8, true), Aggregation::BalancedDensity).unwrap();
        for c in &res {
            if c.value.is_finite() {
                let w: f64 = c.vertices.iter().map(|&v| wg.weight(v)).sum();
                assert!(2.0 * w > wg.total_weight());
            }
        }
    }

    #[test]
    fn incremental_tracker_matches_check_structure() {
        let wg = figure1();
        let n = wg.num_vertices();
        let rows = &CoreRows::build(&wg, &BitSet::full(n));
        let mut scratch = LocalScratch::new(n);
        let connected_kcore =
            |c: &[u32], k| check_structure(&wg, k, &Community::new(c.to_vec(), 0.0)).is_ok();
        // Grow a candidate vertex by vertex and compare the incremental
        // verdict against the from-scratch check at every step.
        for k in 1..4usize {
            let order: Vec<u32> = (0..n as u32).collect();
            scratch.begin_candidate(k);
            let mut current: Vec<u32> = Vec::new();
            for &v in &order {
                scratch.push(rows, v);
                current.push(v);
                let incremental = scratch.is_kcore() && scratch.is_connected(rows, current[0]);
                let reference = connected_kcore(&current, k);
                assert_eq!(incremental, reference, "k={k} grow {current:?}");
            }
            // Shrink from the back, comparing again.
            while let Some(v) = current.pop() {
                scratch.pop(rows, v);
                if current.is_empty() {
                    break;
                }
                let incremental = scratch.is_kcore() && scratch.is_connected(rows, current[0]);
                let reference = connected_kcore(&current, k);
                assert_eq!(incremental, reference, "k={k} shrink {current:?}");
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Rows, pools and answers are identical to
        /// [`oracle::local_search`]'s — the pool builder and strategies
        /// as they were before they learned to decide first — for
        /// every size bound the benchmark draws (and one no component
        /// reaches), both strategies' orders, the five `miss_mix`
        /// aggregations and a mask smaller than the level's (as in
        /// `local_search_nonoverlapping`), on graphs whose few distinct
        /// weights make the pool order lean on its tie-break.
        #[test]
        fn deciding_first_changes_no_pool_and_no_answer(
            n in 45usize..110,
            seed in any::<u64>(),
            k in 2usize..5,
            distinct in 2u32..7,
        ) {
            let g = ic_gen::barabasi_albert(n, 4, ic_gen::GraphSeed(seed));
            let weights: Vec<f64> =
                ic_gen::uniform_weights(n, 1.0, f64::from(distinct + 1), ic_gen::GraphSeed(seed))
                    .into_iter()
                    .map(f64::floor)
                    .collect();
            let wg = WeightedGraph::new(g, weights).unwrap();
            let core = kcore_mask(wg.graph(), k);
            let mut shrunk = core.clone();
            for v in core.iter().step_by(3) {
                shrunk.remove(v);
            }
            for mask in [&shrunk, &core] {
                let rows = CoreRows::build(&wg, mask);
                for v in 0..n as VertexId {
                    let mut expect: Vec<VertexId> = wg.graph().neighbors(v).to_vec();
                    expect.retain(|&u| mask.contains(v as usize) && mask.contains(u as usize));
                    expect.sort_by(|a, b| heavier_first(&wg, a, b));
                    prop_assert_eq!(rows.row(v), &expect[..], "row {}", v);
                }
            }
            let rows = CoreRows::build(&wg, &core);
            let mut sc = LocalScratch::new(n);
            let aggregations = [
                Aggregation::Average,
                Aggregation::Sum,
                Aggregation::Min,
                Aggregation::Percentile { p: 0.75 },
                Aggregation::TopTSum { t: 3 },
            ];
            for s in (k + 1..=40).chain([n]) {
                for greedy in [true, false] {
                    for mask in [&core, &shrunk] {
                        for v in mask.iter() {
                            sc.build_pool(&wg, &rows, mask, v as VertexId, s, greedy);
                            let expect = oracle::seed_pool(&wg, mask, v as VertexId, s, greedy);
                            prop_assert_eq!(&sc.pool, &expect, "pool s={} greedy={} seed={}", s, greedy, v);
                        }
                    }
                    let config = cfg(k, 1 + s % 4, s, greedy);
                    for agg in aggregations {
                        let got = local_search(&wg, &config, agg).unwrap();
                        let expect = oracle::local_search(&wg, &config, agg).unwrap();
                        prop_assert_eq!(&got, &expect, "{} s={} greedy={}", agg.name(), s, greedy);
                    }
                }
            }
        }
    }

    /// `n` weights of one adversarial class, drawn off `rng`: 0 {1, 2, 3}
    /// ties, 1 pairs one ulp apart, 2 1e15-scale weights with full
    /// mantissas, 3 zeros of both signs among halves and ones, 4 any of
    /// those per weight. Weight 0 — the seed's — is then, by `seed_at`,
    /// left as drawn (0), the lightest (1), the heaviest (2) or tied with
    /// another weight (3).
    pub(crate) fn adversarial_weights(n: usize, class: u8, seed_at: u8, mut rng: u64) -> Vec<f64> {
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let draw = |class: u8, r: u64| match class {
            0 => f64::from(1 + (r % 3) as u32),
            1 => {
                let base: f64 = [0.1, 1.0, 3.0][(r % 3) as usize];
                f64::from_bits(base.to_bits() + (r >> 8) % 2)
            }
            2 => 1e15 * (1.0 + (r >> 11) as f64 / (1u64 << 53) as f64),
            3 => [0.0, -0.0, 0.5, 1.0][(r % 4) as usize],
            _ => unreachable!("four classes"),
        };
        let mut weights: Vec<f64> = (0..n)
            .map(|_| {
                let pick = if class == 4 {
                    (next() % 4) as u8
                } else {
                    class
                };
                draw(pick, next())
            })
            .collect();
        if n > 1 {
            let others = weights[1..].iter().copied();
            weights[0] = match seed_at {
                1 => others.min_by(f64::total_cmp).unwrap(),
                2 => others.max_by(f64::total_cmp).unwrap(),
                3 => weights[1 + (next() % (n as u64 - 1)) as usize],
                _ => weights[0],
            };
        }
        weights
    }

    /// A registered aggregation that keeps `evaluate_state`'s default:
    /// it reads the weight multiset through `evaluate`.
    pub(crate) fn spread() -> Aggregation {
        #[derive(Debug)]
        struct Spread;
        impl crate::AggregateFn for Spread {
            fn name(&self) -> &str {
                "spread"
            }
            fn certificates(&self) -> crate::Certificates {
                crate::Certificates {
                    needs_multiset: true,
                    ..crate::Certificates::opaque()
                }
            }
            fn evaluate(&self, weights: &[f64], _total_weight: f64) -> f64 {
                let max = weights.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                max - weights.iter().copied().fold(f64::INFINITY, f64::min)
            }
        }
        static SPREAD: std::sync::OnceLock<Aggregation> = std::sync::OnceLock::new();
        *SPREAD.get_or_init(|| Aggregation::custom(Spread).expect("certifies"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every prefix value the greedy kernel computes is, bit for
        /// bit, the one an `AggregateState` fed the pool in order holds:
        /// every built-in aggregation and a registered multiset-backed
        /// one, on adversarial weights with the seed anywhere in them.
        #[test]
        fn greedy_prefix_values_equal_the_aggregate_state_bit_for_bit(
            n in 1usize..40,
            class in 0u8..5,
            seed_at in 0u8..4,
            k in 0usize..3,
            rng in any::<u64>(),
        ) {
            let weights = adversarial_weights(n, class, seed_at, rng | 1);
            let wg = WeightedGraph::new(ic_graph::graph_from_edges(n, &[]), weights).unwrap();
            let mut pool: Vec<VertexId> = (0..n as VertexId).collect();
            pool[1..].sort_by(|a, b| heavier_first(&wg, a, b));
            let aggregations = Aggregation::builtins().into_iter().chain([
                Aggregation::TopTSum { t: 64 },
                Aggregation::Percentile { p: 0.9 },
                spread(),
            ]);
            let mut ascending = Vec::new();
            for agg in aggregations {
                let mut got = Vec::new();
                prefix_values(&wg, &pool, k, true, agg, &mut ascending, |len, value| {
                    got.push((len, value.to_bits()));
                    ControlFlow::Continue(())
                });
                let mut state = AggregateState::new(agg, wg.total_weight());
                let mut want = Vec::new();
                for (i, &v) in pool.iter().enumerate() {
                    state.add(wg.weight(v));
                    if i + 1 > k {
                        want.push((i + 1, state.value().to_bits()));
                    }
                }
                prop_assert_eq!(got, want, "{} on {:?}", agg.name(), pool);
            }
        }
    }

    /// Expands `seed` of `wg` (k = 2, s = 3, greedy) for every
    /// `(aggregation, list)` at once; returns the size of the pool built
    /// (0: the seed was hopeless, nothing built).
    fn expand(wg: &WeightedGraph, seed: VertexId, lists: &mut [(Aggregation, TopList)]) -> usize {
        let core = kcore_mask(wg.graph(), 2);
        let mut targets = Vec::new();
        for (aggregation, list) in lists {
            let aggregation = *aggregation;
            targets.push(SeedTarget { aggregation, list });
        }
        let (rows, sc) = (CoreRows::build(wg, &core), &mut LocalScratch::new(6));
        let entry = expand_seed(wg, &rows, &core, seed, 2, 3, true, sc, &mut targets);
        entry.map_or(0, |entry| entry.pool().len())
    }

    #[test]
    fn a_min_seed_at_the_bar_is_skipped_unless_another_target_is_live() {
        // Two triangles; {0, 1, 2} sets the `min` bar at 3, and seed 3
        // weighs exactly that much.
        let g = ic_graph::graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let wg = WeightedGraph::new(g, vec![3.0, 3.0, 3.0, 3.0, 4.0, 4.0]).unwrap();
        let mut solo = [(Aggregation::Min, TopList::new(1))];
        assert_eq!(expand(&wg, 0, &mut solo), 3);
        assert_eq!(solo[0].1.threshold(), 3.0);
        assert_eq!(expand(&wg, 3, &mut solo), 0, "w(seed) == bar");
        assert_eq!(expand(&wg, 4, &mut solo), 3, "w(seed) > bar");
        assert_eq!(solo[0].1.items()[0].vertices, [0, 1, 2]);
        for r in 1..3 {
            let (config, min) = (cfg(2, r, 3, true), Aggregation::Min);
            let expect = oracle::local_search(&wg, &config, min).unwrap();
            assert_eq!(local_search(&wg, &config, min).unwrap(), expect);
        }
        // With an `avg` member sharing the pool the seed is expanded, and
        // `avg` finds the community only seed 3's pool reaches first.
        let both = [Aggregation::Min, Aggregation::Average];
        let mut mixed = both.map(|aggregation| (aggregation, TopList::new(1)));
        assert_eq!(expand(&wg, 0, &mut mixed), 3);
        assert_eq!(expand(&wg, 3, &mut mixed), 3, "avg is live");
        assert_eq!(mixed[0].1.items()[0].vertices, [0, 1, 2]);
        assert_eq!(mixed[1].1.items()[0].vertices, [3, 4, 5]);
    }
}
