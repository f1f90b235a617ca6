//! Baselines for the node-domination aggregations: top-r search under
//! `min` (prior work: Li et al. VLDB'15, Bi et al. VLDB'18) and its mirror
//! image `max`.
//!
//! Under `min`, the k-influential communities are exactly the connected
//! components of the k-core of `G≥θ` (the graph restricted to weights
//! ≥ θ): each such component is maximal with value equal to its minimum
//! member weight. Peeling the global minimum-weight vertex (with degree
//! cascade) from the maximal k-core enumerates every such community right
//! before its minimum vertex disappears. `max` is symmetric (peel from
//! above). Two passes: the first records the peel timeline, the second
//! replays it and snapshots only the top-r communities — O(n+m + r·(n+m)).
//!
//! Both passes run on a single [`PeelArena`]: the k-core is loaded once
//! per pass and every deletion is an O(affected) committed cascade — no
//! per-event mask clones, no `HashSet` on the replay path (events are
//! marked in a flat bitmap), and component snapshots go through the
//! arena's reusable BFS buffer.

use crate::algo::common::{community_from_vertices, validate_k_r};
use crate::{Aggregation, Community, Extremum, SearchError};
use ic_graph::{BitSet, VertexId, WeightedGraph};
use ic_kcore::{kcore_mask, Budget, GraphSnapshot, PeelArena};
use std::collections::VecDeque;
use std::sync::Arc;

/// Top-r k-influential communities under `f = min`, best first.
pub(crate) fn min_topr(
    wg: &WeightedGraph,
    k: usize,
    r: usize,
) -> Result<Vec<Community>, SearchError> {
    peel_topr(wg, k, r, Extremum::Min)
}

/// Top-r k-influential communities under `f = max`, best first.
pub(crate) fn max_topr(
    wg: &WeightedGraph,
    k: usize,
    r: usize,
) -> Result<Vec<Community>, SearchError> {
    peel_topr(wg, k, r, Extremum::Max)
}

/// `min`-peeling against a [`GraphSnapshot`]: the k-core mask comes from
/// the snapshot's memoized level and the peel runs on the caller's
/// (typically pooled) arena. Output is bit-identical to the routed
/// per-graph peel (`Query::solve`).
pub fn min_topr_on(
    snap: &GraphSnapshot,
    k: usize,
    r: usize,
    arena: &mut PeelArena,
) -> Result<Vec<Community>, SearchError> {
    Ok(min_topr_multi_on(snap, k, &[r], arena)?
        .pop()
        .expect("one r"))
}

/// `max`-peeling against a [`GraphSnapshot`]; see [`min_topr_on`].
pub fn max_topr_on(
    snap: &GraphSnapshot,
    k: usize,
    r: usize,
    arena: &mut PeelArena,
) -> Result<Vec<Community>, SearchError> {
    Ok(max_topr_multi_on(snap, k, &[r], arena)?
        .pop()
        .expect("one r"))
}

/// Answers several top-r `min` queries over the same `k` with **one**
/// two-pass peel: the timeline (pass 1) and the component snapshots
/// (pass 2) are shared across every requested `r`, and only the
/// per-`r` event selection differs. Entry `i` of the result is
/// bit-identical to `min_topr(wg, k, rs[i])`. This is the batched
/// engine's r-family merge: `t` queries cost one peel instead of `t`.
pub fn min_topr_multi_on(
    snap: &GraphSnapshot,
    k: usize,
    rs: &[usize],
    arena: &mut PeelArena,
) -> Result<Vec<Vec<Community>>, SearchError> {
    for &r in rs {
        validate_k_r(r)?;
    }
    let level = snap.level(k);
    Ok(peel_topr_multi(
        snap.weighted(),
        &level.mask,
        k,
        rs,
        Extremum::Min,
        arena,
    ))
}

/// The `max` counterpart of [`min_topr_multi_on`].
pub fn max_topr_multi_on(
    snap: &GraphSnapshot,
    k: usize,
    rs: &[usize],
    arena: &mut PeelArena,
) -> Result<Vec<Vec<Community>>, SearchError> {
    for &r in rs {
        validate_k_r(r)?;
    }
    let level = snap.level(k);
    Ok(peel_topr_multi(
        snap.weighted(),
        &level.mask,
        k,
        rs,
        Extremum::Max,
        arena,
    ))
}

/// Progressive, rank-order emission for the `min`/`max` peels — the
/// incremental hook behind `ic_engine::Engine::submit`.
///
/// [`MinMaxEmission::start`] runs **one** stamped peel pass: every
/// removal event records its value, and every vertex records *which
/// event* removed it
/// ([`PeelArena::journaled`]). The community witnessed by event `s` is
/// then reconstructible at any time, in any order, as the connected
/// component of the event vertex among vertices with removal stamp
/// ≥ `s` — no replay pass. Events are ranked `(value desc, seq asc)`
/// exactly like the batch solver, and
/// [`next_community`](MinMaxEmission::next_community) materializes
/// them lazily, one BFS
/// per pull (tie groups materialize together so the emitted order is
/// the batch solver's final `ranking_cmp` order).
///
/// **Prefix guarantee:** the first `n` communities pulled equal the
/// first `n` entries of the batch peel solvers with the same `(k,
/// r)`, bit for bit. Dropping the emitter simply skips the remaining
/// BFS work (cancellation is free).
#[derive(Clone, Debug)]
pub struct MinMaxEmission {
    aggregation: Aggregation,
    /// `removal_stamp[v]` = index of the event whose cascade removed
    /// `v`; `u32::MAX` for vertices outside the maximal k-core.
    removal_stamp: Vec<u32>,
    /// Selected events in emission (rank) order: `(seq, vertex, value)`.
    ranked: Vec<(u32, VertexId, f64)>,
    cursor: usize,
    /// Materialized tie group awaiting emission.
    pending: VecDeque<Community>,
    /// BFS scratch.
    visited: Vec<bool>,
    queue: Vec<VertexId>,
}

impl MinMaxEmission {
    /// Starts a progressive emission in direction `dir`: one stamped
    /// peel pass over the snapshot's `k`-core on the caller's arena, then
    /// lazy materialization. The arena is only used inside this call.
    ///
    /// With a `budget`, the pass runs under a cooperative deadline: it
    /// checkpoints between removal events (and the cascade itself keeps
    /// the shared flag fresh). Returns `Ok(None)` when the budget expires
    /// before the pass completes — the event ranking is only proven by
    /// the *full* peel, so an interrupted pass certifies nothing and the
    /// caller must report `DeadlineExceeded` rather than a partial
    /// answer. Without a budget the result is always `Some`.
    pub fn start(
        snap: &GraphSnapshot,
        k: usize,
        r: usize,
        dir: Extremum,
        arena: &mut PeelArena,
        budget: Option<&Arc<Budget>>,
    ) -> Result<Option<Self>, SearchError> {
        validate_k_r(r)?;
        let wg = snap.weighted();
        let g = wg.graph();
        let level = snap.level(k);

        let mut order: Vec<u32> = level.mask.iter().map(|v| v as u32).collect();
        sort_peel_order(&mut order, wg, dir);

        // Stamped pass 1: identical event sequence to `peel_topr_multi`,
        // but each event also stamps the vertices its cascade removed.
        // Under a budget the cascade keeps the shared expiry flag fresh
        // and each event boundary checkpoints it; an expired pass proves
        // no ranking, so it is abandoned wholesale.
        let mut removal_stamp = vec![u32::MAX; g.num_vertices()];
        let mut events: Vec<(VertexId, f64)> = Vec::with_capacity(order.len());
        arena.set_budget(budget.cloned());
        arena.load(g, &order, k);
        for &v in &order {
            if let Some(b) = budget {
                if b.poll() {
                    arena.set_budget(None);
                    return Ok(None);
                }
            }
            if arena.is_live(v) {
                let seq = events.len() as u32;
                arena.remove_cascade(v);
                for u in arena.journaled() {
                    removal_stamp[u as usize] = seq;
                }
                arena.commit();
                events.push((v, wg.weight(v)));
            }
        }
        arena.set_budget(None);

        // Rank events (value desc, seq asc) and keep the top r — the
        // same selection rule as the batch path.
        let mut ranked_seqs: Vec<u32> = (0..events.len() as u32).collect();
        ranked_seqs.sort_by(|&a, &b| {
            events[b as usize]
                .1
                .total_cmp(&events[a as usize].1)
                .then_with(|| a.cmp(&b))
        });
        ranked_seqs.truncate(r);
        let ranked = ranked_seqs
            .into_iter()
            .map(|s| (s, events[s as usize].0, events[s as usize].1))
            .collect();

        Ok(Some(MinMaxEmission {
            aggregation: dir.aggregation(),
            removal_stamp,
            ranked,
            cursor: 0,
            pending: VecDeque::new(),
            visited: vec![false; g.num_vertices()],
            queue: Vec::new(),
        }))
    }

    /// Total communities this emission will yield (`min(r, #events)`).
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// Whether the emission yields nothing (empty k-core).
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }

    /// Materializes the community of the ranked event at `i` with one
    /// BFS over still-live-at-that-event vertices.
    fn materialize(&mut self, wg: &WeightedGraph, i: usize) -> Community {
        let (seq, start, _) = self.ranked[i];
        let g = wg.graph();
        self.queue.clear();
        self.queue.push(start);
        self.visited[start as usize] = true;
        let mut head = 0;
        while head < self.queue.len() {
            let x = self.queue[head];
            head += 1;
            for &u in g.neighbors(x) {
                let ui = u as usize;
                let stamp = self.removal_stamp[ui];
                if stamp != u32::MAX && stamp >= seq && !self.visited[ui] {
                    self.visited[ui] = true;
                    self.queue.push(u);
                }
            }
        }
        for &u in &self.queue {
            self.visited[u as usize] = false;
        }
        community_from_vertices(wg, self.aggregation, self.queue.clone())
    }

    /// Pulls the next community in final rank order. `wg` must be the
    /// graph the emission was started on. Each pull costs one component
    /// BFS (a whole tie group materializes on its first pull).
    pub fn next_community(&mut self, wg: &WeightedGraph) -> Option<Community> {
        if let Some(c) = self.pending.pop_front() {
            return Some(c);
        }
        if self.cursor >= self.ranked.len() {
            return None;
        }
        // Find the run of events tied on value: within it, the final
        // order is decided by `ranking_cmp` over the materialized
        // communities (exactly the batch solver's final sort), so the
        // whole group materializes together.
        let lo = self.cursor;
        let v0 = self.ranked[lo].2;
        let mut hi = lo + 1;
        while hi < self.ranked.len() && self.ranked[hi].2.total_cmp(&v0).is_eq() {
            hi += 1;
        }
        self.cursor = hi;
        if hi - lo == 1 {
            return Some(self.materialize(wg, lo));
        }
        let mut group: Vec<Community> = (lo..hi).map(|i| self.materialize(wg, i)).collect();
        group.sort_by(|a, b| a.ranking_cmp(b));
        self.pending.extend(group);
        self.pending.pop_front()
    }
}

fn sort_peel_order(order: &mut [u32], wg: &WeightedGraph, dir: Extremum) {
    order.sort_unstable_by(|&a, &b| {
        let (wa, wb) = (wg.weight(a), wg.weight(b));
        let c = match dir {
            Extremum::Min => wa.total_cmp(&wb),
            Extremum::Max => wb.total_cmp(&wa),
        };
        c.then_with(|| a.cmp(&b))
    });
}

fn peel_topr(
    wg: &WeightedGraph,
    k: usize,
    r: usize,
    dir: Extremum,
) -> Result<Vec<Community>, SearchError> {
    validate_k_r(r)?;
    let g = wg.graph();
    let core = kcore_mask(g, k);
    let mut arena = PeelArena::for_graph(g);
    Ok(peel_topr_multi(wg, &core, k, &[r], dir, &mut arena)
        .pop()
        .expect("one r in, one list out"))
}

/// Shared implementation: one timeline + one replay serving every
/// requested `r`. Entry `i` of the result answers `rs[i]`.
fn peel_topr_multi(
    wg: &WeightedGraph,
    core: &BitSet,
    k: usize,
    rs: &[usize],
    dir: Extremum,
    arena: &mut PeelArena,
) -> Vec<Vec<Community>> {
    let g = wg.graph();
    let r_max = rs.iter().copied().max().unwrap_or(0);

    // Peel order: ascending weight for min, descending for max; vertex id
    // breaks ties deterministically. Shared with the progressive
    // emission path so the two can never drift apart.
    let mut order: Vec<u32> = core.iter().map(|v| v as u32).collect();
    sort_peel_order(&mut order, wg, dir);

    // Pass 1: record the value of every extreme-vertex removal event.
    // Each visit of a still-live vertex is one event; the community it
    // witnesses is its component right before the removal.
    let mut event_values: Vec<f64> = Vec::with_capacity(order.len());
    arena.load(g, &order, k);
    for &v in &order {
        if arena.is_live(v) {
            event_values.push(wg.weight(v));
            arena.remove_cascade(v);
            arena.commit();
        }
    }

    // Rank events by value (sequence number for determinism). The top-r
    // events for any r are a prefix of this ranking, so one replay
    // snapshotting the r_max best serves every requested r.
    let mut ranked: Vec<usize> = (0..event_values.len()).collect();
    ranked.sort_by(|&a, &b| {
        event_values[b]
            .total_cmp(&event_values[a])
            .then_with(|| a.cmp(&b))
    });
    ranked.truncate(r_max);
    const UNSELECTED: usize = usize::MAX;
    let mut rank_of_seq = vec![UNSELECTED; event_values.len()];
    for (pos, &s) in ranked.iter().enumerate() {
        rank_of_seq[s] = pos;
    }

    // Pass 2: replay, snapshotting the component of each selected event
    // through the arena's reusable BFS buffer, indexed by event rank.
    let agg = dir.aggregation();
    let mut snapshots: Vec<Option<Community>> = vec![None; ranked.len()];
    let mut snapshot: Vec<u32> = Vec::new();
    let mut seq = 0usize;
    arena.load(g, &order, k);
    for &v in &order {
        if !arena.is_live(v) {
            continue;
        }
        if rank_of_seq[seq] != UNSELECTED {
            arena.component_of_into(v, &mut snapshot);
            snapshots[rank_of_seq[seq]] = Some(community_from_vertices(wg, agg, snapshot.clone()));
        }
        seq += 1;
        arena.remove_cascade(v);
        arena.commit();
    }

    rs.iter()
        .map(|&r| {
            let mut results: Vec<Community> = snapshots[..r.min(snapshots.len())]
                .iter()
                .map(|c| c.clone().expect("every ranked event was replayed"))
                .collect();
            results.sort_by(|a, b| a.ranking_cmp(b));
            results
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::exact_topr;
    use crate::figure1::{figure1, vs};
    use ic_graph::{graph_from_edges, WeightedGraph};

    fn unbudgeted(
        snap: &GraphSnapshot,
        k: usize,
        r: usize,
        dir: Extremum,
        arena: &mut PeelArena,
    ) -> MinMaxEmission {
        MinMaxEmission::start(snap, k, r, dir, arena, None)
            .unwrap()
            .expect("an unbudgeted start always completes")
    }

    #[test]
    fn figure1_min_top2_matches_example1() {
        let wg = figure1();
        let top = min_topr(&wg, 2, 2).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].vertices, vs(&[5, 7, 8]));
        assert_eq!(top[0].value, 12.0);
        assert_eq!(top[1].vertices, vs(&[3, 9, 10]));
        assert_eq!(top[1].value, 8.0);
    }

    #[test]
    fn min_matches_exact_oracle() {
        let wg = figure1();
        for r in [1, 2, 3, 5] {
            let got = min_topr(&wg, 2, r).unwrap();
            let expect = exact_topr(&wg, 2, r, None, Aggregation::Min).unwrap();
            assert_eq!(got, expect, "r = {r}");
        }
    }

    #[test]
    fn max_matches_exact_oracle() {
        let wg = figure1();
        for r in [1, 2, 3, 5] {
            let got = max_topr(&wg, 2, r).unwrap();
            let expect = exact_topr(&wg, 2, r, None, Aggregation::Max).unwrap();
            assert_eq!(got, expect, "r = {r}");
        }
    }

    #[test]
    fn matches_from_scratch_oracle() {
        let wg = figure1();
        for r in [1, 2, 4, 7] {
            assert_eq!(
                min_topr(&wg, 2, r).unwrap(),
                crate::algo::oracle::min_topr(&wg, 2, r).unwrap(),
                "min r = {r}"
            );
            assert_eq!(
                max_topr(&wg, 2, r).unwrap(),
                crate::algo::oracle::max_topr(&wg, 2, r).unwrap(),
                "max r = {r}"
            );
        }
    }

    #[test]
    fn max_top1_contains_heaviest_core_vertex() {
        let wg = figure1();
        let top = max_topr(&wg, 2, 1).unwrap();
        // v1 (weight 62) is the heaviest vertex; the top-1 max community
        // is the whole 2-core containing it, value 62.
        assert_eq!(top[0].value, 62.0);
        assert!(top[0].contains(crate::figure1::v(1)));
    }

    #[test]
    fn nested_min_communities_k4() {
        // K4 with distinct weights: communities are {all} (min 1) and
        // {2,3,4-weight vertices} (min 2).
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let wg = WeightedGraph::new(g, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let top = min_topr(&wg, 2, 5).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].vertices, vec![1, 2, 3]);
        assert_eq!(top[0].value, 2.0);
        assert_eq!(top[1].vertices, vec![0, 1, 2, 3]);
        assert_eq!(top[1].value, 1.0);
    }

    #[test]
    fn empty_core_gives_empty_result() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let wg = WeightedGraph::new(g, vec![1.0; 3]).unwrap();
        assert!(min_topr(&wg, 2, 3).unwrap().is_empty());
        assert!(max_topr(&wg, 2, 3).unwrap().is_empty());
    }

    #[test]
    fn rejects_r_zero() {
        let wg = figure1();
        assert!(min_topr(&wg, 2, 0).is_err());
    }

    #[test]
    fn snapshot_and_multi_r_paths_are_bit_identical() {
        use ic_kcore::GraphSnapshot;
        let wg = figure1();
        let snap = GraphSnapshot::new(wg.clone());
        let mut arena = ic_kcore::PeelArena::for_graph(snap.graph());
        let rs = [1usize, 2, 4, 7];
        let min_multi = min_topr_multi_on(&snap, 2, &rs, &mut arena).unwrap();
        let max_multi = max_topr_multi_on(&snap, 2, &rs, &mut arena).unwrap();
        for (i, &r) in rs.iter().enumerate() {
            assert_eq!(min_multi[i], min_topr(&wg, 2, r).unwrap(), "min r={r}");
            assert_eq!(max_multi[i], max_topr(&wg, 2, r).unwrap(), "max r={r}");
            assert_eq!(
                min_topr_on(&snap, 2, r, &mut arena).unwrap(),
                min_multi[i],
                "min_topr_on r={r}"
            );
            assert_eq!(
                max_topr_on(&snap, 2, r, &mut arena).unwrap(),
                max_multi[i],
                "max_topr_on r={r}"
            );
        }
    }

    #[test]
    fn multi_r_handles_ties_exactly_like_single_r() {
        // Two triangles with identical weights: events tie on value, so
        // per-r selection must break ties by sequence exactly as the
        // single-r path does (prefix slicing of the sorted result list
        // would get this wrong).
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let wg = WeightedGraph::new(g, vec![3.0; 6]).unwrap();
        let snap = ic_kcore::GraphSnapshot::new(wg.clone());
        let mut arena = ic_kcore::PeelArena::for_graph(snap.graph());
        let multi = min_topr_multi_on(&snap, 2, &[1, 2, 5], &mut arena).unwrap();
        for (i, &r) in [1usize, 2, 5].iter().enumerate() {
            assert_eq!(multi[i], min_topr(&wg, 2, r).unwrap(), "r={r}");
        }
    }

    #[test]
    fn emission_prefix_equals_batch_for_every_r() {
        use ic_kcore::GraphSnapshot;
        let wg = figure1();
        let snap = GraphSnapshot::new(wg.clone());
        let mut arena = PeelArena::for_graph(snap.graph());
        for r in [1usize, 2, 4, 7, 100] {
            let mut min_em = unbudgeted(&snap, 2, r, Extremum::Min, &mut arena);
            let mut got = Vec::new();
            while let Some(c) = min_em.next_community(&wg) {
                got.push(c);
            }
            assert_eq!(got, min_topr(&wg, 2, r).unwrap(), "min full drain r={r}");
            let mut max_em = unbudgeted(&snap, 2, r, Extremum::Max, &mut arena);
            let mut got = Vec::new();
            while let Some(c) = max_em.next_community(&wg) {
                got.push(c);
            }
            assert_eq!(got, max_topr(&wg, 2, r).unwrap(), "max full drain r={r}");
        }
        // Genuine prefix semantics: pull n < r items and stop.
        let full = min_topr(&wg, 2, 7).unwrap();
        for n in 0..full.len() {
            let mut em = unbudgeted(&snap, 2, 7, Extremum::Min, &mut arena);
            let mut prefix = Vec::new();
            for _ in 0..n {
                prefix.push(em.next_community(&wg).unwrap());
            }
            assert_eq!(prefix.as_slice(), &full[..n], "prefix n={n}");
        }
    }

    #[test]
    fn emission_handles_value_ties_like_the_batch_solver() {
        // Two equal-weight triangles force tied event values: the
        // emitter must materialize the tie group together and sort it by
        // ranking_cmp, exactly like the batch path's final sort.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let wg = WeightedGraph::new(g, vec![3.0; 6]).unwrap();
        let snap = ic_kcore::GraphSnapshot::new(wg.clone());
        let mut arena = PeelArena::for_graph(snap.graph());
        for r in [1usize, 2, 5] {
            let mut em = unbudgeted(&snap, 2, r, Extremum::Min, &mut arena);
            let mut got = Vec::new();
            while let Some(c) = em.next_community(&wg) {
                got.push(c);
            }
            assert_eq!(got, min_topr(&wg, 2, r).unwrap(), "tie graph r={r}");
        }
    }

    #[test]
    fn budgeted_start_completes_or_abandons_whole() {
        use std::time::Duration;
        let wg = figure1();
        let snap = ic_kcore::GraphSnapshot::new(wg.clone());
        let mut arena = PeelArena::for_graph(snap.graph());
        // A generous budget behaves exactly like the unbudgeted start.
        let generous = Arc::new(Budget::within(Duration::from_secs(3600)));
        let mut em = MinMaxEmission::start(&snap, 2, 7, Extremum::Min, &mut arena, Some(&generous))
            .unwrap()
            .expect("generous budget completes the peel");
        let mut got = Vec::new();
        while let Some(c) = em.next_community(&wg) {
            got.push(c);
        }
        assert_eq!(got, min_topr(&wg, 2, 7).unwrap());
        // An already-expired budget abandons the pass: no partial ranking.
        let expired = Arc::new(Budget::within(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(2));
        assert!(expired.check());
        let none =
            MinMaxEmission::start(&snap, 2, 7, Extremum::Max, &mut arena, Some(&expired)).unwrap();
        assert!(none.is_none(), "expired start certifies nothing");
        // The arena is back to unbudgeted use afterwards.
        assert_eq!(
            min_topr_on(&snap, 2, 3, &mut arena).unwrap(),
            min_topr(&wg, 2, 3).unwrap()
        );
    }

    #[test]
    fn emission_on_empty_core_is_empty() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let wg = WeightedGraph::new(g, vec![1.0; 3]).unwrap();
        let snap = ic_kcore::GraphSnapshot::new(wg.clone());
        let mut arena = PeelArena::for_graph(snap.graph());
        let mut em = unbudgeted(&snap, 2, 3, Extremum::Min, &mut arena);
        assert!(em.is_empty());
        assert!(em.next_community(&wg).is_none());
    }

    #[test]
    fn duplicate_weights_are_handled() {
        // Two triangles with identical weights: two distinct communities
        // with equal values.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let wg = WeightedGraph::new(g, vec![3.0; 6]).unwrap();
        let top = min_topr(&wg, 2, 5).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].value, 3.0);
        assert_eq!(top[1].value, 3.0);
        assert!(!top[0].overlaps(&top[1]));
    }
}
