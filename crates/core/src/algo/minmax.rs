//! The node-domination aggregations: top-r search under `min` (prior
//! work: Li et al. VLDB'15, Bi et al. VLDB'18) and its mirror image `max`.
//!
//! Under `min`, the k-influential communities are exactly the connected
//! components of the k-core of `G≥θ` (the graph restricted to weights
//! ≥ θ): each such component is maximal with value equal to its minimum
//! member weight. Peeling the global minimum-weight vertex (with degree
//! cascade) from the maximal k-core meets every such community right
//! before its minimum vertex disappears. `max` is symmetric (peel from
//! above).
//!
//! There is one peel: [`peel_timeline`] runs a single stamped pass on a
//! [`PeelArena`] — the k-core is loaded once and every deletion is an
//! O(affected) committed cascade — and records which event removed each
//! vertex. The [`ExtremumIndex`](crate::algo::ExtremumIndex) links those
//! events into its community forest, and every `min`/`max` answer —
//! `Query::solve`, the engine, a persisted store — is a read of that
//! forest.

use crate::Extremum;
use ic_graph::{VertexId, WeightedGraph};
use ic_kcore::{Budget, PeelArena};
use std::cmp::Ordering;
use std::sync::Arc;

/// "No event" in the flat `u32` id arrays: the stamp of a vertex outside
/// the peeled set.
pub(crate) const NONE: u32 = u32::MAX;

/// The peel order as one integer: [`f64::total_cmp`]'s key of the
/// weight (negatives' magnitude bits flipped, then the sign bit, so it
/// orders unsigned), complemented for `max`. With the vertex id after
/// it, ascending keys are [`peel_cmp`]'s order.
pub(crate) fn peel_key(wg: &WeightedGraph, dir: Extremum, v: VertexId) -> u64 {
    let bits = wg.weight(v).to_bits();
    let key = bits ^ ((((bits as i64) >> 63) as u64) >> 1) ^ (1 << 63);
    match dir {
        Extremum::Min => key,
        Extremum::Max => !key,
    }
}

/// The peel order: ascending weight for `min`, descending for `max`;
/// vertex id breaks ties, so the event sequence — and with it every
/// tie-break downstream — is a function of the graph alone.
pub(crate) fn peel_cmp(wg: &WeightedGraph, dir: Extremum, a: VertexId, b: VertexId) -> Ordering {
    (peel_key(wg, dir, a), a).cmp(&(peel_key(wg, dir, b), b))
}

/// The event ranking: value descending, event sequence ascending. The
/// top-r events for any `r` are a prefix of it.
pub(crate) fn rank_cmp(values: &[f64], a: u32, b: u32) -> Ordering {
    values[b as usize]
        .total_cmp(&values[a as usize])
        .then_with(|| a.cmp(&b))
}

/// What one stamped peel pass records. Events are numbered in peel order.
pub(crate) struct PeelTimeline {
    /// Per vertex: the event whose cascade removed it ([`NONE`] outside
    /// the peeled set).
    pub stamp: Vec<u32>,
    /// `stamp` in the arena's local ids — a member's position in peel
    /// order, its row in [`PeelArena::induced`].
    pub local_stamp: Vec<u32>,
    /// Per event: its value, the weight of its extreme vertex.
    pub values: Vec<f64>,
    /// `batch_offsets[e]..batch_offsets[e + 1]` indexes `batch_vertices`
    /// and `batch_local`.
    pub batch_offsets: Vec<u32>,
    /// Concatenated removal batches in cascade order: an event's extreme
    /// vertex, then its cascade victims. The batches partition the
    /// peeled set.
    pub batch_vertices: Vec<VertexId>,
    /// `batch_vertices` in local ids.
    pub batch_local: Vec<u32>,
    /// Every event, sorted by [`rank_cmp`].
    pub ranked: Vec<u32>,
}

/// The min/max peel: sorts `members` (a k-core of `wg`, or a union of
/// whole components of one) into peel order on precomputed
/// [`peel_key`]s, loads them into `arena` in that order and removes each
/// still-live vertex in turn with its degree cascade. The arena keeps
/// the members' induced CSR afterwards.
///
/// With a `budget` the pass runs under a cooperative deadline: it
/// checkpoints between events (and the cascade itself keeps the shared
/// flag fresh). The event ranking is only proven by the *full* peel, so
/// an expired pass certifies nothing and returns `None`; without a
/// budget the result is always `Some`.
pub(crate) fn peel_timeline(
    wg: &WeightedGraph,
    k: usize,
    dir: Extremum,
    members: Vec<VertexId>,
    arena: &mut PeelArena,
    budget: Option<&Arc<Budget>>,
) -> Option<PeelTimeline> {
    let g = wg.graph();
    let mut keyed: Vec<(u64, VertexId)> = members
        .into_iter()
        .map(|v| (peel_key(wg, dir, v), v))
        .collect();
    keyed.sort_unstable();
    let members: Vec<VertexId> = keyed.into_iter().map(|(_, v)| v).collect();

    let mut stamp = vec![NONE; g.num_vertices()];
    let mut local_stamp = vec![NONE; members.len()];
    let mut values: Vec<f64> = Vec::new();
    let mut batch_offsets: Vec<u32> = vec![0];
    let mut batch_vertices: Vec<VertexId> = Vec::with_capacity(members.len());
    let mut batch_local: Vec<u32> = Vec::with_capacity(members.len());
    arena.set_budget(budget.cloned());
    arena.load(g, &members, k);
    for &v in &members {
        if budget.is_some_and(|b| b.poll()) {
            arena.set_budget(None);
            return None;
        }
        // Each visit of a still-live vertex is one event; the community
        // it witnesses is its component right before the removal.
        if arena.is_live(v) {
            let event = values.len() as u32;
            arena.remove_cascade(v);
            for &l in arena.journaled_local() {
                let u = members[l as usize];
                stamp[u as usize] = event;
                local_stamp[l as usize] = event;
                batch_vertices.push(u);
                batch_local.push(l);
            }
            arena.commit();
            values.push(wg.weight(v));
            batch_offsets.push(batch_vertices.len() as u32);
        }
    }
    arena.set_budget(None);

    let mut ranked: Vec<u32> = (0..values.len() as u32).collect();
    ranked.sort_unstable_by(|&a, &b| rank_cmp(&values, a, b));
    Some(PeelTimeline {
        stamp,
        local_stamp,
        values,
        batch_offsets,
        batch_vertices,
        batch_local,
        ranked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{exact_topr, oracle, ExtremumIndex};
    use crate::figure1::{figure1, vs};
    use crate::{Aggregation, Community, Query, SearchError};
    use ic_graph::{graph_from_edges, WeightedGraph};
    use ic_kcore::{kcore_mask, GraphSnapshot};

    type Solved = Result<Vec<Community>, SearchError>;

    fn min_topr(wg: &WeightedGraph, k: usize, r: usize) -> Solved {
        Query::new(k, r, Aggregation::Min).solve(wg)
    }

    fn max_topr(wg: &WeightedGraph, k: usize, r: usize) -> Solved {
        Query::new(k, r, Aggregation::Max).solve(wg)
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
        let wg = figure1();
        let snap = GraphSnapshot::new(wg.clone());
        let mut arena = PeelArena::for_graph(snap.graph());
        let rs = [1usize, 2, 4, 7];
        // A family of rs is served by slicing one read at the largest.
        let longest = |dir| ExtremumIndex::build_on(&snap, 2, dir).topr(&wg, 7).unwrap();
        let (min_all, max_all) = (longest(Extremum::Min), longest(Extremum::Max));
        for &r in &rs {
            let (min_ora, max_ora) = (
                oracle::min_topr(&wg, 2, r).unwrap(),
                oracle::max_topr(&wg, 2, r).unwrap(),
            );
            assert_eq!(min_all[..r.min(min_all.len())], min_ora[..], "min r={r}");
            assert_eq!(max_all[..r.min(max_all.len())], max_ora[..], "max r={r}");
            let min_solo = Query::new(2, r, Aggregation::Min).solve_on(&snap, &mut arena);
            assert_eq!(min_solo.unwrap(), min_ora, "min solo r={r}");
            let max_solo = Query::new(2, r, Aggregation::Max).solve_on(&snap, &mut arena);
            assert_eq!(max_solo.unwrap(), max_ora, "max solo r={r}");
        }
    }

    /// Two triangles with identical weights: events tie on value.
    fn tied_triangles() -> WeightedGraph {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        WeightedGraph::new(g, vec![3.0; 6]).unwrap()
    }

    #[test]
    fn multi_r_handles_ties_exactly_like_single_r() {
        // One cut: every r of a family is a prefix of the longest answer,
        // and each equals the oracle's.
        let wg = tied_triangles();
        let forest = ExtremumIndex::build(&wg, 2, Extremum::Min);
        let longest = forest.topr(&wg, 5).unwrap();
        for r in [1usize, 2, 5] {
            let want = oracle::min_topr(&wg, 2, r).unwrap();
            assert_eq!(forest.topr(&wg, r).unwrap(), want, "r={r}");
            assert_eq!(longest[..r.min(longest.len())], want[..], "r={r}");
        }
    }

    #[test]
    fn budgeted_start_completes_or_abandons_whole() {
        use std::time::Duration;
        let wg = figure1();
        let core = kcore_mask(wg.graph(), 2).to_vec();
        let mut arena = PeelArena::for_graph(wg.graph());
        let unbudgeted = peel_timeline(&wg, 2, Extremum::Min, core.clone(), &mut arena, None)
            .expect("an unbudgeted peel always completes");
        // A generous budget records exactly the unbudgeted timeline.
        let generous = Arc::new(Budget::within(Duration::from_secs(3600)));
        let timeline = peel_timeline(
            &wg,
            2,
            Extremum::Min,
            core.clone(),
            &mut arena,
            Some(&generous),
        )
        .expect("generous budget completes the peel");
        assert_eq!(timeline.stamp, unbudgeted.stamp);
        assert_eq!(timeline.ranked, unbudgeted.ranked);
        // An already-expired budget abandons the pass: no partial ranking.
        let expired = Arc::new(Budget::within(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(2));
        assert!(expired.check());
        let none = peel_timeline(
            &wg,
            2,
            Extremum::Max,
            core.clone(),
            &mut arena,
            Some(&expired),
        );
        assert!(none.is_none(), "expired peel certifies nothing");
        // The arena is back to unbudgeted use afterwards.
        let again = peel_timeline(&wg, 2, Extremum::Min, core, &mut arena, None);
        assert_eq!(again.expect("unbudgeted").stamp, unbudgeted.stamp);
    }

    #[test]
    fn duplicate_weights_are_handled() {
        // Two distinct communities with equal values.
        let wg = tied_triangles();
        let top = min_topr(&wg, 2, 5).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].value, 3.0);
        assert_eq!(top[1].value, 3.0);
        assert!(!top[0].overlaps(&top[1]));
    }
}
