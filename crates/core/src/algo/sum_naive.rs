//! Algorithm 1 (`SUM-NAÏVE`): the baseline polynomial-time solver for
//! removal-decreasing aggregations (`sum`, `sum-surplus`).
//!
//! Every retained community is split by deleting each of its vertices in
//! turn; the remains are cascade-peeled back to connected k-cores and the
//! top-r list is updated. Correct because the influence value strictly
//! decreases under vertex removal (Corollary 2), so a community outside
//! the running top-r can never have a top-r descendant. Complexity
//! `O(n · r · (n + m))` in the worst case.
//!
//! The inner loop runs on the zero-rebuild [`PeelArena`]: a community is
//! loaded (degrees computed) once, then each candidate deletion is a
//! journaled cascade + rollback touching only the affected frontier.
//! Children are deduplicated by an order-independent set key straight off
//! the arena's component buffer, so duplicate children (reachable via
//! several deletion orders) cost no allocation at all. The from-scratch
//! formulation is preserved as [`crate::algo::oracle::sum_naive`], which
//! the property tests hold this implementation to.

use crate::algo::common::{
    components_as_communities, expand_children, require_corollary2, validate_k_r, vertex_set_key,
    ExpandScratch, KeepRule, Parent,
};
use crate::{Aggregation, Community, SearchError, TopList};
use ic_graph::{VertexId, WeightedGraph};
use ic_kcore::{GraphSnapshot, PeelArena};
use std::collections::HashSet;

/// Algorithm 1 against a [`GraphSnapshot`]: the k-core components come
/// from the snapshot's memoized level and the peel runs on the caller's
/// (typically pooled) arena. Returns the top-r communities, best first.
///
/// The aggregation must declare the removal-decreasing certificate
/// (Corollary 2: `sum`, `sum-surplus` with α ≥ 0, or any custom
/// function certifying it); others are rejected with
/// [`SearchError::UnsupportedAggregation`]. The per-graph free-function
/// wrapper was removed in PR 4 — this snapshot entry point (and the
/// from-scratch [`crate::algo::oracle::sum_naive`] reference) are the
/// two remaining ways to run Algorithm 1.
pub fn sum_naive_on(
    snap: &GraphSnapshot,
    k: usize,
    r: usize,
    aggregation: Aggregation,
    arena: &mut PeelArena,
) -> Result<Vec<Community>, SearchError> {
    validate_k_r(r)?;
    require_corollary2("sum_naive", aggregation)?;
    let level = snap.level(k);
    Ok(sum_naive_with(
        snap.weighted(),
        level.components.clone(),
        k,
        r,
        aggregation,
        arena,
    ))
}

fn sum_naive_with(
    wg: &WeightedGraph,
    comps: Vec<Vec<VertexId>>,
    k: usize,
    r: usize,
    aggregation: Aggregation,
    arena: &mut PeelArena,
) -> Vec<Community> {
    // Lines 1-2: disjoint connected components of the maximal k-core seed
    // the list and the expansion worklist.
    let mut list = TopList::new(r);
    let mut worklist: Vec<Community> = Vec::new();
    let mut explored: HashSet<u64> = HashSet::new();
    for c in components_as_communities(wg, aggregation, comps) {
        explored.insert(vertex_set_key(&c.vertices));
        if list.insert(c.clone()) {
            worklist.push(c);
        }
    }

    let mut children: Vec<Community> = Vec::new();
    let mut scratch = ExpandScratch::default();
    // Lines 3-10: split every retained community by each of its vertices.
    // A community evicted from the list before its turn cannot spawn a
    // top-r descendant (Corollary 2: children are strictly worse than the
    // parent, which is already beaten by r better communities), so it is
    // skipped without loading.
    while let Some(parent) = worklist.pop() {
        let psig = parent.signature();
        if !list
            .items()
            .iter()
            .any(|c| c.signature() == psig && c.vertices == parent.vertices)
        {
            continue;
        }
        let mut loaded = Parent::new(wg, aggregation, &parent, k);
        for &v in &parent.vertices {
            expand_children(
                arena,
                &mut loaded,
                v,
                KeepRule::ALL,
                &mut explored,
                &mut scratch,
                &mut children,
            );
        }
        for child in children.drain(..) {
            // A child strictly below the r-th value of a full list cannot
            // be retained; skip the insert (and its clone) outright. Ties
            // still go through — the ranking tie-break may prefer them.
            if list.len() == r && child.value < list.threshold() {
                continue;
            }
            if list.insert(child.clone()) {
                worklist.push(child);
            }
        }
    }
    list.into_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::exact_topr;
    use crate::figure1::{figure1, vs};
    use ic_graph::{graph_from_edges, WeightedGraph};

    /// Per-graph test harness around [`sum_naive_on`] (the free-function
    /// entry point was removed in PR 4).
    fn sum_naive(
        wg: &WeightedGraph,
        k: usize,
        r: usize,
        aggregation: Aggregation,
    ) -> Result<Vec<Community>, SearchError> {
        let snap = GraphSnapshot::new(wg.clone());
        let mut arena = PeelArena::for_graph(snap.graph());
        sum_naive_on(&snap, k, r, aggregation, &mut arena)
    }

    #[test]
    fn rejects_unsupported_aggregations() {
        let wg = figure1();
        for agg in [
            Aggregation::Min,
            Aggregation::Max,
            Aggregation::Average,
            Aggregation::WeightDensity { beta: 1.0 },
            Aggregation::BalancedDensity,
            Aggregation::SumSurplus { alpha: -2.0 },
        ] {
            assert!(
                matches!(
                    sum_naive(&wg, 2, 2, agg),
                    Err(SearchError::UnsupportedAggregation { .. })
                ),
                "{} should be rejected",
                agg.name()
            );
        }
    }

    #[test]
    fn rejects_r_zero() {
        let wg = figure1();
        assert!(sum_naive(&wg, 2, 0, Aggregation::Sum).is_err());
    }

    #[test]
    fn figure1_example1_sum_top2() {
        let wg = figure1();
        let top = sum_naive(&wg, 2, 2, Aggregation::Sum).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].vertices, vs(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]));
        assert_eq!(top[0].value, 203.0);
        assert_eq!(top[1].vertices, vs(&[1, 2, 4, 5, 6, 7, 8, 9, 10, 11]));
        assert_eq!(top[1].value, 195.0);
    }

    #[test]
    fn figure1_deeper_r_matches_oracle() {
        let wg = figure1();
        for r in [1, 3, 5, 8] {
            let got = sum_naive(&wg, 2, r, Aggregation::Sum).unwrap();
            let expect = exact_topr(&wg, 2, r, None, Aggregation::Sum).unwrap();
            let got_vals: Vec<f64> = got.iter().map(|c| c.value).collect();
            let expect_vals: Vec<f64> = expect.iter().map(|c| c.value).collect();
            assert_eq!(got_vals, expect_vals, "r = {r}");
        }
    }

    #[test]
    fn matches_from_scratch_oracle() {
        let wg = figure1();
        for r in [1, 2, 4, 6, 9] {
            assert_eq!(
                sum_naive(&wg, 2, r, Aggregation::Sum).unwrap(),
                crate::algo::oracle::sum_naive(&wg, 2, r, Aggregation::Sum).unwrap(),
                "r = {r}"
            );
        }
    }

    #[test]
    fn empty_kcore_returns_empty() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2)]);
        let wg = WeightedGraph::new(g, vec![1.0; 4]).unwrap();
        let top = sum_naive(&wg, 2, 3, Aggregation::Sum).unwrap();
        assert!(top.is_empty());
    }

    #[test]
    fn disjoint_components_rank_independently() {
        // Two triangles with different totals.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let wg = WeightedGraph::new(g, vec![1.0, 1.0, 1.0, 5.0, 5.0, 5.0]).unwrap();
        let top = sum_naive(&wg, 2, 2, Aggregation::Sum).unwrap();
        assert_eq!(top[0].vertices, vec![3, 4, 5]);
        assert_eq!(top[0].value, 15.0);
        assert_eq!(top[1].vertices, vec![0, 1, 2]);
        assert_eq!(top[1].value, 3.0);
    }

    #[test]
    fn sum_surplus_is_supported() {
        let wg = figure1();
        let agg = Aggregation::SumSurplus { alpha: 1.0 };
        let top = sum_naive(&wg, 2, 2, agg).unwrap();
        // Whole graph: 203 + 11; minus v3: 195 + 10.
        assert_eq!(top[0].value, 214.0);
        assert_eq!(top[1].value, 205.0);
    }

    #[test]
    fn snapshot_path_is_bit_identical() {
        let wg = figure1();
        let snap = GraphSnapshot::new(wg.clone());
        let mut arena = PeelArena::for_graph(snap.graph());
        for r in [1, 2, 5, 9] {
            assert_eq!(
                sum_naive_on(&snap, 2, r, Aggregation::Sum, &mut arena).unwrap(),
                sum_naive(&wg, 2, r, Aggregation::Sum).unwrap(),
                "r = {r}"
            );
        }
    }

    #[test]
    fn r_larger_than_community_count() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let wg = WeightedGraph::new(g, vec![1.0, 2.0, 3.0]).unwrap();
        let top = sum_naive(&wg, 2, 10, Aggregation::Sum).unwrap();
        // Only the triangle exists (removing any vertex kills the 2-core).
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].value, 6.0);
    }
}
