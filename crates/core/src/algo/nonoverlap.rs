//! TONIC: top-r **non-overlapping** k-influential community search
//! (Problem 2 / Definition 5).
//!
//! The paper's approach is greedy peeling: obtain the best community,
//! remove its vertices from the graph, and repeat. Two shortcuts exist:
//!
//! * for size-proportional aggregations (`sum`), the top-r connected
//!   components of the maximal k-core are already disjoint and optimal —
//!   "merely execute Lines 1–3 of Algorithm 2" (Section IV);
//! * for `min`/`max`, re-running the threshold peel after each removal is
//!   exact for the greedy semantics.
//!
//! For the NP-hard cases, [`crate::algo::local_search_nonoverlapping`]
//! applies the same greedy removal inside the local-search heuristic.

use crate::algo::common::{components_as_communities, require_corollary2, validate_k_r};
use crate::algo::oracle::exact_topr;
use crate::algo::ExtremumIndex;
use crate::{Aggregation, Community, Extremum, SearchError};
use ic_graph::{induce, BitSet, WeightedGraph};
use ic_kcore::maximal_kcore_components;

/// Non-overlapping top-r for size-proportional aggregations: the top-r
/// connected components of the maximal k-core (provably optimal, since
/// every community is contained in one component and the component itself
/// has the largest value inside it).
pub fn sum_topr(
    wg: &WeightedGraph,
    k: usize,
    r: usize,
    aggregation: Aggregation,
) -> Result<Vec<Community>, SearchError> {
    validate_k_r(r)?;
    require_corollary2("nonoverlap::sum_topr", aggregation)?;
    let comps = maximal_kcore_components(wg.graph(), k);
    let mut communities = components_as_communities(wg, aggregation, comps);
    communities.sort_by(|a, b| a.ranking_cmp(b));
    communities.truncate(r);
    Ok(communities)
}

/// Non-overlapping top-r under `min`: greedy peel — take the top-1,
/// delete its vertices, recompute.
pub fn min_topr_nonoverlapping(
    wg: &WeightedGraph,
    k: usize,
    r: usize,
) -> Result<Vec<Community>, SearchError> {
    greedy_peel(wg, k, r, |sub, k| {
        let forest = ExtremumIndex::build(sub, k, Extremum::Min);
        forest.topr(sub, 1).map(|mut v| v.pop())
    })
}

/// Non-overlapping top-r via the exhaustive oracle (tiny graphs / tests):
/// greedy peel where each round's top-1 is exact under `aggregation` with
/// optional size bound.
pub fn exact_nonoverlapping(
    wg: &WeightedGraph,
    k: usize,
    r: usize,
    size_bound: Option<usize>,
    aggregation: Aggregation,
) -> Result<Vec<Community>, SearchError> {
    greedy_peel(wg, k, r, move |sub, k| {
        exact_topr(sub, k, 1, size_bound, aggregation).map(|mut v| v.pop())
    })
}

/// Shared greedy-peel loop: repeatedly solve top-1 on the remaining graph
/// (as an induced subgraph with original weights), translate ids back, and
/// delete the winner's vertices.
fn greedy_peel<F>(
    wg: &WeightedGraph,
    k: usize,
    r: usize,
    mut top1: F,
) -> Result<Vec<Community>, SearchError>
where
    F: FnMut(&WeightedGraph, usize) -> Result<Option<Community>, SearchError>,
{
    validate_k_r(r)?;
    let n = wg.num_vertices();
    let mut kept = BitSet::full(n);
    let mut results: Vec<Community> = Vec::new();

    for _ in 0..r {
        let kept_ids: Vec<u32> = kept.to_vec();
        if kept_ids.is_empty() {
            break;
        }
        let sub = induce(wg.graph(), &kept_ids);
        let sub_weights: Vec<f64> = sub.original.iter().map(|&v| wg.weight(v)).collect();
        let sub_wg = WeightedGraph::new(sub.graph.clone(), sub_weights)
            .expect("weights remain valid under induction");
        let Some(local) = top1(&sub_wg, k)? else {
            break;
        };
        let original: Vec<u32> = local
            .vertices
            .iter()
            .map(|&lv| sub.to_original(lv))
            .collect();
        for &v in &original {
            kept.remove(v as usize);
        }
        results.push(Community::new(original, local.value));
    }
    Ok(results)
}

/// Validates that a result set is pairwise disjoint (Definition 5).
pub fn is_nonoverlapping(communities: &[Community]) -> bool {
    for (i, a) in communities.iter().enumerate() {
        for b in communities.iter().skip(i + 1) {
            if a.overlaps(b) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::{figure1, vs};

    #[test]
    fn example2_nonoverlapping_avg_top3() {
        // The paper's Example 2: top-3 non-overlapping avg communities are
        // {v1,v2,v4} (24), {v6,v7,v11} (22), {v3,v9,v10} (38/3).
        let wg = figure1();
        let top = exact_nonoverlapping(&wg, 2, 3, None, Aggregation::Average).unwrap();
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].vertices, vs(&[1, 2, 4]));
        assert_eq!(top[0].value, 24.0);
        assert_eq!(top[1].vertices, vs(&[6, 7, 11]));
        assert_eq!(top[1].value, 22.0);
        assert_eq!(top[2].vertices, vs(&[3, 9, 10]));
        assert!((top[2].value - 38.0 / 3.0).abs() < 1e-9);
        assert!(is_nonoverlapping(&top));
    }

    #[test]
    fn sum_nonoverlap_returns_disjoint_components() {
        let wg = figure1();
        // The 2-core is one component, so only one non-overlapping sum
        // community exists.
        let top = sum_topr(&wg, 2, 3, Aggregation::Sum).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].value, 203.0);
    }

    #[test]
    fn min_nonoverlap_peels_winners() {
        let wg = figure1();
        let top = min_topr_nonoverlapping(&wg, 2, 3).unwrap();
        assert!(is_nonoverlapping(&top));
        assert_eq!(top[0].vertices, vs(&[5, 7, 8]));
        assert_eq!(top[0].value, 12.0);
        assert_eq!(top[1].vertices, vs(&[3, 9, 10]));
        assert_eq!(top[1].value, 8.0);
        // Third round: with {5,7,8} and {3,9,10} gone, the best remaining
        // min community emerges from the leftovers.
        assert!(top.len() >= 2);
    }

    #[test]
    fn overlap_checker() {
        let a = Community::new(vec![1, 2], 0.0);
        let b = Community::new(vec![3, 4], 0.0);
        let c = Community::new(vec![2, 5], 0.0);
        assert!(is_nonoverlapping(&[a.clone(), b.clone()]));
        assert!(!is_nonoverlapping(&[a, b, c]));
    }

    #[test]
    fn rejects_bad_aggregation_for_sum_shortcut() {
        let wg = figure1();
        assert!(sum_topr(&wg, 2, 2, Aggregation::Average).is_err());
    }
}
