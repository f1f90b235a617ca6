//! Exact solvers (Algorithm 3 and the exhaustive oracle), served to
//! callers as [`crate::algo::oracle::exact_topr`],
//! [`crate::algo::oracle::exact_naive`] and
//! [`crate::algo::oracle::all_communities`]: no [`crate::Query`] routes
//! to them.
//!
//! Both are exponential and intended for tiny graphs: Algorithm 3's
//! complexity is `O(Σ_{i=k+1}^{s} C(n,i) · (n+m))` (the paper presents it
//! only to motivate the heuristics). [`exact_topr`] improves on it by
//! enumerating *connected induced subgraphs* only (polynomial delay per
//! subgraph) and additionally enforces the maximality constraint of
//! Definition 3, making it the ground-truth oracle for the test suite.

use crate::algo::{common::validate_k_r, community_from_vertices};
use crate::{Aggregation, Community, SearchError, TopList};
use ic_graph::{BitSet, VertexId, WeightedGraph};

/// All maximal k-influential communities (Definition 3) of the graph,
/// sorted best-first. Exponential; intended for tiny graphs and tests.
pub fn all_communities(wg: &WeightedGraph, k: usize, aggregation: Aggregation) -> Vec<Community> {
    let n = wg.num_vertices();
    let mut candidates: Vec<Vec<VertexId>> = Vec::new();
    connected_kcore_subsets(wg, k, n.max(1), &mut |set| candidates.push(set.to_vec()));
    let mut communities = keep_maximal(wg, aggregation, candidates);
    communities.sort_by(|a, b| a.ranking_cmp(b));
    communities
}

/// Exhaustive top-r solver: enumerates every connected subgraph with
/// minimum internal degree ≥ `k`, applies the maximality constraint of
/// Definition 3 (no strict superset with equal value), filters by the
/// optional size bound `s` (Definition 4), and returns the best `r`.
pub fn exact_topr(
    wg: &WeightedGraph,
    k: usize,
    r: usize,
    size_bound: Option<usize>,
    aggregation: Aggregation,
) -> Result<Vec<Community>, SearchError> {
    validate_k_r(r)?;
    if let Some(s) = size_bound {
        if s <= k {
            return Err(SearchError::InvalidParams(format!(
                "size bound s = {s} must exceed k = {k} (a k-core needs k+1 vertices)"
            )));
        }
    }
    // Maximality (Definition 3) compares against supersets of *any* size,
    // so enumerate without the size cap and filter afterwards.
    let mut communities = all_communities(wg, k, aggregation);
    if let Some(s) = size_bound {
        communities.retain(|c| c.len() <= s);
    }
    communities.truncate(r);
    Ok(communities)
}

/// Algorithm 3 verbatim (`TIC-EXACT`): enumerates **all** vertex subsets of
/// size `k+1 ..= s`, keeps those inducing a connected k-core, and returns
/// the top-r. Note the paper's pseudocode applies no maximality filter;
/// this function is faithful to it (use [`exact_topr`] for the
/// Definition-3-faithful oracle). Exponential in `s`.
pub fn exact_naive(
    wg: &WeightedGraph,
    k: usize,
    r: usize,
    s: usize,
    aggregation: Aggregation,
) -> Result<Vec<Community>, SearchError> {
    validate_k_r(r)?;
    if s <= k {
        return Err(SearchError::InvalidParams(format!(
            "size bound s = {s} must exceed k = {k}"
        )));
    }
    let n = wg.num_vertices();
    let g = wg.graph();
    // Bounded list + reusable mask: candidates that cannot beat the
    // running r-th value are evaluated without materializing a community
    // (no per-candidate `to_vec`).
    let mut list = TopList::new(r);
    let mut subset: Vec<VertexId> = Vec::new();
    let mut mask = BitSet::new(n);
    let mut weight_buf: Vec<f64> = Vec::with_capacity(s.min(n));

    // Enumerate combinations of each size i = k+1 ..= min(s, n).
    fn combinations<F: FnMut(&[VertexId])>(
        n: usize,
        size: usize,
        start: usize,
        subset: &mut Vec<VertexId>,
        f: &mut F,
    ) {
        if subset.len() == size {
            f(subset);
            return;
        }
        let remaining = size - subset.len();
        for v in start..=(n.saturating_sub(remaining)) {
            subset.push(v as VertexId);
            combinations(n, size, v + 1, subset, f);
            subset.pop();
        }
    }

    for i in (k + 1)..=s.min(n) {
        combinations(n, i, 0, &mut subset, &mut |cand: &[VertexId]| {
            mask.clear();
            cand.iter().for_each(|&v| mask.insert(v as usize));
            if !ic_kcore::is_kcore_within(g, &mask, k) || !ic_graph::is_connected_within(g, &mask) {
                return;
            }
            weight_buf.clear();
            weight_buf.extend(cand.iter().map(|&v| wg.weight(v)));
            let value = aggregation.evaluate(&weight_buf, wg.total_weight());
            // Strictly below the r-th best: cannot be retained, skip the
            // allocation entirely (ties still go through — the ranking
            // tie-break may prefer them).
            if list.len() == r && value < list.threshold() {
                return;
            }
            list.insert(Community::new(cand.to_vec(), value));
        });
    }
    Ok(list.into_vec())
}

/// Enumerates every connected induced subgraph (vertex set) of size
/// ≤ `max_size` whose minimum internal degree is ≥ `k`, passing each as a
/// sorted slice to `emit` (valid only for the duration of the call).
///
/// Connected subsets are generated exactly once with the classic
/// fixed-root scheme: for each root `v` (the minimum vertex of the
/// subset), extend with neighbors `> v`, branching on include/exclude.
/// The enumeration loop itself is allocation-free: the emitted slice
/// lives in a reused sort buffer, and the per-depth extension lists come
/// from a recycled pool instead of fresh `Vec`s per branch.
fn connected_kcore_subsets(
    wg: &WeightedGraph,
    k: usize,
    max_size: usize,
    emit: &mut dyn FnMut(&[VertexId]),
) {
    let g = wg.graph();
    let n = g.num_vertices();

    /// Reusable state threaded through the recursion.
    struct Enum<'a> {
        g: &'a ic_graph::Graph,
        k: usize,
        max_size: usize,
        in_set: Vec<bool>,
        banned: Vec<bool>,
        in_ext: Vec<bool>,
        set: Vec<VertexId>,
        sort_buf: Vec<VertexId>,
        /// Depth-indexed pools for the extension and ban-restore lists.
        ext_pool: Vec<Vec<VertexId>>,
        ban_pool: Vec<Vec<VertexId>>,
    }

    impl Enum<'_> {
        fn extend(&mut self, root: VertexId, depth: usize, emit: &mut dyn FnMut(&[VertexId])) {
            // Emit the current set if it satisfies the degree constraint.
            if self.set.len() > self.k {
                let ok = self.set.iter().all(|&v| {
                    self.g
                        .neighbors(v)
                        .iter()
                        .filter(|&&u| self.in_set[u as usize])
                        .count()
                        >= self.k
                });
                if ok {
                    self.sort_buf.clear();
                    self.sort_buf.extend_from_slice(&self.set);
                    self.sort_buf.sort_unstable();
                    emit(&self.sort_buf);
                }
            }
            if self.set.len() == self.max_size {
                return;
            }
            let ext = std::mem::take(&mut self.ext_pool[depth]);
            let mut newly_banned = std::mem::take(&mut self.ban_pool[depth]);
            newly_banned.clear();
            for (i, &u) in ext.iter().enumerate() {
                if self.banned[u as usize] {
                    continue;
                }
                // Include branch.
                self.set.push(u);
                self.in_set[u as usize] = true;
                // New extension: the remaining candidates plus u's unseen
                // neighbors greater than the root.
                let mut next_ext = std::mem::take(&mut self.ext_pool[depth + 1]);
                next_ext.clear();
                for &w in &ext[i + 1..] {
                    if !self.banned[w as usize] {
                        next_ext.push(w);
                    }
                }
                for &w in &next_ext {
                    self.in_ext[w as usize] = true;
                }
                let inherited = next_ext.len();
                for &w in self.g.neighbors(u) {
                    if w > root
                        && !self.in_set[w as usize]
                        && !self.banned[w as usize]
                        && !self.in_ext[w as usize]
                    {
                        next_ext.push(w);
                        self.in_ext[w as usize] = true;
                    }
                }
                for &w in &next_ext {
                    self.in_ext[w as usize] = false;
                }
                debug_assert!(inherited <= next_ext.len());
                self.ext_pool[depth + 1] = next_ext;
                self.extend(root, depth + 1, emit);
                self.set.pop();
                self.in_set[u as usize] = false;
                // Exclude branch: ban u for the rest of this subtree.
                self.banned[u as usize] = true;
                newly_banned.push(u);
            }
            for &u in &newly_banned {
                self.banned[u as usize] = false;
            }
            self.ban_pool[depth] = newly_banned;
            self.ext_pool[depth] = ext;
        }
    }

    let mut state = Enum {
        g,
        k,
        max_size,
        in_set: vec![false; n],
        banned: vec![false; n],
        in_ext: vec![false; n],
        set: Vec::with_capacity(max_size),
        sort_buf: Vec::with_capacity(max_size),
        ext_pool: vec![Vec::new(); max_size + 2],
        ban_pool: vec![Vec::new(); max_size + 2],
    };

    for root in 0..n as VertexId {
        state.set.push(root);
        state.in_set[root as usize] = true;
        let mut ext = std::mem::take(&mut state.ext_pool[0]);
        ext.clear();
        ext.extend(g.neighbors(root).iter().copied().filter(|&u| u > root));
        state.ext_pool[0] = ext;
        state.extend(root, 0, emit);
        state.set.pop();
        state.in_set[root as usize] = false;
    }
}

/// Filters candidates down to the maximal ones (Definition 3, item 3): a
/// candidate is dropped iff a strict superset with the *same* influence
/// value exists among the candidates.
fn keep_maximal(
    wg: &WeightedGraph,
    aggregation: Aggregation,
    candidates: Vec<Vec<VertexId>>,
) -> Vec<Community> {
    let mut communities: Vec<Community> = candidates
        .into_iter()
        .map(|c| community_from_vertices(wg, aggregation, c))
        .collect();
    // Group by exact value; only equal values can violate maximality.
    communities.sort_by(|a, b| {
        a.value
            .total_cmp(&b.value)
            .then_with(|| a.vertices.len().cmp(&b.vertices.len()))
    });
    let mut keep = vec![true; communities.len()];
    let mut i = 0;
    while i < communities.len() {
        let mut j = i;
        while j < communities.len() && communities[j].value == communities[i].value {
            j += 1;
        }
        // Within the tie group [i, j): drop sets strictly contained in
        // another (groups are sorted by size, so only later sets can be
        // supersets).
        for a in i..j {
            for b in (a + 1)..j {
                if communities[b].len() > communities[a].len()
                    && is_subset(&communities[a].vertices, &communities[b].vertices)
                {
                    keep[a] = false;
                    break;
                }
            }
        }
        i = j;
    }
    communities
        .into_iter()
        .zip(keep)
        .filter_map(|(c, k)| k.then_some(c))
        .collect()
}

fn is_subset(a: &[VertexId], b: &[VertexId]) -> bool {
    // Both sorted; classic merge scan.
    let mut bi = 0;
    for &x in a {
        while bi < b.len() && b[bi] < x {
            bi += 1;
        }
        if bi == b.len() || b[bi] != x {
            return false;
        }
        bi += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::{figure1, vs};
    use ic_graph::{graph_from_edges, WeightedGraph};

    fn small_two_triangles() -> WeightedGraph {
        // Triangles {0,1,2} (weights 1,2,3) and {3,4,5} (weights 10,20,30).
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        WeightedGraph::new(g, vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0]).unwrap()
    }

    #[test]
    fn sum_topr_on_two_triangles() {
        let wg = small_two_triangles();
        let top = exact_topr(&wg, 2, 2, None, Aggregation::Sum).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].vertices, vec![3, 4, 5]);
        assert_eq!(top[0].value, 60.0);
        assert_eq!(top[1].vertices, vec![0, 1, 2]);
        assert_eq!(top[1].value, 6.0);
    }

    #[test]
    fn min_maximality_is_enforced() {
        // Path-connected 2-core: 4-cycle with weights 5,5,5,1. Under min,
        // {all} has value 1; the cycle minus the weight-1 vertex is NOT a
        // 2-core, so the only community is the full cycle.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let wg = WeightedGraph::new(g, vec![5.0, 5.0, 5.0, 1.0]).unwrap();
        let all = all_communities(&wg, 2, Aggregation::Min);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].vertices, vec![0, 1, 2, 3]);
        assert_eq!(all[0].value, 1.0);
    }

    #[test]
    fn min_nested_communities_are_distinct() {
        // K4 with weights 1,2,3,4 plus pendant triangle is overkill; use
        // K4: under min, communities are G≥θ 2-cores: {all} (min 1) and
        // {1,2,3} (min 2). {2,3} is not a 2-core.
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let wg = WeightedGraph::new(g, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let all = all_communities(&wg, 2, Aggregation::Min);
        let sets: Vec<Vec<u32>> = all.iter().map(|c| c.vertices.clone()).collect();
        assert!(sets.contains(&vec![0, 1, 2, 3]));
        assert!(sets.contains(&vec![1, 2, 3]));
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].value, 2.0); // top-1 is the inner community
    }

    #[test]
    fn figure1_sum_top2_matches_example1() {
        let wg = figure1();
        let top = exact_topr(&wg, 2, 2, None, Aggregation::Sum).unwrap();
        assert_eq!(top[0].vertices, vs(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]));
        assert_eq!(top[0].value, 203.0);
        assert_eq!(top[1].vertices, vs(&[1, 2, 4, 5, 6, 7, 8, 9, 10, 11]));
        assert_eq!(top[1].value, 195.0);
    }

    #[test]
    fn figure1_avg_top2_matches_example1() {
        let wg = figure1();
        let top = exact_topr(&wg, 2, 2, None, Aggregation::Average).unwrap();
        assert_eq!(top[0].vertices, vs(&[1, 2, 4]));
        assert_eq!(top[0].value, 24.0);
        assert_eq!(top[1].vertices, vs(&[6, 7, 11]));
        assert_eq!(top[1].value, 22.0);
    }

    #[test]
    fn figure1_min_top2_matches_example1() {
        let wg = figure1();
        let top = exact_topr(&wg, 2, 2, None, Aggregation::Min).unwrap();
        assert_eq!(top[0].vertices, vs(&[5, 7, 8]));
        assert_eq!(top[0].value, 12.0);
        assert_eq!(top[1].vertices, vs(&[3, 9, 10]));
        assert_eq!(top[1].value, 8.0);
    }

    #[test]
    fn figure1_size4_sum_includes_example_community() {
        let wg = figure1();
        let top = exact_topr(&wg, 2, 20, Some(4), Aggregation::Sum).unwrap();
        let found = top
            .iter()
            .find(|c| c.vertices == vs(&[3, 6, 9, 10]))
            .expect("the Example 1 size-constrained community");
        assert_eq!(found.value, 40.0);
        for c in &top {
            assert!(c.len() <= 4);
        }
    }

    #[test]
    fn exact_naive_agrees_with_oracle_for_sum() {
        // With sum and positive weights, maximality is vacuous, so
        // Algorithm 3 and the oracle agree on any size-bounded query.
        // At s = 6 the two triangles together are a disconnected 2-core.
        let wg = small_two_triangles();
        for s in [3, 6] {
            let naive = exact_naive(&wg, 2, 5, s, Aggregation::Sum).unwrap();
            let oracle = exact_topr(&wg, 2, 5, Some(s), Aggregation::Sum).unwrap();
            assert_eq!(naive, oracle, "s = {s}");
        }
    }

    #[test]
    fn parameter_validation() {
        let wg = small_two_triangles();
        assert!(exact_topr(&wg, 2, 0, None, Aggregation::Sum).is_err());
        assert!(exact_topr(&wg, 2, 1, Some(2), Aggregation::Sum).is_err());
        assert!(exact_naive(&wg, 2, 1, 2, Aggregation::Sum).is_err());
    }

    fn collect_subsets(wg: &WeightedGraph, k: usize, max_size: usize) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        connected_kcore_subsets(wg, k, max_size, &mut |s| out.push(s.to_vec()));
        out
    }

    #[test]
    fn enumeration_counts_connected_kcores() {
        // Triangle: connected subsets with min degree >= 2 of size > 2:
        // just the triangle itself.
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let wg = WeightedGraph::new(g, vec![1.0; 3]).unwrap();
        let subs = collect_subsets(&wg, 2, 3);
        assert_eq!(subs, vec![vec![0, 1, 2]]);
        // k = 1: pairs and the triangle (and size-2 paths):
        // {0,1},{0,2},{1,2},{0,1,2}.
        let subs = collect_subsets(&wg, 1, 3);
        assert_eq!(subs.len(), 4);
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let wg = WeightedGraph::new(g, vec![1.0; 5]).unwrap();
        let subs = collect_subsets(&wg, 0, 5);
        let mut seen = std::collections::HashSet::new();
        for s in &subs {
            assert!(seen.insert(s.clone()), "duplicate {s:?}");
        }
    }

    #[test]
    fn subset_helper() {
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(is_subset(&[], &[1]));
        assert!(!is_subset(&[1], &[]));
    }
}
