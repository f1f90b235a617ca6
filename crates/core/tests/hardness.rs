//! Reduction gadgets from the paper's hardness proofs (Section III).
//!
//! These constructions are executable documentation: the tests apply the
//! exact solver to small gadget instances and confirm the behaviour each
//! theorem relies on.

use ic_core::algo::exact_topr;
use ic_core::figure1::{figure1, vs};
use ic_core::verify::evaluate_community;
use ic_core::Aggregation;
use ic_graph::{graph_from_edges, Graph, GraphBuilder, WeightedGraph};

/// Theorem 1 gadget (NP-hardness of top-r avg search).
///
/// Takes a base graph `G`, gives every base vertex weight 0, and adds a
/// universal vertex `u` (id `n`) with weight `wc` connected to everything.
/// `G` contains a (k−1)-clique **iff** the top-1 k-influential community
/// under `avg` of the gadget has value `wc / (k+1)`: the best community is
/// `u` plus a (k−1)-clique — any extra vertex only grows the denominator.
fn avg_clique_gadget(base: &Graph, wc: f64) -> WeightedGraph {
    let n = base.num_vertices();
    let mut b = GraphBuilder::with_capacity(base.num_edges() + n);
    b.reserve_vertices(n + 1);
    for (x, y) in base.edges() {
        b.add_edge(x, y);
    }
    let u = n as u32;
    for v in 0..n as u32 {
        b.add_edge(u, v);
    }
    let mut w = vec![0.0f64; n + 1];
    w[n] = wc;
    WeightedGraph::new(b.build(), w).expect("gadget weights valid")
}

/// Theorem 3 gadget (no constant-factor approximation for avg).
///
/// Every base vertex gets weight `wc`; a dummy vertex `u` (id `n`) with
/// weight `n·wc` is connected to every base vertex. An α-approximation for
/// top-1 (k+1)-influential avg search on the gadget would yield a
/// (4/α)-approximation for the Minimum Subgraph of Minimum Degree ≥ k
/// problem, which admits none (for k ≥ 3) unless P = NP.
fn msmd_gadget(base: &Graph, wc: f64) -> WeightedGraph {
    let n = base.num_vertices();
    let mut b = GraphBuilder::with_capacity(base.num_edges() + n);
    b.reserve_vertices(n + 1);
    for (x, y) in base.edges() {
        b.add_edge(x, y);
    }
    let u = n as u32;
    for v in 0..n as u32 {
        b.add_edge(u, v);
    }
    let mut w = vec![wc; n + 1];
    w[n] = n as f64 * wc;
    WeightedGraph::new(b.build(), w).expect("gadget weights valid")
}

/// Theorem 4 intuition (size-constrained sum is NP-hard): with `s = k+1`,
/// a size-constrained k-influential community of size `k+1` is exactly a
/// (k+1)-clique — the minimum-degree constraint forces every pair
/// adjacent. This helper checks that fact for a vertex set.
fn is_clique(g: &Graph, vertices: &[u32]) -> bool {
    for (i, &u) in vertices.iter().enumerate() {
        for &v in vertices.iter().skip(i + 1) {
            if !g.has_edge(u, v) {
                return false;
            }
        }
    }
    true
}

/// g(H) from Theorem 2: the avg value when H induces a min-degree ≥ k
/// subgraph, 0 otherwise (the indicator-style objective).
fn g_objective(labels: &[usize], k: usize) -> f64 {
    let wg = figure1();
    let ids = vs(labels);
    if ids.is_empty() {
        return 0.0;
    }
    if !ic_kcore::is_kcore(wg.graph(), &ids, k) {
        return 0.0;
    }
    evaluate_community(&wg, Aggregation::Average, &ids)
}

#[test]
fn theorem2_objective_is_not_monotonic() {
    // Growing a community can increase g ...
    assert_eq!(g_objective(&[5], 2), 0.0);
    assert!(g_objective(&[5, 6, 7], 2) > 0.0);
    // ... and can also decrease it: absorbing the v3/v10 connector
    // dilutes the {v1,v2,v4} triangle.
    let small = g_objective(&[1, 2, 4], 2);
    let large = g_objective(&[1, 2, 3, 4, 10], 2);
    assert!(small > large && large > 0.0, "small {small}, large {large}");
}

#[test]
fn theorem2_objective_is_not_submodular() {
    // Submodularity requires g(A) + g(B) >= g(A∪B) + g(A∩B).
    let a = g_objective(&[5], 2);
    let b = g_objective(&[6, 7], 2);
    let union = g_objective(&[5, 6, 7], 2);
    let inter = 0.0; // empty intersection
    assert!(a + b < union + inter, "{a} + {b} vs {union}");
}

#[test]
fn theorem1_gadget_detects_planted_clique() {
    // Base graph: a triangle (= 3-clique) plus a path. k = 4 on the
    // gadget: the top-1 avg community is u + the 3-clique with value
    // wc / 5 (clique of size k-1 = 3, community size k+1 = 5)...
    // here we use k = 3: community = u + a 2-clique (edge)? Use the
    // paper's statement with k = 3: (k-1)-clique = edge. Stronger: use
    // the triangle with k = 4.
    let base = graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]);
    let wc = 10.0;
    let gadget = avg_clique_gadget(&base, wc);
    // k = 3: every community must contain u (weight wc) because base
    // weights are 0 and u is the only high-degree hub; the smallest
    // 3-core containing u is u + triangle.
    let top = exact_topr(&gadget, 3, 1, None, Aggregation::Average).unwrap();
    assert_eq!(top.len(), 1);
    // u + (k-1)-clique of size 3 => value wc / 4.
    assert!((top[0].value - wc / 4.0).abs() < 1e-9, "{}", top[0].value);
    assert_eq!(top[0].len(), 4);
    assert!(top[0].contains(6)); // the universal vertex
}

#[test]
fn theorem1_gadget_without_clique_scores_lower() {
    // Base is a 4-cycle: no triangle. Best k=3 community must use 4
    // base vertices (value wc/5 < wc/4).
    let base = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let wc = 10.0;
    let gadget = avg_clique_gadget(&base, wc);
    let top = exact_topr(&gadget, 3, 1, None, Aggregation::Average).unwrap();
    assert!((top[0].value - wc / 5.0).abs() < 1e-9);
}

#[test]
fn msmd_gadget_prefers_small_subgraphs() {
    // Base: a triangle and a larger 2-core (4-cycle). k+1 = 3-influential
    // search favors the smallest min-degree-2 subgraph attached to u:
    // value (n·wc + |S|·wc) / (|S|+1) decreases with |S|.
    let base = graph_from_edges(7, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]);
    let gadget = msmd_gadget(&base, 1.0);
    let top = exact_topr(&gadget, 3, 1, None, Aggregation::Average).unwrap();
    // u + triangle: (7 + 3) / 4 = 2.5 beats u + 4-cycle: (7 + 4) / 5 = 2.2.
    assert!((top[0].value - 2.5).abs() < 1e-9, "{}", top[0].value);
    assert_eq!(top[0].len(), 4);
}

#[test]
fn theorem4_size_k_plus_1_communities_are_cliques() {
    let wg = figure1();
    // Every size-(k+1) community at k = 2 must be a triangle.
    let top = exact_topr(&wg, 2, 10, Some(3), Aggregation::Sum).unwrap();
    assert!(!top.is_empty());
    for c in &top {
        assert_eq!(c.len(), 3);
        assert!(is_clique(wg.graph(), &c.vertices));
    }
}

#[test]
fn is_clique_helper() {
    let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]);
    assert!(is_clique(&g, &[0, 1, 2]));
    assert!(!is_clique(&g, &[0, 1, 3]));
    assert!(is_clique(&g, &[0]));
    assert!(is_clique(&g, &[]));
}
