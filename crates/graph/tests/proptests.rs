//! Property-based tests for the graph substrate.

use ic_graph::{connected_components, graph_from_edges, induce, io, BitSet, Graph, UnionFind};
use proptest::prelude::*;

/// Strategy: a random edge set over up to `n` vertices (may contain
/// duplicates and self-loops; the builder must canonicalize them).
fn arb_edges(max_n: u32, max_m: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edge = (0..n, 0..n);
        (Just(n), proptest::collection::vec(edge, 0..max_m))
    })
}

fn build(n: u32, edges: &[(u32, u32)]) -> Graph {
    graph_from_edges(n as usize, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_canonicalizes((n, edges) in arb_edges(60, 200)) {
        let g = build(n, &edges);
        prop_assert_eq!(g.num_vertices(), n as usize);
        // No self loops, sorted dedup adjacency, symmetry.
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "unsorted/dup adjacency");
            prop_assert!(!nbrs.contains(&v), "self loop survived");
            for &u in nbrs {
                prop_assert!(g.neighbors(u).contains(&v), "asymmetric edge");
            }
        }
        // Degree sum = 2m.
        let dsum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(dsum, 2 * g.num_edges());
    }

    #[test]
    fn csr_parts_round_trip((n, edges) in arb_edges(50, 150)) {
        // The raw-CSR adoption path `ic-store` loads through must accept
        // exactly what `csr_parts` exports, for any builder-made graph.
        let g = build(n, &edges);
        let (offsets, targets) = g.csr_parts();
        let g2 = Graph::from_csr_checked(offsets.to_vec(), targets.to_vec()).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn text_round_trip((n, edges) in arb_edges(40, 120)) {
        let g = build(n, &edges);
        let mut out = Vec::new();
        io::write_edge_list(&g, &mut out).unwrap();
        let g2 = io::read_edge_list(&out[..]).unwrap();
        // Text format drops trailing isolated vertices; compare edges and
        // adjacency only over the mentioned prefix.
        prop_assert_eq!(
            g.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn components_match_union_find((n, edges) in arb_edges(60, 200)) {
        let g = build(n, &edges);
        let cc = connected_components(&g);
        let mut uf = UnionFind::new(n as usize);
        for (u, v) in g.edges() {
            uf.union(u, v);
        }
        prop_assert_eq!(cc.count, uf.num_components());
        for u in 0..n {
            for v in (u + 1)..n {
                prop_assert_eq!(
                    cc.labels[u as usize] == cc.labels[v as usize],
                    uf.connected(u, v)
                );
            }
        }
    }

    #[test]
    fn induced_subgraph_is_faithful((n, edges) in arb_edges(40, 150), pick in proptest::collection::vec(any::<bool>(), 40)) {
        let g = build(n, &edges);
        let selection: Vec<u32> = (0..n)
            .filter(|&v| pick.get(v as usize).copied().unwrap_or(false))
            .collect();
        let sub = induce(&g, &selection);
        prop_assert_eq!(sub.graph.num_vertices(), selection.len());
        // Every edge in the subgraph corresponds to an original edge, and
        // every original edge between selected vertices is present.
        for (lu, lv) in sub.graph.edges() {
            prop_assert!(g.has_edge(sub.to_original(lu), sub.to_original(lv)));
        }
        // `selection` is ascending, so local ids are its positions.
        for (lu, &u) in selection.iter().enumerate() {
            for (lv, &v) in selection.iter().enumerate().skip(lu + 1) {
                if g.has_edge(u, v) {
                    prop_assert!(sub.graph.has_edge(lu as u32, lv as u32));
                }
            }
        }
    }

    #[test]
    fn bitset_ops_match_reference(bits in proptest::collection::vec(0usize..300, 0..100),
                                  other in proptest::collection::vec(0usize..300, 0..100)) {
        use std::collections::BTreeSet;
        let mut a = BitSet::new(300);
        let mut b = BitSet::new(300);
        let sa: BTreeSet<usize> = bits.iter().copied().collect();
        let sb: BTreeSet<usize> = other.iter().copied().collect();
        for &i in &sa { a.insert(i); }
        for &i in &sb { b.insert(i); }
        prop_assert_eq!(a.count(), sa.len());
        prop_assert_eq!(a.iter().collect::<Vec<_>>(), sa.iter().copied().collect::<Vec<_>>());
    }
}
