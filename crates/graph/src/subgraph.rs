use crate::{Graph, GraphBuilder, VertexId};

/// An induced subgraph together with the mapping between its dense local
/// ids and the original graph's vertex ids.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// The subgraph, with vertices relabelled to `0..vertices.len()`.
    pub graph: Graph,
    /// `original[i]` is the original id of local vertex `i` (ascending).
    pub original: Vec<VertexId>,
}

impl InducedSubgraph {
    /// Maps a local vertex id back to the original graph.
    pub fn to_original(&self, local: VertexId) -> VertexId {
        self.original[local as usize]
    }
}

/// Builds the subgraph of `g` induced by `vertices` (need not be sorted;
/// duplicates are ignored). Runs in `O(Σ_{v ∈ H} d(v))` after sorting.
pub fn induce(g: &Graph, vertices: &[VertexId]) -> InducedSubgraph {
    let mut original: Vec<VertexId> = vertices.to_vec();
    original.sort_unstable();
    original.dedup();

    let mut builder = GraphBuilder::new();
    builder.reserve_vertices(original.len());
    for (local_u, &u) in original.iter().enumerate() {
        for &w in g.neighbors(u) {
            if w > u {
                if let Ok(local_w) = original.binary_search(&w) {
                    builder.add_edge(local_u as VertexId, local_w as VertexId);
                }
            }
        }
    }
    InducedSubgraph {
        graph: builder.build(),
        original,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_from_edges;

    #[test]
    fn induce_triangle_from_larger_graph() {
        // Square 0-1-2-3 with diagonal 0-2, plus pendant 4 on 0.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (0, 4)]);
        let sub = induce(&g, &[0, 1, 2]);
        assert_eq!(sub.graph.num_vertices(), 3);
        assert_eq!(sub.graph.num_edges(), 3);
        assert_eq!(sub.original, vec![0, 1, 2]);
        assert!(sub.graph.has_edge(0, 1));
        assert!(sub.graph.has_edge(0, 2));
        assert!(sub.graph.has_edge(1, 2));
    }

    #[test]
    fn induce_remaps_ids() {
        let g = graph_from_edges(6, &[(2, 4), (4, 5), (5, 2)]);
        let sub = induce(&g, &[5, 2, 4]); // unsorted input
        assert_eq!(sub.original, vec![2, 4, 5]);
        assert_eq!(sub.to_original(0), 2);
        assert_eq!(sub.to_original(1), 4);
        assert_eq!(sub.graph.num_edges(), 3);
    }

    #[test]
    fn induce_with_duplicates_and_no_internal_edges() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let sub = induce(&g, &[0, 0, 2]);
        assert_eq!(sub.original, vec![0, 2]);
        assert_eq!(sub.graph.num_edges(), 0);
    }

    #[test]
    fn induce_empty_selection() {
        let g = graph_from_edges(3, &[(0, 1)]);
        let sub = induce(&g, &[]);
        assert_eq!(sub.graph.num_vertices(), 0);
        assert_eq!(sub.graph.num_edges(), 0);
    }
}
