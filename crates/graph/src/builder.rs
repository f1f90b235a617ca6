use crate::{Graph, VertexId};

/// Incremental builder producing a canonical [`Graph`].
///
/// The builder accepts edges in any order, with duplicates, self-loops, and
/// both orientations; [`GraphBuilder::build`] removes self-loops,
/// deduplicates, sorts adjacency lists, and sizes the graph to the largest
/// vertex id mentioned (or to an explicit lower bound set with
/// [`GraphBuilder::reserve_vertices`]).
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    min_vertices: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder expecting roughly `edges` edges.
    pub fn with_capacity(edges: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(edges),
            min_vertices: 0,
        }
    }

    /// Ensures the built graph has at least `n` vertices even if some ids
    /// never appear in an edge (they become isolated vertices).
    pub fn reserve_vertices(&mut self, n: usize) -> &mut Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Records the undirected edge `{u, v}`. Self-loops and duplicates are
    /// accepted here and dropped by [`GraphBuilder::build`].
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.edges.push((u, v));
        self
    }

    /// Records many edges at once.
    pub fn extend_edges<I: IntoIterator<Item = (VertexId, VertexId)>>(
        &mut self,
        iter: I,
    ) -> &mut Self {
        self.edges.extend(iter);
        self
    }

    /// Finalizes into a canonical [`Graph`].
    pub fn build(&self) -> Graph {
        // Canonicalize: drop loops, orient u < v, sort, dedup.
        let mut canon: Vec<(VertexId, VertexId)> = self
            .edges
            .iter()
            .filter(|&&(u, v)| u != v)
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        canon.sort_unstable();
        canon.dedup();

        let max_id = canon
            .iter()
            .map(|&(_, v)| v as usize + 1)
            .max()
            .unwrap_or(0);
        let n = max_id.max(self.min_vertices);

        // Counting pass for CSR offsets.
        let mut degree = vec![0usize; n];
        for &(u, v) in &canon {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }

        // Fill pass.
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as VertexId; acc];
        for &(u, v) in &canon {
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Adjacency lists are already sorted: canon is sorted by (u, v), so
        // the forward fills for each u are increasing in v; backward fills
        // for each v are increasing in u as well because canon is sorted
        // lexicographically... but interleaving forward/backward fills can
        // break ordering, so sort each list (cheap, lists are short on
        // average and often nearly sorted).
        for v in 0..n {
            targets[offsets[v]..offsets[v + 1]].sort_unstable();
        }

        Graph::from_csr(offsets, targets)
    }
}

/// Builds a graph from an edge slice in one call.
pub fn graph_from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Graph {
    let mut b = GraphBuilder::with_capacity(edges.len());
    b.reserve_vertices(n);
    b.extend_edges(edges.iter().copied());
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_loop_removal() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 0); // duplicate, reversed
        b.add_edge(0, 1); // duplicate, same
        b.add_edge(2, 2); // self loop
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(!g.has_edge(2, 2));
    }

    #[test]
    fn adjacency_is_sorted() {
        let mut b = GraphBuilder::new();
        for v in [5u32, 3, 9, 1, 7] {
            b.add_edge(0, v);
        }
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 3, 5, 7, 9]);
    }

    #[test]
    fn reserve_vertices_adds_isolated() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.reserve_vertices(10);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn reserve_smaller_than_max_id_is_ignored() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 7);
        b.reserve_vertices(3);
        let g = b.build();
        assert_eq!(g.num_vertices(), 8);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn only_self_loops_yields_isolated_vertices() {
        let mut b = GraphBuilder::new();
        b.add_edge(3, 3);
        b.reserve_vertices(4);
        let g = b.build();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn graph_from_edges_helper() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2)]);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 2);
    }
}
