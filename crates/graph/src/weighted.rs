use crate::{Graph, GraphError, VertexId};
use ic_mem::SharedSlice;

/// A graph paired with non-negative vertex weights (influence values).
///
/// This is the `G = (V, E, w)` of the paper: `w` assigns every vertex a
/// finite, non-negative influence value (e.g. its PageRank, H-index, or
/// degree — see `ic-centrality`).
///
/// Weights live in a [`SharedSlice`], so they can borrow a store
/// mapping zero-copy. The total weight is computed once at
/// construction (left-to-right over the weight array, the same order
/// every construction path uses) and can be overridden by
/// [`with_total_weight`](Self::with_total_weight) when this graph is a
/// shard of a larger logical graph whose global total the aggregation
/// functions must see.
#[derive(Clone, Debug)]
pub struct WeightedGraph {
    graph: Graph,
    weights: SharedSlice<f64>,
    total: f64,
}

impl WeightedGraph {
    /// Pairs `graph` with `weights`.
    ///
    /// Fails if the lengths disagree or any weight is negative/non-finite
    /// (the paper assumes non-negative influence values; Algorithm 1/2's
    /// pruning rules rely on it).
    pub fn new(graph: Graph, weights: Vec<f64>) -> Result<Self, GraphError> {
        Self::from_shared(graph, weights.into())
    }

    /// [`new`](Self::new) over a shared slice: the zero-copy entry
    /// point for mmap-backed stores. Validation is identical.
    pub fn from_shared(graph: Graph, weights: SharedSlice<f64>) -> Result<Self, GraphError> {
        if weights.len() != graph.num_vertices() {
            return Err(GraphError::WeightLengthMismatch {
                weights: weights.len(),
                num_vertices: graph.num_vertices(),
            });
        }
        for (v, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(GraphError::InvalidWeight {
                    vertex: v as u32,
                    value: w,
                });
            }
        }
        let total = weights.iter().sum();
        Ok(WeightedGraph {
            graph,
            weights,
            total,
        })
    }

    /// `graph` — an edited edge set over the same vertices — with these
    /// weights and this total: the weights are shared, not copied or
    /// re-validated.
    ///
    /// # Panics
    /// Panics when `graph` has a different vertex count.
    pub fn with_graph(&self, graph: Graph) -> WeightedGraph {
        assert_eq!(
            graph.num_vertices(),
            self.num_vertices(),
            "an edited graph keeps its vertex set"
        );
        WeightedGraph {
            graph,
            weights: self.weights.clone(),
            total: self.total,
        }
    }

    /// Assigns every vertex weight 1.0 (useful for size-driven analyses).
    pub fn unit_weights(graph: Graph) -> Self {
        let n = graph.num_vertices();
        WeightedGraph {
            graph,
            weights: vec![1.0; n].into(),
            total: n as f64,
        }
    }

    /// Overrides the reported [`total_weight`](Self::total_weight).
    ///
    /// A shard store holds only its partition's vertices, but
    /// aggregations such as `SumSurplus` evaluate `2·w(H) − w(V)`
    /// against the *logical* graph's total — a sharded engine must
    /// answer bit-identically to an unsharded one, so the shard
    /// carries the global total verbatim (as the exact f64 the
    /// unsharded construction computed). The override must be finite
    /// and non-negative.
    pub fn with_total_weight(mut self, total: f64) -> Result<Self, GraphError> {
        if !total.is_finite() || total < 0.0 {
            return Err(GraphError::InvalidWeight {
                vertex: u32::MAX,
                value: total,
            });
        }
        self.total = total;
        Ok(self)
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The weight (influence value) of vertex `v`.
    #[inline]
    pub fn weight(&self, v: VertexId) -> f64 {
        self.weights[v as usize]
    }

    /// All weights, indexed by vertex id.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// `w(V)`: the total weight of the graph (precomputed; see
    /// [`with_total_weight`](Self::with_total_weight) for the shard
    /// override semantics).
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Number of vertices (convenience passthrough).
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of undirected edges (convenience passthrough).
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_from_edges;

    #[test]
    fn valid_construction() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let wg = WeightedGraph::new(g, vec![1.0, 2.5, 0.0]).unwrap();
        assert_eq!(wg.weight(1), 2.5);
        assert_eq!(wg.total_weight(), 3.5);
    }

    #[test]
    fn length_mismatch_rejected() {
        let g = graph_from_edges(3, &[(0, 1)]);
        let err = WeightedGraph::new(g, vec![1.0]).unwrap_err();
        assert!(matches!(err, GraphError::WeightLengthMismatch { .. }));
    }

    #[test]
    fn negative_weight_rejected() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let err = WeightedGraph::new(g, vec![1.0, -0.5]).unwrap_err();
        assert!(matches!(err, GraphError::InvalidWeight { vertex: 1, .. }));
    }

    #[test]
    fn nan_and_inf_rejected() {
        let g = graph_from_edges(2, &[(0, 1)]);
        assert!(WeightedGraph::new(g.clone(), vec![f64::NAN, 1.0]).is_err());
        assert!(WeightedGraph::new(g, vec![f64::INFINITY, 1.0]).is_err());
    }

    #[test]
    fn unit_weights() {
        let g = graph_from_edges(4, &[(0, 1)]);
        let wg = WeightedGraph::unit_weights(g);
        assert_eq!(wg.total_weight(), 4.0);
    }

    #[test]
    fn total_weight_override() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let wg = WeightedGraph::new(g, vec![1.0, 2.0])
            .unwrap()
            .with_total_weight(40.5)
            .unwrap();
        assert_eq!(wg.total_weight(), 40.5);
        // The per-vertex weights are untouched.
        assert_eq!(wg.weights(), &[1.0, 2.0]);
        assert!(wg.clone().with_total_weight(f64::NAN).is_err());
        assert!(wg.with_total_weight(-1.0).is_err());
    }

    #[test]
    fn precomputed_total_matches_iter_sum() {
        let g = graph_from_edges(5, &[(0, 1), (2, 3)]);
        let weights = vec![0.1, 0.7, 1e-9, 3.75, 2.5];
        let expect: f64 = weights.iter().sum();
        let wg = WeightedGraph::new(g, weights).unwrap();
        assert_eq!(wg.total_weight().to_bits(), expect.to_bits());
    }
}
