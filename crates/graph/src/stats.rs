//! Summary statistics used to report dataset tables (Table III of the
//! paper: `n`, `m`, `dmax`, `davg`, plus degree distribution helpers).

use crate::Graph;

/// Basic statistics of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of undirected edges.
    pub num_edges: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Average degree `2m/n`.
    pub avg_degree: f64,
}

/// Computes the statistics reported in the paper's dataset table.
pub fn graph_stats(g: &Graph) -> GraphStats {
    GraphStats {
        num_vertices: g.num_vertices(),
        num_edges: g.num_edges(),
        max_degree: g.max_degree(),
        avg_degree: g.avg_degree(),
    }
}

/// Estimates the power-law exponent `γ` of the degree distribution via the
/// Hill maximum-likelihood estimator over degrees `>= d_min`:
/// `γ = 1 + n' / Σ ln(d_i / (d_min - 0.5))`.
///
/// Returns `None` when fewer than two vertices have degree `>= d_min`.
/// This is used by generator tests to confirm that synthetic analogs are in
/// the heavy-tailed regime the paper's datasets live in (`2 < γ < 3`,
/// Definition 9).
pub fn estimate_power_law_exponent(g: &Graph, d_min: usize) -> Option<f64> {
    let d_min = d_min.max(1);
    let mut count = 0usize;
    let mut log_sum = 0.0f64;
    for v in g.vertices() {
        let d = g.degree(v);
        if d >= d_min {
            count += 1;
            log_sum += (d as f64 / (d_min as f64 - 0.5)).ln();
        }
    }
    if count < 2 || log_sum <= 0.0 {
        None
    } else {
        Some(1.0 + count as f64 / log_sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_from_edges;

    #[test]
    fn stats_of_small_graph() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let s = graph_stats(&g);
        assert_eq!(s.num_vertices, 4);
        assert_eq!(s.num_edges, 4);
        assert_eq!(s.max_degree, 3);
        assert!((s.avg_degree - 2.0).abs() < 1e-12);
    }

    #[test]
    fn power_law_estimator_smoke() {
        // A star is extremely skewed; the estimator should at least return
        // something finite for d_min = 1.
        let edges: Vec<(u32, u32)> = (1..50).map(|v| (0u32, v)).collect();
        let g = graph_from_edges(50, &edges);
        let gamma = estimate_power_law_exponent(&g, 1).unwrap();
        assert!(gamma.is_finite());
        // Degenerate cases return None.
        assert!(estimate_power_law_exponent(&Graph::empty(3), 1).is_none());
    }
}
