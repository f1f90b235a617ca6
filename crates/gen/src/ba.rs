use crate::stream::{self, StreamSpec};
use crate::GraphSeed;
use ic_graph::Graph;

/// Barabási–Albert preferential attachment.
///
/// Starts from a clique on `m + 1` vertices; every subsequent vertex
/// attaches `m` edges to existing vertices chosen proportionally to their
/// current degree (implemented with the repeated-endpoints list, the
/// standard O(m·n) construction). Produces power-law degree distributions
/// with exponent ≈ 3.
pub fn barabasi_albert(n: usize, m: usize, seed: GraphSeed) -> Graph {
    let spec = StreamSpec::BarabasiAlbert { n, m, seed };
    stream::build_buffered(&spec, n * m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_count_matches_construction() {
        let (n, m) = (500, 3);
        let g = barabasi_albert(n, m, GraphSeed(21));
        let seed_edges = (m + 1) * m / 2;
        assert_eq!(g.num_edges(), seed_edges + (n - m - 1) * m);
        assert_eq!(g.num_vertices(), n);
    }

    #[test]
    fn min_degree_is_m() {
        let g = barabasi_albert(300, 2, GraphSeed(22));
        for v in g.vertices() {
            assert!(g.degree(v) >= 2, "vertex {v} degree {}", g.degree(v));
        }
    }

    #[test]
    fn early_vertices_become_hubs() {
        let g = barabasi_albert(2000, 2, GraphSeed(23));
        let early_avg: f64 = (0..10).map(|v| g.degree(v) as f64).sum::<f64>() / 10.0;
        let late_avg: f64 = (1900..2000).map(|v| g.degree(v) as f64).sum::<f64>() / 100.0;
        assert!(
            early_avg > 4.0 * late_avg,
            "early {early_avg} late {late_avg}"
        );
    }

    #[test]
    fn connected_by_construction() {
        let g = barabasi_albert(200, 1, GraphSeed(24));
        assert!(ic_graph::is_connected(&g));
    }

    #[test]
    fn tiny_n_smaller_than_seed_clique() {
        let g = barabasi_albert(2, 3, GraphSeed(25));
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            barabasi_albert(100, 2, GraphSeed(7)),
            barabasi_albert(100, 2, GraphSeed(7))
        );
    }
}
