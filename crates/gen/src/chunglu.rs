use crate::stream::{self, StreamSpec};
use crate::GraphSeed;
use ic_graph::Graph;

/// Chung-Lu power-law random graph.
///
/// Vertices get expected-degree weights `w_i ∝ (i + i₀)^(−1/(γ−1))` — the
/// standard construction whose degree distribution follows a power law with
/// exponent `γ` (the paper's Definition 9 assumes `2 < γ < 3` for real
/// networks). `target_m` edge slots are drawn by sampling both endpoints
/// from the weight distribution; self-loops and duplicates are discarded,
/// so the realized edge count is slightly below the target (as in the
/// standard implementation).
///
/// This is the workhorse generating the analogs of the paper's SNAP
/// datasets: it reproduces the heavy-tailed structure that determines
/// k-core sizes, which is what drives every efficiency trend in Figs 2–11.
pub fn chung_lu(n: usize, target_m: usize, gamma: f64, seed: GraphSeed) -> Graph {
    let spec = StreamSpec::ChungLu {
        n,
        target_m,
        gamma,
        seed,
    };
    stream::build_buffered(&spec, target_m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_graph::stats::estimate_power_law_exponent;

    #[test]
    fn respects_vertex_count_and_rough_edge_target() {
        let g = chung_lu(2000, 8000, 2.5, GraphSeed(11));
        assert_eq!(g.num_vertices(), 2000);
        assert!(g.num_edges() <= 8000);
        assert!(
            g.num_edges() > 6000,
            "too many collisions: {}",
            g.num_edges()
        );
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let g = chung_lu(5000, 20000, 2.3, GraphSeed(12));
        // Low-id vertices carry much higher degree than the tail.
        let head_avg: f64 = (0..50).map(|v| g.degree(v) as f64).sum::<f64>() / 50.0;
        let tail_avg: f64 = (4000..4999).map(|v| g.degree(v) as f64).sum::<f64>() / 999.0;
        assert!(
            head_avg > 5.0 * tail_avg.max(0.5),
            "head {head_avg} tail {tail_avg}"
        );
        // Hill estimator lands in the heavy-tailed regime.
        let gamma = estimate_power_law_exponent(&g, 5).unwrap();
        assert!(gamma > 1.5 && gamma < 4.5, "estimated gamma {gamma}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = chung_lu(500, 1500, 2.5, GraphSeed(5));
        let b = chung_lu(500, 1500, 2.5, GraphSeed(5));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_tiny() {
        let g = chung_lu(0, 100, 2.5, GraphSeed(1));
        assert_eq!(g.num_vertices(), 0);
        let g = chung_lu(1, 100, 2.5, GraphSeed(1));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_bad_gamma() {
        chung_lu(10, 10, 0.5, GraphSeed(0));
    }
}
