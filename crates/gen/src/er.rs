use crate::GraphSeed;
use ic_graph::{Graph, GraphBuilder};
use rand::{Rng, SeedableRng};

/// Erdős–Rényi `G(n, m)`: `m` distinct uniform random edges.
///
/// Sampling is with rejection of duplicates/self-loops; `m` is capped at
/// `n·(n−1)/2`.
pub fn gnm(n: usize, m: usize, seed: GraphSeed) -> Graph {
    let max_m = n.saturating_mul(n.saturating_sub(1)) / 2;
    let m = m.min(max_m);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed.0);
    let mut b = GraphBuilder::with_capacity(m);
    b.reserve_vertices(n);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    let mut added = 0usize;
    while added < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        let key = if u < v {
            (u as u64) << 32 | v as u64
        } else {
            (v as u64) << 32 | u as u64
        };
        if seen.insert(key) {
            b.add_edge(u, v);
            added += 1;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_has_exact_edge_count() {
        let g = gnm(100, 250, GraphSeed(1));
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 250);
    }

    #[test]
    fn gnm_caps_at_complete_graph() {
        let g = gnm(5, 1000, GraphSeed(2));
        assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(gnm(50, 100, GraphSeed(9)), gnm(50, 100, GraphSeed(9)));
        assert_ne!(gnm(50, 100, GraphSeed(9)), gnm(50, 100, GraphSeed(10)));
    }
}
