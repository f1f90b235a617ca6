//! Fixtures shared by the property suites under `tests/`: the synthetic
//! workload and the randomized update scripts. Each suite passes the
//! ranges it draws from, so every suite keeps its own cases.

// Every suite compiles its own copy of this module and uses part of it.
#![allow(dead_code)]

use ic_engine::EdgeUpdate;
use ic_gen::{
    barabasi_albert, chung_lu, gnm, pareto_weights, planted_partition, rank_weights,
    uniform_weights, GraphSeed, PlantedPartitionConfig,
};
use ic_graph::{Graph, WeightedGraph};
use proptest::prelude::*;
use std::ops::Range;

/// One synthetic workload: a graph of about `n` vertices from one of
/// `families` (0 ER, 1 Barabási-Albert, 2 Chung-Lu, 3 planted
/// partition), weighted by one of `weight_models` (0 uniform, 1 Pareto,
/// 2 rank permutation, 3 at most five distinct values — value ties on
/// every path, 4 drawn from {1, 2, 3} — ties at every cut), all derived
/// from one drawn seed.
pub fn arb_workload(
    families: Range<u32>,
    weight_models: Range<u32>,
    n: Range<usize>,
) -> impl Strategy<Value = WeightedGraph> {
    (families, weight_models, n, any::<u64>()).prop_map(|(family, weight_model, n, seed)| {
        let g: Graph = match family {
            0 => gnm(n, n * 2, GraphSeed(seed)),
            1 => barabasi_albert(n, 3, GraphSeed(seed)),
            2 => chung_lu(n, n * 2, 2.5, GraphSeed(seed)),
            _ => planted_partition(
                &PlantedPartitionConfig {
                    communities: 4,
                    community_size: (n / 4).max(2),
                    p_in: 0.6,
                    p_out: 0.03,
                },
                GraphSeed(seed),
            ),
        };
        let n = g.num_vertices();
        let w: Vec<f64> = match weight_model {
            0 => uniform_weights(n, 0.5, 50.0, GraphSeed(seed ^ 0xabcd)),
            1 => pareto_weights(n, 1.5, GraphSeed(seed ^ 0xabcd)),
            2 => rank_weights(n, GraphSeed(seed ^ 0xabcd)),
            3 => (0..n).map(|i| ((i * 7 + 3) % 5) as f64 + 1.0).collect(),
            _ => uniform_weights(n, 0.0, 3.0, GraphSeed(seed ^ 0xabcd))
                .into_iter()
                .map(|w| w.floor().min(2.0) + 1.0)
                .collect(),
        };
        WeightedGraph::new(g, w).unwrap()
    })
}

/// A randomized update script of `batches` batches, each of abstract
/// (insert?, u, v) ops folded onto the graph's vertex range at runtime
/// by [`concrete_batch`]. Removes of absent edges and inserts of present
/// ones are in distribution on purpose: no-op batches must neither
/// advance state nor notify anybody.
pub fn arb_script(batches: Range<usize>) -> impl Strategy<Value = Vec<Vec<(bool, u32, u32)>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<bool>(), any::<u32>(), any::<u32>()), 1..8),
        batches,
    )
}

/// Folds one abstract batch onto concrete vertex ids, dropping
/// self-loops (not representable as edges).
pub fn concrete_batch(batch: &[(bool, u32, u32)], n: usize) -> Vec<EdgeUpdate> {
    batch
        .iter()
        .filter_map(|&(insert, a, b)| {
            let u = a % n as u32;
            let v = b % n as u32;
            if u == v {
                return None;
            }
            Some(if insert {
                EdgeUpdate::Insert { u, v }
            } else {
                EdgeUpdate::Remove { u, v }
            })
        })
        .collect()
}
