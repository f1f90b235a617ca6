//! The one weighted-graph generator of the property suites. The suites
//! under `tests/` reach it through `common`; the ic-core suites, which
//! must not link the engine, include this file alone.

// Each suite that includes this file uses part of it.
#![allow(dead_code)]

use ic_gen::{
    barabasi_albert, chung_lu, gnm, pareto_weights, planted_partition, rank_weights,
    uniform_weights, GraphSeed, PlantedPartitionConfig,
};
use ic_graph::{Graph, WeightedGraph};
use proptest::prelude::*;
use std::ops::Range;

/// What kind of graph [`arb_workload`] draws.
#[derive(Clone, Debug)]
pub enum Shape {
    /// About `n` vertices from one of the families in the range: 0 ER,
    /// 1 Barabási-Albert, 2 Chung-Lu, 3 planted partition (four blocks
    /// of `n / 4`).
    Families(Range<u32>),
    /// `n` vertices (n < 14 keeps the exhaustive oracle in reach) and
    /// up to `3n` random edges, so isolated vertices and disconnected
    /// k-cores are in distribution.
    RandomEdges,
    /// Three to six disconnected planted blocks of `n` vertices each:
    /// every query has communities in several blocks, so a sharded
    /// engine fans out.
    Blocks,
}

/// One synthetic workload of `shape` over `n` vertices, weighted by one
/// of `weight_models`, all derived from one drawn seed. The models:
///
/// * 0 uniform on [0.5, 50), 1 Pareto, 2 rank permutation;
/// * 3 at most five distinct values: value ties on every path;
/// * 4 drawn from {1, 2, 3}: ties at every cut;
/// * 5 drawn from {0, 1, 2}: zero weights, so a child can tie its
///   parent (Corollary 2 assumes positive weights: only the TIC and
///   min/max peel suites take it);
/// * 6 pairs one ulp apart: values that differ in the last bit;
/// * 7 around 10¹⁵: sums pass 2⁵³, so the journal fold and the
///   sorted-order sum round differently.
pub fn arb_workload(
    shape: Shape,
    weight_models: Range<u32>,
    n: Range<usize>,
) -> impl Strategy<Value = WeightedGraph> {
    let families = match shape {
        Shape::Families(families) => families,
        Shape::RandomEdges => 4..5,
        Shape::Blocks => 5..6,
    };
    (families, weight_models, n, any::<u64>()).prop_map(|(family, model, n, seed)| {
        let g = graph(family, n, seed);
        let w = weights(model, g.num_vertices(), seed ^ 0xabcd);
        WeightedGraph::new(g, w).unwrap()
    })
}

/// [`arb_workload`] under the positive models, half the draws from
/// {1, 2, 3} so candidates tie at every top-r bar.
pub fn arb_half_tied(shape: Shape, n: Range<usize>) -> impl Strategy<Value = WeightedGraph> {
    prop_oneof![
        arb_workload(shape.clone(), 0..4, n.clone()),
        arb_workload(shape, 4..5, n),
    ]
}

fn graph(family: u32, n: usize, seed: u64) -> Graph {
    let planted = |communities, community_size, p_in, p_out| {
        let config = PlantedPartitionConfig {
            communities,
            community_size,
            p_in,
            p_out,
        };
        planted_partition(&config, GraphSeed(seed))
    };
    match family {
        0 => gnm(n, n * 2, GraphSeed(seed)),
        1 => barabasi_albert(n, 3, GraphSeed(seed)),
        2 => chung_lu(n, n * 2, 2.5, GraphSeed(seed)),
        3 => planted(4, (n / 4).max(2), 0.6, 0.03),
        4 => gnm(n, (seed % (3 * n as u64)) as usize, GraphSeed(seed)),
        _ => planted(3 + (seed % 4) as usize, n, 0.5, 0.0),
    }
}

fn weights(model: u32, n: usize, seed: u64) -> Vec<f64> {
    match model {
        0 => uniform_weights(n, 0.5, 50.0, GraphSeed(seed)),
        1 => pareto_weights(n, 1.5, GraphSeed(seed)),
        2 => rank_weights(n, GraphSeed(seed)),
        3 => (0..n).map(|i| ((i * 7 + 3) % 5) as f64 + 1.0).collect(),
        _ => uniform_weights(n, 0.0, 8.0, GraphSeed(seed))
            .into_iter()
            .map(|u| {
                let draw = u as u64; // uniform on 0..8
                match model {
                    4 => (1 + draw % 3) as f64,
                    5 => (draw % 3) as f64,
                    6 => f64::from_bits((0.1 * (1 + draw % 4) as f64).to_bits() + draw / 4),
                    _ => 1e15 + draw as f64,
                }
            })
            .collect(),
    }
}
