//! Generated inputs and their fingerprints. `ic-gen` is used for graphs
//! only; generation is the benchmark's own cost and is excluded from
//! every metric, `setup_s` included.

use crate::spec::GraphPrint;
use ic_gen::datasets::{by_name, Profile};
use ic_gen::{pareto_weights, stream_graph, GraphSeed, StreamSpec};
use ic_graph::WeightedGraph;

/// Vertices of the `cold_open` graph. README.md ("Sizing") says why it
/// is not the 10⁶ of `shard_baseline`.
pub const LARGE_N: usize = 400_000;
/// `ks` the per-shard stores persist levels and forests for.
pub const SHARD_KS: [usize; 2] = [4, 8];
/// Soft vertex cap per shard: a third of the graph, so the giant
/// component gets a base shard plus a k-slice and the small components
/// a bin of their own — three shards, as at 10⁶ with the default cap.
pub const SHARD_CAP: usize = LARGE_N / 3;

/// The `youtube` quick analog: 10k vertices, PageRank weights.
pub fn small_graph() -> WeightedGraph {
    by_name(Profile::Quick, "youtube")
        .expect("ic-gen knows the youtube analog")
        .generate_weighted()
}

/// Streamed Chung-Lu graph with Pareto weights, as `shard_baseline`
/// builds it (same generator seeds), at [`LARGE_N`] vertices.
pub fn large_graph() -> WeightedGraph {
    let spec = StreamSpec::ChungLu {
        n: LARGE_N,
        target_m: 4 * LARGE_N,
        gamma: 2.5,
        seed: GraphSeed(42),
    };
    let g = stream_graph(&spec);
    let w = pareto_weights(LARGE_N, 1.5, GraphSeed(42 ^ 0x9e37_79b9));
    WeightedGraph::new(g, w).expect("one weight per streamed vertex")
}

pub fn fnv1a(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for byte in word.to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

pub fn fingerprint(wg: &WeightedGraph) -> GraphPrint {
    GraphPrint {
        n: wg.num_vertices(),
        m: wg.num_edges(),
        degeneracy: ic_kcore::core_decomposition(wg.graph()).max_core,
        weights: wg
            .weights()
            .iter()
            .fold(FNV_OFFSET, |h, w| fnv1a(h, w.to_bits())),
    }
}

/// Fails the run when a generated input is not the pinned one.
pub fn check_fingerprint(what: &str, wg: &WeightedGraph, pinned: GraphPrint) -> Result<(), String> {
    let got = fingerprint(wg);
    println!(
        "input {what}: n={} m={} degeneracy={} weights={:#018x}",
        got.n, got.m, got.degeneracy, got.weights
    );
    if got == pinned {
        Ok(())
    } else {
        Err(format!(
            "input {what} drifted from its pinned fingerprint: got {got:?}, pinned {pinned:?} \
             (an ic-gen change silently changed the benchmark)"
        ))
    }
}
