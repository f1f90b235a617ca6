//! Property tests for the scatter-gather merge (PR 8 satellite).
//!
//! [`merge_topr`] is the whole correctness story of sharded serving:
//! if it is associative, order-invariant, and canonical under ties,
//! then *any* scatter schedule (shard order, grouping, partial
//! pre-merges) produces the same bytes. The properties are held two
//! ways:
//!
//! 1. **Algebraically**, on synthetic community lists with forced value
//!    ties and distinct vertex sets (the invariant real shards provide:
//!    no community is produced twice).
//! 2. **Against the oracle**: a sharded engine over random graphs of
//!    disconnected blocks (every query fans out) with tie-heavy weights
//!    must answer bit-for-bit like the unsharded engine — with `r` far
//!    above any single shard's community count and `r` small enough to
//!    cut a tie group, so per-shard truncation, short-list merging and
//!    the tie selection are all on the hot path.

use ic_core::{Aggregation, Community, Query};
use ic_engine::{BatchOptions, Engine};
use ic_gen::{
    pareto_weights, planted_partition, uniform_weights, GraphSeed, PlantedPartitionConfig,
};
use ic_graph::WeightedGraph;
use ic_shard::{merge_topr, ShardedEngine};
use ic_store::shard::build_shard_stores;
use proptest::prelude::*;

/// A pool of communities with pairwise-distinct vertex sets (each gets
/// a unique marker vertex) but heavily colliding *values* — ties are
/// the interesting case for canonical ordering.
fn arb_pool() -> impl Strategy<Value = Vec<Community>> {
    proptest::collection::vec((0u32..4, 0usize..6, any::<u64>()), 1..40).prop_map(|entries| {
        entries
            .into_iter()
            .enumerate()
            .map(|(i, (value_bucket, extras, bits))| {
                // Marker vertex `i` is unique per community; extras are
                // drawn from a disjoint high range so two communities
                // can share every extra and still differ as sets.
                let mut vertices = vec![i as u32];
                for e in 0..8u32 {
                    if extras > 0 && (bits >> e) & 1 == 1 {
                        vertices.push(1000 + e);
                    }
                }
                Community::new(vertices, f64::from(value_bucket) * 0.5)
            })
            .collect()
    })
}

/// Deals the pool into `parts` lists round-robin-ish, driven by `bits`.
fn deal(pool: &[Community], parts: usize, bits: u64) -> Vec<Vec<Community>> {
    let mut lists = vec![Vec::new(); parts.max(1)];
    for (i, c) in pool.iter().enumerate() {
        let slot = ((bits >> (i % 60)) as usize + i) % lists.len();
        lists[slot].push(c.clone());
    }
    // Each list arrives from a real shard sorted in ranking order.
    for list in &mut lists {
        list.sort_by(Community::ranking_cmp);
    }
    lists
}

fn assert_same(a: &[Community], b: &[Community]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!(&x.vertices, &y.vertices);
        prop_assert_eq!(x.value.to_bits(), y.value.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging all lists at once equals left-folding pairwise merges
    /// (with the same truncation `r` at every step): truncation to the
    /// top `r` is a prefix of a total order, so it is lossless under
    /// composition.
    #[test]
    fn merge_is_associative(
        pool in arb_pool(),
        parts in 1usize..6,
        bits in any::<u64>(),
        r in 1usize..12,
    ) {
        let lists = deal(&pool, parts, bits);
        let flat = merge_topr(&lists, r);
        let folded = lists
            .iter()
            .fold(Vec::new(), |acc, next| merge_topr(&[acc, next.clone()], r));
        assert_same(&flat, &folded)?;
        // And right-to-left.
        let folded_rev = lists
            .iter()
            .rev()
            .fold(Vec::new(), |acc, next| merge_topr(&[next.clone(), acc], r));
        assert_same(&flat, &folded_rev)?;
    }

    /// Shard arrival order never matters.
    #[test]
    fn merge_is_order_invariant(
        pool in arb_pool(),
        parts in 1usize..6,
        bits in any::<u64>(),
        rot in 0usize..6,
        r in 1usize..12,
    ) {
        let lists = deal(&pool, parts, bits);
        let merged = merge_topr(&lists, r);
        let mut rotated = lists.clone();
        rotated.rotate_left(rot % lists.len().max(1));
        assert_same(&merged, &merge_topr(&rotated, r))?;
        let mut reversed = lists;
        reversed.reverse();
        assert_same(&merged, &merge_topr(&reversed, r))?;
    }

    /// The merged list is exactly the top `r` of the union under the
    /// canonical total order — ties (equal values) resolve by size then
    /// lexicographic vertex list, never by input position.
    #[test]
    fn merge_is_tie_canonical(
        pool in arb_pool(),
        parts in 1usize..6,
        bits in any::<u64>(),
        r in 1usize..60,
    ) {
        let lists = deal(&pool, parts, bits);
        let merged = merge_topr(&lists, r);
        let mut oracle = pool;
        oracle.sort_by(Community::ranking_cmp);
        oracle.truncate(r);
        assert_same(&merged, &oracle)?;
        // r beyond the pool returns the whole pool, still sorted.
        prop_assert!(merged.len() <= r);
    }
}

proptest! {
    // End-to-end oracle cases are expensive (a store build per case).
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A sharded engine over a random graph answers bit-for-bit like
    /// the unsharded engine, including `r` far above what any single
    /// shard can supply and `r`s that cut a value tie between shards.
    #[test]
    fn sharded_matches_unsharded_oracle(
        blocks in 3usize..7,
        block_size in 8usize..24,
        seed in 0u32..500,
        cap in 8usize..40,
    ) {
        let config = PlantedPartitionConfig {
            communities: blocks,
            community_size: block_size,
            p_in: 0.5,
            p_out: 0.0,
        };
        let g = planted_partition(&config, GraphSeed(seed as u64));
        let n = g.num_vertices();
        // No shard holds two whole blocks.
        let cap = cap.min(2 * block_size - 1);
        // Weights from {1, 2, 3}: a value tie straddles shards at every
        // cut.
        let tied = uniform_weights(n, 1.0, 4.0, GraphSeed(seed as u64 + 7))
            .into_iter()
            .map(|x| x.floor().min(3.0))
            .collect();
        let distinct = pareto_weights(n, 1.5, GraphSeed(seed as u64 + 7));
        for (tag, w) in [("tied", tied), ("distinct", distinct)] {
            let wg = WeightedGraph::new(g.clone(), w).expect("generated weights pair");
            let dir = std::env::temp_dir().join(format!(
                "ic-shard-merge-prop-{}-{blocks}-{block_size}-{seed}-{cap}-{tag}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            build_shard_stores(&wg, &[2, 3], cap, &dir).expect("shard build");

            let sharded = ShardedEngine::open_dir(&dir).expect("open shards");
            prop_assert!(sharded.route(1).len() >= 2, "disconnected blocks must fan out");
            let unsharded = Engine::with_threads(wg, 2);

            // r = 2n dwarfs every per-shard community count.
            let batch: Vec<Query> = (1..=4)
                .flat_map(|k| {
                    [
                        Query::new(k, 3, Aggregation::Min),
                        Query::new(k, 2, Aggregation::Max),
                        Query::new(k, 2 * n, Aggregation::Max),
                        Query::new(k, 2 * n, Aggregation::Sum),
                    ]
                })
                .collect();
            let want = unsharded.run_batch_pinned(&batch, &BatchOptions::default()).1;
            let got = sharded.run_batch_pinned(&batch, &BatchOptions::default()).1;
            for ((q, w), g) in batch.iter().zip(&want).zip(&got) {
                let (w, g) = (w.as_ref().expect("oracle"), g.as_ref().expect("sharded"));
                prop_assert_eq!(w, g, "{} weights, query {:?}", tag, q);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
