//! Property tests for the scatter-gather merge (PR 8 satellite).
//!
//! [`merge_topr`] is the whole correctness story of sharded serving:
//! if it is associative, order-invariant, and canonical under ties,
//! then *any* scatter schedule (shard order, grouping, partial
//! pre-merges) produces the same bytes. The properties are held
//! algebraically, on synthetic community lists with forced value ties
//! and distinct vertex sets (the invariant real shards provide: no
//! community is produced twice). Against the oracle, a sharded engine
//! over disconnected blocks is an arm of the agreement harness in
//! `tests/conformance.rs`.

use ic_core::Community;
use ic_shard::merge_topr;
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
