//! Property-based checks of the solvers on tiny random weighted graphs:
//! every solver class against the exhaustive oracle through the arena
//! arm of the agreement harness (`tests/common/reference.rs`), and what
//! no reference answers — the Theorem 6 bound, Definition 3 on
//! local-search, TONIC and oracle output, and the nesting of the
//! extremum forest's chains.

use ic_core::algo::oracle;
use ic_core::algo::{
    local_search, local_search_nonoverlapping, nonoverlap, ExtremumIndex, LocalSearchConfig,
};
use ic_core::verify::check_community;
use ic_core::{Aggregation, Extremum, Query};
use proptest::prelude::*;
use reference::{agree_on_arena, size_bound, Arena};
use workload::{arb_workload, Shape};

#[path = "../../../tests/common/reference.rs"]
mod reference;
#[path = "../../../tests/common/workload.rs"]
mod workload;

/// Random edges on fewer than `max_n` vertices under the positive
/// weight models: in reach of the exhaustive oracle.
fn tiny(max_n: usize) -> impl Strategy<Value = ic_graph::WeightedGraph> {
    arb_workload(Shape::RandomEdges, 0..5, 4..max_n)
}

/// The exhaustive oracle is the reference; Algorithm 1 runs beside the
/// exact sum-class queries when `naive`.
fn exhaustive(naive: bool) -> Arena {
    Arena {
        exhaustive: true,
        naive,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn approx_satisfies_theorem6(wg in arb_workload(Shape::RandomEdges, 0..1, 4..11), k in 1usize..3,
                                 eps in prop_oneof![Just(0.01), Just(0.1), Just(0.3), Just(0.5)]) {
        let r = 3;
        let exact = Query::new(k, r, Aggregation::Sum).solve(&wg).unwrap();
        let approx = Query::new(k, r, Aggregation::Sum).approx(eps).solve(&wg).unwrap();
        prop_assert_eq!(exact.len(), approx.len());
        if let (Some(re), Some(ra)) = (exact.last(), approx.last()) {
            prop_assert!(
                ra.value >= (1.0 - eps) * re.value - 1e-9,
                "eps={} ra={} re={}", eps, ra.value, re.value
            );
        }
    }

    #[test]
    fn local_search_outputs_are_valid_communities(wg in arb_workload(Shape::RandomEdges, 0..1, 4..14), k in 1usize..4, greedy in any::<bool>()) {
        let s = k + 3;
        let config = LocalSearchConfig { k, r: 3, s, greedy };
        for agg in [Aggregation::Sum, Aggregation::Average, Aggregation::Min,
                    Aggregation::WeightDensity { beta: 0.5 }] {
            let res = local_search(&wg, &config, agg).unwrap();
            for c in &res {
                prop_assert!(c.len() <= s);
                prop_assert!(
                    check_community(&wg, k, Some(s), agg, c).is_ok(),
                    "{} invalid: {:?}", agg.name(), c.vertices
                );
            }
        }
    }

    #[test]
    fn tonic_results_are_disjoint_and_valid(wg in arb_workload(Shape::RandomEdges, 0..1, 4..12), k in 1usize..3) {
        let s = k + 3;
        let config = LocalSearchConfig { k, r: 3, s, greedy: true };
        for agg in [Aggregation::Sum, Aggregation::Average] {
            let res = local_search_nonoverlapping(&wg, &config, agg).unwrap();
            prop_assert!(nonoverlap::is_nonoverlapping(&res), "{} overlaps", agg.name());
            for c in &res {
                prop_assert!(check_community(&wg, k, Some(s), agg, c).is_ok());
            }
        }
        let res = nonoverlap::min_topr_nonoverlapping(&wg, k, 3).unwrap();
        prop_assert!(nonoverlap::is_nonoverlapping(&res));
        for c in &res {
            prop_assert!(check_community(&wg, k, None, Aggregation::Min, c).is_ok());
        }
    }

    #[test]
    fn nonoverlapping_sum_equals_kcore_components(wg in arb_workload(Shape::RandomEdges, 0..1, 4..12), k in 1usize..4) {
        let res = nonoverlap::sum_topr(&wg, k, 5, Aggregation::Sum).unwrap();
        prop_assert!(nonoverlap::is_nonoverlapping(&res));
        // Each result must be a full k-core component: re-peeling it
        // changes nothing and it is maximal in value among its subsets.
        let comps = ic_kcore::maximal_kcore_components(wg.graph(), k);
        for c in &res {
            prop_assert!(comps.iter().any(|comp| comp == &c.vertices));
        }
    }

    #[test]
    fn min_index_chains_are_nested(wg in arb_workload(Shape::RandomEdges, 0..1, 4..14), k in 1usize..3) {
        let idx = ExtremumIndex::build(&wg, k, Extremum::Min);
        for v in 0..wg.num_vertices() as u32 {
            let chain = idx.chain_of(v);
            for w in chain.windows(2) {
                prop_assert!(w[0].1 < w[1].1, "sizes must strictly grow");
                prop_assert!(w[0].0 >= w[1].0, "values must not grow");
            }
            if let Some(c) = idx.minimal_community_of(&wg, v) {
                prop_assert!(c.contains(v));
                prop_assert!(check_community(&wg, k, None, Aggregation::Min, &c).is_ok());
            }
        }
    }

    #[test]
    fn oracle_results_pass_full_verification(wg in arb_workload(Shape::RandomEdges, 0..1, 4..10), k in 1usize..3) {
        for agg in [Aggregation::Sum, Aggregation::Average, Aggregation::Min, Aggregation::Max] {
            let res = oracle::exact_topr(&wg, k, 4, None, agg).unwrap();
            for c in &res {
                prop_assert!(check_community(&wg, k, None, agg, c).is_ok(),
                    "{} produced invalid community {:?}", agg.name(), c.vertices);
            }
        }
    }

    /// Algorithms 1 and 2 for sum: bit-identical to their oracles, equal
    /// in value to each other and to `exact_topr`.
    #[test]
    fn naive_and_improved_match_oracle_for_sum(wg in tiny(11), k in 1usize..4, r in 1usize..4) {
        agree_on_arena(&wg, &[Query::new(k, r, Aggregation::Sum)], &exhaustive(true))?;
    }

    #[test]
    fn sum_surplus_solvers_match_oracle(wg in tiny(10), k in 1usize..3) {
        let q = Query::new(k, 3, Aggregation::SumSurplus { alpha: 1.5 });
        agree_on_arena(&wg, &[q], &exhaustive(true))?;
    }

    #[test]
    fn min_max_peeling_matches_oracle(wg in tiny(11), k in 1usize..4, r in 1usize..4) {
        let deck = [Query::new(k, r, Aggregation::Min), Query::new(k, r, Aggregation::Max)];
        agree_on_arena(&wg, &deck, &exhaustive(false))?;
    }

    /// Algorithm 3 equals `exact_topr` over the same size-bounded space.
    #[test]
    fn exact_naive_matches_oracle_for_sum_with_bound(wg in tiny(9), k in 1usize..3, slack in 0usize..64) {
        let q = Query::new(k, 4, Aggregation::Sum).size_bound(size_bound(k, slack), true);
        agree_on_arena(&wg, &[q], &exhaustive(false))?;
    }

    /// The heuristic is sound: its best value cannot exceed the exact
    /// optimum over the same constrained space.
    #[test]
    fn local_search_never_beats_the_oracle(wg in tiny(10), k in 1usize..3, slack in 0usize..64) {
        let q = Query::new(k, 1, Aggregation::Average).size_bound(size_bound(k, slack), true);
        agree_on_arena(&wg, &[q], &exhaustive(false))?;
    }

    /// A forest built from scratch reads what the routed solve and the
    /// exhaustive oracle answer.
    #[test]
    fn min_index_matches_online_solver(wg in tiny(14), k in 1usize..4, r in 1usize..5) {
        let want = agree_on_arena(&wg, &[Query::new(k, r, Aggregation::Min)], &exhaustive(false))?;
        let idx = ExtremumIndex::build(&wg, k, Extremum::Min);
        prop_assert_eq!(&idx.topr(&wg, r).unwrap(), &want[0]);
    }
}
