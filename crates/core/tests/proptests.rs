//! Property-based cross-validation of every solver against the exhaustive
//! oracle on random weighted graphs.

use ic_core::algo::{
    self, exact_naive, exact_topr, local_search, local_search_nonoverlapping, nonoverlap,
    ExtremumIndex, LocalSearchConfig,
};
use ic_core::verify::check_community;
use ic_core::{Aggregation, Community, Extremum, Query, SearchError};
use ic_graph::{graph_from_edges, WeightedGraph};
use ic_kcore::{GraphSnapshot, PeelArena};
use proptest::prelude::*;

type Solved = Result<Vec<Community>, SearchError>;

// The per-graph free-function entry points were removed in PR 4; these
// harnesses route through the certificate-driven `Query` router (and
// the snapshot entry point for Algorithm 1, which the router does not
// serve — TIC answers its queries).
fn min_topr(wg: &WeightedGraph, k: usize, r: usize) -> Solved {
    Query::new(k, r, Aggregation::Min).solve(wg)
}

fn max_topr(wg: &WeightedGraph, k: usize, r: usize) -> Solved {
    Query::new(k, r, Aggregation::Max).solve(wg)
}

fn tic_improved(wg: &WeightedGraph, k: usize, r: usize, agg: Aggregation, eps: f64) -> Solved {
    Query::new(k, r, agg).approx(eps).solve(wg)
}

fn sum_naive(wg: &WeightedGraph, k: usize, r: usize, agg: Aggregation) -> Solved {
    let snap = GraphSnapshot::new(wg.clone());
    let mut arena = PeelArena::for_graph(snap.graph());
    algo::sum_naive_on(&snap, k, r, agg, &mut arena)
}

/// Random weighted graph: up to `max_n` vertices, random edges, strictly
/// positive weights (the paper assumes non-negative influence; positive
/// values keep sum's maximality vacuous, matching Corollary 2).
fn arb_wgraph(max_n: u32) -> impl Strategy<Value = WeightedGraph> {
    (4..max_n).prop_flat_map(move |n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..(n as usize * 3));
        let weights = proptest::collection::vec(0.5f64..50.0, n as usize);
        (edges, weights).prop_map(move |(e, w)| {
            WeightedGraph::new(graph_from_edges(n as usize, &e), w).unwrap()
        })
    })
}

fn values(cs: &[ic_core::Community]) -> Vec<f64> {
    cs.iter().map(|c| c.value).collect()
}

fn assert_close(a: &[f64], b: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "{:?} vs {:?}", a, b);
    for (x, y) in a.iter().zip(b) {
        prop_assert!((x - y).abs() < 1e-9, "{:?} vs {:?}", a, b);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn naive_and_improved_match_oracle_for_sum(wg in arb_wgraph(11), k in 1usize..4, r in 1usize..4) {
        let oracle = exact_topr(&wg, k, r, None, Aggregation::Sum).unwrap();
        let naive = sum_naive(&wg, k, r, Aggregation::Sum).unwrap();
        let improved = tic_improved(&wg, k, r, Aggregation::Sum, 0.0).unwrap();
        assert_close(&values(&naive), &values(&oracle))?;
        assert_close(&values(&improved), &values(&oracle))?;
    }

    #[test]
    fn sum_surplus_solvers_match_oracle(wg in arb_wgraph(10), k in 1usize..3) {
        let agg = Aggregation::SumSurplus { alpha: 1.5 };
        let oracle = exact_topr(&wg, k, 3, None, agg).unwrap();
        let naive = sum_naive(&wg, k, 3, agg).unwrap();
        let improved = tic_improved(&wg, k, 3, agg, 0.0).unwrap();
        assert_close(&values(&naive), &values(&oracle))?;
        assert_close(&values(&improved), &values(&oracle))?;
    }

    #[test]
    fn approx_satisfies_theorem6(wg in arb_wgraph(11), k in 1usize..3,
                                 eps in prop_oneof![Just(0.01), Just(0.1), Just(0.3), Just(0.5)]) {
        let r = 3;
        let exact = tic_improved(&wg, k, r, Aggregation::Sum, 0.0).unwrap();
        let approx = tic_improved(&wg, k, r, Aggregation::Sum, eps).unwrap();
        prop_assert_eq!(exact.len(), approx.len());
        if let (Some(re), Some(ra)) = (exact.last(), approx.last()) {
            prop_assert!(
                ra.value >= (1.0 - eps) * re.value - 1e-9,
                "eps={} ra={} re={}", eps, ra.value, re.value
            );
        }
    }

    #[test]
    fn min_max_peeling_matches_oracle(wg in arb_wgraph(11), k in 1usize..4, r in 1usize..4) {
        let got_min = min_topr(&wg, k, r).unwrap();
        let exp_min = exact_topr(&wg, k, r, None, Aggregation::Min).unwrap();
        prop_assert_eq!(&got_min, &exp_min, "min mismatch");
        let got_max = max_topr(&wg, k, r).unwrap();
        let exp_max = exact_topr(&wg, k, r, None, Aggregation::Max).unwrap();
        prop_assert_eq!(&got_max, &exp_max, "max mismatch");
    }

    #[test]
    fn exact_naive_matches_oracle_for_sum_with_bound(wg in arb_wgraph(9), k in 1usize..3) {
        let s = k + 2;
        let naive = exact_naive(&wg, k, 4, s, Aggregation::Sum).unwrap();
        let oracle = exact_topr(&wg, k, 4, Some(s), Aggregation::Sum).unwrap();
        assert_close(&values(&naive), &values(&oracle))?;
    }

    #[test]
    fn local_search_outputs_are_valid_communities(wg in arb_wgraph(14), k in 1usize..4, greedy in any::<bool>()) {
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
    fn local_search_never_beats_the_oracle(wg in arb_wgraph(10), k in 1usize..3) {
        // The heuristic is sound: its best value cannot exceed the exact
        // optimum over the same constrained space.
        let s = k + 2;
        let config = LocalSearchConfig { k, r: 1, s, greedy: true };
        let res = local_search(&wg, &config, Aggregation::Average).unwrap();
        if let Some(best) = res.first() {
            let oracle = exact_naive(&wg, k, 1, s, Aggregation::Average).unwrap();
            let opt = oracle.first().expect("oracle finds at least the heuristic's community");
            prop_assert!(best.value <= opt.value + 1e-9, "{} > {}", best.value, opt.value);
        }
    }

    #[test]
    fn tonic_results_are_disjoint_and_valid(wg in arb_wgraph(12), k in 1usize..3) {
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
    fn nonoverlapping_sum_equals_kcore_components(wg in arb_wgraph(12), k in 1usize..4) {
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
    fn min_index_matches_online_solver(wg in arb_wgraph(14), k in 1usize..4, r in 1usize..5) {
        let idx = ExtremumIndex::build(&wg, k, Extremum::Min);
        let from_index = idx.topr(&wg, r).unwrap();
        // The online solver shares the forest's peel pass; the
        // from-scratch oracle shares nothing with either.
        prop_assert_eq!(&from_index, &algo::oracle::min_topr(&wg, k, r).unwrap());
        prop_assert_eq!(from_index, min_topr(&wg, k, r).unwrap());
    }

    #[test]
    fn min_index_chains_are_nested(wg in arb_wgraph(14), k in 1usize..3) {
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
    fn oracle_results_pass_full_verification(wg in arb_wgraph(10), k in 1usize..3) {
        for agg in [Aggregation::Sum, Aggregation::Average, Aggregation::Min, Aggregation::Max] {
            let res = algo::exact_topr(&wg, k, 4, None, agg).unwrap();
            for c in &res {
                prop_assert!(check_community(&wg, k, None, agg, c).is_ok(),
                    "{} produced invalid community {:?}", agg.name(), c.vertices);
            }
        }
    }
}
