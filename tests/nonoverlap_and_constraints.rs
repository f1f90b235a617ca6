//! TONIC (non-overlapping) behaviour and constraint handling on realistic
//! workloads, plus error-path coverage across the public API.

use common::email;
use ic_core::algo::{self, LocalSearchConfig};
use ic_core::verify::check_community;
use ic_core::{Aggregation, SearchError};
use ic_gen::datasets::{by_name, Profile};
use ic_kcore::maximal_kcore_components;

mod common;

#[test]
fn tonic_sum_returns_kcore_components() {
    let wg = email();
    let res = algo::nonoverlap::sum_topr(&wg, 6, 5, Aggregation::Sum).unwrap();
    assert!(algo::nonoverlap::is_nonoverlapping(&res));
    let comps = maximal_kcore_components(wg.graph(), 6);
    for c in &res {
        assert!(comps.iter().any(|comp| comp == &c.vertices));
    }
    // Values sorted descending.
    for w in res.windows(2) {
        assert!(w[0].value >= w[1].value);
    }
}

#[test]
fn tonic_min_produces_disjoint_verified_communities() {
    let wg = email();
    let res = algo::nonoverlap::min_topr_nonoverlapping(&wg, 6, 4).unwrap();
    assert!(algo::nonoverlap::is_nonoverlapping(&res));
    assert!(!res.is_empty());
    for c in &res {
        check_community(&wg, 6, None, Aggregation::Min, c).unwrap();
    }
    // Greedy peel: each round's winner is at least as good as the next.
    for w in res.windows(2) {
        assert!(w[0].value >= w[1].value);
    }
}

#[test]
fn tonic_local_search_is_disjoint_for_all_aggregations() {
    let wg = email();
    let config = LocalSearchConfig {
        k: 4,
        r: 4,
        s: 15,
        greedy: true,
    };
    for agg in [
        Aggregation::Sum,
        Aggregation::Average,
        Aggregation::Min,
        Aggregation::Max,
        Aggregation::SumSurplus { alpha: 0.001 },
        Aggregation::WeightDensity { beta: 0.0001 },
    ] {
        let res = algo::local_search_nonoverlapping(&wg, &config, agg).unwrap();
        assert!(
            algo::nonoverlap::is_nonoverlapping(&res),
            "{} overlaps",
            agg.name()
        );
        for c in &res {
            check_community(&wg, 4, Some(15), agg, c).unwrap();
        }
    }
}

#[test]
fn size_bound_is_respected_across_s_grid() {
    let wg = email();
    for s in [5usize, 10, 15, 20] {
        let config = LocalSearchConfig {
            k: 4,
            r: 5,
            s,
            greedy: true,
        };
        let res = algo::local_search(&wg, &config, Aggregation::Sum).unwrap();
        for c in &res {
            assert!(c.len() <= s, "s={s} violated: {}", c.len());
            check_community(&wg, 4, Some(s), Aggregation::Sum, c).unwrap();
        }
    }
}

#[test]
fn larger_s_never_hurts_greedy_sum_quality() {
    let wg = email();
    let mut prev_best = f64::NEG_INFINITY;
    for s in [5usize, 10, 15, 20] {
        let config = LocalSearchConfig {
            k: 4,
            r: 5,
            s,
            greedy: true,
        };
        let res = algo::local_search(&wg, &config, Aggregation::Sum).unwrap();
        let best = res.first().map_or(f64::NEG_INFINITY, |c| c.value);
        assert!(
            best >= prev_best - 1e-12,
            "s={s}: best {best} < previous {prev_best}"
        );
        prev_best = best;
    }
}

#[test]
fn error_paths_are_typed_not_panics() {
    use ic_core::Query;
    use ic_kcore::{GraphSnapshot, PeelArena};
    let wg = email();
    let snap = GraphSnapshot::new(wg.clone());
    let mut arena = PeelArena::for_graph(snap.graph());

    // r = 0 on every routed path and on the Algorithm-1 entry point.
    assert!(matches!(
        algo::sum_naive_on(&snap, 4, 0, Aggregation::Sum, &mut arena),
        Err(SearchError::InvalidParams(_))
    ));
    assert!(Query::new(4, 0, Aggregation::Sum).solve(&wg).is_err());
    assert!(Query::new(4, 0, Aggregation::Min).solve(&wg).is_err());

    // Aggregations without the removal-decreasing certificate are
    // rejected by the Corollary-2 solvers.
    for agg in [
        Aggregation::Average,
        Aggregation::Min,
        Aggregation::BalancedDensity,
        Aggregation::TopTSum { t: 2 },
        Aggregation::Percentile { p: 0.5 },
        Aggregation::GeometricMean,
    ] {
        assert!(matches!(
            algo::sum_naive_on(&snap, 4, 5, agg, &mut arena),
            Err(SearchError::UnsupportedAggregation { .. })
        ));
    }

    // epsilon out of range.
    assert!(Query::new(4, 5, Aggregation::Sum)
        .approx(1.0)
        .solve(&wg)
        .is_err());

    // s <= k for local search.
    let bad = LocalSearchConfig {
        k: 5,
        r: 3,
        s: 5,
        greedy: true,
    };
    assert!(matches!(
        algo::local_search(&wg, &bad, Aggregation::Sum),
        Err(SearchError::InvalidParams(_))
    ));

    // k above kmax: valid call, empty result.
    let res = Query::new(10_000, 3, Aggregation::Sum).solve(&wg).unwrap();
    assert!(res.is_empty());
}

#[test]
fn weight_validation_errors_from_graph_layer() {
    use ic_graph::{graph_from_edges, GraphError, WeightedGraph};
    let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
    assert!(matches!(
        WeightedGraph::new(g.clone(), vec![1.0, 2.0]),
        Err(GraphError::WeightLengthMismatch { .. })
    ));
    assert!(matches!(
        WeightedGraph::new(g, vec![1.0, -1.0, 2.0]),
        Err(GraphError::InvalidWeight { .. })
    ));
}

/// FNV-1a over a TONIC answer list: each community's size, members and
/// value bits, in rank order.
fn answers_digest(answers: &[ic_core::Community]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let words = answers.iter().flat_map(|c| {
        let head = [c.vertices.len() as u64, c.value.to_bits()];
        head.into_iter()
            .chain(c.vertices.iter().map(|&v| u64::from(v)))
    });
    for word in words {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digests of `local_search_nonoverlapping`'s answers (r = 8) on Figure 1,
/// the quick `youtube` analog and that graph under {1, 2, 3} weights
/// (value ties in every pool), under `avg`, `sum` and `min`, greedy and
/// random, at two `(k, s)` pairs each, as
/// `(graph, k, s, aggregation, greedy, digest)`. TONIC's Algorithm 4 has
/// no independent reference, so these pin its answers: any change to its
/// seed order, pools, strategies or claims shows here.
const GOLDEN_TONIC: &[(&str, usize, usize, &str, bool, u64)] = &[
    ("figure1", 2, 5, "avg", true, 0xdb6e943a3651ffa7),
    ("figure1", 2, 5, "avg", false, 0xcc25c73dfaeebb6f),
    ("figure1", 2, 5, "sum", true, 0x2a41011e7c00f08f),
    ("figure1", 2, 5, "sum", false, 0x785f5839238258c6),
    ("figure1", 2, 5, "min", true, 0x9963a2e3d6944296),
    ("figure1", 2, 5, "min", false, 0x30dbd8d6cf8ccf50),
    ("figure1", 2, 8, "avg", true, 0xa66fbbeb6724e5cd),
    ("figure1", 2, 8, "avg", false, 0x2d8fa551f5f7428c),
    ("figure1", 2, 8, "sum", true, 0xd7378521e9719d27),
    ("figure1", 2, 8, "sum", false, 0xbc84f653b6e60cd8),
    ("figure1", 2, 8, "min", true, 0xe88d05f948a7dbb5),
    ("figure1", 2, 8, "min", false, 0x30dbd8d6cf8ccf50),
    ("youtube", 2, 5, "avg", true, 0x116a80aeb60a6268),
    ("youtube", 2, 5, "avg", false, 0x6bb4c29641dc1815),
    ("youtube", 2, 5, "sum", true, 0x8a6846f1ac09ba4c),
    ("youtube", 2, 5, "sum", false, 0xf5b9522fedfd43ab),
    ("youtube", 2, 5, "min", true, 0x3bec7ff3c5535ed9),
    ("youtube", 2, 5, "min", false, 0x0a61cbb69e1b34f8),
    ("youtube", 3, 10, "avg", true, 0x1ccebb4a9d220f5c),
    ("youtube", 3, 10, "avg", false, 0x9507e483233b2374),
    ("youtube", 3, 10, "sum", true, 0x617229861800be4e),
    ("youtube", 3, 10, "sum", false, 0x290e72b80fc8e30d),
    ("youtube", 3, 10, "min", true, 0x97105f25d9a6d900),
    ("youtube", 3, 10, "min", false, 0x186e9fcdad3aa390),
    ("ties", 2, 5, "avg", true, 0x55c3380cfb4dd791),
    ("ties", 2, 5, "avg", false, 0xc3dd136244711728),
    ("ties", 2, 5, "sum", true, 0x8cdd46635c3d2e3d),
    ("ties", 2, 5, "sum", false, 0x3a8ceb3afd215c76),
    ("ties", 2, 5, "min", true, 0x55c3380cfb4dd791),
    ("ties", 2, 5, "min", false, 0x02fd89fdc6a2d956),
    ("ties", 3, 10, "avg", true, 0x34ed565c360dd47f),
    ("ties", 3, 10, "avg", false, 0x53998c236bd17723),
    ("ties", 3, 10, "sum", true, 0x16e6156602384424),
    ("ties", 3, 10, "sum", false, 0x7a4a77fcec69eaa9),
    ("ties", 3, 10, "min", true, 0x34ed565c360dd47f),
    ("ties", 3, 10, "min", false, 0x177795b5dda2facb),
];

#[test]
fn tonic_local_search_matches_its_golden_digests() {
    let youtube = by_name(Profile::Quick, "youtube")
        .unwrap()
        .generate_weighted();
    let ties: Vec<f64> = (0..youtube.num_vertices())
        .map(|v| (1 + (v * 7 + v / 3) % 3) as f64)
        .collect();
    let ties = ic_graph::WeightedGraph::new(youtube.graph().clone(), ties).unwrap();
    let graphs = [
        ("figure1", ic_core::figure1::figure1()),
        ("youtube", youtube),
        ("ties", ties),
    ];
    let mut got = Vec::new();
    for (name, wg) in &graphs {
        // Figure 1 has no 3-core.
        let second = if *name == "figure1" { (2, 8) } else { (3, 10) };
        for (k, s) in [(2usize, 5usize), second] {
            for agg in [Aggregation::Average, Aggregation::Sum, Aggregation::Min] {
                for greedy in [true, false] {
                    let config = LocalSearchConfig { k, r: 8, s, greedy };
                    let answers = algo::local_search_nonoverlapping(wg, &config, agg).unwrap();
                    got.push((*name, k, s, agg.name(), greedy, answers_digest(&answers)));
                }
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(name, k, s, agg, greedy, d)| {
            format!("    (\"{name}\", {k}, {s}, \"{agg}\", {greedy}, {d:#018x}),\n")
        })
        .collect();
    assert_eq!(got, GOLDEN_TONIC, "digests now:\n{table}");
}
