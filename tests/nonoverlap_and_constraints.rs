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

/// The quick `youtube` analog and the same graph under {1, 2, 3} weights.
fn youtube_and_ties() -> [(&'static str, ic_graph::WeightedGraph); 2] {
    let youtube = by_name(Profile::Quick, "youtube")
        .unwrap()
        .generate_weighted();
    let ties: Vec<f64> = (0..youtube.num_vertices())
        .map(|v| (1 + (v * 7 + v / 3) % 3) as f64)
        .collect();
    let ties = ic_graph::WeightedGraph::new(youtube.graph().clone(), ties).unwrap();
    [("youtube", youtube), ("ties", ties)]
}

#[test]
fn tonic_local_search_matches_its_golden_digests() {
    let [youtube, ties] = youtube_and_ties();
    let graphs = [("figure1", ic_core::figure1::figure1()), youtube, ties];
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

/// Digests of `TIC-IMPROVED`'s answers (r = 20) on the quick `youtube`
/// analog and its {1, 2, 3} reweighting, exact and ε = 0.1 `sum` and
/// exact `sum-surplus` (α = 0.5), as `(graph, k, aggregation, ε,
/// digest)`. The oracle agreement suites never reach graphs this large,
/// so these pin the arena path's answers bit for bit there: any change to
/// the splits, the child order or the pruning shows here.
const GOLDEN_TIC: &[(&str, usize, &str, f64, u64)] = &[
    ("youtube", 4, "sum", 0.0, 0x57122844a8303824),
    ("youtube", 4, "sum", 0.1, 0x62c5960fa98f9953),
    ("youtube", 4, "sum-surplus", 0.0, 0xa95e5428395e62c0),
    ("youtube", 6, "sum", 0.0, 0x0d9e295246fabab6),
    ("youtube", 6, "sum", 0.1, 0xee582e59ac929624),
    ("youtube", 6, "sum-surplus", 0.0, 0x18c38782aaa0459c),
    ("youtube", 8, "sum", 0.0, 0x2b0a84e45dcdb016),
    ("youtube", 8, "sum", 0.1, 0x447cd950b82b403d),
    ("youtube", 8, "sum-surplus", 0.0, 0x9346392048d57dca),
    ("youtube", 10, "sum", 0.0, 0x19728c48af678935),
    ("youtube", 10, "sum", 0.1, 0x889abc7c541a3738),
    ("youtube", 10, "sum-surplus", 0.0, 0xbd053cfede7728c9),
    ("ties", 4, "sum", 0.0, 0x6bc473b858945b1f),
    ("ties", 4, "sum", 0.1, 0x89af993b650473fe),
    ("ties", 4, "sum-surplus", 0.0, 0x25a84c22979d537f),
    ("ties", 6, "sum", 0.0, 0x3cc1f50a9c137fc2),
    ("ties", 6, "sum", 0.1, 0x1de2ba09ac586970),
    ("ties", 6, "sum-surplus", 0.0, 0x017c0d255bdd9677),
    ("ties", 8, "sum", 0.0, 0x14f5576c85bb7d7e),
    ("ties", 8, "sum", 0.1, 0x52c9d87df48cf80c),
    ("ties", 8, "sum-surplus", 0.0, 0x1a81e63243ad6e16),
    ("ties", 10, "sum", 0.0, 0xbd0dc411770660ea),
    ("ties", 10, "sum", 0.1, 0xe02ba68f66a2c922),
    ("ties", 10, "sum-surplus", 0.0, 0xd881e6849c0bab0e),
];

#[test]
fn tic_matches_its_golden_digests() {
    let mut got = Vec::new();
    for (name, wg) in &youtube_and_ties() {
        for k in [4usize, 6, 8, 10] {
            for (agg, eps) in [
                (Aggregation::Sum, 0.0),
                (Aggregation::Sum, 0.1),
                (Aggregation::SumSurplus { alpha: 0.5 }, 0.0),
            ] {
                let answers = ic_core::Query::new(k, 20, agg)
                    .approx(eps)
                    .solve(wg)
                    .unwrap();
                assert_eq!(answers.len(), 20, "{name} k={k} {} eps={eps}", agg.name());
                got.push((*name, k, agg.name(), eps, answers_digest(&answers)));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(name, k, agg, eps, d)| {
            format!("    (\"{name}\", {k}, \"{agg}\", {eps:?}, {d:#018x}),\n")
        })
        .collect();
    assert_eq!(got, GOLDEN_TIC, "digests now:\n{table}");
}

/// The aggregations of the warm engine walks below, by label: every class
/// the seed memo bounds from a slot record, percentiles on both sides of
/// `k / (k + 1)` and `top-t-sum` from one to eight weights.
const WALK_DECK: [(&str, Aggregation); 9] = [
    ("avg", Aggregation::Average),
    ("sum", Aggregation::Sum),
    ("min", Aggregation::Min),
    ("p0.55", Aggregation::Percentile { p: 0.55 }),
    ("p0.8", Aggregation::Percentile { p: 0.8 }),
    ("p0.95", Aggregation::Percentile { p: 0.95 }),
    ("top1", Aggregation::TopTSum { t: 1 }),
    ("top4", Aggregation::TopTSum { t: 4 }),
    ("top8", Aggregation::TopTSum { t: 8 }),
];

/// The engine counters a warm walk's digest row pins, in table order.
const WALK_COUNTERS: [&str; 4] = [
    "core.local_seeds_skipped",
    "core.local_seeds_replayed",
    "core.local_targets_replayed",
    "core.local_targets_inserted",
];

/// `(graph, k, s, aggregation, digest, cold, warm)`: see [`GOLDEN_WALKS`].
type WalkRow = (
    &'static str,
    usize,
    usize,
    &'static str,
    u64,
    [u64; 4],
    [u64; 4],
);

/// Digests of a one-thread `Engine`'s greedy size-bounded answers (r = 20)
/// on the quick `youtube` analog and its {1, 2, 3} reweighting, as
/// `(graph, k, s, aggregation, digest, cold, warm)`: each case walks its
/// `(k, s)` family cold (every pool built), then again after
/// `clear_result_cache` over the memo the first walk left (replays,
/// learned verdicts, bound skips). `cold` and `warm` are the walks'
/// deltas of [`WALK_COUNTERS`]. Both walks answer the digest; the counts
/// pin which seeds the memo skips and which targets it replays, so a
/// skip that changes no answer but the work still shows here.
#[rustfmt::skip]
const GOLDEN_WALKS: &[WalkRow] = &[
    ("youtube", 4, 10, "avg", 0x93be7f657f46ba6a, [0, 0, 310, 32], [2824, 33, 33, 32]),
    ("youtube", 4, 20, "avg", 0x93be7f657f46ba6a, [0, 0, 1055, 41], [2815, 42, 42, 41]),
    ("youtube", 4, 40, "avg", 0x93be7f657f46ba6a, [0, 0, 1263, 41], [2815, 42, 42, 41]),
    ("youtube", 6, 10, "avg", 0x50dbd69f55459f8c, [0, 0, 895, 1], [894, 1, 1, 1]),
    ("youtube", 6, 20, "avg", 0xceae1cbf2f552cb7, [0, 0, 806, 48], [847, 48, 48, 48]),
    ("youtube", 6, 40, "avg", 0xd7e58d277f610934, [0, 0, 837, 51], [844, 51, 51, 51]),
    ("youtube", 8, 10, "avg", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("youtube", 8, 20, "avg", 0xa320681061e03fdc, [0, 0, 370, 14], [356, 14, 14, 14]),
    ("youtube", 8, 40, "avg", 0x9b3b0d085a5cde6e, [0, 0, 351, 61], [309, 61, 61, 61]),
    ("youtube", 10, 20, "avg", 0xcbf29ce484222325, [0, 0, 214, 0], [214, 0, 0, 0]),
    ("youtube", 10, 40, "avg", 0x8bfc349ebe0c2f13, [0, 0, 207, 54], [160, 54, 54, 54]),
    ("youtube", 4, 10, "sum", 0x6f2d4f9b3106029f, [0, 0, 64, 35], [2820, 37, 37, 35]),
    ("youtube", 4, 20, "sum", 0x18b6d7a5d37359c7, [0, 0, 100, 58], [2799, 58, 58, 58]),
    ("youtube", 4, 40, "sum", 0x5ee7f5c01de41ae1, [0, 0, 195, 138], [2690, 167, 167, 138]),
    ("youtube", 6, 10, "sum", 0xcac3e47f67b8eb20, [0, 0, 895, 1], [894, 1, 1, 1]),
    ("youtube", 6, 20, "sum", 0xc6ae123582d64394, [0, 0, 123, 36], [855, 40, 40, 36]),
    ("youtube", 6, 40, "sum", 0x9e3fce3b627c134a, [0, 0, 247, 118], [755, 140, 140, 118]),
    ("youtube", 8, 10, "sum", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("youtube", 8, 20, "sum", 0x4ace996e9c03aa76, [0, 0, 370, 14], [356, 14, 14, 14]),
    ("youtube", 8, 40, "sum", 0x09fe4f16c34b1add, [0, 0, 199, 83], [279, 91, 91, 83]),
    ("youtube", 10, 20, "sum", 0xcbf29ce484222325, [0, 0, 214, 0], [214, 0, 0, 0]),
    ("youtube", 10, 40, "sum", 0xda0814d5c2b4387a, [0, 0, 119, 49], [163, 51, 51, 49]),
    ("youtube", 4, 10, "min", 0x9fb251f21f87a677, [2823, 0, 34, 22], [2834, 23, 23, 22]),
    ("youtube", 4, 20, "min", 0x500ccc2e0d446d11, [2828, 0, 29, 26], [2830, 27, 27, 26]),
    ("youtube", 4, 40, "min", 0x500ccc2e0d446d11, [2828, 0, 29, 26], [2830, 27, 27, 26]),
    ("youtube", 6, 10, "min", 0x69ebe39c449d4fc0, [0, 0, 895, 1], [894, 1, 1, 1]),
    ("youtube", 6, 20, "min", 0x1ca49032d0aad0fd, [854, 0, 41, 27], [868, 27, 27, 27]),
    ("youtube", 6, 40, "min", 0x7d66b36476e24eee, [854, 0, 41, 32], [863, 32, 32, 32]),
    ("youtube", 8, 10, "min", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("youtube", 8, 20, "min", 0x386693d0b53088d2, [0, 0, 370, 14], [356, 14, 14, 14]),
    ("youtube", 8, 40, "min", 0x48f91942e36c9d6e, [310, 0, 60, 35], [335, 35, 35, 35]),
    ("youtube", 10, 20, "min", 0xcbf29ce484222325, [0, 0, 214, 0], [214, 0, 0, 0]),
    ("youtube", 10, 40, "min", 0xf671821c66026a5a, [133, 0, 81, 32], [182, 32, 32, 32]),
    ("youtube", 4, 10, "p0.55", 0x10e5a1ceec05bc28, [0, 0, 2303, 38], [2818, 39, 39, 38]),
    ("youtube", 4, 20, "p0.55", 0x9eb5ec7c25fcbde4, [0, 0, 2641, 50], [2806, 51, 51, 50]),
    ("youtube", 4, 40, "p0.55", 0x04608875a529ea67, [0, 0, 2742, 47], [2809, 48, 48, 47]),
    ("youtube", 6, 10, "p0.55", 0x485dda495cd46ffa, [0, 0, 895, 1], [894, 1, 1, 1]),
    ("youtube", 6, 20, "p0.55", 0x1ac958223f4ccf37, [0, 0, 891, 54], [841, 54, 54, 54]),
    ("youtube", 6, 40, "p0.55", 0x50e5349c9bbe1435, [0, 0, 894, 58], [837, 58, 58, 58]),
    ("youtube", 8, 10, "p0.55", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("youtube", 8, 20, "p0.55", 0x8b9eb7576557fbe8, [0, 0, 370, 14], [356, 14, 14, 14]),
    ("youtube", 8, 40, "p0.55", 0xb84e477e93950ff9, [0, 0, 370, 61], [309, 61, 61, 61]),
    ("youtube", 10, 20, "p0.55", 0xcbf29ce484222325, [0, 0, 214, 0], [214, 0, 0, 0]),
    ("youtube", 10, 40, "p0.55", 0x410e54258b21327b, [0, 0, 214, 57], [157, 57, 57, 57]),
    ("youtube", 4, 10, "p0.8", 0x74e85247236097ce, [0, 0, 1604, 37], [2819, 38, 38, 37]),
    ("youtube", 4, 20, "p0.8", 0x74e85247236097ce, [0, 0, 2054, 44], [2812, 45, 45, 44]),
    ("youtube", 4, 40, "p0.8", 0x527e40ada5fe3918, [0, 0, 2205, 44], [2812, 45, 45, 44]),
    ("youtube", 6, 10, "p0.8", 0xa65d2a0f27759be3, [0, 0, 895, 1], [894, 1, 1, 1]),
    ("youtube", 6, 20, "p0.8", 0xd27aecf38ce938a2, [0, 0, 866, 44], [851, 44, 44, 44]),
    ("youtube", 6, 40, "p0.8", 0xf979fcec5fd4edad, [0, 0, 869, 50], [845, 50, 50, 50]),
    ("youtube", 8, 10, "p0.8", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("youtube", 8, 20, "p0.8", 0xecc7c6909d0f40f1, [0, 0, 370, 14], [356, 14, 14, 14]),
    ("youtube", 8, 40, "p0.8", 0xe6d5d1d1959335a7, [0, 0, 365, 55], [315, 55, 55, 55]),
    ("youtube", 10, 20, "p0.8", 0xcbf29ce484222325, [0, 0, 214, 0], [214, 0, 0, 0]),
    ("youtube", 10, 40, "p0.8", 0x95d1a168ed3175cd, [0, 0, 212, 50], [164, 50, 50, 50]),
    ("youtube", 4, 10, "p0.95", 0xa8c95d4e10d2442a, [0, 0, 42, 26], [2830, 27, 27, 26]),
    ("youtube", 4, 20, "p0.95", 0xcbc2a6ea34f6fab3, [0, 0, 28, 27], [2829, 28, 28, 27]),
    ("youtube", 4, 40, "p0.95", 0xcbc2a6ea34f6fab3, [0, 0, 28, 27], [2829, 28, 28, 27]),
    ("youtube", 6, 10, "p0.95", 0x0474171961acf4ce, [0, 0, 895, 1], [894, 1, 1, 1]),
    ("youtube", 6, 20, "p0.95", 0xf37a682066d7fc0d, [0, 0, 41, 29], [866, 29, 29, 29]),
    ("youtube", 6, 40, "p0.95", 0xf37a682066d7fc0d, [0, 0, 40, 36], [859, 36, 36, 36]),
    ("youtube", 8, 10, "p0.95", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("youtube", 8, 20, "p0.95", 0xb98d0e5201a493f2, [0, 0, 370, 14], [356, 14, 14, 14]),
    ("youtube", 8, 40, "p0.95", 0x556b4d4a6c23e671, [0, 0, 302, 38], [332, 38, 38, 38]),
    ("youtube", 10, 20, "p0.95", 0xcbf29ce484222325, [0, 0, 214, 0], [214, 0, 0, 0]),
    ("youtube", 10, 40, "p0.95", 0x7d779b029a9eaa12, [0, 0, 174, 33], [181, 33, 33, 33]),
    ("youtube", 4, 10, "top1", 0xa8c95d4e10d2442a, [0, 0, 1582, 26], [2830, 27, 27, 26]),
    ("youtube", 4, 20, "top1", 0xcbc2a6ea34f6fab3, [0, 0, 2025, 27], [2829, 28, 28, 27]),
    ("youtube", 4, 40, "top1", 0xcbc2a6ea34f6fab3, [0, 0, 2178, 27], [2829, 28, 28, 27]),
    ("youtube", 6, 10, "top1", 0x0474171961acf4ce, [0, 0, 895, 1], [894, 1, 1, 1]),
    ("youtube", 6, 20, "top1", 0x24b8449a819ffd46, [0, 0, 755, 27], [868, 27, 27, 27]),
    ("youtube", 6, 40, "top1", 0xbffc05c371c9f5f7, [0, 0, 774, 26], [869, 26, 26, 26]),
    ("youtube", 8, 10, "top1", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("youtube", 8, 20, "top1", 0x24ab6c2ec5e17ed5, [0, 0, 370, 14], [356, 14, 14, 14]),
    ("youtube", 8, 40, "top1", 0x21f7732e4936ecff, [0, 0, 291, 28], [342, 28, 28, 28]),
    ("youtube", 10, 20, "top1", 0xcbf29ce484222325, [0, 0, 214, 0], [214, 0, 0, 0]),
    ("youtube", 10, 40, "top1", 0x1d796f4dcd27219c, [0, 0, 160, 28], [186, 28, 28, 28]),
    ("youtube", 4, 10, "top4", 0x1ae4057d6541d2bf, [0, 0, 1454, 45], [2811, 46, 46, 45]),
    ("youtube", 4, 20, "top4", 0xa57699395d2f1da7, [0, 0, 2057, 54], [2802, 55, 55, 54]),
    ("youtube", 4, 40, "top4", 0x3d270af991d39a7e, [0, 0, 2209, 54], [2802, 55, 55, 54]),
    ("youtube", 6, 10, "top4", 0x65e8c878a3fb2eb8, [0, 0, 895, 1], [894, 1, 1, 1]),
    ("youtube", 6, 20, "top4", 0x2c274e9a4dad546a, [0, 0, 794, 46], [849, 46, 46, 46]),
    ("youtube", 6, 40, "top4", 0x0a11fae7713e3448, [0, 0, 801, 51], [844, 51, 51, 51]),
    ("youtube", 8, 10, "top4", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("youtube", 8, 20, "top4", 0x086bfe0690716720, [0, 0, 370, 14], [356, 14, 14, 14]),
    ("youtube", 8, 40, "top4", 0x6decd197a4142d58, [0, 0, 318, 47], [323, 47, 47, 47]),
    ("youtube", 10, 20, "top4", 0xcbf29ce484222325, [0, 0, 214, 0], [214, 0, 0, 0]),
    ("youtube", 10, 40, "top4", 0x96fc0ffdeacfa2b8, [0, 0, 181, 47], [167, 47, 47, 47]),
    ("youtube", 4, 10, "top8", 0x93173252b74835b5, [0, 0, 251, 56], [2800, 57, 57, 56]),
    ("youtube", 4, 20, "top8", 0xb90a157d6ba2cd2a, [0, 0, 2363, 89], [2767, 90, 90, 89]),
    ("youtube", 4, 40, "top8", 0xb796ea78a53c9f0f, [0, 0, 2670, 75], [2781, 76, 76, 75]),
    ("youtube", 6, 10, "top8", 0x146d694c5875bf5b, [0, 0, 895, 1], [894, 1, 1, 1]),
    ("youtube", 6, 20, "top8", 0xf6bf2de349f92245, [0, 0, 855, 50], [845, 50, 50, 50]),
    ("youtube", 6, 40, "top8", 0xc3fedfbe0c56e3de, [0, 0, 877, 55], [840, 55, 55, 55]),
    ("youtube", 8, 10, "top8", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("youtube", 8, 20, "top8", 0xfed02cffcd675210, [0, 0, 370, 14], [356, 14, 14, 14]),
    ("youtube", 8, 40, "top8", 0x8017b2a09da52973, [0, 0, 358, 59], [311, 59, 59, 59]),
    ("youtube", 10, 20, "top8", 0xcbf29ce484222325, [0, 0, 214, 0], [214, 0, 0, 0]),
    ("youtube", 10, 40, "top8", 0xc2997332532cd9f2, [0, 0, 205, 48], [166, 48, 48, 48]),
    ("ties", 4, 10, "avg", 0x93fa601529b3c600, [0, 0, 2857, 17], [2840, 17, 17, 17]),
    ("ties", 4, 20, "avg", 0x92f98632502118a4, [0, 0, 141, 47], [2810, 47, 47, 47]),
    ("ties", 4, 40, "avg", 0x4a38092060429011, [0, 0, 141, 48], [2809, 48, 48, 48]),
    ("ties", 6, 10, "avg", 0xcbf29ce484222325, [0, 0, 895, 0], [895, 0, 0, 0]),
    ("ties", 6, 20, "avg", 0xa16a66b9d7142ba5, [0, 0, 895, 4], [891, 4, 4, 4]),
    ("ties", 6, 40, "avg", 0x46ffd9e74d3fd058, [0, 0, 895, 17], [878, 17, 17, 17]),
    ("ties", 8, 10, "avg", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("ties", 8, 20, "avg", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("ties", 8, 40, "avg", 0xedda0dfdd1dcc8bf, [0, 0, 370, 12], [358, 12, 12, 12]),
    ("ties", 10, 20, "avg", 0xcbf29ce484222325, [0, 0, 214, 0], [214, 0, 0, 0]),
    ("ties", 10, 40, "avg", 0xbd6204a8176dfae7, [0, 0, 214, 13], [201, 13, 13, 13]),
    ("ties", 4, 10, "sum", 0xc5d6d70893f70ffe, [0, 0, 2857, 17], [2840, 17, 17, 17]),
    ("ties", 4, 20, "sum", 0x651d2ad07f6a5ea2, [0, 0, 171, 35], [2796, 61, 61, 35]),
    ("ties", 4, 40, "sum", 0x624a35291c0ae42c, [0, 0, 2211, 127], [2669, 188, 188, 127]),
    ("ties", 6, 10, "sum", 0xcbf29ce484222325, [0, 0, 895, 0], [895, 0, 0, 0]),
    ("ties", 6, 20, "sum", 0xf23b78fda17a8107, [0, 0, 895, 4], [891, 4, 4, 4]),
    ("ties", 6, 40, "sum", 0x9e550c7c3032d345, [0, 0, 895, 17], [878, 17, 17, 17]),
    ("ties", 8, 10, "sum", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("ties", 8, 20, "sum", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("ties", 8, 40, "sum", 0x83c08ecebc118918, [0, 0, 370, 12], [358, 12, 12, 12]),
    ("ties", 10, 20, "sum", 0xcbf29ce484222325, [0, 0, 214, 0], [214, 0, 0, 0]),
    ("ties", 10, 40, "sum", 0x42a53efb77e7bf49, [0, 0, 214, 13], [201, 13, 13, 13]),
    ("ties", 4, 10, "min", 0x453131902ba733b8, [0, 0, 2857, 17], [2840, 17, 17, 17]),
    ("ties", 4, 20, "min", 0x92f98632502118a4, [2745, 0, 112, 41], [2816, 41, 41, 41]),
    ("ties", 4, 40, "min", 0x4a38092060429011, [2750, 0, 107, 40], [2817, 40, 40, 40]),
    ("ties", 6, 10, "min", 0xcbf29ce484222325, [0, 0, 895, 0], [895, 0, 0, 0]),
    ("ties", 6, 20, "min", 0xf2e9ee0c6bbba677, [0, 0, 895, 4], [891, 4, 4, 4]),
    ("ties", 6, 40, "min", 0xb266435f85e5e55f, [0, 0, 895, 17], [878, 17, 17, 17]),
    ("ties", 8, 10, "min", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("ties", 8, 20, "min", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("ties", 8, 40, "min", 0x86f12c660e35d5f5, [0, 0, 370, 12], [358, 12, 12, 12]),
    ("ties", 10, 20, "min", 0xcbf29ce484222325, [0, 0, 214, 0], [214, 0, 0, 0]),
    ("ties", 10, 40, "min", 0x5fd9c6e3f2caa865, [0, 0, 214, 13], [201, 13, 13, 13]),
    ("ties", 4, 10, "p0.55", 0xfd7fd1a8404d6815, [0, 0, 2857, 17], [2840, 17, 17, 17]),
    ("ties", 4, 20, "p0.55", 0x293718186ec5c10f, [0, 0, 62, 20], [2837, 20, 20, 20]),
    ("ties", 4, 40, "p0.55", 0x76de2dc94ba39630, [0, 0, 52, 20], [2837, 20, 20, 20]),
    ("ties", 6, 10, "p0.55", 0xcbf29ce484222325, [0, 0, 895, 0], [895, 0, 0, 0]),
    ("ties", 6, 20, "p0.55", 0x7ae7a35956301337, [0, 0, 895, 4], [891, 4, 4, 4]),
    ("ties", 6, 40, "p0.55", 0x403cb875fcf70416, [0, 0, 895, 17], [878, 17, 17, 17]),
    ("ties", 8, 10, "p0.55", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("ties", 8, 20, "p0.55", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("ties", 8, 40, "p0.55", 0xbda3edd25b973ef4, [0, 0, 370, 12], [358, 12, 12, 12]),
    ("ties", 10, 20, "p0.55", 0xcbf29ce484222325, [0, 0, 214, 0], [214, 0, 0, 0]),
    ("ties", 10, 40, "p0.55", 0xb48535d82e103831, [0, 0, 214, 13], [201, 13, 13, 13]),
    ("ties", 4, 10, "p0.8", 0xfd7fd1a8404d6815, [0, 0, 2857, 17], [2840, 17, 17, 17]),
    ("ties", 4, 20, "p0.8", 0x293718186ec5c10f, [0, 0, 62, 20], [2837, 20, 20, 20]),
    ("ties", 4, 40, "p0.8", 0x76de2dc94ba39630, [0, 0, 52, 20], [2837, 20, 20, 20]),
    ("ties", 6, 10, "p0.8", 0xcbf29ce484222325, [0, 0, 895, 0], [895, 0, 0, 0]),
    ("ties", 6, 20, "p0.8", 0x7ae7a35956301337, [0, 0, 895, 4], [891, 4, 4, 4]),
    ("ties", 6, 40, "p0.8", 0x403cb875fcf70416, [0, 0, 895, 17], [878, 17, 17, 17]),
    ("ties", 8, 10, "p0.8", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("ties", 8, 20, "p0.8", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("ties", 8, 40, "p0.8", 0xbda3edd25b973ef4, [0, 0, 370, 12], [358, 12, 12, 12]),
    ("ties", 10, 20, "p0.8", 0xcbf29ce484222325, [0, 0, 214, 0], [214, 0, 0, 0]),
    ("ties", 10, 40, "p0.8", 0x879e8385ad268ed9, [0, 0, 214, 13], [201, 13, 13, 13]),
    ("ties", 4, 10, "p0.95", 0xfd7fd1a8404d6815, [0, 0, 2857, 17], [2840, 17, 17, 17]),
    ("ties", 4, 20, "p0.95", 0x293718186ec5c10f, [0, 0, 62, 20], [2837, 20, 20, 20]),
    ("ties", 4, 40, "p0.95", 0x76de2dc94ba39630, [0, 0, 52, 20], [2837, 20, 20, 20]),
    ("ties", 6, 10, "p0.95", 0xcbf29ce484222325, [0, 0, 895, 0], [895, 0, 0, 0]),
    ("ties", 6, 20, "p0.95", 0x7ae7a35956301337, [0, 0, 895, 4], [891, 4, 4, 4]),
    ("ties", 6, 40, "p0.95", 0x403cb875fcf70416, [0, 0, 895, 17], [878, 17, 17, 17]),
    ("ties", 8, 10, "p0.95", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("ties", 8, 20, "p0.95", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("ties", 8, 40, "p0.95", 0xbda3edd25b973ef4, [0, 0, 370, 12], [358, 12, 12, 12]),
    ("ties", 10, 20, "p0.95", 0xcbf29ce484222325, [0, 0, 214, 0], [214, 0, 0, 0]),
    ("ties", 10, 40, "p0.95", 0x879e8385ad268ed9, [0, 0, 214, 13], [201, 13, 13, 13]),
    ("ties", 4, 10, "top1", 0xfd7fd1a8404d6815, [0, 0, 2857, 17], [2840, 17, 17, 17]),
    ("ties", 4, 20, "top1", 0x293718186ec5c10f, [0, 0, 2857, 20], [2837, 20, 20, 20]),
    ("ties", 4, 40, "top1", 0x76de2dc94ba39630, [0, 0, 2857, 20], [2837, 20, 20, 20]),
    ("ties", 6, 10, "top1", 0xcbf29ce484222325, [0, 0, 895, 0], [895, 0, 0, 0]),
    ("ties", 6, 20, "top1", 0x7ae7a35956301337, [0, 0, 895, 4], [891, 4, 4, 4]),
    ("ties", 6, 40, "top1", 0x403cb875fcf70416, [0, 0, 895, 17], [878, 17, 17, 17]),
    ("ties", 8, 10, "top1", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("ties", 8, 20, "top1", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("ties", 8, 40, "top1", 0xbda3edd25b973ef4, [0, 0, 370, 12], [358, 12, 12, 12]),
    ("ties", 10, 20, "top1", 0xcbf29ce484222325, [0, 0, 214, 0], [214, 0, 0, 0]),
    ("ties", 10, 40, "top1", 0x879e8385ad268ed9, [0, 0, 214, 13], [201, 13, 13, 13]),
    ("ties", 4, 10, "top4", 0x768b62b5e54d0a75, [0, 0, 2857, 17], [2840, 17, 17, 17]),
    ("ties", 4, 20, "top4", 0xca9de540070b774f, [0, 0, 2857, 20], [2837, 20, 20, 20]),
    ("ties", 4, 40, "top4", 0x79baf85cefa49370, [0, 0, 2857, 20], [2837, 20, 20, 20]),
    ("ties", 6, 10, "top4", 0xcbf29ce484222325, [0, 0, 895, 0], [895, 0, 0, 0]),
    ("ties", 6, 20, "top4", 0x35dc71b5e0f2faf7, [0, 0, 895, 4], [891, 4, 4, 4]),
    ("ties", 6, 40, "top4", 0x58b7f1b63460c036, [0, 0, 895, 17], [878, 17, 17, 17]),
    ("ties", 8, 10, "top4", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("ties", 8, 20, "top4", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("ties", 8, 40, "top4", 0x9985da2266add134, [0, 0, 370, 12], [358, 12, 12, 12]),
    ("ties", 10, 20, "top4", 0xcbf29ce484222325, [0, 0, 214, 0], [214, 0, 0, 0]),
    ("ties", 10, 40, "top4", 0xe7a490bae0768f39, [0, 0, 214, 13], [201, 13, 13, 13]),
    ("ties", 4, 10, "top8", 0xb41709afe8d4e3b7, [0, 0, 2857, 17], [2840, 17, 17, 17]),
    ("ties", 4, 20, "top8", 0x152e442ad284f2ef, [0, 0, 2857, 20], [2837, 20, 20, 20]),
    ("ties", 4, 40, "top8", 0xebd99b2e324a7e70, [0, 0, 2857, 20], [2837, 20, 20, 20]),
    ("ties", 6, 10, "top8", 0xcbf29ce484222325, [0, 0, 895, 0], [895, 0, 0, 0]),
    ("ties", 6, 20, "top8", 0x14b00cbdecd3fb17, [0, 0, 895, 4], [891, 4, 4, 4]),
    ("ties", 6, 40, "top8", 0x21575b18486a0bc6, [0, 0, 895, 17], [878, 17, 17, 17]),
    ("ties", 8, 10, "top8", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("ties", 8, 20, "top8", 0xcbf29ce484222325, [0, 0, 370, 0], [370, 0, 0, 0]),
    ("ties", 8, 40, "top8", 0x460a03e907505a34, [0, 0, 370, 12], [358, 12, 12, 12]),
    ("ties", 10, 20, "top8", 0xcbf29ce484222325, [0, 0, 214, 0], [214, 0, 0, 0]),
    ("ties", 10, 40, "top8", 0x99debc224364dce9, [0, 0, 214, 13], [201, 13, 13, 13]),
];

#[test]
fn warm_engine_walks_match_their_golden_digests() {
    use ic_engine::Engine;
    let counts = |eng: &Engine| -> [u64; 4] {
        let entries = eng.obs_registry().flat_entries();
        WALK_COUNTERS.map(|name| match entries.iter().find(|(n, _)| n == name) {
            Some(&(_, value)) => value as u64,
            None => panic!("{name} not registered"),
        })
    };
    let delta = |before: [u64; 4], after: [u64; 4]| -> [u64; 4] {
        std::array::from_fn(|i| after[i] - before[i])
    };
    let mut got = Vec::new();
    for (name, wg) in &youtube_and_ties() {
        for (label, agg) in WALK_DECK {
            // One engine per aggregation: every `(k, s)` family it walks
            // starts cold, and its second walk is the only warm one.
            let eng = Engine::with_threads(wg.clone(), 1);
            for k in [4usize, 6, 8, 10] {
                // A size bound must exceed k: (10, 10) is not a query.
                for s in [10usize, 20, 40].into_iter().filter(|&s| s > k) {
                    let query = ic_core::Query::new(k, 20, agg).size_bound(s, true);
                    let mut walks = [[0; 4]; 2];
                    let mut answers = Vec::new();
                    for walk in &mut walks {
                        eng.clear_result_cache();
                        let before = counts(&eng);
                        let answer = eng.run_batch(std::slice::from_ref(&query));
                        *walk = delta(before, counts(&eng));
                        answers.push(answer.into_iter().next().unwrap().unwrap());
                    }
                    assert_eq!(answers[0], answers[1], "{name} k={k} s={s} {label}");
                    let digest = answers_digest(&answers[0]);
                    got.push((*name, k, s, label, digest, walks[0], walks[1]));
                }
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(name, k, s, label, d, cold, warm)| {
            format!("    (\"{name}\", {k}, {s}, \"{label}\", {d:#018x}, {cold:?}, {warm:?}),\n")
        })
        .collect();
    assert_eq!(got, GOLDEN_WALKS, "digests now:\n{table}");
}

/// The `(k, s) = (4, 20)` greedy family (r = 20) on the quick `youtube`
/// analog, walked by each class of [`WALK_DECK`] in turn, as `miss_mix`'s
/// size-bounded classes share their families: each class's second walk
/// settles its skips from the memo's records. For `avg` and `min` at
/// least 80% of the seeds it skips are jumped with their 32-slot block,
/// and over every class at least 90% of the skips read no seed entry (a
/// block jump or a slot record).
#[test]
fn a_warm_walk_skips_most_seeds_without_reading_an_entry() {
    use ic_engine::Engine;
    const SKIPS: [&str; 3] = [
        "core.local_seeds_skipped",
        "core.local_seeds_jumped",
        "core.local_seeds_capped",
    ];
    let [(_, youtube), _] = youtube_and_ties();
    let eng = Engine::with_threads(youtube, 1);
    let counts = || -> [u64; 3] {
        let entries = eng.obs_registry().flat_entries();
        SKIPS.map(|name| match entries.iter().find(|(n, _)| n == name) {
            Some(&(_, value)) => value as u64,
            None => panic!("{name} not registered"),
        })
    };
    let walk = |agg: Aggregation| {
        let query = ic_core::Query::new(4, 20, agg).size_bound(20, true);
        eng.clear_result_cache();
        let before = counts();
        eng.run_batch(std::slice::from_ref(&query));
        let after = counts();
        std::array::from_fn::<u64, 3, _>(|i| after[i] - before[i])
    };
    // The first walk builds every entry; the first walks of the classes
    // learn the verdicts their bars ask for.
    for (_, agg) in WALK_DECK {
        walk(agg);
    }
    let (mut skipped, mut untouched) = (0, 0);
    for (label, agg) in WALK_DECK {
        let [skips, jumped, capped] = walk(agg);
        assert!(
            jumped + capped <= skips,
            "{label}: jumps and caps are skips"
        );
        if matches!(agg, Aggregation::Average | Aggregation::Min) {
            assert!(
                jumped * 5 >= skips * 4,
                "{label}: {jumped} of {skips} skips jumped"
            );
        }
        skipped += skips;
        untouched += jumped + capped;
    }
    assert!(
        untouched * 10 >= skipped * 9,
        "{untouched} of {skipped} skips read no entry"
    );
}
