//! Observational equivalence of the zero-rebuild peeling engine.
//!
//! The arena-based solvers in `ic_core::algo` must produce *identical*
//! top-r output — same communities, same values, same order — as the
//! from-scratch re-peel oracles in `ic_core::algo::oracle`, across random
//! ER / Barabási-Albert / Chung-Lu graphs, several weight models, and
//! every supported aggregation. A final test pins the zero-allocation
//! guarantee of the steady-state peel loop.

use ic_core::algo::{self, oracle, ExtremumIndex};
use ic_core::{Aggregation, Community, Extremum, Query, SearchError};
use ic_gen::{
    barabasi_albert, chung_lu, gnm, pagerank_weights, pareto_weights, rank_weights,
    uniform_weights, GraphSeed,
};
use ic_graph::{graph_from_edges, Graph, WeightedGraph};
use ic_kcore::{kcore_mask, maximal_kcore_components, Budget, GraphSnapshot, PeelArena};
use proptest::prelude::*;
use std::sync::Arc;

type Solved = Result<Vec<Community>, SearchError>;

/// Per-graph harness over the snapshot-based arena solvers (the
/// per-graph free functions were removed from the public API in PR 4).
fn on_snapshot(
    wg: &WeightedGraph,
    f: impl FnOnce(&GraphSnapshot, &mut PeelArena) -> Solved,
) -> Solved {
    let snap = GraphSnapshot::new(wg.clone());
    let mut arena = PeelArena::for_graph(snap.graph());
    f(&snap, &mut arena)
}

/// The `min`/`max` route: a forest built on the snapshot, then read.
fn arena_peel_topr(wg: &WeightedGraph, k: usize, r: usize, dir: Extremum) -> Solved {
    on_snapshot(wg, |snap, arena| {
        Query::new(k, r, dir.aggregation()).solve_on(snap, arena)
    })
}

fn arena_sum_naive(wg: &WeightedGraph, k: usize, r: usize, agg: Aggregation) -> Solved {
    on_snapshot(wg, |snap, arena| algo::sum_naive_on(snap, k, r, agg, arena))
}

fn arena_tic_improved(
    wg: &WeightedGraph,
    k: usize,
    r: usize,
    agg: Aggregation,
    eps: f64,
) -> Solved {
    on_snapshot(wg, |snap, arena| {
        algo::tic_improved_on(snap, k, r, agg, eps, arena)
    })
}

/// Weights built to land on the keep-rule's edges: `tic_improved`
/// decides `value >= need` on exact bits, and its stage-A bound is
/// compared through a rounding margin, so the generator has to produce
/// value ties, near ties and sums that round.
fn edge_weights(model: u32, n: usize, seed: u64) -> Vec<f64> {
    uniform_weights(n, 0.0, 8.0, GraphSeed(seed))
        .into_iter()
        .map(|u| {
            let draw = u as u64; // uniform on 0..8
            match model {
                // Tie-heavy: many communities share a value.
                3 => (1 + draw % 3) as f64,
                // Zero weights: a child can tie its parent.
                4 => (draw % 3) as f64,
                // Pairs one ulp apart: values that differ in the last bit.
                5 => f64::from_bits((0.1 * (1 + draw % 4) as f64).to_bits() + draw / 4),
                // 1e15-scale: sums pass 2^53, so the journal fold and the
                // sorted-order sum round differently.
                _ => 1e15 + draw as f64,
            }
        })
        .collect()
}

/// One synthetic workload: a random graph from one of the three family
/// generators plus a weight model, both seed-derived.
fn arb_workload() -> impl Strategy<Value = WeightedGraph> {
    arb_workload_with(0..3)
}

/// `weight_models` past 2 are the [`edge_weights`] models. Only the TIC
/// property takes them: `sum_naive_on` and its oracle disagree on which
/// of several equal-valued communities to keep once zero weights let a
/// child tie its parent (Corollary 2 assumes positive weights).
fn arb_workload_with(weight_models: std::ops::Range<u32>) -> impl Strategy<Value = WeightedGraph> {
    (
        0u32..3,       // family: ER / BA / Chung-Lu
        weight_models, // uniform / pareto / rank permutation / edge models
        20usize..90,   // vertices
        any::<u64>(),  // seed
    )
        .prop_map(|(family, weight_model, n, seed)| {
            let g: Graph = match family {
                0 => gnm(n, n * 2, GraphSeed(seed)),
                1 => barabasi_albert(n, 3, GraphSeed(seed)),
                _ => chung_lu(n, n * 2, 2.5, GraphSeed(seed)),
            };
            let w: Vec<f64> = match weight_model {
                0 => uniform_weights(n, 0.5, 50.0, GraphSeed(seed ^ 0xabcd)),
                1 => pareto_weights(n, 1.5, GraphSeed(seed ^ 0xabcd)),
                2 => rank_weights(n, GraphSeed(seed ^ 0xabcd)),
                m => edge_weights(m, n, seed ^ 0xabcd),
            };
            WeightedGraph::new(g, w).unwrap()
        })
}

/// `wg` restricted to the vertices `keep` (ascending), renumbered in
/// order, plus `isolated` further vertices without edges; also returns
/// each old vertex's new id. The renaming is monotone and the additions
/// are in no k-core (k ≥ 1), so as long as `keep` holds the maximal
/// k-core the answers are the original ones, renamed — but every
/// community is now a different share of the graph.
fn reshaped(wg: &WeightedGraph, keep: &[u32], isolated: usize) -> (WeightedGraph, Vec<u32>) {
    let mut new_id = vec![u32::MAX; wg.num_vertices()];
    for (new, &old) in keep.iter().enumerate() {
        new_id[old as usize] = new as u32;
    }
    let kept = |v: u32| new_id[v as usize] != u32::MAX;
    let edges: Vec<(u32, u32)> = wg
        .graph()
        .edges()
        .filter(|&(u, v)| kept(u) && kept(v))
        .map(|(u, v)| (new_id[u as usize], new_id[v as usize]))
        .collect();
    let mut weights: Vec<f64> = keep.iter().map(|&v| wg.weight(v)).collect();
    weights.resize(keep.len() + isolated, 1.0);
    let g = graph_from_edges(weights.len(), &edges);
    (WeightedGraph::new(g, weights).unwrap(), new_id)
}

fn renamed(list: &[Community], new_id: &[u32]) -> Vec<Community> {
    list.iter()
        .map(|c| Community {
            vertices: c.vertices.iter().map(|&v| new_id[v as usize]).collect(),
            value: c.value,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn minmax_peeling_is_observationally_identical(wg in arb_workload(),
                                                   k in 1usize..5, r in 1usize..6) {
        let min_inc = arena_peel_topr(&wg, k, r, Extremum::Min).unwrap();
        let min_ora = oracle::min_topr(&wg, k, r).unwrap();
        prop_assert_eq!(&min_inc, &min_ora, "min mismatch");
        let max_inc = arena_peel_topr(&wg, k, r, Extremum::Max).unwrap();
        let max_ora = oracle::max_topr(&wg, k, r).unwrap();
        prop_assert_eq!(&max_inc, &max_ora, "max mismatch");
    }

    #[test]
    fn every_reader_of_the_peel_matches_the_oracle_across_tie_groups(
        wg in arb_workload_with(3..4), k in 1usize..4,
    ) {
        // Three distinct weights over the whole graph make events tie on
        // value, and `r` runs from 1 past the community count, so it
        // lands inside every tie group: the routed solve, the forest — one
        // `r` at a time and all `rs` at once — and the forest a
        // deadline-armed query builds and reads each have to cut every
        // value group exactly as the from-scratch oracle does.
        //
        // The forest materializes a community by one of two routes,
        // chosen from its share of the graph, so the same communities are
        // also read from two reshaped copies: `dense` keeps only the
        // maximal k-core (the largest community is then swept) and
        // `sparse` adds 16 isolated vertices per vertex (every community
        // is then walked).
        let snap = GraphSnapshot::new(wg.clone());
        let mut arena = PeelArena::for_graph(snap.graph());
        let generous = Arc::new(Budget::within(std::time::Duration::from_secs(3600)));
        let everyone: Vec<u32> = wg.graph().vertices().collect();
        let core = kcore_mask(wg.graph(), k).to_vec();
        let (dense, dense_id) = reshaped(&wg, &core, 0);
        let (sparse, sparse_id) = reshaped(&wg, &everyone, 16 * wg.num_vertices());
        for (dir, oracle_topr) in [
            (Extremum::Min, oracle::min_topr as fn(&WeightedGraph, usize, usize) -> Solved),
            (Extremum::Max, oracle::max_topr),
        ] {
            let forest = ExtremumIndex::build_on(&snap, k, dir);
            let (armed, _) = ExtremumIndex::cached_within(&snap, k, dir, Some(&generous), &mut arena)
                .expect("a generous build completes");
            // Every r is sliced out of one read at the largest, as the
            // engine serves a family.
            let r_max = forest.len() + 2;
            let at_once = forest.topr(&wg, r_max).unwrap();
            let dense_forest = ExtremumIndex::build(&dense, k, dir);
            let sparse_forest = ExtremumIndex::build(&sparse, k, dir);
            prop_assert_eq!(dense_forest.len(), forest.len());
            prop_assert_eq!(sparse_forest.len(), forest.len());
            if !forest.is_empty() {
                prop_assert!(dense_forest.swept_in_top(forest.len()) > 0,
                             "{:?} k={}: the sweep route never ran", dir, k);
                prop_assert_eq!(sparse_forest.swept_in_top(forest.len()), 0,
                                "{:?} k={}: the walk route did not serve everything", dir, k);
            }
            let dense_at_once = dense_forest.topr(&dense, r_max).unwrap();
            let sparse_at_once = sparse_forest.topr(&sparse, r_max).unwrap();
            for r in 1..=r_max {
                let prefix = |list: &[Community]| list[..r.min(list.len())].to_vec();
                let expect = oracle_topr(&wg, k, r).unwrap();
                let solved = Query::new(k, r, dir.aggregation()).solve_on(&snap, &mut arena);
                prop_assert_eq!(&solved.unwrap(), &expect, "{:?} solve k={} r={}", dir, k, r);
                prop_assert_eq!(&forest.topr(&wg, r).unwrap(), &expect,
                                "{:?} forest k={} r={}", dir, k, r);
                prop_assert_eq!(&prefix(&at_once), &expect,
                                "{:?} forest, all rs at once, k={} r={}", dir, k, r);
                prop_assert_eq!(&prefix(&dense_at_once), &renamed(&expect, &dense_id),
                                "{:?} swept forest k={} r={}", dir, k, r);
                prop_assert_eq!(&prefix(&sparse_at_once), &renamed(&expect, &sparse_id),
                                "{:?} walked forest k={} r={}", dir, k, r);
                let (read, cut) = armed.read(&wg, r, Some(&*generous)).unwrap();
                prop_assert!(!cut);
                prop_assert_eq!(&read, &expect, "{:?} budgeted forest k={} r={}", dir, k, r);
            }
        }
    }

    #[test]
    fn sum_naive_is_observationally_identical(wg in arb_workload(), k in 1usize..4,
                                              r in 1usize..5, surplus in any::<bool>()) {
        let agg = if surplus {
            Aggregation::SumSurplus { alpha: 1.5 }
        } else {
            Aggregation::Sum
        };
        let inc = arena_sum_naive(&wg, k, r, agg).unwrap();
        let ora = oracle::sum_naive(&wg, k, r, agg).unwrap();
        prop_assert_eq!(inc, ora, "{} k={} r={}", agg.name(), k, r);
    }

    #[test]
    fn arena_deletions_match_scratch_on_community_walks(wg in arb_workload(), k in 1usize..4) {
        // Below the solver level: every (community, victim) deletion on
        // the shared arena must agree with a from-scratch re-peel, with
        // rollbacks interleaved exactly as the solvers interleave them.
        let g = wg.graph();
        let mut arena = PeelArena::for_graph(g);
        let mut scratch = ic_kcore::PeelScratch::new(g.num_vertices());
        for comp in maximal_kcore_components(g, k) {
            arena.load(g, &comp, k);
            for &victim in &comp {
                arena.remove_cascade(victim);
                let mut got: Vec<Vec<u32>> = Vec::new();
                arena.for_each_component(|c| {
                    let mut c = c.to_vec();
                    c.sort_unstable();
                    got.push(c);
                });
                got.sort();
                arena.rollback();
                let mut expected = scratch.connected_kcores(g, &comp, Some(victim), k);
                expected.sort();
                prop_assert_eq!(got, expected, "k={} victim={}", k, victim);
            }
        }
    }
}

proptest! {
    // The stage-A margin only matters when a bound and a value land
    // within rounding of each other; a build without it survives about
    // a hundred cases, so this property runs many (each is ~0.2 ms).
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn tic_improved_is_observationally_identical(wg in arb_workload_with(0..7), k in 1usize..4,
                                                 r in prop_oneof![1usize..5, Just(5), Just(20)],
                                                 surplus in any::<bool>(),
                                                 eps in prop_oneof![Just(0.0), Just(0.1), Just(0.3)]) {
        let agg = if surplus {
            Aggregation::SumSurplus { alpha: 0.5 }
        } else {
            Aggregation::Sum
        };
        let inc = arena_tic_improved(&wg, k, r, agg, eps).unwrap();
        let ora = oracle::tic_improved(&wg, k, r, agg, eps).unwrap();
        prop_assert_eq!(inc, ora, "{} k={} r={} eps={}", agg.name(), k, r, eps);
    }
}

#[test]
fn solver_steady_state_peeling_never_allocates() {
    // The acceptance test for the zero-rebuild engine: after an
    // arena is constructed for a query, the steady-state peel loop (load,
    // cascade, component extraction, rollback) performs zero heap
    // allocations. Exercised over a realistic workload and checked via
    // the arena's allocation-event counter.
    let g = barabasi_albert(600, 4, GraphSeed(11));
    let w = pagerank_weights(&g);
    let wg = WeightedGraph::new(g, w).unwrap();
    let g = wg.graph();
    let k = 4;
    let mut arena = PeelArena::for_graph(g);
    let comps = maximal_kcore_components(g, k);
    assert!(!comps.is_empty(), "fixture must have a non-trivial k-core");
    for comp in &comps {
        arena.load(g, comp, k);
        for &victim in comp.iter().take(50) {
            arena.remove_cascade(victim);
            arena.for_each_component(|c| {
                std::hint::black_box(c.len());
            });
            arena.rollback();
        }
        // Timeline mode (min/max peeling): committed removals.
        arena.load(g, comp, k);
        for &victim in comp.iter() {
            arena.remove_cascade(victim);
            arena.commit();
        }
    }
    assert_eq!(
        arena.alloc_events(),
        0,
        "steady-state peel loop allocated after construction"
    );
}

#[test]
fn incremental_solvers_agree_on_a_realistic_workload() {
    // One deeper, deterministic end-to-end check on a power-law graph
    // with PageRank weights (the paper's experimental setup).
    let g = chung_lu(1500, 6000, 2.5, GraphSeed(42));
    let w = pagerank_weights(&g);
    let wg = WeightedGraph::new(g, w).unwrap();
    for k in [2usize, 4] {
        for r in [1usize, 5, 10] {
            assert_eq!(
                arena_peel_topr(&wg, k, r, Extremum::Min).unwrap(),
                oracle::min_topr(&wg, k, r).unwrap()
            );
            assert_eq!(
                arena_peel_topr(&wg, k, r, Extremum::Max).unwrap(),
                oracle::max_topr(&wg, k, r).unwrap()
            );
            assert_eq!(
                arena_sum_naive(&wg, k, r, Aggregation::Sum).unwrap(),
                oracle::sum_naive(&wg, k, r, Aggregation::Sum).unwrap()
            );
            for eps in [0.0, 0.1] {
                assert_eq!(
                    arena_tic_improved(&wg, k, r, Aggregation::Sum, eps).unwrap(),
                    oracle::tic_improved(&wg, k, r, Aggregation::Sum, eps).unwrap()
                );
            }
        }
    }
}
