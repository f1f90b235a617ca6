//! Observational equivalence of the zero-rebuild peeling engine: the
//! arena solvers against their from-scratch oracles through the arena
//! arm of the agreement harness (`tests/common/reference.rs`), and below
//! the solver level, where no harness arm reaches: every reader of one
//! peel across tie groups, arena deletions against a from-scratch
//! re-peel, the zero-allocation guarantee of the steady-state peel
//! loop, and one deterministic end-to-end check on a realistic workload.

use ic_core::algo::{oracle, ExtremumIndex};
use ic_core::{Aggregation, Community, Extremum, Query, SearchError};
use ic_gen::{barabasi_albert, chung_lu, pagerank_weights, GraphSeed};
use ic_graph::{graph_from_edges, WeightedGraph};
use ic_kcore::{kcore_mask, maximal_kcore_components, Budget, GraphSnapshot, PeelArena};
use proptest::prelude::*;
use reference::{agree_on_arena, Arena};
use std::sync::Arc;
use workload::{arb_workload, Shape};

#[path = "../../../tests/common/reference.rs"]
mod reference;
#[path = "../../../tests/common/workload.rs"]
mod workload;

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
    fn every_reader_of_the_peel_matches_the_oracle_across_tie_groups(
        wg in arb_workload(Shape::Families(0..3), 4..5, 20..90), k in 1usize..4,
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
            (Extremum::Min, oracle::min_topr as fn(&WeightedGraph, usize, usize) -> Result<Vec<Community>, SearchError>),
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
    fn arena_deletions_match_scratch_on_community_walks(
        wg in arb_workload(Shape::Families(0..3), 0..3, 20..90),
        k in 1usize..4,
    ) {
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

    /// Algorithm 1 on the arena is bit-identical to `oracle::sum_naive`
    /// and equal in value to Algorithm 2. (The positive weight models
    /// only: Corollary 2 assumes positive weights.)
    #[test]
    fn sum_naive_is_observationally_identical(
        wg in arb_workload(Shape::Families(0..3), 0..3, 20..90),
        k in 1usize..4,
        r in 1usize..5,
        surplus in any::<bool>(),
    ) {
        let agg = match surplus {
            true => Aggregation::SumSurplus { alpha: 1.5 },
            false => Aggregation::Sum,
        };
        let on = Arena { naive: true, ..Arena::default() };
        agree_on_arena(&wg, &[Query::new(k, r, agg)], &on)?;
    }

    /// Every weight model, zeros and one-ulp pairs included: a peel
    /// compares values, never sums them.
    #[test]
    fn minmax_peeling_is_observationally_identical(
        wg in arb_workload(Shape::Families(0..3), 0..8, 20..90),
        k in 1usize..5,
        r in prop_oneof![1usize..6, Just(20)],
    ) {
        let deck = [Query::new(k, r, Aggregation::Min), Query::new(k, r, Aggregation::Max)];
        agree_on_arena(&wg, &deck, &Arena::default())?;
    }
}

proptest! {
    // The stage-A margin only matters when a bound and a value land
    // within rounding of each other; a build without it survives about
    // a hundred cases, so these properties run many cheap ones, under
    // the weight models built to land on the keep rule's edges (zeros,
    // one-ulp pairs, sums past 2⁵³) beside the rest.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn tic_improved_is_observationally_identical(
        wg in arb_workload(Shape::Families(0..3), 0..8, 20..90),
        k in 1usize..4,
        r in prop_oneof![1usize..6, Just(20)],
        (agg, eps) in (0usize..3, prop_oneof![Just(0.0), Just(0.1), Just(0.3)]),
    ) {
        let agg = [
            Aggregation::Sum,
            Aggregation::SumSurplus { alpha: 0.5 },
            Aggregation::SumSurplus { alpha: 1.5 },
        ][agg];
        agree_on_arena(&wg, &[Query::new(k, r, agg).approx(eps)], &Arena::default())?;
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
    let deck: Vec<Query> = [2, 4]
        .into_iter()
        .flat_map(|k| [1, 5, 10].map(move |r| (k, r)))
        .flat_map(|(k, r)| {
            [
                Query::new(k, r, Aggregation::Min),
                Query::new(k, r, Aggregation::Max),
                Query::new(k, r, Aggregation::Sum),
                Query::new(k, r, Aggregation::Sum).approx(0.1),
            ]
        })
        .collect();
    let on = Arena {
        naive: true,
        ..Arena::default()
    };
    agree_on_arena(&wg, &deck, &on).unwrap();
}
