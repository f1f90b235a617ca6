//! Cross-solver conformance: every path to the same query must give the
//! same answer — the top r of Definition 3.
//!
//! The agreement properties are calls of [`common::agree`], which
//! answers a deck of queries on every backend it enables and compares
//! each answer with one reference: the from-scratch oracle of the
//! query's solver class (`ic_core::algo::oracle`), or the exhaustive
//! `exact_topr` on tiny graphs. They differ only in the graphs they
//! draw, their decks, their case counts and their backends:
//!
//! * **arena** — `Query::solve_on` on a fresh snapshot, every community
//!   checked against Definition 3, and Algorithm 1 beside Algorithm 2;
//! * **engine** — `Engine::run_batch` at 1, 2 and 4 threads, each query
//!   inside one mixed, duplicate-heavy batch and alone;
//! * **store** — a warmed engine persisted, reopened owned and eager,
//!   and mapped with its adjacency check owed (`tests/store.rs`,
//!   `tests/progressive.rs`);
//! * **sharded** — `ic_shard::ShardedEngine` over disconnected blocks:
//!   exact classes bit-identical, the rest refused with a typed error;
//! * **updates** — after every batch of edge toggles, the engine equals
//!   a fresh engine on the mutated graph and subscription deltas replay
//!   to the fresh answer (`tests/progressive.rs`, `tests/sub.rs`).
//!
//! The deterministic paths must agree **bit for bit** — same vertex
//! sets, same values, same order — including the edge cases `r = 1`,
//! `r > #communities`, `k = 1` and `k > degeneracy`, and value ties at
//! every cut. Heuristic local search is deterministic too, and held to
//! the paper-printed `oracle::local_search`. The arena arm alone, which
//! needs no engine, also runs from the ic-core suites.

use common::{agree, arb_half_tied, arb_workload, size_bound, Arena, Backends, Shape};
use ic_core::algo::{self, oracle, LocalSearchConfig};
use ic_core::{Aggregation, Community, Query};
use ic_engine::{AnswerStatus, BatchOptions, Engine, EngineError};
use ic_gen::{planted_partition, rank_weights, GraphSeed, PlantedPartitionConfig};
use ic_graph::WeightedGraph;
use ic_kcore::degeneracy;
use proptest::prelude::*;

mod common;

fn engine(wg: &WeightedGraph, threads: usize) -> Engine {
    Engine::with_threads(wg.clone(), threads)
}

fn unwrap_batch(results: Vec<Result<Vec<Community>, ic_core::SearchError>>) -> Vec<Vec<Community>> {
    results
        .into_iter()
        .map(|r| r.expect("conformance queries are valid"))
        .collect()
}

/// Every path a query can take on one engine: the arena beside
/// Algorithm 1, and the engine at 1, 2 and 4 threads and alone. (The
/// store arm runs in `tests/store.rs` and `tests/progressive.rs`.)
fn all_paths() -> Backends {
    Backends {
        arena: Arena {
            naive: true,
            ..Arena::default()
        },
        threads: &[1, 2, 4],
        alone: true,
        ..Backends::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// min/max across the k grid, k = 1 and k > degeneracy included,
    /// and r from 1 past the community count.
    #[test]
    fn node_domination_paths_agree(wg in arb_half_tied(Shape::Families(0..4), 20..72)) {
        let d = degeneracy(wg.graph()) as usize;
        let deck: Vec<Query> = [1, 2, (d / 2).max(1), d + 1]
            .into_iter()
            .flat_map(|k| [1, 3, 10_000].map(move |r| (k, r)))
            .flat_map(|(k, r)| [Aggregation::Min, Aggregation::Max].map(|agg| Query::new(k, r, agg)))
            .collect();
        agree(&wg, &deck, &all_paths())?;
    }

    /// sum / sum-surplus through Algorithm 1 and Algorithm 2, exact and
    /// approximate.
    #[test]
    fn removal_decreasing_paths_agree(
        wg in arb_half_tied(Shape::Families(0..4), 20..72),
        k in 1usize..4,
    ) {
        let mut deck = Vec::new();
        for agg in [Aggregation::Sum, Aggregation::SumSurplus { alpha: 0.75 }] {
            deck.extend([1, 4].map(|r| Query::new(k, r, agg)));
            deck.extend([0.1, 0.4].map(|eps| Query::new(k, 3, agg).approx(eps)));
        }
        agree(&wg, &deck, &all_paths())?;
    }

    /// Every built-in aggregation: those with a polynomial certificate
    /// unconstrained, the NP-hard rest through their size-bounded
    /// local-search route.
    #[test]
    fn every_builtin_agrees_across_all_paths(
        wg in arb_half_tied(Shape::Families(0..4), 20..72),
        k in 1usize..4,
    ) {
        let deck: Vec<Query> = Aggregation::builtins()
            .into_iter()
            .map(|agg| {
                let certs = agg.certificates();
                match certs.peel_extremum.is_some() || certs.removal_decreasing {
                    true => Query::new(k, 3, agg),
                    false => Query::new(k, 3, agg).size_bound(k + 4, true),
                }
            })
            .collect();
        agree(&wg, &deck, &all_paths())?;
    }

    /// Seven aggregations size-bounded, held to `oracle::local_search`.
    /// Both greedy modes share one batch, so on a multi-thread engine
    /// their families walk side by side. Weights are drawn from
    /// {1, 2, 3}, so candidates tie at every top-r bar.
    #[test]
    fn constrained_paths_agree(
        wg in arb_workload(Shape::Families(0..4), 4..5, 20..72),
        k in 1usize..4,
    ) {
        let deck: Vec<Query> = [true, false]
            .into_iter()
            .flat_map(|greedy| {
                [
                    Aggregation::Average,
                    Aggregation::Min,
                    Aggregation::Sum,
                    Aggregation::SumSurplus { alpha: 0.25 },
                    Aggregation::TopTSum { t: 2 },
                    Aggregation::Percentile { p: 0.75 },
                    Aggregation::GeometricMean,
                ]
                .map(|agg| Query::new(k, 3, agg).size_bound(k + 4, greedy))
            })
            .collect();
        agree(&wg, &deck, &all_paths())?;
    }

    /// Probes inside a duplicate-heavy batch of r-family siblings,
    /// repeats and unrelated queries: each answers as it does alone.
    #[test]
    fn batch_composition_does_not_change_answers(
        wg in arb_half_tied(Shape::Families(0..4), 20..72),
        k in 1usize..4,
    ) {
        let deck = [
            Query::new(k, 2, Aggregation::Min),
            Query::new(k, 5, Aggregation::Max),
            Query::new(k, 3, Aggregation::Sum),
            Query::new(k, 1, Aggregation::Min),
            Query::new(k, 9, Aggregation::Min),
            Query::new(k, 2, Aggregation::Min),
            Query::new(k + 1, 2, Aggregation::Max),
            Query::new(k, 3, Aggregation::Sum).approx(0.2),
        ];
        agree(&wg, &deck, &all_paths())?;
    }

    /// Disconnected blocks behind the scatter-gather front, each shard
    /// holding at most one whole block: `r` far above any shard's
    /// community count and `r`s that cut a value tie between shards,
    /// half the cases under {1, 2, 3} weights.
    #[test]
    fn sharded_blocks_answer_like_the_oracle(
        wg in arb_half_tied(Shape::Blocks, 8..24),
        cap in 8usize..40,
    ) {
        let n = wg.num_vertices();
        let cap = cap.min(2 * ic_graph::largest_component(wg.graph()).len() - 1);
        let mut deck: Vec<Query> = (1..=4)
            .flat_map(|k| {
                [
                    Query::new(k, 3, Aggregation::Min),
                    Query::new(k, 2, Aggregation::Max),
                    Query::new(k, 2 * n, Aggregation::Max),
                    Query::new(k, 2 * n, Aggregation::Sum),
                ]
            })
            .collect();
        deck.push(Query::new(2, 3, Aggregation::Sum).approx(0.2));
        deck.push(Query::new(2, 2, Aggregation::Average).size_bound(6, true));
        let on = Backends { shards: Some((cap, &[2, 3])), ..Backends::default() };
        agree(&wg, &deck, &on)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Tiny graphs — random edges and the four families — against the
    /// exhaustive oracle: `min`, `max` and `sum` at every r from 1 to 8,
    /// and size bounds from k + 1 to 2(k + 1) + 1, the smallest that
    /// admits two disjoint (k + 1)-cliques.
    #[test]
    fn every_solver_class_cuts_ties_like_the_exhaustive_oracle(
        wg in prop_oneof![
            arb_workload(Shape::RandomEdges, 0..5, 4..14),
            arb_workload(Shape::Families(0..4), 0..5, 4..13),
        ],
        k in 1usize..4,
        slack in 0usize..64,
    ) {
        let s = size_bound(k, slack);
        let mut deck: Vec<Query> = [Aggregation::Min, Aggregation::Max, Aggregation::Sum]
            .into_iter()
            .flat_map(|agg| (1..=8).map(move |r| Query::new(k, r, agg)))
            .collect();
        deck.extend([
            Query::new(k, 3, Aggregation::SumSurplus { alpha: 1.5 }),
            Query::new(k, 4, Aggregation::Sum).size_bound(s, true),
            Query::new(k, 1, Aggregation::Average).size_bound(s, true),
        ]);
        let arena = Arena { exhaustive: true, naive: true };
        let on = Backends { arena, threads: &[2], ..Backends::default() };
        agree(&wg, &deck, &on)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mixed fault batches: queries with randomly drawn deadlines (none,
    /// already-expired, generous) share one batch. Whatever each query's
    /// outcome is, the conformance contract holds —
    ///
    /// * `Complete` answers are bit-identical to the query solved alone
    ///   on a fresh engine;
    /// * `Degraded` answers carry a prefix certificate: the
    ///   `proven_prefix_len` leading communities equal the solo answer's
    ///   prefix bit for bit;
    /// * `DeadlineExceeded` is only legal for a query that was actually
    ///   armed;
    ///
    /// and afterwards the engine is undamaged: the arena pool is fully
    /// restored (nothing quarantined — deadlines are not faults) and an
    /// unarmed re-run of the whole batch is bit-identical to solo runs.
    /// The weights include the tie-heavy models, so value ties sit at
    /// the armed `min`/`max` cuts.
    #[test]
    fn mixed_deadline_batches_leave_survivors_bit_identical(
        wg in arb_workload(Shape::Families(0..4), 0..5, 24..72),
        k in 1usize..4,
        picks in proptest::collection::vec(0u8..3, 4),
        threads in 1usize..5,
    ) {
        // Each unconstrained probe with an `r = 1` sibling under the
        // same pick, so armed siblings share a run (ε > 0 ones never do).
        let probes = [
            Query::new(k, 3, Aggregation::Min),
            Query::new(k, 4, Aggregation::Max),
            Query::new(k, 3, Aggregation::Sum),
            Query::new(k, 3, Aggregation::Sum).approx(0.2),
            Query::new(k, 1, Aggregation::Min),
            Query::new(k, 1, Aggregation::Max),
            Query::new(k, 1, Aggregation::Sum),
            Query::new(k, 1, Aggregation::Sum).approx(0.2),
        ];
        let picks: Vec<u8> = picks.iter().chain(&picks).copied().collect();
        let armed: Vec<Query> = probes
            .iter()
            .zip(&picks)
            .map(|(q, pick)| match pick {
                0 => *q,
                1 => q.deadline(std::time::Duration::ZERO),
                _ => q.deadline(std::time::Duration::from_secs(3600)),
            })
            .collect();
        let solo: Vec<Vec<Community>> = probes
            .iter()
            .map(|q| unwrap_batch(engine(&wg, threads).run_batch(&[*q]))[0].clone())
            .collect();

        let eng = engine(&wg, threads);
        let got = eng.run_batch_with(&armed, &BatchOptions::default());
        for (i, res) in got.iter().enumerate() {
            match res {
                Ok(ans) => match ans.status {
                    AnswerStatus::Complete => prop_assert_eq!(
                        &ans.communities, &solo[i],
                        "probe {} complete answer must equal solo", i
                    ),
                    AnswerStatus::Degraded { proven_prefix_len, .. } => {
                        prop_assert!(picks[i] != 0, "unarmed probe {} degraded", i);
                        prop_assert!(proven_prefix_len <= ans.communities.len());
                        prop_assert_eq!(
                            &ans.communities[..proven_prefix_len],
                            &solo[i][..proven_prefix_len],
                            "probe {} proven prefix must be bit-identical", i
                        );
                    }
                    // `AnswerStatus` is non-exhaustive outside ic-engine.
                    _ => prop_assert!(false, "probe {i} unknown answer status"),
                },
                Err(EngineError::DeadlineExceeded) => {
                    prop_assert!(picks[i] != 0, "unarmed probe {} hit a deadline", i);
                }
                Err(e) => prop_assert!(false, "probe {i} unexpected error {e}"),
            }
        }

        // The engine is undamaged: pool fully restored, nothing
        // quarantined, and a fresh unarmed pass is bit-exact.
        prop_assert_eq!(eng.arenas_quarantined(), 0, "deadlines are not faults");
        prop_assert_eq!(
            eng.arenas_available(),
            eng.arenas_created(),
            "every arena must be back in the pool"
        );
        eng.clear_result_cache();
        let rerun = unwrap_batch(eng.run_batch(&probes));
        for (i, got) in rerun.iter().enumerate() {
            prop_assert_eq!(got, &solo[i], "post-deadline probe {} diverged", i);
        }
    }

    /// Pool-restoration invariant under chaotic take / return /
    /// quarantine interleavings (including takers that panic while
    /// holding the free-list lock): once every arena is handed back one
    /// way or the other, `len() == created() - quarantined()`.
    #[test]
    fn arena_pool_len_is_restored_after_chaos(
        ops in proptest::collection::vec(0u8..4, 1..64),
    ) {
        let g = ic_gen::gnm(16, 32, GraphSeed(7));
        let pool = ic_kcore::ArenaPool::for_graph(&g);
        let mut out: Vec<ic_kcore::PeelArena> = Vec::new();
        for op in ops {
            match op {
                0 => out.push(pool.take_arena()),
                1 => {
                    if let Some(a) = out.pop() {
                        pool.put_arena(a);
                    }
                }
                2 => {
                    if let Some(a) = out.pop() {
                        pool.quarantine(a);
                    }
                }
                _ => {
                    // A worker dying mid-pool-access must not wedge the
                    // pool for everyone else (poison-recovering lock).
                    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _a = pool.take_arena();
                        panic!("die while an arena is out");
                    }));
                    prop_assert!(res.is_err());
                    // The arena died with the panicking taker — one
                    // arena gone without reaching the free list. Record
                    // the loss through the quarantine counter (a
                    // zero-sized stand-in; it does not touch `created`),
                    // which is exactly how the engine's executor
                    // accounts for an arena lost to a panicked solver.
                    pool.quarantine(ic_kcore::PeelArena::with_capacity(0, 0));
                }
            }
        }
        for a in out.drain(..) {
            pool.put_arena(a);
        }
        prop_assert_eq!(pool.len(), pool.created() - pool.quarantined());
        // And the pool still serves: a post-chaos take/put round-trips.
        let a = pool.take_arena();
        pool.put_arena(a);
        prop_assert_eq!(pool.len(), pool.created() - pool.quarantined());
    }
}

/// Definition 3's maximality on every route. On K4 with every weight 1
/// the peel's second event witnesses {1, 2, 3}, but its superset
/// {0, 1, 2, 3} has the same value: the whole K4 is the only community,
/// from the routed solve, the oracle, the forest, the engine, the
/// sharded engine and a loopback server alike.
#[test]
fn nested_ties_answer_the_maximal_community_on_every_route() {
    let g = ic_graph::graph_from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
    let wg = WeightedGraph::new(g, vec![1.0; 4]).unwrap();
    let q = Query::new(2, 5, Aggregation::Min);
    let want = vec![Community::new(vec![0, 1, 2, 3], 1.0)];
    assert_eq!(
        oracle::exact_topr(&wg, 2, 5, None, q.aggregation).unwrap(),
        want
    );
    assert_eq!(q.solve(&wg).unwrap(), want, "Query::solve");
    assert_eq!(oracle::min_topr(&wg, 2, 5).unwrap(), want, "oracle");
    let forest = algo::ExtremumIndex::build(&wg, 2, ic_core::Extremum::Min);
    assert_eq!(forest.topr(&wg, 5).unwrap(), want, "forest");
    let eng = std::sync::Arc::new(engine(&wg, 2));
    assert_eq!(unwrap_batch(eng.run_batch(&[q]))[0], want, "engine");

    let dir = common::ScratchDir::new("conformance-k4");
    ic_store::shard::build_shard_stores(&wg, &[2], 4, &dir).unwrap();
    let sharded = ic_shard::ShardedEngine::open_dir(&dir).unwrap();
    let got = sharded.run_batch_pinned(&[q], &BatchOptions::default()).1;
    assert_eq!(got[0].as_ref().unwrap().communities, want, "sharded");

    let server = ic_serve::Server::bind(eng, "127.0.0.1:0", Default::default()).unwrap();
    let mut client = ic_serve::Client::connect(server.local_addr()).unwrap();
    match client.call(1, &q).unwrap() {
        ic_serve::Response::Reply {
            outcome: ic_serve::Outcome::Complete(communities),
            ..
        } => assert_eq!(communities, want, "server"),
        other => panic!("expected a complete reply, got {other:?}"),
    }
    server.shutdown();
}

/// One `(k, max)` family of four `r`s (and its `min` twin) through the
/// scatter-gather front: every shard's forest materializes the family
/// once and each `r` takes its prefix, the gather moves the translated
/// lists into the merge — and with four disconnected blocks in four
/// shards every member merges more than `r` candidates, so both the
/// per-`r` prefixes and the merge's cut at `r` are on the path. Must
/// equal the unsharded engine bit for bit.
#[test]
fn a_sharded_family_of_four_rs_matches_the_unsharded_engine() {
    let blocks = PlantedPartitionConfig {
        communities: 4,
        community_size: 12,
        p_in: 0.7,
        p_out: 0.0,
    };
    let g = planted_partition(&blocks, GraphSeed(5));
    // Five distinct weights over 48 vertices: every `r` here cuts a
    // value tie that straddles shards, where the gather must keep the
    // members `ranking_cmp` keeps (DESIGN §4).
    let w = (0..g.num_vertices())
        .map(|i| ((i * 7 + 3) % 5) as f64 + 1.0)
        .collect();
    let wg = WeightedGraph::new(g, w).unwrap();
    let dir = common::ScratchDir::new("conformance-shards");
    ic_store::shard::build_shard_stores(&wg, &[2], 12, &dir).unwrap();
    let sharded = ic_shard::ShardedEngine::open_dir(&dir).unwrap();
    assert!(sharded.route(2).len() >= 2, "the family must fan out");

    let batch: Vec<Query> = [1usize, 2, 3, 5]
        .into_iter()
        .flat_map(|r| {
            [
                Query::new(2, r, Aggregation::Max),
                Query::new(2, r, Aggregation::Min),
            ]
        })
        .collect();
    let options = BatchOptions::default();
    let want = engine(&wg, 2).run_batch_pinned(&batch, &options).1;
    let got = sharded.run_batch_pinned(&batch, &options).1;
    for ((q, w), g) in batch.iter().zip(&want).zip(&got) {
        let w = w.as_ref().expect("unsharded answer");
        assert_eq!(w.communities.len(), q.r, "{q:?} has r answers to cut at");
        assert_eq!(w, g.as_ref().expect("sharded answer"), "{q:?}");
    }
}

/// Explicit edge-case sweep on a planted graph with known structure.
#[test]
fn edge_cases_agree_across_paths() {
    let g = planted_partition(
        &PlantedPartitionConfig {
            communities: 3,
            community_size: 8,
            p_in: 0.8,
            p_out: 0.02,
        },
        GraphSeed(77),
    );
    let n = g.num_vertices();
    let d = degeneracy(&g) as usize;
    assert!(d >= 2, "planted graph must have cohesive blocks");
    let wg = WeightedGraph::new(g, rank_weights(n, GraphSeed(78))).unwrap();
    let eng = engine(&wg, 2);

    // r = 1 and r far beyond the number of communities. The direct path
    // goes through the unified router (`Query::solve`) — no more
    // hand-dispatching per aggregation.
    for agg in [Aggregation::Min, Aggregation::Max] {
        for r in [1usize, 10_000] {
            for k in [1usize, d, d + 1, d + 10] {
                let direct = Query::new(k, r, agg).solve(&wg).unwrap();
                let got = unwrap_batch(eng.run_batch(&[Query::new(k, r, agg)]));
                assert_eq!(got[0], direct, "{} k={k} r={r}", agg.name());
                if k > d {
                    assert!(got[0].is_empty(), "k > degeneracy must be empty");
                }
            }
        }
    }

    // r > #communities returns every community once, identically.
    let all_min = unwrap_batch(eng.run_batch(&[Query::new(2, 10_000, Aggregation::Min)]));
    assert!(!all_min[0].is_empty());
    let again = Query::new(2, 10_000, Aggregation::Min).solve(&wg).unwrap();
    assert_eq!(all_min[0], again);

    // r = 0 is an error on every path.
    assert!(Query::new(2, 0, Aggregation::Min).solve(&wg).is_err());
    assert!(oracle::min_topr(&wg, 2, 0).is_err());
    assert!(eng.run_batch(&[Query::new(2, 0, Aggregation::Min)])[0].is_err());
}

/// Regression (PR 4, satellite): `BalancedDensity`'s `−∞` sentinel must
/// behave identically on every path — a community carrying a weight
/// majority surfaces with its finite value, minority communities rank
/// as `−∞` and are never served as positive hits, and all three paths
/// agree bit for bit.
#[test]
fn balanced_density_sentinel_is_consistent_across_paths() {
    // Two triangles; the heavy one owns ~90% of the total weight, so it
    // is the unique finite-valued community. A third, disconnected
    // light pair pads the total.
    let g =
        ic_graph::graph_from_edges(8, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 7)]);
    let wg = WeightedGraph::new(g, vec![100.0, 120.0, 110.0, 5.0, 6.0, 7.0, 10.0, 12.0]).unwrap();
    let q = Query::new(2, 3, Aggregation::BalancedDensity).size_bound(6, true);

    let config = LocalSearchConfig {
        k: 2,
        r: 3,
        s: 6,
        greedy: true,
    };
    let seq = algo::local_search(&wg, &config, Aggregation::BalancedDensity).unwrap();
    let arena = q.solve(&wg).unwrap();
    let batched = unwrap_batch(engine(&wg, 1).run_batch(&[q]));
    assert_eq!(arena, seq, "arena vs sequential");
    assert_eq!(batched[0], seq, "engine vs sequential");

    // The majority triangle is found with its finite value; no −∞
    // community is served as a positive hit by the heuristic route.
    assert!(!seq.is_empty(), "majority community must be found");
    for c in &seq {
        assert!(c.value.is_finite(), "served {:?} at −∞", c.vertices);
        let w: f64 = c.vertices.iter().map(|&v| wg.weight(v)).sum();
        assert!(2.0 * w > wg.total_weight(), "finite value implies majority");
    }

    // The exhaustive oracle ranks −∞ (minority) communities last but
    // keeps them — deduped and tie-broken deterministically.
    let all = oracle::exact_topr(&wg, 2, 50, None, Aggregation::BalancedDensity).unwrap();
    let finite: Vec<_> = all.iter().filter(|c| c.value.is_finite()).collect();
    let sentinel: Vec<_> = all.iter().filter(|c| !c.value.is_finite()).collect();
    assert!(!finite.is_empty() && !sentinel.is_empty());
    // Finite values strictly precede every sentinel entry.
    let first_sentinel = all.iter().position(|c| !c.value.is_finite()).unwrap();
    assert!(all[first_sentinel..].iter().all(|c| !c.value.is_finite()));
}
