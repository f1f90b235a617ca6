//! Cross-solver conformance: every path to the same query must give the
//! same answer.
//!
//! For **every built-in aggregation** — the paper's seven plus the PR-4
//! extension built-ins `top-t-sum`, `percentile`, and `geo-mean` — there
//! are up to four ways to answer a query:
//!
//! * **oracle** — the from-scratch reference solvers
//!   (`ic_core::algo::oracle`, the exhaustive `exact_topr` on tiny
//!   graphs, and `oracle::local_search` for the heuristic route);
//! * **arena** — the zero-rebuild `PeelArena` solvers, reached through
//!   [`Query::solve_on`] (routing is by declared certificates since
//!   PR 4 — nothing here dispatches on the aggregation itself);
//! * **engine-batched** — `ic_engine::Engine::run_batch`, including its
//!   dedup and r-family merging;
//! * **sharded** — `ic_shard::ShardedEngine`, for one family whose
//!   members each merge lists from several shards.
//!
//! The deterministic paths must agree **bit for bit** — same vertex
//! sets, same values, same order — on ER, Barabási-Albert, Chung-Lu,
//! and planted-partition graphs, including the edge cases `r = 1`,
//! `r > #communities`, `k = 1`, and `k > degeneracy`. Heuristic local
//! search is deterministic too: the engine at any thread count ≡
//! `Query::solve` ≡ the paper-printed `oracle::local_search`. Any future
//! refactor that silently diverges from the oracle semantics fails here
//! first.

use ic_core::algo::{self, oracle, LocalSearchConfig};
use ic_core::verify::check_community;
use ic_core::{Aggregation, Community, Query};
use ic_engine::{AnswerStatus, BatchOptions, Engine, EngineError};
use ic_gen::{planted_partition, rank_weights, GraphSeed, PlantedPartitionConfig};
use ic_graph::WeightedGraph;
use ic_kcore::{degeneracy, GraphSnapshot, PeelArena};
use proptest::prelude::*;

mod common;

/// One synthetic workload drawn from the four graph families with a
/// seed-derived weight model.
fn arb_workload() -> impl Strategy<Value = WeightedGraph> {
    common::arb_workload(0..4, 0..3, 24..72)
}

fn engine(wg: &WeightedGraph, threads: usize) -> Engine {
    Engine::with_threads(wg.clone(), threads)
}

fn unwrap_batch(results: Vec<Result<Vec<Community>, ic_core::SearchError>>) -> Vec<Vec<Community>> {
    results
        .into_iter()
        .map(|r| r.expect("conformance queries are valid"))
        .collect()
}

/// The arena path: [`Query::solve_on`] against a fresh memoized
/// snapshot (bit-identical to `Query::solve` by contract).
fn arena_solve(wg: &WeightedGraph, q: Query) -> Vec<Community> {
    let snap = GraphSnapshot::new(wg.clone());
    let mut arena = PeelArena::for_graph(snap.graph());
    q.solve_on(&snap, &mut arena).expect("valid query")
}

/// Algorithm 1 on a fresh snapshot (shared harness; the per-graph free
/// function was removed from the public API in PR 4).
fn arena_sum_naive(wg: &WeightedGraph, k: usize, r: usize, agg: Aggregation) -> Vec<Community> {
    ic_bench::harness::sum_naive(wg, k, r, agg).expect("valid params")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// min/max: oracle ≡ arena ≡ engine (any thread count),
    /// across the k grid including k = 1 and k > degeneracy, r
    /// including 1 and r > #communities.
    #[test]
    fn node_domination_paths_agree(wg in arb_workload()) {
        let d = degeneracy(wg.graph()) as usize;
        let ks = [1usize, 2, (d / 2).max(1), d + 1];
        let rs = [1usize, 3, 10_000];
        for threads in [1usize, 4] {
            let eng = engine(&wg, threads);
            for &k in &ks {
                for &r in &rs {
                    let batch = [
                        Query::new(k, r, Aggregation::Min),
                        Query::new(k, r, Aggregation::Max),
                    ];
                    let got = unwrap_batch(eng.run_batch(&batch));
                    let arena_min = arena_solve(&wg, batch[0]);
                    let oracle_min = oracle::min_topr(&wg, k, r).unwrap();
                    prop_assert_eq!(&arena_min, &oracle_min, "min arena/oracle k={} r={}", k, r);
                    prop_assert_eq!(&got[0], &arena_min, "min engine k={} r={} t={}", k, r, threads);
                    let arena_max = arena_solve(&wg, batch[1]);
                    let oracle_max = oracle::max_topr(&wg, k, r).unwrap();
                    prop_assert_eq!(&arena_max, &oracle_max, "max arena/oracle k={} r={}", k, r);
                    prop_assert_eq!(&got[1], &arena_max, "max engine k={} r={} t={}", k, r, threads);
                    if k > d {
                        prop_assert!(got[0].is_empty() && got[1].is_empty(), "k>degeneracy");
                    }
                }
            }
        }
    }

    /// sum / sum-surplus: oracle ≡ arena ≡ engine for
    /// Algorithm 1 and Algorithm 2 (exact and approximate).
    #[test]
    fn removal_decreasing_paths_agree(wg in arb_workload(), k in 1usize..4) {
        let aggs = [Aggregation::Sum, Aggregation::SumSurplus { alpha: 0.75 }];
        let eng = engine(&wg, 2);
        for &agg in &aggs {
            for r in [1usize, 4] {
                let q = Query::new(k, r, agg);
                let oracle_naive = oracle::sum_naive(&wg, k, r, agg).unwrap();
                let arena_naive = arena_sum_naive(&wg, k, r, agg);
                prop_assert_eq!(&arena_naive, &oracle_naive, "naive k={} r={}", k, r);
                let oracle_tic = oracle::tic_improved(&wg, k, r, agg, 0.0).unwrap();
                let arena_tic = arena_solve(&wg, q);
                prop_assert_eq!(&arena_tic, &oracle_tic, "tic k={} r={}", k, r);
                let got = unwrap_batch(eng.run_batch(&[q]));
                prop_assert_eq!(&got[0], &arena_tic, "engine k={} r={}", k, r);
                // The two algorithms agree on values (tie-broken sets may
                // legitimately differ between Algorithm 1 and 2).
                let nv: Vec<f64> = arena_naive.iter().map(|c| c.value).collect();
                let tv: Vec<f64> = arena_tic.iter().map(|c| c.value).collect();
                prop_assert_eq!(nv.len(), tv.len());
                for (a, b) in nv.iter().zip(&tv) {
                    prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
                }
            }
            // Approximate mode: engine ≡ arena ≡ oracle at the same ε.
            for eps in [0.1, 0.4] {
                let q = Query::new(k, 3, agg).approx(eps);
                let oracle_eps = oracle::tic_improved(&wg, k, 3, agg, eps).unwrap();
                let arena_eps = arena_solve(&wg, q);
                prop_assert_eq!(&arena_eps, &oracle_eps, "eps={}", eps);
                let got = unwrap_batch(eng.run_batch(&[q]));
                prop_assert_eq!(&got[0], &arena_eps, "engine eps={}", eps);
            }
        }
    }

    /// Every built-in aggregation, pinned across all three paths at once
    /// — including the PR-4 additions (`top-t-sum`, `percentile`,
    /// `geo-mean`). Aggregations with a polynomial certificate run
    /// unconstrained; the NP-hard rest run through their size-bounded
    /// local-search route, whose paths are all bit-identical too.
    #[test]
    fn every_builtin_agrees_across_all_paths(wg in arb_workload(), k in 1usize..4) {
        for agg in Aggregation::builtins() {
            let certs = agg.certificates();
            let unconstrained = certs.peel_extremum.is_some() || certs.removal_decreasing;
            let q = if unconstrained {
                Query::new(k, 3, agg)
            } else {
                Query::new(k, 3, agg).size_bound(k + 4, true)
            };
            // Reference (oracle) path.
            let reference = if let Some(ext) = certs.peel_extremum {
                match ext {
                    ic_core::Extremum::Min => oracle::min_topr(&wg, k, 3).unwrap(),
                    ic_core::Extremum::Max => oracle::max_topr(&wg, k, 3).unwrap(),
                }
            } else if certs.removal_decreasing {
                oracle::tic_improved(&wg, k, 3, agg, 0.0).unwrap()
            } else {
                let config = LocalSearchConfig { k, r: 3, s: k + 4, greedy: true };
                oracle::local_search(&wg, &config, agg).unwrap()
            };
            // Arena ≡ oracle.
            let arena = arena_solve(&wg, q);
            prop_assert_eq!(&arena, &reference, "{} arena k={}", agg.name(), k);
            // Engine-batched ≡ arena.
            let got = unwrap_batch(engine(&wg, 1).run_batch(&[q]));
            prop_assert_eq!(&got[0], &arena, "{} engine k={}", agg.name(), k);
            // Every community checks out structurally and value-wise.
            let bound = if unconstrained { None } else { Some(k + 4) };
            for c in &arena {
                prop_assert!(
                    check_community(&wg, k, bound, agg, c).is_ok(),
                    "{} invalid community {:?}", agg.name(), c.vertices
                );
            }
        }
    }

    /// Constrained queries (avg and friends): the engine at 1, 2 and 4
    /// threads, `Query::solve` and the paper-printed
    /// `oracle::local_search` give the same answer bit for bit. Both
    /// greedy modes share one batch, so on a multi-thread engine their
    /// families walk side by side. Weights are drawn from {1, 2, 3}, so
    /// candidates tie at every top-r bar.
    #[test]
    fn constrained_paths_agree(
        wg in common::arb_workload(0..4, 4..5, 24..72),
        k in 1usize..4,
    ) {
        let s = k + 4;
        let aggs = [
            Aggregation::Average,
            Aggregation::Min,
            Aggregation::Sum,
            Aggregation::SumSurplus { alpha: 0.25 },
            Aggregation::TopTSum { t: 2 },
            Aggregation::Percentile { p: 0.75 },
            Aggregation::GeometricMean,
        ];
        let probes: Vec<(bool, Aggregation)> = [true, false]
            .into_iter()
            .flat_map(|greedy| aggs.map(|agg| (greedy, agg)))
            .collect();
        let batch: Vec<Query> = probes
            .iter()
            .map(|&(greedy, agg)| Query::new(k, 3, agg).size_bound(s, greedy))
            .collect();
        let want: Vec<Vec<Community>> = probes
            .iter()
            .map(|&(greedy, agg)| {
                let config = LocalSearchConfig { k, r: 3, s, greedy };
                oracle::local_search(&wg, &config, agg).unwrap()
            })
            .collect();
        for (q, want) in batch.iter().zip(&want) {
            prop_assert_eq!(&q.solve(&wg).unwrap(), want, "Query::solve {:?}", q);
        }
        for threads in [1, 2, 4] {
            let got = unwrap_batch(engine(&wg, threads).run_batch(&batch));
            for ((q, got), want) in batch.iter().zip(&got).zip(&want) {
                prop_assert_eq!(got, want, "engine({}) {:?}", threads, q);
            }
        }
    }

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
        wg in common::arb_workload(0..4, 0..5, 24..72),
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

    /// Batch composition invariance: a query answered inside a mixed,
    /// duplicate-heavy batch (r-family siblings, repeats, unrelated
    /// queries) must equal the same query answered alone.
    #[test]
    fn batch_composition_does_not_change_answers(wg in arb_workload(), k in 1usize..4) {
        let eng = engine(&wg, 3);
        let probes = [
            Query::new(k, 2, Aggregation::Min),
            Query::new(k, 5, Aggregation::Max),
            Query::new(k, 3, Aggregation::Sum),
        ];
        let mut batch: Vec<Query> = probes.to_vec();
        // Family siblings and exact repeats around the probes.
        batch.push(Query::new(k, 1, Aggregation::Min));
        batch.push(Query::new(k, 9, Aggregation::Min));
        batch.push(Query::new(k, 2, Aggregation::Min));
        batch.push(Query::new(k + 1, 2, Aggregation::Max));
        batch.push(Query::new(k, 3, Aggregation::Sum).approx(0.2));
        let batched = unwrap_batch(eng.run_batch(&batch));
        for (i, q) in probes.iter().enumerate() {
            // A fresh engine per probe keeps the comparison honest: the
            // first engine would answer from its result cache.
            let alone = unwrap_batch(engine(&wg, 3).run_batch(&[*q]));
            prop_assert_eq!(&batched[i], &alone[0], "probe {} changed inside batch", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One definition of the top r for every solver class, anchored by
    /// the exhaustive oracle on tiny graphs. With weights from {1, 2, 3}
    /// — value ties at every cut, nested ones included — or any other
    /// weight model, the routed solve, the from-scratch oracle and an
    /// engine batch holding r = 1..=8 of each family all answer what
    /// `exact_topr` does: the first r, by `ranking_cmp`, of the
    /// communities no strict superset of equal value contains.
    #[test]
    fn every_solver_class_cuts_ties_like_the_exhaustive_oracle(
        wg in common::arb_workload(0..4, 0..5, 4..13),
        k in 1usize..4,
    ) {
        let aggregations = [Aggregation::Min, Aggregation::Max, Aggregation::Sum];
        let batch: Vec<Query> = aggregations
            .iter()
            .flat_map(|&agg| (1..=8).map(move |r| Query::new(k, r, agg)))
            .collect();
        let served = unwrap_batch(engine(&wg, 2).run_batch(&batch));
        for (q, engine_answer) in batch.iter().zip(&served) {
            let (r, agg) = (q.r, q.aggregation);
            let want = oracle::exact_topr(&wg, k, r, None, agg).unwrap();
            let from_scratch = match agg {
                Aggregation::Min => oracle::min_topr(&wg, k, r),
                Aggregation::Max => oracle::max_topr(&wg, k, r),
                _ => oracle::tic_improved(&wg, k, r, agg, 0.0),
            };
            prop_assert_eq!(&q.solve(&wg).unwrap(), &want, "solve {:?}", q);
            prop_assert_eq!(&from_scratch.unwrap(), &want, "oracle {:?}", q);
            prop_assert_eq!(engine_answer, &want, "engine {:?}", q);
        }
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

    let dir = std::env::temp_dir().join(format!("ic-conformance-k4-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    ic_store::shard::build_shard_stores(&wg, &[2], 4, &dir).unwrap();
    let sharded = ic_shard::ShardedEngine::open_dir(&dir).unwrap();
    let got = sharded.run_batch_pinned(&[q], &BatchOptions::default()).1;
    assert_eq!(got[0].as_ref().unwrap().communities, want, "sharded");
    std::fs::remove_dir_all(&dir).ok();

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
    let dir = std::env::temp_dir().join(format!("ic-conformance-shards-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
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
    std::fs::remove_dir_all(&dir).ok();
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
    let arena = arena_solve(&wg, q);
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
