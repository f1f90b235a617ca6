//! Chaos property suite: fault injection through `ic-fail` failpoints.
//!
//! Compiled only with `--features failpoints` (a `required-features`
//! test target of `ic-bench`); the CI chaos leg runs it on the
//! randomized-seed matrix. Every test drives the engine/store through
//! injected panics, deadline pressure, or transient I/O errors and then
//! asserts the resilience invariants:
//!
//! * **Isolation** — only the queries of the faulted job report
//!   [`EngineError::Internal`]; everything else in the batch completes
//!   bit-identical to a fault-free run.
//! * **Pool restoration** — every arena is either back in the pool or
//!   quarantined: `available() == created() - quarantined()` at idle.
//! * **No wedged locks** — all shared state (serving snapshot, result
//!   cache, maintainer, pool free list) keeps working after a panic
//!   unwound through it.
//! * **Amnesia** — once injection stops, the engine answers
//!   bit-identically to a freshly built engine on the same graph.
//!
//! Tests serialize on [`FailScenario`]'s global lock (the failpoint
//! registry is process-wide).

use ic_core::Aggregation;
use ic_engine::{AnswerStatus, BatchOptions, EdgeUpdate, Engine, EngineError, Query};
use ic_fail::FailScenario;
use ic_gen::{gnm, uniform_weights, GraphSeed};
use ic_graph::WeightedGraph;
use scratch::ScratchDir;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[path = "common/scratch.rs"]
mod scratch;

/// Session seed shared with the proptest suites: the CI randomized leg
/// exports `IC_PROPTEST_SEED`, so chaos explores a fresh graph + fault
/// interleaving per run while any failure reproduces from the logged
/// seed.
fn session_seed() -> u64 {
    std::env::var("IC_PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn workload(salt: u64) -> WeightedGraph {
    let seed = session_seed() ^ salt;
    let g = gnm(56, 120, GraphSeed(seed));
    let n = g.num_vertices();
    WeightedGraph::new(g, uniform_weights(n, 0.5, 40.0, GraphSeed(seed ^ 0xabcd))).unwrap()
}

/// Deterministic-path probes (min / max / exact sum / approx sum across
/// two k levels) — safe to compare bit-for-bit at any worker count.
fn probe_batch() -> Vec<Query> {
    vec![
        Query::new(2, 3, Aggregation::Min),
        Query::new(2, 4, Aggregation::Max),
        Query::new(2, 3, Aggregation::Sum),
        Query::new(3, 2, Aggregation::Sum),
        Query::new(2, 3, Aggregation::Sum).approx(0.2),
    ]
}

fn solo_answers(
    wg: &WeightedGraph,
    batch: &[Query],
    threads: usize,
) -> Vec<Vec<ic_core::Community>> {
    batch
        .iter()
        .map(|q| {
            Engine::with_threads(wg.clone(), threads).run_batch(&[*q])[0]
                .clone()
                .expect("probe queries are valid")
        })
        .collect()
}

/// The idle-pool invariant: every arena accounted for.
fn assert_pool_restored(eng: &Engine, context: &str) {
    assert_eq!(
        eng.arenas_available(),
        eng.arenas_created() - eng.arenas_quarantined(),
        "{context}: pool must hold exactly the non-quarantined arenas \
         (created {}, quarantined {}, available {})",
        eng.arenas_created(),
        eng.arenas_quarantined(),
        eng.arenas_available()
    );
}

/// After injection stops the engine must behave like a fresh one.
fn assert_amnesia(
    eng: &Engine,
    wg: &WeightedGraph,
    batch: &[Query],
    solo: &[Vec<ic_core::Community>],
) {
    eng.clear_result_cache();
    let got = eng.run_batch(batch);
    for (i, res) in got.iter().enumerate() {
        assert_eq!(
            res.as_ref().expect("post-fault queries must succeed"),
            &solo[i],
            "post-fault answer {i} diverged from a fresh engine on {} vertices",
            wg.num_vertices()
        );
    }
}

#[test]
fn cascade_panic_is_isolated_and_arena_quarantined() {
    let _s = FailScenario::setup();
    let wg = workload(0x01);
    let batch = probe_batch();
    let solo = solo_answers(&wg, &batch, 3);
    let eng = Engine::with_threads(wg.clone(), 3);

    ic_fail::cfg("kcore::cascade", "1*panic(chaos: torn cascade)").unwrap();
    let got = eng.run_batch_with(&batch, &BatchOptions::default());
    let mut internal = 0usize;
    for (i, res) in got.iter().enumerate() {
        match res {
            Err(EngineError::Internal { detail }) => {
                internal += 1;
                assert!(detail.contains("torn cascade"), "payload lost: {detail}");
            }
            Ok(ans) => {
                assert!(ans.is_complete(), "query {i}: no deadline was armed");
                assert_eq!(&ans.communities, &solo[i], "surviving query {i} diverged");
            }
            Err(e) => panic!("query {i}: unexpected error {e}"),
        }
    }
    assert!(internal >= 1, "the injected panic must surface as Internal");
    assert_eq!(
        eng.arenas_quarantined(),
        1,
        "exactly the panicked worker's arena is retired"
    );
    assert_pool_restored(&eng, "after isolated cascade panic");

    ic_fail::remove("kcore::cascade");
    assert_amnesia(&eng, &wg, &batch, &solo);
}

#[test]
fn a_cascade_panic_in_a_root_image_build_leaves_no_image() {
    // The first cascade of a one-thread engine serving one exact sum is
    // the load that would fill the level root's image. It panics: the
    // query fails, and the image slot stays empty, so the next run
    // loads the root from the graph again (as a fresh engine's first
    // run does) and answers bit-identically.
    let _s = FailScenario::setup();
    let wg = workload(0x0b);
    let batch = [Query::new(2, 3, Aggregation::Sum)];
    let eng = Engine::with_threads(wg.clone(), 1);
    ic_fail::cfg("kcore::cascade", "1*panic(chaos: torn image build)").unwrap();
    match &eng.run_batch_with(&batch, &BatchOptions::default())[0] {
        Err(EngineError::Internal { detail }) => assert!(detail.contains("torn image build")),
        other => panic!("the injected panic must surface as Internal, got {other:?}"),
    }
    ic_fail::remove("kcore::cascade");
    let loads = |eng: &Engine| eng.obs_registry().counter("core.tic_loads").get();
    assert_eq!(loads(&eng), 0, "the torn load never finished");
    let fresh = Engine::with_threads(wg.clone(), 1);
    assert_eq!(eng.run_batch(&batch), fresh.run_batch(&batch));
    assert_eq!(loads(&eng), loads(&fresh), "the retry built the image anew");
    assert_pool_restored(&eng, "after a torn image build");
}

#[test]
fn tic_search_panic_is_isolated() {
    let _s = FailScenario::setup();
    let wg = workload(0x02);
    let batch = probe_batch();
    let solo = solo_answers(&wg, &batch, 2);
    let eng = Engine::with_threads(wg.clone(), 2);

    ic_fail::cfg("core::tic_advance", "1*panic(chaos: tic mid-expand)").unwrap();
    let got = eng.run_batch_with(&batch, &BatchOptions::default());
    let mut internal = 0usize;
    for (i, res) in got.iter().enumerate() {
        match res {
            Err(EngineError::Internal { .. }) => internal += 1,
            Ok(ans) => {
                assert!(ans.is_complete());
                assert_eq!(&ans.communities, &solo[i], "surviving query {i} diverged");
            }
            Err(e) => panic!("query {i}: unexpected error {e}"),
        }
    }
    // The TIC failpoint sits in the shared expansion loop; at least the
    // faulted family reports Internal, min/max peels are untouched.
    assert!(internal >= 1);
    assert!(
        got[0].is_ok() && got[1].is_ok(),
        "min/max peels must survive a TIC fault"
    );
    assert_pool_restored(&eng, "after isolated TIC panic");

    ic_fail::remove("core::tic_advance");
    assert_amnesia(&eng, &wg, &batch, &solo);
}

/// A deadline that fires *between* two pops of an exact-sum search
/// yields what the search had proven by then, not nothing. Each
/// `advance` is stretched to 200 ms; the 300 ms deadline therefore
/// passes the checkpoint of the first pop and trips the second's. The
/// first pop confirms the best k-core component and expands it, which
/// proves its rank (its children and every other candidate are strictly
/// smaller), so the answer is `Degraded` with exactly that prefix — and
/// an `r = 1` sibling under the same deadline, served by the same run,
/// is `Complete`.
#[test]
fn mid_run_deadline_yields_the_proven_prefix() {
    let _s = FailScenario::setup();
    let wg = workload(0x08);
    let query = Query::new(2, 4, Aggregation::Sum);
    let full = solo_answers(&wg, &[query], 1).remove(0);
    assert!(full.len() > 1, "the search must need a second pop");
    let eng = Engine::with_threads(wg.clone(), 1);

    ic_fail::cfg("core::tic_advance", "sleep(200)").unwrap();
    let ddl = std::time::Duration::from_millis(300);
    let armed = [
        query.deadline(ddl),
        Query::new(2, 1, Aggregation::Sum).deadline(ddl),
    ];
    assert_eq!(eng.plan(&armed).stats.solver_runs, 1);
    let got = eng.run_batch_with(&armed, &BatchOptions::default());
    ic_fail::remove("core::tic_advance");
    let first = got[1].as_ref().expect("r = 1 was proven");
    assert!(first.is_complete(), "{:?}", first.status);
    assert_eq!(first.communities[..], full[..1]);

    let ans = got[0]
        .as_ref()
        .expect("one pop was proven before the deadline");
    match ans.status {
        AnswerStatus::Degraded {
            proven_prefix_len, ..
        } => {
            assert_eq!(proven_prefix_len, ans.communities.len());
            assert!((1..full.len()).contains(&proven_prefix_len));
            assert_eq!(&ans.communities[..], &full[..proven_prefix_len]);
        }
        ref other => panic!("expected a degraded answer, got {other:?}"),
    }
    assert_pool_restored(&eng, "after a mid-run deadline");
    assert_amnesia(&eng, &wg, &[query], &[full]);
}

/// A deadline that fires while a memoized forest is being read keeps the
/// value groups the read finished, never part of one. Five 2-cores on
/// {1, 2, 3} weights: one community of value 3, then three of value 2
/// (a 4-cycle first in the event ranking, last in the answer), then one
/// of value 1. Each materialization is stretched to 200 ms, so the
/// 500 ms deadline passes after the value-3 community and one of the
/// value-2 group: only the value-3 community is proven, which answers
/// an `r = 1` sibling under the same deadline completely.
#[test]
fn forest_read_deadline_keeps_whole_value_groups() {
    let _s = FailScenario::setup();
    let mut edges = vec![(3, 4), (4, 5), (5, 6), (6, 3)];
    for t in [0, 7, 10, 13] {
        edges.extend([(t, t + 1), (t + 1, t + 2), (t + 2, t)]);
    }
    let weights = [3, 3, 3, 2, 3, 3, 3, 2, 3, 3, 2, 2, 2, 1, 3, 3].map(f64::from);
    let g = ic_graph::graph_from_edges(16, &edges);
    let wg = WeightedGraph::new(g, weights.to_vec()).unwrap();
    let query = Query::new(2, 5, Aggregation::Min);
    let eng = Engine::with_threads(wg.clone(), 1);
    // Unarmed first: the answer, and the forest memoized.
    let full = eng.run_batch(&[query])[0].clone().unwrap();
    assert_eq!(full.len(), 5);
    eng.clear_result_cache();

    ic_fail::cfg("core::forest_materialize", "sleep(200)").unwrap();
    let ddl = std::time::Duration::from_millis(500);
    let armed = [
        query.deadline(ddl),
        Query::new(2, 1, Aggregation::Min).deadline(ddl),
    ];
    assert_eq!(eng.plan(&armed).stats.solver_runs, 1);
    let got = eng.run_batch_with(&armed, &BatchOptions::default());
    ic_fail::remove("core::forest_materialize");
    let first = got[1].as_ref().expect("r = 1 was proven");
    assert!(first.is_complete(), "{:?}", first.status);
    assert_eq!(first.communities[..], full[..1]);

    let ans = got[0].as_ref().expect("the value-3 group was proven");
    match ans.status {
        AnswerStatus::Degraded {
            proven_prefix_len, ..
        } => {
            assert_eq!(proven_prefix_len, ans.communities.len());
            assert!((1..full.len()).contains(&proven_prefix_len));
            assert_eq!(&ans.communities[..], &full[..proven_prefix_len]);
            let last = ans.communities[proven_prefix_len - 1].value;
            assert!(
                full[proven_prefix_len].value < last,
                "the prefix ends inside a value group: {:?}",
                ans.communities
            );
        }
        ref other => panic!("expected a degraded answer, got {other:?}"),
    }
    assert_pool_restored(&eng, "after a forest-read deadline");
    assert_amnesia(&eng, &wg, &[query], &[full]);
}

#[test]
fn local_walk_panic_poisons_only_its_family() {
    let _s = FailScenario::setup();
    let wg = workload(0x03);
    let constrained = Query::new(2, 3, Aggregation::Average).size_bound(5, true);
    let batch = vec![
        Query::new(2, 3, Aggregation::Min),
        constrained,
        Query::new(2, 3, Aggregation::Sum),
    ];
    let eng = Engine::with_threads(wg.clone(), 3);
    let clean = solo_answers(&wg, &batch[..1], 3);

    ic_fail::cfg("engine::local_walk", "1*panic(chaos: walk died)").unwrap();
    let got = eng.run_batch_with(&batch, &BatchOptions::default());
    // A panicked walk poisons its whole family: partial seed coverage
    // must never be served as a full answer.
    match &got[1] {
        Err(EngineError::Internal { detail }) => {
            assert!(detail.contains("walk died"), "payload lost: {detail}")
        }
        other => panic!("constrained query must be Internal, got {other:?}"),
    }
    assert_eq!(
        got[0].as_ref().unwrap().communities,
        clean[0],
        "unrelated min query harmed by a local-search fault"
    );
    assert!(got[2].is_ok(), "unrelated sum query harmed");
    assert_eq!(eng.arenas_quarantined(), 1);
    assert_pool_restored(&eng, "after local-walk panic");

    // The family is not permanently poisoned: a clean re-run answers.
    ic_fail::remove("engine::local_walk");
    eng.clear_result_cache();
    assert!(eng.run_batch(&batch)[1].is_ok(), "family must recover");
}

#[test]
fn cache_insert_panic_fails_closed_and_recovers() {
    let _s = FailScenario::setup();
    let wg = workload(0x04);
    let batch = probe_batch();
    let solo = solo_answers(&wg, &batch, 2);
    let eng = Engine::with_threads(wg.clone(), 2);

    // The injected panic fires inside the result cache's critical
    // section on the *delivering* thread, so the batch call itself
    // unwinds — the worst case for shared-state hygiene.
    ic_fail::cfg("engine::cache_insert", "1*panic(chaos: die in cache)").unwrap();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        eng.run_batch_with(&batch, &BatchOptions::default())
    }));
    assert!(unwound.is_err(), "the cache panic must unwind the caller");

    // Fail-closed recovery: the poisoned cache dropped its contents
    // (a memoization cache may forget, never lie), the pool is intact,
    // and the engine serves bit-identical answers afterwards.
    ic_fail::remove("engine::cache_insert");
    assert_pool_restored(&eng, "after cache-insert panic");
    assert_amnesia(&eng, &wg, &batch, &solo);
    // And caching itself works again.
    assert!(eng.cached_results() > 0, "cache must resume memoizing");
}

#[test]
fn apply_panic_via_failpoint_is_atomic() {
    let _s = FailScenario::setup();
    let wg = workload(0x05);
    let eng = Engine::with_threads(wg.clone(), 2);
    let q = Query::new(2, 3, Aggregation::Min);
    let before = eng.run_batch(&[q])[0].clone().unwrap();
    let e0 = eng.epoch();
    // A genuine edge change, so apply reaches the failpoint (placed
    // after the new snapshot is built, before the swap).
    let (u, v) = (0u32, 1u32);
    let update = if wg.graph().has_edge(u, v) {
        EdgeUpdate::Remove { u, v }
    } else {
        EdgeUpdate::Insert { u, v }
    };

    ic_fail::cfg("engine::apply", "panic(chaos: die mid-apply)").unwrap();
    let unwound = catch_unwind(AssertUnwindSafe(|| eng.apply(&[update])));
    assert!(unwound.is_err());
    assert_eq!(eng.epoch(), e0, "a panicked apply must not move the epoch");
    eng.clear_result_cache();
    assert_eq!(
        eng.run_batch(&[q])[0].clone().unwrap(),
        before,
        "serving state must be the pre-apply snapshot, untouched"
    );

    // Injection off: the same update applies cleanly (the maintainer
    // slot reseeded; the mutex did not stay wedged) and answers match a
    // fresh engine on the mutated graph.
    ic_fail::remove("engine::apply");
    let e1 = eng.apply(&[update]);
    assert!(e1 > e0, "post-chaos apply must advance the epoch");
    let after = eng.run_batch(&[q])[0].clone().unwrap();
    let fresh = Engine::with_threads(eng.snapshot().weighted().clone(), 2);
    assert_eq!(&after, fresh.run_batch(&[q])[0].as_ref().unwrap());
}

#[test]
fn transient_store_reads_retry_and_corruption_fails_closed() {
    let _s = FailScenario::setup();
    let dir = ScratchDir::new("chaos-store");
    let path = dir.join("chaos.ics1");

    let wg = workload(0x06);
    let eng = Engine::with_threads(wg.clone(), 2);
    let q = Query::new(2, 3, Aggregation::Min);
    let want = eng.run_batch(&[q])[0].clone().unwrap();
    eng.persist(&path).unwrap();

    // Two injected transient timeouts, then the real read: the bounded
    // retry loop absorbs them and the cold start still answers
    // bit-identically.
    ic_fail::cfg("store::read_io", "2*return(injected timeout)").unwrap();
    let reopened = Engine::open_with_threads(&path, 2).expect("retry must absorb transients");
    assert_eq!(reopened.run_batch(&[q])[0].clone().unwrap(), want);
    let retries = reopened.obs_registry().counter("store.open_retries");
    assert_eq!(retries.get(), 2, "counted on the opener's registry");

    // A *persistent* transient error exhausts the three attempts and
    // surfaces typed.
    ic_fail::cfg("store::read_io", "return(injected timeout)").unwrap();
    match ic_store::StoreFile::open(&path) {
        Err(ic_store::StoreError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::TimedOut)
        }
        other => panic!("persistent I/O fault must surface as Io, got {other:?}"),
    }
    ic_fail::remove("store::read_io");

    // Corruption is never retried: fail closed on the first observation.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert!(
        ic_store::StoreFile::open(&path).is_err(),
        "flipped byte must fail closed"
    );
}

/// The randomized sweep: several rounds of probabilistic panics across
/// every solver-side failpoint, mixed with deadline pressure, against
/// one long-lived engine. Per-round outcomes are only sanity-checked
/// (isolation is covered by the targeted tests above); what this test
/// pins is the *accumulated* state: the pool invariant holds after
/// every round, nothing stays wedged, and when the dust settles the
/// engine is bit-identical to a fresh one.
#[test]
fn randomized_fault_sweep_preserves_engine_invariants() {
    let _s = FailScenario::setup();
    let wg = workload(0x07);
    let batch = probe_batch();
    let solo = solo_answers(&wg, &batch, 3);
    let eng = Engine::with_threads(wg.clone(), 3);

    for round in 0..8u32 {
        // Reconfiguring each round reseeds the deterministic per-site
        // generators, so rounds explore different fire patterns while
        // the whole sweep replays exactly under one IC_FAIL_SEED.
        ic_fail::cfg("kcore::cascade", "3%panic(chaos: cascade)").unwrap();
        ic_fail::cfg("core::tic_advance", "3%panic(chaos: tic)").unwrap();
        ic_fail::cfg("engine::local_walk", "10%panic(chaos: walk)").unwrap();

        // Two rounds in three arm every query: with a generous
        // deadline, or with an expired one.
        let deadline = match round % 3 {
            0 => None,
            1 => Some(std::time::Duration::from_secs(3600)),
            _ => Some(std::time::Duration::ZERO),
        };
        let armed: Vec<Query> = batch
            .iter()
            .map(|q| deadline.map_or(*q, |d| q.deadline(d)))
            .collect();
        let got = eng.run_batch_with(&armed, &BatchOptions::default());
        for (i, res) in got.iter().enumerate() {
            match res {
                Ok(ans) => match ans.status {
                    AnswerStatus::Complete => {
                        assert_eq!(&ans.communities, &solo[i], "round {round} query {i}")
                    }
                    AnswerStatus::Degraded {
                        proven_prefix_len, ..
                    } => {
                        assert_eq!(
                            &ans.communities[..proven_prefix_len],
                            &solo[i][..proven_prefix_len],
                            "round {round} query {i}: broken prefix certificate"
                        );
                    }
                },
                Err(EngineError::Internal { .. }) => {}
                Err(EngineError::DeadlineExceeded) => {
                    assert!(round % 3 == 2, "round {round} query {i}: spurious deadline")
                }
                Err(e) => panic!("round {round} query {i}: unexpected error {e}"),
            }
        }
        eng.clear_result_cache();
        assert_pool_restored(&eng, &format!("after round {round}"));
    }

    ic_fail::teardown();
    assert_pool_restored(&eng, "after the sweep");
    assert_amnesia(&eng, &wg, &batch, &solo);
}

/// A standing query whose refresh panicked is owed one: the next apply
/// refreshes it even when that apply leaves its level alone, and the
/// notification brings it level with a fresh engine.
#[test]
fn a_failed_refresh_is_retried_by_an_apply_below_its_level() {
    let _s = FailScenario::setup();
    // Two 5-cliques (weights 1..=5 and 6..=10) and a pendant edge.
    let mut edges = vec![(10, 11)];
    for base in [0u32, 5] {
        for u in base..base + 5 {
            edges.extend((u + 1..base + 5).map(|v| (u, v)));
        }
    }
    let g = ic_graph::graph_from_edges(12, &edges);
    let wg = WeightedGraph::new(g, (1..=12).map(f64::from).collect()).unwrap();
    let manager =
        ic_sub::SubscriptionManager::new(std::sync::Arc::new(Engine::with_threads(wg, 1)));
    let q = Query::new(3, 10, Aggregation::Average).size_bound(5, true);
    let sub = manager.subscribe(q).unwrap();

    // Vertex 0 leaves the 3-core, and the refresh that would say so dies.
    ic_fail::cfg("engine::local_walk", "1*panic(chaos: refresh died)").unwrap();
    let cut = [
        EdgeUpdate::Remove { u: 0, v: 1 },
        EdgeUpdate::Remove { u: 0, v: 2 },
    ];
    let report = manager.apply(&cut).unwrap();
    ic_fail::remove("engine::local_walk");
    assert_eq!(
        report.failed.len(),
        1,
        "the injected panic fails the refresh"
    );
    assert!(report.notifications.is_empty());

    // The pendant edge is below level 3: the apply's proof keeps the
    // stale answer, but the failed refresh is owed.
    let report = manager
        .apply(&[EdgeUpdate::Remove { u: 10, v: 11 }])
        .unwrap();
    assert!(report.failed.is_empty());
    assert_eq!(report.refreshed, 1, "the owed refresh runs");
    let fresh = Engine::with_threads(manager.engine().snapshot().weighted().clone(), 1);
    let want = fresh.run_batch(&[q])[0].clone().unwrap();
    assert_ne!(want, sub.answer, "the cut moved the answer");
    assert_eq!(report.notifications.len(), 1);
    assert_eq!(report.notifications[0].answer, want);

    // Once refreshed it is owed nothing: the next such apply skips it.
    let report = manager
        .apply(&[EdgeUpdate::Insert { u: 10, v: 11 }])
        .unwrap();
    assert_eq!((report.refreshed, report.skipped), (0, 1));
}
