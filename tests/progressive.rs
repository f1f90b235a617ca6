//! The mutable-engine contracts, held as property tests:
//!
//! 1. **Post-`apply` conformance** — after any script of edge
//!    insertions/deletions, the engine answers every query exactly like
//!    a *fresh* engine built from scratch on the mutated graph, and the
//!    epoch advances iff the edge set changed (the update arm of
//!    [`common::agree`]).
//! 2. **Isolation** — a batch is served under one epoch, and batches
//!    after an `apply` pin the new one.
//! 3. **Carried state is invisible** — across a run of applies, the
//!    answers, forests, levels and core rows an apply carries into the
//!    next epoch serve exactly what a direct solve on the toggled graph
//!    returns, and so do the subscriptions it lets skip their refresh.

use common::{agree, arb_workload, Backends, Shape};
use ic_core::Aggregation;
use ic_engine::prelude::*;
use ic_graph::WeightedGraph;
use ic_sub::{replay, SubscriptionManager};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

mod common;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(34))]

    /// Edge toggles, no-op and self-loop ones included, on an engine
    /// warmed by one query per solver route (min/max peel, exact and
    /// approximate TIC, local search), which a subscription manager
    /// watches too; the same queries through a persisted store before
    /// any update.
    #[test]
    fn apply_matches_fresh_engine_on_mutated_graph(
        wg in arb_workload(Shape::Families(0..4), 0..5, 20..64),
        k in 1usize..4,
        script in common::arb_script(1..5, 1..24),
    ) {
        let deck = [
            Query::new(k, 4, Aggregation::Min),
            Query::new(k, 4, Aggregation::Max),
            Query::new(k, 4, Aggregation::Sum),
            Query::new(k, 4, Aggregation::SumSurplus { alpha: 0.5 }),
            Query::new(k, 4, Aggregation::Sum).approx(0.2),
            Query::new(k, 4, Aggregation::Average).size_bound(k + 4, true),
        ];
        let n = wg.num_vertices();
        let updates = script.iter().map(|b| common::concrete_batch(b, n)).collect();
        let on = Backends { threads: &[1], store: true, updates, ..Backends::default() };
        agree(&wg, &deck, &on)?;
    }
}

/// Min, max, sum and a size-bounded query at every `k` in 1..=4: the
/// answers the result cache carries, the forests and levels the
/// snapshot shares, and the core rows of the local search.
fn carry_mix() -> Vec<Query> {
    (1..=4)
        .flat_map(|k| {
            [
                Query::new(k, 1, Aggregation::Min),
                Query::new(k, 3, Aggregation::Min),
                Query::new(k, 3, Aggregation::Max),
                Query::new(k, 2, Aggregation::Sum),
                Query::new(k, 2, Aggregation::Average).size_bound(k + 3, true),
            ]
        })
        .collect()
}

/// Folds `(a, b, pick)` onto an edge toggle of the current edge set: with
/// `pick` the edge to one of `a`'s neighbours (a removal that lands),
/// else `{a, b}` inserted when absent and removed when present.
fn toggle(
    edges: &mut BTreeSet<(u32, u32)>,
    n: u32,
    (a, b, pick): (u32, u32, bool),
) -> Option<EdgeUpdate> {
    let u = a % n;
    let nbrs: Vec<u32> = edges
        .iter()
        .filter_map(|&(x, y)| (x == u).then_some(y).or((y == u).then_some(x)))
        .collect();
    let v = match pick && !nbrs.is_empty() {
        true => nbrs[b as usize % nbrs.len()],
        false => b % n,
    };
    if u == v {
        return None;
    }
    let key = (u.min(v), u.max(v));
    Some(if edges.remove(&key) {
        EdgeUpdate::Remove { u, v }
    } else {
        edges.insert(key);
        EdgeUpdate::Insert { u, v }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// After every apply of a run, every warmed query answers like a
    /// direct solve on the toggled graph, and every subscription's
    /// replayed view equals a fresh engine's answer.
    #[test]
    fn carried_state_matches_direct_solves_after_every_apply(
        wg in prop_oneof![
            arb_workload(Shape::Families(0..4), 4..5, 20..48),
            arb_workload(Shape::Families(0..4), 0..1, 20..48),
        ],
        script in proptest::collection::vec(
            proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 1..5),
            4..9,
        ),
    ) {
        let n = wg.num_vertices() as u32;
        let mix = carry_mix();
        let standing: Vec<Query> = mix.iter().copied().filter(|q| q.constraint == Constraint::Unconstrained).collect();
        let eng = Engine::with_threads(wg.clone(), 1);
        let manager = SubscriptionManager::new(Arc::new(Engine::with_threads(wg.clone(), 1)));
        let (ids, mut held): (Vec<_>, Vec<Vec<Community>>) = standing
            .iter()
            .map(|q| {
                let sub = manager.subscribe(*q).expect("subscribe");
                (sub.id, sub.answer)
            })
            .unzip();
        let mut edges: BTreeSet<(u32, u32)> = wg.graph().edges().collect();
        eng.run_batch(&mix);

        for (step, batch) in script.iter().enumerate() {
            let updates: Vec<EdgeUpdate> = batch
                .iter()
                .filter_map(|&t| toggle(&mut edges, n, t))
                .collect();
            eng.apply(&updates);
            let report = manager.apply(&updates).expect("apply");
            prop_assert!(report.failed.is_empty());
            let edge_list: Vec<(u32, u32)> = edges.iter().copied().collect();
            let toggled = WeightedGraph::new(
                ic_graph::graph_from_edges(n as usize, &edge_list),
                wg.weights().to_vec(),
            )
            .unwrap();

            for (q, got) in mix.iter().zip(eng.run_batch(&mix)) {
                prop_assert_eq!(got, q.solve(&toggled), "{:?} after step {}: {:?}", q, step, updates);
            }
            for n in &report.notifications {
                let slot = &mut held[ids.iter().position(|id| *id == n.id).unwrap()];
                *slot = replay(slot, &n.deltas);
            }
            let fresh = Engine::with_threads(toggled, 1).run_batch(&standing);
            for ((q, view), want) in standing.iter().zip(&held).zip(fresh) {
                prop_assert_eq!(view, &want.unwrap(), "subscription {:?} after step {}", q, step);
            }
        }
    }
}

/// Deterministic end-to-end walk: update, re-query — on the paper's
/// running example, with each batch's pinned epoch checked across the
/// update.
#[test]
fn apply_isolation_and_requery_walkthrough() {
    let wg = ic_core::figure1::figure1();
    let eng = Engine::with_threads(wg.clone(), 2);
    let q = Query::new(2, 3, Aggregation::Min);
    let (e0, pre) = eng.run_batch_pinned(&[q], &BatchOptions::default());
    assert_eq!(e0.index(), 0);
    let original = pre[0].clone().unwrap().communities;

    let e1 = eng.apply(&[
        EdgeUpdate::Remove { u: 4, v: 5 }, // v5-v6
        EdgeUpdate::Insert { u: 0, v: 9 }, // v1-v10
    ]);
    assert_eq!(e1.index(), 1);

    // A post-apply batch pins the new epoch and answers like a fresh
    // engine on the mutated graph.
    let fresh = Engine::with_threads(eng.snapshot().weighted().clone(), 2);
    let (pinned, post) = eng.run_batch_pinned(&[q], &BatchOptions::default());
    assert_eq!(pinned, e1, "batches after apply pin the new epoch");
    assert_eq!(
        &post[0].as_ref().unwrap().communities,
        fresh.run_batch(&[q])[0].as_ref().unwrap()
    );

    // Reverting the changes restores the original answers (epoch still
    // advances — epochs are history positions, not content hashes).
    let e2 = eng.apply(&[
        EdgeUpdate::Insert { u: 4, v: 5 },
        EdgeUpdate::Remove { u: 0, v: 9 },
    ]);
    assert_eq!(e2.index(), 2);
    assert_eq!(eng.run_batch(&[q])[0].as_ref().unwrap(), &original);
}

/// The query vocabulary round-trips through the prelude and the
/// engine: one import surface serves batch and update code.
#[test]
fn prelude_covers_the_serving_vocabulary() {
    let wg = ic_core::figure1::figure1();
    let engine = Engine::with_threads(wg, 1);
    let q: Query = Query::new(2, 2, Aggregation::Sum);
    q.validate().unwrap();
    let solver: Solver = q.solver().unwrap();
    assert_eq!(solver, Solver::TicExact);
    let batch: Vec<Result<Vec<Community>, SearchError>> = engine.run_batch(&[q]);
    assert_eq!(batch[0].as_ref().unwrap()[0].value, 203.0);
    let epoch: Epoch = engine.apply(&[EdgeUpdate::Remove { u: 0, v: 1 }]);
    assert_eq!(epoch.index(), 1);
    let snap: std::sync::Arc<GraphSnapshot> = engine.snapshot();
    assert_eq!(snap.graph().num_edges(), 16);
}
