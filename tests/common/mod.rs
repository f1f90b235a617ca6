//! Fixtures shared by the suites under `tests/`: the workload generator
//! (`workload.rs`), randomized update scripts, a self-removing scratch
//! directory (`scratch.rs`), and [`agree`], the one harness that holds
//! every backend to the answer of Definition 3 — its reference and arena
//! arm in `reference.rs`, which the ic-core suites include alone.

// Every suite compiles its own copy of this module and uses part of it.
#![allow(dead_code)]

mod reference;
mod scratch;
mod workload;

// Not every suite draws graphs, answers on the arena alone or writes files.
#[allow(unused_imports)]
pub use reference::{agree_on_arena, size_bound, Arena};
#[allow(unused_imports)]
pub use scratch::ScratchDir;
#[allow(unused_imports)]
pub use workload::{arb_half_tied, arb_workload, Shape};

use ic_core::algo::ExtremumIndex;
use ic_core::{Community, Extremum, Query, SearchError, Solver};
use ic_engine::{BatchOptions, EdgeUpdate, Engine, EngineError};
use ic_gen::datasets::{by_name, Profile};
use ic_graph::WeightedGraph;
use ic_kcore::{core_decomposition, degeneracy, AdjacencyState};
use ic_store::{OpenOptions, StoreFile};
use ic_sub::{diff_answers, replay, SubscriptionManager};
use proptest::prelude::*;
use reference::solver;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

/// The quick `email` dataset with its generated weights.
pub fn email() -> WeightedGraph {
    by_name(Profile::Quick, "email")
        .unwrap()
        .generate_weighted()
}

/// A randomized update script of `batches` batches of `ops` abstract
/// (insert?, u, v) ops each, folded onto the graph's vertex range at
/// runtime by [`concrete_batch`]. Removes of absent edges and inserts of
/// present ones are in distribution on purpose: no-op batches must
/// neither advance state nor notify anybody.
pub fn arb_script(
    batches: Range<usize>,
    ops: Range<usize>,
) -> impl Strategy<Value = Vec<Vec<(bool, u32, u32)>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<bool>(), any::<u32>(), any::<u32>()), ops),
        batches,
    )
}

/// Folds one abstract batch onto concrete vertex ids. Self-loops are
/// kept: [`Engine::apply`] must skip them, and [`agree`] keeps them
/// away from the typed entry points that refuse them.
pub fn concrete_batch(batch: &[(bool, u32, u32)], n: usize) -> Vec<EdgeUpdate> {
    batch
        .iter()
        .map(|&(insert, a, b)| {
            let (u, v) = (a % n as u32, b % n as u32);
            match insert {
                true => EdgeUpdate::Insert { u, v },
                false => EdgeUpdate::Remove { u, v },
            }
        })
        .collect()
}

/// The backends [`agree`] answers a deck on. The arena — `Query::solve_on`
/// on a fresh snapshot, every community checked against Definition 3 —
/// always runs.
#[derive(Clone, Debug, Default)]
pub struct Backends {
    /// The references the arena is held to.
    pub arena: Arena,
    /// Engine thread counts: each query in one mixed, duplicate-heavy
    /// batch per count.
    pub threads: &'static [usize],
    /// Each distinct query alone on a fresh engine.
    pub alone: bool,
    /// A warmed engine persisted, opened owned/eager and mapped/owed.
    pub store: bool,
    /// Shard stores at this vertex cap with levels and forests at these
    /// `k`s: exact classes bit-identical, the rest refused.
    pub shards: Option<(usize, &'static [usize])>,
    /// Batches applied in turn to an engine and a subscription manager.
    pub updates: Vec<Vec<EdgeUpdate>>,
}

/// Answers each query of `deck` once per enabled backend and compares
/// every answer with one reference: the oracle of the query's solver
/// class, or the exhaustive oracle on tiny graphs. The deck is
/// [`widened`] first.
pub fn agree(wg: &WeightedGraph, deck: &[Query], on: &Backends) -> Result<(), TestCaseError> {
    let deck = &widened(wg, deck);
    let want = agree_on_arena(wg, deck, &on.arena)?;
    for &threads in on.threads {
        engine(wg, deck, &want, threads)?;
    }
    if on.alone {
        alone(wg, deck, &want)?;
    }
    if on.store {
        store(wg, deck, &want)?;
    }
    if let Some((cap, ks)) = on.shards {
        sharded(wg, deck, &want, cap, ks)?;
    }
    if !on.updates.is_empty() {
        updates(wg, deck, &want, &on.updates)?;
    }
    Ok(())
}

/// `deck`, then the first query of each solver class in it again with
/// `r = u32::MAX`: a count no list fills, so no backend may size
/// anything by `r`. TIC's answer at that `r` is every community its
/// search tree holds, which grows exponentially with the graph, so its
/// classes are widened only on graphs the exhaustive oracle reaches.
fn widened(wg: &WeightedGraph, deck: &[Query]) -> Vec<Query> {
    let tic = [Solver::TicExact, Solver::TicApprox];
    let mut classes = Vec::new();
    let mut out = deck.to_vec();
    for q in deck {
        match q.solver() {
            Ok(class) if tic.contains(&class) && wg.num_vertices() >= 14 => {}
            Ok(class) if !classes.contains(&class) => {
                classes.push(class);
                let mut wide = *q;
                wide.r = u32::MAX as usize;
                out.push(wide);
            }
            _ => {}
        }
    }
    out
}

/// The deck and its reverse in one batch: every query twice, beside
/// its r-family siblings.
fn engine(
    wg: &WeightedGraph,
    deck: &[Query],
    want: &[Vec<Community>],
    threads: usize,
) -> Result<(), TestCaseError> {
    let batch: Vec<Query> = deck.iter().chain(deck.iter().rev()).copied().collect();
    let got = Engine::with_threads(wg.clone(), threads).run_batch(&batch);
    let twice = want.iter().chain(want.iter().rev());
    for ((q, got), want) in batch.iter().zip(got).zip(twice) {
        prop_assert_eq!(&got.unwrap(), want, "engine({}) batch {:?}", threads, q);
    }
    Ok(())
}

/// Each distinct query alone on a fresh engine: a one-query batch runs
/// on the calling thread whatever the engine's thread count.
fn alone(wg: &WeightedGraph, deck: &[Query], want: &[Vec<Community>]) -> Result<(), TestCaseError> {
    for (i, (q, want)) in deck.iter().zip(want).enumerate() {
        if deck[..i].contains(q) {
            continue;
        }
        let alone = Engine::with_threads(wg.clone(), 1).run_batch(&[*q]);
        prop_assert_eq!(alone[0].as_ref().unwrap(), want, "engine alone {:?}", q);
    }
    Ok(())
}

/// An engine warmed by the deck persists its graph, decomposition,
/// levels and forests; the file opened owned and eager, and mapped with
/// its adjacency check owed, answers the deck again.
fn store(wg: &WeightedGraph, deck: &[Query], want: &[Vec<Community>]) -> Result<(), TestCaseError> {
    let dir = ScratchDir::new("agree-store");
    let path = dir.join("warm.ics1");
    let warm = Engine::with_threads(wg.clone(), 1);
    warm.run_batch(deck);
    warm.persist(&path).unwrap();
    let answers = |engine: &Engine, backing: &str| -> Result<(), TestCaseError> {
        for ((q, got), want) in deck.iter().zip(engine.run_batch(deck)).zip(want) {
            prop_assert_eq!(&got.unwrap(), want, "store {} {:?}", backing, q);
        }
        Ok(())
    };

    let owned = StoreFile::open_with(&path, &OpenOptions::default()).unwrap();
    prop_assert_eq!(owned.backing_kind(), "owned");
    let contents = owned.load().unwrap();
    prop_assert_eq!(contents.weighted.graph(), wg.graph());
    let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    prop_assert_eq!(bits(contents.weighted.weights()), bits(wg.weights()));
    prop_assert_eq!(
        contents.decomposition.as_ref().unwrap(),
        &core_decomposition(wg.graph())
    );
    let d = degeneracy(wg.graph()) as usize;
    let peeled: BTreeSet<(usize, bool)> = deck
        .iter()
        .filter(|q| q.k <= d)
        .filter_map(|q| match solver(q) {
            Solver::MinPeel => Some((q.k, false)),
            Solver::MaxPeel => Some((q.k, true)),
            _ => None,
        })
        .collect();
    let persisted: BTreeSet<(usize, bool)> = contents
        .forests
        .iter()
        .map(|f| (f.k(), f.extremum() == Extremum::Max))
        .collect();
    prop_assert_eq!(persisted, peeled, "the warm forests are persisted");
    for forest in &contents.forests {
        prop_assert_eq!(
            forest,
            &ExtremumIndex::build(wg, forest.k(), forest.extremum())
        );
    }
    answers(&Engine::from_snapshot(contents.into_snapshot(), 1), "owned")?;

    let mapped = StoreFile::open_with(&path, &OpenOptions::mapped()).unwrap();
    prop_assert_eq!(mapped.backing_kind(), "mapped");
    let owing = mapped.load_deferred().unwrap().into_snapshot();
    prop_assert_eq!(owing.adjacency_state(), AdjacencyState::Owed);
    prop_assert_eq!(bits(owing.weighted().weights()), bits(wg.weights()));
    prop_assert!(owing.ensure_adjacency().is_ok());
    prop_assert_eq!(owing.adjacency_state(), AdjacencyState::Verified);
    prop_assert_eq!(owing.graph(), wg.graph());
    let eager = owned.load_deferred().unwrap().into_snapshot();
    prop_assert_eq!(eager.adjacency_state(), AdjacencyState::Verified);
    answers(&Engine::open_with_threads(&path, 1).unwrap(), "mapped")
}

/// Shard stores behind the scatter-gather front: the exact classes merge
/// bit-identically, approximate and size-bounded queries get a typed
/// refusal.
fn sharded(
    wg: &WeightedGraph,
    deck: &[Query],
    want: &[Vec<Community>],
    cap: usize,
    ks: &[usize],
) -> Result<(), TestCaseError> {
    let dir = ScratchDir::new("agree-shards");
    ic_store::shard::build_shard_stores(wg, ks, cap, &dir).unwrap();
    let sharded = ic_shard::ShardedEngine::open_dir(&dir).unwrap();
    prop_assert!(sharded.route(1).len() >= 2, "the shape must fan out");
    let got = sharded.run_batch_pinned(deck, &BatchOptions::default()).1;
    for ((q, got), want) in deck.iter().zip(got).zip(want) {
        match solver(q) {
            Solver::MinPeel | Solver::MaxPeel | Solver::TicExact => {
                let got = got.unwrap();
                prop_assert!(got.is_complete(), "sharded {:?}", q);
                prop_assert_eq!(&got.communities, want, "sharded {:?}", q);
            }
            _ => prop_assert!(
                matches!(got, Err(EngineError::Search(SearchError::InvalidParams(_)))),
                "sharded {:?} must be refused, got {:?}",
                q,
                got
            ),
        }
    }
    Ok(())
}

/// Every subscription starts from the reference answer. After every
/// batch, a warmed engine answers the deck like a fresh engine on the
/// mutated graph, its epoch advances iff the edge set changed, and every
/// subscription's deltas replay to the fresh answer — but the one
/// dropped after the first batch, which stays silent.
fn updates(
    wg: &WeightedGraph,
    deck: &[Query],
    want: &[Vec<Community>],
    script: &[Vec<EdgeUpdate>],
) -> Result<(), TestCaseError> {
    let n = wg.num_vertices();
    let eng = Engine::with_threads(wg.clone(), 1);
    eng.run_batch(deck);
    let manager = SubscriptionManager::new(Arc::new(Engine::with_threads(wg.clone(), 1)));
    let mut ids = Vec::with_capacity(deck.len());
    let mut held = Vec::with_capacity(deck.len());
    for (q, want) in deck.iter().zip(want) {
        let sub = manager.subscribe(*q).expect("subscribe");
        prop_assert_eq!(&sub.answer, want, "subscribe {:?}", q);
        ids.push(sub.id);
        held.push(sub.answer);
    }
    let mut edges: BTreeSet<(u32, u32)> = wg.graph().edges().collect();
    let mut dropped = None;
    for (step, batch) in script.iter().enumerate() {
        // `changed` is per update, as the maintainer counts it: an insert
        // then a remove of one edge nets to nothing but still advances.
        let mut changed = false;
        for update in batch {
            let (u, v) = update.endpoints();
            let key = (u.min(v), u.max(v));
            changed |= u != v
                && match update {
                    EdgeUpdate::Insert { .. } => edges.insert(key),
                    _ => edges.remove(&key),
                };
        }
        let before = eng.epoch();
        let after = eng.apply(batch);
        prop_assert_eq!(
            after > before,
            changed,
            "epoch advances iff the edge set changed"
        );
        let edge_list: Vec<(u32, u32)> = edges.iter().copied().collect();
        let mutated = ic_graph::graph_from_edges(n, &edge_list);
        let mutated = WeightedGraph::new(mutated, wg.weights().to_vec()).unwrap();
        let fresh = Engine::with_threads(mutated, 1).run_batch(deck);
        for ((q, got), want) in deck.iter().zip(eng.run_batch(deck)).zip(&fresh) {
            match (&got, want) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "step {}: {:?} after {:?}", step, q, batch),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "step {}: ok/err divergence on {:?}", step, q),
            }
        }

        let typed: Vec<EdgeUpdate> = batch
            .iter()
            .copied()
            .filter(|u| u.endpoints().0 != u.endpoints().1)
            .collect();
        if typed.is_empty() {
            continue;
        }
        let report = manager.apply(&typed).expect("apply");
        prop_assert_eq!(report.epoch, after, "epochs advance in lockstep");
        prop_assert_eq!(report.changed, changed);
        prop_assert!(
            report.failed.is_empty(),
            "no deadline-free refresh may fail"
        );
        for (i, new) in fresh.into_iter().enumerate() {
            let new = new.unwrap();
            let notification = report.notifications.iter().find(|x| x.id == ids[i]);
            if dropped == Some(i) {
                prop_assert!(
                    notification.is_none(),
                    "unsubscribed query notified at step {}",
                    step
                );
            } else {
                let delta = diff_answers(&held[i], &new);
                match notification {
                    Some(x) => {
                        prop_assert!(
                            !delta.is_empty(),
                            "step {}: notified but {:?} is unchanged",
                            step,
                            deck[i]
                        );
                        prop_assert_eq!(&x.deltas, &delta, "step {}: {:?}", step, deck[i]);
                        prop_assert_eq!(&replay(&held[i], &x.deltas), &new, "step {} replay", step);
                        prop_assert_eq!(&x.answer, &new);
                        prop_assert_eq!(x.epoch, report.epoch);
                    }
                    None => prop_assert!(
                        delta.is_empty(),
                        "step {}: {:?} changed silently",
                        step,
                        deck[i]
                    ),
                }
            }
            held[i] = new;
        }
        if dropped.is_none() {
            prop_assert!(manager.unsubscribe(ids[0]));
            dropped = Some(0);
        }
    }
    prop_assert_eq!(
        manager.stats().subscriptions,
        deck.len() - dropped.map_or(0, |_| 1)
    );
    Ok(())
}
