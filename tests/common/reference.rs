//! The oracle and arena arm of the agreement harness: the reference
//! answer of each query and `Query::solve_on` held to it. The suites
//! under `tests/` reach it through `common::agree`; the ic-core suites,
//! which must not link the engine, include this file and the workload
//! generator alone.

// Each suite that includes this file uses part of it.
#![allow(dead_code)]

use ic_core::algo::{self, oracle};
use ic_core::verify::check_community;
use ic_core::{Aggregation, Community, Constraint, Query, Solver};
use ic_graph::WeightedGraph;
use ic_kcore::{degeneracy, GraphSnapshot, PeelArena};
use proptest::prelude::*;

/// The references [`agree_on_arena`] holds the arena to beside the
/// oracle of each query's solver class.
#[derive(Clone, Copy, Debug, Default)]
pub struct Arena {
    /// The reference is the exhaustive oracle (`exact_topr`; `exact_naive`
    /// bounds the size-bounded answers): tiny graphs only.
    pub exhaustive: bool,
    /// Algorithm 1 beside every exact sum-class query: bit-identical to
    /// its oracle, and equal in value to Algorithm 2.
    pub naive: bool,
}

/// The reference answer of each query of `deck` — the oracle of its
/// solver class, or the exhaustive oracle on tiny graphs — with
/// `Query::solve_on` on a fresh snapshot held to it bit for bit.
pub fn agree_on_arena(
    wg: &WeightedGraph,
    deck: &[Query],
    on: &Arena,
) -> Result<Vec<Vec<Community>>, TestCaseError> {
    let d = degeneracy(wg.graph()) as usize;
    let mut want = Vec::with_capacity(deck.len());
    let mut enumerated = Vec::new();
    for q in deck {
        let reference = reference(wg, deck, q, on.exhaustive.then_some(&mut enumerated))?;
        prop_assert!(q.k <= d || reference.is_empty(), "k > degeneracy: {:?}", q);
        want.push(reference);
    }
    arena(wg, deck, &want, on.naive)?;
    Ok(want)
}

/// A size bound from k + 1 to 2(k + 1) + 1: from the smallest community
/// to past two disjoint (k + 1)-cliques, so the exhaustive oracle meets
/// disconnected subsets it must refuse.
pub fn size_bound(k: usize, slack: usize) -> usize {
    k + 1 + slack % (k + 3)
}

pub fn solver(q: &Query) -> Solver {
    q.solver().expect("deck queries are valid")
}

fn values(list: &[Community]) -> Vec<f64> {
    list.iter().map(|c| c.value).collect()
}

fn assert_close(a: &[f64], b: &[f64], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "{}: {:?} vs {:?}", what, a, b);
    for (x, y) in a.iter().zip(b) {
        prop_assert!((x - y).abs() < 1e-9, "{}: {:?} vs {:?}", what, a, b);
    }
    Ok(())
}

/// What `exact_topr` enumerated per `(k, aggregation)`, at the largest
/// r of the deck: every top r is a prefix of it.
type Enumerated = Vec<(usize, Aggregation, Vec<Community>)>;

/// The from-scratch oracle of `q`'s solver class. On exhaustive decks it
/// must equal `exact_topr`, and a size-bounded answer is held to the
/// exhaustive optimum over the same bounded space.
fn reference(
    wg: &WeightedGraph,
    deck: &[Query],
    q: &Query,
    exhaustive: Option<&mut Enumerated>,
) -> Result<Vec<Community>, TestCaseError> {
    let (k, r, agg) = (q.k, q.r, q.aggregation);
    let class = match solver(q) {
        Solver::MinPeel => oracle::min_topr(wg, k, r),
        Solver::MaxPeel => oracle::max_topr(wg, k, r),
        Solver::LocalSearch => oracle::local_search(wg, &q.local_search_config(), agg),
        _ => oracle::tic_improved(wg, k, r, agg, q.epsilon),
    };
    let class = class.expect("deck queries are valid");
    let Some(enumerated) = exhaustive.filter(|_| q.epsilon == 0.0) else {
        return Ok(class);
    };
    if let Constraint::SizeBound { s, .. } = q.constraint {
        let naive = oracle::exact_naive(wg, k, r, s, agg).unwrap();
        // Algorithm 3 keeps no maximality filter: it answers like
        // `exact_topr` where every superset is worth more.
        if agg.certificates().removal_decreasing {
            let bounded = oracle::exact_topr(wg, k, r, Some(s), agg).unwrap();
            assert_close(&values(&naive), &values(&bounded), "exact_naive")?;
        }
        if let Some(best) = class.first() {
            let opt = naive
                .first()
                .expect("the optimum is at least the heuristic's");
            prop_assert!(
                best.value <= opt.value + 1e-9,
                "{:?}: {} > {}",
                q,
                best.value,
                opt.value
            );
        }
    } else {
        let at = enumerated.iter().position(|e| (e.0, e.1) == (k, agg));
        let at = at.unwrap_or_else(|| {
            let same = deck.iter().filter(|p| (p.k, p.aggregation) == (k, agg));
            let r_max = same.map(|p| p.r).max().unwrap_or(r);
            enumerated.push((k, agg, oracle::exact_topr(wg, k, r_max, None, agg).unwrap()));
            enumerated.len() - 1
        });
        let exact = &enumerated[at].2;
        prop_assert_eq!(
            &class[..],
            &exact[..r.min(exact.len())],
            "class oracle vs exact_topr {:?}",
            q
        );
    }
    Ok(class)
}

/// Query::solve_on against a fresh snapshot; Algorithm 1 beside it.
fn arena(
    wg: &WeightedGraph,
    deck: &[Query],
    want: &[Vec<Community>],
    naive: bool,
) -> Result<(), TestCaseError> {
    for (q, want) in deck.iter().zip(want) {
        let snap = GraphSnapshot::new(wg.clone());
        let mut arena = PeelArena::for_graph(snap.graph());
        let got = q.solve_on(&snap, &mut arena).unwrap();
        prop_assert_eq!(&got, want, "arena {:?}", q);
        let bound = match q.constraint {
            Constraint::SizeBound { s, .. } => Some(s),
            _ => None,
        };
        for c in &got {
            let checked = check_community(wg, q.k, bound, q.aggregation, c);
            prop_assert!(
                checked.is_ok(),
                "{:?} answered {:?}: {:?}",
                q,
                c.vertices,
                checked
            );
        }
        if naive && solver(q) == Solver::TicExact {
            let (k, r, agg) = (q.k, q.r, q.aggregation);
            let alg1 = algo::sum_naive_on(&snap, k, r, agg, &mut arena).unwrap();
            prop_assert_eq!(
                &alg1,
                &oracle::sum_naive(wg, k, r, agg).unwrap(),
                "Algorithm 1 {:?}",
                q
            );
            assert_close(&values(&alg1), &values(want), "Algorithms 1 and 2")?;
        }
    }
    Ok(())
}
