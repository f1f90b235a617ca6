//! Answer checking. During a window every reply to a checked slot is
//! reduced to a digest and compared with the slot's first reply; after
//! the window each slot's first reply is compared with a reference
//! computed here by a direct `Query::solve_on` over a fresh snapshot.
//! All reference work happens outside the timed window.

use ic_core::verify::check_community;
use ic_core::{Community, Constraint, Query, Solver};
use ic_graph::WeightedGraph;
use ic_kcore::{ArenaPool, GraphSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Order-sensitive digest of an answer: community count, then each
/// community's `value.to_bits()`, size and vertex list.
pub fn digest(answer: &[Community]) -> u64 {
    #[inline]
    fn mix(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
    }
    let mut h = mix(0x1C_BE4C, answer.len() as u64);
    for c in answer {
        h = mix(h, c.value.to_bits());
        h = mix(h, c.vertices.len() as u64);
        for &v in &c.vertices {
            h = mix(h, u64::from(v));
        }
    }
    h
}

/// What a checked slot remembers of the replies it saw.
#[derive(Clone, Debug, Default)]
pub struct Slot {
    pub query: Option<Query>,
    /// Digest of the first reply.
    pub first: u64,
    /// The first reply itself, kept only for size-bounded queries: their
    /// answers are heuristic, so they are verified, not bit-compared.
    pub bounded_answer: Option<Vec<Community>>,
    pub replies: u64,
    /// Replies whose digest differed from the first one.
    pub drifted: u64,
}

pub fn is_bounded(q: &Query) -> bool {
    matches!(q.constraint, Constraint::SizeBound { .. })
}

#[derive(Clone, Debug, Default)]
pub struct Slots(pub Vec<Slot>);

impl Slots {
    pub fn with_len(n: usize) -> Slots {
        Slots(vec![Slot::default(); n])
    }

    pub fn observe(&mut self, slot: u32, query: &Query, answer: &[Community]) {
        let s = &mut self.0[slot as usize];
        let d = digest(answer);
        if s.replies == 0 {
            s.query = Some(*query);
            s.first = d;
            if is_bounded(query) {
                s.bounded_answer = Some(answer.to_vec());
            }
        } else if d != s.first {
            s.drifted += 1;
        }
        s.replies += 1;
    }

    /// Folds another client's view of the same slots into this one.
    pub fn merge(&mut self, other: Slots) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            if theirs.replies == 0 {
                continue;
            }
            if mine.replies == 0 {
                *mine = theirs;
                continue;
            }
            if mine.first != theirs.first {
                mine.drifted += theirs.replies;
            }
            mine.replies += theirs.replies;
            mine.drifted += theirs.drifted;
        }
    }
}

/// Outcome of checking: how many slots were compared and a line per
/// mismatch. A mismatch counts as a failed op and fails the run.
#[derive(Debug, Default)]
pub struct Verdict {
    pub checked: u64,
    pub mismatches: Vec<String>,
}

impl Verdict {
    pub fn absorb(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.mismatches.extend(other.mismatches);
    }

    fn fail(&mut self, what: String) {
        if self.mismatches.len() < 16 {
            eprintln!("MISMATCH {what}");
        }
        self.mismatches.push(what);
    }
}

/// Bit-compares (or, for size-bounded queries, verifies) every observed
/// slot against direct solves on `wg`. The reference snapshot is fresh:
/// it shares nothing with the engine that served the replies. Work is
/// split over two threads, each with its own arena.
///
/// Plain min/max slots that differ only in `r` share one direct solve at
/// their largest `r`: the ranking is a total order, so the top-r answer
/// is the length-r prefix of any longer one. (`cold_open` serves 56 such
/// queries against a 400k-vertex graph, where one peel costs 0.3 s.)
pub fn against_reference(wg: &WeightedGraph, slots: &Slots) -> Verdict {
    let snapshot = GraphSnapshot::new(wg.clone());
    let pool = ArenaPool::for_graph(snapshot.graph());
    let mut families: BTreeMap<(usize, bool), Vec<&Slot>> = BTreeMap::new();
    let mut singles: Vec<&Slot> = Vec::new();
    for slot in slots.0.iter().filter(|s| s.replies > 0) {
        let query = slot.query.expect("observed slots carry their query");
        match query.solver() {
            Ok(Solver::MinPeel) => families.entry((query.k, false)).or_default().push(slot),
            Ok(Solver::MaxPeel) => families.entry((query.k, true)).or_default().push(slot),
            _ => singles.push(slot),
        }
    }
    let mut jobs: Vec<Vec<&Slot>> = families.into_values().collect();
    jobs.extend(singles.into_iter().map(|s| vec![s]));
    let next = AtomicUsize::new(0);
    let mut verdict = Verdict::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (snapshot, pool, jobs, next) = (&snapshot, &pool, &jobs, &next);
                scope.spawn(move || {
                    let mut verdict = Verdict::default();
                    let mut arena = pool.acquire();
                    while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        check_job(snapshot, &mut arena, job, &mut verdict);
                    }
                    verdict
                })
            })
            .collect();
        for worker in workers {
            verdict.absorb(worker.join().expect("reference worker panicked"));
        }
    });
    verdict
}

/// Checks slots that one direct solve answers: a single slot, or a
/// min/max family at one `k`.
fn check_job(
    snapshot: &GraphSnapshot,
    arena: &mut ic_kcore::PeelArena,
    job: &[&Slot],
    verdict: &mut Verdict,
) {
    let widest = job
        .iter()
        .map(|s| s.query.expect("observed slot"))
        .max_by_key(|q| q.r)
        .expect("a job holds at least one slot");
    let solved = if is_bounded(&widest) {
        Ok(Vec::new())
    } else {
        widest.solve_on(snapshot, arena)
    };
    for slot in job {
        let query = slot.query.expect("observed slot");
        verdict.checked += 1;
        if slot.drifted > 0 && !is_bounded(&query) {
            verdict.fail(format!(
                "{query:?}: {} of {} replies differed from the first",
                slot.drifted, slot.replies
            ));
        }
        if let Some(answer) = &slot.bounded_answer {
            let Constraint::SizeBound { s, .. } = query.constraint else {
                unreachable!("bounded_answer is kept for size-bounded queries only");
            };
            if answer.len() > query.r {
                verdict.fail(format!("{query:?}: {} communities exceed r", answer.len()));
            }
            for c in answer {
                if let Err(v) =
                    check_community(snapshot.weighted(), query.k, Some(s), query.aggregation, c)
                {
                    verdict.fail(format!("{query:?}: community fails verification: {v:?}"));
                }
            }
            continue;
        }
        match &solved {
            Ok(want) => {
                let want = &want[..want.len().min(query.r)];
                if digest(want) != slot.first {
                    verdict.fail(format!(
                        "{query:?}: served digest {:#x} != direct solve {:#x} ({} communities)",
                        slot.first,
                        digest(want),
                        want.len()
                    ));
                }
            }
            Err(e) => verdict.fail(format!("{query:?}: direct solve failed: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_core::figure1::figure1;
    use ic_core::Aggregation;

    #[test]
    fn digest_sees_count_value_bits_and_vertex_order() {
        let a = vec![Community::new(vec![1, 2, 3], 1.5)];
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&[]));
        assert_ne!(digest(&a), digest(&[Community::new(vec![1, 2, 3], -1.5)]));
        assert_ne!(digest(&a), digest(&[Community::new(vec![1, 2, 4], 1.5)]));
        let two = vec![Community::new(vec![1], 1.0), Community::new(vec![2], 1.0)];
        let swapped: Vec<Community> = two.iter().rev().cloned().collect();
        assert_ne!(digest(&two), digest(&swapped));
    }

    #[test]
    fn reference_accepts_true_answers_and_flags_wrong_ones() {
        let wg = figure1();
        let exact = Query::new(2, 2, Aggregation::Sum);
        let bounded = Query::new(2, 2, Aggregation::Average).size_bound(4, true);
        let mut slots = Slots::with_len(3);
        slots.observe(0, &exact, &exact.solve(&wg).unwrap());
        slots.observe(1, &bounded, &bounded.solve(&wg).unwrap());
        let verdict = against_reference(&wg, &slots);
        assert_eq!(verdict.checked, 2);
        assert!(verdict.mismatches.is_empty(), "{:?}", verdict.mismatches);

        let mut wrong = exact.solve(&wg).unwrap();
        wrong[0].value += 1.0;
        slots.observe(2, &exact, &wrong);
        assert_eq!(against_reference(&wg, &slots).mismatches.len(), 1);
    }

    #[test]
    fn a_min_family_is_checked_against_prefixes_of_its_widest_member() {
        let wg = figure1();
        let mut slots = Slots::with_len(3);
        for (slot, r) in [1usize, 2, 3].into_iter().enumerate() {
            let q = Query::new(2, r, Aggregation::Min);
            slots.observe(slot as u32, &q, &q.solve(&wg).unwrap());
        }
        let verdict = against_reference(&wg, &slots);
        assert_eq!(verdict.checked, 3);
        assert!(verdict.mismatches.is_empty(), "{:?}", verdict.mismatches);
        // A served top-1 that is really the runner-up must not pass.
        let q1 = Query::new(2, 1, Aggregation::Min);
        let runner_up = vec![Query::new(2, 2, Aggregation::Min).solve(&wg).unwrap()[1].clone()];
        let mut bad = Slots::with_len(2);
        bad.observe(0, &q1, &runner_up);
        let q3 = Query::new(2, 3, Aggregation::Min);
        bad.observe(1, &q3, &q3.solve(&wg).unwrap());
        assert_eq!(against_reference(&wg, &bad).mismatches.len(), 1);
    }

    #[test]
    fn drift_between_replies_and_between_clients_is_counted() {
        let q = Query::new(2, 1, Aggregation::Min);
        let a = vec![Community::new(vec![1, 2], 1.0)];
        let b = vec![Community::new(vec![1, 3], 1.0)];
        let mut one = Slots::with_len(1);
        one.observe(0, &q, &a);
        one.observe(0, &q, &b);
        assert_eq!(one.0[0].drifted, 1);
        let mut other = Slots::with_len(1);
        other.observe(0, &q, &b);
        one.merge(other);
        assert_eq!((one.0[0].replies, one.0[0].drifted), (3, 2));
    }
}
