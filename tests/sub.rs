//! Standing-query conformance: the deltas a [`SubscriptionManager`]
//! streams are **defined** to equal diffing two full re-solves — the
//! journal pruning, index repair, and answer caching in between are
//! pure optimization and must be observationally invisible.
//!
//! Property-based over ER / Barabási-Albert / Chung-Lu graphs and
//! randomized update scripts (mixed inserts and removes, including
//! no-ops and duplicates). For every batch of every script:
//!
//! * a subscription is notified **iff** a fresh re-solve of its query
//!   on a twin engine (same script, no subscription machinery) yields
//!   a different answer;
//! * the notification's deltas equal `diff_answers(old, new)` of the
//!   twin's answers, and replaying them onto the old answer reproduces
//!   the new one bit-for-bit;
//! * epochs advance in lockstep on both engines;
//! * an unsubscribed query is never notified again, and its removal
//!   does not perturb anyone else's stream.

use ic_core::{Aggregation, Community, Query};
use ic_engine::Engine;
use ic_sub::{diff_answers, replay, SubscriptionManager};
use proptest::prelude::*;
use std::sync::Arc;

mod common;

/// The standing mix: extremal and sum families across small (k, r),
/// covering both the index-repair refresh path and the full peel.
fn standing_mix() -> Vec<Query> {
    vec![
        Query::new(2, 1, Aggregation::Min),
        Query::new(2, 3, Aggregation::Max),
        Query::new(3, 2, Aggregation::Min),
        Query::new(2, 2, Aggregation::Sum),
        Query::new(3, 1, Aggregation::Max),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline contract, end to end over a whole script: every
    /// notification equals the twin-engine re-solve diff, silence means
    /// a bit-identical answer, and epochs stay in lockstep.
    #[test]
    fn deltas_match_the_full_resolve_oracle(
        // ER / BA / Chung-Lu with tie-heavy weights in the mix: rank
        // collisions are where a sloppy diff would misattribute a
        // `RankMoved` as a leave/enter pair.
        wg in common::arb_workload(0..3, 0..4, 20..64),
        script in common::arb_script(1..5),
    ) {
        let n = wg.num_vertices();
        let queries = standing_mix();

        let manager = SubscriptionManager::new(Arc::new(Engine::with_threads(wg.clone(), 1)));
        let twin = Engine::with_threads(wg, 1);

        let mut ids = Vec::with_capacity(queries.len());
        let mut held: Vec<Vec<Community>> = Vec::with_capacity(queries.len());
        for q in &queries {
            let sub = manager.subscribe(*q).expect("subscribe");
            let oracle = twin.run_batch(&[*q])[0].clone().expect("twin answers");
            prop_assert_eq!(&sub.answer, &oracle, "initial answer must match a fresh solve");
            ids.push(sub.id);
            held.push(sub.answer);
        }

        // Drop one subscription after the first batch: the rest of the
        // script must keep satisfying the oracle for everyone else
        // while the dead id stays silent.
        let mut dropped: Option<usize> = None;

        for (step, batch) in script.iter().enumerate() {
            let updates = common::concrete_batch(batch, n);
            if updates.is_empty() {
                continue;
            }
            let report = manager.apply(&updates).expect("apply");
            let twin_epoch = twin.try_apply(&updates).expect("twin apply");
            prop_assert_eq!(report.epoch, twin_epoch, "epochs must advance in lockstep");
            prop_assert!(report.failed.is_empty(), "no deadline-free refresh may fail");

            for (i, q) in queries.iter().enumerate() {
                let new = twin.run_batch(&[*q])[0].clone().expect("twin re-solve");
                let notification = report.notifications.iter().find(|x| x.id == ids[i]);
                if dropped == Some(i) {
                    prop_assert!(
                        notification.is_none(),
                        "unsubscribed query notified at step {}", step
                    );
                    held[i] = new;
                    continue;
                }
                let want = diff_answers(&held[i], &new);
                match notification {
                    Some(x) => {
                        prop_assert!(
                            !want.is_empty(),
                            "notified at step {} but the oracle answer is unchanged", step
                        );
                        prop_assert_eq!(&x.deltas, &want, "delta mismatch at step {}", step);
                        prop_assert_eq!(
                            replay(&held[i], &x.deltas), new.clone(),
                            "replay must reproduce the oracle answer at step {}", step
                        );
                        prop_assert_eq!(&x.answer, &new);
                        prop_assert_eq!(x.epoch, report.epoch);
                    }
                    None => prop_assert!(
                        want.is_empty(),
                        "oracle changed at step {} but no notification arrived: {:?}",
                        step, want
                    ),
                }
                held[i] = new;
            }

            if step == 0 {
                let victim = 1usize;
                prop_assert!(manager.unsubscribe(ids[victim]));
                dropped = Some(victim);
            }
        }

        // The journal's accounting must cover exactly the live
        // subscriptions on every changed apply.
        let stats = manager.stats();
        prop_assert_eq!(stats.subscriptions, queries.len() - dropped.map_or(0, |_| 1));
    }
}
