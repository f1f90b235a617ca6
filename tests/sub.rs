//! Standing-query conformance: the deltas a `SubscriptionManager`
//! streams are **defined** to equal diffing two full re-solves — the
//! journal pruning, index repair and answer caching in between are pure
//! optimization and must be observationally invisible.
//!
//! The update arm of [`common::agree`] holds it for every batch of a
//! randomized script (mixed inserts and removes, no-ops and duplicates
//! included):
//!
//! * a subscription is notified **iff** a fresh engine on the mutated
//!   graph answers its query differently;
//! * the notification's deltas equal `diff_answers(old, new)` of those
//!   answers, and replaying them onto the old answer reproduces the new
//!   one bit for bit;
//! * epochs advance in lockstep with a plain engine's;
//! * an unsubscribed query is never notified again, and its removal
//!   does not perturb anyone else's stream.

use common::{agree, arb_workload, Backends, Shape};
use ic_core::{Aggregation, Query};
use proptest::prelude::*;

mod common;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(34))]

    /// The standing mix — extremal and sum families across small
    /// (k, r), covering both the index-repair refresh and the full peel,
    /// and r near the community count, so answers shrink and grow at
    /// the tail — on the four families, tie-heavy weights included: rank
    /// collisions are where a sloppy diff would misattribute a
    /// `RankMoved` as a leave/enter pair.
    #[test]
    fn deltas_match_the_full_resolve_oracle(
        wg in arb_workload(Shape::Families(0..4), 0..5, 20..64),
        script in common::arb_script(1..5, 1..24),
    ) {
        let deck = [
            Query::new(2, 1, Aggregation::Min),
            Query::new(2, 3, Aggregation::Max),
            Query::new(3, 2, Aggregation::Min),
            Query::new(2, 2, Aggregation::Sum),
            Query::new(3, 1, Aggregation::Max),
            Query::new(2, 12, Aggregation::Min),
            Query::new(3, 6, Aggregation::Max),
            Query::new(3, 6, Aggregation::Sum),
        ];
        let n = wg.num_vertices();
        let updates = script.iter().map(|b| common::concrete_batch(b, n)).collect();
        agree(&wg, &deck, &Backends { updates, ..Backends::default() })?;
    }
}
