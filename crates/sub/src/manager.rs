//! The standing-query registry and its proof-pruned refresh loop.

use crate::delta::{diff_answers, Delta};
use ic_core::Community;
use ic_engine::{BatchOptions, EdgeUpdate, Engine, EngineError, Epoch, Query};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Opaque handle of one standing query, unique within a manager.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriptionId(pub u64);

impl std::fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sub {}", self.0)
    }
}

/// What [`SubscriptionManager::subscribe`] returns: the handle, the
/// initial full answer, and the epoch it was computed under.
#[derive(Clone, Debug)]
pub struct Subscribed {
    /// The subscription handle (quote it to unsubscribe).
    pub id: SubscriptionId,
    /// The standing query's current answer, in rank order.
    pub answer: Vec<Community>,
    /// The epoch the answer was computed under.
    pub epoch: Epoch,
}

/// One notification: a subscription's answer changed across an apply.
#[derive(Clone, Debug)]
pub struct Notification {
    /// Which subscription changed.
    pub id: SubscriptionId,
    /// The epoch of the new answer.
    pub epoch: Epoch,
    /// The changes, in the canonical [`diff_answers`] order — never
    /// empty (an unchanged answer produces no notification).
    pub deltas: Vec<Delta>,
    /// The full new answer, so a consumer that lost a notification (or
    /// was flagged for resync by its gate) can rebase without another
    /// round trip.
    pub answer: Vec<Community>,
}

/// The outcome of one [`SubscriptionManager::apply`].
#[derive(Clone, Debug, Default)]
pub struct ApplyReport {
    /// The epoch serving after the apply.
    pub epoch: Epoch,
    /// Whether the update batch changed the edge set at all.
    pub changed: bool,
    /// Subscriptions skipped because the apply provably left their
    /// answer unchanged — no re-solve ran for these.
    pub skipped: usize,
    /// Subscriptions re-solved (the apply could have changed them).
    pub refreshed: usize,
    /// One entry per subscription whose answer actually changed.
    pub notifications: Vec<Notification>,
    /// Refreshes that failed (e.g. an isolated solver panic); the
    /// subscription keeps its previous answer and is owed a refresh: the
    /// next apply re-solves it whatever that apply's proof says, because
    /// the answer it keeps was never proven for the epoch it missed.
    pub failed: Vec<(SubscriptionId, EngineError)>,
}

/// Cumulative counters of a [`SubscriptionManager`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubStats {
    /// Standing queries currently registered.
    pub subscriptions: usize,
    /// Applies processed (including no-op update batches).
    pub applies: u64,
    /// Refreshes skipped by the apply's unchanged-answer proof.
    pub skipped_total: u64,
    /// Re-solves performed.
    pub refreshed_total: u64,
    /// Notifications emitted (non-empty delta sets).
    pub notifications_total: u64,
}

struct Standing {
    query: Query,
    answer: Vec<Community>,
    /// The last refresh failed: `answer` may predate the serving epoch,
    /// so no apply's proof can keep it.
    owed: bool,
}

struct Inner {
    next_id: u64,
    subs: BTreeMap<u64, Standing>,
    stats: SubStats,
}

/// The subscription registry over one [`Engine`]: standing queries in,
/// typed delta notifications out, with the engine's apply proof
/// pruning provably-unaffected refreshes. See the crate docs for the
/// soundness argument.
///
/// All methods take `&self`; registration and applies serialize on an
/// internal mutex (applies already serialize inside the engine), while
/// the engine keeps answering reads concurrently.
pub struct SubscriptionManager {
    engine: Arc<Engine>,
    inner: Mutex<Inner>,
}

impl SubscriptionManager {
    /// A manager over `engine`. The engine stays usable directly — but
    /// route every mutation through [`SubscriptionManager::apply`], or
    /// subscribers silently miss the epochs applied behind their back.
    pub fn new(engine: Arc<Engine>) -> Self {
        SubscriptionManager {
            engine,
            inner: Mutex::new(Inner {
                next_id: 0,
                subs: BTreeMap::new(),
                stats: SubStats::default(),
            }),
        }
    }

    /// The engine this manager fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Registers `query` as a standing query, solving it once for the
    /// initial answer. The query's deadline is cleared: standing
    /// queries run to completion, because a deadline-degraded answer is
    /// not deterministic and would manufacture spurious deltas.
    pub fn subscribe(&self, mut query: Query) -> Result<Subscribed, EngineError> {
        query.deadline = None;
        let (epoch, mut results) = self
            .engine
            .run_batch_pinned(std::slice::from_ref(&query), &BatchOptions::default());
        let answer = results.remove(0)?.communities;
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let id = SubscriptionId(inner.next_id);
        inner.next_id += 1;
        inner.subs.insert(
            id.0,
            Standing {
                query,
                answer: answer.clone(),
                owed: false,
            },
        );
        inner.stats.subscriptions = inner.subs.len();
        Ok(Subscribed { id, answer, epoch })
    }

    /// Removes a standing query; `false` when the id is unknown.
    pub fn unsubscribe(&self, id: SubscriptionId) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let removed = inner.subs.remove(&id.0).is_some();
        inner.stats.subscriptions = inner.subs.len();
        removed
    }

    /// Standing queries currently registered.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .subs
            .len()
    }

    /// Whether no standing query is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative counters.
    pub fn stats(&self) -> SubStats {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).stats
    }

    /// Applies `updates` through the engine and refreshes exactly the
    /// standing queries the apply cannot prove unaffected.
    ///
    /// Per subscription: if [`ApplyOutcome::keeps`](ic_engine::ApplyOutcome::keeps)
    /// holds for the retained answer — its level is above the batch's
    /// ceiling, or a `min` answer's `r`-th value is above every toggle's
    /// lighter endpoint — that answer is provably bit-identical to a
    /// re-solve, and the subscription is counted in
    /// [`ApplyReport::skipped`] and costs nothing. The rest are
    /// re-solved in **one** engine batch (dedup and family merging
    /// apply across subscriptions), diffed against their retained
    /// answers, and an [`ApplyReport::notifications`] entry is emitted
    /// for each non-empty diff.
    ///
    /// A refresh that fails (reported in [`ApplyReport::failed`]) leaves
    /// the retained answer in place, unproven for the epoch it missed:
    /// the subscription is owed a refresh, and the next apply re-solves
    /// it whatever that apply's proof says — even an apply that changes
    /// nothing.
    ///
    /// Returns [`EngineError::Unsupported`] (nothing applied, nothing
    /// notified) when an update addresses an invalid endpoint.
    pub fn apply(&self, updates: &[EdgeUpdate]) -> Result<ApplyReport, EngineError> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let outcome = self.engine.try_apply_journaled(updates)?;
        let inner = &mut *inner;
        inner.stats.applies += 1;
        let mut report = ApplyReport {
            epoch: outcome.epoch,
            changed: outcome.changed,
            ..ApplyReport::default()
        };

        // Partition by the apply's proof (which keeps everything when
        // nothing changed): no graph work.
        let mut refresh: Vec<u64> = Vec::new();
        for (&id, standing) in inner.subs.iter() {
            if !standing.owed && outcome.keeps(&standing.query, &standing.answer) {
                report.skipped += 1;
            } else {
                refresh.push(id);
            }
        }
        inner.stats.skipped_total += report.skipped as u64;
        if refresh.is_empty() {
            return Ok(report);
        }

        // One batch for every affected subscription: the engine's
        // planner dedups identical queries and merges r-families, so n
        // subscriptions over one hot query cost one solve.
        let queries: Vec<Query> = refresh.iter().map(|id| inner.subs[id].query).collect();
        let (epoch, results) = self
            .engine
            .run_batch_pinned(&queries, &BatchOptions::default());
        report.epoch = epoch;
        for (id, result) in refresh.into_iter().zip(results) {
            let sid = SubscriptionId(id);
            match result {
                Ok(answer) => {
                    report.refreshed += 1;
                    inner.stats.refreshed_total += 1;
                    let standing = inner.subs.get_mut(&id).expect("held under one lock");
                    standing.owed = false;
                    let deltas = diff_answers(&standing.answer, &answer.communities);
                    if !deltas.is_empty() {
                        standing.answer = answer.communities.clone();
                        inner.stats.notifications_total += 1;
                        report.notifications.push(Notification {
                            id: sid,
                            epoch,
                            deltas,
                            answer: answer.communities,
                        });
                    }
                }
                Err(e) => {
                    inner.subs.get_mut(&id).expect("held under one lock").owed = true;
                    report.failed.push((sid, e));
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_core::figure1::figure1;
    use ic_core::Aggregation;
    use ic_graph::graph_from_edges;
    use ic_graph::WeightedGraph;

    fn manager() -> SubscriptionManager {
        SubscriptionManager::new(Arc::new(Engine::with_threads(figure1(), 2)))
    }

    #[test]
    fn subscribe_answers_like_a_direct_solve() {
        let m = manager();
        let q = Query::new(2, 3, Aggregation::Min);
        let sub = m.subscribe(q).unwrap();
        assert_eq!(sub.answer, q.solve(&figure1()).unwrap());
        assert_eq!(m.len(), 1);
        assert!(m.unsubscribe(sub.id));
        assert!(!m.unsubscribe(sub.id));
        assert!(m.is_empty());
    }

    #[test]
    fn invalid_standing_queries_are_refused_at_subscribe() {
        let m = manager();
        assert!(m.subscribe(Query::new(2, 0, Aggregation::Min)).is_err());
        assert!(m.is_empty());
    }

    #[test]
    fn notifications_match_the_fresh_engine_diff_oracle() {
        let m = manager();
        let queries = [
            Query::new(2, 3, Aggregation::Min),
            Query::new(2, 2, Aggregation::Sum),
            Query::new(3, 2, Aggregation::Max),
        ];
        let subs: Vec<Subscribed> = queries.iter().map(|&q| m.subscribe(q).unwrap()).collect();
        let before: Vec<Vec<Community>> = subs.iter().map(|s| s.answer.clone()).collect();

        let report = m.apply(&[EdgeUpdate::Remove { u: 2, v: 8 }]).unwrap();
        assert!(report.changed);
        assert!(report.failed.is_empty());
        assert_eq!(report.skipped + report.refreshed, queries.len());

        // Oracle: a fresh engine on the mutated graph, answers diffed
        // against the pre-update answers.
        let fresh = Engine::with_threads(m.engine().snapshot().weighted().clone(), 2);
        for ((q, sub), old) in queries.iter().zip(&subs).zip(&before) {
            let new = fresh.run_batch(&[*q])[0].clone().unwrap();
            let want = crate::diff_answers(old, &new);
            let got = report
                .notifications
                .iter()
                .find(|n| n.id == sub.id)
                .map(|n| n.deltas.clone())
                .unwrap_or_default();
            assert_eq!(got, want, "{q:?}");
            if let Some(n) = report.notifications.iter().find(|n| n.id == sub.id) {
                assert_eq!(n.answer, new);
                assert_eq!(crate::replay(old, &n.deltas), new);
            }
        }
    }

    #[test]
    fn untouched_levels_are_skipped_without_a_resolve() {
        // Two disjoint triangles plus an isolated pair: updates on the
        // pair never touch the 2-core.
        let g = graph_from_edges(8, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7)]);
        let wg = WeightedGraph::new(g, (1..=8).map(f64::from).collect()).unwrap();
        let m = SubscriptionManager::new(Arc::new(Engine::with_threads(wg, 1)));
        m.subscribe(Query::new(2, 2, Aggregation::Min)).unwrap();

        let report = m.apply(&[EdgeUpdate::Remove { u: 6, v: 7 }]).unwrap();
        assert!(report.changed);
        assert_eq!(report.skipped, 1, "2-core untouched: provably skipped");
        assert_eq!(report.refreshed, 0);
        assert!(report.notifications.is_empty());
        assert_eq!(m.stats().skipped_total, 1);

        // A no-op batch (edge already absent) also skips everything.
        let report = m.apply(&[EdgeUpdate::Remove { u: 6, v: 7 }]).unwrap();
        assert!(!report.changed);
        assert_eq!(report.skipped, 1);

        // But the skip is not a rubber stamp: deleting a triangle edge
        // does refresh (and notifies — the community dissolved).
        let report = m.apply(&[EdgeUpdate::Remove { u: 0, v: 1 }]).unwrap();
        assert_eq!(report.refreshed, 1);
        assert_eq!(report.notifications.len(), 1);
    }

    #[test]
    fn invalid_updates_leave_subscriptions_untouched() {
        let m = manager();
        let sub = m.subscribe(Query::new(2, 2, Aggregation::Min)).unwrap();
        let err = m
            .apply(&[EdgeUpdate::Insert { u: 0, v: 10_000 }])
            .expect_err("out of range");
        assert!(matches!(err, EngineError::Unsupported { .. }));
        // The standing answer still matches a re-solve on the (never
        // mutated) graph.
        let again = m.engine().run_batch(&[Query::new(2, 2, Aggregation::Min)])[0]
            .clone()
            .unwrap();
        assert_eq!(sub.answer, again);
    }
}
