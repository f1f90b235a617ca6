//! Epoch-tagged cross-batch result cache.
//!
//! The engine's snapshot is immutable *per epoch* and every solver is a
//! deterministic function of `(graph, query)`, so memoizing completed
//! results across batches is sound: a hit returns the very value an
//! earlier solver run produced under the same epoch, which is
//! bit-identical by construction. This is the steady-state serving
//! amortization — Zipf-popular queries repeat across batches, and only
//! a query's *first* occurrence per epoch ever pays solver time.
//!
//! **Invalidation** is carry plus epoch tag: every entry records the
//! [`Epoch`](crate::Epoch) it was computed under and a lookup from any
//! other epoch misses. `Engine::apply` first **carries** the entries
//! `ApplyOutcome::keeps` proves unchanged — re-tags them to the new
//! epoch, in `O(entries)` and without touching the graph — inside the
//! same serving write-lock section that swaps the snapshot, so a read at
//! the new epoch never misses a carried entry. Every other entry goes
//! stale. Stale entries are *not* evicted on lookup — they
//! persist until a newer-epoch insert of the same query **replaces**
//! them (which also re-queues the key at the back of the eviction
//! order: a re-warmed entry is the cache's newest, not a leftover at
//! its original age) or a capacity sweep reclaims them (so
//! `Engine::cached_results` counts stale entries too). `Engine::apply`
//! therefore never stops the world to clear the cache — old entries
//! simply stop matching.
//!
//! Keys normalize `f64` parameters through
//! [`ic_core::aggregate::canonical_f64_bits`], so `alpha: -0.0` and
//! `alpha: 0.0` (equal values, equal results) share one entry instead of
//! defeating dedup with distinct bit patterns. A query's *deadline* is
//! deliberately **not** part of the key: only [`Complete`] answers are
//! ever inserted, and a complete answer satisfies the query under any
//! deadline. Degraded answers and errors are never cached — they are
//! artifacts of one serve's timing, not of `(graph, query)`.
//!
//! The cache is bounded: when full, the oldest half of the entries is
//! evicted (insertion order), keeping hot heads resident without
//! per-access bookkeeping.
//!
//! **Failure model**: the interior mutex is recovered *fail-closed*. If
//! a thread ever panics inside the critical section (only reachable in
//! chaos builds via the `engine::cache_insert` failpoint), the next
//! access discards the entire cache and clears the poison rather than
//! trusting possibly half-mutated internals; the cache then re-warms.
//! Correctness never depends on the cache, so dropping it is always
//! safe.
//!
//! [`Complete`]: crate::AnswerStatus::Complete

use crate::{Constraint, Epoch, Query};
use ic_core::aggregate::canonical_f64_bits;
use ic_core::Community;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

pub(crate) type Outcome = crate::SharedAnswer;

/// Hashable identity of a query (normalized f64 parameter bits).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    k: usize,
    r: usize,
    agg: (u8, u64),
    eps: u64,
    constraint: (bool, usize, bool),
}

/// `None` for queries the cache has no key shape for (future
/// `Constraint` variants): such queries are never cached, so a new
/// variant can never collide with an existing entry's key. The deadline
/// is intentionally absent — see the module docs.
fn key_of(q: &Query) -> Option<CacheKey> {
    let constraint = match q.constraint {
        Constraint::Unconstrained => (false, 0, false),
        Constraint::SizeBound { s, greedy } => (true, s, greedy),
        _ => return None,
    };
    Some(CacheKey {
        k: q.k,
        r: q.r,
        agg: q.aggregation.cache_key(),
        eps: canonical_f64_bits(q.epsilon),
        constraint,
    })
}

/// One cached outcome. `seq` identifies the entry's *current* slot in
/// the eviction fifo: a key's older fifo slots (left behind by
/// epoch-replacement re-queues) carry stale sequence numbers and are
/// skipped by the capacity sweep as tombstones.
struct Entry {
    epoch: Epoch,
    seq: u64,
    /// The query as first inserted, for [`ResultCache::carry`].
    query: Query,
    outcome: Outcome,
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    /// Insertion-ordered `(key, seq)` pairs; only the pair whose `seq`
    /// matches the map entry's is live, earlier pairs for the same key
    /// are tombstones.
    fifo: VecDeque<(CacheKey, u64)>,
    next_seq: u64,
}

/// Bounded, epoch-tagged memo of completed query results. See the
/// module docs.
pub(crate) struct ResultCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl ResultCache {
    pub(crate) fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                fifo: VecDeque::new(),
                next_seq: 0,
            }),
        }
    }

    /// Locks the interior, recovering fail-closed from poison: a panic
    /// inside a previous critical section discards all entries (they
    /// may be half-mutated) and clears the poison so the cache re-warms
    /// normally afterwards.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.map.clear();
                guard.fifo.clear();
                self.inner.clear_poison();
                guard
            }
        }
    }

    /// A hit requires the entry's epoch to match. A stale entry simply
    /// misses — it is *not* removed here; it is replaced (and re-queued
    /// as newest) by the next [`insert`](Self::insert) of the same query
    /// or reclaimed by a capacity sweep.
    pub(crate) fn get(&self, q: &Query, epoch: Epoch) -> Option<Outcome> {
        if self.capacity == 0 {
            return None;
        }
        let key = key_of(q)?;
        let inner = self.lock();
        match inner.map.get(&key) {
            Some(entry) if entry.epoch == epoch => Some(Arc::clone(&entry.outcome)),
            _ => None,
        }
    }

    /// Records a **complete** `Ok` outcome under `epoch` (errors and
    /// degraded answers are not cached — see the module docs). A stale
    /// same-key entry from an **older** epoch is replaced *and
    /// re-queued at the back of the eviction order* — a just-re-warmed
    /// popular entry is the cache's newest content, so a capacity sweep
    /// must not reap it from the key's original (oldest) fifo slot; that
    /// slot becomes a tombstone the sweep skips. An outcome from an
    /// older epoch never overwrites a newer entry (in-flight pre-`apply`
    /// work finishing late must not un-cache current results).
    pub(crate) fn insert(&self, q: &Query, epoch: Epoch, outcome: &Outcome) {
        if self.capacity == 0 {
            return;
        }
        match outcome.as_ref() {
            Ok(ans) if ans.is_complete() => {}
            _ => return,
        }
        let Some(key) = key_of(q) else { return };
        let mut inner = self.lock();
        ic_fail::fail_point!("engine::cache_insert");
        match inner.map.get(&key).map(|entry| entry.epoch) {
            Some(e) if e >= epoch => return,
            Some(_) => {
                // Older-epoch entry: replace, moving the key to the back
                // of the eviction order. The old fifo slot stays behind
                // as a tombstone (its seq no longer matches) and is
                // lazily skipped by sweeps / dropped by compaction.
                let seq = inner.next_seq;
                inner.next_seq += 1;
                inner.map.insert(
                    key,
                    Entry {
                        epoch,
                        seq,
                        query: *q,
                        outcome: Arc::clone(outcome),
                    },
                );
                inner.fifo.push_back((key, seq));
                // Epoch replacements don't grow the map, so they never
                // trigger the sweep below; bound tombstone buildup here.
                if inner.fifo.len() >= self.capacity.saturating_mul(2) {
                    let Inner { map, fifo, .. } = &mut *inner;
                    fifo.retain(|(k, s)| map.get(k).is_some_and(|e| e.seq == *s));
                }
                return;
            }
            None => {}
        }
        if inner.map.len() >= self.capacity {
            // Evict the oldest half of the *live* entries in one sweep,
            // skipping tombstones left by epoch-replacement re-queues.
            let target = self.capacity.div_ceil(2);
            let mut evicted = 0;
            while evicted < target {
                let Some((old, seq)) = inner.fifo.pop_front() else {
                    break;
                };
                if inner.map.get(&old).is_some_and(|e| e.seq == seq) {
                    inner.map.remove(&old);
                    evicted += 1;
                }
            }
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.map.insert(
            key,
            Entry {
                epoch,
                seq,
                query: *q,
                outcome: Arc::clone(outcome),
            },
        );
        inner.fifo.push_back((key, seq));
    }

    /// Re-tags every entry of epoch `from` whose answer `keeps` holds
    /// for to epoch `to`; the rest stay behind, stale. Eviction order is
    /// unchanged.
    pub(crate) fn carry(
        &self,
        from: Epoch,
        to: Epoch,
        keeps: impl Fn(&Query, &[Community]) -> bool,
    ) {
        for entry in self.lock().map.values_mut() {
            if entry.epoch == from
                && matches!(entry.outcome.as_ref(), Ok(ans) if keeps(&entry.query, &ans.communities))
            {
                entry.epoch = to;
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.lock().map.len()
    }

    pub(crate) fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.fifo.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryAnswer;
    use ic_core::Aggregation;

    fn complete() -> Outcome {
        Arc::new(Ok(QueryAnswer::complete(Vec::new())))
    }

    fn min_query(r: usize) -> Query {
        Query::new(2, r, Aggregation::Min)
    }

    /// The PR-7 regression: a Zipf-popular query cached at epoch 0,
    /// re-warmed after an `apply` moved the engine to epoch 1, must be
    /// the cache's *newest* content. Before the fix the re-warm replaced
    /// the value in place but left the key in its original — oldest —
    /// fifo slot, so the next capacity sweep evicted the freshly
    /// re-warmed hot entry as if it had never been touched.
    #[test]
    fn rewarmed_entry_survives_a_full_capacity_sweep() {
        let cache = ResultCache::new(4);
        let out = complete();
        // Fill to capacity at epoch 0; r = 1 is the oldest slot.
        for r in 1..=4usize {
            cache.insert(&min_query(r), Epoch(0), &out);
        }
        // The popular query re-warms under the new epoch.
        cache.insert(&min_query(1), Epoch(1), &out);
        assert!(cache.get(&min_query(1), Epoch(1)).is_some());
        // A fresh insert at capacity triggers the sweep: it must reap
        // the stale epoch-0 entries (r = 2, 3), not the re-warmed one.
        cache.insert(&min_query(5), Epoch(1), &out);
        assert!(
            cache.get(&min_query(1), Epoch(1)).is_some(),
            "capacity sweep evicted the just-re-warmed hot entry"
        );
        assert!(cache.get(&min_query(5), Epoch(1)).is_some());
        // The sweep still reclaimed real entries (oldest live first).
        assert!(cache.get(&min_query(2), Epoch(0)).is_none());
        assert!(cache.get(&min_query(3), Epoch(0)).is_none());
    }

    #[test]
    fn repeated_rewarms_do_not_grow_the_map_and_tombstones_compact() {
        let cache = ResultCache::new(4);
        let out = complete();
        for r in 1..=4usize {
            cache.insert(&min_query(r), Epoch(0), &out);
        }
        // Many epoch replacements of the same keys: map size must stay
        // put and the fifo must not grow without bound (compaction keeps
        // it under twice the capacity).
        for e in 1..=50u64 {
            for r in 1..=4usize {
                cache.insert(&min_query(r), Epoch(e), &out);
            }
        }
        let inner = cache.lock();
        assert_eq!(inner.map.len(), 4);
        assert!(
            inner.fifo.len() < 8 + 4,
            "tombstones must compact, fifo holds {}",
            inner.fifo.len()
        );
    }

    #[test]
    fn older_epoch_insert_never_downgrades_and_keeps_eviction_order() {
        let cache = ResultCache::new(4);
        let out = complete();
        cache.insert(&min_query(1), Epoch(2), &out);
        // Late pre-apply work must not un-cache the current result...
        cache.insert(&min_query(1), Epoch(1), &out);
        assert!(cache.get(&min_query(1), Epoch(2)).is_some());
        assert!(cache.get(&min_query(1), Epoch(1)).is_none());
        // ...and must not have queued a second fifo slot for the key.
        assert_eq!(cache.lock().fifo.len(), 1);
    }

    #[test]
    fn carry_retags_kept_entries_of_the_previous_epoch_only() {
        let cache = ResultCache::new(8);
        let out = complete();
        cache.insert(&min_query(1), Epoch(0), &out);
        for r in 2..=3usize {
            cache.insert(&min_query(r), Epoch(1), &out);
        }
        cache.carry(Epoch(1), Epoch(2), |q, _| q.r != 3);
        assert!(cache.get(&min_query(2), Epoch(2)).is_some(), "kept");
        assert!(cache.get(&min_query(3), Epoch(2)).is_none(), "not kept");
        assert!(cache.get(&min_query(3), Epoch(1)).is_some(), "left stale");
        assert!(cache.get(&min_query(1), Epoch(2)).is_none(), "older epoch");
    }

    #[test]
    fn sweep_evicts_live_entries_even_through_tombstones() {
        let cache = ResultCache::new(4);
        let out = complete();
        for r in 1..=4usize {
            cache.insert(&min_query(r), Epoch(0), &out);
        }
        // Re-warm everything: the front of the fifo is now all
        // tombstones.
        for r in 1..=4usize {
            cache.insert(&min_query(r), Epoch(1), &out);
        }
        // The sweep must skip the four tombstones and still evict the
        // target count of live entries, keeping the cache bounded.
        cache.insert(&min_query(5), Epoch(1), &out);
        assert!(cache.len() <= 4, "cache overflowed: {}", cache.len());
        // Newest content survives.
        assert!(cache.get(&min_query(5), Epoch(1)).is_some());
        assert!(cache.get(&min_query(4), Epoch(1)).is_some());
    }
}
