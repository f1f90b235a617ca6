//! Per-epoch cross-batch result cache.
//!
//! The engine's snapshot is immutable *per epoch* and every solver is a
//! deterministic function of `(graph, query)`, so memoizing completed
//! results across the batches of one epoch is sound: a hit returns the
//! very value an earlier solver run produced on the same snapshot,
//! which is bit-identical by construction. This is the steady-state
//! serving amortization — Zipf-popular queries repeat across batches,
//! and only a query's *first* occurrence per epoch ever pays solver
//! time.
//!
//! **One cache per epoch.** The cache is serving state, like the seed
//! memo: each `Serving` holds its epoch's cache beside its snapshot, and
//! a batch reads and fills the cache of the `Serving` it pinned.
//! `Engine::apply` builds the next epoch's cache with
//! [`ResultCache::carry`] — the entries `ApplyOutcome::keeps` proves
//! unchanged, in their eviction order — and swaps it in with the new
//! snapshot, under the same serving write lock, so a read at the new
//! epoch never misses a carried entry. The old cache stays with the
//! batches that pinned it, which may still fill it; nothing reads it
//! after they end, and it is freed with the last of them.
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
//! per-access bookkeeping. A key already present keeps its entry and
//! its place: within one epoch every complete answer to it is the same.
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

use crate::{Constraint, Query};
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

/// One cached outcome, with the query as inserted for
/// [`ResultCache::carry`].
#[derive(Clone)]
struct Entry {
    query: Query,
    outcome: Outcome,
}

#[derive(Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    /// The keys of `map` in insertion order, oldest first.
    fifo: VecDeque<CacheKey>,
}

/// Bounded memo of one epoch's completed query results. See the module
/// docs.
pub(crate) struct ResultCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl ResultCache {
    pub(crate) fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            inner: Mutex::default(),
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
                *guard = Inner::default();
                self.inner.clear_poison();
                guard
            }
        }
    }

    pub(crate) fn get(&self, q: &Query) -> Option<Outcome> {
        let key = key_of(q)?;
        let inner = self.lock();
        inner.map.get(&key).map(|entry| Arc::clone(&entry.outcome))
    }

    /// Records a **complete** `Ok` outcome (errors and degraded answers
    /// are not cached — see the module docs) unless the key is already
    /// present. A full cache first evicts its oldest half.
    pub(crate) fn insert(&self, q: &Query, outcome: &Outcome) {
        match outcome.as_ref() {
            Ok(ans) if ans.is_complete() => {}
            _ => return,
        }
        let Some(key) = key_of(q) else { return };
        let mut inner = self.lock();
        ic_fail::fail_point!("engine::cache_insert");
        let Inner { map, fifo } = &mut *inner;
        if map.contains_key(&key) {
            return;
        }
        if map.len() >= self.capacity {
            for old in fifo.drain(..self.capacity.div_ceil(2)) {
                map.remove(&old);
            }
        }
        let entry = Entry {
            query: *q,
            outcome: Arc::clone(outcome),
        };
        map.insert(key, entry);
        fifo.push_back(key);
    }

    /// The next epoch's cache: the entries whose answer `keeps` holds
    /// for, in their eviction order. `self` is left as it was.
    pub(crate) fn carry(&self, keeps: impl Fn(&Query, &[Community]) -> bool) -> ResultCache {
        let inner = self.lock();
        let mut next = Inner::default();
        for key in &inner.fifo {
            let entry = &inner.map[key];
            if matches!(entry.outcome.as_ref(), Ok(ans) if keeps(&entry.query, &ans.communities)) {
                next.map.insert(*key, entry.clone());
                next.fifo.push_back(*key);
            }
        }
        ResultCache {
            capacity: self.capacity,
            inner: Mutex::new(next),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.lock().map.len()
    }

    pub(crate) fn clear(&self) {
        *self.lock() = Inner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeUpdate, Engine, QueryAnswer};
    use ic_core::Aggregation;

    fn complete() -> Outcome {
        Arc::new(Ok(QueryAnswer::complete(Vec::new())))
    }

    fn min_query(r: usize) -> Query {
        Query::new(2, r, Aggregation::Min)
    }

    /// The `r`s of the cached `min_query`s, oldest first.
    fn order(cache: &ResultCache) -> Vec<usize> {
        let inner = cache.lock();
        inner
            .fifo
            .iter()
            .map(|key| inner.map[key].query.r)
            .collect()
    }

    #[test]
    fn a_full_cache_evicts_its_oldest_half() {
        let cache = ResultCache::new(4);
        let out = complete();
        for r in 1..=4usize {
            cache.insert(&min_query(r), &out);
        }
        cache.insert(&min_query(5), &out);
        assert_eq!(order(&cache), [3, 4, 5]);
        assert!(cache.get(&min_query(1)).is_none());
        assert!(cache.get(&min_query(3)).is_some());
    }

    #[test]
    fn a_present_key_keeps_its_entry_and_its_place() {
        let cache = ResultCache::new(4);
        let first = complete();
        cache.insert(&min_query(1), &first);
        cache.insert(&min_query(2), &complete());
        let second = complete();
        cache.insert(&min_query(1), &second);
        let hit = cache.get(&min_query(1)).unwrap();
        assert!(Arc::ptr_eq(&hit, &first), "the first answer stays");
        assert_eq!(order(&cache), [1, 2]);
    }

    #[test]
    fn carry_keeps_exactly_the_kept_entries_in_order() {
        let cache = ResultCache::new(8);
        let out = complete();
        for r in [5usize, 1, 4, 2, 3] {
            cache.insert(&min_query(r), &out);
        }
        let next = cache.carry(|q, _| q.r != 4 && q.r != 1);
        assert_eq!(order(&next), [5, 2, 3]);
        assert_eq!(order(&cache), [5, 1, 4, 2, 3], "the old cache is kept");
    }

    /// After an apply, the engine serves from the cache it carried: the
    /// pre-apply cache keeps its entries, and a late insert into it (a
    /// batch pinned before the apply) is never served.
    #[test]
    fn apply_leaves_the_old_epochs_cache_untouched_and_unread() {
        let eng = Engine::with_threads(ic_core::figure1::figure1(), 1);
        let warm = [min_query(2), Query::new(2, 2, Aggregation::Sum)];
        eng.run_batch(&warm);
        let old = eng.serving().results;
        assert_eq!(old.len(), 2);
        eng.apply(&[EdgeUpdate::Remove { u: 2, v: 8 }]);
        assert_eq!(old.len(), 2, "the apply left the old cache as it was");
        let late = Query::new(2, 3, Aggregation::Max);
        old.insert(&late, &complete());
        let got = eng.run_batch(&[late]).remove(0).unwrap();
        assert!(!got.is_empty(), "the late empty answer was served");
        assert!(!Arc::ptr_eq(&old, &eng.serving().results));
    }

    #[test]
    fn a_poisoned_cache_discards_its_entries_and_rewarms() {
        let cache = ResultCache::new(4);
        let out = complete();
        cache.insert(&min_query(1), &out);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.inner.lock().unwrap();
            panic!("die inside the critical section");
        }));
        assert!(poisoned.is_err());
        assert!(cache.get(&min_query(1)).is_none(), "entries discarded");
        assert!(!cache.inner.is_poisoned());
        cache.insert(&min_query(2), &out);
        assert_eq!(order(&cache), [2]);
    }
}
