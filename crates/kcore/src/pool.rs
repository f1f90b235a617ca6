//! A pool of [`PeelArena`]s for multi-query execution.
//!
//! A [`PeelArena`](crate::PeelArena) is pre-sized to its graph so the
//! steady-state peel loop never allocates — but constructing one costs
//! `O(n + m)` zeroed memory. A batched engine answering many queries
//! wants each worker to *reuse* a warm arena across queries (and across
//! batches) instead of re-constructing per query. [`ArenaPool`] holds
//! returned arenas and hands them back out: `acquire` pops a warm arena
//! (or builds a fresh one when the pool is dry), and the guard returns
//! it on drop. The pool never shrinks, so after the first batch a
//! steady-traffic engine constructs zero arenas.
//!
//! # Quarantine
//!
//! An arena that was live inside a panicking solver may hold torn peel
//! state (a half-applied cascade, a journal that no longer matches the
//! degree array). Such an arena must **never** re-enter circulation:
//! [`ArenaPool::quarantine`] drops it and records the loss, and the
//! next `acquire` on a dry pool simply constructs a replacement. The
//! accounting invariant — checked by the chaos property suite — is
//!
//! ```text
//! len() == created() - quarantined()        (when no arena is out)
//! ```
//!
//! The pool's own lock is poison-recovering: every critical section is
//! a single `Vec` push/pop, which cannot be observed half-done, so a
//! worker thread dying elsewhere never turns pool access into a second
//! panic.

use crate::PeelArena;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Shared pool of peel arenas, all pre-sized for one graph. See the
/// module docs.
#[derive(Debug)]
pub struct ArenaPool {
    vertices: usize,
    directed_edges: usize,
    free: Mutex<Vec<PeelArena>>,
    created: AtomicUsize,
    quarantined: AtomicUsize,
}

impl ArenaPool {
    /// Creates an empty pool whose arenas are sized for graphs with
    /// `vertices` vertices and `directed_edges` induced adjacency
    /// entries (`2m` for an undirected graph).
    pub fn with_capacity(vertices: usize, directed_edges: usize) -> Self {
        ArenaPool {
            vertices,
            directed_edges,
            free: Mutex::new(Vec::new()),
            created: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
        }
    }

    /// Creates an empty pool sized for `g`.
    pub fn for_graph(g: &ic_graph::Graph) -> Self {
        Self::with_capacity(g.num_vertices(), 2 * g.num_edges())
    }

    /// The free-list lock, recovered if poisoned: the guarded sections
    /// are single push/pop statements, so the `Vec` is consistent even
    /// when some thread died while holding the guard.
    fn free_list(&self) -> MutexGuard<'_, Vec<PeelArena>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes an arena out of the pool, constructing one only when the
    /// pool is dry. The guard returns the arena on drop.
    pub fn acquire(&self) -> PooledArena<'_> {
        PooledArena {
            pool: self,
            arena: Some(self.take_arena()),
        }
    }

    /// Takes an arena out of the pool **by value** (constructing one
    /// when the pool is dry); hand it back with [`Self::put_arena`].
    /// For callers whose ownership structure cannot hold the borrowing
    /// [`PooledArena`] guard — e.g. an executor worker that must decide
    /// *per job* whether its arena is still trustworthy.
    pub fn take_arena(&self) -> PeelArena {
        let arena = self.free_list().pop();
        arena.unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            PeelArena::with_capacity(self.vertices, self.directed_edges)
        })
    }

    /// Returns an arena previously obtained with [`Self::take_arena`].
    /// Returning an arena sized for a different graph is allowed but
    /// wastes the pre-sizing guarantee; don't.
    pub fn put_arena(&self, arena: PeelArena) {
        self.release(arena);
    }

    /// Permanently retires an arena whose state can no longer be
    /// trusted (it was live inside a panicking solver). The arena is
    /// dropped — never returned to the free list — and the loss is
    /// recorded in [`Self::quarantined`].
    pub fn quarantine(&self, arena: PeelArena) {
        drop(arena);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Total arenas ever constructed by this pool (not the pool size).
    /// Steady-state batched traffic keeps this at the worker count.
    pub fn created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Arenas retired by [`Self::quarantine`].
    pub fn quarantined(&self) -> usize {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Arenas currently parked in the pool. When every borrower has
    /// returned (or quarantined) its arena, `len() == created() -
    /// quarantined()` — the chaos-suite restoration invariant.
    pub fn len(&self) -> usize {
        self.free_list().len()
    }

    /// Whether the pool currently holds no parked arena.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arenas currently parked in the pool (alias of [`Self::len`]).
    pub fn available(&self) -> usize {
        self.len()
    }

    fn release(&self, arena: PeelArena) {
        self.free_list().push(arena);
    }
}

/// RAII guard over a pooled [`PeelArena`]; dereferences to the arena and
/// returns it to the pool on drop.
#[derive(Debug)]
pub struct PooledArena<'p> {
    pool: &'p ArenaPool,
    arena: Option<PeelArena>,
}

impl std::ops::Deref for PooledArena<'_> {
    type Target = PeelArena;
    fn deref(&self) -> &PeelArena {
        self.arena.as_ref().expect("arena present until drop")
    }
}

impl std::ops::DerefMut for PooledArena<'_> {
    fn deref_mut(&mut self) -> &mut PeelArena {
        self.arena.as_mut().expect("arena present until drop")
    }
}

impl Drop for PooledArena<'_> {
    fn drop(&mut self) {
        if let Some(arena) = self.arena.take() {
            self.pool.release(arena);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_graph::graph_from_edges;

    #[test]
    fn acquire_reuses_returned_arenas() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let pool = ArenaPool::for_graph(&g);
        {
            let mut a = pool.acquire();
            a.load(&g, &[0, 1, 2], 2);
            assert_eq!(a.live_count(), 3);
        }
        assert_eq!(pool.created(), 1);
        assert_eq!(pool.available(), 1);
        {
            let _a = pool.acquire();
            assert_eq!(pool.available(), 0);
        }
        // Still only one arena ever constructed.
        assert_eq!(pool.created(), 1);
    }

    #[test]
    fn concurrent_acquire_constructs_at_most_one_per_holder() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let pool = ArenaPool::for_graph(&g);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..16 {
                        let mut a = pool.acquire();
                        a.load(&g, &[0, 1, 2], 1);
                    }
                });
            }
        });
        assert!(pool.created() <= 4, "created {}", pool.created());
        assert_eq!(pool.available(), pool.created());
    }

    #[test]
    fn quarantined_arenas_never_return_and_are_accounted() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let pool = ArenaPool::for_graph(&g);
        let a = pool.take_arena();
        let b = pool.take_arena();
        pool.quarantine(a);
        pool.put_arena(b);
        assert_eq!(pool.created(), 2);
        assert_eq!(pool.quarantined(), 1);
        assert_eq!(pool.len(), 1, "only the healthy arena is parked");
        assert_eq!(pool.len(), pool.created() - pool.quarantined());
        // A post-quarantine taker gets a usable arena either way.
        let mut c = pool.take_arena();
        c.load(&g, &[0, 1, 2], 1);
        pool.put_arena(c);
    }

    #[test]
    fn pool_lock_recovers_from_a_poisoning_panic() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let pool = ArenaPool::for_graph(&g);
        pool.put_arena(pool.take_arena());
        // Poison the free-list mutex by panicking while holding it.
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = pool.free.lock().unwrap();
            panic!("die holding the pool lock");
        }));
        assert!(res.is_err());
        assert!(pool.free.is_poisoned());
        // Every accessor keeps working on the recovered guard.
        assert_eq!(pool.len(), 1);
        let a = pool.take_arena();
        pool.put_arena(a);
        assert_eq!(pool.available(), 1);
    }
}
