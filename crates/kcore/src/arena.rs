//! The zero-rebuild peeling engine.
//!
//! Every solver in the paper is at heart a loop of "delete a vertex,
//! cascade-peel back to a k-core, re-extract connected components".
//! [`PeelScratch`](crate::PeelScratch) implements one such step *from
//! scratch*: it recomputes every member's internal degree on every call,
//! which costs `O(Σ_{v ∈ H} d(v))` per deletion even when the deletion
//! barely changes the community.
//!
//! [`PeelArena`] removes that rebuild. A community is **loaded** once:
//! the arena assigns dense local ids and builds a compact CSR of the
//! *induced* subgraph, so every subsequent operation walks flat local
//! arrays over internal edges only — no membership checks against the
//! full graph, no pointer-chasing across its much larger adjacency.
//! After the load, each candidate deletion is a journaled cascade
//! touching only the affected frontier:
//!
//! * [`PeelArena::load`] — local ids + induced CSR + internal degrees,
//!   `O(Σ d(v))`, once per community;
//! * [`PeelArena::image`] / [`PeelArena::load_image`] — keep a loaded,
//!   articulation-marked state, its DFS tree included, and copy it back
//!   in later, in time linear in the community's induced size (no
//!   full-graph adjacency scan, no articulation pass);
//! * [`PeelArena::remove_cascade`] — delete one vertex and cascade the
//!   degree constraint, `O(Σ_{v ∈ removed} d_H(v))`; every removal is
//!   journaled;
//! * [`PeelArena::rollback`] — undo every journaled removal in reverse,
//!   restoring the loaded state in time proportional to the journal;
//! * [`PeelArena::commit`] — make the journaled removals permanent
//!   (timeline-style peels à la Li et al. VLDB'15);
//! * [`PeelArena::split`] / [`PeelArena::pieces`] — the connected
//!   components left by the journaled removals. On a marked arena a
//!   certificate over the marking's DFS tree first tries to prove, from
//!   the removals' tree children alone, that the live set is still one
//!   piece; then nothing is walked. Otherwise a walk from the removals'
//!   live neighbours stops as soon as at most one piece is still
//!   growing: the pieces it finished are emitted as walked, and the one
//!   it did not is described by its size and materialized only on
//!   request ([`PeelArena::rest_into`]). A split costs what the cascade
//!   cut off, not the size of the community;
//!   [`PeelArena::for_each_component`] is its eager form;
//! * [`PeelArena::mark_articulation_points`] / [`PeelArena::is_articulation`]
//!   — a no-split certificate (one iterative Tarjan pass per load) that
//!   lets callers skip component extraction entirely for the common case
//!   of a non-cascading, non-articulation deletion. The same pass keeps
//!   the DFS tree the split's one-piece certificate reads: tree parents,
//!   pre-order intervals and each subtree's lowpoint edge.
//!
//! All state is epoch-stamped so consecutive loads reset in O(1). After
//! construction with [`PeelArena::for_graph`] the arena never allocates:
//! every buffer is pre-sized to the graph. The allocation-event counter
//! ([`PeelArena::alloc_events`]) asserts that invariant — the
//! steady-state peel loop of every solver runs at zero heap allocations
//! per deletion step.

use crate::Budget;
use ic_graph::{Graph, VertexId};
use std::sync::Arc;

const NO_PARENT: u32 = u32::MAX;

/// How many cascade pops go between [`Budget`] checkpoints inside one
/// cascade (each checkpoint is a [`Budget::poll`], itself amortized).
const CASCADE_TICK: usize = 1024;

/// Reusable, journaled peel state for one graph. See the module docs.
#[derive(Clone, Debug)]
pub struct PeelArena {
    // ---- global-id side -------------------------------------------------
    /// Epoch when global `v` was loaded as a member.
    member_stamp: Vec<u32>,
    /// Local id of global `v` (valid when `member_stamp[v] == epoch`).
    local_id: Vec<u32>,
    /// Loaded member list; `members[l]` is the global id of local `l`.
    members: Vec<VertexId>,

    // ---- induced CSR (local ids) ---------------------------------------
    /// Row offsets into `targets`; `offsets[l]..offsets[l + 1]` is the
    /// internal adjacency of local `l`.
    offsets: Vec<u32>,
    /// Concatenated internal adjacency lists (local ids).
    targets: Vec<u32>,

    // ---- per-local peel state -------------------------------------------
    /// Epoch when local `l` was queued for removal.
    removed_stamp: Vec<u32>,
    /// Epoch when local `l` was *popped* from the cascade queue. Degree
    /// decrements are applied to neighbors that are not yet popped (even
    /// if already queued), which makes them the exact mirror image of the
    /// increments `rollback` applies in reverse pop order — queued-but-
    /// unpopped neighbors would otherwise be skipped on the way down but
    /// counted on the way back up, corrupting degrees.
    gone_stamp: Vec<u32>,
    /// BFS visitation marks (separate epoch space).
    visited_stamp: Vec<u32>,
    /// Internal degree of each live local vertex.
    deg: Vec<u32>,
    /// Cascade queue / split walk queue (local ids; head index, no
    /// pop-front). After a [`split`](Self::split) its prefix holds the
    /// finished pieces' members, piece by piece.
    queue: Vec<u32>,
    /// Removals since the last `commit`/`rollback` (local ids, pop order).
    journal: Vec<u32>,
    /// Global ids of the pieces the last split finished (then, in
    /// [`for_each_component`](Self::for_each_component), the rest).
    comp_buf: Vec<VertexId>,

    // ---- articulation pass and one-piece certificate --------------------
    /// Epoch when local `l` was marked an articulation point.
    art_stamp: Vec<u32>,
    /// The marking DFS tree of the live set: `l`'s tree parent
    /// (`NO_PARENT` at the root).
    tree_parent: Vec<u32>,
    /// Pre-order number of `l` in the DFS tree.
    pre: Vec<u32>,
    /// One past the last pre-order number in `l`'s subtree: `x` is `y`
    /// or an ancestor of it iff `pre[x] <= pre[y] < end[x]`.
    end: Vec<u32>,
    /// The lowpoint edge of `l`'s subtree: the back edge from inside it
    /// whose target has the smallest pre-order, `(source, target)`;
    /// `(l, l)` when no back edge leaves the subtree upward.
    low_src: Vec<u32>,
    low_dst: Vec<u32>,
    /// The DFS root, while the tree spans the live set the journal
    /// counts removals from: set by a marking that found one tree,
    /// cleared by a load and by a commit.
    tree_root: Option<u32>,
    /// DFS low-link values. Reused by the split: at a union-find root,
    /// the group's reached-but-unexpanded count, then its smallest local
    /// id.
    low: Vec<u32>,
    /// The split walk's union-find parent of each vertex it reached.
    group: Vec<u32>,
    /// Explicit DFS stack: (local vertex, parent local, next-edge index).
    dfs_stack: Vec<(u32, u32, u32)>,

    // ---- bookkeeping -----------------------------------------------------
    /// Current load epoch.
    epoch: u32,
    /// Current visitation epoch.
    visit_epoch: u32,
    /// Degree constraint of the loaded community.
    k: u32,
    /// Live member count.
    live: usize,
    /// Number of buffer (re)allocations observed after construction;
    /// stays 0 in steady state (tracked in all builds, asserted by
    /// tests).
    alloc_events: u64,
    /// Optional deadline observed by the cascade loop (a checkpoint
    /// every [`CASCADE_TICK`] pops keeps the shared expiry flag fresh
    /// even inside one giant cascade). The cascade itself never aborts —
    /// it always finishes its event so the arena stays consistent; the
    /// *callers'* between-event checkpoints act on the flag.
    budget: Option<Arc<Budget>>,
}

/// What one [`PeelArena::split`] found. Valid until the arena next
/// changes; hand it back to [`PeelArena::pieces`],
/// [`PeelArena::finished`] and [`PeelArena::rest_into`].
#[derive(Clone, Copy, Debug)]
pub struct Split {
    /// Vertices the walk expanded (scanned the neighbours of).
    pub walked: usize,
    /// Whether the one-piece certificate settled the split, so nothing
    /// was walked.
    pub certified: bool,
    /// Members of the pieces the walk finished.
    finished: usize,
    /// The piece the walk did not finish: its smallest local id and its
    /// size.
    rest: Option<(u32, usize)>,
}

/// One connected component of the live set, as [`PeelArena::pieces`]
/// yields it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Piece<'a> {
    /// A component the walk finished: its members in load order.
    Walked(&'a [VertexId]),
    /// The one component the walk stopped inside, of this many members;
    /// [`PeelArena::rest_into`] lists them.
    Rest(usize),
}

/// A loaded, articulation-marked arena state with every member live,
/// kept to be copied back in by [`PeelArena::load_image`]: the induced
/// CSR, the articulation marks and the marking's DFS tree, so a copied
/// root certifies splits as the load it was taken from does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArenaImage {
    k: u32,
    members: Vec<VertexId>,
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// Local ids of the articulation points, ascending.
    articulation: Vec<u32>,
    /// The certificate's DFS tree (see the arena's fields of the same
    /// names), or `None` when the marked live set was not one tree.
    tree: Option<DfsTree>,
}

/// An [`ArenaImage`]'s copy of the marking DFS tree, indexed by local id.
#[derive(Clone, Debug, PartialEq, Eq)]
struct DfsTree {
    root: u32,
    parent: Vec<u32>,
    pre: Vec<u32>,
    end: Vec<u32>,
    low_src: Vec<u32>,
    low_dst: Vec<u32>,
}

impl PeelArena {
    /// Creates an arena pre-sized for `g`: any community of `g` can be
    /// loaded and peeled without a single further allocation.
    pub fn for_graph(g: &Graph) -> Self {
        Self::with_capacity(g.num_vertices(), 2 * g.num_edges())
    }

    /// Creates an arena for up to `n` vertices and `directed_edges`
    /// induced adjacency entries (use `2m` for an undirected graph; see
    /// [`Self::for_graph`]). Loading a community whose induced size
    /// exceeds the capacity still works but allocates (and is counted by
    /// [`Self::alloc_events`]).
    pub fn with_capacity(n: usize, directed_edges: usize) -> Self {
        PeelArena {
            member_stamp: vec![0; n],
            local_id: vec![0; n],
            members: Vec::with_capacity(n),
            offsets: Vec::with_capacity(n + 1),
            targets: Vec::with_capacity(directed_edges),
            removed_stamp: vec![0; n],
            gone_stamp: vec![0; n],
            visited_stamp: vec![0; n],
            deg: vec![0; n],
            queue: Vec::with_capacity(n),
            journal: Vec::with_capacity(n),
            comp_buf: Vec::with_capacity(n),
            art_stamp: vec![0; n],
            tree_parent: vec![0; n],
            pre: vec![0; n],
            end: vec![0; n],
            low_src: vec![0; n],
            low_dst: vec![0; n],
            tree_root: None,
            low: vec![0; n],
            group: vec![0; n],
            dfs_stack: Vec::with_capacity(n),
            epoch: 0,
            visit_epoch: 0,
            k: 0,
            live: 0,
            alloc_events: 0,
            budget: None,
        }
    }

    /// Attaches (or clears) a deadline budget. The cascade loop keeps
    /// the budget's shared expiry flag fresh by polling it periodically;
    /// it never aborts mid-cascade. Callers running timeline peels or
    /// TIC searches on this arena check the same budget between events.
    pub fn set_budget(&mut self, budget: Option<Arc<Budget>>) {
        self.budget = budget;
    }

    /// Creates an arena for up to `n` vertices with no pre-sized edge
    /// capacity — the first `load` sizes the adjacency buffer (one
    /// allocation). Prefer [`Self::for_graph`] for the zero-allocation
    /// guarantee from the first load on.
    pub fn new(n: usize) -> Self {
        Self::with_capacity(n, 0)
    }

    /// Number of buffer growth events since construction. Zero in steady
    /// state: the acceptance test for the zero-rebuild engine.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    #[inline]
    fn track_capacity<T>(buf: &Vec<T>, before: usize, counter: &mut u64) {
        if buf.capacity() != before {
            *counter += 1;
        }
    }

    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.member_stamp.fill(0);
            self.removed_stamp.fill(0);
            self.gone_stamp.fill(0);
            self.art_stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    fn next_visit_epoch(&mut self) -> u32 {
        if self.visit_epoch == u32::MAX {
            self.visited_stamp.fill(0);
            self.visit_epoch = 0;
        }
        self.visit_epoch += 1;
        self.visit_epoch
    }

    #[inline]
    fn neighbors_of_local(&self, l: u32) -> std::ops::Range<usize> {
        self.offsets[l as usize] as usize..self.offsets[l as usize + 1] as usize
    }

    /// Loads the community `members` with degree constraint `k`:
    /// assigns local ids, builds the induced CSR, computes every internal
    /// degree once, and immediately peels (and commits) any member whose
    /// internal degree is below `k` — after `load` the live set is the
    /// maximal sub-k-core of the member set. Runs in
    /// `O(Σ_{v ∈ members} d(v))`.
    pub fn load(&mut self, g: &Graph, members: &[VertexId], k: usize) {
        let epoch = self.next_epoch();
        self.k = k as u32;
        self.tree_root = None;
        let caps = (
            self.members.capacity(),
            self.offsets.capacity(),
            self.targets.capacity(),
            self.queue.capacity(),
        );

        self.members.clear();
        self.members.extend_from_slice(members);
        for (l, &v) in self.members.iter().enumerate() {
            self.member_stamp[v as usize] = epoch;
            self.local_id[v as usize] = l as u32;
        }
        self.live = self.members.len();

        // Induced CSR + internal degrees in one pass.
        self.offsets.clear();
        self.targets.clear();
        self.offsets.push(0);
        for l in 0..self.members.len() {
            let v = self.members[l];
            for &u in g.neighbors(v) {
                if self.member_stamp[u as usize] == epoch {
                    self.targets.push(self.local_id[u as usize]);
                }
            }
            self.offsets.push(self.targets.len() as u32);
            let d = self.offsets[l + 1] - self.offsets[l];
            self.deg[l] = d;
            self.removed_stamp[l] = 0;
            self.gone_stamp[l] = 0;
        }

        // Initial peel of sub-k members (committed, not undoable).
        self.queue.clear();
        self.journal.clear();
        for l in 0..self.members.len() as u32 {
            if self.deg[l as usize] < self.k && self.removed_stamp[l as usize] != epoch {
                self.removed_stamp[l as usize] = epoch;
                self.queue.push(l);
            }
        }
        self.cascade();
        self.journal.clear();

        Self::track_capacity(&self.members, caps.0, &mut self.alloc_events);
        Self::track_capacity(&self.offsets, caps.1, &mut self.alloc_events);
        Self::track_capacity(&self.targets, caps.2, &mut self.alloc_events);
        Self::track_capacity(&self.queue, caps.3, &mut self.alloc_events);
    }

    /// The loaded state as an [`ArenaImage`]. Call it right after
    /// [`Self::load`] and [`Self::mark_articulation_points`].
    ///
    /// # Panics
    /// Panics when a member is not live: the load peeled one, or
    /// removals are journaled.
    pub fn image(&self) -> ArenaImage {
        assert!(
            self.journal.is_empty() && self.live == self.members.len(),
            "an image holds a loaded state with every member live"
        );
        let n = self.members.len();
        ArenaImage {
            k: self.k,
            members: self.members.clone(),
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
            articulation: (0..n as u32)
                .filter(|&l| self.art_stamp[l as usize] == self.epoch)
                .collect(),
            tree: self.tree_root.map(|root| DfsTree {
                root,
                parent: self.tree_parent[..n].to_vec(),
                pre: self.pre[..n].to_vec(),
                end: self.end[..n].to_vec(),
                low_src: self.low_src[..n].to_vec(),
                low_dst: self.low_dst[..n].to_vec(),
            }),
        }
    }

    /// Loads `image`: afterwards the arena is in the state [`Self::load`]
    /// and [`Self::mark_articulation_points`] left when the image was
    /// taken, in time linear in the image's size.
    pub fn load_image(&mut self, image: &ArenaImage) {
        let epoch = self.next_epoch();
        self.k = image.k;
        let caps = (
            self.members.capacity(),
            self.offsets.capacity(),
            self.targets.capacity(),
        );
        self.members.clear();
        self.members.extend_from_slice(&image.members);
        self.offsets.clear();
        self.offsets.extend_from_slice(&image.offsets);
        self.targets.clear();
        self.targets.extend_from_slice(&image.targets);
        for (l, &v) in self.members.iter().enumerate() {
            self.member_stamp[v as usize] = epoch;
            self.local_id[v as usize] = l as u32;
            self.deg[l] = self.offsets[l + 1] - self.offsets[l];
            self.removed_stamp[l] = 0;
            self.gone_stamp[l] = 0;
        }
        for &l in &image.articulation {
            self.art_stamp[l as usize] = epoch;
        }
        self.tree_root = image.tree.as_ref().map(|tree| {
            let n = tree.pre.len();
            self.tree_parent[..n].copy_from_slice(&tree.parent);
            self.pre[..n].copy_from_slice(&tree.pre);
            self.end[..n].copy_from_slice(&tree.end);
            self.low_src[..n].copy_from_slice(&tree.low_src);
            self.low_dst[..n].copy_from_slice(&tree.low_dst);
            tree.root
        });
        self.live = self.members.len();
        self.queue.clear();
        self.journal.clear();
        Self::track_capacity(&self.members, caps.0, &mut self.alloc_events);
        Self::track_capacity(&self.offsets, caps.1, &mut self.alloc_events);
        Self::track_capacity(&self.targets, caps.2, &mut self.alloc_events);
    }

    /// Runs the cascade for everything already queued (and stamped
    /// removed), appending removals to the journal.
    fn cascade(&mut self) {
        ic_fail::fail_point!("kcore::cascade");
        let epoch = self.epoch;
        let k = self.k;
        let mut head = 0;
        while head < self.queue.len() {
            if head % CASCADE_TICK == 0 {
                if let Some(budget) = &self.budget {
                    budget.poll();
                }
            }
            let l = self.queue[head];
            head += 1;
            self.journal.push(l);
            self.gone_stamp[l as usize] = epoch;
            self.live -= 1;
            for t in self.neighbors_of_local(l) {
                let u = self.targets[t] as usize;
                if self.gone_stamp[u] != epoch {
                    self.deg[u] -= 1;
                    if self.deg[u] < k && self.removed_stamp[u] != epoch {
                        self.removed_stamp[u] = epoch;
                        self.queue.push(u as u32);
                    }
                }
            }
        }
        self.queue.clear();
    }

    /// Number of live (loaded, not removed) members.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Whether global `v` is loaded and not removed.
    pub fn is_live(&self, v: VertexId) -> bool {
        let vi = v as usize;
        self.member_stamp[vi] == self.epoch
            && self.removed_stamp[self.local_id[vi] as usize] != self.epoch
    }

    /// The loaded member list (including removed vertices), global ids.
    pub fn members(&self) -> &[VertexId] {
        &self.members
    }

    /// Deletes global `victim` and cascade-peels the degree constraint.
    /// Returns the number of vertices removed by this call (0 when
    /// `victim` is not live). The removals are journaled:
    /// [`Self::rollback`] undoes them, [`Self::commit`] makes them
    /// permanent. Runs in `O(Σ_{v ∈ removed} d_H(v))` over *internal*
    /// edges only — the zero-rebuild property.
    pub fn remove_cascade(&mut self, victim: VertexId) -> usize {
        if !self.is_live(victim) {
            return 0;
        }
        let l = self.local_id[victim as usize];
        let before = self.journal.len();
        let caps = (self.queue.capacity(), self.journal.capacity());
        self.queue.clear();
        self.removed_stamp[l as usize] = self.epoch;
        self.queue.push(l);
        self.cascade();
        Self::track_capacity(&self.queue, caps.0, &mut self.alloc_events);
        Self::track_capacity(&self.journal, caps.1, &mut self.alloc_events);
        self.journal.len() - before
    }

    /// Number of journaled removals since the last
    /// `load`/`commit`/`rollback`.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// The global ids removed since the last `load`/`commit`/`rollback`,
    /// in cascade (pop) order. This is what the timeline peel stamps
    /// from: before committing an event, the caller can stamp every
    /// vertex that event removed, which later allows reconstructing the
    /// community witnessed by *any* event without replaying the peel.
    pub fn journaled(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.journal.iter().map(|&l| self.members[l as usize])
    }

    /// [`journaled`](Self::journaled) in local ids: positions in
    /// [`members`](Self::members).
    pub fn journaled_local(&self) -> &[u32] {
        &self.journal
    }

    /// The loaded community's induced CSR in local ids, `(offsets,
    /// targets)`: row `l` lists the members adjacent to `members()[l]`,
    /// in the order of the graph's adjacency. Removals never edit it, so
    /// it describes the community as loaded.
    pub fn induced(&self) -> (&[u32], &[u32]) {
        (&self.offsets, &self.targets)
    }

    /// Makes every journaled removal permanent. The one-piece
    /// certificate counts removals from the marked state, so it is off
    /// until the next marking.
    pub fn commit(&mut self) {
        self.journal.clear();
        self.tree_root = None;
    }

    /// Undoes every journaled removal in reverse order, restoring the
    /// state as of the last `load`/`commit`. Runs in
    /// `O(Σ_{v ∈ journal} d_H(v))`.
    pub fn rollback(&mut self) {
        let epoch = self.epoch;
        while let Some(l) = self.journal.pop() {
            // Un-popping in reverse order restores exactly the not-yet-
            // popped set present when `l` was popped, so the symmetric
            // degree increments reconstruct the old degrees.
            self.removed_stamp[l as usize] = 0;
            self.gone_stamp[l as usize] = 0;
            self.live += 1;
            for t in self.neighbors_of_local(l) {
                let u = self.targets[t] as usize;
                if self.removed_stamp[u] != epoch {
                    self.deg[u] += 1;
                }
            }
        }
    }

    /// Marks every articulation point of the loaded live set (iterative
    /// Tarjan lowpoint DFS over the induced CSR, once per load). Must be
    /// called with no journaled removals; the marks describe the loaded
    /// community and stay valid across `remove_cascade`/`rollback`
    /// round-trips of the same load.
    ///
    /// This is the arena's no-split certificate: deleting a non-cascading
    /// victim that is not an articulation point leaves `H ∖ {v}`
    /// connected, so the caller can skip component extraction entirely —
    /// the common case on cohesive communities. The same pass keeps the
    /// DFS tree — parents, pre-order intervals and each subtree's
    /// lowpoint edge — that [`Self::split`]'s one-piece certificate reads
    /// until the next load or commit.
    pub fn mark_articulation_points(&mut self) {
        debug_assert!(
            self.journal.is_empty(),
            "articulation marks must be computed on the loaded state"
        );
        let visit = self.next_visit_epoch();
        let epoch = self.epoch;
        let cap = self.dfs_stack.capacity();
        let mut timer: u32 = 0;
        let (mut first_root, mut roots) = (None, 0u32);
        for root in 0..self.members.len() as u32 {
            let ri = root as usize;
            if self.removed_stamp[ri] == epoch || self.visited_stamp[ri] == visit {
                continue;
            }
            roots += 1;
            first_root.get_or_insert(root);
            self.discover(root, NO_PARENT, visit, &mut timer);
            let mut root_children = 0u32;
            self.dfs_stack.clear();
            self.dfs_stack.push((root, NO_PARENT, self.offsets[ri]));
            while let Some(top) = self.dfs_stack.len().checked_sub(1) {
                let (v, parent, idx) = self.dfs_stack[top];
                let vi = v as usize;
                if idx < self.offsets[vi + 1] {
                    let u = self.targets[idx as usize];
                    self.dfs_stack[top].2 = idx + 1;
                    let ui = u as usize;
                    if self.removed_stamp[ui] == epoch || u == parent {
                        continue;
                    }
                    if self.visited_stamp[ui] != visit {
                        self.discover(u, v, visit, &mut timer);
                        if v == root {
                            root_children += 1;
                        }
                        self.dfs_stack.push((u, v, self.offsets[ui]));
                    } else if self.pre[ui] < self.low[vi] {
                        self.low[vi] = self.pre[ui];
                        (self.low_src[vi], self.low_dst[vi]) = (v, u);
                    }
                } else {
                    self.dfs_stack.pop();
                    self.end[vi] = timer;
                    if let Some(&(p, _, _)) = self.dfs_stack.last() {
                        let pi = p as usize;
                        if self.low[vi] < self.low[pi] {
                            self.low[pi] = self.low[vi];
                            (self.low_src[pi], self.low_dst[pi]) =
                                (self.low_src[vi], self.low_dst[vi]);
                        }
                        if p != root && self.low[vi] >= self.pre[pi] {
                            self.art_stamp[pi] = epoch;
                        }
                    }
                }
            }
            if root_children > 1 {
                self.art_stamp[ri] = epoch;
            }
        }
        self.tree_root = first_root.filter(|_| roots == 1 && self.journal.is_empty());
        Self::track_capacity(&self.dfs_stack, cap, &mut self.alloc_events);
    }

    /// Enters local `v` into the marking DFS as a child of `parent`.
    fn discover(&mut self, v: u32, parent: u32, visit: u32, timer: &mut u32) {
        let vi = v as usize;
        self.visited_stamp[vi] = visit;
        self.tree_parent[vi] = parent;
        self.pre[vi] = *timer;
        self.low[vi] = *timer;
        (self.low_src[vi], self.low_dst[vi]) = (v, v);
        *timer += 1;
    }

    /// Whether global `v` was marked by [`Self::mark_articulation_points`]
    /// for the current load.
    pub fn is_articulation(&self, v: VertexId) -> bool {
        let vi = v as usize;
        self.member_stamp[vi] == self.epoch
            && self.art_stamp[self.local_id[vi] as usize] == self.epoch
    }

    /// Finds the connected components of the live set: the pieces the
    /// journaled removals cut it into. The live set as of the last
    /// `load`/`commit` must be connected (a community is).
    ///
    /// First a certificate that walks nothing: on a marked arena with no
    /// commit since the marking, the DFS tree of the marked live set
    /// proves the live set one piece when at most one of its tree
    /// fragments — the root's, and one under each live tree child of a
    /// removal — lacks an edge to a live vertex above the removal it
    /// hangs from ([`Self::mark_articulation_points`]). Otherwise every
    /// piece touches a removal: a multi-source walk starts from the
    /// removals' live neighbours, one group per seed, merges groups that
    /// meet (union-find), and stops as soon as at most one group can
    /// still grow. The finished groups are whole pieces; whatever is
    /// live outside them is the one piece left, the *rest*, which the
    /// walk never has to cover. Allocation-free; the walk costs what the
    /// removals cut off, not the size of the live set.
    pub fn split(&mut self) -> Split {
        let visit = self.next_visit_epoch();
        let epoch = self.epoch;
        let caps = (self.queue.capacity(), self.comp_buf.capacity());
        self.comp_buf.clear();
        let certified = self.one_piece();
        let (walked, finished) = if certified { (0, 0) } else { self.walk(visit) };
        let rest = (self.live > finished).then(|| {
            let first = (0..self.members.len())
                .find(|&l| self.removed_stamp[l] != epoch && self.visited_stamp[l] != visit)
                .expect("the rest has a member");
            (first as u32, self.live - finished)
        });
        Self::track_capacity(&self.queue, caps.0, &mut self.alloc_events);
        Self::track_capacity(&self.comp_buf, caps.1, &mut self.alloc_events);
        Split {
            walked,
            certified,
            finished,
            rest,
        }
    }

    /// The one-piece certificate. Cut the DFS tree at the journaled
    /// removals: every live vertex lies in one fragment, topped by the
    /// root or by a live child `c` of a removed `j`. A fragment under
    /// `c` *escapes* when an edge joins it to a live vertex above `j`,
    /// which lies in a fragment topped higher up; following escapes
    /// climbs, so when at most one fragment does not escape (the
    /// root's never does), every fragment reaches that one.
    fn one_piece(&mut self) -> bool {
        let Some(root) = self.tree_root else {
            return false;
        };
        // The journal by pre-order, for `cut_off`.
        self.queue.clear();
        self.queue.extend_from_slice(&self.journal);
        let pre = &self.pre;
        self.queue.sort_unstable_by_key(|&x| pre[x as usize]);
        let mut unescaped = u32::from(self.is_live_local(root));
        for &j in &self.journal {
            for t in self.neighbors_of_local(j) {
                let c = self.targets[t];
                if self.tree_parent[c as usize] == j && self.is_live_local(c) && !self.escapes(c, j)
                {
                    unescaped += 1;
                    if unescaped > 1 {
                        return false;
                    }
                }
            }
        }
        true
    }

    #[inline]
    fn is_live_local(&self, l: u32) -> bool {
        self.removed_stamp[l as usize] != self.epoch
    }

    /// Whether the fragment under live `c`, whose tree parent `j` is
    /// removed, has an edge to a live vertex above `j`: the subtree's
    /// lowpoint edge, when both its ends are live, its target is above
    /// `j` and its source is in the fragment, or an edge of `c`'s own.
    /// (Every edge joins a vertex to an ancestor or a descendant, so a
    /// live neighbour of pre-order below `j`'s is an ancestor of `j`.)
    fn escapes(&self, c: u32, j: u32) -> bool {
        let above = self.pre[j as usize];
        let (s, t) = (self.low_src[c as usize], self.low_dst[c as usize]);
        if self.pre[t as usize] < above
            && self.is_live_local(s)
            && self.is_live_local(t)
            && !self.cut_off(c, s)
        {
            return true;
        }
        self.neighbors_of_local(c).any(|e| {
            let u = self.targets[e];
            self.pre[u as usize] < above && self.is_live_local(u)
        })
    }

    /// Whether a journaled vertex sits on the tree path from `c` down to
    /// its live descendant `s`: some `x` with `pre[c] < pre[x] <= pre[s]
    /// < end[x]`. Reads the journal from `queue`, sorted by pre-order,
    /// and skips every journaled subtree that does not hold `s`.
    fn cut_off(&self, c: u32, s: u32) -> bool {
        let (pre, end) = (&self.pre, &self.end);
        let cut = &self.queue[..self.journal.len()];
        let (below, at) = (pre[c as usize], pre[s as usize]);
        let mut i = cut.partition_point(|&x| pre[x as usize] <= below);
        while let Some(&x) = cut.get(i) {
            let x = x as usize;
            if pre[x] > at {
                return false;
            }
            if end[x] > at {
                return true;
            }
            i += cut[i..].partition_point(|&y| pre[y as usize] < end[x]);
        }
        false
    }

    /// The split's walk (see [`Self::split`]): leaves the finished
    /// pieces' members in `queue` and `comp_buf`, piece by piece, marked
    /// visited, and returns how many vertices it expanded and how many
    /// members the finished pieces hold.
    fn walk(&mut self, visit: u32) -> (usize, usize) {
        let epoch = self.epoch;
        self.queue.clear();
        // Seeds: each its own group (`group` = union-find parent, `low`
        // at a root = the group's reached-but-unexpanded count).
        let mut open = 0usize;
        for j in 0..self.journal.len() {
            for t in self.neighbors_of_local(self.journal[j]) {
                let u = self.targets[t];
                let ui = u as usize;
                if self.removed_stamp[ui] != epoch && self.visited_stamp[ui] != visit {
                    self.visited_stamp[ui] = visit;
                    self.group[ui] = u;
                    self.low[ui] = 1;
                    self.queue.push(u);
                    open += 1;
                }
            }
        }
        // Seeds of fewest internal neighbours first: the walk ends when
        // groups merge, a light seed's scan is cheap, and it mostly meets
        // the groups a hub's scan would have swept up. (Any order gives
        // the same pieces.)
        let offsets = &self.offsets;
        self.queue
            .sort_unstable_by_key(|&u| (offsets[u as usize + 1] - offsets[u as usize], u));
        let mut head = 0;
        'walk: while open > 1 {
            let x = self.queue[head];
            head += 1;
            let root = self.find(x);
            for t in self.neighbors_of_local(x) {
                let u = self.targets[t];
                let ui = u as usize;
                if self.visited_stamp[ui] == visit {
                    if self.group[ui] == root {
                        continue;
                    }
                    let other = self.find(u);
                    if other != root {
                        self.group[other as usize] = root;
                        self.low[root as usize] += self.low[other as usize];
                        open -= 1;
                        if open == 1 {
                            // `x`'s group is the one left open.
                            break 'walk;
                        }
                    }
                } else if self.removed_stamp[ui] != epoch {
                    self.visited_stamp[ui] = visit;
                    self.group[ui] = root;
                    self.low[root as usize] += 1;
                    self.queue.push(u);
                }
            }
            self.low[root as usize] -= 1;
            if self.low[root as usize] == 0 {
                open -= 1;
            }
        }
        // Keep the finished groups' members (a group with nothing left
        // to expand); the open group's go back to unvisited: they are
        // part of the rest.
        let mut finished = 0;
        for i in 0..self.queue.len() {
            let v = self.queue[i];
            let root = self.find(v);
            if self.low[root as usize] == 0 {
                self.group[v as usize] = root;
                self.queue[finished] = v;
                finished += 1;
            } else {
                self.visited_stamp[v as usize] = 0;
            }
        }
        // Order by (the piece's smallest local id, local id): pieces come
        // out whole, in load order, and ordered by their first member.
        for &v in &self.queue[..finished] {
            self.low[self.group[v as usize] as usize] = u32::MAX;
        }
        for &v in &self.queue[..finished] {
            let root = self.group[v as usize] as usize;
            self.low[root] = self.low[root].min(v);
        }
        let (group, low) = (&self.group, &self.low);
        self.queue[..finished]
            .sort_unstable_by_key(|&v| (low[group[v as usize] as usize] as u64) << 32 | v as u64);
        for &v in &self.queue[..finished] {
            self.comp_buf.push(self.members[v as usize]);
        }
        (head, finished)
    }

    /// The union-find root of reached local `x` (path halving).
    fn find(&mut self, mut x: u32) -> u32 {
        while self.group[x as usize] != x {
            let up = self.group[self.group[x as usize] as usize];
            self.group[x as usize] = up;
            x = up;
        }
        x
    }

    /// The pieces `split` found, ordered by their smallest local id (the
    /// order a full walk from local 0 upward meets them in). A member
    /// list is in load order, so a community loaded in ascending id
    /// order yields sorted pieces.
    pub fn pieces<'a>(&'a self, split: &Split) -> impl Iterator<Item = Piece<'a>> + 'a {
        let (finished, mut rest) = (split.finished, split.rest);
        let mut at = 0;
        std::iter::from_fn(move || {
            if let Some((first, len)) = rest {
                if at == finished || self.queue[at] > first {
                    rest = None;
                    return Some(Piece::Rest(len));
                }
            }
            if at == finished {
                return None;
            }
            let (start, root) = (at, self.group[self.queue[at] as usize]);
            while at < finished && self.group[self.queue[at] as usize] == root {
                at += 1;
            }
            Some(Piece::Walked(&self.comp_buf[start..at]))
        })
    }

    /// Every member of the pieces `split` finished, piece by piece.
    pub fn finished(&self, split: &Split) -> &[VertexId] {
        &self.comp_buf[..split.finished]
    }

    /// Appends the members of `split`'s rest to `out`, in load order —
    /// one pass over the members from the rest's first.
    pub fn rest_into(&self, split: &Split, out: &mut Vec<VertexId>) {
        let Some((first, _)) = split.rest else {
            return;
        };
        let (epoch, visit) = (self.epoch, self.visit_epoch);
        out.extend(
            (first as usize..self.members.len())
                .filter(|&l| self.removed_stamp[l] != epoch && self.visited_stamp[l] != visit)
                .map(|l| self.members[l]),
        );
    }

    /// [`Self::split`] with every piece materialized: each component of
    /// the live set is passed to `f` as a global-id slice in load order,
    /// valid only for the call, in [`Self::pieces`] order. No allocation
    /// happens. Components of a k-loaded arena are connected k-cores by
    /// construction. Same precondition as the split.
    pub fn for_each_component<F: FnMut(&[VertexId])>(&mut self, mut f: F) {
        let split = self.split();
        let mut buf = std::mem::take(&mut self.comp_buf);
        let cap = buf.capacity();
        self.rest_into(&split, &mut buf);
        Self::track_capacity(&buf, cap, &mut self.alloc_events);
        self.comp_buf = buf;
        for piece in self.pieces(&split) {
            f(match piece {
                Piece::Walked(c) => c,
                Piece::Rest(_) => &self.comp_buf[split.finished..],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{maximal_kcore_components, PeelScratch};
    use ic_graph::graph_from_edges;

    /// Triangle {0,1,2} with pendant 3 on vertex 2, plus a separate
    /// triangle {4,5,6}.
    fn two_triangles_pendant() -> Graph {
        graph_from_edges(7, &[(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6), (6, 4)])
    }

    /// Triangles {0,1,2} and {4,5,6} joined by the bridge 2–4, with
    /// pendant 3 on vertex 2: one connected 2-core of six vertices.
    fn bridged_triangles_pendant() -> Graph {
        graph_from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (2, 4),
                (4, 5),
                (5, 6),
                (6, 4),
            ],
        )
    }

    fn sorted_components(arena: &mut PeelArena) -> Vec<Vec<VertexId>> {
        let mut comps = Vec::new();
        arena.for_each_component(|c| {
            let mut c = c.to_vec();
            c.sort_unstable();
            comps.push(c);
        });
        comps.sort();
        comps
    }

    #[test]
    fn load_peels_below_k_members() {
        let g = bridged_triangles_pendant();
        let mut arena = PeelArena::for_graph(&g);
        let all: Vec<u32> = (0..7).collect();
        arena.load(&g, &all, 2);
        // Pendant 3 has degree 1 < 2 and is peeled at load.
        assert_eq!(arena.live_count(), 6);
        assert!(!arena.is_live(3));
        assert_eq!(sorted_components(&mut arena), vec![vec![0, 1, 2, 4, 5, 6]]);
    }

    #[test]
    fn remove_rollback_restores_state() {
        let g = bridged_triangles_pendant();
        let mut arena = PeelArena::for_graph(&g);
        arena.load(&g, &[0, 1, 2, 4, 5, 6], 2);
        let removed = arena.remove_cascade(0);
        // Removing 0 cascades 1 and 2 away (their degree drops to 1).
        assert_eq!(removed, 3);
        assert_eq!(arena.live_count(), 3);
        assert_eq!(sorted_components(&mut arena), vec![vec![4, 5, 6]]);
        arena.rollback();
        assert_eq!(arena.live_count(), 6);
        for v in [0u32, 1, 2, 4, 5, 6] {
            assert!(arena.is_live(v), "v{v}");
        }
        assert_eq!(sorted_components(&mut arena), vec![vec![0, 1, 2, 4, 5, 6]]);
    }

    #[test]
    fn split_walks_the_cut_off_piece_and_counts_the_rest() {
        // A 4-clique {0,1,2,3} hangs off vertex 4 of the 3-core below
        // (a 5-clique {4..8} plus a 4-clique {9..12} bridged to it);
        // deleting 4 at k = 2 leaves {0..3}, {5..8} and {9..12} joined to
        // {5..8}. The walk finishes {0..3} from 4's neighbours and
        // stops: {5..12} is the rest, counted, never walked whole.
        let mut edges = Vec::new();
        for group in [&[0u32, 1, 2, 3][..], &[4, 5, 6, 7, 8], &[9, 10, 11, 12]] {
            for (i, &a) in group.iter().enumerate() {
                edges.extend(group[i + 1..].iter().map(|&b| (a, b)));
            }
        }
        edges.extend([(0, 4), (1, 4), (8, 9), (8, 10)]);
        let g = graph_from_edges(13, &edges);
        let members: Vec<u32> = (0..13).collect();
        let mut arena = PeelArena::for_graph(&g);
        arena.load(&g, &members, 2);
        assert_eq!(arena.remove_cascade(4), 1);
        let split = arena.split();
        let pieces: Vec<Piece<'_>> = arena.pieces(&split).collect();
        assert_eq!(pieces, [Piece::Walked(&[0, 1, 2, 3]), Piece::Rest(8)]);
        assert_eq!(arena.finished(&split), [0, 1, 2, 3]);
        assert!(split.walked < 4 + 8, "walked {}", split.walked);
        let mut rest = Vec::new();
        arena.rest_into(&split, &mut rest);
        assert_eq!(rest, [5, 6, 7, 8, 9, 10, 11, 12]);
        // The rest comes first when its smallest member does: deleting
        // 8 cuts {9..12} off {0..7}.
        arena.rollback();
        arena.remove_cascade(8);
        let split = arena.split();
        let pieces: Vec<Piece<'_>> = arena.pieces(&split).collect();
        assert_eq!(pieces, [Piece::Rest(8), Piece::Walked(&[9, 10, 11, 12])]);
    }

    #[test]
    fn an_image_loads_back_the_marked_state() {
        let g = bridged_triangles_pendant();
        let mut arena = PeelArena::for_graph(&g);
        let members = [0u32, 1, 2, 4, 5, 6];
        arena.load(&g, &members, 2);
        arena.mark_articulation_points();
        let image = arena.image();
        let mut copy = PeelArena::for_graph(&g);
        copy.load(&g, &[4, 5, 6], 2);
        copy.load_image(&image);
        assert_eq!(copy.image(), image);
        for v in 0..7 {
            assert_eq!(copy.is_live(v), arena.is_live(v), "v{v}");
            assert_eq!(copy.is_articulation(v), arena.is_articulation(v), "v{v}");
        }
        assert!(copy.is_articulation(2) && copy.is_articulation(4));
        assert_eq!(copy.remove_cascade(0), 3);
        assert_eq!(sorted_components(&mut copy), vec![vec![4, 5, 6]]);
    }

    /// The 5-cycle 0–1–2–3–4–0 with 5 hanging off 2, loaded at k = 0
    /// (nothing cascades) and marked: the DFS from 0 runs down the path
    /// 0–1–2–3–4 (4's back edge to 0 is the lowpoint edge of every
    /// subtree below 0) and then 2–5.
    fn cycle_with_tail() -> (Graph, PeelArena) {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5)]);
        let mut arena = PeelArena::for_graph(&g);
        arena.load(&g, &[0, 1, 2, 3, 4, 5], 0);
        arena.mark_articulation_points();
        (g, arena)
    }

    #[test]
    fn a_lowpoint_edge_escapes_only_from_its_own_fragment() {
        let (_, mut arena) = cycle_with_tail();
        // Deleting 3 leaves 4 under it, and 4's edge to 0 climbs above
        // 3: one piece, certified.
        arena.remove_cascade(3);
        assert!(arena.split().certified);
        assert_eq!(sorted_components(&mut arena), vec![vec![0, 1, 2, 4, 5]]);
        // Deleting 1 as well: {2, 5}'s lowpoint edge 4–0 starts below 3,
        // outside its fragment, and 5 is no way up either; with the
        // root's piece that is two fragments without an escape, so the
        // split walks.
        arena.remove_cascade(1);
        assert!(!arena.split().certified);
        assert_eq!(sorted_components(&mut arena), vec![vec![0, 4], vec![2, 5]]);
    }

    #[test]
    fn a_commit_retires_the_certificate() {
        // The tree counts removals from the marked state. On the 5-cycle
        // the DFS path is 0–1–2–3–4; after 2's deletion is committed the
        // live set is the path 3–4–0–1, and deleting 4 cuts it in two.
        // 4 is a leaf of the tree and the root is live, so a tree that
        // forgot the committed 2 would certify one piece.
        let (g, _) = cycle_with_tail();
        let mut arena = PeelArena::for_graph(&g);
        arena.load(&g, &[0, 1, 2, 3, 4], 0);
        arena.mark_articulation_points();
        arena.remove_cascade(2);
        arena.commit();
        arena.remove_cascade(4);
        let split = arena.split();
        assert!(!split.certified);
        assert_eq!(sorted_components(&mut arena), vec![vec![0, 1], vec![3]]);
    }

    #[test]
    fn commit_makes_removals_permanent() {
        let g = two_triangles_pendant();
        let mut arena = PeelArena::for_graph(&g);
        arena.load(&g, &[0, 1, 2, 4, 5, 6], 1);
        assert_eq!(arena.remove_cascade(4), 1);
        arena.commit();
        arena.rollback(); // nothing journaled: no-op
        assert_eq!(arena.live_count(), 5);
        assert!(!arena.is_live(4));
    }

    #[test]
    fn removing_dead_vertex_is_a_noop() {
        let g = two_triangles_pendant();
        let mut arena = PeelArena::for_graph(&g);
        arena.load(&g, &[0, 1, 2], 2);
        assert_eq!(arena.remove_cascade(5), 0); // not loaded
        assert_eq!(arena.remove_cascade(0), 3);
        assert_eq!(arena.remove_cascade(0), 0); // already removed
        arena.rollback();
        assert_eq!(arena.live_count(), 3);
    }

    #[test]
    fn matches_peel_scratch_on_random_deletions() {
        // Cross-validate arena remove+components against the from-scratch
        // PeelScratch on a fixed pseudo-random graph.
        let n = 40usize;
        let mut edges = Vec::new();
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..160 {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            edges.push((u, v));
        }
        let g = graph_from_edges(n, &edges);
        let mut arena = PeelArena::for_graph(&g);
        let mut scratch = PeelScratch::new(n);
        for k in 1..4usize {
            for comp in maximal_kcore_components(&g, k) {
                arena.load(&g, &comp, k);
                for &victim in &comp {
                    arena.remove_cascade(victim);
                    let mut got = Vec::new();
                    arena.for_each_component(|c| {
                        let mut c = c.to_vec();
                        c.sort_unstable();
                        got.push(c);
                    });
                    got.sort();
                    arena.rollback();
                    let mut expected = scratch.connected_kcores(&g, &comp, Some(victim), k);
                    expected.sort();
                    assert_eq!(got, expected, "k={k} victim={victim}");
                }
            }
        }
    }

    #[test]
    fn articulation_marks_match_brute_force() {
        // Brute force: v is an articulation point of the loaded live set
        // iff deleting it (WITHOUT degree cascade) increases the number
        // of connected components among the remaining vertices.
        let n = 32usize;
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..30 {
            let mut edges = Vec::new();
            for _ in 0..60 {
                let u = (next() % n as u64) as u32;
                let v = (next() % n as u64) as u32;
                edges.push((u, v));
            }
            let g = graph_from_edges(n, &edges);
            let members: Vec<u32> = (0..n as u32).collect();
            let mut arena = PeelArena::for_graph(&g);
            arena.load(&g, &members, 0); // k = 0: nothing peels, all live
            arena.mark_articulation_points();

            let count_components = |skip: Option<u32>| -> usize {
                let mut seen = vec![false; n];
                let mut comps = 0;
                for start in 0..n as u32 {
                    if Some(start) == skip || seen[start as usize] {
                        continue;
                    }
                    comps += 1;
                    let mut stack = vec![start];
                    seen[start as usize] = true;
                    while let Some(x) = stack.pop() {
                        for &u in g.neighbors(x) {
                            if Some(u) != skip && !seen[u as usize] {
                                seen[u as usize] = true;
                                stack.push(u);
                            }
                        }
                    }
                }
                comps
            };

            let base = count_components(None);
            for v in 0..n as u32 {
                // A non-isolated v is an articulation point iff skipping
                // it increases the component count (its own component
                // contributes one either way unless it splits). Isolated
                // vertices lower the count and are never articulation
                // points.
                let without = count_components(Some(v));
                let expected = !g.neighbors(v).is_empty() && without > base;
                assert_eq!(
                    arena.is_articulation(v),
                    expected,
                    "trial {trial} vertex {v}: base {base}, without {without}"
                );
            }
        }
    }

    #[test]
    fn rollback_restores_degrees_with_queued_adjacent_cascades() {
        // Regression: when two adjacent vertices are both queued in the
        // same cascade, the popped-vs-queued distinction matters — the
        // earlier pop must still decrement the queued neighbor so that
        // reverse-order rollback is its exact mirror. Removing 0 from
        // this graph cascades 1, 3, 4, 5 with 4 and 5 adjacent and both
        // in flight; a naive skip corrupted deg(5) and made the follow-up
        // removal of 3 keep the bogus community {0, 1, 4, 5}.
        let g = graph_from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (3, 5), (4, 5)]);
        let members = [0u32, 1, 3, 4, 5];
        let mut arena = PeelArena::for_graph(&g);
        let mut scratch = PeelScratch::new(6);
        arena.load(&g, &members, 2);
        for &victim in &members {
            arena.remove_cascade(victim);
            let mut got = Vec::new();
            arena.for_each_component(|c| {
                let mut c = c.to_vec();
                c.sort_unstable();
                got.push(c);
            });
            got.sort();
            arena.rollback();
            let mut expected = scratch.connected_kcores(&g, &members, Some(victim), 2);
            expected.sort();
            assert_eq!(got, expected, "victim {victim}");
        }
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let g = bridged_triangles_pendant();
        let mut arena = PeelArena::for_graph(&g);
        let all: Vec<u32> = (0..7).collect();
        arena.load(&g, &all[..3], 2);
        arena.mark_articulation_points();
        let image = arena.image();
        let mut rest = Vec::with_capacity(7);
        for round in 0..1000 {
            if round % 2 == 0 {
                arena.load(&g, &all, 2);
                arena.mark_articulation_points();
            } else {
                arena.load_image(&image);
            }
            for v in 0..7u32 {
                arena.remove_cascade(v);
                arena.for_each_component(|c| {
                    std::hint::black_box(c.len());
                });
                let split = arena.split();
                for piece in arena.pieces(&split) {
                    std::hint::black_box(piece);
                }
                rest.clear();
                arena.rest_into(&split, &mut rest);
                arena.rollback();
            }
        }
        assert_eq!(arena.alloc_events(), 0, "steady-state peel loop allocated");
        assert_eq!(rest.capacity(), 7);
    }

    #[test]
    fn epoch_wrap_survives() {
        let g = two_triangles_pendant();
        let mut arena = PeelArena::for_graph(&g);
        arena.epoch = u32::MAX - 2;
        arena.visit_epoch = u32::MAX - 2;
        for _ in 0..8 {
            arena.load(&g, &[0, 1, 2], 2);
            assert_eq!(arena.live_count(), 3);
            assert_eq!(sorted_components(&mut arena), vec![vec![0, 1, 2]]);
        }
    }
}
