use crate::CoreDecomposition;
use ic_graph::{Graph, VertexId};
use std::collections::VecDeque;

/// One topology change for [`CoreMaintainer::apply_recorded`] (and the engine's
/// `Engine::apply`). The vertex set is fixed — updates address existing
/// vertex ids only. `#[non_exhaustive]`: match with a wildcard arm
/// outside `ic-kcore`.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeUpdate {
    /// Insert the undirected edge `{u, v}` (no-op if present or `u = v`).
    Insert {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Remove the undirected edge `{u, v}` (no-op if absent).
    Remove {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
}

impl EdgeUpdate {
    /// The update's endpoints.
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        match *self {
            EdgeUpdate::Insert { u, v } | EdgeUpdate::Remove { u, v } => (u, v),
        }
    }
}

/// One vertex whose core number changed during an apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreDelta {
    /// The vertex whose core number moved.
    pub vertex: VertexId,
    /// Core number before the update.
    pub old_core: u32,
    /// Core number after the update (differs from `old_core` by exactly
    /// one — a single edge change moves cores by at most one).
    pub new_core: u32,
}

/// The cascade journal of one [`CoreMaintainer::apply_recorded`] call:
/// which region of the graph the subcore traversal touched and which
/// core numbers moved.
///
/// This is the structure standing-query layers consume (`ic-sub`): the
/// touched region bounds where community structure can have changed, and
/// [`CascadeRecord::ceiling`] turns that into a *sound* per-`k`
/// invalidation test — above it, the maximal k-core at that level
/// (vertex set **and** induced edge set) is provably identical before
/// and after the update, so any deterministic query at that `k` returns
/// a bit-identical answer and needs no re-solve.
#[derive(Clone, Debug, PartialEq)]
pub struct CascadeRecord {
    /// The update this record describes.
    pub update: EdgeUpdate,
    /// Whether the edge set changed (`false` for self-loops, duplicate
    /// inserts, and absent removes — such records touch nothing).
    pub applied: bool,
    /// Every vertex the subcore traversal visited: both endpoints plus
    /// the collected subcore at `K = min(core(u), core(v))`. Contains no
    /// duplicates; empty when `applied` is `false`.
    pub touched: Vec<VertexId>,
    /// The vertices whose core numbers changed, with old and new values.
    /// A subset of `touched`.
    pub deltas: Vec<CoreDelta>,
    /// Core numbers of `(u, v)` **after** the update was applied.
    pub endpoint_cores: (u32, u32),
}

impl CascadeRecord {
    fn noop(update: EdgeUpdate, cores: (u32, u32)) -> Self {
        CascadeRecord {
            update,
            applied: false,
            touched: Vec::new(),
            deltas: Vec::new(),
            endpoint_cores: cores,
        }
    }

    /// The highest level this update can have changed, `None` when it
    /// changed nothing. A level's maximal k-core — vertex set and induced
    /// edges — changes exactly when some vertex crosses `core ≥ k` or the
    /// toggled edge lies inside it, which holds exactly for the levels
    /// `k ≤ ceiling`: the ceiling is the lower endpoint core with the
    /// edge present — after an insert, before a remove. A core number
    /// moves only at the subcore level `K = min(core(u), core(v))`: a
    /// removal drops members from `K` to `K − 1`, which crosses level `K`
    /// only; an insertion that promotes anything promotes both endpoints'
    /// subcore to `K + 1` (else the new edge would lie outside the new
    /// `(K + 1)`-core, which would then have existed before it), so both
    /// endpoints end at or above the one crossed level.
    pub fn ceiling(&self) -> Option<u32> {
        if !self.applied {
            return None;
        }
        let (cu, cv) = self.endpoint_cores;
        Some(match self.update {
            EdgeUpdate::Insert { .. } => cu.min(cv),
            EdgeUpdate::Remove { u, v } => self.pre_core(u, cu).min(self.pre_core(v, cv)),
        })
    }

    /// `x`'s core number before the update, given its core `post` after:
    /// they differ only for a vertex the cascade moved.
    fn pre_core(&self, x: VertexId, post: u32) -> u32 {
        self.deltas
            .iter()
            .find(|d| d.vertex == x)
            .map_or(post, |d| d.old_core)
    }
}

/// Reusable scratch state for the hot inner loop of Algorithms 1 and 2:
/// "remove one vertex from a community, cascade-peel back to a k-core, and
/// return the resulting connected components".
///
/// Membership, removal, and visitation are tracked with generation-stamped
/// arrays so that consecutive calls reuse allocations and reset in O(1).
#[derive(Clone, Debug)]
pub struct PeelScratch {
    member_stamp: Vec<u32>,
    removed_stamp: Vec<u32>,
    visited_stamp: Vec<u32>,
    deg: Vec<u32>,
    generation: u32,
    queue: VecDeque<VertexId>,
}

impl PeelScratch {
    /// Creates scratch state for graphs with up to `n` vertices.
    pub fn new(n: usize) -> Self {
        PeelScratch {
            member_stamp: vec![0; n],
            removed_stamp: vec![0; n],
            visited_stamp: vec![0; n],
            deg: vec![0; n],
            generation: 0,
            queue: VecDeque::new(),
        }
    }

    fn next_generation(&mut self) -> u32 {
        if self.generation == u32::MAX {
            self.member_stamp.fill(0);
            self.removed_stamp.fill(0);
            self.visited_stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.generation
    }

    /// Computes the connected k-core components of `G[members ∖ exclude]`.
    ///
    /// `members` is a community (vertex list, any order, no duplicates);
    /// `exclude`, when set, is the vertex being deleted (line 7 of
    /// Algorithm 1 / line 12 of Algorithm 2). Each returned component is a
    /// sorted vertex list. Runs in `O(Σ_{v ∈ members} d(v))`.
    pub fn connected_kcores(
        &mut self,
        g: &Graph,
        members: &[VertexId],
        exclude: Option<VertexId>,
        k: usize,
    ) -> Vec<Vec<VertexId>> {
        let generation = self.next_generation();

        // Mark membership.
        let mut live = 0usize;
        for &v in members {
            if Some(v) != exclude {
                self.member_stamp[v as usize] = generation;
                live += 1;
            }
        }
        if live == 0 {
            return Vec::new();
        }

        // Internal degrees.
        self.queue.clear();
        for &v in members {
            if Some(v) == exclude {
                continue;
            }
            let d = g
                .neighbors(v)
                .iter()
                .filter(|&&u| self.member_stamp[u as usize] == generation)
                .count() as u32;
            self.deg[v as usize] = d;
            if (d as usize) < k {
                self.removed_stamp[v as usize] = generation;
                self.queue.push_back(v);
            }
        }

        // Cascade peel.
        while let Some(v) = self.queue.pop_front() {
            for &u in g.neighbors(v) {
                let u = u as usize;
                if self.member_stamp[u] == generation && self.removed_stamp[u] != generation {
                    self.deg[u] -= 1;
                    if (self.deg[u] as usize) < k {
                        self.removed_stamp[u] = generation;
                        self.queue.push_back(u as VertexId);
                    }
                }
            }
        }

        // Connected components of the survivors.
        let mut comps = Vec::new();
        for &v in members {
            if Some(v) == exclude {
                continue;
            }
            let vi = v as usize;
            if self.removed_stamp[vi] == generation || self.visited_stamp[vi] == generation {
                continue;
            }
            let mut comp = Vec::new();
            self.visited_stamp[vi] = generation;
            self.queue.push_back(v);
            while let Some(x) = self.queue.pop_front() {
                comp.push(x);
                for &u in g.neighbors(x) {
                    let ui = u as usize;
                    if self.member_stamp[ui] == generation
                        && self.removed_stamp[ui] != generation
                        && self.visited_stamp[ui] != generation
                    {
                        self.visited_stamp[ui] = generation;
                        self.queue.push_back(u);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }
}

/// Incrementally maintained core numbers under edge insertions and
/// deletions (the subcore/traversal algorithm of Sarıyüce et al.).
///
/// A single edge change moves core numbers by at most one, and only for
/// vertices in the *subcore* of the touched endpoints: the set of
/// vertices with core number `K = min(core(u), core(v))` reachable from
/// the endpoints through vertices of core `K`. Both operations therefore
/// run in time proportional to that subcore's frontier, not the graph:
///
/// * an insertion collects the subcore, counts for
///   each member its neighbors with core ≥ `K` (all of which could
///   support a promotion to `K + 1`), peels members whose count cannot
///   reach `K + 1`, and promotes the survivors;
/// * a removal collects the subcore of the new
///   graph, counts supporting neighbors the same way, and cascades the
///   members whose support fell below `K` down to `K − 1`.
///
/// The structure owns its own dynamic adjacency (the static CSR
/// [`Graph`] is immutable); [`CoreMaintainer::to_graph`] materializes
/// the current edge set, which is how the property tests hold every
/// maintained state to the from-scratch
/// [`core_decomposition`](crate::core_decomposition) oracle.
#[derive(Clone, Debug)]
pub struct CoreMaintainer {
    adj: Vec<Vec<VertexId>>,
    core: Vec<u32>,
    /// Generation-stamped membership of the current subcore `S`.
    stamp: Vec<u32>,
    /// Generation stamp of vertices peeled/dropped in the current pass.
    out_stamp: Vec<u32>,
    generation: u32,
    /// Supporting-neighbor counts, valid for stamped vertices only.
    cd: Vec<u32>,
    queue: VecDeque<VertexId>,
    stack: Vec<VertexId>,
}

impl CoreMaintainer {
    /// An edgeless maintainer over `n` vertices (all cores 0).
    pub fn new(n: usize) -> Self {
        CoreMaintainer {
            adj: vec![Vec::new(); n],
            core: vec![0; n],
            stamp: vec![0; n],
            out_stamp: vec![0; n],
            generation: 0,
            cd: vec![0; n],
            queue: VecDeque::new(),
            stack: Vec::new(),
        }
    }

    /// Seeds the maintainer from an existing graph (cores computed once
    /// from scratch; subsequent updates are incremental).
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.num_vertices();
        let mut m = Self::new(n);
        for v in 0..n as VertexId {
            m.adj[v as usize] = g.neighbors(v).to_vec();
        }
        m.core = crate::core_decomposition(g).core_numbers;
        m
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges currently present.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    /// The current core number of `v`.
    pub fn core(&self, v: VertexId) -> u32 {
        self.core[v as usize]
    }

    /// All current core numbers, indexed by vertex.
    pub fn core_numbers(&self) -> &[u32] {
        &self.core
    }

    /// The current degeneracy (maximum core number).
    pub fn degeneracy(&self) -> u32 {
        self.core.iter().copied().max().unwrap_or(0)
    }

    /// Applies one [`EdgeUpdate`] and returns its cascade journal
    /// ([`CascadeRecord`]): whether the edge set changed, the touched
    /// region and every core-number delta.
    ///
    /// # Panics
    /// Panics when an endpoint is outside the maintainer's vertex range
    /// (the vertex set is fixed at construction).
    pub fn apply_recorded(&mut self, update: EdgeUpdate) -> CascadeRecord {
        let (u, v) = update.endpoints();
        assert!(
            (u as usize) < self.adj.len() && (v as usize) < self.adj.len(),
            "edge update {{{u}, {v}}} addresses a vertex outside 0..{}",
            self.adj.len()
        );
        let mut record =
            CascadeRecord::noop(update, (self.core[u as usize], self.core[v as usize]));
        match update {
            EdgeUpdate::Insert { u, v } => self.insert_edge(u, v, &mut record),
            EdgeUpdate::Remove { u, v } => self.remove_edge(u, v, &mut record),
        }
        record
    }

    /// The maintained state as a [`CoreDecomposition`], ready to seed a
    /// [`GraphSnapshot`](crate::GraphSnapshot) without re-running the
    /// from-scratch bucket peel. The peel order is synthesized by
    /// ordering vertices by `(core number, id)` — one counting pass over
    /// the core numbers — which satisfies the documented
    /// non-decreasing-core contract (the maintainer does not track the
    /// bucket-peel visit order itself).
    pub fn decomposition(&self) -> CoreDecomposition {
        let max_core = self.degeneracy();
        // `next[c]`: where the next vertex of core `c` goes.
        let mut next = vec![0usize; max_core as usize + 2];
        for &c in &self.core {
            next[c as usize + 1] += 1;
        }
        for c in 1..next.len() {
            next[c] += next[c - 1];
        }
        let mut peel_order: Vec<VertexId> = vec![0; self.core.len()];
        for (v, &c) in self.core.iter().enumerate() {
            peel_order[next[c as usize]] = v as VertexId;
            next[c as usize] += 1;
        }
        CoreDecomposition {
            core_numbers: self.core.clone(),
            max_core,
            peel_order,
        }
    }

    /// Whether the undirected edge `{u, v}` is present.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.adj[u as usize].len() <= self.adj[v as usize].len() {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a as usize].contains(&b)
    }

    /// Materializes the current edge set as a static [`Graph`]: the
    /// maintained rows laid out as CSR, each sorted
    /// ([`Graph::from_rows`]).
    pub fn to_graph(&self) -> Graph {
        Graph::from_rows(&self.adj)
    }

    /// The current edge set as [`to_graph`](Self::to_graph) lays it out,
    /// built from `old` — the graph these `records` were applied to —
    /// with only the rows of the applied updates' endpoints replaced by
    /// the maintained ones ([`Graph::with_rows`]). A toggle cancelled
    /// later in the same batch re-lays its rows as they were.
    /// `Engine::apply` builds every post-update snapshot's graph this way.
    pub fn patched_graph(&self, old: &Graph, records: &[CascadeRecord]) -> Graph {
        let mut ends: Vec<VertexId> = records
            .iter()
            .filter(|r| r.applied)
            .flat_map(|r| <[VertexId; 2]>::from(r.update.endpoints()))
            .collect();
        ends.sort_unstable();
        ends.dedup();
        let rows: Vec<(VertexId, &[VertexId])> = ends
            .iter()
            .map(|&v| (v, self.adj[v as usize].as_slice()))
            .collect();
        old.with_rows(&rows)
    }

    fn next_generation(&mut self) -> u32 {
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.out_stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.generation
    }

    /// Collects into `self.stack` the subcore at level `k`: every vertex
    /// with core `k` reachable from the stamped roots through vertices of
    /// core `k`, and computes each member's supporting-neighbor count
    /// `cd(w) = |{x ∈ N(w) : core(x) ≥ k}|`. Roots must already be
    /// stamped and pushed on the queue.
    fn collect_subcore(&mut self, k: u32, generation: u32) {
        self.stack.clear();
        while let Some(w) = self.queue.pop_front() {
            self.stack.push(w);
            let mut count = 0u32;
            for i in 0..self.adj[w as usize].len() {
                let x = self.adj[w as usize][i];
                let xi = x as usize;
                if self.core[xi] >= k {
                    count += 1;
                }
                if self.core[xi] == k && self.stamp[xi] != generation {
                    self.stamp[xi] = generation;
                    self.queue.push_back(x);
                }
            }
            self.cd[w as usize] = count;
        }
    }

    /// Inserts the undirected edge `{u, v}`, updating core numbers and
    /// journaling into `record`. Changes nothing for self-loops and
    /// edges already present.
    fn insert_edge(&mut self, u: VertexId, v: VertexId, record: &mut CascadeRecord) {
        if u == v || self.has_edge(u, v) {
            return;
        }
        self.adj[u as usize].push(v);
        self.adj[v as usize].push(u);

        let k = self.core[u as usize].min(self.core[v as usize]);
        let generation = self.next_generation();
        self.queue.clear();
        for root in [u, v] {
            let ri = root as usize;
            if self.core[ri] == k && self.stamp[ri] != generation {
                self.stamp[ri] = generation;
                self.queue.push_back(root);
            }
        }
        self.collect_subcore(k, generation);

        // Peel the candidate set down to the members that can sustain
        // core k + 1: a member needs more than k supporting neighbors,
        // and every peeled member withdraws its support from the
        // candidates around it.
        for i in 0..self.stack.len() {
            let w = self.stack[i];
            if self.cd[w as usize] <= k && self.out_stamp[w as usize] != generation {
                self.out_stamp[w as usize] = generation;
                self.queue.push_back(w);
            }
        }
        while let Some(w) = self.queue.pop_front() {
            for i in 0..self.adj[w as usize].len() {
                let x = self.adj[w as usize][i];
                let xi = x as usize;
                if self.stamp[xi] == generation && self.out_stamp[xi] != generation {
                    self.cd[xi] -= 1;
                    if self.cd[xi] <= k {
                        self.out_stamp[xi] = generation;
                        self.queue.push_back(x);
                    }
                }
            }
        }
        for i in 0..self.stack.len() {
            let w = self.stack[i] as usize;
            if self.out_stamp[w] != generation {
                self.core[w] = k + 1;
            }
        }
        self.journal(record, generation, k, k + 1);
    }

    /// Removes the undirected edge `{u, v}`, updating core numbers and
    /// journaling into `record`. Changes nothing when the edge is absent.
    fn remove_edge(&mut self, u: VertexId, v: VertexId, record: &mut CascadeRecord) {
        if u == v || !self.has_edge(u, v) {
            return;
        }
        let pos = self.adj[u as usize].iter().position(|&x| x == v).unwrap();
        self.adj[u as usize].swap_remove(pos);
        let pos = self.adj[v as usize].iter().position(|&x| x == u).unwrap();
        self.adj[v as usize].swap_remove(pos);

        // Both endpoints of an existing edge have degree >= 1, hence
        // core >= 1, so k >= 1 and the k - 1 drops below never underflow.
        let k = self.core[u as usize].min(self.core[v as usize]);
        let generation = self.next_generation();
        self.queue.clear();
        for root in [u, v] {
            let ri = root as usize;
            if self.core[ri] == k && self.stamp[ri] != generation {
                self.stamp[ri] = generation;
                self.queue.push_back(root);
            }
        }
        self.collect_subcore(k, generation);

        // Cascade: a member whose supporting-neighbor count fell below k
        // drops to k - 1 and withdraws support from the rest.
        for i in 0..self.stack.len() {
            let w = self.stack[i];
            if self.cd[w as usize] < k && self.out_stamp[w as usize] != generation {
                self.out_stamp[w as usize] = generation;
                self.queue.push_back(w);
            }
        }
        while let Some(w) = self.queue.pop_front() {
            self.core[w as usize] = k - 1;
            for i in 0..self.adj[w as usize].len() {
                let x = self.adj[w as usize][i];
                let xi = x as usize;
                if self.stamp[xi] == generation && self.out_stamp[xi] != generation {
                    self.cd[xi] -= 1;
                    if self.cd[xi] < k {
                        self.out_stamp[xi] = generation;
                        self.queue.push_back(x);
                    }
                }
            }
        }
        self.journal(record, generation, k, k - 1);
    }

    /// Journals an applied toggle whose cascade over the collected
    /// subcore moved cores from `k` to `new_core`: an insertion promotes
    /// the members its peel kept, a removal demotes the ones it peeled.
    fn journal(&self, record: &mut CascadeRecord, generation: u32, k: u32, new_core: u32) {
        let (u, v) = record.update.endpoints();
        let demoted = new_core < k;
        record.applied = true;
        record.touched = self.stack.clone();
        for endpoint in [u, v] {
            if self.stamp[endpoint as usize] != generation {
                record.touched.push(endpoint);
            }
        }
        record.deltas = self
            .stack
            .iter()
            .filter(|&&w| (self.out_stamp[w as usize] == generation) == demoted)
            .map(|&w| CoreDelta {
                vertex: w,
                old_core: k,
                new_core,
            })
            .collect();
        record.endpoint_cores = (self.core[u as usize], self.core[v as usize]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_graph::graph_from_edges;

    /// Triangle {0,1,2} with pendant 3 on vertex 2, plus a separate
    /// triangle {4,5,6}.
    fn two_triangles_pendant() -> Graph {
        graph_from_edges(7, &[(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6), (6, 4)])
    }

    #[test]
    fn removal_splits_and_cascades() {
        let g = two_triangles_pendant();
        let mut scratch = PeelScratch::new(7);
        // Delete the pendant 3 at k=1: both triangles remain.
        let all: Vec<u32> = (0..7).collect();
        let comps = scratch.connected_kcores(&g, &all, Some(3), 1);
        assert_eq!(comps, vec![vec![0, 1, 2], vec![4, 5, 6]]);
    }

    #[test]
    fn removal_with_cascade_at_k2() {
        let g = two_triangles_pendant();
        let mut scratch = PeelScratch::new(7);
        let community = vec![0, 1, 2];
        // Deleting 0 from the triangle leaves 1-2 with degree 1 < 2: all gone.
        let comps = scratch.connected_kcores(&g, &community, Some(0), 2);
        assert!(comps.is_empty());
    }

    #[test]
    fn no_exclusion_peels_to_kcore() {
        let g = two_triangles_pendant();
        let mut scratch = PeelScratch::new(7);
        let all: Vec<u32> = (0..7).collect();
        let comps = scratch.connected_kcores(&g, &all, None, 2);
        assert_eq!(comps, vec![vec![0, 1, 2], vec![4, 5, 6]]);
    }

    #[test]
    fn excluding_sole_member_returns_empty() {
        let g = graph_from_edges(1, &[]);
        let mut scratch = PeelScratch::new(1);
        assert!(scratch.connected_kcores(&g, &[0], Some(0), 0).is_empty());
    }

    #[test]
    fn k_zero_returns_components_only() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let mut scratch = PeelScratch::new(4);
        let comps = scratch.connected_kcores(&g, &[0, 1, 2, 3], None, 0);
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn repeated_calls_reuse_state_correctly() {
        let g = two_triangles_pendant();
        let mut scratch = PeelScratch::new(7);
        let all: Vec<u32> = (0..7).collect();
        for _ in 0..100 {
            let comps = scratch.connected_kcores(&g, &all, None, 2);
            assert_eq!(comps.len(), 2);
            let comps = scratch.connected_kcores(&g, &[0, 1, 2], Some(1), 2);
            assert!(comps.is_empty());
        }
    }

    #[test]
    fn members_not_in_graph_order() {
        let g = two_triangles_pendant();
        let mut scratch = PeelScratch::new(7);
        // Unsorted member list must still work; components come back sorted.
        let comps = scratch.connected_kcores(&g, &[6, 4, 5, 2, 0, 1], None, 2);
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&vec![0, 1, 2]));
        assert!(comps.contains(&vec![4, 5, 6]));
    }

    fn insert(m: &mut CoreMaintainer, u: VertexId, v: VertexId) -> bool {
        m.apply_recorded(EdgeUpdate::Insert { u, v }).applied
    }

    fn remove(m: &mut CoreMaintainer, u: VertexId, v: VertexId) -> bool {
        m.apply_recorded(EdgeUpdate::Remove { u, v }).applied
    }

    fn assert_cores_match_scratch(m: &CoreMaintainer, context: &str) {
        let expect = crate::core_decomposition(&m.to_graph()).core_numbers;
        assert_eq!(m.core_numbers(), expect.as_slice(), "{context}");
    }

    #[test]
    fn maintainer_tracks_incremental_build_of_known_graph() {
        let edges = [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6), (6, 4)];
        let mut m = CoreMaintainer::new(7);
        for (i, &(u, v)) in edges.iter().enumerate() {
            assert!(insert(&mut m, u, v));
            assert_cores_match_scratch(&m, &format!("after insert #{i}"));
        }
        assert_eq!(m.core_numbers(), &[2, 2, 2, 1, 2, 2, 2]);
        assert_eq!(m.degeneracy(), 2);
        // Tear the first triangle down edge by edge.
        for (i, &(u, v)) in [(0u32, 1u32), (1, 2), (2, 0)].iter().enumerate() {
            assert!(remove(&mut m, u, v));
            assert_cores_match_scratch(&m, &format!("after delete #{i}"));
        }
        assert_eq!(m.core(3), 1); // pendant edge 2-3 survives
    }

    #[test]
    fn maintainer_rejects_self_loops_and_duplicates() {
        let mut m = CoreMaintainer::new(3);
        assert!(!insert(&mut m, 1, 1));
        assert!(insert(&mut m, 0, 1));
        assert!(!insert(&mut m, 1, 0), "duplicate in either orientation");
        assert_eq!(m.num_edges(), 1);
        assert!(!remove(&mut m, 0, 2), "absent edge");
        assert!(remove(&mut m, 1, 0));
        assert_eq!(m.num_edges(), 0);
        assert_eq!(m.core_numbers(), &[0, 0, 0]);
    }

    #[test]
    fn maintainer_seeded_from_graph_matches_decomposition() {
        let g = two_triangles_pendant();
        let m = CoreMaintainer::from_graph(&g);
        assert_eq!(
            m.core_numbers(),
            crate::core_decomposition(&g).core_numbers.as_slice()
        );
        assert_eq!(m.num_edges(), g.num_edges());
        assert!(m.has_edge(0, 1) && m.has_edge(1, 0));
        let decomp = m.decomposition();
        assert_eq!(decomp.peel_order, [3, 0, 1, 2, 4, 5, 6], "by (core, id)");
        assert_eq!(decomp.max_core, 2);
    }

    /// Induced edge set of the k-core at level `k`, as a sorted list.
    fn kcore_edges(g: &Graph, k: usize) -> Vec<(VertexId, VertexId)> {
        let mask = crate::kcore_mask(g, k);
        let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
        for u in mask.iter() {
            for &v in g.neighbors(u as VertexId) {
                if (u as VertexId) < v && mask.contains(v as usize) {
                    edges.push((u as VertexId, v));
                }
            }
        }
        edges.sort_unstable();
        edges
    }

    #[test]
    fn journal_noop_updates_touch_nothing() {
        let mut m = CoreMaintainer::from_graph(&two_triangles_pendant());
        let dup = m.apply_recorded(EdgeUpdate::Insert { u: 0, v: 1 });
        assert!(!dup.applied);
        assert!(dup.touched.is_empty() && dup.deltas.is_empty());
        let self_loop = m.apply_recorded(EdgeUpdate::Insert { u: 3, v: 3 });
        assert!(!self_loop.applied);
        let absent = m.apply_recorded(EdgeUpdate::Remove { u: 0, v: 6 });
        assert!(!absent.applied);
        assert!(dup.ceiling().is_none() && self_loop.ceiling().is_none());
        assert!(absent.ceiling().is_none());
    }

    #[test]
    fn journal_deltas_match_state_diff_and_touch_the_endpoints() {
        // Drive a deterministic churn script over a growing graph; at
        // every step the journal must (a) report exactly the vertices
        // whose cores moved, with correct old/new values, (b) include
        // both endpoints and every delta vertex in the touched region,
        // and (c) agree with `apply` about whether the edge set changed.
        let n = 24u32;
        let mut m = CoreMaintainer::new(n as usize);
        let mut rng = 0x9e3779b97f4a7c15u64;
        let mut step = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        for _ in 0..600 {
            let u = (step() % n as u64) as VertexId;
            let v = (step() % n as u64) as VertexId;
            let update = if step() % 3 == 0 {
                EdgeUpdate::Remove { u, v }
            } else {
                EdgeUpdate::Insert { u, v }
            };
            let before = m.core_numbers().to_vec();
            let record = m.apply_recorded(update);
            let after = m.core_numbers();
            let mut expect: Vec<CoreDelta> = before
                .iter()
                .enumerate()
                .filter(|&(w, &old)| old != after[w])
                .map(|(w, &old)| CoreDelta {
                    vertex: w as VertexId,
                    old_core: old,
                    new_core: after[w],
                })
                .collect();
            expect.sort_by_key(|d| d.vertex);
            let mut got = record.deltas.clone();
            got.sort_by_key(|d| d.vertex);
            assert_eq!(got, expect, "journal deltas diverge on {update:?}");
            assert_eq!(record.applied, !expect.is_empty() || record.applied);
            if record.applied {
                let (u, v) = update.endpoints();
                assert!(record.touched.contains(&u) && record.touched.contains(&v));
                for d in &record.deltas {
                    assert!(record.touched.contains(&d.vertex));
                }
                let mut sorted = record.touched.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), record.touched.len(), "touched has duplicates");
                assert_eq!(
                    record.endpoint_cores,
                    (after[u as usize], after[v as usize])
                );
            } else {
                assert!(expect.is_empty());
            }
        }
    }

    #[test]
    fn unaffected_levels_have_identical_kcores() {
        // The contract of `ceiling`: the k-core — vertex set AND induced
        // edge set — changes across the update exactly at the levels up
        // to it.
        let n = 20u32;
        let mut m = CoreMaintainer::new(n as usize);
        let mut rng = 0x2545f4914f6cdd1du64;
        let mut step = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        let mut affected_seen = false;
        let mut unaffected_seen = false;
        for _ in 0..400 {
            let u = (step() % n as u64) as VertexId;
            let v = (step() % n as u64) as VertexId;
            let update = if step() % 3 == 0 {
                EdgeUpdate::Remove { u, v }
            } else {
                EdgeUpdate::Insert { u, v }
            };
            let old_graph = m.to_graph();
            let record = m.apply_recorded(update);
            let new_graph = m.to_graph();
            let ceiling = record.ceiling();
            for k in 0..=m.degeneracy() as usize + 2 {
                let kcore = |g: &Graph| (crate::kcore_mask(g, k).to_vec(), kcore_edges(g, k));
                let changed = kcore(&old_graph) != kcore(&new_graph);
                let below = ceiling.is_some_and(|c| k <= c as usize);
                assert_eq!(changed, below, "level {k}, ceiling {ceiling:?}, {update:?}");
                affected_seen |= changed;
                unaffected_seen |= !changed;
            }
        }
        assert!(
            affected_seen && unaffected_seen,
            "script must exercise both outcomes"
        );
    }

    #[test]
    fn maintainer_handles_clique_growth_and_decay() {
        // Build K5 edge by edge, then remove edges in a different order;
        // every intermediate state must match the from-scratch oracle.
        let n = 5u32;
        let mut m = CoreMaintainer::new(n as usize);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v));
            }
        }
        for &(u, v) in &edges {
            insert(&mut m, u, v);
            assert_cores_match_scratch(&m, &format!("K5 grow {u}-{v}"));
        }
        assert_eq!(m.degeneracy(), 4);
        edges.reverse();
        for &(u, v) in &edges {
            remove(&mut m, u, v);
            assert_cores_match_scratch(&m, &format!("K5 shrink {u}-{v}"));
        }
        assert_eq!(m.degeneracy(), 0);
    }
}
