//! Precomputed **extremum community forests**: index-served top-r for
//! every peel-extremum aggregation.
//!
//! Li et al. (VLDB'15) and Bi et al. (VLDB'18) — the prior work the paper
//! builds on — answer top-r `min` queries from a precomputed structure
//! instead of re-peeling the graph. [`ExtremumIndex`] generalizes that
//! idea to *any* aggregation whose [`Certificates`](crate::Certificates)
//! declare [`peel_extremum`](crate::Certificates::peel_extremum) — `min`
//! and `max` built-ins, plus user-defined functions certified with the
//! same property. One stamped peel pass (`peel_timeline`) plus one
//! reverse union-find pass builds an
//! `O(n + m)`-space **nested community forest** for a `(k, direction)`
//! pair, from which
//!
//! * [`ExtremumIndex::topr`] answers top-r queries in output-sensitive
//!   `O(r + Σ |community|)` time — `Query::solve` routed to
//!   `MinPeel`/`MaxPeel` reads an unmemoized forest the same way — as
//!   the unbudgeted form of the one read, [`ExtremumIndex::read`];
//! * [`ExtremumIndex::minimal_community_of`] returns the smallest
//!   community containing a vertex;
//! * [`ExtremumIndex::chain_of`] lists the full nesting chain of
//!   communities around a vertex (innermost first).
//!
//! Every k-influential community under the peel direction corresponds to
//! exactly one node of the forest; a node's community is the union of the
//! vertex *batches* (extreme vertex + cascade victims) over its subtree.
//! A node whose parent has its value is not a community (Definition 3's
//! maximality: a strict superset has the same value), and every read
//! skips it. The top r are the first r of the rest by
//! [`Community::ranking_cmp`], the one cut every solver makes.
//!
//! The forest is stored flat (structure-of-arrays, `u32` ids and
//! offsets), which is what makes it **persistable**: `ic-store` writes
//! the arrays byte-for-byte into its `ICS1` format and reassembles them
//! through [`ExtremumIndex::from_parts`], whose structural validation
//! makes a corrupt or inconsistent file fail closed instead of serving a
//! silently wrong forest. [`ExtremumIndex::cached`] memoizes a forest on
//! a [`GraphSnapshot`] so the batched engine serves every peel-extremum
//! family from it with one read at the family's largest `r` (under a
//! deadline through [`ExtremumIndex::cached_within`] and the budget of
//! [`ExtremumIndex::read`], which hand back a certified prefix when time
//! runs out); a snapshot swapped in after a graph update inherits only
//! the forests of levels the update left untouched
//! (`GraphSnapshot::successor`), which is exactly the staleness
//! story — stale forests are never consulted, and rebuild lazily per
//! `(k, direction)` on the next query.

use crate::algo::common::{validate_k_r, value_of};
use crate::algo::minmax::{peel_cmp, peel_timeline, rank_cmp, PeelTimeline, NONE};
use crate::{Aggregation, Community, Extremum, SearchError};
use ic_graph::{UnionFind, VertexId, WeightedGraph};
use ic_kcore::{kcore_mask, Budget, GraphSnapshot, PeelArena};
use std::sync::Arc;

const UNBUDGETED: &str = "an unbudgeted peel always completes";

/// Precomputed nested community forest over all k-influential
/// communities of one `(k, peel direction)` pair. See the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct ExtremumIndex {
    k: usize,
    extremum: Extremum,
    num_vertices: usize,
    /// Per node: the community's value (the extreme member weight —
    /// the weight of `event_vertex`).
    values: Vec<f64>,
    /// Per node: the vertex whose removal ended this community. Always
    /// the first entry of the node's batch.
    event_vertex: Vec<VertexId>,
    /// Per node: the next-larger containing community ([`NONE`] at a
    /// forest root).
    parent: Vec<u32>,
    /// Per node: community size (`|batch| + Σ child sizes`).
    size: Vec<u32>,
    /// `batch_offsets[i]..batch_offsets[i+1]` indexes `batch_vertices`.
    batch_offsets: Vec<u32>,
    /// Concatenated removal batches (extreme vertex + cascade victims);
    /// the batches partition the maximal k-core.
    batch_vertices: Vec<VertexId>,
    /// `child_offsets[i]..child_offsets[i+1]` indexes `child_ids`.
    child_offsets: Vec<u32>,
    /// Concatenated child node ids.
    child_ids: Vec<u32>,
    /// All node ids sorted by (value desc, event seq asc): the order a
    /// read visits nodes in; a read cuts the value group at slot `r` by
    /// [`Community::ranking_cmp`], not by event.
    ranked: Vec<u32>,
    /// Per vertex: the node whose batch contains it ([`NONE`] outside
    /// the maximal k-core).
    vertex_node: Vec<u32>,
}

/// Borrowed view of an [`ExtremumIndex`]'s flat arrays — exactly what
/// `ic-store` persists and what [`ExtremumIndex::from_parts`] accepts
/// back (as owned vectors).
#[derive(Clone, Copy, Debug)]
pub struct IndexParts<'a> {
    /// Degree constraint the forest was built for.
    pub k: usize,
    /// Peel direction.
    pub extremum: Extremum,
    /// Vertex count of the graph the forest describes.
    pub num_vertices: usize,
    /// Per-node community values.
    pub values: &'a [f64],
    /// Per-node event vertices.
    pub event_vertex: &'a [VertexId],
    /// Per-node parent links (`u32::MAX` at roots).
    pub parent: &'a [u32],
    /// Per-node community sizes.
    pub size: &'a [u32],
    /// Batch offsets (`len = nodes + 1`).
    pub batch_offsets: &'a [u32],
    /// Concatenated batch vertices.
    pub batch_vertices: &'a [VertexId],
    /// Child offsets (`len = nodes + 1`).
    pub child_offsets: &'a [u32],
    /// Concatenated child ids.
    pub child_ids: &'a [u32],
    /// Rank order (permutation of node ids).
    pub ranked: &'a [u32],
    /// Per-vertex containing node (`u32::MAX` outside the k-core).
    pub vertex_node: &'a [u32],
}

impl ExtremumIndex {
    /// Builds the forest with one peel + one reverse union-find pass.
    pub fn build(wg: &WeightedGraph, k: usize, extremum: Extremum) -> Self {
        let core = kcore_mask(wg.graph(), k).to_vec();
        let arena = &mut PeelArena::for_graph(wg.graph());
        Self::build_from_core(wg, k, extremum, core, None, arena).expect(UNBUDGETED)
    }

    /// [`ExtremumIndex::build`] against a snapshot's memoized core level
    /// (no from-scratch k-core extraction).
    pub fn build_on(snap: &GraphSnapshot, k: usize, extremum: Extremum) -> Self {
        let arena = &mut PeelArena::for_graph(snap.graph());
        Self::build_within(snap, k, extremum, None, arena).expect(UNBUDGETED)
    }

    /// [`build_on`](Self::build_on) on `arena`, with `budget`
    /// checkpointed through the peel; `None` when it expires first.
    fn build_within(
        snap: &GraphSnapshot,
        k: usize,
        extremum: Extremum,
        budget: Option<&Arc<Budget>>,
        arena: &mut PeelArena,
    ) -> Option<Self> {
        let core = snap.level(k).mask.to_vec();
        Self::build_from_core(snap.weighted(), k, extremum, core, budget, arena)
    }

    /// The forest for `(k, extremum)` memoized on `snap`, built on first
    /// use. This is the engine's index-serving entry point: every batch
    /// and every process sharing the snapshot shares one forest, and a
    /// post-update snapshot (new epoch) rebuilds the forests of changed
    /// levels lazily instead of serving stale structure.
    pub fn cached(snap: &GraphSnapshot, k: usize, extremum: Extremum) -> Arc<ExtremumIndex> {
        snap.extension(k, Self::tag(extremum), || Self::build_on(snap, k, extremum))
    }

    /// [`cached`](Self::cached) under an optional deadline: a memoized
    /// forest is returned as it is; otherwise the build checkpoints
    /// `budget` through its peel. A completed build is memoized on `snap`
    /// like any other, so the next query reuses it. An expired one
    /// memoizes nothing and returns `None`: the event ranking is only
    /// proven by the whole peel. A build peels on `arena`, any arena
    /// sized for the graph: the engine passes its job's pooled one, so a
    /// build allocates no arena of its own. The flag says whether this
    /// call built the forest it returns.
    pub fn cached_within(
        snap: &GraphSnapshot,
        k: usize,
        extremum: Extremum,
        budget: Option<&Arc<Budget>>,
        arena: &mut PeelArena,
    ) -> Option<(Arc<ExtremumIndex>, bool)> {
        if budget.is_none() {
            let mut built = false;
            let index = snap.extension(k, Self::tag(extremum), || {
                built = true;
                Self::build_within(snap, k, extremum, None, arena).expect(UNBUDGETED)
            });
            return Some((index, built));
        }
        if let Some(index) = Self::peek(snap, k, extremum) {
            return Some((index, false));
        }
        Self::seed(snap, Self::build_within(snap, k, extremum, budget, arena)?);
        Some((Self::peek(snap, k, extremum)?, true))
    }

    /// The forest for `(k, extremum)` if `snap` already holds it —
    /// seeded from a store or built by an earlier query; never builds,
    /// so never reads the graph.
    pub fn peek(snap: &GraphSnapshot, k: usize, extremum: Extremum) -> Option<Arc<ExtremumIndex>> {
        snap.peek_extension(k, Self::tag(extremum))
    }

    /// Seeds `snap`'s extension cache with a prebuilt forest (e.g. one
    /// loaded from an `ic-store` file). Returns `false` when that
    /// `(k, direction)` slot is already populated.
    ///
    /// # Panics
    /// Panics when the forest describes a different vertex count than
    /// the snapshot's graph.
    pub fn seed(snap: &GraphSnapshot, index: ExtremumIndex) -> bool {
        assert_eq!(
            index.num_vertices,
            snap.weighted().num_vertices(),
            "forest built for a different vertex set"
        );
        let (k, tag) = (index.k, Self::tag(index.extremum));
        snap.seed_extension(k, tag, Arc::new(index))
    }

    /// Every forest memoized on `snap`, in ascending `(k, direction)`
    /// order — the persistence walk of `Engine::persist`.
    pub fn memoized(snap: &GraphSnapshot) -> Vec<Arc<ExtremumIndex>> {
        snap.memoized_extensions::<ExtremumIndex>()
            .into_iter()
            .map(|(_, _, idx)| idx)
            .collect()
    }

    /// Stable extension tag of a peel direction.
    fn tag(extremum: Extremum) -> u8 {
        match extremum {
            Extremum::Min => 0,
            Extremum::Max => 1,
        }
    }

    /// Peels the subgraph induced on `members` — the maximal k-core, or
    /// for [`ExtremumIndex::repair`] a union of whole components of it —
    /// and links the events into a forest. Node id == event sequence
    /// number of the peel. `None` when `budget` expires mid-peel.
    ///
    /// The link is one reverse pass over the peel arena's induced CSR in
    /// local ids: events are re-added last to first, and when event
    /// `seq` comes back a member is present iff its local stamp is
    /// `≥ seq` (`== seq`: in the batch). Each batch vertex claims the
    /// component of every earlier-present neighbour whose root still
    /// carries a claim — that component becomes a child, in the order
    /// the claims happen — and is then unioned with it, so a component
    /// reached twice shows its merged, unclaimed root the second time.
    /// That is the two-phase pass (all claims, then all unions) in one
    /// sweep: a merged root never carries a claim, so no claim is made
    /// twice or in another order.
    fn build_from_core(
        wg: &WeightedGraph,
        k: usize,
        extremum: Extremum,
        members: Vec<VertexId>,
        budget: Option<&Arc<Budget>>,
        arena: &mut PeelArena,
    ) -> Option<Self> {
        let g = wg.graph();
        let n = g.num_vertices();
        let PeelTimeline {
            stamp: vertex_node,
            local_stamp,
            values,
            batch_offsets,
            batch_vertices,
            batch_local,
            ranked,
        } = peel_timeline(wg, k, extremum, members, arena, budget)?;
        let nodes = values.len();
        let (offsets, targets) = arena.induced();

        let mut parent = vec![NONE; nodes];
        let mut size = vec![0u32; nodes];
        let mut child_offsets = vec![0u32; nodes + 1];
        // Children as claimed, one block per event in reverse event order
        // with each block reversed, so one final reversal leaves the
        // blocks in event order and each in claim order.
        let mut child_ids: Vec<u32> = Vec::with_capacity(nodes);
        let mut uf = UnionFind::new(local_stamp.len());
        // Root of a present component -> its latest claiming node.
        let mut root_node = vec![NONE; local_stamp.len()];
        for seq in (0..nodes as u32).rev() {
            let (lo, hi) = (batch_offsets[seq as usize], batch_offsets[seq as usize + 1]);
            let batch = &batch_local[lo as usize..hi as usize];
            let claimed = child_ids.len();
            let mut sz = batch.len() as u32;
            for &l in batch {
                for &t in &targets[offsets[l as usize] as usize..offsets[l as usize + 1] as usize] {
                    let at = local_stamp[t as usize];
                    if at < seq || at == NONE {
                        continue;
                    }
                    if at > seq {
                        let root = uf.find(t) as usize;
                        let c = root_node[root];
                        if c != NONE {
                            root_node[root] = NONE;
                            parent[c as usize] = seq;
                            sz += size[c as usize];
                            child_ids.push(c);
                        }
                    }
                    uf.union(l, t);
                }
            }
            child_ids[claimed..].reverse();
            child_offsets[seq as usize + 1] = (child_ids.len() - claimed) as u32;
            size[seq as usize] = sz;
            root_node[uf.find(batch[0]) as usize] = seq;
        }
        child_ids.reverse();
        for i in 0..nodes {
            child_offsets[i + 1] += child_offsets[i];
        }
        let event_vertex = batch_offsets[..nodes]
            .iter()
            .map(|&at| batch_vertices[at as usize])
            .collect();

        Some(ExtremumIndex {
            k,
            extremum,
            num_vertices: n,
            values,
            event_vertex,
            parent,
            size,
            batch_offsets,
            batch_vertices,
            child_offsets,
            child_ids,
            ranked,
            vertex_node,
        })
    }

    /// Default ceiling on [`ExtremumIndex::repair`]'s re-peeled region,
    /// as a fraction of the new k-core: past this the localized repair
    /// stops paying off against a full rebuild and `repair` declines.
    pub const REPAIR_REGION_LIMIT: f64 = 0.5;

    /// Incrementally repairs this forest after a batch of edge updates,
    /// re-peeling **only** the cascade's touched region and splicing the
    /// result into the untouched remainder. Returns a forest
    /// **bit-identical** to `ExtremumIndex::build(new_wg, k, extremum)`
    /// (property-tested in `tests/store.rs`), or `None` when the repair
    /// is not worthwhile or not provably sound:
    ///
    /// * the touched region spans more than `region_limit` of the new
    ///   k-core (fall back to a full — typically lazy — rebuild);
    /// * the inputs describe a different vertex set than this forest;
    /// * a consistency probe fails (a `touched` set that under-reports
    ///   the cascade would otherwise splice stale structure).
    ///
    /// `new_cores` are the post-update core numbers (the maintainer has
    /// them incrementally); `touched` is the union of the cascade
    /// journal's touched vertices over the applied updates
    /// (`CascadeRecord::touched` — must cover every vertex whose core
    /// number or incident edge set changed, which the journal
    /// guarantees). Weights must be unchanged (the vertex set is fixed;
    /// updates are edge-only).
    ///
    /// **Why splicing is sound.** Old forest components containing no
    /// touched vertex keep their vertex set (no member crossed the
    /// `core ≥ k` threshold — that would be a journaled delta), their
    /// induced edges (a changed edge journals both endpoints), and hence
    /// their connectivity and their entire peel-event subsequence: the
    /// global peel visits vertices in `(weight, id)` order, and events
    /// inside a component depend only on that component's structure and
    /// the relative order of its own vertices. The re-peeled region is
    /// the union of the *complete* new-graph components reachable from
    /// any touched or dirty-component vertex, so everything outside it
    /// is exactly such an untouched component. Merging the two event
    /// lists by peel key reproduces the full rebuild's event sequence —
    /// and therefore its node ids, ranks, and tie-breaks — exactly.
    pub fn repair(
        &self,
        new_wg: &WeightedGraph,
        new_cores: &[u32],
        touched: &[VertexId],
        region_limit: f64,
    ) -> Option<ExtremumIndex> {
        let n = self.num_vertices;
        if new_wg.num_vertices() != n || new_cores.len() != n {
            return None;
        }
        let g = new_wg.graph();
        let k = self.k;
        let in_new_core = |v: usize| new_cores[v] as usize >= k;
        let nodes = self.values.len();

        // Old component roots: `parent[i] < i` by construction (a parent
        // event precedes its children in the reverse pass), so one
        // ascending sweep resolves every node's root.
        let mut comp_root = vec![0u32; nodes];
        for i in 0..nodes {
            comp_root[i] = if self.parent[i] == NONE {
                i as u32
            } else {
                debug_assert!((self.parent[i] as usize) < i);
                comp_root[self.parent[i] as usize]
            };
        }

        // Dirty old components: any component holding a touched vertex
        // must be re-peeled wholesale (a departed member re-shapes the
        // peel of the survivors it left behind).
        let mut dirty = vec![false; nodes];
        for &v in touched {
            if let Some(&node) = self.vertex_node.get(v as usize) {
                if node != NONE {
                    dirty[comp_root[node as usize] as usize] = true;
                }
            }
        }

        // Seed the region: survivors of dirty components plus touched
        // vertices now inside the k-core (entrants), then grow to the
        // complete new-graph components containing any seed.
        let mut region_mask = ic_graph::BitSet::new(n);
        let mut region: Vec<VertexId> = Vec::new();
        let mut queue: std::collections::VecDeque<VertexId> = std::collections::VecDeque::new();
        let seed = |v: VertexId,
                    region_mask: &mut ic_graph::BitSet,
                    region: &mut Vec<VertexId>,
                    queue: &mut std::collections::VecDeque<VertexId>| {
            if in_new_core(v as usize) && !region_mask.contains(v as usize) {
                region_mask.insert(v as usize);
                region.push(v);
                queue.push_back(v);
            }
        };
        for i in 0..nodes {
            if dirty[comp_root[i] as usize] {
                for &v in self.batch(i as u32) {
                    seed(v, &mut region_mask, &mut region, &mut queue);
                }
            }
        }
        for &v in touched {
            if (v as usize) < n {
                seed(v, &mut region_mask, &mut region, &mut queue);
            }
        }
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbors(v) {
                if in_new_core(w as usize) && !region_mask.contains(w as usize) {
                    region_mask.insert(w as usize);
                    region.push(w);
                    queue.push_back(w);
                }
            }
        }

        let core_size = (0..n).filter(|&v| in_new_core(v)).count();
        if (region.len() as f64) > region_limit * core_size as f64 {
            return None;
        }

        // Preserved components: untouched and disjoint from the region
        // (all-or-nothing — an untouched component stays connected, so
        // one member inside the region pulls the whole component in,
        // testable at the root's event vertex).
        let mut preserved = vec![false; nodes];
        for (i, keep) in preserved.iter_mut().enumerate() {
            let r = comp_root[i] as usize;
            *keep = !dirty[r] && !region_mask.contains(self.event_vertex[r] as usize);
        }
        // Consistency probe: a preserved batch vertex must still be in
        // the k-core and outside the region; otherwise `touched` did not
        // cover the cascade and splicing would be unsound.
        for i in preserved
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i))
        {
            for &v in self.batch(i as u32) {
                if !in_new_core(v as usize) || region_mask.contains(v as usize) {
                    debug_assert!(false, "repair fed an under-reporting touched set");
                    return None;
                }
            }
        }

        // Re-peel the region in isolation: `build_from_core` peels the
        // subgraph induced on its `order` argument, which is exactly the
        // region's complete components.
        let arena = &mut PeelArena::for_graph(g);
        let sub =
            Self::build_from_core(new_wg, k, self.extremum, region, None, arena).expect(UNBUDGETED);

        // Merge the preserved and re-peeled event lists by peel key.
        // Both are already in key order (old seq order restricted to a
        // subset, and the sub-build's own seq order), so a two-way merge
        // reproduces the full rebuild's global event sequence.
        let old_events: Vec<u32> = (0..nodes as u32)
            .filter(|&i| preserved[i as usize])
            .collect();
        let sub_events: Vec<u32> = (0..sub.values.len() as u32).collect();
        let total = old_events.len() + sub_events.len();
        // Per-source maps from source node id to merged node id.
        let mut old_map = vec![NONE; nodes];
        let mut sub_map = vec![NONE; sub.values.len()];
        // Merged order as (source, source id): source 0 = preserved old,
        // source 1 = sub.
        let mut merged: Vec<(u8, u32)> = Vec::with_capacity(total);
        let (mut i, mut j) = (0usize, 0usize);
        while i < old_events.len() || j < sub_events.len() {
            let take_old = match (old_events.get(i), sub_events.get(j)) {
                (Some(&a), Some(&b)) => peel_cmp(
                    new_wg,
                    self.extremum,
                    self.event_vertex[a as usize],
                    sub.event_vertex[b as usize],
                )
                .is_lt(),
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_old {
                old_map[old_events[i] as usize] = merged.len() as u32;
                merged.push((0, old_events[i]));
                i += 1;
            } else {
                sub_map[sub_events[j] as usize] = merged.len() as u32;
                merged.push((1, sub_events[j]));
                j += 1;
            }
        }

        // Assemble the merged forest.
        let mut values = Vec::with_capacity(total);
        let mut event_vertex = Vec::with_capacity(total);
        let mut parent = Vec::with_capacity(total);
        let mut size = Vec::with_capacity(total);
        let mut batch_offsets = Vec::with_capacity(total + 1);
        let mut batch_vertices = Vec::new();
        let mut child_offsets = Vec::with_capacity(total + 1);
        let mut child_ids = Vec::new();
        batch_offsets.push(0u32);
        child_offsets.push(0u32);
        for &(source, id) in &merged {
            let (src, map): (&ExtremumIndex, &[u32]) = if source == 0 {
                (self, &old_map)
            } else {
                (&sub, &sub_map)
            };
            values.push(src.values[id as usize]);
            event_vertex.push(src.event_vertex[id as usize]);
            let p = src.parent[id as usize];
            parent.push(if p == NONE { NONE } else { map[p as usize] });
            size.push(src.size[id as usize]);
            batch_vertices.extend_from_slice(src.batch(id));
            batch_offsets.push(batch_vertices.len() as u32);
            for &c in src.children(id) {
                child_ids.push(map[c as usize]);
            }
            child_offsets.push(child_ids.len() as u32);
        }
        let mut vertex_node = vec![NONE; n];
        for (seq, &(source, id)) in merged.iter().enumerate() {
            let src: &ExtremumIndex = if source == 0 { self } else { &sub };
            for &v in src.batch(id) {
                vertex_node[v as usize] = seq as u32;
            }
        }
        // Rank order: both sources are sorted by (value desc, source seq
        // asc) and the maps are monotone, so each remapped list is
        // sorted by (value desc, merged seq asc) — merge them.
        let mut ranked = Vec::with_capacity(total);
        let old_ranked: Vec<u32> = self
            .ranked
            .iter()
            .filter(|&&id| preserved[id as usize])
            .map(|&id| old_map[id as usize])
            .collect();
        let sub_ranked: Vec<u32> = sub.ranked.iter().map(|&id| sub_map[id as usize]).collect();
        let (mut i, mut j) = (0usize, 0usize);
        while i < old_ranked.len() || j < sub_ranked.len() {
            let take_old = match (old_ranked.get(i), sub_ranked.get(j)) {
                (Some(&a), Some(&b)) => rank_cmp(&values, a, b).is_lt(),
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_old {
                ranked.push(old_ranked[i]);
                i += 1;
            } else {
                ranked.push(sub_ranked[j]);
                j += 1;
            }
        }

        let repaired = ExtremumIndex {
            k,
            extremum: self.extremum,
            num_vertices: n,
            values,
            event_vertex,
            parent,
            size,
            batch_offsets,
            batch_vertices,
            child_offsets,
            child_ids,
            ranked,
            vertex_node,
        };
        debug_assert!(
            {
                let p = repaired.parts();
                ExtremumIndex::from_parts(
                    p.k,
                    p.extremum,
                    p.num_vertices,
                    p.values.to_vec(),
                    p.event_vertex.to_vec(),
                    p.parent.to_vec(),
                    p.size.to_vec(),
                    p.batch_offsets.to_vec(),
                    p.batch_vertices.to_vec(),
                    p.child_offsets.to_vec(),
                    p.child_ids.to_vec(),
                    p.ranked.to_vec(),
                    p.vertex_node.to_vec(),
                )
                .is_ok()
            },
            "repaired forest failed structural validation"
        );
        Some(repaired)
    }

    /// The degree constraint this forest was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The peel direction this forest serves.
    pub fn extremum(&self) -> Extremum {
        self.extremum
    }

    /// Vertex count of the graph the forest describes.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of forest nodes: one per community, plus one per peel
    /// event whose component a strict superset of equal value contains.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the k-core is empty (no communities exist).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether this forest answers queries under `aggregation`: the
    /// declared [`peel_extremum`](crate::Certificates::peel_extremum)
    /// certificate must match the forest's direction. User-defined
    /// aggregations certified `peel_extremum` are served exactly like
    /// the built-ins.
    pub fn serves(&self, aggregation: Aggregation) -> bool {
        aggregation.certificates().peel_extremum == Some(self.extremum)
    }

    fn batch(&self, node: u32) -> &[VertexId] {
        let (lo, hi) = (
            self.batch_offsets[node as usize] as usize,
            self.batch_offsets[node as usize + 1] as usize,
        );
        &self.batch_vertices[lo..hi]
    }

    fn children(&self, node: u32) -> &[u32] {
        let (lo, hi) = (
            self.child_offsets[node as usize] as usize,
            self.child_offsets[node as usize + 1] as usize,
        );
        &self.child_ids[lo..hi]
    }

    /// A community holding at least one vertex in `SWEEP_DIVISOR` of the
    /// graph is materialized by [`sweep`](Self::sweep), a smaller one by
    /// [`walk`](Self::walk). The cut-over is measured (DESIGN §11): the
    /// sweep's pass over all `n` vertices costs ≈ 1 ns each, the walk's
    /// gather-and-sort ≈ 20 ns per member, and on both the 10k- and the
    /// 400k-vertex benchmark graphs the two meet between `n / 10` and
    /// `n / 20` (400k, k = 4: 25k members walk in 0.47 ms, sweep in
    /// 0.36 ms; 186k members 4.3 ms against 0.85 ms).
    const SWEEP_DIVISOR: usize = 16;

    fn sweeps(&self, node: u32) -> bool {
        self.size[node as usize] as usize * Self::SWEEP_DIVISOR >= self.num_vertices
    }

    /// How many of the `r` best communities are large enough a share of
    /// the graph for the sweep route; the rest take the walk. A function
    /// of the forest alone — callers cannot choose a route, tests read
    /// this to know which one an answer exercised.
    pub fn swept_in_top(&self, r: usize) -> usize {
        let top = self.top_nodes(r);
        top.into_iter().filter(|&node| self.sweeps(node)).count()
    }

    /// Whether `node` is a community of Definition 3: no strict superset
    /// has its value. Its parent is the next-larger community around it
    /// and values only move against the peel direction outward, so that
    /// is exactly "its parent's value differs".
    fn is_community(&self, node: u32) -> bool {
        let parent = self.parent[node as usize];
        parent == NONE
            || self.values[parent as usize]
                .total_cmp(&self.values[node as usize])
                .is_ne()
    }

    /// The nodes of the `r` best communities: the first `r`, by
    /// [`Community::ranking_cmp`], of the nodes that are communities.
    /// They are read in event rank order; the value group that straddles
    /// slot `r` is read whole and ordered by size, then smallest member
    /// (`ranking_cmp` on disjoint communities of one value), before the
    /// cut. The result is value-descending.
    fn top_nodes(&self, r: usize) -> Vec<u32> {
        let Some(last) = r.checked_sub(1) else {
            return Vec::new();
        };
        let value = |n: u32| self.values[n as usize];
        let mut top: Vec<u32> = Vec::with_capacity(r.min(self.ranked.len()));
        for &node in &self.ranked {
            if top.len() > last && value(node).total_cmp(&value(top[last])).is_ne() {
                break;
            }
            if self.is_community(node) {
                top.push(node);
            }
        }
        if top.len() > r {
            let bar = value(top[last]);
            let lo = top.partition_point(|&n| value(n).total_cmp(&bar).is_ne());
            top[lo..].sort_by_cached_key(|&n| (self.size[n as usize], self.smallest_member(n)));
            top.truncate(r);
        }
        top
    }

    /// The smallest vertex id in `node`'s community.
    fn smallest_member(&self, node: u32) -> VertexId {
        let mut least = VertexId::MAX;
        let mut stack = vec![node];
        while let Some(id) = stack.pop() {
            least = self.batch(id).iter().fold(least, |m, &v| m.min(v));
            stack.extend_from_slice(self.children(id));
        }
        least
    }

    /// The community's vertices, ascending.
    fn materialize(&self, node: u32) -> Vec<VertexId> {
        if self.sweeps(node) {
            self.sweep(node)
        } else {
            self.walk(node)
        }
    }

    /// Output-sensitive route: gather the subtree's batches, then sort.
    fn walk(&self, node: u32) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.size[node as usize] as usize);
        let mut stack = vec![node];
        while let Some(id) = stack.pop() {
            out.extend_from_slice(self.batch(id));
            stack.extend_from_slice(self.children(id));
        }
        out.sort_unstable();
        out
    }

    /// Large-share route: mark the subtree's nodes, then one ascending
    /// pass over `vertex_node` emits the members already sorted — no
    /// sort, sequential reads, `O(n + subtree nodes)`. The pass is
    /// branch-free: every vertex is stored at the output cursor and the
    /// cursor advances only past members ([`NONE`] reads the spare mark
    /// past the last node, which is never set).
    fn sweep(&self, node: u32) -> Vec<VertexId> {
        let nodes = self.values.len();
        let mut in_subtree = vec![false; nodes + 1];
        let mut stack = vec![node];
        while let Some(id) = stack.pop() {
            in_subtree[id as usize] = true;
            stack.extend_from_slice(self.children(id));
        }
        let size = self.size[node as usize] as usize;
        let mut out = vec![0; size + 1];
        let mut len = 0;
        for (v, &owner) in self.vertex_node.iter().enumerate() {
            out[len] = v as VertexId;
            len += usize::from(in_subtree[(owner as usize).min(nodes)]);
        }
        debug_assert_eq!(len, size);
        out.truncate(len);
        out
    }

    fn node_community(&self, wg: &WeightedGraph, node: u32) -> Community {
        // Already canonical (ascending, distinct): no `Community::new`.
        let vertices = self.materialize(node);
        debug_assert!(vertices.windows(2).all(|w| w[0] < w[1]));
        let value = value_of(wg, self.extremum.aggregation(), &vertices);
        Community { vertices, value }
    }

    /// Answers a top-r query in output-sensitive time: the first `r`,
    /// by [`Community::ranking_cmp`], of the communities of Definition 3
    /// (no strict superset of equal value). Reads `wg`'s weights only,
    /// never its adjacency.
    pub fn topr(&self, wg: &WeightedGraph, r: usize) -> Result<Vec<Community>, SearchError> {
        Ok(self.read(wg, r, None)?.0)
    }

    /// [`topr`](Self::topr) under an optional deadline, with `true` when
    /// `budget` cut the read short. The budget is asked before each
    /// materialization; once it has expired the read returns the
    /// communities valued strictly above the first one not yet
    /// materialized. The read is value-descending, so those are exactly
    /// the complete answer's leading value groups, bit for bit — and,
    /// as every top-`r` answer is a prefix of a longer one, the complete
    /// answer of every `r` up to their count. Without any, the list is
    /// empty.
    pub fn read(
        &self,
        wg: &WeightedGraph,
        r: usize,
        budget: Option<&Budget>,
    ) -> Result<(Vec<Community>, bool), SearchError> {
        validate_k_r(r)?;
        Ok(self.read_until(wg, r, || budget.is_some_and(|b| b.check())))
    }

    /// The body of [`read`](Self::read), `expired` asked before each
    /// materialization.
    fn read_until(
        &self,
        wg: &WeightedGraph,
        r: usize,
        mut expired: impl FnMut() -> bool,
    ) -> (Vec<Community>, bool) {
        let top = self.top_nodes(r);
        let mut out = Vec::with_capacity(top.len());
        let mut cut = false;
        for (i, &node) in top.iter().enumerate() {
            ic_fail::fail_point!("core::forest_materialize");
            if expired() {
                let bar = self.values[node as usize];
                let above = |n: &u32| self.values[*n as usize].total_cmp(&bar).is_gt();
                out.truncate(top[..i].partition_point(above));
                cut = true;
                break;
            }
            out.push(self.node_community(wg, node));
        }
        out.sort_by(|a, b| a.ranking_cmp(b));
        (out, cut)
    }

    /// The smallest community containing `v` (None when `v` is outside
    /// the maximal k-core).
    pub fn minimal_community_of(&self, wg: &WeightedGraph, v: VertexId) -> Option<Community> {
        let mut node = *self.vertex_node.get(v as usize)?;
        if node == NONE {
            return None;
        }
        while !self.is_community(node) {
            node = self.parent[node as usize];
        }
        Some(self.node_community(wg, node))
    }

    /// The nesting chain of communities containing `v`, innermost first,
    /// as `(value, size)` pairs — each step is a strictly larger
    /// community whose value moves against the peel direction (smaller
    /// for `min`, larger for `max`).
    pub fn chain_of(&self, v: VertexId) -> Vec<(f64, usize)> {
        let mut out = Vec::new();
        let mut cur = self.vertex_node.get(v as usize).copied().unwrap_or(NONE);
        while cur != NONE {
            if self.is_community(cur) {
                out.push((self.values[cur as usize], self.size[cur as usize] as usize));
            }
            cur = self.parent[cur as usize];
        }
        out
    }

    /// Borrowed view of the flat arrays for persistence (`ic-store`).
    pub fn parts(&self) -> IndexParts<'_> {
        IndexParts {
            k: self.k,
            extremum: self.extremum,
            num_vertices: self.num_vertices,
            values: &self.values,
            event_vertex: &self.event_vertex,
            parent: &self.parent,
            size: &self.size,
            batch_offsets: &self.batch_offsets,
            batch_vertices: &self.batch_vertices,
            child_offsets: &self.child_offsets,
            child_ids: &self.child_ids,
            ranked: &self.ranked,
            vertex_node: &self.vertex_node,
        }
    }

    /// Reassembles a forest from persisted arrays, validating every
    /// structural invariant so a corrupt or inconsistent file **fails
    /// closed** with a description instead of producing a forest that
    /// serves silently wrong answers: array arities, monotone offsets,
    /// in-bounds ids, batch/vertex partition consistency, parent/child
    /// mutuality, size sums, finite values, and the `(value desc, seq
    /// asc)` rank order are all checked in `O(n + forest)` time.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        k: usize,
        extremum: Extremum,
        num_vertices: usize,
        values: Vec<f64>,
        event_vertex: Vec<VertexId>,
        parent: Vec<u32>,
        size: Vec<u32>,
        batch_offsets: Vec<u32>,
        batch_vertices: Vec<VertexId>,
        child_offsets: Vec<u32>,
        child_ids: Vec<u32>,
        ranked: Vec<u32>,
        vertex_node: Vec<u32>,
    ) -> Result<Self, String> {
        let nodes = values.len();
        let arity_ok = event_vertex.len() == nodes
            && parent.len() == nodes
            && size.len() == nodes
            && ranked.len() == nodes
            && batch_offsets.len() == nodes + 1
            && child_offsets.len() == nodes + 1
            && vertex_node.len() == num_vertices;
        if !arity_ok {
            return Err(format!(
                "forest array arity mismatch ({} nodes, {} vertices declared)",
                nodes, num_vertices
            ));
        }
        let offsets_ok = |offsets: &[u32], total: usize, what: &str| -> Result<(), String> {
            if offsets.first() != Some(&0) {
                return Err(format!("{what} offsets do not start at 0"));
            }
            if offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("{what} offsets decrease"));
            }
            if *offsets.last().expect("nodes + 1 >= 1") as usize != total {
                return Err(format!("{what} offsets do not cover the value array"));
            }
            Ok(())
        };
        offsets_ok(&batch_offsets, batch_vertices.len(), "batch")?;
        offsets_ok(&child_offsets, child_ids.len(), "child")?;
        if batch_vertices.iter().any(|&v| v as usize >= num_vertices) {
            return Err("batch vertex out of bounds".into());
        }
        let mut claimed = vec![false; num_vertices];
        for &v in &batch_vertices {
            if std::mem::replace(&mut claimed[v as usize], true) {
                return Err(format!("vertex {v} appears in two batches"));
            }
        }
        let mut child_seen = vec![false; nodes];
        for i in 0..nodes {
            if !values[i].is_finite() {
                return Err(format!("non-finite forest value at node {i}"));
            }
            let (blo, bhi) = (batch_offsets[i] as usize, batch_offsets[i + 1] as usize);
            if blo == bhi {
                return Err(format!("empty batch at node {i}"));
            }
            if batch_vertices[blo] != event_vertex[i] {
                return Err(format!("node {i} batch does not start at its event vertex"));
            }
            if parent[i] != NONE && parent[i] as usize >= nodes {
                return Err(format!("parent of node {i} out of bounds"));
            }
            let mut sz = (bhi - blo) as u64;
            for &c in &child_ids[child_offsets[i] as usize..child_offsets[i + 1] as usize] {
                if c as usize >= nodes {
                    return Err(format!("child of node {i} out of bounds"));
                }
                if std::mem::replace(&mut child_seen[c as usize], true) {
                    return Err(format!("node {c} is a child of two parents"));
                }
                if parent[c as usize] != i as u32 {
                    return Err(format!("child {c} does not point back to parent {i}"));
                }
                sz += size[c as usize] as u64;
            }
            if sz != size[i] as u64 {
                return Err(format!("size of node {i} does not match its subtree"));
            }
        }
        for (i, &p) in parent.iter().enumerate() {
            if p != NONE && !child_seen[i] {
                return Err(format!("node {i} has a parent but is nobody's child"));
            }
        }
        let mut rank_seen = vec![false; nodes];
        for &id in &ranked {
            if id as usize >= nodes || std::mem::replace(&mut rank_seen[id as usize], true) {
                return Err("rank order is not a permutation of the nodes".into());
            }
        }
        if ranked
            .windows(2)
            .any(|w| rank_cmp(&values, w[0], w[1]).is_gt())
        {
            return Err("rank order violates (value desc, seq asc)".into());
        }
        // vertex_node ↔ batch agreement in O(n): every batched vertex
        // must map to exactly its batch's node, and every unbatched
        // vertex to NONE (batches were already proven disjoint above).
        for i in 0..nodes {
            for &v in &batch_vertices[batch_offsets[i] as usize..batch_offsets[i + 1] as usize] {
                if vertex_node[v as usize] != i as u32 {
                    return Err(format!(
                        "vertex {v} does not map back to its batch node {i}"
                    ));
                }
            }
        }
        for (v, &node) in vertex_node.iter().enumerate() {
            if node == NONE {
                if claimed[v] {
                    return Err(format!("vertex {v} is batched but marked outside the core"));
                }
            } else if !claimed[v] {
                return Err(format!("vertex {v} maps to a node but is in no batch"));
            }
        }
        Ok(ExtremumIndex {
            k,
            extremum,
            num_vertices,
            values,
            event_vertex,
            parent,
            size,
            batch_offsets,
            batch_vertices,
            child_offsets,
            child_ids,
            ranked,
            vertex_node,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::oracle::{max_topr, min_topr};
    use crate::figure1::figure1;
    use ic_graph::graph_from_edges;

    #[test]
    fn index_topr_matches_online_min_on_figure1() {
        let wg = figure1();
        let idx = ExtremumIndex::build(&wg, 2, Extremum::Min);
        for r in [1usize, 2, 3, 5, 10] {
            let from_index = idx.topr(&wg, r).unwrap();
            let from_scratch = min_topr(&wg, 2, r).unwrap();
            assert_eq!(from_index, from_scratch, "r = {r}");
        }
    }

    #[test]
    fn max_index_matches_online_max() {
        let wg = figure1();
        let idx = ExtremumIndex::build(&wg, 2, Extremum::Max);
        for r in [1usize, 2, 3, 5, 10] {
            assert_eq!(
                idx.topr(&wg, r).unwrap(),
                max_topr(&wg, 2, r).unwrap(),
                "r = {r}"
            );
        }
    }

    #[test]
    fn both_directions_match_the_peel_under_value_ties() {
        // Two equal-weight triangles: events tie on value, and the read
        // must cut the group exactly as the from-scratch oracle does.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let wg = ic_graph::WeightedGraph::new(g, vec![3.0; 6]).unwrap();
        for r in [1usize, 2, 5] {
            let min_idx = ExtremumIndex::build(&wg, 2, Extremum::Min);
            assert_eq!(
                min_idx.topr(&wg, r).unwrap(),
                min_topr(&wg, 2, r).unwrap(),
                "min r = {r}"
            );
            let max_idx = ExtremumIndex::build(&wg, 2, Extremum::Max);
            assert_eq!(
                max_idx.topr(&wg, r).unwrap(),
                max_topr(&wg, 2, r).unwrap(),
                "max r = {r}"
            );
        }
    }

    #[test]
    fn both_materialization_routes_emit_the_same_members() {
        // Every node through both routes, whichever `materialize` picks.
        let tied = graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let tied = ic_graph::WeightedGraph::new(tied, vec![3.0; 6]).unwrap();
        for wg in [figure1(), tied] {
            for extremum in [Extremum::Min, Extremum::Max] {
                let idx = ExtremumIndex::build(&wg, 2, extremum);
                for node in 0..idx.len() as u32 {
                    let walked = idx.walk(node);
                    assert_eq!(walked.len(), idx.size[node as usize] as usize);
                    assert!(walked.windows(2).all(|w| w[0] < w[1]));
                    assert_eq!(idx.sweep(node), walked, "{extremum:?} node {node}");
                }
            }
        }
    }

    #[test]
    fn route_is_chosen_from_the_share_of_the_graph() {
        // Figure 1's 2-core is the whole 11-vertex graph: every community
        // is a large share. The same graph among 400 isolated vertices
        // has the same communities, all of them a small share.
        let wg = figure1();
        let idx = ExtremumIndex::build(&wg, 2, Extremum::Min);
        assert_eq!(idx.swept_in_top(idx.len()), idx.len());
        let edges: Vec<(u32, u32)> = wg.graph().edges().collect();
        let mut weights = wg.weights().to_vec();
        weights.resize(411, 1.0);
        let sparse = ic_graph::WeightedGraph::new(graph_from_edges(411, &edges), weights).unwrap();
        let sparse_idx = ExtremumIndex::build(&sparse, 2, Extremum::Min);
        assert_eq!(sparse_idx.swept_in_top(sparse_idx.len()), 0);
        assert_eq!(
            sparse_idx.topr(&sparse, 100).unwrap(),
            idx.topr(&wg, 100).unwrap()
        );
    }

    #[test]
    fn every_r_is_a_prefix_of_the_longest_read() {
        // Tied triangles: every r is a prefix of one list cut by
        // `ranking_cmp` — what lets the engine slice a whole family out
        // of one read — oversized rs included.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let tied = ic_graph::WeightedGraph::new(g, vec![3.0; 6]).unwrap();
        for wg in [figure1(), tied] {
            for extremum in [Extremum::Min, Extremum::Max] {
                let idx = ExtremumIndex::build(&wg, 2, extremum);
                let longest = idx.topr(&wg, 100).unwrap();
                for r in [1usize, 2, 3, 100] {
                    let want = &longest[..r.min(longest.len())];
                    assert_eq!(idx.topr(&wg, r).unwrap(), want, "{extremum:?} r = {r}");
                }
                assert!(idx.read(&wg, 0, None).is_err());
            }
        }
    }

    /// Figure 1, two equal-weight triangles, and a random graph on
    /// {1, 2, 3} weights, whose value groups nest.
    fn tie_graphs() -> [ic_graph::WeightedGraph; 3] {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let tied = ic_graph::WeightedGraph::new(g, vec![3.0; 6]).unwrap();
        let g = ic_gen::gnm(40, 110, ic_gen::GraphSeed(3));
        let weights = (0..40).map(|v| (1 + v % 3) as f64).collect();
        let grouped = ic_graph::WeightedGraph::new(g, weights).unwrap();
        [figure1(), tied, grouped]
    }

    #[test]
    fn budgeted_read_equals_the_answer_for_every_r() {
        let generous = Budget::within(std::time::Duration::from_secs(3600));
        for wg in tie_graphs() {
            for (extremum, oracle) in [
                (
                    Extremum::Min,
                    min_topr as fn(&WeightedGraph, usize, usize) -> _,
                ),
                (Extremum::Max, max_topr),
            ] {
                let idx = ExtremumIndex::build(&wg, 2, extremum);
                for r in [1usize, 2, 4, 7, 100] {
                    let want = oracle(&wg, 2, r).unwrap();
                    let got = idx.read(&wg, r, Some(&generous)).unwrap();
                    assert_eq!(got, (want, false), "{extremum:?} r = {r}");
                }
            }
        }
        let path =
            ic_graph::WeightedGraph::new(graph_from_edges(3, &[(0, 1), (1, 2)]), vec![1.0; 3]);
        let path = path.unwrap();
        let empty = ExtremumIndex::build(&path, 2, Extremum::Min);
        assert_eq!(
            empty.read(&path, 3, Some(&generous)).unwrap(),
            (vec![], false)
        );
    }

    #[test]
    fn a_cut_read_keeps_exactly_the_leading_value_groups() {
        // The read stops before the `cut`-th materialization; what it
        // keeps must be the complete answer's prefix up to a value-group
        // boundary, and every group valued above the first community it
        // never read.
        for wg in tie_graphs() {
            for extremum in [Extremum::Min, Extremum::Max] {
                let idx = ExtremumIndex::build(&wg, 2, extremum);
                let nodes = idx.top_nodes(idx.len());
                let full = idx.topr(&wg, idx.len()).unwrap();
                for cut in 0..=nodes.len() {
                    let mut asked = 0;
                    let expired = || {
                        asked += 1;
                        asked > cut
                    };
                    let (top, was_cut) = idx.read_until(&wg, idx.len(), expired);
                    assert_eq!(was_cut, cut < nodes.len(), "{extremum:?} cut {cut}");
                    assert_eq!(top[..], full[..top.len()], "{extremum:?} cut {cut}");
                    let proven = match nodes.get(cut) {
                        Some(&next) => {
                            let bar = idx.values[next as usize];
                            full.iter().filter(|c| c.value > bar).count()
                        }
                        None => full.len(),
                    };
                    assert_eq!(top.len(), proven, "{extremum:?} cut {cut}");
                }
            }
        }
    }

    #[test]
    fn a_budgeted_build_is_memoized_only_when_it_completes() {
        use std::time::Duration;
        let wg = figure1();
        let snap = GraphSnapshot::new(wg.clone());
        let arena = &mut PeelArena::for_graph(snap.graph());
        let expired = Arc::new(Budget::within(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        assert!(expired.check());
        assert!(
            ExtremumIndex::cached_within(&snap, 2, Extremum::Min, Some(&expired), arena).is_none()
        );
        assert!(
            ExtremumIndex::peek(&snap, 2, Extremum::Min).is_none(),
            "an expired build memoizes nothing"
        );
        let generous = Arc::new(Budget::within(Duration::from_secs(3600)));
        let (built, fresh) =
            ExtremumIndex::cached_within(&snap, 2, Extremum::Min, Some(&generous), arena)
                .expect("a generous budget completes the build");
        assert!(fresh, "this call built it");
        assert_eq!(*built, ExtremumIndex::build(&wg, 2, Extremum::Min));
        let memoized = ExtremumIndex::peek(&snap, 2, Extremum::Min);
        assert!(Arc::ptr_eq(&memoized.expect("seeded"), &built));
        // A memoized forest costs no build, so even an expired budget
        // gets it (its read is what sees the deadline).
        for budget in [Some(&expired), None] {
            let again = ExtremumIndex::cached_within(&snap, 2, Extremum::Min, budget, arena);
            let (again, fresh) = again.expect("memoized");
            assert!(Arc::ptr_eq(&again, &built) && !fresh);
        }
        let (_, fresh) =
            ExtremumIndex::cached_within(&snap, 3, Extremum::Max, None, arena).unwrap();
        assert!(fresh, "an unbudgeted first use builds");
        assert_eq!(built.read(&wg, 3, Some(&*expired)).unwrap(), (vec![], true));
    }

    #[test]
    fn build_on_matches_build_and_caches_per_snapshot() {
        let wg = figure1();
        let snap = GraphSnapshot::new(wg.clone());
        let direct = ExtremumIndex::build(&wg, 2, Extremum::Min);
        let on_snap = ExtremumIndex::build_on(&snap, 2, Extremum::Min);
        assert_eq!(direct, on_snap);
        let a = ExtremumIndex::cached(&snap, 2, Extremum::Min);
        let b = ExtremumIndex::cached(&snap, 2, Extremum::Min);
        assert!(Arc::ptr_eq(&a, &b), "forest must be memoized");
        assert_eq!(*a, direct);
        // The two directions occupy distinct slots.
        let m = ExtremumIndex::cached(&snap, 2, Extremum::Max);
        assert_eq!(m.extremum(), Extremum::Max);
    }

    #[test]
    fn serves_reads_the_peel_certificate() {
        let wg = figure1();
        let idx = ExtremumIndex::build(&wg, 2, Extremum::Min);
        assert!(idx.serves(Aggregation::Min));
        assert!(!idx.serves(Aggregation::Max));
        assert!(!idx.serves(Aggregation::Sum));
        let max_idx = ExtremumIndex::build(&wg, 2, Extremum::Max);
        assert!(max_idx.serves(Aggregation::Max));
        assert!(!max_idx.serves(Aggregation::Min));
    }

    #[test]
    fn parts_round_trip_is_lossless() {
        let wg = figure1();
        for extremum in [Extremum::Min, Extremum::Max] {
            let idx = ExtremumIndex::build(&wg, 2, extremum);
            let p = idx.parts();
            let back = ExtremumIndex::from_parts(
                p.k,
                p.extremum,
                p.num_vertices,
                p.values.to_vec(),
                p.event_vertex.to_vec(),
                p.parent.to_vec(),
                p.size.to_vec(),
                p.batch_offsets.to_vec(),
                p.batch_vertices.to_vec(),
                p.child_offsets.to_vec(),
                p.child_ids.to_vec(),
                p.ranked.to_vec(),
                p.vertex_node.to_vec(),
            )
            .unwrap();
            assert_eq!(back, idx);
        }
    }

    type Mutator<'m> = &'m dyn Fn(&mut Vec<f64>, &mut Vec<u32>, &mut Vec<u32>);

    #[test]
    fn from_parts_rejects_inconsistent_arrays() {
        let wg = figure1();
        let idx = ExtremumIndex::build(&wg, 2, Extremum::Min);
        let p = idx.parts();
        let rebuild = |mutate: Mutator<'_>| {
            let mut values = p.values.to_vec();
            let mut ranked = p.ranked.to_vec();
            let mut size = p.size.to_vec();
            mutate(&mut values, &mut ranked, &mut size);
            ExtremumIndex::from_parts(
                p.k,
                p.extremum,
                p.num_vertices,
                values,
                p.event_vertex.to_vec(),
                p.parent.to_vec(),
                size,
                p.batch_offsets.to_vec(),
                p.batch_vertices.to_vec(),
                p.child_offsets.to_vec(),
                p.child_ids.to_vec(),
                ranked,
                p.vertex_node.to_vec(),
            )
        };
        // Arity mismatch.
        assert!(rebuild(&|values, _, _| {
            values.pop();
        })
        .is_err());
        // Non-finite value.
        assert!(rebuild(&|values, _, _| values[0] = f64::NAN).is_err());
        // Rank order not a permutation.
        assert!(rebuild(&|_, ranked, _| ranked[0] = ranked[1]).is_err());
        // Size inconsistent with the subtree.
        assert!(rebuild(&|_, _, size| size[0] += 1).is_err());
        // Rank order violating (value desc, seq asc).
        assert!(rebuild(&|_, ranked, _| ranked.reverse()).is_err());
    }

    #[test]
    fn repair_matches_full_rebuild_after_updates() {
        use ic_kcore::{CoreMaintainer, EdgeUpdate};
        let wg = figure1();
        // One removed edge, one inserted edge (first absent pair found).
        let (ru, rv) = wg.graph().edges().next().unwrap();
        let (mut iu, mut iv) = (0u32, 0u32);
        'outer: for u in 0..wg.num_vertices() as u32 {
            for v in (u + 1)..wg.num_vertices() as u32 {
                if !wg.graph().neighbors(u).contains(&v) {
                    (iu, iv) = (u, v);
                    break 'outer;
                }
            }
        }
        for extremum in [Extremum::Min, Extremum::Max] {
            let idx = ExtremumIndex::build(&wg, 2, extremum);
            let mut m = CoreMaintainer::from_graph(wg.graph());
            let mut touched = Vec::new();
            for update in [
                EdgeUpdate::Remove { u: ru, v: rv },
                EdgeUpdate::Insert { u: iu, v: iv },
            ] {
                touched.extend(m.apply_recorded(update).touched);
            }
            let new_wg = ic_graph::WeightedGraph::new(m.to_graph(), wg.weights().to_vec()).unwrap();
            let repaired = idx
                .repair(&new_wg, m.core_numbers(), &touched, 1.0)
                .expect("limit 1.0 always repairs");
            assert_eq!(repaired, ExtremumIndex::build(&new_wg, 2, extremum));
        }
    }

    #[test]
    fn repair_declines_oversized_regions_and_foreign_graphs() {
        use ic_kcore::{CoreMaintainer, EdgeUpdate};
        let wg = figure1();
        let idx = ExtremumIndex::build(&wg, 2, Extremum::Min);
        let (u, v) = wg.graph().edges().next().unwrap();
        let mut m = CoreMaintainer::from_graph(wg.graph());
        let touched = m.apply_recorded(EdgeUpdate::Remove { u, v }).touched;
        let new_wg = ic_graph::WeightedGraph::new(m.to_graph(), wg.weights().to_vec()).unwrap();
        // A zero limit refuses any non-empty region.
        assert!(idx
            .repair(&new_wg, m.core_numbers(), &touched, 0.0)
            .is_none());
        // A forest for a different vertex count is rejected outright.
        let small = ic_graph::WeightedGraph::unit_weights(graph_from_edges(3, &[(0, 1), (1, 2)]));
        assert!(idx.repair(&small, &[1, 1, 1], &touched, 1.0).is_none());
    }

    #[test]
    fn index_counts_all_communities() {
        // K4 with distinct weights has exactly 2 maximal min communities.
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let wg = ic_graph::WeightedGraph::new(g, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let idx = ExtremumIndex::build(&wg, 2, Extremum::Min);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.k(), 2);
    }

    #[test]
    fn minimal_community_and_chain() {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let wg = ic_graph::WeightedGraph::new(g, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let idx = ExtremumIndex::build(&wg, 2, Extremum::Min);
        // Vertex 3 (weight 4) lives innermost in {1,2,3}, then {0,1,2,3}.
        let minimal = idx.minimal_community_of(&wg, 3).unwrap();
        assert_eq!(minimal.vertices, vec![1, 2, 3]);
        assert_eq!(minimal.value, 2.0);
        let chain = idx.chain_of(3);
        assert_eq!(chain, vec![(2.0, 3), (1.0, 4)]);
        // Vertex 0 (weight 1) only belongs to the outer community.
        let minimal = idx.minimal_community_of(&wg, 0).unwrap();
        assert_eq!(minimal.vertices, vec![0, 1, 2, 3]);
        assert_eq!(idx.chain_of(0), vec![(1.0, 4)]);
    }

    const K4: [(u32, u32); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];

    #[test]
    fn a_value_tie_at_the_cut_is_decided_by_ranking_cmp() {
        // K4 {0..3} and a triangle {4, 5, 6}, every weight 1: the peel
        // meets the K4 first, but the smaller triangle ranks first; the
        // K4's second event witnesses {1, 2, 3}, which is no community.
        // The forest and the from-scratch oracle both cut like
        // Definition 3.
        let edges = [&K4[..], &[(4, 5), (5, 6), (6, 4)]].concat();
        let wg = ic_graph::WeightedGraph::new(graph_from_edges(7, &edges), vec![1.0; 7]).unwrap();
        for (extremum, oracle) in [
            (
                Extremum::Min,
                min_topr as fn(&WeightedGraph, usize, usize) -> _,
            ),
            (Extremum::Max, max_topr),
        ] {
            let idx = ExtremumIndex::build(&wg, 2, extremum);
            for r in 1..=3 {
                let want = crate::algo::exact_topr(&wg, 2, r, None, extremum.aggregation());
                let want = want.unwrap();
                assert_eq!(
                    idx.topr(&wg, r).unwrap(),
                    want,
                    "{extremum:?} forest r = {r}"
                );
                assert_eq!(
                    oracle(&wg, 2, r).unwrap(),
                    want,
                    "{extremum:?} oracle r = {r}"
                );
            }
            assert_eq!(idx.topr(&wg, 1).unwrap()[0].vertices, vec![4, 5, 6]);
        }
    }

    #[test]
    fn nested_equal_nodes_are_not_communities() {
        // K4, every weight 1: the peel's second event witnesses {1, 2, 3},
        // whose superset {0, 1, 2, 3} has the same value — Definition 3
        // has one community here, and every read sees only it.
        let wg = ic_graph::WeightedGraph::new(graph_from_edges(4, &K4), vec![1.0; 4]).unwrap();
        for extremum in [Extremum::Min, Extremum::Max] {
            let idx = ExtremumIndex::build(&wg, 2, extremum);
            assert!(idx.len() > 1, "the forest keeps the nested event");
            let whole = Community::new(vec![0, 1, 2, 3], 1.0);
            assert_eq!(idx.topr(&wg, 5).unwrap(), std::slice::from_ref(&whole));
            assert_eq!(idx.swept_in_top(5), 1);
            for v in 0..4 {
                assert_eq!(idx.minimal_community_of(&wg, v).unwrap(), whole);
                assert_eq!(idx.chain_of(v), [(1.0, 4)]);
            }
        }
    }

    #[test]
    fn vertices_outside_core_have_no_community() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let wg = ic_graph::WeightedGraph::new(g, vec![1.0; 4]).unwrap();
        let idx = ExtremumIndex::build(&wg, 2, Extremum::Min);
        assert!(idx.minimal_community_of(&wg, 3).is_none());
        assert!(idx.chain_of(3).is_empty());
    }

    #[test]
    fn empty_core_gives_empty_index() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let wg = ic_graph::WeightedGraph::new(g, vec![1.0; 3]).unwrap();
        let idx = ExtremumIndex::build(&wg, 2, Extremum::Min);
        assert!(idx.is_empty());
        assert!(idx.topr(&wg, 3).unwrap().is_empty());
    }

    #[test]
    fn chains_are_properly_nested() {
        let wg = figure1();
        let idx = ExtremumIndex::build(&wg, 2, Extremum::Min);
        for v in 0..11u32 {
            let chain = idx.chain_of(v);
            // Sizes strictly increase, values strictly fall along the chain.
            for w in chain.windows(2) {
                assert!(w[0].1 < w[1].1, "sizes must grow: {chain:?}");
                assert!(w[0].0 > w[1].0, "values must fall: {chain:?}");
            }
        }
        // Max direction: values strictly grow outward.
        let idx = ExtremumIndex::build(&wg, 2, Extremum::Max);
        for v in 0..11u32 {
            let chain = idx.chain_of(v);
            for w in chain.windows(2) {
                assert!(w[0].1 < w[1].1, "sizes must grow: {chain:?}");
                assert!(w[0].0 < w[1].0, "values must grow: {chain:?}");
            }
        }
    }

    #[test]
    fn batches_partition_the_core() {
        let wg = figure1();
        let idx = ExtremumIndex::build(&wg, 2, Extremum::Min);
        let mut seen = std::collections::HashSet::new();
        for v in &idx.batch_vertices {
            assert!(seen.insert(*v), "vertex {v} in two batches");
        }
        assert_eq!(seen.len(), 11); // figure 1's 2-core is the whole graph
    }

    #[test]
    fn rejects_r_zero() {
        let wg = figure1();
        let idx = ExtremumIndex::build(&wg, 2, Extremum::Min);
        assert!(idx.topr(&wg, 0).is_err());
    }
}
