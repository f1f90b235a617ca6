//! Shared pieces of the arena-based Corollary-2 solvers (`sum_naive`,
//! `tic_improved`): value and set-key helpers, and the one
//! child-expansion step, [`expand_children`], which decides each child
//! of a deletion before building it — on a bound, then on its exact
//! value — and takes the components a cascade leaves from the arena's
//! boundary-seeded split, so a child that is dropped or already
//! explored costs what the cascade cut off, not the parent.

use crate::{Aggregation, Community, SearchError};
use ic_graph::{VertexId, WeightedGraph};
use ic_kcore::{ArenaImage, PeelArena, Piece};
use std::sync::OnceLock;

/// Builds a [`Community`] from a vertex list, evaluating its influence
/// value under `aggregation`.
pub(crate) fn community_from_vertices(
    wg: &WeightedGraph,
    aggregation: Aggregation,
    vertices: Vec<VertexId>,
) -> Community {
    let value = value_of(wg, aggregation, &vertices);
    Community::new(vertices, value)
}

/// The influence value of a vertex set under `aggregation`, evaluated
/// over the members' weights in the order given.
pub(crate) fn value_of(wg: &WeightedGraph, aggregation: Aggregation, vertices: &[VertexId]) -> f64 {
    let weights: Vec<f64> = vertices.iter().map(|&v| wg.weight(v)).collect();
    aggregation.evaluate(&weights, wg.total_weight())
}

/// Converts connected k-core components into valued communities.
pub(crate) fn components_as_communities(
    wg: &WeightedGraph,
    aggregation: Aggregation,
    components: Vec<Vec<VertexId>>,
) -> Vec<Community> {
    components
        .into_iter()
        .map(|c| community_from_vertices(wg, aggregation, c))
        .collect()
}

/// Shared parameter validation for every solver.
pub(crate) fn validate_k_r(r: usize) -> Result<(), SearchError> {
    if r == 0 {
        return Err(SearchError::InvalidParams(
            "result count r must be positive".into(),
        ));
    }
    Ok(())
}

/// Ensures the aggregation declares the removal-decreasing certificate
/// (Corollary 2, required by Algorithms 1 and 2).
pub(crate) fn require_removal_decreasing(
    algorithm: &'static str,
    aggregation: Aggregation,
) -> Result<(), SearchError> {
    if aggregation.certificates().removal_decreasing {
        Ok(())
    } else {
        Err(SearchError::UnsupportedAggregation {
            algorithm,
            aggregation,
            reason: "requires the removal-decreasing certificate (Corollary 2: the influence \
                     value strictly decreases when vertices are removed); use local_search or \
                     exact_topr instead",
        })
    }
}

pub(crate) use require_removal_decreasing as require_corollary2;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-vertex mix for the order-independent set key. Exposed separately
/// so callers can maintain the running sum incrementally (subtracting a
/// deleted vertex's mix instead of re-hashing the whole set).
pub(crate) fn vertex_mix(v: VertexId) -> u64 {
    splitmix64(v as u64)
}

/// Sum of per-vertex mixes over a set (commutative, subtractable).
pub(crate) fn vertex_mix_sum(vertices: &[VertexId]) -> u64 {
    vertices
        .iter()
        .fold(0u64, |acc, &v| acc.wrapping_add(vertex_mix(v)))
}

/// Finalizes a mix sum + size into the set key.
pub(crate) fn finalize_set_key(mix_sum: u64, len: usize) -> u64 {
    splitmix64(mix_sum ^ (len as u64).wrapping_mul(0xff51_afd7_ed55_8ccd))
}

/// Order-independent 64-bit key of a vertex set: the wrapping sum of a
/// per-vertex mix, finalized with the set size. Lets the arena-based
/// solvers deduplicate children straight off the unsorted BFS component
/// buffer — no sort, no materialization — at the same (negligible)
/// collision risk the seed already accepted for its sorted-list FNV
/// signatures.
pub(crate) fn vertex_set_key(vertices: &[VertexId]) -> u64 {
    finalize_set_key(vertex_mix_sum(vertices), vertices.len())
}

/// Work counts of the child-expansion step of Algorithms 1 and 2, summed
/// over a run (see [`crate::algo::TicSearch::work`]). They depend only
/// on the graph and the query, so a test can gate on them without a
/// stopwatch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExpansionCounts {
    /// Journaled cascade deletions performed.
    pub deletions: u64,
    /// Children dropped on the stage-A bound (for a cascade dropped
    /// before its components were enumerated: one per deletion).
    pub skipped_by_bound: u64,
    /// Children whose exact value was computed and fell below the
    /// keep-rule, so no `Community` was allocated.
    pub skipped_by_value: u64,
    /// Children allocated and handed to the caller.
    pub materialized: u64,
    /// Parents loaded into the arena from the graph. A parent copied
    /// from its snapshot level's root image is not a load.
    pub loads: u64,
    /// Component splits run ([`ic_kcore::PeelArena::split`]).
    pub splits: u64,
    /// Vertices the component splits expanded ([`ic_kcore::Split::walked`]).
    pub walked: u64,
    /// Live vertices at those splits: what walking every component
    /// whole would have visited.
    pub walk_span: u64,
    /// Splits the arena's one-piece certificate settled without a walk
    /// ([`ic_kcore::Split::certified`]); each adds 0 to `walked`.
    pub certified: u64,
}

/// What a child must reach to be built. `sum_naive` keeps everything
/// ([`KeepRule::ALL`] — it is Algorithm 1); `tic_improved` passes its
/// live r-th candidate value.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KeepRule {
    /// A child is allocated only if `value >= need`. Ties are kept so
    /// `ranking_cmp` still decides them.
    pub need: f64,
    /// Every dropped child must still be entered in `explored`. Set
    /// while ε-acceptance is open: it admits a child only the first time
    /// the search meets it, so whether a child was met is then part of
    /// the answer. It keeps stage A off cascades, whose components (and
    /// so their keys) are unknown until enumerated.
    pub track_dropped: bool,
}

impl KeepRule {
    pub(crate) const ALL: KeepRule = KeepRule {
        need: f64::NEG_INFINITY,
        track_dropped: false,
    };
}

/// The parent of an expansion sweep. The arena is loaded with it (at
/// `k`, articulation points marked) by the first deletion that is
/// actually performed, so a parent whose every deletion is skipped on
/// its bound costs no load.
pub(crate) struct Parent<'a> {
    wg: &'a WeightedGraph,
    aggregation: Aggregation,
    community: &'a Community,
    k: usize,
    /// `vertex_mix_sum(&community.vertices)`, summed by the load: a
    /// parent that is never loaded needs no keys.
    mix: u64,
    /// Stage A needs the O(1) remove delta (`incremental_removal`).
    bounded: bool,
    /// Rounding slack added to a stage-A bound; see [`Parent::new`].
    margin: f64,
    /// The parent's loaded, marked state, when it is a root component of
    /// a snapshot level: copied in if present, taken by the first load
    /// otherwise.
    pub(crate) image: Option<&'a OnceLock<ArenaImage>>,
    loaded: bool,
}

impl<'a> Parent<'a> {
    /// The stage-A bound folds `value_after_removal` over a cascade's
    /// journal, which rounds differently from the sorted-order
    /// `evaluate` that defines a child's value. For `n` non-negative
    /// weights and unit roundoff `u = ε/2`, `evaluate` of the parent and
    /// of any child each err by at most `(n + 1)·u·f(P)`, and the fold's
    /// at most `n` steps (two roundings each for `sum-surplus`) by
    /// `2n·u·f(P)`: a child's computed value exceeds the computed bound
    /// by less than `(2n + 1)·ε·f(P)`. The margin is twice that, so
    /// `bound + margin < need` proves `value < need` for every child of
    /// the cascade. A custom aggregation declaring `incremental_removal`
    /// is held to the same per-step accuracy.
    pub(crate) fn new(
        wg: &'a WeightedGraph,
        aggregation: Aggregation,
        community: &'a Community,
        k: usize,
    ) -> Self {
        debug_assert!(community.vertices.is_sorted(), "community members ascend");
        let n = community.vertices.len() as f64;
        Parent {
            wg,
            aggregation,
            community,
            k,
            mix: 0,
            bounded: aggregation.certificates().incremental_removal,
            margin: 4.0 * f64::EPSILON * (n + 1.0) * community.value.abs(),
            image: None,
            loaded: false,
        }
    }

    /// Loads the parent into `arena` with its articulation points
    /// marked: a copy of its image when there is one, a load from the
    /// graph otherwise (which then fills an empty image slot).
    fn load(&mut self, arena: &mut PeelArena, counts: &mut ExpansionCounts) {
        let (wg, vertices, k) = (self.wg, &self.community.vertices, self.k);
        let mut from_graph = |arena: &mut PeelArena| {
            arena.load(wg.graph(), vertices, k);
            arena.mark_articulation_points();
            counts.loads += 1;
        };
        match self.image {
            None => from_graph(arena),
            Some(slot) => {
                let mut built = false;
                let image = slot.get_or_init(|| {
                    from_graph(arena);
                    built = true;
                    arena.image()
                });
                if !built {
                    arena.load_image(image);
                }
            }
        }
        self.mix = vertex_mix_sum(vertices);
        self.loaded = true;
    }
}

/// Pooled buffers of [`expand_children`] plus its running work counts;
/// one per solver run.
#[derive(Clone, Debug, Default)]
pub(crate) struct ExpandScratch {
    vertices: Vec<VertexId>,
    weights: Vec<f64>,
    pub(crate) counts: ExpansionCounts,
}

impl ExpandScratch {
    /// Stage B: the exact value of the child whose sorted members are in
    /// `self.vertices` — the same `evaluate` over the same order as
    /// [`community_from_vertices`], so the same bits — and the
    /// allocation only if the keep-rule wants it.
    fn build_if_kept(&mut self, parent: &Parent<'_>, need: f64, out: &mut Vec<Community>) {
        let wg = parent.wg;
        self.weights.clear();
        self.weights
            .extend(self.vertices.iter().map(|&v| wg.weight(v)));
        let value = parent
            .aggregation
            .evaluate(&self.weights, wg.total_weight());
        if value >= need {
            self.counts.materialized += 1;
            out.push(Community {
                vertices: self.vertices.clone(),
                value,
            });
        } else {
            self.counts.skipped_by_value += 1;
        }
    }
}

/// Shared child-expansion step of the arena-based Corollary-2 solvers
/// (`sum_naive`, `tic_improved`): deletes `victim` from the parent,
/// appends every *new* child community that meets `keep` to `out`, and
/// rolls the arena back. Between the first call for a parent and the
/// last, the arena must not be loaded with anything else.
///
/// A child is decided before it is built, in two stages:
///
/// * **A — bound.** With the `incremental_removal` certificate, folding
///   `value_after_removal` over the cascade journal gives the value of
///   `parent ∖ cascade`, which upper-bounds every surviving component.
///   If that plus the rounding margin ([`Parent::new`]) is below
///   `keep.need`, nothing this deletion produces can be kept and the
///   arena rolls back without a component walk. The fold's first step
///   needs no cascade: when even `parent ∖ {victim}` misses, the
///   deletion is not performed at all.
/// * **B — value.** Otherwise each new component is copied into a pooled
///   buffer and evaluated exactly as the from-scratch oracle evaluates
///   its sorted components (same summation order, same bits); the
///   `Community` is allocated only if `value >= keep.need`.
///
/// When the deletion neither cascades nor hits an articulation point the
/// only child is `parent ∖ {victim}`: its dedup key is an O(1)
/// subtraction from the parent's mix and no component walk happens in
/// either stage. Otherwise the components come from the arena's split
/// ([`PeelArena::split`]), which proves the parent one piece without a
/// walk when it can and otherwise walks only what the cascade cut off:
/// the pieces it finished, in ascending id order, and the rest, whose
/// key is the parent's mix minus the journal and those pieces, so the
/// rest is listed only when it is built. Pieces are handled in
/// ascending order of their smallest member, the order ε-acceptance
/// sees them in. Every child whose key is known is entered in
/// `explored`, kept or not; only a cascade dropped in stage A leaves no
/// entry (see DESIGN.md §5 for why that is safe when
/// `keep.track_dropped` is unset).
pub(crate) fn expand_children(
    arena: &mut PeelArena,
    parent: &mut Parent<'_>,
    victim: VertexId,
    keep: KeepRule,
    explored: &mut std::collections::HashSet<u64>,
    scratch: &mut ExpandScratch,
    out: &mut Vec<Community>,
) {
    #[cfg(debug_assertions)]
    let fresh_start = out.len();
    let (wg, aggregation, community) = (parent.wg, parent.aggregation, parent.community);
    let bounded = parent.bounded && keep.need > f64::NEG_INFINITY;
    let margin = parent.margin;
    let misses = |bound: f64| bound + margin < keep.need;
    if bounded
        && !keep.track_dropped
        && misses(aggregation.value_after_removal(community.value, wg.weight(victim)))
    {
        scratch.counts.skipped_by_bound += 1;
        return;
    }
    if !parent.loaded {
        parent.load(arena, &mut scratch.counts);
    }
    arena.remove_cascade(victim);
    scratch.counts.deletions += 1;
    let below_bound = bounded
        && misses(arena.journaled().fold(community.value, |bound, u| {
            aggregation.value_after_removal(bound, wg.weight(u))
        }));
    if arena.journal_len() == 1 && !arena.is_articulation(victim) {
        let key = finalize_set_key(
            parent.mix.wrapping_sub(vertex_mix(victim)),
            community.vertices.len() - 1,
        );
        if explored.insert(key) {
            if below_bound {
                scratch.counts.skipped_by_bound += 1;
            } else {
                scratch.vertices.clear();
                scratch
                    .vertices
                    .extend(community.vertices.iter().filter(|&&u| u != victim));
                scratch.build_if_kept(parent, keep.need, out);
            }
        }
    } else if below_bound && !keep.track_dropped {
        scratch.counts.skipped_by_bound += 1;
    } else {
        let split = arena.split();
        scratch.counts.splits += 1;
        scratch.counts.walked += split.walked as u64;
        scratch.counts.walk_span += arena.live_count() as u64;
        scratch.counts.certified += u64::from(split.certified);
        // The rest's key: the parent's mix minus everything else.
        let rest_mix = arena
            .journaled()
            .chain(arena.finished(&split).iter().copied())
            .fold(parent.mix, |mix, u| mix.wrapping_sub(vertex_mix(u)));
        for piece in arena.pieces(&split) {
            let key = match piece {
                Piece::Walked(comp) => vertex_set_key(comp),
                Piece::Rest(len) => finalize_set_key(rest_mix, len),
            };
            if !explored.insert(key) {
                continue;
            }
            if below_bound {
                scratch.counts.skipped_by_bound += 1;
                continue;
            }
            // Pieces list members in load order: ascending, as the
            // parent's are.
            scratch.vertices.clear();
            match piece {
                Piece::Walked(comp) => scratch.vertices.extend_from_slice(comp),
                Piece::Rest(_) => arena.rest_into(&split, &mut scratch.vertices),
            }
            scratch.build_if_kept(parent, keep.need, out);
        }
    }
    arena.rollback();
    // Debug-mode certificate check (see `ic_core::certify`): the arena
    // solvers only run for aggregations declaring removal-decreasing
    // monotonicity, so every enumerated child must not outscore its
    // parent. (Strict decrease is the certificate's claim for positive
    // weights; zero-weight vertices legitimately tie, so the in-solver
    // check is non-strict.) A custom function whose mis-declared
    // certificate slipped past the sampled registration harness trips
    // here on the first real subgraph that falsifies it.
    #[cfg(debug_assertions)]
    if aggregation.certificates().removal_decreasing {
        for child in &out[fresh_start..] {
            debug_assert!(
                child.value.total_cmp(&community.value).is_le(),
                "certificate `removal_decreasing` falsified by {}: child {:?} has value {} \
                 > parent value {}",
                aggregation.name(),
                child.vertices,
                child.value,
                community.value,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_key_is_order_independent_and_discriminating() {
        assert_eq!(vertex_set_key(&[3, 1, 2]), vertex_set_key(&[1, 2, 3]));
        assert_ne!(vertex_set_key(&[1, 2, 3]), vertex_set_key(&[1, 2, 4]));
        assert_ne!(vertex_set_key(&[1, 2, 3]), vertex_set_key(&[1, 2]));
        // Sum-collision resistance: {0, 3} vs {1, 2} share a plain sum but
        // not a mixed one.
        assert_ne!(vertex_set_key(&[0, 3]), vertex_set_key(&[1, 2]));
    }

    #[test]
    fn incremental_subtraction_matches_full_key() {
        let parent = [5u32, 9, 13, 27];
        let acc = vertex_mix_sum(&parent);
        // Remove 13: the subtracted sum must reproduce the full key of
        // the child set.
        let child_key = finalize_set_key(acc.wrapping_sub(vertex_mix(13)), parent.len() - 1);
        assert_eq!(child_key, vertex_set_key(&[5, 9, 27]));
    }
}
