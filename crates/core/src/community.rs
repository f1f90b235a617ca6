//! Community values, canonical identity, and bounded top-r lists.

use ic_graph::VertexId;
use std::cmp::Ordering;

/// A community: a canonical (sorted, deduplicated) vertex list plus its
/// influence value under the aggregation the producing solver used.
#[derive(Clone, Debug, PartialEq)]
pub struct Community {
    /// Member vertices, sorted ascending.
    pub vertices: Vec<VertexId>,
    /// `f(H)` under the solver's aggregation function.
    pub value: f64,
}

impl Community {
    /// Builds a community, canonicalizing the vertex list.
    pub fn new(mut vertices: Vec<VertexId>, value: f64) -> Self {
        vertices.sort_unstable();
        vertices.dedup();
        Community { vertices, value }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True for the empty community (never produced by the solvers).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Whether `v` is a member (binary search).
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.binary_search(&v).is_ok()
    }

    /// Whether two communities share any vertex (merge scan).
    pub fn overlaps(&self, other: &Community) -> bool {
        let (mut a, mut b) = (self.vertices.as_slice(), other.vertices.as_slice());
        while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
            match x.cmp(&y) {
                Ordering::Less => a = &a[1..],
                Ordering::Greater => b = &b[1..],
                Ordering::Equal => return true,
            }
        }
        false
    }

    /// A 64-bit hash of the member list, for cheap duplicate detection
    /// (full list comparison resolves collisions). Four independent lanes
    /// each take every fourth pair of members as one `u64` word and fold
    /// it in with a 64×64→128-bit multiply whose halves are xored, so a
    /// list costs a quarter of a dependent multiply per pair; the lanes
    /// are folded with the length at the end. Order-sensitive, and stable
    /// within one build only: nothing persists it.
    pub fn signature(&self) -> u64 {
        const K: [u64; 4] = [
            0xa076_1d64_78bd_642f,
            0xe703_7ed1_a0b4_28db,
            0x8ebc_6af0_9c88_c6e3,
            0x5899_65cc_7537_4cc3,
        ];
        let mix = |a: u64, b: u64| {
            let product = u128::from(a) * u128::from(b);
            product as u64 ^ (product >> 64) as u64
        };
        let word = |pair: &[VertexId]| {
            u64::from(pair[0]) | u64::from(pair.get(1).copied().unwrap_or(0)) << 32
        };
        let mut lanes = K;
        let mut fold = |eight: &[VertexId]| {
            for ((lane, k), pair) in lanes.iter_mut().zip(K).zip(eight.chunks(2)) {
                *lane = mix(*lane ^ word(pair), k);
            }
        };
        let mut blocks = self.vertices.chunks_exact(8);
        blocks.by_ref().for_each(&mut fold);
        fold(blocks.remainder());
        (lanes.iter()).fold(self.vertices.len() as u64, |h, &lane| mix(h ^ lane, K[0]))
    }

    /// Total order used by all solvers: higher value first; ties broken by
    /// smaller size, then lexicographically smaller vertex list, making
    /// every solver's output deterministic.
    pub fn ranking_cmp(&self, other: &Community) -> Ordering {
        other
            .value
            .total_cmp(&self.value)
            .then_with(|| self.vertices.len().cmp(&other.vertices.len()))
            .then_with(|| self.vertices.cmp(&other.vertices))
    }
}

/// A bounded, deduplicated list of the best `r` communities seen so far.
///
/// This is the `L` of Algorithms 1, 2, and 4: insertion keeps the list
/// sorted by [`Community::ranking_cmp`], drops duplicates, and evicts the
/// worst entry when capacity is exceeded.
#[derive(Clone, Debug)]
pub struct TopList {
    capacity: usize,
    items: Vec<Community>,
    /// `items[i].signature()`, kept beside the list so the duplicate
    /// scan compares one word per retained community.
    signatures: Vec<u64>,
}

impl TopList {
    /// Creates a list holding at most `capacity` communities. Nothing is
    /// reserved up front: `capacity` is a query's `r`, which arrives off
    /// the wire, and the list can never hold more communities than the
    /// search finds.
    pub fn new(capacity: usize) -> Self {
        TopList {
            capacity,
            items: Vec::new(),
            signatures: Vec::new(),
        }
    }

    /// Maximum number of communities retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of communities.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no community has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The retained communities, best first.
    pub fn items(&self) -> &[Community] {
        &self.items
    }

    /// Consumes the list, returning the communities best-first.
    pub fn into_vec(self) -> Vec<Community> {
        self.items
    }

    /// The value of the `r`-th (worst retained) community, or `−∞` while
    /// the list is not yet full. This is `f(Lr)` in the paper's pruning
    /// rules: any candidate that cannot beat it is skipped.
    pub fn threshold(&self) -> f64 {
        match self.items.last() {
            Some(last) if self.items.len() == self.capacity => last.value,
            _ => f64::NEG_INFINITY,
        }
    }

    /// The best community, if any.
    pub fn best(&self) -> Option<&Community> {
        self.items.first()
    }

    /// Inserts a community; returns whether it was retained. A vertex
    /// set is listed at most once: of two copies, the better-ranked one
    /// stays.
    ///
    /// Two copies of one vertex set need not carry bit-identical values
    /// — an incrementally accumulated `avg` reaches the same set along
    /// different add/remove orders and can differ in the last ulp — so
    /// they need not rank adjacently, and the duplicate scan covers the
    /// whole list (`r` is at most a few dozen) by cached signature, with
    /// a full vertex-list comparison on a signature match.
    ///
    /// Values are ordered by `total_cmp` bits throughout, so the `−∞`
    /// undefined-value sentinel (the `may_be_neg_infinite` certificate
    /// of `crate::Certificates`) ranks and tie-breaks exactly like any
    /// finite value on every solver path.
    /// NaN values are a solver bug, never a data condition, and are
    /// rejected in debug builds.
    pub fn insert(&mut self, community: Community) -> bool {
        debug_assert!(
            !community.value.is_nan(),
            "NaN influence value for {:?}: aggregation functions must map undefined \
             values onto the −∞ sentinel, never NaN",
            community.vertices
        );
        if self.capacity == 0 {
            return false;
        }
        let pos = self
            .items
            .partition_point(|c| c.ranking_cmp(&community) == Ordering::Less);
        if pos == self.items.len() && self.items.len() >= self.capacity {
            return false; // worse than everything retained, list full
        }
        let sig = community.signature();
        let duplicate = (0..self.items.len())
            .find(|&i| self.signatures[i] == sig && self.items[i].vertices == community.vertices);
        if let Some(dup) = duplicate {
            if self.items[dup].ranking_cmp(&community) != Ordering::Greater {
                return false; // the retained copy ranks at least as well
            }
            self.items.remove(dup);
            self.signatures.remove(dup);
        }
        self.items.insert(pos, community);
        self.signatures.insert(pos, sig);
        if self.items.len() > self.capacity {
            self.items.pop();
            self.signatures.pop();
        }
        true
    }
}

/// Order-preserving encoding of `f64` into `u64`: `a < b` iff
/// `encode(a) < encode(b)` (total order, `-inf` smallest), so a weight
/// can key an integer heap or sort — the greedy pool builder's layer
/// merge keys its candidates by it.
pub fn encode_ordered_f64(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1u64 << 63)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signatures_tell_near_copies_apart() {
        // An 895-vertex child, as ε-TIC hashes at k = 6, and every copy of
        // it with one member removed, one pair of neighbours swapped, or
        // one member replaced by the next free id: all distinct.
        let base: Vec<VertexId> = (0..895).map(|i| i * 11 + i % 7).collect();
        let signature = |vertices: Vec<VertexId>| {
            Community {
                vertices,
                value: 0.0,
            }
            .signature()
        };
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(signature(base.clone())));
        for at in 0..base.len() {
            let mut removed = base.clone();
            removed.remove(at);
            assert!(seen.insert(signature(removed)), "removed {at}");
            if at + 1 < base.len() {
                let mut swapped = base.clone();
                swapped.swap(at, at + 1);
                assert!(seen.insert(signature(swapped)), "swapped {at}");
            }
            let mut replaced = base.clone();
            replaced[at] += 1;
            assert!(seen.insert(signature(replaced)), "replaced {at}");
        }
        // Lists that differ only by trailing zero ids, or in length.
        for len in 0..20 {
            assert!(seen.insert(signature(vec![0; len])), "{len} zeros");
        }
    }

    #[test]
    fn f64_encoding_is_order_preserving() {
        let samples = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            3.25,
            1e300,
            f64::INFINITY,
        ];
        for (i, &a) in samples.iter().enumerate() {
            for &b in &samples[i + 1..] {
                if a < b {
                    assert!(encode_ordered_f64(a) < encode_ordered_f64(b), "{a} vs {b}");
                }
            }
        }
    }

    fn c(vs: &[u32], value: f64) -> Community {
        Community::new(vs.to_vec(), value)
    }

    #[test]
    fn construction_canonicalizes() {
        let comm = Community::new(vec![3, 1, 2, 1], 5.0);
        assert_eq!(comm.vertices, vec![1, 2, 3]);
        assert_eq!(comm.len(), 3);
        assert!(comm.contains(2));
        assert!(!comm.contains(9));
    }

    #[test]
    fn overlap_detection() {
        assert!(c(&[1, 2, 3], 0.0).overlaps(&c(&[3, 4], 0.0)));
        assert!(!c(&[1, 2], 0.0).overlaps(&c(&[3, 4], 0.0)));
        assert!(!c(&[], 0.0).overlaps(&c(&[1], 0.0)));
    }

    #[test]
    fn signature_distinguishes_lists() {
        assert_eq!(c(&[1, 2], 0.0).signature(), c(&[2, 1], 1.0).signature());
        assert_ne!(c(&[1, 2], 0.0).signature(), c(&[1, 3], 0.0).signature());
    }

    #[test]
    fn ranking_order() {
        let hi = c(&[1], 10.0);
        let lo = c(&[2], 5.0);
        assert_eq!(hi.ranking_cmp(&lo), Ordering::Less); // "less" = ranks earlier
                                                         // Ties: smaller community first.
        let small = c(&[7], 5.0);
        let big = c(&[1, 2], 5.0);
        assert_eq!(small.ranking_cmp(&big), Ordering::Less);
        // Full tie broken lexicographically.
        let a = c(&[1, 5], 5.0);
        let b = c(&[2, 3], 5.0);
        assert_eq!(a.ranking_cmp(&b), Ordering::Less);
    }

    #[test]
    fn toplist_keeps_best_r() {
        let mut l = TopList::new(2);
        assert!(l.insert(c(&[1], 1.0)));
        assert!(l.insert(c(&[2], 3.0)));
        assert!(l.insert(c(&[3], 2.0))); // evicts value 1.0
        assert_eq!(l.len(), 2);
        assert_eq!(l.items()[0].value, 3.0);
        assert_eq!(l.items()[1].value, 2.0);
        assert!(!l.insert(c(&[4], 0.5))); // too weak
        assert_eq!(l.threshold(), 2.0);
    }

    #[test]
    fn toplist_threshold_before_full() {
        let mut l = TopList::new(3);
        assert_eq!(l.threshold(), f64::NEG_INFINITY);
        l.insert(c(&[1], 1.0));
        assert_eq!(l.threshold(), f64::NEG_INFINITY);
    }

    #[test]
    fn toplist_rejects_duplicates() {
        let mut l = TopList::new(3);
        assert!(l.insert(c(&[1, 2], 5.0)));
        assert!(!l.insert(c(&[2, 1], 5.0)));
        assert_eq!(l.len(), 1);
        // Same value, different set: accepted.
        assert!(l.insert(c(&[1, 3], 5.0)));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn toplist_dedups_one_vertex_set_across_values_an_ulp_apart() {
        // Regression (PR 11 defect): an incrementally accumulated avg
        // reaches one vertex set with values one ulp apart; the copies do
        // not rank adjacently once a third community sits between them.
        let hi = 5.0f64;
        let lo = f64::from_bits(hi.to_bits() - 1);
        let mid = c(&[7], lo); // same value as the low copy, ranks before it (smaller set)
        for first_hi in [true, false] {
            let mut l = TopList::new(4);
            let (a, b) = if first_hi { (hi, lo) } else { (lo, hi) };
            assert!(l.insert(c(&[1, 2], a)));
            assert!(l.insert(mid.clone()));
            // The second copy is retained only when it ranks better.
            assert_eq!(l.insert(c(&[2, 1], b)), !first_hi);
            let got: Vec<(&[u32], u64)> = l
                .items()
                .iter()
                .map(|x| (x.vertices.as_slice(), x.value.to_bits()))
                .collect();
            assert_eq!(
                got,
                vec![(&[1, 2][..], hi.to_bits()), (&[7][..], lo.to_bits())],
                "one copy, the better-ranked one (first_hi = {first_hi})"
            );
        }
    }

    #[test]
    fn toplist_zero_capacity() {
        let mut l = TopList::new(0);
        assert!(!l.insert(c(&[1], 1.0)));
        assert!(l.is_empty());
    }

    #[test]
    fn neg_infinity_sentinel_dedups_and_tie_breaks_like_any_value() {
        // Regression (PR 4): BalancedDensity-style aggregations emit −∞
        // for undefined values. Those communities must rank last, dedup
        // by vertex set, and tie-break by (size, lex) exactly like
        // finite-valued ones — the dup scan runs on total_cmp bits, so
        // −∞ == −∞ neighborhoods are scanned, not skipped.
        let mut l = TopList::new(4);
        assert!(l.insert(c(&[1, 2], f64::NEG_INFINITY)));
        assert!(!l.insert(c(&[2, 1], f64::NEG_INFINITY)), "dup −∞ set");
        assert!(l.insert(c(&[3], f64::NEG_INFINITY)));
        assert!(l.insert(c(&[4, 5], 1.0)));
        // Finite values rank above the sentinel; among the −∞ ties the
        // smaller set wins, then lexicographic order.
        let got: Vec<&[u32]> = l.items().iter().map(|x| x.vertices.as_slice()).collect();
        assert_eq!(got, vec![&[4, 5][..], &[3][..], &[1, 2][..]]);
        assert_eq!(l.threshold(), f64::NEG_INFINITY);
        // A −∞ community is evicted before any finite one.
        assert!(l.insert(c(&[6], 0.5)));
        assert!(l.insert(c(&[7], 0.25)));
        let worst = l.items().last().unwrap();
        assert_eq!(worst.vertices, vec![3]);
        assert_eq!(worst.value, f64::NEG_INFINITY);
    }

    #[test]
    fn toplist_eviction_respects_tie_breaks() {
        let mut l = TopList::new(2);
        l.insert(c(&[1, 2, 3], 5.0));
        l.insert(c(&[4], 5.0)); // smaller set ranks first on tie
        assert_eq!(l.items()[0].vertices, vec![4]);
        // New tie value evicts the lexicographically-larger big set? No —
        // eviction is strictly by ranking: the 3-element set is last.
        l.insert(c(&[5], 5.0));
        assert_eq!(l.items().len(), 2);
        assert_eq!(l.items()[1].vertices, vec![5]);
    }
}
