//! The seed memo: what Algorithm 4 learns about a seed that no query can
//! change, kept per `(snapshot, k, s, greedy)` and replayed.
//!
//! A seed's pool — the truncated BFS over the level's [`CoreRows`],
//! sorted for greedy — depends on the level's k-core alone, and so does
//! the one graph fact a strategy asks of a pool prefix: does it induce a
//! connected k-core? Everything else a strategy reads is the prefix's
//! weights and its own list's bar. A [`SeedEntry`] keeps the pool in
//! strategy order, the vertices whose rows its build read, and, once it
//! has learned them, that fact for every prefix as packed bits.
//! [`run_seed_memo`] replays an entry for every target instead of
//! rebuilding the pool. `replay` holds Algorithm 4's one production
//! `SumStrategy` and `AvgStrategy`: prefix values come from the
//! [`prefix_values`] kernel and `AggregateState` removes, and a prefix is
//! competitive against the list's bar as it stands at that seed. A seed
//! without an entry is expanded by `expand_seed` — build a fresh entry,
//! replay it, testing prefixes with the degree tracker as a strategy asks
//! — which is also every unmemoized walk's expansion (`Query::solve`,
//! TONIC), so a replay inserts exactly what a fresh expansion does.
//!
//! An entry also keeps three numbers folded from its pool at build: the
//! heaviest weight, the pool-order sum and the largest prefix mean. From
//! them and a target's certificates, [`SeedEntry::bound`] caps every value
//! the target's replay would compute; a target whose cap is at or below
//! its bar is left out, and a seed no target is left for is skipped. The
//! first warm replay a target is not left out of has the entry learn its
//! verdicts, in one pass over the pool (the degree tracker's pushes and a
//! union-find over pool positions), and from then on the cap is over the
//! qualifying prefixes only — the ones a replay can insert: `−∞` when
//! none does, and for the classes whose values are monotone in a greedy
//! pool's prefix length, the largest qualifying value itself, bit for
//! bit. Seeds are still visited in ascending order and a skipped target
//! could insert nothing, so answers do not change.
//!
//! A family keeps one slot per seed of its level, in the ascending order
//! a walk visits them, so it costs what its level's k-core holds, not
//! what the graph does. [`SeedMemo::carry`] hands the next snapshot
//! every entry an apply's [`ApplyDelta`] shows it left alone, at its
//! seed's new slot, verdicts and all. The memo is bounded by a fixed
//! per-snapshot byte budget; a family or an entry that does not fit is
//! walked without one.

use crate::aggregate::{builtin, StateView};
use crate::algo::common::community_from_vertices;
use crate::algo::local_search::{
    heavier_first, prefix_values, seed_is_hopeless, CoreRows, LocalScratch, SeedTarget,
};
use crate::{AggregateState, Aggregation, Community, TopList};
use ic_graph::{BitSet, VertexId, WeightedGraph};
use ic_kcore::{ApplyDelta, CoreLevel, LevelDelta};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::mem::size_of;
use std::ops::ControlFlow;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize};
use std::sync::{Arc, Mutex, OnceLock};

/// Bytes one snapshot's memo may hold: `miss_mix`'s whole working set,
/// 132 `(k, s)` families of up to 40-vertex pools over the 4- to 10-cores
/// of a 10⁴-vertex graph, peaks at 32.9 MB of it (35.2 MB while each
/// entry kept a byte per prefix instead of a bit).
const MEMO_BUDGET: usize = 36 << 20;

/// A prefix a replay has not tested yet.
const UNTESTED: u8 = 0;
/// A prefix that induces a connected k-core.
const QUALIFIES: u8 = 1;
/// A prefix that does not.
const FAILS: u8 = 2;

/// One seed's expansion at `(k, s, greedy)`.
pub(crate) struct SeedEntry {
    /// The pool in strategy order, then the vertices whose rows the pool
    /// build read.
    ids: Box<[VertexId]>,
    /// Once `learned`, bit `len - k - 1` (byte `/ 8`, bit `% 8`) for each
    /// prefix length `len` in `k + 1 ..= pool_len`: whether `pool[..len]`
    /// induces a connected k-core. Walks that learn an entry at once
    /// write the same bits.
    verdicts: Box<[AtomicU8]>,
    pool_len: u32,
    /// Whether `verdicts` and `peak_mean` are over the qualifying
    /// prefixes: stored `Release` by [`learn`](Self::learn) after both
    /// (`Relaxed` themselves), loaded `Acquire` before either is read. A
    /// walk that loads it `false` may still read the learned `peak_mean`,
    /// which caps what a replay inserts as well.
    learned: AtomicBool,
    /// The pool's heaviest weight.
    max: f64,
    /// The pool-order sum of its weights: `sum_replay`'s first state.
    total: f64,
    /// The bits of the largest `sum / len`, each as an `avg` replay
    /// computes it, over the prefixes `len` in `k + 1 ..= pool_len` —
    /// once `learned`, over the qualifying ones (`−∞`: none).
    peak_mean: AtomicU64,
}

impl SeedEntry {
    /// Builds `seed`'s pool, in strategy order, with nothing learned.
    #[allow(clippy::too_many_arguments)]
    fn build(
        wg: &WeightedGraph,
        rows: &CoreRows,
        core: &BitSet,
        seed: VertexId,
        k: usize,
        s: usize,
        greedy: bool,
        scratch: &mut LocalScratch,
    ) -> SeedEntry {
        scratch.build_pool(wg, rows, core, seed, s, greedy);
        let pool = &scratch.pool;
        let mut ids = Vec::with_capacity(pool.len() + scratch.read_len);
        ids.extend_from_slice(pool);
        // The seed stays first: the pool is anchored at it.
        if greedy && pool.len() > k {
            ids[1..].sort_by(|a, b| heavier_first(wg, a, b));
        }
        let (mut max, mut total, mut peak_mean) = (f64::NEG_INFINITY, 0.0, f64::NEG_INFINITY);
        for (i, &v) in ids[..pool.len()].iter().enumerate() {
            let w = wg.weight(v);
            max = max.max(w);
            total += w;
            if i + 1 > k {
                peak_mean = peak_mean.max(total / (i + 1) as f64);
            }
        }
        ids.extend_from_slice(&pool[..scratch.read_len]);
        SeedEntry {
            ids: ids.into_boxed_slice(),
            verdicts: (0..pool.len().saturating_sub(k).div_ceil(8))
                .map(|_| AtomicU8::new(0))
                .collect(),
            pool_len: u32::try_from(pool.len()).expect("a pool fits 32-bit ids"),
            learned: AtomicBool::new(false),
            max,
            total,
            peak_mean: AtomicU64::new(peak_mean.to_bits()),
        }
    }

    /// A value no replay of this entry for `aggregation` inserts a
    /// community of more than, or `None` when nothing caps it.
    /// `greedy` is the family's pool order.
    ///
    /// Until the entry has [`learn`](Self::learn)ed its verdicts, the
    /// cap is over every value the replay computes — each prefix `len >
    /// k` for the prefix strategy, the first state for the sum strategy:
    ///
    /// * An `incremental_removal` aggregation without a multiset replays
    ///   `SumStrategy`, whose first loop test is `f` at `(pool_len,
    ///   total)`: this is it, bit for bit, for any parameter.
    /// * `avg`'s prefix values are the very `sum / len` that `peak_mean`
    ///   took the largest of.
    /// * A node-dominated value is some member's weight: at most `max`.
    /// * `top-t-sum` is at most the sum of all weights and `t` times the
    ///   largest; the two are computed in other orders than the value, so
    ///   the bound carries DESIGN §5's rounding margin.
    ///
    /// Once learned, a replay inserts only a qualifying prefix, so the
    /// cap is over those: `−∞` when none qualifies; for `avg`,
    /// `peak_mean`, now their largest mean; and for a greedy pool, the
    /// largest qualifying value itself, bit for bit, where the values
    /// are monotone in the prefix length (DESIGN §5 has the proofs) —
    /// `top-t-sum`'s at the longest qualifying prefix, `min`'s at the
    /// shortest, and a percentile's at the shortest or at the shortest
    /// whose nearest rank is past the minimum, whichever is larger.
    /// Every other class keeps the cap above.
    fn bound(
        &self,
        aggregation: Aggregation,
        wg: &WeightedGraph,
        k: usize,
        greedy: bool,
    ) -> Option<f64> {
        if self.learned.load(Acquire) {
            let Some((shortest, longest)) = self.qualifying(k) else {
                return Some(f64::NEG_INFINITY);
            };
            match aggregation {
                Aggregation::TopTSum { t } if greedy => {
                    // The value's own additions: the `t` heaviest, heaviest first.
                    let heaviest = self.heaviest(wg, longest);
                    let mut sum = 0.0;
                    for at in 0..t.min(longest) {
                        sum += heaviest(at);
                    }
                    return Some(sum);
                }
                Aggregation::Min if greedy => {
                    return Some(self.heaviest(wg, shortest)(shortest - 1));
                }
                Aggregation::Percentile { p } if greedy => {
                    let rank = |len: usize| builtin::Percentile { p }.index(len);
                    let value = |len: usize| self.heaviest(wg, len)(len - 1 - rank(len));
                    let past_min = (shortest..=self.pool_len()).find(|&len| rank(len) > 0);
                    let first = value(shortest);
                    let later = past_min.and_then(|len| self.qualifying_from(len, k));
                    let later = later.map_or(first, value);
                    return Some(if later.total_cmp(&first).is_gt() {
                        later
                    } else {
                        first
                    });
                }
                _ => {}
            }
        }
        let certificates = aggregation.certificates();
        if certificates.incremental_removal && !certificates.needs_multiset {
            let first = StateView::new(self.pool_len(), self.total, wg.total_weight(), None);
            return Some(aggregation.with_fn(|f| f.evaluate_state(&first)));
        }
        match aggregation {
            Aggregation::Average => Some(f64::from_bits(self.peak_mean.load(Relaxed))),
            Aggregation::TopTSum { t } => {
                let b = self.total.min(t as f64 * self.max);
                Some(b + 4.0 * f64::EPSILON * (self.pool_len + 1) as f64 * b.abs())
            }
            _ if certificates.node_domination => Some(self.max),
            _ => None,
        }
    }

    pub(crate) fn pool(&self) -> &[VertexId] {
        &self.ids[..self.pool_len()]
    }

    fn pool_len(&self) -> usize {
        self.pool_len as usize
    }

    fn read(&self) -> &[VertexId] {
        &self.ids[self.pool_len()..]
    }

    /// What the entry costs the budget: its allocations and the `Arc`
    /// that holds it.
    fn bytes(&self) -> usize {
        size_of::<Self>() + 2 * size_of::<usize>() + 4 * self.ids.len() + self.verdicts.len()
    }

    /// Works out, in one pass over the pool, which prefixes induce a
    /// connected k-core, and the largest mean among them.
    fn learn(&self, wg: &WeightedGraph, rows: &CoreRows, k: usize, scratch: &mut LocalScratch) {
        let pool = self.pool();
        // Whole bytes, each stored once: a racing walk learning the same
        // entry never clears a bit this one set.
        let (mut byte, mut bits) = (0, 0u8);
        scratch.prefix_verdicts(rows, pool, k, |len| {
            let at = len - k - 1;
            if at / 8 != byte {
                self.verdicts[byte].store(bits, Relaxed);
                (byte, bits) = (at / 8, 0);
            }
            bits |= 1 << (at % 8);
        });
        if let Some(cell) = self.verdicts.get(byte) {
            cell.store(bits, Relaxed);
        }
        let (mut sum, mut peak_mean) = (0.0, f64::NEG_INFINITY);
        for (i, &v) in pool.iter().enumerate() {
            sum += wg.weight(v);
            if i + 1 > k && self.verdict(i + 1, k) {
                peak_mean = peak_mean.max(sum / (i + 1) as f64);
            }
        }
        self.peak_mean.store(peak_mean.to_bits(), Relaxed);
        self.learned.store(true, Release);
    }

    /// Whether `pool[..len]` (`len > k`) induces a connected k-core, once
    /// learned.
    fn verdict(&self, len: usize, k: usize) -> bool {
        let at = len - k - 1;
        self.verdicts[at / 8].load(Relaxed) >> (at % 8) & 1 == 1
    }

    /// The shortest qualifying prefix at least `len` (`> k`) long, once
    /// learned.
    fn qualifying_from(&self, len: usize, k: usize) -> Option<usize> {
        let (at, mut byte) = (len - k - 1, (len - k - 1) / 8);
        let mut bits = self.verdicts.get(byte)?.load(Relaxed) & (u8::MAX << (at % 8));
        while bits == 0 {
            byte += 1;
            bits = self.verdicts.get(byte)?.load(Relaxed);
        }
        Some(k + 1 + 8 * byte + bits.trailing_zeros() as usize)
    }

    /// The shortest and the longest qualifying prefix, once learned
    /// (`None`: no prefix qualifies).
    fn qualifying(&self, k: usize) -> Option<(usize, usize)> {
        let shortest = self.qualifying_from(k + 1, k)?;
        let (byte, bits) = (self.verdicts.iter().enumerate().rev())
            .map(|(byte, bits)| (byte, bits.load(Relaxed)))
            .find(|&(_, bits)| bits != 0)?;
        let longest = k + 1 + 8 * byte + 7 - bits.leading_zeros() as usize;
        Some((shortest, longest))
    }

    /// The `at`-th heaviest weight (from 0) of the greedy pool's prefix
    /// `pool[..len]`, by `at`: the rest of the pool is in `heavier_first`
    /// order, and the seed sits below every rest weight at or above its
    /// own — the multiset [`prefix_values`] hands the aggregation.
    fn heaviest<'a>(&'a self, wg: &'a WeightedGraph, len: usize) -> impl Fn(usize) -> f64 + 'a {
        let (seed, rest) = (wg.weight(self.ids[0]), &self.ids[1..len]);
        let above = rest.partition_point(|&v| wg.weight(v).total_cmp(&seed).is_ge());
        move |at| match at.cmp(&above) {
            Ordering::Less => wg.weight(rest[at]),
            Ordering::Equal => seed,
            Ordering::Greater => wg.weight(rest[at - 1]),
        }
    }
}

/// Whether `pool[..len]` (`len > k`) induces a connected k-core, by the
/// degree tracker in `scratch`, for an entry that has not learned its
/// verdicts: a verdict this replay reached already (`scratch.tested`,
/// taken out as `tested`), else the tracker's, which is recorded.
/// `tracked` is the prefix the tracker holds (`None`: none of this
/// seed's yet); it is moved to `len` by pushes or pops, and each prefix a
/// push passes that breaks the degree bound is recorded as failing on the
/// way.
fn tracked_verdict(
    pool: &[VertexId],
    len: usize,
    k: usize,
    rows: &CoreRows,
    scratch: &mut LocalScratch,
    tested: &mut [u8],
    tracked: &mut Option<usize>,
) -> bool {
    match tested[len - k - 1] {
        QUALIFIES => return true,
        FAILS => return false,
        _ => {}
    }
    let held = tracked.unwrap_or_else(|| {
        scratch.begin_candidate(k);
        0
    });
    if held <= len {
        for (at, &v) in pool[..len].iter().enumerate().skip(held) {
            scratch.push(rows, v);
            if at + 1 > k && !scratch.is_kcore() {
                tested[at - k] = FAILS;
            }
        }
    } else {
        for &v in pool[len..held].iter().rev() {
            scratch.pop(rows, v);
        }
    }
    *tracked = Some(len);
    let verdict = scratch.is_kcore() && scratch.is_connected(rows, pool[0]);
    tested[len - k - 1] = if verdict { QUALIFIES } else { FAILS };
    verdict
}

/// Applies every target's strategy to `entry`'s pool, but for a target
/// whose [`bound`](SeedEntry::bound) is at or below its list's bar: no
/// community its replay could insert would beat the bar. A `warm` replay
/// (of a memoized entry) whose cheap bounds leave a target has the entry
/// [`learn`](SeedEntry::learn) its verdicts first, and bounds again; a
/// cold one tests prefixes with the degree tracker, shared by the
/// targets, so a prefix is tested once. Returns whether any target was
/// replayed.
#[allow(clippy::too_many_arguments)]
fn replay(
    wg: &WeightedGraph,
    rows: &CoreRows,
    k: usize,
    greedy: bool,
    entry: &SeedEntry,
    warm: bool,
    scratch: &mut LocalScratch,
    targets: &mut [SeedTarget<'_>],
) -> bool {
    let pool = entry.pool();
    if pool.len() <= k {
        return false; // cannot host a k-core
    }
    let (mut tracked, mut replayed) = (None, false);
    for target in targets {
        let (agg, bar) = (target.aggregation, target.list.threshold());
        let beaten = |entry: &SeedEntry| entry.bound(agg, wg, k, greedy).is_some_and(|b| b <= bar);
        if beaten(entry) {
            continue;
        }
        if warm && !entry.learned.load(Acquire) {
            entry.learn(wg, rows, k, scratch);
            if beaten(entry) {
                continue;
            }
        }
        let mut ascending = std::mem::take(&mut scratch.ascending);
        let mut tested = std::mem::take(&mut scratch.tested);
        let learned = entry.learned.load(Acquire);
        if !replayed && !learned {
            tested.clear();
            tested.resize(pool.len() - k, UNTESTED);
        }
        replayed = true;
        let mut qualifies = |len: usize| match learned {
            true => entry.verdict(len, k),
            false => tracked_verdict(pool, len, k, rows, scratch, &mut tested, &mut tracked),
        };
        // Strategy by certificate: `SumStrategy` drops from the full pool,
        // so it needs an O(1) remove delta; the rest walk pool prefixes.
        let inserted = if agg.certificates().incremental_removal {
            sum_replay(wg, pool, k, agg, target.list, &mut qualifies)
        } else {
            prefix_replay(
                wg,
                pool,
                k,
                greedy,
                agg,
                &mut ascending,
                target.list,
                &mut qualifies,
            )
        };
        scratch.targets_replayed += 1;
        scratch.targets_inserted += u64::from(inserted);
        scratch.ascending = ascending;
        scratch.tested = tested;
    }
    replayed
}

/// `SumStrategy` over a known pool: from the full pool, drop the last
/// vertex until the candidate qualifies while its value beats the bar.
/// Returns whether it inserted one.
fn sum_replay(
    wg: &WeightedGraph,
    pool: &[VertexId],
    k: usize,
    aggregation: Aggregation,
    list: &mut TopList,
    qualifies: &mut impl FnMut(usize) -> bool,
) -> bool {
    let mut state = AggregateState::new(aggregation, wg.total_weight());
    for &v in pool {
        state.add(wg.weight(v));
    }
    let mut len = pool.len();
    while len > k && state.value() > list.threshold() {
        if qualifies(len) {
            let vertices = pool[..len].to_vec();
            return list.insert(community_from_vertices(wg, aggregation, vertices));
        }
        len -= 1;
        state.remove(wg.weight(pool[len]));
    }
    false
}

/// `AvgStrategy` over a known pool, its values from [`prefix_values`]
/// (`ascending` its buffer): greedy takes the first competitive
/// qualifying prefix, random the best one by `ranking_cmp`. Returns
/// whether it inserted one.
#[allow(clippy::too_many_arguments)]
fn prefix_replay(
    wg: &WeightedGraph,
    pool: &[VertexId],
    k: usize,
    greedy: bool,
    aggregation: Aggregation,
    ascending: &mut Vec<f64>,
    list: &mut TopList,
    qualifies: &mut impl FnMut(usize) -> bool,
) -> bool {
    let bar = list.threshold();
    let mut best: Option<Community> = None;
    prefix_values(wg, pool, k, greedy, aggregation, ascending, |len, value| {
        if value > bar && qualifies(len) {
            let community = community_from_vertices(wg, aggregation, pool[..len].to_vec());
            if greedy {
                best = Some(community);
                return ControlFlow::Break(());
            }
            if best
                .as_ref()
                .is_none_or(|b| community.ranking_cmp(b).is_lt())
            {
                best = Some(community);
            }
        }
        ControlFlow::Continue(())
    });
    best.is_some_and(|b| list.insert(b))
}

/// The memo of one `(k, s, greedy)` family on one snapshot: an entry
/// slot per seed of its level, slot `i` for the `i`-th vertex of the
/// ascending k-core.
struct FamilyMemo {
    slots: Box<[OnceLock<Arc<SeedEntry>>]>,
    /// Bytes of the slots and of every entry set in them.
    bytes: AtomicUsize,
}

impl FamilyMemo {
    fn slot_bytes(seeds: usize) -> usize {
        seeds * size_of::<OnceLock<Arc<SeedEntry>>>()
    }

    fn new(seeds: usize) -> FamilyMemo {
        FamilyMemo {
            slots: (0..seeds).map(|_| OnceLock::new()).collect(),
            bytes: AtomicUsize::new(Self::slot_bytes(seeds)),
        }
    }
}

/// A snapshot memo's families, and per level `k` its k-core's vertices
/// in ascending order: the seeds a walk at `k` visits, and the slot
/// order of every family at `k`.
#[derive(Default)]
struct Families {
    seeds: HashMap<usize, Arc<[VertexId]>>,
    memos: HashMap<(usize, usize, bool), Arc<FamilyMemo>>,
}

/// What Algorithm 4 learned about seeds on one snapshot, per
/// `(k, s, greedy)` family: see the module docs. Snapshot state, like a
/// forest — it survives a cleared result cache — held beside the
/// snapshot by whoever serves it, and carried across an apply by
/// [`carry`](Self::carry).
pub struct SeedMemo {
    families: Mutex<Families>,
    /// Bytes held: every family's slots and entries.
    bytes: AtomicUsize,
    /// Families and entries the budget turned away, not yet taken.
    refused: AtomicU64,
    budget: usize,
}

impl Default for SeedMemo {
    fn default() -> Self {
        Self::with_budget(MEMO_BUDGET)
    }
}

impl SeedMemo {
    fn with_budget(budget: usize) -> SeedMemo {
        SeedMemo {
            families: Mutex::new(Families::default()),
            bytes: AtomicUsize::new(0),
            refused: AtomicU64::new(0),
            budget,
        }
    }

    /// Bytes the memo holds in slots and entries; never more than its
    /// fixed budget. The levels' seed lists, 4 B a seed, are the walks'
    /// and are not charged.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Relaxed)
    }

    /// The families and entries the budget turned away since the last
    /// call: a family fetched without a memo (once per fetch), an entry
    /// not kept, and a family or entry an apply could not carry.
    pub fn take_refused(&self) -> u64 {
        self.refused.swap(0, Relaxed)
    }

    fn reserve(&self, bytes: usize) -> bool {
        let fits = |held: usize| held.checked_add(bytes).filter(|&b| b <= self.budget);
        let kept = self.bytes.fetch_update(Relaxed, Relaxed, fits).is_ok();
        if !kept {
            self.refused.fetch_add(1, Relaxed);
        }
        kept
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Families> {
        self.families.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The `(level.k, s, greedy)` family over this snapshot's `level`:
    /// the level's seeds, listed on first use, and the family's memo,
    /// created empty on first use with a slot per seed — unless those
    /// slots do not fit the budget, and the seeds are walked without one.
    pub fn family(&self, level: &CoreLevel, s: usize, greedy: bool) -> MemoFamily<'_> {
        let k = level.k;
        let mut families = self.lock();
        let seeds = Arc::clone(
            families
                .seeds
                .entry(k)
                .or_insert_with(|| level.mask.iter().map(|v| v as VertexId).collect()),
        );
        let family = match families.memos.get(&(k, s, greedy)) {
            Some(family) => Some(Arc::clone(family)),
            None if self.reserve(FamilyMemo::slot_bytes(seeds.len())) => {
                let family = Arc::new(FamilyMemo::new(seeds.len()));
                families.memos.insert((k, s, greedy), Arc::clone(&family));
                Some(family)
            }
            None => None,
        };
        MemoFamily {
            memo: self,
            seeds,
            family,
        }
    }

    /// The memo the snapshot an apply swaps in starts with. A family
    /// above `delta`'s ceiling is shared whole. At a changed level the
    /// seed list is the old one without `left` and with `entered`, and
    /// the family starts over it, its slots reserved like a new family's;
    /// an entry is shared, at its seed's new slot and if the budget has
    /// room, when its seed is still in the k-core, no vertex whose row its
    /// pool build read is `reached`, and no toggle has both endpoints in
    /// its pool (DESIGN §9 has the proof).
    pub fn carry(&self, delta: &ApplyDelta) -> Carried {
        let families = self.lock();
        let next = SeedMemo::with_budget(self.budget);
        let mut dropped = 0u64;
        let mut carried = Families::default();
        for (&k, seeds) in &families.seeds {
            let seeds = match delta.level(k) {
                Some(level) => merged(seeds, level),
                None => Arc::clone(seeds),
            };
            carried.seeds.insert(k, seeds);
        }
        // Shared families first: they fit, as they did in this memo.
        for (&key, family) in &families.memos {
            if delta.level(key.0).is_none() {
                next.bytes.fetch_add(family.bytes.load(Relaxed), Relaxed);
                carried.memos.insert(key, Arc::clone(family));
            }
        }
        let changed = families
            .memos
            .iter()
            .filter_map(|(key, family)| Some((*key, family, delta.level(key.0)?)));
        for (key, family, level) in changed {
            let seeds = &carried.seeds[&key.0];
            if !next.reserve(FamilyMemo::slot_bytes(seeds.len())) {
                continue;
            }
            let hit: BitSet = level.reached.iter().map(|&v| v as usize).collect();
            let reached = |v: &VertexId| hit.contains(*v as usize);
            let toggled = |pool: &[VertexId]| {
                let held = |(u, v): &(VertexId, VertexId)| pool.contains(u) && pool.contains(v);
                delta.toggles().iter().any(held)
            };
            let fresh = FamilyMemo::new(seeds.len());
            for (slot, seed) in family.slots.iter().zip(families.seeds[&key.0].iter()) {
                let Some(entry) = slot.get() else { continue };
                match seeds.binary_search(seed) {
                    Ok(at) if !entry.read().iter().any(reached) && !toggled(entry.pool()) => {
                        if next.reserve(entry.bytes()) {
                            let _ = fresh.slots[at].set(Arc::clone(entry));
                            fresh.bytes.fetch_add(entry.bytes(), Relaxed);
                        }
                    }
                    _ => dropped += 1,
                }
            }
            carried.memos.insert(key, Arc::new(fresh));
        }
        *next.lock() = carried;
        Carried {
            memo: next,
            dropped,
        }
    }
}

/// What [`SeedMemo::carry`] hands on across an apply.
pub struct Carried {
    /// The memo the new snapshot starts with.
    pub memo: SeedMemo,
    /// The entries the apply invalidated.
    pub dropped: u64,
}

/// `seeds`, a level's k-core in ascending order before an apply, after
/// it: without the vertices that left, with those that entered.
fn merged(seeds: &[VertexId], level: &LevelDelta) -> Arc<[VertexId]> {
    let mut out = Vec::with_capacity(seeds.len() + level.entered.len());
    let mut entered = level.entered.iter().copied().peekable();
    let mut left = level.left.iter().peekable();
    for &v in seeds {
        out.extend(std::iter::from_fn(|| entered.next_if(|&e| e < v)));
        if left.next_if(|&&l| l == v).is_none() {
            out.push(v);
        }
    }
    out.extend(entered);
    out.into()
}

/// One family as a seed walk holds it: its level's seeds, and its memo
/// (`None`: the budget had no room for its slots) with the snapshot
/// memo whose budget new entries are charged to.
pub struct MemoFamily<'a> {
    memo: &'a SeedMemo,
    seeds: Arc<[VertexId]>,
    family: Option<Arc<FamilyMemo>>,
}

impl MemoFamily<'_> {
    /// The level's k-core in ascending order: the seeds to walk, and
    /// `at` of [`run_seed_memo`] a position in it.
    pub fn seeds(&self) -> &[VertexId] {
        &self.seeds
    }

    fn get(&self, at: usize) -> Option<&SeedEntry> {
        self.family.as_ref()?.slots[at].get().map(|e| &**e)
    }

    /// Keeps `entry` for seed `at` when the family has a memo and the
    /// entry fits the budget. A racing walk may have kept the seed's
    /// entry first; the two are the same.
    fn keep(&self, at: usize, entry: SeedEntry) {
        let Some(family) = &self.family else { return };
        let bytes = entry.bytes();
        if !self.memo.reserve(bytes) {
            return;
        }
        if family.slots[at].set(Arc::new(entry)).is_ok() {
            family.bytes.fetch_add(bytes, Relaxed);
        } else {
            self.memo.bytes.fetch_sub(bytes, Relaxed);
        }
    }
}

/// What [`run_seed_memo`] did with a seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeedVisit {
    /// No target could use the seed's pool: nothing built, nothing
    /// replayed. Either every target is a `min` whose bar is at or above
    /// the seed's weight, or the seed's entry cannot host a k-core or
    /// bounds every target's values at or below its bar.
    Skipped,
    /// Replayed from the memo: no pool built.
    Replayed,
    /// A pool of this many vertices built.
    Built(usize),
}

/// Expands seed `at` of `memo`'s level — `memo.seeds()[at]` — for
/// every target at once, inserting into each target's list exactly what
/// a fresh expansion does: the family's entry for the seed is replayed
/// when there is one, for the targets its value bounds do not rule out
/// (none left: the seed is skipped); otherwise the seed is expanded
/// afresh and its entry kept, once every target is served and when the
/// budget allows, for later families on this snapshot and, through
/// [`SeedMemo::carry`], later snapshots. `memo` must be this snapshot's
/// family for `(k, s, greedy)`, `core` the level's mask, `rows` its
/// [`CoreRows`], `scratch` sized to the graph; every seed in order
/// against one list reproduces `Query::solve`'s walk.
#[allow(clippy::too_many_arguments)]
pub fn run_seed_memo(
    wg: &WeightedGraph,
    rows: &CoreRows,
    core: &BitSet,
    memo: &MemoFamily<'_>,
    at: usize,
    k: usize,
    s: usize,
    greedy: bool,
    scratch: &mut LocalScratch,
    targets: &mut [SeedTarget<'_>],
) -> SeedVisit {
    let seed = memo.seeds[at];
    match memo.get(at) {
        None => match expand_seed(wg, rows, core, seed, k, s, greedy, scratch, targets) {
            Some(entry) => {
                let built = entry.pool_len();
                memo.keep(at, entry);
                SeedVisit::Built(built)
            }
            None => SeedVisit::Skipped,
        },
        Some(entry)
            if !seed_is_hopeless(wg, seed, targets)
                && replay(wg, rows, k, greedy, entry, true, scratch, targets) =>
        {
            SeedVisit::Replayed
        }
        Some(_) => SeedVisit::Skipped,
    }
}

/// Algorithm 4's one seed expansion, run by `Query::solve`, TONIC and a
/// memo walk's unmemoized seeds: unless [`seed_is_hopeless`], builds
/// `seed`'s [`SeedEntry`] and replays it for every target, value bounds
/// included. The caller keeps the entry or drops it (`None`: nothing
/// built). Arguments as for [`run_seed_memo`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn expand_seed(
    wg: &WeightedGraph,
    rows: &CoreRows,
    core: &BitSet,
    seed: VertexId,
    k: usize,
    s: usize,
    greedy: bool,
    scratch: &mut LocalScratch,
    targets: &mut [SeedTarget<'_>],
) -> Option<SeedEntry> {
    if seed_is_hopeless(wg, seed, targets) {
        return None;
    }
    let entry = SeedEntry::build(wg, rows, core, seed, k, s, greedy, scratch);
    replay(wg, rows, k, greedy, &entry, false, scratch, targets);
    Some(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::local_search::tests::{adversarial_weights, spread};
    use crate::algo::local_search::LocalSearchConfig;
    use crate::algo::oracle;
    use ic_kcore::{CascadeRecord, CoreMaintainer, EdgeUpdate, GraphSnapshot};
    use proptest::prelude::*;

    use crate::workload;

    /// A Barabási–Albert graph whose few distinct weights make pools
    /// lean on their tie-break.
    fn graph(n: usize, seed: u64, distinct: u32) -> WeightedGraph {
        let g = ic_gen::barabasi_albert(n, 3, ic_gen::GraphSeed(seed));
        let top = f64::from(distinct + 1);
        let weights = ic_gen::uniform_weights(n, 1.0, top, ic_gen::GraphSeed(seed));
        WeightedGraph::new(g, weights.into_iter().map(f64::floor).collect()).unwrap()
    }

    /// Walks every seed of `family`, in order, with an `avg` and a `sum`
    /// target; returns their lists and what each seed's visit did.
    fn walk(
        snap: &GraphSnapshot,
        family: &MemoFamily<'_>,
        (k, s, greedy): (usize, usize, bool),
    ) -> (TopList, TopList, Vec<SeedVisit>) {
        let (wg, level) = (snap.weighted(), snap.level(k));
        let (rows, _) = CoreRows::cached(snap, k);
        let mut scratch = LocalScratch::new(wg.num_vertices());
        let (mut avg, mut sum) = (TopList::new(3), TopList::new(3));
        let visits = (0..family.seeds().len())
            .map(|at| {
                let mut targets = [
                    SeedTarget {
                        aggregation: Aggregation::Average,
                        list: &mut avg,
                    },
                    SeedTarget {
                        aggregation: Aggregation::Sum,
                        list: &mut sum,
                    },
                ];
                run_seed_memo(
                    wg,
                    &rows,
                    &level.mask,
                    family,
                    at,
                    k,
                    s,
                    greedy,
                    &mut scratch,
                    &mut targets,
                )
            })
            .collect();
        (avg, sum, visits)
    }

    /// Walks every seed of `snap`'s `k`-core through `memo`, then has
    /// every entry kept learn its verdicts.
    fn warm(snap: &GraphSnapshot, memo: &SeedMemo, (k, s, greedy): (usize, usize, bool)) {
        let family = memo.family(&snap.level(k), s, greedy);
        walk(snap, &family, (k, s, greedy));
        let (rows, _) = CoreRows::cached(snap, k);
        let mut scratch = LocalScratch::new(snap.weighted().num_vertices());
        for at in 0..family.seeds().len() {
            if let Some(entry) = family.get(at) {
                entry.learn(snap.weighted(), &rows, k, &mut scratch);
            }
        }
    }

    /// Whether `pool[..len]` induces a connected k-core, by a tracker
    /// that pushes the prefix from scratch.
    fn truth(
        pool: &[VertexId],
        len: usize,
        k: usize,
        rows: &CoreRows,
        scratch: &mut LocalScratch,
    ) -> bool {
        scratch.begin_candidate(k);
        for &v in &pool[..len] {
            scratch.push(rows, v);
        }
        scratch.is_kcore() && scratch.is_connected(rows, pool[0])
    }

    /// Asserts that the family's seed list is `snap`'s k-core and that
    /// every entry `memo` holds for it equals one built fresh on `snap`
    /// — the same pool, the same rows read, and, once learned, each
    /// verdict the tracker's on `snap` — and returns how many it checked.
    fn assert_fresh(
        snap: &GraphSnapshot,
        memo: &SeedMemo,
        (k, s, greedy): (usize, usize, bool),
    ) -> usize {
        let (wg, level) = (snap.weighted(), snap.level(k));
        let (rows, _) = CoreRows::cached(snap, k);
        let family = memo.family(&level, s, greedy);
        let core: Vec<VertexId> = level.mask.iter().map(|v| v as VertexId).collect();
        assert_eq!(family.seeds(), core, "seed list of {k}/{s}/{greedy}");
        let mut scratch = LocalScratch::new(wg.num_vertices());
        let mut checked = 0;
        let slots = &family.family.as_ref().unwrap().slots;
        for (slot, &seed) in slots.iter().zip(family.seeds()) {
            let Some(carried) = slot.get() else { continue };
            let fresh = SeedEntry::build(wg, &rows, &level.mask, seed, k, s, greedy, &mut scratch);
            assert_eq!(
                carried.pool(),
                fresh.pool(),
                "pool of seed {seed}, {k}/{s}/{greedy}"
            );
            assert_eq!(carried.read(), fresh.read(), "rows read for seed {seed}");
            if carried.learned.load(Acquire) {
                for len in k + 1..=fresh.pool_len() {
                    let truth = truth(fresh.pool(), len, k, &rows, &mut scratch);
                    assert_eq!(carried.verdict(len, k), truth, "seed {seed}, prefix {len}");
                }
            }
            checked += 1;
        }
        checked
    }

    /// What `Engine::apply` swaps in after `snap` for `records`: the
    /// successor snapshot, the delta, and the levels whose rows it carried.
    fn successor(
        snap: &GraphSnapshot,
        maintainer: &CoreMaintainer,
        records: &[CascadeRecord],
    ) -> Option<(GraphSnapshot, ApplyDelta, u64)> {
        let delta = ApplyDelta::new(records, snap.graph())?;
        let graph = maintainer.patched_graph(snap.graph(), records);
        let next = snap.successor(graph, maintainer.decomposition(), &delta);
        let carried = CoreRows::carry(snap, &next, &delta);
        Some((next, delta, carried))
    }

    /// The snapshot after `updates` are applied to `snap`, and the
    /// apply's delta.
    fn apply(snap: &GraphSnapshot, updates: &[EdgeUpdate]) -> (GraphSnapshot, ApplyDelta) {
        let mut maintainer = CoreMaintainer::from_graph(snap.graph());
        let records: Vec<CascadeRecord> = updates
            .iter()
            .map(|&update| maintainer.apply_recorded(update))
            .collect();
        let (next, delta, _) = successor(snap, &maintainer, &records).expect("an update applied");
        (next, delta)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// After random toggle scripts — removes of core edges (cascades
        /// that cross levels), inserts between core vertices, no-op
        /// toggles and toggles cancelled inside the same update — the
        /// patched graph equals a `GraphBuilder` rebuild of the edge
        /// set, each level's delta the difference of its k-cores, its
        /// carried rows `CoreRows::build` on the new k-core and every entry
        /// an apply carries one built fresh on the new snapshot, and the
        /// carry both keeps and drops entries.
        #[test]
        fn carried_entries_equal_fresh_builds_on_the_new_snapshot(
            n in 40usize..90,
            seed in any::<u64>(),
            distinct in 2u32..6,
            toggles in 1usize..7,
        ) {
            let families = [(2, 5, true), (2, 8, false), (3, 6, true), (3, 12, true), (4, 9, false)];
            let mut snap = GraphSnapshot::new(graph(n, seed, distinct));
            let mut maintainer = CoreMaintainer::from_graph(snap.graph());
            let mut edges: std::collections::BTreeSet<(VertexId, VertexId)> = snap.graph().edges().collect();
            let mut memo = SeedMemo::default();
            let mut rng = seed | 1;
            let mut draw = move |below: usize| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % below as u64) as VertexId
            };
            let (mut carried, mut dropped) = (0, 0);
            for _ in 0..4 {
                for family in families {
                    warm(&snap, &memo, family);
                }
                let cores = snap.decomposition();
                let core: Vec<VertexId> = (0..n as VertexId).filter(|&v| cores.core_numbers[v as usize] >= 2).collect();
                let mut updates = Vec::new();
                for t in 0..toggles {
                    let u = core[draw(core.len()) as usize];
                    let row = snap.graph().neighbors(u);
                    let w = core[draw(core.len()) as usize];
                    match t % 4 {
                        0 | 3 if !row.is_empty() => {
                            let v = row[draw(row.len()) as usize];
                            updates.push(EdgeUpdate::Remove { u, v });
                            if t % 4 == 3 {
                                // Put back inside the same update.
                                updates.push(EdgeUpdate::Insert { u: v, v: u });
                            }
                        }
                        // Inserting a present edge, or removing an
                        // absent one, changes nothing.
                        2 if !row.is_empty() => updates.push(EdgeUpdate::Insert { u, v: row[0] }),
                        2 if u != w && !row.contains(&w) => updates.push(EdgeUpdate::Remove { u, v: w }),
                        _ if u != w => updates.push(EdgeUpdate::Insert { u, v: w }),
                        _ => {}
                    }
                }
                let records: Vec<CascadeRecord> =
                    updates.iter().map(|&update| maintainer.apply_recorded(update)).collect();
                for (update, record) in updates.iter().zip(&records) {
                    let (u, v) = update.endpoints();
                    let edge = (u.min(v), u.max(v));
                    let changed = if matches!(update, EdgeUpdate::Insert { .. }) {
                        edges.insert(edge)
                    } else {
                        edges.remove(&edge)
                    };
                    prop_assert_eq!(changed, record.applied);
                }
                let patched = maintainer.patched_graph(snap.graph(), &records);
                let rebuilt = ic_graph::GraphBuilder::new()
                    .extend_edges(edges.iter().copied())
                    .reserve_vertices(n)
                    .build();
                prop_assert_eq!(patched.csr_parts(), rebuilt.csr_parts());
                let Some((next, delta, rows_carried)) = successor(&snap, &maintainer, &records) else {
                    continue;
                };
                let ceiling = ApplyDelta::ceiling_of(&records).unwrap() as usize;
                prop_assert_eq!(rows_carried, (2..=4).filter(|&k| k <= ceiling).count() as u64);
                // A changed level's `entered` and `left` are its k-cores' differences.
                let minus = |a: &BitSet, b: &BitSet| -> Vec<VertexId> {
                    a.iter().filter(|&v| !b.contains(v)).map(|v| v as VertexId).collect()
                };
                for k in 0..=ceiling {
                    let (was, now, level) = (snap.level(k), next.level(k), delta.level(k).unwrap());
                    prop_assert_eq!(&level.entered, &minus(&now.mask, &was.mask), "entered at {}", k);
                    prop_assert_eq!(&level.left, &minus(&was.mask, &now.mask), "left at {}", k);
                }
                let Carried { memo: next_memo, dropped: d } = memo.carry(&delta);
                for k in 2..=4 {
                    let rows = next.peek_extension::<CoreRows>(k, 0).expect("level rows carried or shared");
                    let fresh = CoreRows::build(next.weighted(), &next.level(k).mask);
                    prop_assert!(*rows == fresh, "rows at level {}", k);
                }
                prop_assert!(next_memo.bytes() <= memo.bytes() || d == 0);
                dropped += d;
                for family in families {
                    carried += assert_fresh(&next, &next_memo, family);
                }
                (snap, memo) = (next, next_memo);
            }
            prop_assert!(carried > 0 && dropped > 0, "carried {}, dropped {}", carried, dropped);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// An entry's learned verdicts, from one pass over its pool, are
        /// the tracker's `is_kcore && is_connected` for every prefix —
        /// both pool orders, pools cut short and pools that hold their
        /// seed's whole component, past 64 prefixes wherever the level
        /// has a component that large.
        #[test]
        fn learned_verdicts_equal_the_trackers_on_every_prefix(
            wg in workload::arb_workload(workload::Shape::Families(0..4), 0..8, 100..160),
            k in 1usize..4,
        ) {
            let n = wg.num_vertices();
            let snap = GraphSnapshot::new(wg);
            let (wg, level) = (snap.weighted(), snap.level(k));
            let (rows, _) = CoreRows::cached(&snap, k);
            let (mut scratch, mut tracker) = (LocalScratch::new(n), LocalScratch::new(n));
            let mut longest = 0;
            for greedy in [true, false] {
                let firsts: Vec<usize> = level.components.iter().map(|c| c[0] as usize).collect();
                let cut: Vec<usize> = level.mask.iter().step_by(5).collect();
                for (s, seeds) in [(k + 4, cut.clone()), (24, cut), (n, firsts)] {
                    for seed in seeds {
                        let entry = SeedEntry::build(wg, &rows, &level.mask, seed as VertexId, k, s, greedy, &mut scratch);
                        let pool = entry.pool();
                        if pool.len() <= k {
                            continue;
                        }
                        entry.learn(wg, &rows, k, &mut scratch);
                        tracker.begin_candidate(k);
                        for (i, &v) in pool.iter().enumerate() {
                            tracker.push(&rows, v);
                            if i + 1 > k {
                                let truth = tracker.is_kcore() && tracker.is_connected(&rows, pool[0]);
                                prop_assert_eq!(entry.verdict(i + 1, k), truth, "seed {} prefix {}", seed, i + 1);
                            }
                        }
                        longest = longest.max(pool.len() - k);
                    }
                }
            }
            let big = level.components.iter().any(|c| c.len() > 64 + k);
            prop_assert!(longest > 64 || !big, "longest pool {} prefixes", longest);
        }
    }

    /// A clique on `n` vertices without the edges a `rng` draw drops
    /// (about one in three), weighted by [`adversarial_weights`]: some
    /// prefixes of its pools qualify, some do not.
    fn thinned_clique(n: usize, class: u8, seed_at: u8, rng: u64) -> GraphSnapshot {
        let weights = adversarial_weights(n, class, seed_at, rng | 1);
        let edges: Vec<(VertexId, VertexId)> = (0..n as VertexId)
            .flat_map(|u| (0..u).map(move |v| (u, v)))
            .filter(|&(u, v)| {
                (rng ^ u64::from(u * 31 + v)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 62 != 0
            })
            .collect();
        let graph = ic_graph::graph_from_edges(n, &edges);
        GraphSnapshot::new(WeightedGraph::new(graph, weights).unwrap())
    }

    /// Per prefix `len > k` of `entry`'s pool: its value under `agg`, as
    /// an `AggregateState` fed the pool in order holds it, and whether it
    /// induces a connected k-core.
    fn prefixes(
        entry: &SeedEntry,
        agg: Aggregation,
        wg: &WeightedGraph,
        k: usize,
        rows: &CoreRows,
        scratch: &mut LocalScratch,
    ) -> Vec<(f64, bool)> {
        let mut state = AggregateState::new(agg, wg.total_weight());
        let pool = entry.pool();
        let mut out = Vec::new();
        for (i, &v) in pool.iter().enumerate() {
            state.add(wg.weight(v));
            if i + 1 > k {
                out.push((state.value(), truth(pool, i + 1, k, rows, scratch)));
            }
        }
        out
    }

    /// Every aggregation the bound tests try: the built-ins, a negative
    /// surplus, order statistics at their edges and a registered
    /// multiset-backed one.
    fn bounded_aggregations() -> Vec<Aggregation> {
        let ends = [0.0, 0.25, 0.5, 0.9, 1.0].map(|p| Aggregation::Percentile { p });
        let tops = [1, 3, 64].map(|t| Aggregation::TopTSum { t });
        Aggregation::builtins()
            .into_iter()
            .chain([Aggregation::SumSurplus { alpha: -0.75 }, spread()])
            .chain(ends)
            .chain(tops)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Each target's bound is at least every value its replay of the
        /// entry computes that could be inserted: before the entry learns
        /// its verdicts, each prefix `len > k` for the prefix strategy and
        /// the first state for the sum strategy; after, only the
        /// qualifying prefixes, and the first state only when some prefix
        /// qualifies. On thinned cliques of adversarial weights, for every
        /// seed, both pool orders, and every aggregation that has a bound.
        #[test]
        fn entry_bounds_dominate_every_value_their_replay_computes(
            n in 4usize..32,
            class in 0u8..5,
            seed_at in 0u8..4,
            k in 0usize..3,
            extra in 1usize..40,
            rng in any::<u64>(),
        ) {
            let snap = thinned_clique(n, class, seed_at, rng);
            let (wg, level) = (snap.weighted(), snap.level(k));
            let (rows, _) = CoreRows::cached(&snap, k);
            let mut scratch = LocalScratch::new(n);
            let (s, mut bounded) = (k + extra, 0);
            for greedy in [true, false] {
                for seed in level.mask.iter() {
                    let entry = SeedEntry::build(wg, &rows, &level.mask, seed as VertexId, k, s, greedy, &mut scratch);
                    if entry.pool_len() <= k {
                        continue;
                    }
                    for learned in [false, true] {
                        if learned {
                            entry.learn(wg, &rows, k, &mut scratch);
                        }
                        for agg in bounded_aggregations() {
                            let Some(bound) = entry.bound(agg, wg, k, greedy) else { continue };
                            bounded += 1;
                            let values = prefixes(&entry, agg, wg, k, &rows, &mut scratch);
                            let any = values.iter().any(|&(_, q)| q);
                            // `SumStrategy` tests its first state, the
                            // whole pool's value, before any other.
                            let first = values.len() - 1;
                            let tested = if agg.certificates().incremental_removal { &values[first..] } else { &values[..] };
                            for &(value, qualifies) in tested {
                                if !learned || qualifies || (any && agg.certificates().incremental_removal) {
                                    prop_assert!(value <= bound, "{} of {:?}: {} > {}", agg.name(), entry.pool(), value, bound);
                                }
                            }
                        }
                    }
                }
            }
            prop_assert!(bounded > 0);
        }

        /// Once learned, the bound of each class it is exact for — `avg`
        /// in both pool orders, `top-t-sum`, `min` and percentiles over a
        /// greedy pool — is, bit for bit, the largest value (by
        /// `total_cmp`) of a qualifying prefix, and every class's is `−∞`
        /// when no prefix qualifies. On thinned cliques of adversarial
        /// weights, the seed among them anywhere.
        #[test]
        fn learned_bounds_are_the_largest_qualifying_value_bit_for_bit(
            n in 4usize..32,
            class in 0u8..5,
            seed_at in 0u8..4,
            k in 0usize..3,
            extra in 1usize..40,
            rng in any::<u64>(),
        ) {
            let snap = thinned_clique(n, class, seed_at, rng);
            let (wg, level) = (snap.weighted(), snap.level(k));
            let (rows, _) = CoreRows::cached(&snap, k);
            let mut scratch = LocalScratch::new(n);
            let s = k + extra;
            let mut exact = 0;
            for greedy in [true, false] {
                for seed in level.mask.iter() {
                    let entry = SeedEntry::build(wg, &rows, &level.mask, seed as VertexId, k, s, greedy, &mut scratch);
                    if entry.pool_len() <= k {
                        continue;
                    }
                    entry.learn(wg, &rows, k, &mut scratch);
                    for agg in bounded_aggregations() {
                        let bound = entry.bound(agg, wg, k, greedy);
                        let values = prefixes(&entry, agg, wg, k, &rows, &mut scratch);
                        let qualifying = values.iter().filter(|&&(_, q)| q).map(|&(v, _)| v);
                        let Some(largest) = qualifying.max_by(f64::total_cmp) else {
                            prop_assert_eq!(bound, Some(f64::NEG_INFINITY), "{} of {:?}", agg.name(), entry.pool());
                            continue;
                        };
                        let is_exact = match agg {
                            Aggregation::Average => true,
                            Aggregation::Min | Aggregation::Percentile { .. } | Aggregation::TopTSum { .. } => greedy,
                            _ => false,
                        };
                        if is_exact {
                            exact += 1;
                            let got = bound.map(f64::to_bits);
                            prop_assert_eq!(got, Some(largest.to_bits()), "{} of {:?}", agg.name(), entry.pool());
                        }
                    }
                }
            }
            prop_assert!(exact > 0 || level.mask.is_empty());
        }
    }

    #[test]
    fn an_entry_no_prefix_of_which_qualifies_bounds_every_class_at_minus_infinity() {
        // A 6-cycle is its own 2-core; a pool of 5 is a path, and no
        // prefix of a path is a 2-core.
        let edges: Vec<(VertexId, VertexId)> = (0..6).map(|v| (v, (v + 1) % 6)).collect();
        let weights = (0..6).map(f64::from).collect();
        let graph = ic_graph::graph_from_edges(6, &edges);
        let snap = GraphSnapshot::new(WeightedGraph::new(graph, weights).unwrap());
        let (wg, level) = (snap.weighted(), snap.level(2));
        let (rows, _) = CoreRows::cached(&snap, 2);
        let mut scratch = LocalScratch::new(6);
        for greedy in [true, false] {
            let entry = SeedEntry::build(wg, &rows, &level.mask, 0, 2, 5, greedy, &mut scratch);
            assert_eq!(entry.pool_len(), 5);
            entry.learn(wg, &rows, 2, &mut scratch);
            for agg in bounded_aggregations() {
                let bound = entry.bound(agg, wg, 2, greedy);
                assert_eq!(bound, Some(f64::NEG_INFINITY), "{}", agg.name());
            }
        }
    }

    #[test]
    fn bounds_read_while_another_walk_learns_the_entry_still_cap_it() {
        // No prefix of a 6-cycle's 5-pool is a 2-core; every prefix past
        // 2 of an 80-clique's pool is, and learning it takes a while.
        let cycle: Vec<(VertexId, VertexId)> = (0..6).map(|v| (v, (v + 1) % 6)).collect();
        let clique: Vec<(VertexId, VertexId)> =
            (0..80).flat_map(|u| (0..u).map(move |v| (u, v))).collect();
        for (n, edges, s) in [(6, cycle, 5), (80, clique, 80)] {
            let weights = (0..n).map(|v| f64::from(v * 37 % 23)).collect();
            let graph = ic_graph::graph_from_edges(n as usize, &edges);
            let snap = GraphSnapshot::new(WeightedGraph::new(graph, weights).unwrap());
            let (wg, level, k) = (snap.weighted(), snap.level(2), 2);
            let (rows, _) = CoreRows::cached(&snap, k);
            let mut scratch = LocalScratch::new(n as usize);
            let build = |scratch: &mut LocalScratch| {
                SeedEntry::build(wg, &rows, &level.mask, 0, k, s, true, scratch)
            };
            let probe = build(&mut scratch);
            // What a bound must cap: the largest qualifying value, or for
            // `SumStrategy` its first state, when some prefix qualifies.
            let largest: Vec<(Aggregation, Option<f64>)> = bounded_aggregations()
                .into_iter()
                .map(|agg| {
                    let values = prefixes(&probe, agg, wg, k, &rows, &mut scratch);
                    let mut qualifying = values.iter().filter(|&&(_, q)| q).map(|&(v, _)| v);
                    let cap = match agg.certificates().incremental_removal {
                        true => qualifying.next().and(values.last().map(|&(v, _)| v)),
                        false => qualifying.max_by(f64::total_cmp),
                    };
                    (agg, cap)
                })
                .collect();
            for _ in 0..32 {
                let entry = build(&mut scratch);
                let start = std::sync::Barrier::new(2);
                std::thread::scope(|threads| {
                    threads.spawn(|| {
                        start.wait();
                        entry.learn(wg, &rows, k, &mut LocalScratch::new(n as usize));
                    });
                    start.wait();
                    loop {
                        let done = entry.learned.load(Acquire);
                        for &(agg, largest) in &largest {
                            let bound = entry.bound(agg, wg, k, true);
                            let caps = |b: f64| largest.is_none_or(|l| b >= l);
                            assert!(bound.is_none_or(caps), "{}: {bound:?}", agg.name());
                        }
                        if done {
                            break;
                        }
                    }
                });
            }
        }
    }

    #[test]
    fn a_warm_walk_skips_by_bound_and_answers_as_a_cold_one() {
        // k = 2: at k = 3 few pools of a BA(3) graph qualify, no list
        // fills, and no bar rises to skip against.
        let (n, k, s) = (120, 2, 8);
        let wg = graph(n, 11, 5);
        let snap = GraphSnapshot::new(wg.clone());
        let memo = SeedMemo::default();
        for greedy in [true, false] {
            let family = memo.family(&snap.level(k), s, greedy);
            let config = LocalSearchConfig { k, r: 3, s, greedy };
            for pass in 0..2 {
                let (avg, sum, visits) = walk(&snap, &family, (k, s, greedy));
                let count = |want: SeedVisit| visits.iter().filter(|&&v| v == want).count();
                let (skipped, replayed) = (count(SeedVisit::Skipped), count(SeedVisit::Replayed));
                if pass == 0 {
                    assert_eq!(skipped + replayed, 0, "a cold walk builds every pool");
                } else {
                    assert_eq!(skipped + replayed, visits.len(), "a warm one builds none");
                    assert!(
                        skipped > 0 && replayed > 0,
                        "{skipped} skipped, {replayed} replayed"
                    );
                }
                // A cold walk replays its fresh entries with the same code
                // as a warm one: the paper-printed oracle is the reference.
                assert_eq!(
                    avg.into_vec(),
                    oracle::local_search(&wg, &config, Aggregation::Average).unwrap()
                );
                assert_eq!(
                    sum.into_vec(),
                    oracle::local_search(&wg, &config, Aggregation::Sum).unwrap()
                );
            }
        }
    }

    #[test]
    fn a_family_over_budget_is_walked_like_an_unmemoized_one() {
        // `s` above the core size: every pool is its seed's whole
        // component, and only the first few entries fit the budget.
        let (n, k, s) = (60, 3, 64);
        let wg = graph(n, 7, 4);
        let snap = GraphSnapshot::new(wg.clone());
        let level = snap.level(k);
        let memo = SeedMemo::with_budget(FamilyMemo::slot_bytes(level.mask.count()) + 4_000);
        let mut refused = 0;
        for greedy in [true, false] {
            let family = memo.family(&level, s, greedy);
            for pass in 0..2 {
                let (avg, sum, visits) = walk(&snap, &family, (k, s, greedy));
                let count =
                    |want: fn(&SeedVisit) -> bool| visits.iter().filter(|v| want(v)).count();
                let replayed = count(|v| *v == SeedVisit::Replayed);
                let built = count(|v| matches!(v, SeedVisit::Built(_)));
                assert_eq!(replayed + built, visits.len(), "no `min` target");
                let config = LocalSearchConfig { k, r: 3, s, greedy };
                assert_eq!(
                    avg.into_vec(),
                    oracle::local_search(&wg, &config, Aggregation::Average).unwrap()
                );
                assert_eq!(
                    sum.into_vec(),
                    oracle::local_search(&wg, &config, Aggregation::Sum).unwrap()
                );
                assert!(
                    memo.bytes() <= memo.budget,
                    "{} > {}",
                    memo.bytes(),
                    memo.budget
                );
                if greedy && pass == 1 {
                    assert!(
                        replayed > 0 && built > 0,
                        "replayed {replayed}, built {built}"
                    );
                }
                // Every build of the memoized family not replayed later
                // was an entry the budget turned away.
                if greedy {
                    refused += built - replayed;
                }
            }
            // The second family's slots no longer fit: it is walked bare.
            assert_eq!(family.family.is_some(), greedy);
        }
        assert_eq!(memo.take_refused(), refused as u64 + 1);
    }

    #[test]
    fn a_family_the_budget_cannot_hold_is_counted_as_refused() {
        let snap = GraphSnapshot::new(graph(60, 7, 4));
        let level = snap.level(3);
        let slots = FamilyMemo::slot_bytes(level.mask.count());
        for (room, refused) in [(1, 1), (2, 0)] {
            let memo = SeedMemo::with_budget(room * slots);
            let held = [true, false].map(|greedy| memo.family(&level, 8, greedy).family.is_some());
            assert_eq!(held, [true, room == 2]);
            assert_eq!(memo.take_refused(), refused, "room for {room}");
            assert_eq!(memo.take_refused(), 0, "taken once");
        }
    }

    #[test]
    fn families_are_charged_by_their_level_not_by_the_graph() {
        // A 40-vertex 8-core with a 4,000-vertex path hanging off it: the
        // 4-core is 1% of the graph.
        let (core, n, k) = (40, 4_040, 4);
        let mut edges: Vec<(VertexId, VertexId)> = (0..core)
            .flat_map(|v| (1..=4).map(move |d| (v, (v + d) % core)))
            .collect();
        edges.extend((core..n).map(|v| (v - 1, v)));
        let weights = (0..n).map(|v| f64::from(v % 7 + 1)).collect();
        let graph = ic_graph::graph_from_edges(n as usize, &edges);
        let snap = GraphSnapshot::new(WeightedGraph::new(graph, weights).unwrap());
        let (wg, level) = (snap.weighted(), snap.level(k));
        let (rows, _) = CoreRows::cached(&snap, k);
        let seeds: Vec<VertexId> = level.mask.iter().map(|v| v as VertexId).collect();
        assert_eq!(seeds.len(), core as usize);
        // Room for exactly the families' level-sized slots and entries.
        let families = [6, 8, 10, 12].map(|s| (k, s, true));
        let mut scratch = LocalScratch::new(n as usize);
        let mut budget = 0;
        for (k, s, greedy) in families {
            budget += FamilyMemo::slot_bytes(seeds.len());
            for &seed in &seeds {
                let entry =
                    SeedEntry::build(wg, &rows, &level.mask, seed, k, s, greedy, &mut scratch);
                budget += entry.bytes();
            }
        }
        let memo = SeedMemo::with_budget(budget);
        for pass in 0..2 {
            for family in families {
                let (_, _, visits) = walk(&snap, &memo.family(&level, family.1, true), family);
                // A warm seed is replayed, or skipped by its entry's bounds.
                let warm = visits.iter().filter(|v| !matches!(v, SeedVisit::Built(_)));
                let want = if pass == 0 { 0 } else { seeds.len() };
                assert_eq!(warm.count(), want, "pass {pass}, family {family:?}");
            }
        }
        assert!(memo.bytes() <= budget, "{} > {budget}", memo.bytes());
        assert_eq!(memo.take_refused(), 0);
    }

    #[test]
    fn carried_entries_move_to_their_seeds_new_slots() {
        // A 30-vertex ring with chords to the second neighbour (every
        // vertex of core number 4), and vertex 30 hanging off 20 and 22.
        let n: VertexId = 31;
        let mut edges: Vec<(VertexId, VertexId)> = (0..30)
            .flat_map(|v| [(v, (v + 1) % 30), (v, (v + 2) % 30)])
            .collect();
        edges.extend([(20, 30), (22, 30)]);
        let weights = (0..n).map(|v| f64::from(v * 7 % 11 + 1)).collect();
        let graph = ic_graph::graph_from_edges(n as usize, &edges);
        let snap = GraphSnapshot::new(WeightedGraph::new(graph, weights).unwrap());
        let k = 3;
        let families = [(k, 4, true), (k, 6, false)];
        let sized = SeedMemo::default();
        for family in families {
            warm(&snap, &sized, family);
        }
        let budget = sized.bytes();
        let memo = SeedMemo::with_budget(budget);
        for family in families {
            warm(&snap, &memo, family);
        }
        assert_eq!(memo.bytes(), budget);
        // 5 leaves the 3-core, shifting every later seed down a slot, and
        // 30 enters it.
        let updates = [
            EdgeUpdate::Remove { u: 5, v: 6 },
            EdgeUpdate::Remove { u: 5, v: 7 },
            EdgeUpdate::Insert { u: 24, v: 30 },
        ];
        let (next, delta) = apply(&snap, &updates);
        let level = next.level(k);
        assert!(!level.mask.contains(5) && level.mask.contains(30));
        let Carried {
            memo: carried,
            dropped,
            ..
        } = memo.carry(&delta);
        assert!(dropped > 0);
        assert!(carried.bytes() <= budget, "{} > {budget}", carried.bytes());
        let shifted: Vec<VertexId> = level.mask.iter().map(|v| v as VertexId).collect();
        for family @ (_, s, greedy) in families {
            assert!(assert_fresh(&next, &carried, family) > 0, "{family:?}");
            let held = carried.family(&level, s, greedy);
            assert_eq!(held.seeds(), shifted);
            let entered = shifted.binary_search(&30).unwrap();
            assert!(
                held.get(entered).is_none(),
                "the entering seed has no entry"
            );
        }

        // A grown core whose families' slots no longer fit: the carry
        // reserves them, and refuses the one that does not fit.
        let level = snap.level(k);
        let slots = FamilyMemo::slot_bytes(level.mask.count());
        let memo = SeedMemo::with_budget(2 * slots);
        for (_, s, greedy) in families {
            assert!(memo.family(&level, s, greedy).family.is_some());
        }
        let (next, delta) = apply(&snap, &updates[2..]);
        assert_eq!(next.level(k).mask.count(), level.mask.count() + 1);
        let carried = memo.carry(&delta).memo;
        assert!(
            carried.bytes() <= 2 * slots,
            "{} > {}",
            carried.bytes(),
            2 * slots
        );
        assert_eq!(carried.take_refused(), 1);
    }
}
