//! The seed memo: what Algorithm 4 learns about a seed that no query can
//! change, kept per `(snapshot, k, s, greedy)` and replayed.
//!
//! A seed's pool — the truncated BFS over the level's [`CoreRows`],
//! sorted for greedy — depends on the level's k-core alone, and so does
//! the one graph fact a strategy asks of a pool prefix: does it induce a
//! connected k-core? Everything else a strategy reads is the prefix's
//! weights and its own list's bar. A [`SeedEntry`] keeps the pool in
//! strategy order, the vertices whose rows its build read, and that fact
//! for every prefix some strategy has tested. [`run_seed_memo`] replays
//! an entry for every target instead of rebuilding the pool, and runs
//! the degree tracker only for a prefix no strategy has tested yet.
//! `replay` holds Algorithm 4's one production `SumStrategy` and
//! `AvgStrategy`: prefix values come from the [`prefix_values`] kernel
//! and `AggregateState` removes, and a prefix is competitive against the
//! list's bar as it stands at that seed. A seed without an entry is
//! expanded by `expand_seed` — build a fresh entry, replay it — which is
//! also every unmemoized walk's expansion (`Query::solve`, TONIC), so a
//! replay inserts exactly what a fresh expansion does.
//!
//! An entry also keeps three numbers folded from its pool at build: the
//! heaviest weight, the pool-order sum and the largest prefix mean. From
//! them and a target's certificates, [`SeedEntry::bound`] caps every value
//! the target's replay would compute; a target whose cap is at or below
//! its bar is left out, and a seed no target is left for is skipped.
//! Seeds are still visited in ascending order, so answers do not change.
//!
//! A family keeps one slot per seed of its level, in the ascending order
//! a walk visits them, so it costs what its level's k-core holds, not
//! what the graph does. [`SeedMemo::carry`] hands the next snapshot
//! every entry an apply's [`ApplyDelta`] shows it left alone, at its
//! seed's new slot. The memo is bounded by a fixed per-snapshot byte
//! budget; a family or an entry that does not fit is walked without one.

use crate::aggregate::StateView;
use crate::algo::common::community_from_vertices;
use crate::algo::local_search::{
    heavier_first, prefix_values, seed_is_hopeless, CoreRows, LocalScratch, SeedTarget,
};
use crate::{AggregateState, Aggregation, Community, TopList};
use ic_graph::{BitSet, VertexId, WeightedGraph};
use ic_kcore::{ApplyDelta, CoreLevel, LevelDelta};
use std::collections::HashMap;
use std::mem::size_of;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

/// Bytes one snapshot's memo may hold: `miss_mix`'s whole working set,
/// 132 `(k, s)` families of up to 40-vertex pools over the 4- to 10-cores
/// of a 10⁴-vertex graph, peaks at 35.2 MB of it (31.6 MB before each
/// entry kept 24 B of value bounds).
const MEMO_BUDGET: usize = 36 << 20;

/// A prefix no strategy has tested yet.
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
    pool_len: usize,
    /// Per prefix length `len` in `k + 1 ..= pool_len`, at `len - k - 1`:
    /// untested, or whether `pool[..len]` induces a connected k-core. A
    /// cell only ever moves from `UNTESTED` to the one true verdict, so
    /// walks sharing an entry agree.
    tested: Box<[AtomicU8]>,
    /// The pool's heaviest weight.
    max: f64,
    /// The pool-order sum of its weights: `sum_replay`'s first state.
    total: f64,
    /// The largest `sum / len` over prefixes `len` in `k + 1 ..=
    /// pool_len`, each as an `avg` replay computes it (`−∞`: none).
    peak_mean: f64,
}

impl SeedEntry {
    /// Builds `seed`'s pool, in strategy order, with nothing tested.
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
            pool_len: pool.len(),
            tested: (k + 1..=pool.len())
                .map(|_| AtomicU8::new(UNTESTED))
                .collect(),
            max,
            total,
            peak_mean,
        }
    }

    /// A value no replay of this entry for `aggregation` computes more
    /// than — every prefix value `len > k` of the prefix strategy, the
    /// first state of the sum strategy — or `None` when the certificates
    /// give none. `total_weight` is the graph's `w(V)`.
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
    fn bound(&self, aggregation: Aggregation, total_weight: f64) -> Option<f64> {
        let certificates = aggregation.certificates();
        if certificates.incremental_removal && !certificates.needs_multiset {
            let first = StateView::new(self.pool_len, self.total, total_weight, None);
            return Some(aggregation.with_fn(|f| f.evaluate_state(&first)));
        }
        match aggregation {
            Aggregation::Average => Some(self.peak_mean),
            Aggregation::TopTSum { t } => {
                let b = self.total.min(t as f64 * self.max);
                Some(b + 4.0 * f64::EPSILON * (self.pool_len + 1) as f64 * b.abs())
            }
            _ if certificates.node_domination => Some(self.max),
            _ => None,
        }
    }

    pub(crate) fn pool(&self) -> &[VertexId] {
        &self.ids[..self.pool_len]
    }

    fn read(&self) -> &[VertexId] {
        &self.ids[self.pool_len..]
    }

    /// What the entry costs the budget: its allocations and the `Arc`
    /// that holds it.
    fn bytes(&self) -> usize {
        size_of::<Self>() + 2 * size_of::<usize>() + 4 * self.ids.len() + self.tested.len()
    }

    /// Whether `pool[..len]` (`len > k`) induces a connected k-core: the
    /// verdict some strategy already reached, else the degree tracker's,
    /// which is recorded. `tracked` is the prefix the tracker in
    /// `scratch` holds (`None`: none of this seed's yet); it is moved to
    /// `len` by pushes or pops, and each prefix a push passes that breaks
    /// the degree bound is recorded as failing on the way.
    fn qualifies(
        &self,
        len: usize,
        k: usize,
        rows: &CoreRows,
        scratch: &mut LocalScratch,
        tracked: &mut Option<usize>,
    ) -> bool {
        let cell = &self.tested[len - k - 1];
        match cell.load(Relaxed) {
            QUALIFIES => return true,
            FAILS => return false,
            _ => {}
        }
        let pool = self.pool();
        let held = tracked.unwrap_or_else(|| {
            scratch.begin_candidate(k);
            0
        });
        if held <= len {
            for (at, &v) in pool[..len].iter().enumerate().skip(held) {
                scratch.push(rows, v);
                if at + 1 > k && !scratch.is_kcore() {
                    self.tested[at - k].store(FAILS, Relaxed);
                }
            }
        } else {
            for &v in pool[len..held].iter().rev() {
                scratch.pop(rows, v);
            }
        }
        *tracked = Some(len);
        let verdict = scratch.is_kcore() && scratch.is_connected(rows, pool[0]);
        cell.store(if verdict { QUALIFIES } else { FAILS }, Relaxed);
        verdict
    }
}

/// Applies every target's strategy to `entry`'s pool, but for a target
/// whose [`bound`](SeedEntry::bound) is at or below its list's bar: no
/// value its replay computes could beat the bar, so it would insert
/// nothing. The tracker in `scratch` is shared by the targets, so a
/// prefix is tested once. Returns whether any target was replayed.
fn replay(
    wg: &WeightedGraph,
    rows: &CoreRows,
    k: usize,
    greedy: bool,
    entry: &SeedEntry,
    scratch: &mut LocalScratch,
    targets: &mut [SeedTarget<'_>],
) -> bool {
    let pool = entry.pool();
    if pool.len() <= k {
        return false; // cannot host a k-core
    }
    let total_weight = wg.total_weight();
    let mut ascending = std::mem::take(&mut scratch.ascending);
    let (mut tracked, mut replayed) = (None, false);
    for target in targets {
        let (agg, bar) = (target.aggregation, target.list.threshold());
        if entry.bound(agg, total_weight).is_some_and(|b| b <= bar) {
            continue;
        }
        replayed = true;
        let mut qualifies = |len: usize| entry.qualifies(len, k, rows, scratch, &mut tracked);
        // Strategy by certificate: `SumStrategy` drops from the full pool,
        // so it needs an O(1) remove delta; the rest walk pool prefixes.
        if agg.certificates().incremental_removal {
            sum_replay(wg, pool, k, agg, target.list, &mut qualifies);
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
            );
        }
    }
    scratch.ascending = ascending;
    replayed
}

/// `SumStrategy` over a known pool: from the full pool, drop the last
/// vertex until the candidate qualifies while its value beats the bar.
fn sum_replay(
    wg: &WeightedGraph,
    pool: &[VertexId],
    k: usize,
    aggregation: Aggregation,
    list: &mut TopList,
    qualifies: &mut impl FnMut(usize) -> bool,
) {
    let mut state = AggregateState::new(aggregation, wg.total_weight());
    for &v in pool {
        state.add(wg.weight(v));
    }
    let mut len = pool.len();
    while len > k && state.value() > list.threshold() {
        if qualifies(len) {
            let vertices = pool[..len].to_vec();
            list.insert(community_from_vertices(wg, aggregation, vertices));
            return;
        }
        len -= 1;
        state.remove(wg.weight(pool[len]));
    }
}

/// `AvgStrategy` over a known pool, its values from [`prefix_values`]
/// (`ascending` its buffer): greedy takes the first competitive
/// qualifying prefix, random the best one by `ranking_cmp`.
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
) {
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
    if let Some(b) = best {
        list.insert(b);
    }
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
                let built = entry.pool_len;
                memo.keep(at, entry);
                SeedVisit::Built(built)
            }
            None => SeedVisit::Skipped,
        },
        Some(entry)
            if !seed_is_hopeless(wg, seed, targets)
                && replay(wg, rows, k, greedy, entry, scratch, targets) =>
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
    replay(wg, rows, k, greedy, &entry, scratch, targets);
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

    /// Walks every seed of `snap`'s `k`-core through `memo`, then tests
    /// every prefix of every entry kept: each verdict the memo can hold
    /// is known.
    fn warm(snap: &GraphSnapshot, memo: &SeedMemo, (k, s, greedy): (usize, usize, bool)) {
        let family = memo.family(&snap.level(k), s, greedy);
        walk(snap, &family, (k, s, greedy));
        let (rows, _) = CoreRows::cached(snap, k);
        let mut scratch = LocalScratch::new(snap.weighted().num_vertices());
        for at in 0..family.seeds().len() {
            if let Some(entry) = family.get(at) {
                let mut tracked = None;
                for len in k + 1..=entry.pool_len {
                    entry.qualifies(len, k, &rows, &mut scratch, &mut tracked);
                }
            }
        }
    }

    /// Asserts that the family's seed list is `snap`'s k-core and that
    /// every entry `memo` holds for it equals one built fresh on `snap`
    /// — the same pool, the same rows read, and each verdict it holds
    /// the tracker's on `snap` — and returns how many it checked.
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
            let mut tracked = None;
            for len in k + 1..=fresh.pool_len {
                let known = carried.tested[len - k - 1].load(Relaxed);
                if known != UNTESTED {
                    let truth = fresh.qualifies(len, k, &rows, &mut scratch, &mut tracked);
                    assert_eq!(known == QUALIFIES, truth, "seed {seed}, prefix {len}");
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
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Each target's bound is at least every value its replay of the
        /// entry computes — each prefix `len > k` for the prefix
        /// strategy, the first state for the sum strategy — on cliques
        /// of adversarial weights, for every seed, both pool orders, and
        /// every aggregation that has a bound.
        #[test]
        fn entry_bounds_dominate_every_value_their_replay_computes(
            n in 4usize..32,
            class in 0u8..5,
            seed_at in 0u8..4,
            k in 0usize..3,
            extra in 1usize..40,
            rng in any::<u64>(),
        ) {
            let weights = adversarial_weights(n, class, seed_at, rng | 1);
            let edges: Vec<(VertexId, VertexId)> = (0..n as VertexId)
                .flat_map(|u| (0..u).map(move |v| (u, v)))
                .collect();
            let graph = ic_graph::graph_from_edges(n, &edges);
            let snap = GraphSnapshot::new(WeightedGraph::new(graph, weights).unwrap());
            let (wg, level) = (snap.weighted(), snap.level(k));
            let (rows, _) = CoreRows::cached(&snap, k);
            let mut scratch = LocalScratch::new(n);
            let aggregations: Vec<Aggregation> = Aggregation::builtins()
                .into_iter()
                .chain([
                    Aggregation::SumSurplus { alpha: -0.75 },
                    Aggregation::TopTSum { t: 64 },
                    Aggregation::Percentile { p: 0.9 },
                    spread(),
                ])
                .collect();
            let (s, mut bounded) = (k + extra, 0);
            for greedy in [true, false] {
                for seed in level.mask.iter() {
                    let entry = SeedEntry::build(wg, &rows, &level.mask, seed as VertexId, k, s, greedy, &mut scratch);
                    if entry.pool_len <= k {
                        continue;
                    }
                    for &agg in &aggregations {
                        let Some(bound) = entry.bound(agg, wg.total_weight()) else { continue };
                        bounded += 1;
                        let mut state = AggregateState::new(agg, wg.total_weight());
                        let mut values = Vec::new();
                        for (i, &v) in entry.pool().iter().enumerate() {
                            state.add(wg.weight(v));
                            if i + 1 > k {
                                values.push(state.value());
                            }
                        }
                        // `SumStrategy` tests only its first state: the
                        // whole pool's value.
                        let first = values.len() - 1;
                        let tested = if agg.certificates().incremental_removal { &values[first..] } else { &values[..] };
                        for &value in tested {
                            prop_assert!(value <= bound, "{} of {:?}: {} > {}", agg.name(), entry.pool(), value, bound);
                        }
                    }
                }
            }
            prop_assert!(bounded > 0);
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
