//! The seed memo: what Algorithm 4 learns about a seed that no query can
//! change, kept per `(snapshot, k, s, greedy)` and replayed.
//!
//! A seed's pool — the truncated BFS over the level's [`CoreRows`],
//! sorted for greedy — depends on the level's k-core alone, and so does
//! the one graph fact a strategy asks of a pool prefix: does it induce a
//! connected k-core? Everything else a strategy reads is the prefix's
//! weights and its own list's bar. A [`SeedEntry`] keeps the pool in
//! strategy order, the vertices whose rows its build read, and, once it
//! has learned them, that fact for every prefix as packed bits. A family
//! walk ([`MemoFamily::walk`]) replays an entry for every target instead
//! of rebuilding the pool. `replay` holds Algorithm 4's one production
//! `SumStrategy` and `AvgStrategy`: prefix values come from the
//! [`prefix_values`] kernel and `AggregateState` removes, and a prefix is
//! competitive against the list's bar as it stands at that seed. A seed
//! without an entry is expanded by `expand_seed` — build a fresh entry,
//! replay it, testing prefixes with the degree tracker as a strategy asks
//! — which is also every unmemoized walk's expansion (`Query::solve`,
//! TONIC), so a replay inserts exactly what a fresh expansion does.
//!
//! Beside each entry its family keeps a fixed-size [`Record`] of the
//! numbers folded from its pool: its length, the pool-order sum, the two
//! heaviest weights, the largest prefix mean and a `min` cap. Off them
//! each target's [`Cap`], chosen by its certificates, caps every value
//! the target's replay would compute; a target whose cap is at or below
//! its bar is left out, and a seed no target is left for is skipped. The
//! first warm replay a target is not left out of has the entry learn its
//! verdicts, in one pass over the pool (the degree tracker's pushes and a
//! union-find over pool positions), and from then on the record is over
//! the qualifying prefixes only — the ones a replay can insert: `−∞` when
//! none does. For the order statistics whose values are monotone in a
//! greedy pool's prefix length, `top-t-sum` and percentiles, the entry
//! then refines the cap to the largest qualifying value itself, bit for
//! bit ([`SeedEntry::bound`]). Seeds are still visited in ascending order
//! and a skipped target could insert nothing, so answers do not change.
//!
//! A walk settles most skips from the records alone: a seed every
//! target's cap rules out is skipped without touching its entry, and the
//! entry's refinement is read only for the seeds that are left. Every 32
//! slots a block record keeps the field-wise maxima of its slots'
//! records, re-summarized by the walk that reaches it after a publish,
//! and a block every target's cap rules out is jumped whole.
//!
//! A family keeps one slot per seed of its level, in the ascending order
//! a walk visits them, so it costs what its level's k-core holds, not
//! what the graph does. [`SeedMemo::carry`] hands the next snapshot
//! every entry an apply's [`ApplyDelta`] shows it left alone, at its
//! seed's new slot, verdicts and record and all. The memo is bounded by a
//! fixed per-snapshot byte budget; a family or an entry that does not fit
//! is walked without one.

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
/// of a 10⁴-vertex graph, peaks at 35.6 MB of it with the slot and block
/// records charged (32.9 MB when each entry held the fields itself).
const MEMO_BUDGET: usize = 36 << 20;

/// A prefix a replay has not tested yet.
const UNTESTED: u8 = 0;
/// A prefix that induces a connected k-core.
const QUALIFIES: u8 = 1;
/// A prefix that does not.
const FAILS: u8 = 2;

/// Slots a block record summarizes.
const BLOCK: usize = 32;

/// A record's state: no entry kept for the slot.
const EMPTY: u8 = 0;
/// An entry kept that has not learned its verdicts.
const BUILT: u8 = 1;
/// Learned, and some prefix qualifies.
const LEARNED: u8 = 2;
/// No prefix qualifies: learned so, or the pool is too short to host a
/// k-core. Every cap is `−∞`.
const NOTHING: u8 = 3;
/// A block's field-wise maxima, not one seed's numbers: a cap that needs
/// those is `+∞`.
const SUMMARY: u8 = 4;

/// What a skip reads of one seed's expansion — a slot record — or, as
/// field-wise maxima, of a block of slots (`SUMMARY`). Each number
/// is over every prefix `len > k` while the entry has not learned its
/// verdicts and over the qualifying ones once it has, so learning only
/// ever lowers a field; `NOTHING` holds `−∞` in every weight field.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Record {
    state: u8,
    /// The shortest and the longest pool: a slot's is its pool's length
    /// twice.
    len: (u32, u32),
    /// The pool-order sum of the weights: `sum_replay`'s first state.
    total: f64,
    /// The heaviest and the second-heaviest weight of the longest
    /// qualifying prefix (greedy; the pool's heaviest twice while
    /// unlearned, and always in random order). A greedy pool's heaviest
    /// weight is in every prefix of two or more members, so `w1` is the
    /// pool's heaviest in every state but `NOTHING`.
    w1: f64,
    w2: f64,
    /// The bits of the largest `sum / len`, each as an `avg` replay
    /// computes it.
    peak_mean: f64,
    /// A greedy pool's `min` at its shortest qualifying prefix once
    /// learned, and the seed's weight before (every candidate holds the
    /// seed, so either is at least the learned bound); the pool's
    /// heaviest in random order.
    min_cap: f64,
}

impl Record {
    /// An invalid block: every cap `+∞`.
    const UNKNOWN: Record = Record {
        state: SUMMARY,
        len: (0, u32::MAX),
        total: f64::INFINITY,
        w1: f64::INFINITY,
        w2: f64::INFINITY,
        peak_mean: f64::INFINITY,
        min_cap: f64::INFINITY,
    };

    /// A `len`-vertex pool no prefix of which qualifies.
    fn nothing(len: u32) -> Record {
        Record {
            state: NOTHING,
            len: (len, len),
            total: f64::NEG_INFINITY,
            w1: f64::NEG_INFINITY,
            w2: f64::NEG_INFINITY,
            peak_mean: f64::NEG_INFINITY,
            min_cap: f64::NEG_INFINITY,
        }
    }

    pub(crate) fn pool_len(&self) -> usize {
        self.len.1 as usize
    }

    fn learned(&self) -> bool {
        matches!(self.state, LEARNED | NOTHING)
    }

    /// The field-wise maxima of `self` and `other`, and their length span.
    fn join(self, other: &Record) -> Record {
        Record {
            state: SUMMARY,
            len: (self.len.0.min(other.len.0), self.len.1.max(other.len.1)),
            total: self.total.max(other.total),
            w1: self.w1.max(other.w1),
            w2: self.w2.max(other.w2),
            peak_mean: self.peak_mean.max(other.peak_mean),
            min_cap: self.min_cap.max(other.min_cap),
        }
    }

    /// `top-t-sum`'s cap: at most the sum of all weights and the
    /// heaviest plus `t − 1` times the second — or `t` times the second,
    /// whichever is larger, so that an unlearned record's is at least
    /// `min(total, t·max)` bit for bit — computed in other orders than
    /// the value, so with DESIGN §5's rounding margin.
    fn top_t(&self, t: f64) -> f64 {
        let heavy = (t * self.w2).max(self.w1 + (t - 1.0) * self.w2);
        let b = self.total.min(heavy);
        b + 4.0 * f64::EPSILON * (f64::from(self.len.1) + 1.0) * b.abs()
    }
}

/// A [`Record`] as a family keeps it, for walks to read while others
/// publish: the state and length in one word, stored `Release` after the
/// other five (`Relaxed`) and loaded `Acquire` before them.
#[derive(Default)]
struct RecordCell([AtomicU64; 6]);

impl RecordCell {
    fn load(&self) -> Record {
        let head = self.0[0].load(Acquire);
        let [total, w1, w2, peak_mean, min_cap] =
            std::array::from_fn(|i| f64::from_bits(self.0[i + 1].load(Relaxed)));
        let len = (head >> 8) as u32;
        Record {
            state: head as u8,
            len: (len, len),
            total,
            w1,
            w2,
            peak_mean,
            min_cap,
        }
    }

    fn store(&self, r: &Record) {
        let fields = [r.total, r.w1, r.w2, r.peak_mean, r.min_cap];
        for (cell, field) in self.0[1..].iter().zip(fields) {
            cell.store(field.to_bits(), Relaxed);
        }
        self.0[0].store(u64::from(r.len.1) << 8 | u64::from(r.state), Release);
    }
}

/// A block record: the field-wise maxima of its slots' records and their
/// length span, `+∞` while a slot is empty. `dirty` is set, `Release`,
/// after every publish to one of its slots, and taken by the walk that
/// re-summarizes it. A block starts as [`Record::UNKNOWN`], which caps
/// every record, and records only fall, so a summary read from older
/// records, or mixed field by field from two summaries or from a summary
/// and the start, still caps them.
struct BlockCell {
    dirty: AtomicBool,
    /// Shortest pool in the low half, longest in the high.
    len: AtomicU64,
    fields: [AtomicU64; 5],
}

impl BlockCell {
    fn new() -> BlockCell {
        let block = BlockCell {
            dirty: AtomicBool::new(true),
            len: AtomicU64::default(),
            fields: Default::default(),
        };
        block.store(&Record::UNKNOWN);
        block
    }

    fn load(&self) -> Record {
        let len = self.len.load(Relaxed);
        let [total, w1, w2, peak_mean, min_cap] =
            std::array::from_fn(|i| f64::from_bits(self.fields[i].load(Relaxed)));
        Record {
            state: SUMMARY,
            len: (len as u32, (len >> 32) as u32),
            total,
            w1,
            w2,
            peak_mean,
            min_cap,
        }
    }

    fn store(&self, r: &Record) {
        self.len
            .store(u64::from(r.len.0) | u64::from(r.len.1) << 32, Relaxed);
        let fields = [r.total, r.w1, r.w2, r.peak_mean, r.min_cap];
        for (cell, field) in self.fields.iter().zip(fields) {
            cell.store(field.to_bits(), Relaxed);
        }
    }
}

/// How a target caps, off a seed's [`Record`] (or a block's), every value
/// a replay of the seed (of any of its seeds) could insert: the one table
/// a replay leaves a target out by, and a walk skips a seed or jumps a
/// block by. Until learned the cap is over every value the replay
/// computes, once learned over the qualifying prefixes (DESIGN §5).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Cap {
    /// `sum`: the first `SumStrategy` state, bit for bit.
    Sum,
    /// `sum-surplus`, `sum + α·len`, bit for bit; a block's at its shorter
    /// pool when `α < 0`.
    Surplus(f64),
    /// Any other `incremental_removal` class without a multiset: `f` at
    /// `(len, total)` (and the graph's total weight), bit for bit; not
    /// monotone in the fields, so `+∞` off a block.
    State(Aggregation, f64),
    /// `avg`: `peak_mean`, the very `sum / len` the replay computes.
    Mean,
    /// `min`: `min_cap`. Every candidate holds the seed.
    Min,
    /// `top-t-sum`, `t`: [`Record::top_t`].
    TopT(usize),
    /// A percentile `p`: `w2` when `second` — a greedy pool's nearest
    /// rank below the heaviest at every length a pool can have — else
    /// `w1`. A value is some member's weight.
    Percentile { p: f64, second: bool },
    /// Any other node-dominated class: `w1`.
    Heaviest,
    /// Anything else: only `NOTHING` caps it.
    Open,
}

impl Cap {
    /// The cap of `agg` over a graph of `total` weight, for a family at
    /// `(k, greedy)` whose pools hold at most `longest` vertices.
    pub(crate) fn new(agg: Aggregation, total: f64, k: usize, longest: usize, greedy: bool) -> Cap {
        let certificates = agg.certificates();
        match agg {
            Aggregation::Sum => Cap::Sum,
            Aggregation::SumSurplus { alpha } => Cap::Surplus(alpha),
            _ if certificates.incremental_removal && !certificates.needs_multiset => {
                Cap::State(agg, total)
            }
            Aggregation::Average => Cap::Mean,
            Aggregation::Min => Cap::Min,
            Aggregation::TopTSum { t } => Cap::TopT(t),
            Aggregation::Percentile { p } => {
                let rank = |n: usize| builtin::Percentile { p }.index(n);
                let second = greedy && (k + 1..=longest).all(|n| rank(n) + 2 <= n);
                Cap::Percentile { p, second }
            }
            _ if certificates.node_domination => Cap::Heaviest,
            _ => Cap::Open,
        }
    }

    fn of(self, r: &Record) -> f64 {
        if r.w1 == f64::NEG_INFINITY {
            return f64::NEG_INFINITY; // nothing qualifies
        }
        match self {
            Cap::Sum => r.total,
            Cap::Surplus(alpha) => {
                let len = if alpha < 0.0 { r.len.0 } else { r.len.1 };
                r.total + alpha * len as f64
            }
            Cap::State(aggregation, total_weight) if r.state != SUMMARY => {
                let first = StateView::new(r.pool_len(), r.total, total_weight, None);
                aggregation.with_fn(|f| f.evaluate_state(&first))
            }
            Cap::Mean => r.peak_mean,
            Cap::Min => r.min_cap,
            Cap::TopT(t) => r.top_t(t as f64),
            Cap::Percentile { second: true, .. } => r.w2,
            Cap::Percentile { .. } | Cap::Heaviest => r.w1,
            Cap::State(..) | Cap::Open => f64::INFINITY,
        }
    }
}

/// Whether `r` caps every target at or below its list's bar.
fn beaten(caps: &[Cap], r: &Record, targets: &[SeedTarget<'_>]) -> bool {
    (caps.iter().zip(targets)).all(|(cap, t)| cap.of(r) <= t.list.threshold())
}

/// One seed's expansion at `(k, s, greedy)`, beside its [`Record`].
pub(crate) struct SeedEntry {
    /// The pool in strategy order (its record's length), then the
    /// vertices whose rows the pool build read.
    ids: Box<[VertexId]>,
    /// Once learned, bit `len - k - 1` (byte `/ 8`, bit `% 8`) for each
    /// prefix length `len` in `k + 1 ..= pool_len`: whether `pool[..len]`
    /// induces a connected k-core. Walks that learn an entry at once
    /// write the same bits.
    verdicts: Box<[AtomicU8]>,
}

impl SeedEntry {
    /// Builds `seed`'s pool, in strategy order, with nothing learned, and
    /// its record.
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
    ) -> (SeedEntry, Record) {
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
        let len = u32::try_from(pool.len()).expect("a pool fits 32-bit ids");
        let record = match pool.len() > k {
            true => Record {
                state: BUILT,
                len: (len, len),
                total,
                w1: max,
                w2: max,
                peak_mean,
                min_cap: if greedy { wg.weight(seed) } else { max },
            },
            false => Record::nothing(len),
        };
        let entry = SeedEntry {
            ids: ids.into_boxed_slice(),
            verdicts: (0..pool.len().saturating_sub(k).div_ceil(8))
                .map(|_| AtomicU8::new(0))
                .collect(),
        };
        (entry, record)
    }

    /// A value no replay of this entry for a target whose [`Cap`] is
    /// `cap` inserts a community of more than: the cap off the entry's
    /// `record`, but for the order statistics a learned greedy entry
    /// knows exactly — `top-t-sum`'s value at the longest qualifying
    /// prefix, and a percentile's at the shortest or at the shortest
    /// whose nearest rank is past the minimum, whichever is larger (DESIGN
    /// §5 has the proofs). Never above the cap.
    fn bound(&self, record: &Record, cap: Cap, wg: &WeightedGraph, k: usize, greedy: bool) -> f64 {
        let capped = cap.of(record);
        if !greedy || record.state != LEARNED {
            return capped;
        }
        let Some((shortest, longest)) = self.qualifying(k) else {
            return capped;
        };
        match cap {
            Cap::TopT(t) => {
                // The value's own additions: the `t` heaviest, heaviest first.
                let heaviest = self.heaviest(wg, longest);
                let mut sum = 0.0;
                for at in 0..t.min(longest) {
                    sum += heaviest(at);
                }
                sum
            }
            Cap::Percentile { p, .. } => {
                let rank = |len: usize| builtin::Percentile { p }.index(len);
                let value = |len: usize| self.heaviest(wg, len)(len - 1 - rank(len));
                let past_min = (shortest..=record.pool_len()).find(|&len| rank(len) > 0);
                let first = value(shortest);
                let later = past_min.and_then(|len| self.qualifying_from(len, k));
                let later = later.map_or(first, value);
                if later.total_cmp(&first).is_gt() {
                    later
                } else {
                    first
                }
            }
            _ => capped,
        }
    }

    pub(crate) fn pool(&self, record: &Record) -> &[VertexId] {
        &self.ids[..record.pool_len()]
    }

    fn read(&self, record: &Record) -> &[VertexId] {
        &self.ids[record.pool_len()..]
    }

    /// What the entry costs the budget: its allocations and the `Arc`
    /// that holds it. Its record is charged with its family's slots.
    fn bytes(&self) -> usize {
        size_of::<Self>() + 2 * size_of::<usize>() + 4 * self.ids.len() + self.verdicts.len()
    }

    /// Works out, in one pass over the pool, which prefixes induce a
    /// connected k-core, and returns `record` over the qualifying ones:
    /// the largest mean among them and, for a greedy pool, the two
    /// heaviest weights of the longest and the `min` of the shortest.
    #[allow(clippy::too_many_arguments)]
    fn learn(
        &self,
        record: &Record,
        wg: &WeightedGraph,
        rows: &CoreRows,
        k: usize,
        greedy: bool,
        scratch: &mut LocalScratch,
    ) -> Record {
        let pool = self.pool(record);
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
        let Some((shortest, longest)) = self.qualifying(k) else {
            return Record::nothing(record.len.1);
        };
        let (mut sum, mut peak_mean) = (0.0, f64::NEG_INFINITY);
        for (i, &v) in pool.iter().enumerate() {
            sum += wg.weight(v);
            if i + 1 > k && self.verdict(i + 1, k) {
                peak_mean = peak_mean.max(sum / (i + 1) as f64);
            }
        }
        let mut learned = Record {
            state: LEARNED,
            peak_mean,
            ..*record
        };
        if greedy {
            let heaviest = self.heaviest(wg, longest);
            (learned.w1, learned.w2) = (heaviest(0), heaviest(1.min(longest - 1)));
            learned.min_cap = self.heaviest(wg, shortest)(shortest - 1);
        }
        learned
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
/// whose [`bound`](SeedEntry::bound) (from its cap in `caps`) is at or
/// below its list's bar: no community its replay could insert would beat
/// the bar. A `warm` replay (of a memoized entry) whose bounds leave a
/// target has the entry [`learn`](SeedEntry::learn) its verdicts first —
/// `record` becomes the learned one — and bounds again; a cold one tests
/// prefixes with the degree tracker, shared by the targets, so a prefix
/// is tested once.
/// Returns whether any target was replayed.
#[allow(clippy::too_many_arguments)]
fn replay(
    wg: &WeightedGraph,
    rows: &CoreRows,
    k: usize,
    greedy: bool,
    entry: &SeedEntry,
    record: &mut Record,
    warm: bool,
    scratch: &mut LocalScratch,
    caps: &[Cap],
    targets: &mut [SeedTarget<'_>],
) -> bool {
    let pool = entry.pool(record);
    if pool.len() <= k {
        return false; // cannot host a k-core
    }
    let (mut tracked, mut replayed) = (None, false);
    for (target, &cap) in targets.iter_mut().zip(caps) {
        let (agg, bar) = (target.aggregation, target.list.threshold());
        let beaten = |r: &Record| entry.bound(r, cap, wg, k, greedy) <= bar;
        if beaten(record) {
            continue;
        }
        if warm && !record.learned() {
            *record = entry.learn(record, wg, rows, k, greedy, scratch);
            if beaten(record) {
                continue;
            }
        }
        let mut ascending = std::mem::take(&mut scratch.ascending);
        let mut tested = std::mem::take(&mut scratch.tested);
        let learned = record.learned();
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
/// slot and a record per seed of its level, slot `i` for the `i`-th
/// vertex of the ascending k-core, and a block record per [`BLOCK`]
/// slots.
struct FamilyMemo {
    slots: Box<[OnceLock<Arc<SeedEntry>>]>,
    records: Box<[RecordCell]>,
    blocks: Box<[BlockCell]>,
    /// Bytes of the slots, records and blocks, and of every entry set in
    /// the slots.
    bytes: AtomicUsize,
}

impl FamilyMemo {
    fn slot_bytes(seeds: usize) -> usize {
        let slot = size_of::<OnceLock<Arc<SeedEntry>>>() + size_of::<RecordCell>();
        seeds * slot + seeds.div_ceil(BLOCK) * size_of::<BlockCell>()
    }

    fn new(seeds: usize) -> FamilyMemo {
        FamilyMemo {
            slots: (0..seeds).map(|_| OnceLock::new()).collect(),
            records: (0..seeds).map(|_| RecordCell::default()).collect(),
            blocks: (0..seeds.div_ceil(BLOCK))
                .map(|_| BlockCell::new())
                .collect(),
            bytes: AtomicUsize::new(Self::slot_bytes(seeds)),
        }
    }

    /// Stores slot `at`'s record and marks its block for re-summary.
    fn publish(&self, at: usize, record: &Record) {
        self.records[at].store(record);
        self.blocks[at / BLOCK].dirty.store(true, Release);
    }

    /// Block `b`'s record, re-summarized from its slots' records first
    /// when a publish has marked it since the last summary.
    fn block(&self, b: usize) -> Record {
        let block = &self.blocks[b];
        if !block.dirty.swap(false, Acquire) {
            return block.load();
        }
        let end = self.records.len().min((b + 1) * BLOCK);
        let mut summary = Record::nothing(0);
        summary.len = (u32::MAX, 0);
        for cell in &self.records[b * BLOCK..end] {
            let record = cell.load();
            if record.state == EMPTY {
                summary = Record::UNKNOWN;
                break;
            }
            summary = summary.join(&record);
        }
        block.store(&summary);
        summary
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

    /// Bytes the memo holds in slots, records and entries; never more
    /// than its fixed budget. The levels' seed lists, 4 B a seed, are the
    /// walks' and are not charged.
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
            k,
            s,
            greedy,
            family,
        }
    }

    /// The memo the snapshot an apply swaps in starts with. A family
    /// above `delta`'s ceiling is shared whole. At a changed level the
    /// seed list is the old one without `left` and with `entered`, and
    /// the family starts over it, its slots reserved like a new family's
    /// and every block marked for re-summary; an entry is shared, with a
    /// copy of its record, at its seed's new slot and if the budget has
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
            let old = family.slots.iter().zip(family.records.iter());
            for ((slot, cell), seed) in old.zip(families.seeds[&key.0].iter()) {
                let Some(entry) = slot.get() else { continue };
                let record = cell.load();
                let kept = |entry: &SeedEntry| {
                    !entry.read(&record).iter().any(reached) && !toggled(entry.pool(&record))
                };
                match seeds.binary_search(seed) {
                    Ok(at) if kept(entry) => {
                        if next.reserve(entry.bytes()) {
                            fresh.records[at].store(&record);
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

/// One family as a seed walk holds it: its level's seeds, its
/// `(k, s, greedy)`, and its memo (`None`: the budget had no room for its
/// slots) with the snapshot memo whose budget new entries are charged to.
pub struct MemoFamily<'a> {
    memo: &'a SeedMemo,
    seeds: Arc<[VertexId]>,
    k: usize,
    s: usize,
    greedy: bool,
    family: Option<Arc<FamilyMemo>>,
}

/// What a [`MemoFamily::walk`] did with its seeds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkCounts {
    /// Seeds walked, jumped ones included.
    pub visited: u64,
    /// Seeds no target could use: nothing built, nothing replayed.
    pub skipped: u64,
    /// Of `skipped`, seeds jumped with their block.
    pub jumped: u64,
    /// Of `skipped`, seeds their slot record skipped, entry untouched.
    pub capped: u64,
    /// Seeds replayed from the memo: no pool built.
    pub replayed: u64,
    /// Vertices of the pools built.
    pub pooled: u64,
}

impl WalkCounts {
    fn add(&mut self, visit: SeedVisit) {
        self.visited += 1;
        match visit {
            SeedVisit::Skipped => self.skipped += 1,
            SeedVisit::Capped => {
                self.skipped += 1;
                self.capped += 1;
            }
            SeedVisit::Replayed => self.replayed += 1,
            SeedVisit::Built(pool) => self.pooled += pool as u64,
        }
    }
}

/// What [`MemoFamily::visit`] did with a seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SeedVisit {
    /// No target could use the seed's pool: nothing built, nothing
    /// replayed. Either every target is a `min` whose bar is at or above
    /// the seed's weight, or the seed's entry cannot host a k-core or
    /// bounds every target's values at or below its bar.
    Skipped,
    /// Skipped by its slot record: the entry was not read.
    Capped,
    /// Replayed from the memo: no pool built.
    Replayed,
    /// A pool of this many vertices built.
    Built(usize),
}

impl MemoFamily<'_> {
    /// The level's k-core in ascending order: the seeds to walk.
    pub fn seeds(&self) -> &[VertexId] {
        &self.seeds
    }

    /// Walks the level's seeds in ascending order for every target at
    /// once, inserting into each target's list exactly what a fresh
    /// expansion of each seed does, until `stop` says so (it is asked
    /// before each seed and each block). A block whose record caps every
    /// target at or below its bar is jumped; otherwise each seed's record
    /// is read first, then its entry is replayed for the targets its
    /// bounds do not rule out, or the seed is expanded afresh and its
    /// entry kept, once every target is served and when the budget
    /// allows, for later walks on this snapshot and, through
    /// [`SeedMemo::carry`], later snapshots. `core` must be the level's
    /// mask, `rows` its [`CoreRows`], `scratch` sized to the graph; the
    /// walk against one list reproduces `Query::solve`'s.
    #[allow(clippy::too_many_arguments)]
    pub fn walk(
        &self,
        wg: &WeightedGraph,
        rows: &CoreRows,
        core: &BitSet,
        scratch: &mut LocalScratch,
        targets: &mut [SeedTarget<'_>],
        mut stop: impl FnMut() -> bool,
    ) -> WalkCounts {
        let caps = self.caps(wg, targets);
        let mut counts = WalkCounts::default();
        let mut at = 0;
        while at < self.seeds.len() && !stop() {
            if let Some(family) = self.family.as_ref().filter(|_| at % BLOCK == 0) {
                if beaten(&caps, &family.block(at / BLOCK), targets) {
                    let end = self.seeds.len().min(at + BLOCK);
                    let jumped = (end - at) as u64;
                    counts.visited += jumped;
                    counts.skipped += jumped;
                    counts.jumped += jumped;
                    at = end;
                    continue;
                }
            }
            counts.add(self.visit(wg, rows, core, at, &caps, scratch, targets));
            at += 1;
        }
        counts
    }

    /// Each target's [`Cap`] in this family.
    fn caps(&self, wg: &WeightedGraph, targets: &[SeedTarget<'_>]) -> Vec<Cap> {
        let (total, longest) = (wg.total_weight(), self.s.min(self.seeds.len()));
        (targets.iter())
            .map(|t| Cap::new(t.aggregation, total, self.k, longest, self.greedy))
            .collect()
    }

    /// Expands seed `at` — `self.seeds()[at]` — for every target: skipped
    /// when its record caps every target at or below its bar; replayed
    /// from its entry, for the targets the entry's bounds do not rule
    /// out, when it has one (none left: skipped); expanded afresh and its
    /// entry kept otherwise.
    #[allow(clippy::too_many_arguments)]
    fn visit(
        &self,
        wg: &WeightedGraph,
        rows: &CoreRows,
        core: &BitSet,
        at: usize,
        caps: &[Cap],
        scratch: &mut LocalScratch,
        targets: &mut [SeedTarget<'_>],
    ) -> SeedVisit {
        let (seed, k, s, greedy) = (self.seeds[at], self.k, self.s, self.greedy);
        let held = self.family.as_ref().and_then(|family| {
            let record = family.records[at].load();
            let entry = family.slots[at].get().filter(|_| record.state != EMPTY)?;
            Some((family, record, entry))
        });
        let Some((family, mut record, entry)) = held else {
            let expanded = expand_seed(wg, rows, core, seed, k, s, greedy, scratch, caps, targets);
            return match expanded {
                Some((entry, record)) => {
                    self.keep(at, entry, &record);
                    SeedVisit::Built(record.pool_len())
                }
                None => SeedVisit::Skipped,
            };
        };
        if beaten(caps, &record, targets) {
            return SeedVisit::Capped;
        }
        if seed_is_hopeless(wg, seed, targets) {
            return SeedVisit::Skipped;
        }
        let state = record.state;
        let replayed = replay(
            wg,
            rows,
            k,
            greedy,
            entry,
            &mut record,
            true,
            scratch,
            caps,
            targets,
        );
        if record.state != state {
            family.publish(at, &record);
        }
        match replayed {
            true => SeedVisit::Replayed,
            false => SeedVisit::Skipped,
        }
    }

    /// Keeps `entry` and its `record` for seed `at` when the family has a
    /// memo and the entry fits the budget; the record is published before
    /// the entry can be read. A racing walk may have kept the seed's
    /// entry first; the two are the same.
    fn keep(&self, at: usize, entry: SeedEntry, record: &Record) {
        let Some(family) = &self.family else { return };
        let bytes = entry.bytes();
        if !self.memo.reserve(bytes) {
            return;
        }
        let mut kept = false;
        family.slots[at].get_or_init(|| {
            family.records[at].store(record);
            kept = true;
            Arc::new(entry)
        });
        if kept {
            family.blocks[at / BLOCK].dirty.store(true, Release);
            family.bytes.fetch_add(bytes, Relaxed);
        } else {
            self.memo.bytes.fetch_sub(bytes, Relaxed);
        }
    }
}

/// Algorithm 4's one seed expansion, run by `Query::solve`, TONIC and a
/// memo walk's unmemoized seeds: unless [`seed_is_hopeless`], builds
/// `seed`'s [`SeedEntry`] and replays it for every target, value bounds
/// included, `caps[i]` the [`Cap`] of `targets[i]`. The caller keeps the
/// entry and its record or drops them (`None`: nothing built). Arguments
/// as for [`MemoFamily::walk`].
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
    caps: &[Cap],
    targets: &mut [SeedTarget<'_>],
) -> Option<(SeedEntry, Record)> {
    if seed_is_hopeless(wg, seed, targets) {
        return None;
    }
    let (entry, mut record) = SeedEntry::build(wg, rows, core, seed, k, s, greedy, scratch);
    replay(
        wg,
        rows,
        k,
        greedy,
        &entry,
        &mut record,
        false,
        scratch,
        caps,
        targets,
    );
    Some((entry, record))
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

    /// Walks the first `upto` seeds of `family` for one target per
    /// aggregation, `lists[i]` collecting `aggregations[i]`'s: by blocks
    /// ([`MemoFamily::walk`]), or seed by seed, every seed's record and
    /// then its entry. Returns the walk's counts and its target replays
    /// and inserts.
    fn walk_targets(
        snap: &GraphSnapshot,
        family: &MemoFamily<'_>,
        aggregations: &[Aggregation],
        lists: &mut [TopList],
        upto: usize,
        blocks: bool,
    ) -> (WalkCounts, (u64, u64)) {
        let (wg, level) = (snap.weighted(), snap.level(family.k));
        let (rows, _) = CoreRows::cached(snap, family.k);
        let mut scratch = LocalScratch::new(wg.num_vertices());
        let mut targets: Vec<SeedTarget<'_>> = (aggregations.iter().zip(lists))
            .map(|(&aggregation, list)| SeedTarget { aggregation, list })
            .collect();
        let counts = if blocks {
            let mut asked = 0;
            let stop = || {
                asked += 1;
                asked > upto
            };
            family.walk(wg, &rows, &level.mask, &mut scratch, &mut targets, stop)
        } else {
            let caps = family.caps(wg, &targets);
            let mut counts = WalkCounts::default();
            for at in 0..family.seeds().len().min(upto) {
                let visit = family.visit(
                    wg,
                    &rows,
                    &level.mask,
                    at,
                    &caps,
                    &mut scratch,
                    &mut targets,
                );
                counts.add(visit);
            }
            counts
        };
        (counts, scratch.take_target_counts())
    }

    /// Walks every seed of `family`, in order, with an `avg` and a `sum`
    /// target (r = 3); returns their lists and the walk's counts.
    fn walk(snap: &GraphSnapshot, family: &MemoFamily<'_>) -> (TopList, TopList, WalkCounts) {
        let mut lists = [TopList::new(3), TopList::new(3)];
        let deck = [Aggregation::Average, Aggregation::Sum];
        let (counts, _) = walk_targets(snap, family, &deck, &mut lists, usize::MAX, true);
        let [avg, sum] = lists;
        (avg, sum, counts)
    }

    /// Seeds a walk built a pool for.
    fn built(counts: &WalkCounts) -> u64 {
        counts.visited - counts.skipped - counts.replayed
    }

    /// Slot `at`'s entry and record, when it holds one.
    fn held<'a>(family: &'a MemoFamily<'_>, at: usize) -> Option<(&'a SeedEntry, Record)> {
        let memo = family.family.as_ref()?;
        Some((memo.slots[at].get()?, memo.records[at].load()))
    }

    /// Walks every seed of `snap`'s `k`-core through `memo`, then has
    /// every entry kept learn its verdicts.
    fn warm(snap: &GraphSnapshot, memo: &SeedMemo, (k, s, greedy): (usize, usize, bool)) {
        let family = memo.family(&snap.level(k), s, greedy);
        walk(snap, &family);
        let (rows, _) = CoreRows::cached(snap, k);
        let mut scratch = LocalScratch::new(snap.weighted().num_vertices());
        for at in 0..family.seeds().len() {
            if let Some((entry, record)) = held(&family, at) {
                let learned = entry.learn(&record, snap.weighted(), &rows, k, greedy, &mut scratch);
                family.family.as_ref().unwrap().publish(at, &learned);
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
    /// — the same pool, the same rows read, the same record, and, once
    /// learned, each verdict the tracker's on `snap` and the record the
    /// fresh entry learns — and returns how many it checked.
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
        for (at, &seed) in family.seeds().iter().enumerate() {
            let Some((carried, record)) = held(&family, at) else {
                continue;
            };
            let (fresh, mut want) =
                SeedEntry::build(wg, &rows, &level.mask, seed, k, s, greedy, &mut scratch);
            assert_eq!(
                carried.pool(&record),
                fresh.pool(&want),
                "pool of seed {seed}, {k}/{s}/{greedy}"
            );
            assert_eq!(
                carried.read(&record),
                fresh.read(&want),
                "rows read for seed {seed}"
            );
            if record.learned() && want.state == BUILT {
                for len in k + 1..=want.pool_len() {
                    let truth = truth(fresh.pool(&want), len, k, &rows, &mut scratch);
                    assert_eq!(carried.verdict(len, k), truth, "seed {seed}, prefix {len}");
                }
                want = fresh.learn(&want, wg, &rows, k, greedy, &mut scratch);
            }
            assert_eq!(record, want, "record of seed {seed}, {k}/{s}/{greedy}");
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
                        let (entry, record) = SeedEntry::build(wg, &rows, &level.mask, seed as VertexId, k, s, greedy, &mut scratch);
                        let pool = entry.pool(&record);
                        if pool.len() <= k {
                            continue;
                        }
                        entry.learn(&record, wg, &rows, k, greedy, &mut scratch);
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
        (entry, record): (&SeedEntry, &Record),
        agg: Aggregation,
        wg: &WeightedGraph,
        k: usize,
        rows: &CoreRows,
        scratch: &mut LocalScratch,
    ) -> Vec<(f64, bool)> {
        let mut state = AggregateState::new(agg, wg.total_weight());
        let pool = entry.pool(record);
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
        // p on both sides of k / (k + 1), where a greedy percentile's record
        // cap moves from `w2` to `w1`.
        let ends = [0.0, 0.25, 0.45, 0.5, 0.55, 0.6, 0.7, 0.8, 0.9, 1.0];
        let ends = ends.map(|p| Aggregation::Percentile { p });
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
        /// qualifies. The bound is at most the record's cap — what a walk
        /// skips by, entry untouched — so a record skip is one the entry
        /// path makes too, and learning never raises a cap. On thinned
        /// cliques of adversarial weights, for every seed, both pool
        /// orders, and every aggregation that has a bound.
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
            let longest = s.min(level.mask.count());
            for greedy in [true, false] {
                for seed in level.mask.iter() {
                    let (entry, built) = SeedEntry::build(wg, &rows, &level.mask, seed as VertexId, k, s, greedy, &mut scratch);
                    if built.pool_len() <= k {
                        continue;
                    }
                    let taught = entry.learn(&built, wg, &rows, k, greedy, &mut scratch);
                    for learned in [false, true] {
                        let record = if learned { taught } else { built };
                        for agg in bounded_aggregations() {
                            let cap = Cap::new(agg, wg.total_weight(), k, longest, greedy);
                            let (lowered, capped) = (cap.of(&taught), cap.of(&record));
                            prop_assert!(cap.of(&built) >= lowered, "{} learned cap {} > {}", agg.name(), lowered, cap.of(&built));
                            let bound = entry.bound(&record, cap, wg, k, greedy);
                            prop_assert!(capped >= bound, "{} record cap {} < bound {}", agg.name(), capped, bound);
                            if bound == f64::INFINITY {
                                continue;
                            }
                            bounded += 1;
                            let values = prefixes((&entry, &record), agg, wg, k, &rows, &mut scratch);
                            let any = values.iter().any(|&(_, q)| q);
                            // `SumStrategy` tests its first state, the
                            // whole pool's value, before any other.
                            let first = values.len() - 1;
                            let tested = if agg.certificates().incremental_removal { &values[first..] } else { &values[..] };
                            for &(value, qualifies) in tested {
                                if !learned || qualifies || (any && agg.certificates().incremental_removal) {
                                    prop_assert!(value <= bound, "{} of {:?}: {} > {}", agg.name(), entry.pool(&record), value, bound);
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
        /// when no prefix qualifies. The record caps are at least it, and
        /// for `avg` and greedy `min` are it: the entry refines only the
        /// order statistics. On thinned cliques of adversarial weights, the
        /// seed among them anywhere.
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
            let longest = s.min(level.mask.count());
            let mut exact = 0;
            for greedy in [true, false] {
                for seed in level.mask.iter() {
                    let (entry, built) = SeedEntry::build(wg, &rows, &level.mask, seed as VertexId, k, s, greedy, &mut scratch);
                    if built.pool_len() <= k {
                        continue;
                    }
                    let record = entry.learn(&built, wg, &rows, k, greedy, &mut scratch);
                    for agg in bounded_aggregations() {
                        let cap = Cap::new(agg, wg.total_weight(), k, longest, greedy);
                        let bound = entry.bound(&record, cap, wg, k, greedy);
                        let cap = cap.of(&record);
                        let values = prefixes((&entry, &record), agg, wg, k, &rows, &mut scratch);
                        let qualifying = values.iter().filter(|&&(_, q)| q).map(|&(v, _)| v);
                        let Some(largest) = qualifying.max_by(f64::total_cmp) else {
                            prop_assert_eq!(bound, f64::NEG_INFINITY, "{} of {:?}", agg.name(), entry.pool(&record));
                            prop_assert_eq!(cap, f64::NEG_INFINITY, "{} record of {:?}", agg.name(), entry.pool(&record));
                            continue;
                        };
                        let is_exact = match agg {
                            Aggregation::Average => true,
                            Aggregation::Min | Aggregation::Percentile { .. } | Aggregation::TopTSum { .. } => greedy,
                            _ => false,
                        };
                        if is_exact {
                            exact += 1;
                            prop_assert_eq!(bound.to_bits(), largest.to_bits(), "{} of {:?}", agg.name(), entry.pool(&record));
                            prop_assert!(cap >= largest, "{} record cap {} < {}", agg.name(), cap, largest);
                        }
                    }
                }
            }
            prop_assert!(exact > 0 || level.mask.is_empty());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// A block's record caps every live slot's record under every
        /// aggregation — while some slots are empty (every cap `+∞`), as a
        /// summary taken before more of its entries learned, which is what
        /// a walk reads until it re-summarizes, and as what a walk loads
        /// while another stores a summary field by field: the span of a
        /// new block or of one summary beside the numbers of another. On a
        /// family walked part way, and learned in part, in both pool
        /// orders.
        #[test]
        fn block_caps_dominate_each_live_slots_cap(
            wg in workload::arb_workload(workload::Shape::Families(0..4), 0..8, 100..160),
            k in 1usize..4,
            extra in 1usize..30,
            greedy in any::<bool>(),
        ) {
            let snap = GraphSnapshot::new(wg);
            let (memo, s) = (SeedMemo::default(), k + extra);
            let family = memo.family(&snap.level(k), s, greedy);
            let n = family.seeds().len();
            if n == 0 {
                return Ok(());
            }
            let mut lists = [TopList::new(3), TopList::new(3)];
            let deck = [Aggregation::Average, Aggregation::Min];
            walk_targets(&snap, &family, &deck, &mut lists, 2 * n / 3 + 1, true);
            let (rows, _) = CoreRows::cached(&snap, k);
            let mut scratch = LocalScratch::new(snap.weighted().num_vertices());
            let memo_family = family.family.as_ref().unwrap();
            let blocks = n.div_ceil(BLOCK);
            for b in 0..blocks {
                memo_family.block(b);
            }
            for at in (0..n).step_by(2) {
                if let Some((entry, record)) = held(&family, at) {
                    let learned = entry.learn(&record, snap.weighted(), &rows, k, greedy, &mut scratch);
                    memo_family.publish(at, &learned);
                }
            }
            let (longest, total) = (s.min(n), snap.weighted().total_weight());
            // A block holding `span`'s length span and `fields`' numbers.
            let torn = |span: &Record, fields: &Record| {
                let (cell, span_cell) = (BlockCell::new(), BlockCell::new());
                span_cell.store(span);
                cell.store(fields);
                cell.len.store(span_cell.len.load(Relaxed), Relaxed);
                cell.load()
            };
            for b in 0..blocks {
                let (stale, fresh) = (memo_family.blocks[b].load(), memo_family.block(b));
                let start = BlockCell::new().load();
                let mixed = [torn(&start, &fresh), torn(&start, &stale), torn(&stale, &fresh), torn(&fresh, &stale)];
                for at in b * BLOCK..n.min((b + 1) * BLOCK) {
                    let record = memo_family.records[at].load();
                    for agg in bounded_aggregations() {
                        let cap = Cap::new(agg, total, k, longest, greedy);
                        if record.state == EMPTY {
                            prop_assert_eq!(cap.of(&fresh), f64::INFINITY, "{} of block {}", agg.name(), b);
                            continue;
                        }
                        for block in [stale, fresh].iter().chain(&mixed) {
                            prop_assert!(cap.of(block) >= cap.of(&record), "{} of slot {} in block {}", agg.name(), at, b);
                        }
                    }
                }
            }
        }

        /// A walk that jumps blocks answers, skips, replays and builds
        /// exactly what a walk that reads every seed's record and then its
        /// entry does, target replays included: two memos walked the same
        /// way but for the jumps stay the same. A cold walk over part of
        /// the seeds leaves the family built in part; two warm walks at
        /// other `r` follow, and one more over each memo's carry through
        /// an apply.
        #[test]
        fn a_block_jumping_walk_equals_a_seed_by_seed_walk(
            n in 60usize..120,
            seed in any::<u64>(),
            distinct in 2u32..6,
            k in 2usize..4,
            extra in 2usize..12,
            greedy in any::<bool>(),
            deck in 0usize..4,
        ) {
            let decks: [&[Aggregation]; 4] = [
                &[Aggregation::Average],
                &[Aggregation::Min],
                &[Aggregation::Sum, Aggregation::Percentile { p: 0.5 }],
                &[Aggregation::TopTSum { t: 3 }, Aggregation::Min, spread()],
            ];
            let deck = decks[deck];
            let snap = GraphSnapshot::new(graph(n, seed, distinct));
            let core: Vec<VertexId> = snap.level(k).mask.iter().map(|v| v as VertexId).collect();
            if core.len() <= 2 {
                return Ok(());
            }
            let s = k + extra;
            let memos = [SeedMemo::default(), SeedMemo::default()];
            let pass = |snap: &GraphSnapshot, memo: &SeedMemo, upto: usize, r: usize, blocks: bool| {
                let family = memo.family(&snap.level(k), s, greedy);
                let mut lists: Vec<TopList> = deck.iter().map(|_| TopList::new(r)).collect();
                let (mut counts, targets) = walk_targets(snap, &family, deck, &mut lists, upto, blocks);
                let jumped = std::mem::take(&mut counts.jumped);
                counts.capped = 0;
                let lists: Vec<Vec<Community>> = lists.into_iter().map(TopList::into_vec).collect();
                (lists, counts, targets, jumped)
            };
            let mut jumps = 0;
            for (upto, r) in [(core.len() / 2, 3), (usize::MAX, 2), (usize::MAX, 5)] {
                let (by_block, by_seed) = (pass(&snap, &memos[0], upto, r, true), pass(&snap, &memos[1], upto, r, false));
                prop_assert_eq!(&by_block.0, &by_seed.0, "lists, r = {}", r);
                prop_assert_eq!(by_block.1, by_seed.1, "counts, r = {}", r);
                prop_assert_eq!(by_block.2, by_seed.2, "target counts, r = {}", r);
                jumps += by_block.3;
            }
            // Cut a core vertex's edge and join two core vertices.
            let u = core[seed as usize % core.len()];
            let cut = snap.graph().neighbors(u)[0];
            let join = core.iter().copied().find(|&w| w != u && !snap.graph().neighbors(u).contains(&w));
            let mut updates = vec![EdgeUpdate::Remove { u, v: cut }];
            updates.extend(join.map(|w| EdgeUpdate::Insert { u, v: w }));
            let (next, delta) = apply(&snap, &updates);
            let carried = memos.map(|memo| memo.carry(&delta).memo);
            let (by_block, by_seed) = (pass(&next, &carried[0], usize::MAX, 4, true), pass(&next, &carried[1], usize::MAX, 4, false));
            prop_assert_eq!(&by_block.0, &by_seed.0, "lists after the apply");
            prop_assert_eq!(by_block.1, by_seed.1, "counts after the apply");
            prop_assert_eq!(by_block.2, by_seed.2, "target counts after the apply");
            prop_assert!(by_block.3 + jumps <= by_block.1.visited * 4);
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
            let (entry, built) =
                SeedEntry::build(wg, &rows, &level.mask, 0, 2, 5, greedy, &mut scratch);
            assert_eq!(built.pool_len(), 5);
            let record = entry.learn(&built, wg, &rows, 2, greedy, &mut scratch);
            for agg in bounded_aggregations() {
                let cap = Cap::new(agg, wg.total_weight(), 2, 5, greedy);
                let bound = entry.bound(&record, cap, wg, 2, greedy);
                assert_eq!(bound, f64::NEG_INFINITY, "{}", agg.name());
                assert_eq!(cap.of(&record), f64::NEG_INFINITY, "{} record", agg.name());
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
            let (probe, probed) = build(&mut scratch);
            // What a bound must cap: the largest qualifying value, or for
            // `SumStrategy` its first state, when some prefix qualifies.
            let largest: Vec<(Aggregation, Option<f64>)> = bounded_aggregations()
                .into_iter()
                .map(|agg| {
                    let values = prefixes((&probe, &probed), agg, wg, k, &rows, &mut scratch);
                    let mut qualifying = values.iter().filter(|&&(_, q)| q).map(|&(v, _)| v);
                    let cap = match agg.certificates().incremental_removal {
                        true => qualifying.next().and(values.last().map(|&(v, _)| v)),
                        false => qualifying.max_by(f64::total_cmp),
                    };
                    (agg, cap)
                })
                .collect();
            for _ in 0..32 {
                let (entry, built) = build(&mut scratch);
                let cell = RecordCell::default();
                cell.store(&built);
                let start = std::sync::Barrier::new(2);
                std::thread::scope(|threads| {
                    threads.spawn(|| {
                        start.wait();
                        let mut scratch = LocalScratch::new(n as usize);
                        cell.store(&entry.learn(&built, wg, &rows, k, true, &mut scratch));
                    });
                    start.wait();
                    loop {
                        let record = cell.load();
                        let done = record.learned();
                        for &(agg, largest) in &largest {
                            let cap = Cap::new(agg, wg.total_weight(), k, s, true);
                            let bound = entry.bound(&record, cap, wg, k, true);
                            let caps = |b: f64| largest.is_none_or(|l| b >= l);
                            assert!(caps(bound), "{}: {bound}", agg.name());
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
                let (avg, sum, counts) = walk(&snap, &family);
                let (skipped, replayed) = (counts.skipped, counts.replayed);
                if pass == 0 {
                    assert_eq!(skipped + replayed, 0, "a cold walk builds every pool");
                } else {
                    assert_eq!(skipped + replayed, counts.visited, "a warm one builds none");
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
                let (avg, sum, counts) = walk(&snap, &family);
                let (replayed, built) = (counts.replayed, built(&counts));
                assert_eq!(replayed + built, counts.visited, "no `min` target");
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
        assert_eq!(memo.take_refused(), refused + 1);
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
                let (entry, _) =
                    SeedEntry::build(wg, &rows, &level.mask, seed, k, s, greedy, &mut scratch);
                budget += entry.bytes();
            }
        }
        let memo = SeedMemo::with_budget(budget);
        for pass in 0..2 {
            for family in families {
                let (_, _, counts) = walk(&snap, &memo.family(&level, family.1, true));
                // A warm seed is replayed, or skipped by its bounds.
                let warm = counts.visited - built(&counts);
                let want = if pass == 0 { 0 } else { seeds.len() as u64 };
                assert_eq!(warm, want, "pass {pass}, family {family:?}");
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
            let family = carried.family(&level, s, greedy);
            assert_eq!(family.seeds(), shifted);
            let entered = shifted.binary_search(&30).unwrap();
            assert!(
                held(&family, entered).is_none(),
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
