//! The benchmark's own traffic generator. Every stream is a pure
//! function of `--seed`; what is *popular* and what each op *costs* is
//! fixed by the benchmark, so two seeds draw different ops from the
//! same distribution and a fixed-duration window sees the same mix.

use crate::inputs::{fnv1a, FNV_OFFSET};
use crate::rng::{Rng, Zipf};
use ic_core::{Aggregation, Constraint, Query};
use ic_graph::WeightedGraph;
use ic_kcore::EdgeUpdate;

/// The paper's grid (Section VI defaults for the small datasets).
pub const KS: [usize; 4] = [4, 6, 8, 10];
pub const RS: [usize; 4] = [5, 10, 15, 20];

/// One client op: the query and the slot its answer is checked under
/// (`None` = not sampled for checking).
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub slot: Option<u32>,
    pub query: Query,
}

/// An endless seeded op stream for one client connection.
pub trait Stream: Send {
    fn next_op(&mut self) -> Op;
}

fn hash_query(h: u64, q: &Query) -> u64 {
    let (code, param) = match q.aggregation {
        Aggregation::Min => (0u64, 0.0),
        Aggregation::Max => (1, 0.0),
        Aggregation::Sum => (2, 0.0),
        Aggregation::SumSurplus { alpha } => (3, alpha),
        Aggregation::Average => (4, 0.0),
        Aggregation::TopTSum { t } => (7, t as f64),
        Aggregation::Percentile { p } => (8, p),
        other => unreachable!("the generator never emits {other:?}"),
    };
    let bound = match q.constraint {
        Constraint::SizeBound { s, greedy } => (s as u64) << 1 | u64::from(greedy),
        _ => 0,
    };
    [
        q.k as u64,
        q.r as u64,
        code,
        param.to_bits(),
        q.epsilon.to_bits(),
        bound,
    ]
    .into_iter()
    .fold(h, fnv1a)
}

/// Checksum of the first `per_stream` ops of each stream.
pub fn checksum(streams: &mut [Box<dyn Stream>], per_stream: usize) -> u64 {
    let mut h = FNV_OFFSET;
    for stream in streams {
        for _ in 0..per_stream {
            h = hash_query(h, &stream.next_op().query);
        }
    }
    h
}

// ---------------------------------------------------------------------
// hot_mix: Zipf over a fixed, fully warmed template set.

/// `k × r × {min, max, sum, sum ε=0.1, surplus α=0.5, avg/sum/min s=20}`.
pub fn hot_templates() -> Vec<Query> {
    let mut out = Vec::with_capacity(KS.len() * RS.len() * 8);
    for k in KS {
        for r in RS {
            out.extend([
                Query::new(k, r, Aggregation::Min),
                Query::new(k, r, Aggregation::Max),
                Query::new(k, r, Aggregation::Sum),
                Query::new(k, r, Aggregation::Sum).approx(0.1),
                Query::new(k, r, Aggregation::SumSurplus { alpha: 0.5 }),
                Query::new(k, r, Aggregation::Average).size_bound(20, true),
                Query::new(k, r, Aggregation::Sum).size_bound(20, true),
                Query::new(k, r, Aggregation::Min).size_bound(20, true),
            ]);
        }
    }
    out
}

/// Popularity ranks. Each `(k, r)` cell contributes 12 slots — min ×4,
/// max ×2, the six others once — laid out by a fixed stride so rank is
/// not correlated with `k`, `r` or reply size. The layout is a constant
/// of the benchmark, not of the seed: otherwise the seed would decide
/// whether the most popular reply has 60 vertices or 57,000.
fn hot_ranks() -> Vec<u32> {
    const VARIANT_OF_SLOT: [u32; 12] = [0, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7];
    let cells = KS.len() * RS.len();
    let slots = cells * VARIANT_OF_SLOT.len();
    (0..slots)
        .map(|rank| {
            let slot = rank * 77 % slots; // gcd(77, 192) = 1
            let (cell, variant) = (slot % cells, VARIANT_OF_SLOT[slot / cells]);
            cell as u32 * 8 + variant
        })
        .collect()
}

pub struct ZipfStream {
    templates: Vec<Query>,
    ranks: Vec<u32>,
    zipf: Zipf,
    rng: Rng,
    /// Whether replies are checked under their template's slot.
    checked: bool,
}

impl ZipfStream {
    pub fn hot(seed: u64, lane: u64) -> ZipfStream {
        let ranks = hot_ranks();
        ZipfStream {
            templates: hot_templates(),
            zipf: Zipf::new(ranks.len(), 1.1),
            ranks,
            rng: Rng::new(seed, lane),
            checked: true,
        }
    }

    /// `churn` reads: min/max on the grid, 32 templates. Unchecked:
    /// their answers legitimately change with every epoch.
    pub fn churn_reads(seed: u64, lane: u64) -> ZipfStream {
        let templates = churn_read_templates();
        let n = templates.len();
        ZipfStream {
            ranks: (0..n).map(|rank| (rank * 13 % n) as u32).collect(),
            zipf: Zipf::new(n, 1.1),
            templates,
            rng: Rng::new(seed, lane),
            checked: false,
        }
    }
}

impl Stream for ZipfStream {
    fn next_op(&mut self) -> Op {
        let template = self.ranks[self.zipf.sample(&mut self.rng)];
        Op {
            slot: self.checked.then_some(template),
            query: self.templates[template as usize],
        }
    }
}

// ---------------------------------------------------------------------
// miss_mix: a stratified deck with drawn parameters.

#[derive(Clone, Copy)]
enum MissClass {
    /// Plain min/max: index-served, and the only keys that repeat.
    Extremum,
    /// Size-bounded local search with a drawn aggregation and `s`.
    Local,
    /// TIC with a drawn surplus α or approximation ε.
    TicDrawn,
    /// Plain exact sum.
    Sum,
}

/// Ops per deck. Shares are the ISSUE's — 40% plain min/max, 30% local
/// search, 20% drawn TIC, 10% exact sum — and every `(class, k)` pair
/// has a fixed count per deck, because solver cost spans two orders of
/// magnitude across `k` (TIC: 300 ms at k = 4, 2 ms at k = 10): i.i.d.
/// draws would let the seed decide how much work a window holds.
///
/// Drawn TIC ops stay off k = 4 ([`TIC_DRAWN_PER_K`]). One batcher runs
/// admission batches serially, so a 300 ms op holds its whole batch; with
/// two such ops per deck a third of the batches took 300 ms and the rest
/// 45 ms, and a window's throughput was the count of a few dozen slow
/// batches — 17% apart between runs of one build. With the heaviest ops
/// at 30–65 ms (TIC at k = 6, local search at k = 4, s near 40) every
/// batch costs about the same and a window holds hundreds of them.
pub const MISS_DECK: usize = 40;

/// Drawn TIC ops per deck at each `k` of [`KS`].
const TIC_DRAWN_PER_K: [usize; 4] = [0, 3, 3, 2];

/// The `miss_mix` keys that repeat: what the `Extremum` and `Sum`
/// classes can draw.
pub fn miss_repeating_keys() -> Vec<Query> {
    let mut out = Vec::with_capacity(KS.len() * RS.len() * 3);
    for k in KS {
        for r in RS {
            out.extend(
                [Aggregation::Min, Aggregation::Max, Aggregation::Sum].map(|a| Query::new(k, r, a)),
            );
        }
    }
    out
}

pub struct MissStream {
    rng: Rng,
    deck: Vec<(MissClass, usize)>,
    next: usize,
    issued: u64,
    /// Every `sample_every`-th op is checked, under slots
    /// `slots.start..slots.end` (disjoint between client streams).
    sample_every: u64,
    slots: std::ops::Range<u32>,
}

impl MissStream {
    pub fn new(seed: u64, lane: u64, slots: std::ops::Range<u32>) -> MissStream {
        let mut deck = Vec::with_capacity(MISS_DECK);
        for (k, tic_drawn) in KS.into_iter().zip(TIC_DRAWN_PER_K) {
            deck.extend([(MissClass::Extremum, k); 4]);
            deck.extend([(MissClass::Local, k); 3]);
            deck.extend(std::iter::repeat_n((MissClass::TicDrawn, k), tic_drawn));
            deck.push((MissClass::Sum, k));
        }
        debug_assert_eq!(deck.len(), MISS_DECK);
        MissStream {
            rng: Rng::new(seed, lane),
            deck,
            next: MISS_DECK,
            issued: 0,
            sample_every: 3,
            slots,
        }
    }

    /// The classes whose keys repeat draw `r` from the grid; the drawn
    /// classes draw it from the grid's whole span and their parameter to
    /// three decimals, so that of the few thousand ops of a window only a
    /// few in a hundred find their key in the result cache — with coarser
    /// draws the hit rate, and with it throughput, climbs through the
    /// window.
    fn draw(&mut self, class: MissClass, k: usize) -> Query {
        let rng = &mut self.rng;
        let grid_r = RS[rng.below(RS.len())];
        let any_r = rng.between(RS[0], RS[RS.len() - 1]);
        match class {
            MissClass::Extremum => {
                let agg = if rng.below(2) == 0 {
                    Aggregation::Min
                } else {
                    Aggregation::Max
                };
                Query::new(k, grid_r, agg)
            }
            MissClass::Local => {
                let agg = match rng.below(5) {
                    0 => Aggregation::Average,
                    1 => Aggregation::Sum,
                    2 => Aggregation::Min,
                    3 => Aggregation::Percentile {
                        p: rng.between(500, 990) as f64 / 1000.0,
                    },
                    _ => Aggregation::TopTSum {
                        t: rng.between(1, 8),
                    },
                };
                Query::new(k, any_r, agg).size_bound(rng.between(k + 1, 40), true)
            }
            MissClass::TicDrawn => {
                if rng.below(2) == 0 {
                    let alpha = rng.below(1000) as f64 / 1000.0;
                    Query::new(k, any_r, Aggregation::SumSurplus { alpha })
                } else {
                    let epsilon = rng.between(10, 500) as f64 / 1000.0;
                    Query::new(k, any_r, Aggregation::Sum).approx(epsilon)
                }
            }
            MissClass::Sum => Query::new(k, grid_r, Aggregation::Sum),
        }
    }
}

impl Stream for MissStream {
    fn next_op(&mut self) -> Op {
        if self.next == self.deck.len() {
            self.rng.shuffle(&mut self.deck);
            self.next = 0;
        }
        let (class, k) = self.deck[self.next];
        self.next += 1;
        let query = self.draw(class, k);
        let slot = if self.issued.is_multiple_of(self.sample_every) {
            self.slots.next()
        } else {
            None
        };
        self.issued += 1;
        Op { slot, query }
    }
}

// ---------------------------------------------------------------------
// cold_open: one burst of distinct first-touch queries per restart.

/// Queries per restart cycle, all distinct: min at `k ∈ {4, 8}` ×
/// `r ∈ 1..=28` and max at `k ∈ {4, 8}` × `r ∈ {1, 2, 3, 5}`. A max
/// reply is a bulk reply (the top max community is most of the k-core:
/// 1.17 M vertices at k = 4, r = 5) and a min reply a small one. Max
/// queries are one op in eight, so `latency_p95_ms` sits well inside
/// the bulk replies and `latency_p50_ms` well inside the small ones;
/// with fewer, p95 would sit on the edge between the two groups.
pub const BURST: usize = 64;

pub fn burst_templates() -> Vec<Query> {
    let mut out = Vec::with_capacity(BURST);
    for k in crate::inputs::SHARD_KS {
        out.extend((1..=28).map(|r| Query::new(k, r, Aggregation::Min)));
        out.extend([1, 2, 3, 5].map(|r| Query::new(k, r, Aggregation::Max)));
    }
    debug_assert_eq!(out.len(), BURST);
    out
}

/// A fixed op list replayed cyclically.
pub struct ListStream {
    ops: Vec<Op>,
    next: usize,
}

impl ListStream {
    pub fn new(ops: Vec<Op>) -> ListStream {
        assert!(!ops.is_empty(), "a list stream needs ops");
        ListStream { ops, next: 0 }
    }

    /// Every query once, in order, each checked under its own index.
    pub fn each_once(queries: &[Query]) -> ListStream {
        ListStream::new(
            queries
                .iter()
                .enumerate()
                .map(|(i, &query)| Op {
                    slot: Some(i as u32),
                    query,
                })
                .collect(),
        )
    }

    /// One client's share of the burst: the small (min) queries in
    /// seeded order, then the bulk (max) queries in a fixed one, both
    /// dealt alternately to the `lanes` client streams. Bulk replies go
    /// last because a reply queues behind whatever its connection is
    /// still writing: mixed in at random, the seed would decide how many
    /// small replies wait behind a multi-megabyte one, and the latency
    /// percentiles would measure the shuffle.
    pub fn burst(seed: u64, lane: usize, lanes: usize) -> ListStream {
        let templates = burst_templates();
        let is_bulk = |t: &u32| templates[*t as usize].aggregation == Aggregation::Max;
        let (bulk, mut small): (Vec<u32>, Vec<u32>) = (0..BURST as u32).partition(is_bulk);
        Rng::new(seed, 0).shuffle(&mut small);
        let deal = |order: Vec<u32>| order.into_iter().skip(lane).step_by(lanes);
        ListStream::new(
            deal(small)
                .chain(deal(bulk))
                .map(|t| Op {
                    slot: Some(t),
                    query: templates[t as usize],
                })
                .collect(),
        )
    }
}

impl Stream for ListStream {
    fn next_op(&mut self) -> Op {
        let op = self.ops[self.next];
        self.next = (self.next + 1) % self.ops.len();
        op
    }
}

// ---------------------------------------------------------------------
// churn: standing queries, grid reads, and the periodic toggle pool.

pub fn churn_read_templates() -> Vec<Query> {
    let mut out = Vec::with_capacity(32);
    for k in KS {
        for r in RS {
            out.push(Query::new(k, r, Aggregation::Min));
            out.push(Query::new(k, r, Aggregation::Max));
        }
    }
    out
}

/// 32 standing queries: every min on the grid, max at `r ∈ {5, 10}`,
/// and size-bounded average at `r ∈ {5, 10}`.
pub fn standing_queries() -> Vec<Query> {
    let mut out = Vec::with_capacity(32);
    for k in KS {
        out.extend(RS.map(|r| Query::new(k, r, Aggregation::Min)));
        for r in [5, 10] {
            out.push(Query::new(k, r, Aggregation::Max));
            out.push(Query::new(k, r, Aggregation::Average).size_bound(20, true));
        }
    }
    debug_assert_eq!(out.len(), 32);
    out
}

pub const POOL_EDGES: usize = 512;
pub const TOGGLES_PER_UPDATE: usize = 4;

/// A fixed seeded pool of vertex pairs, toggled cyclically: a pair that
/// is an edge is removed, one that is not is inserted. Every pair flips
/// once per pass, so the graph after `2 × POOL_EDGES / TOGGLES_PER_UPDATE`
/// updates is the graph before them — the workload is periodic and a
/// window of any length sees a stationary graph.
pub struct TogglePool {
    pairs: Vec<(u32, u32)>,
    present: Vec<bool>,
    cursor: usize,
}

impl TogglePool {
    /// Half the pool is edges of `wg`, half absent pairs; within each
    /// half, half have both endpoints at core number ≥ 4 (they reach
    /// the standing queries' levels) and half have one endpoint below.
    pub fn new(wg: &WeightedGraph, cores: &[u32], seed: u64) -> TogglePool {
        let g = wg.graph();
        let mut rng = Rng::new(seed, 0x706F_6F6C);
        let in_core = |v: u32| cores[v as usize] >= 4;
        let quarter = POOL_EDGES / 4;

        let (mut core_edges, mut rim_edges): (Vec<_>, Vec<_>) =
            g.edges().partition(|&(u, v)| in_core(u) && in_core(v));
        rng.shuffle(&mut core_edges);
        rng.shuffle(&mut rim_edges);
        assert!(
            core_edges.len() >= quarter && rim_edges.len() >= quarter,
            "graph too small for the toggle pool"
        );
        let mut pairs: Vec<(u32, u32)> = core_edges[..quarter].to_vec();
        pairs.extend(&rim_edges[..quarter]);

        let core_vertices: Vec<u32> = g.vertices().filter(|&v| in_core(v)).collect();
        let n = g.num_vertices();
        let mut absent = |want_core: bool, pairs: &mut Vec<(u32, u32)>| {
            let target = pairs.len() + quarter;
            let mut draws = 0u32;
            while pairs.len() < target {
                draws += 1;
                assert!(draws < 1_000_000, "graph too dense for the toggle pool");
                let (u, v) = if want_core {
                    (
                        core_vertices[rng.below(core_vertices.len())],
                        core_vertices[rng.below(core_vertices.len())],
                    )
                } else {
                    (rng.below(n) as u32, rng.below(n) as u32)
                };
                let (u, v) = (u.min(v), u.max(v));
                if u != v && !g.has_edge(u, v) && !pairs.contains(&(u, v)) {
                    pairs.push((u, v));
                }
            }
        };
        absent(true, &mut pairs);
        absent(false, &mut pairs);

        let mut present: Vec<bool> = pairs.iter().map(|&(u, v)| g.has_edge(u, v)).collect();
        // Interleave edges and absent pairs so every UPDATE frame mixes
        // inserts and removes.
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        rng.shuffle(&mut order);
        pairs = order.iter().map(|&i| pairs[i]).collect();
        present = order.iter().map(|&i| present[i]).collect();
        TogglePool {
            pairs,
            present,
            cursor: 0,
        }
    }

    /// The next UPDATE frame's worth of toggles.
    pub fn next_update(&mut self) -> Vec<EdgeUpdate> {
        (0..TOGGLES_PER_UPDATE)
            .map(|_| {
                let i = self.cursor;
                self.cursor = (self.cursor + 1) % self.pairs.len();
                let (u, v) = self.pairs[i];
                self.present[i] = !self.present[i];
                if self.present[i] {
                    EdgeUpdate::Insert { u, v }
                } else {
                    EdgeUpdate::Remove { u, v }
                }
            })
            .collect()
    }

    /// Starts the next pass over from the first pair. Replaying the
    /// toggles made since the last rewind undoes them.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// Pool pairs and whether each is currently an edge.
    pub fn state(&self) -> impl Iterator<Item = ((u32, u32), bool)> + '_ {
        self.pairs.iter().copied().zip(self.present.iter().copied())
    }

    pub fn checksum(&self) -> u64 {
        self.pairs.iter().fold(FNV_OFFSET, |h, &(u, v)| {
            fnv1a(h, u64::from(u) << 32 | u64::from(v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_graph::graph_from_edges;

    #[test]
    fn hot_ranks_cover_every_template_with_the_stated_multiplicity() {
        let ranks = hot_ranks();
        let templates = hot_templates();
        assert_eq!(templates.len(), 128);
        assert_eq!(ranks.len(), 192);
        let mut counts = vec![0usize; templates.len()];
        for &t in &ranks {
            counts[t as usize] += 1;
        }
        for (t, &c) in counts.iter().enumerate() {
            let want = match t % 8 {
                0 => 4,
                1 => 2,
                _ => 1,
            };
            assert_eq!(c, want, "template {t}");
        }
    }

    #[test]
    fn miss_deck_keeps_every_class_and_k_count_fixed() {
        let mut stream = MissStream::new(9, 1, 0..128);
        for _ in 0..3 {
            let mut per_k = [0usize; 4];
            let mut plain = 0;
            let mut bounded = 0;
            for _ in 0..MISS_DECK {
                let q = stream.next_op().query;
                per_k[KS.iter().position(|&k| k == q.k).unwrap()] += 1;
                match (q.constraint, q.aggregation) {
                    (Constraint::SizeBound { s, .. }, _) => {
                        assert!(s > q.k && s <= 40);
                        bounded += 1;
                    }
                    (_, Aggregation::Min | Aggregation::Max) => plain += 1,
                    _ => {}
                }
                q.solver()
                    .expect("every generated query routes to a solver");
            }
            assert_eq!(per_k, [8, 11, 11, 10]);
            assert_eq!((plain, bounded), (16, 12));
        }
    }

    #[test]
    fn miss_stream_samples_up_to_its_quota() {
        let mut stream = MissStream::new(1, 0, 64..69);
        let slots: Vec<u32> = (0..100).filter_map(|_| stream.next_op().slot).collect();
        assert_eq!(slots, vec![64, 65, 66, 67, 68]);
    }

    #[test]
    fn burst_lanes_partition_the_distinct_templates() {
        let mut seen = [false; BURST];
        for lane in 0..2 {
            let mut s = ListStream::burst(5, lane, 2);
            for _ in 0..BURST / 2 {
                let slot = s.next_op().slot.unwrap() as usize;
                assert!(!seen[slot], "template {slot} dealt twice");
                seen[slot] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    fn pool_graph() -> (WeightedGraph, Vec<u32>) {
        // A circulant head (every vertex tied to the next six: core 12,
        // yet most head pairs are absent) plus a long sparse tail.
        let (head, n) = (80u32, 400u32);
        let mut edges = Vec::new();
        for u in 0..head {
            for step in 1..=6 {
                let v = (u + step) % head;
                edges.push((u.min(v), u.max(v)));
            }
        }
        for v in head..n {
            edges.push((v - 1, v));
            edges.push((v % head, v));
        }
        let g = graph_from_edges(n as usize, &edges);
        let cores = ic_kcore::core_decomposition(&g).core_numbers;
        (WeightedGraph::unit_weights(g), cores)
    }

    #[test]
    fn toggle_pool_is_periodic_and_every_toggle_changes_the_graph() {
        let (wg, cores) = pool_graph();
        let mut pool = TogglePool::new(&wg, &cores, 3);
        let initial: Vec<_> = pool.state().collect();
        assert_eq!(initial.len(), POOL_EDGES);
        assert_eq!(initial.iter().filter(|(_, p)| *p).count(), POOL_EDGES / 2);
        let mut edges: std::collections::BTreeSet<(u32, u32)> = wg.graph().edges().collect();
        let per_pass = POOL_EDGES / TOGGLES_PER_UPDATE;
        for update in 0..2 * per_pass {
            for toggle in pool.next_update() {
                let changed = match toggle {
                    EdgeUpdate::Insert { u, v } => edges.insert((u, v)),
                    EdgeUpdate::Remove { u, v } => edges.remove(&(u, v)),
                    _ => unreachable!(),
                };
                assert!(changed, "update {update} carried a no-op toggle");
            }
            if update + 1 == per_pass {
                assert!(pool
                    .state()
                    .zip(&initial)
                    .all(|((_, now), (_, was))| now != *was));
            }
        }
        assert!(edges.iter().copied().eq(wg.graph().edges()));
        assert!(pool.state().eq(initial));
    }

    #[test]
    fn checksum_depends_on_the_seed_only() {
        let sum = |seed| {
            let mut streams: Vec<Box<dyn Stream>> = vec![
                Box::new(ZipfStream::hot(seed, 1)),
                Box::new(MissStream::new(seed, 2, 0..0)),
            ];
            checksum(&mut streams, 500)
        };
        assert_eq!(sum(4), sum(4));
        assert_ne!(sum(4), sum(5));
    }
}
