//! `ic-obs`: lock-free metrics and query-lifecycle tracing for the
//! influential-community stack.
//!
//! The stack spans nine layers — peel arena, batched engine, ICS1
//! store, shards, TCP serving, subscriptions — and this crate is the
//! one vocabulary they all report through:
//!
//! * a [`Registry`] of named [`Counter`]s, [`Gauge`]s, and log2-bucketed
//!   latency [`Histogram`]s. Handles are cheap atomically-backed clones;
//!   recording is a single `fetch_add` with no lock, and
//!   [`Registry::entries`] reads a consistent-enough snapshot without
//!   stopping writers (each histogram snapshot's `count` is *defined* as
//!   the sum of its bucket loads, so a reader can never observe a count
//!   that disagrees with its buckets);
//! * a [`Trace`] handle following one query batch through its
//!   lifecycle, accumulating monotonic [`Stage`] spans (`queue_wait`,
//!   `plan`, `solve`, `index_serve`, `merge`, `reply_write`), outcome
//!   [`Tag`]s, and the plan-time statistics that explain *why* the
//!   batch ran the solvers it did;
//! * a [`SlowLog`] ring buffer that keeps the last N traces whose
//!   end-to-end latency crossed a threshold, dumpable as JSON lines.
//!   The fast path (a non-slow batch) is one branch — no lock, no
//!   allocation.
//!
//! # Cost model
//!
//! Consistent with the workspace's vendored-shim policy this crate has
//! **no dependencies**, and it is always compiled in. [`set_enabled`]
//! is the one switch: a **runtime** kill switch (one relaxed atomic
//! load per record) that icbench's `obs.enabled_cost_share` probe uses
//! to measure enabled-vs-disabled serving in a single binary.
//!
//! Time measurement ([`Stopwatch`], [`Histogram::observe`],
//! [`Trace::record`], [`SlowLog::observe`]) honours the switch —
//! `Instant::now` is never called while disabled. Plain counts
//! ([`Counter`], [`Gauge`], trace tags) ignore it: they are one
//! `fetch_add`, and load-bearing views (`Server::stats`) read them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Runtime gating

static ENABLED: AtomicBool = AtomicBool::new(true);

/// True when timing instrumentation is live: the runtime switch is on.
/// One relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runtime kill switch for timing instrumentation (default on). The
/// `obs_overhead` benchmark measures warm serving with this off versus
/// on in one binary; production never needs to touch it.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Metric handles

/// A monotonically increasing event count. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed level (pool occupancy, current epoch, …).
/// Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Overwrites the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the level to `v` if it is below (running-maximum gauges
    /// such as `serve.largest_batch`).
    #[inline]
    pub fn raise_to(&self, v: i64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Number of log2 nanosecond buckets: bucket `i` holds durations in
/// `[2^i, 2^{i+1})` ns (bucket 0 also holds 0), which spans 1 ns to
/// ~584 years — every u64 nanosecond count has a bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A log2-bucketed latency histogram. One `fetch_add` per observation;
/// cloning shares the buckets.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Arc<[AtomicU64; HISTOGRAM_BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }
}

fn bucket_index(ns: u64) -> usize {
    ns.max(1).ilog2() as usize
}

impl Histogram {
    /// Records one duration. Honours the runtime switch.
    #[inline]
    pub fn observe(&self, d: Duration) {
        if enabled() {
            self.observe_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
        }
    }

    /// Records one duration given in nanoseconds. Honours the runtime
    /// switch.
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        if enabled() {
            self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Reads the buckets. The snapshot's `count` is the sum of the
    /// loaded buckets, so it can never disagree with them — the
    /// "never torn" invariant the concurrency proptest checks.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time read of a [`Histogram`].
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; see [`HISTOGRAM_BUCKETS`].
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Total observations (sum of buckets, by construction).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `q`-quantile in nanoseconds (`0.0 < q <= 1.0`), resolved to
    /// the midpoint of the bucket holding the rank — log2 bucketing
    /// bounds the relative error at ~±50%. Returns 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return (1u64 << i) + (1u64 << i) / 2;
            }
        }
        unreachable!("rank <= count")
    }

    /// Median estimate in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 90th-percentile estimate in nanoseconds.
    pub fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.90)
    }

    /// 99th-percentile estimate in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

// ---------------------------------------------------------------------
// Registry

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The value of one registry entry in [`Registry::entries`].
// The size skew is deliberate: snapshots are cold-path (one Vec per
// STATS request), so boxing the histogram buckets would buy nothing
// and cost an allocation per entry.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// A counter's current total.
    Counter(u64),
    /// A gauge's current level.
    Gauge(i64),
    /// A histogram's bucket snapshot.
    Histogram(HistogramSnapshot),
}

/// A named collection of metrics. Registration (by `&'static str` name)
/// takes a short mutex; the returned handles record lock-free.
/// Instantiable so every `Engine` / `Server` / `ShardedEngine` owns its
/// own numbers — tests asserting exact counts must not share a process
/// -wide registry; `ic-store` reports an open on its owner's.
///
/// Re-registering a name returns a handle to the same metric.
/// Registering a name under a *different* kind is a programming error
/// and panics.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<&'static str, Metric>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<&'static str, Metric>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or re-fetches) the counter `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        match self
            .lock()
            .entry(name)
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a counter"),
        }
    }

    /// Registers (or re-fetches) the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        match self
            .lock()
            .entry(name)
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a gauge"),
        }
    }

    /// Registers (or re-fetches) the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        match self
            .lock()
            .entry(name)
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a histogram"),
        }
    }

    /// Reads every metric, sorted by name. Writers are never stopped;
    /// each value is its own atomic snapshot.
    pub fn entries(&self) -> Vec<(&'static str, MetricValue)> {
        self.lock()
            .iter()
            .map(|(&name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name, value)
            })
            .collect()
    }

    /// [`Registry::entries`] flattened to `(name, value)` numbers for
    /// wire surfaces: counters and gauges pass through, histograms
    /// expand to `<name>.count` / `.p50_us` / `.p90_us` / `.p99_us`.
    pub fn flat_entries(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (name, value) in self.entries() {
            match value {
                MetricValue::Counter(v) => out.push((name.to_string(), v as f64)),
                MetricValue::Gauge(v) => out.push((name.to_string(), v as f64)),
                MetricValue::Histogram(snap) => {
                    out.push((format!("{name}.count"), snap.count() as f64));
                    out.push((format!("{name}.p50_us"), snap.p50_ns() as f64 / 1_000.0));
                    out.push((format!("{name}.p90_us"), snap.p90_ns() as f64 / 1_000.0));
                    out.push((format!("{name}.p99_us"), snap.p99_ns() as f64 / 1_000.0));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Query-lifecycle tracing

/// The lifecycle stages a query batch moves through. Spans are
/// monotonic accumulators: a stage entered twice (e.g. `merge` in a
/// scatter-gather shard plus the serving layer) adds up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Admission to flush: time parked in the admission queue.
    QueueWait,
    /// Batch planning: validation, cache probe, family merging.
    Plan,
    /// Solver execution (peel / local search), including worker time.
    Solve,
    /// Answers served from the extremum community forest.
    IndexServe,
    /// Combining per-shard or per-job results into replies.
    Merge,
    /// Last reply enqueued to last reply written to the socket.
    ReplyWrite,
}

impl Stage {
    /// All stages, in lifecycle order.
    pub const ALL: [Stage; 6] = [
        Stage::QueueWait,
        Stage::Plan,
        Stage::Solve,
        Stage::IndexServe,
        Stage::Merge,
        Stage::ReplyWrite,
    ];

    /// Stable snake_case name (JSON field prefix).
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Plan => "plan",
            Stage::Solve => "solve",
            Stage::IndexServe => "index_serve",
            Stage::Merge => "merge",
            Stage::ReplyWrite => "reply_write",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::QueueWait => 0,
            Stage::Plan => 1,
            Stage::Solve => 2,
            Stage::IndexServe => 3,
            Stage::Merge => 4,
            Stage::ReplyWrite => 5,
        }
    }
}

/// Outcome tags a trace accumulates (a bitset on the trace).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tag {
    /// At least one query was answered from the cross-batch result cache.
    CacheHit,
    /// At least one query was routed through the extremum index.
    IndexRouted,
    /// Family merging collapsed solver runs below the sequential count.
    FamilyMerged,
    /// At least one answer was degraded (certified prefix only).
    Degraded,
    /// The batch was shed before execution.
    Shed,
    /// At least one query exceeded its deadline.
    DeadlineExceeded,
    /// The batch's plan paid for the adjacency check a store-opened
    /// snapshot owed (`store.adjacency_check_ns` says how much).
    AdjacencyChecked,
}

impl Tag {
    /// All tags.
    pub const ALL: [Tag; 7] = [
        Tag::CacheHit,
        Tag::IndexRouted,
        Tag::FamilyMerged,
        Tag::Degraded,
        Tag::Shed,
        Tag::DeadlineExceeded,
        Tag::AdjacencyChecked,
    ];

    /// Stable snake_case name (JSON value).
    pub fn name(self) -> &'static str {
        match self {
            Tag::CacheHit => "cache_hit",
            Tag::IndexRouted => "index_routed",
            Tag::FamilyMerged => "family_merged",
            Tag::Degraded => "degraded",
            Tag::Shed => "shed",
            Tag::DeadlineExceeded => "deadline_exceeded",
            Tag::AdjacencyChecked => "adjacency_checked",
        }
    }

    fn bit(self) -> u32 {
        match self {
            Tag::CacheHit => 1 << 0,
            Tag::IndexRouted => 1 << 1,
            Tag::FamilyMerged => 1 << 2,
            Tag::Degraded => 1 << 3,
            Tag::Shed => 1 << 4,
            Tag::DeadlineExceeded => 1 << 5,
            Tag::AdjacencyChecked => 1 << 6,
        }
    }
}

/// Plan-time statistics attached to a trace so a slow-query log line
/// explains *why* the batch ran the solvers it did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TracePlan {
    /// Queries in the batch.
    pub queries: u64,
    /// Queries answered at plan time (errors, empties, cache hits).
    pub answered_at_plan: u64,
    /// Cross-batch result-cache hits among the plan-time answers.
    pub cache_hits: u64,
    /// Solver invocations the plan actually made.
    pub solver_runs: u64,
    /// Queries served from the extremum community forest.
    pub index_routed: u64,
}

/// One query batch's lifecycle record: monotonic stage spans, outcome
/// tags, and plan statistics. All cells are atomics, so one `Arc<Trace>`
/// is shared by the pool workers running the batch (every shard leg's)
/// and the writer loop; recording honours the module docs' gates.
#[derive(Debug, Default)]
pub struct Trace {
    stages: [AtomicU64; 6],
    tags: AtomicU32,
    queries: AtomicU64,
    answered_at_plan: AtomicU64,
    cache_hits: AtomicU64,
    solver_runs: AtomicU64,
    index_routed: AtomicU64,
}

impl Trace {
    /// A fresh trace with empty spans.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Adds `d` to the stage's span. Honours the runtime switch.
    #[inline]
    pub fn record(&self, stage: Stage, d: Duration) {
        if enabled() {
            self.add_ns(stage, d.as_nanos().min(u128::from(u64::MAX)) as u64);
        }
    }

    /// Adds raw nanoseconds to the stage's span.
    #[inline]
    pub fn add_ns(&self, stage: Stage, ns: u64) {
        if enabled() {
            self.stages[stage.index()].fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// The accumulated span of one stage, in nanoseconds.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stages[stage.index()].load(Ordering::Relaxed)
    }

    /// All six spans in [`Stage::ALL`] order, in nanoseconds.
    pub fn spans(&self) -> [u64; 6] {
        std::array::from_fn(|i| self.stages[i].load(Ordering::Relaxed))
    }

    /// Sum of all stage spans, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.spans().iter().sum()
    }

    /// Sets an outcome tag (idempotent).
    #[inline]
    pub fn tag(&self, tag: Tag) {
        self.tags.fetch_or(tag.bit(), Ordering::Relaxed);
    }

    /// Whether a tag is set.
    pub fn has(&self, tag: Tag) -> bool {
        self.tags.load(Ordering::Relaxed) & tag.bit() != 0
    }

    /// Accumulates plan statistics (additive, so a sharded backend can
    /// fold per-shard plans into one trace) and derives the plan tags:
    /// [`Tag::CacheHit`] and [`Tag::IndexRouted`].
    pub fn note_plan(&self, plan: TracePlan) {
        self.queries.fetch_add(plan.queries, Ordering::Relaxed);
        self.answered_at_plan
            .fetch_add(plan.answered_at_plan, Ordering::Relaxed);
        self.cache_hits
            .fetch_add(plan.cache_hits, Ordering::Relaxed);
        self.solver_runs
            .fetch_add(plan.solver_runs, Ordering::Relaxed);
        self.index_routed
            .fetch_add(plan.index_routed, Ordering::Relaxed);
        if plan.cache_hits > 0 {
            self.tag(Tag::CacheHit);
        }
        if plan.index_routed > 0 {
            self.tag(Tag::IndexRouted);
        }
    }

    /// The accumulated plan statistics.
    pub fn plan(&self) -> TracePlan {
        TracePlan {
            queries: self.queries.load(Ordering::Relaxed),
            answered_at_plan: self.answered_at_plan.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            solver_runs: self.solver_runs.load(Ordering::Relaxed),
            index_routed: self.index_routed.load(Ordering::Relaxed),
        }
    }
}

/// A started span clock. [`Stopwatch::start`] skips `Instant::now`
/// entirely while disabled, so an un-recorded stopwatch is free.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts the clock (a no-op handle while disabled).
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch(if enabled() {
            Some(Instant::now())
        } else {
            None
        })
    }

    /// Elapsed time; zero while disabled.
    pub fn elapsed(&self) -> Duration {
        self.0.map(|t0| t0.elapsed()).unwrap_or_default()
    }

    /// Adds the elapsed time to `stage` on `trace`.
    #[inline]
    pub fn record(&self, trace: &Trace, stage: Stage) {
        if let Some(t0) = self.0 {
            trace.record(stage, t0.elapsed());
        }
    }

    /// Observes the elapsed time into a histogram.
    #[inline]
    pub fn observe(&self, histogram: &Histogram) {
        if let Some(t0) = self.0 {
            histogram.observe(t0.elapsed());
        }
    }
}

// ---------------------------------------------------------------------
// Slow-query log

/// One finalized slow trace, plain data (no heap) so pushing it into
/// the pre-allocated ring never allocates.
#[derive(Clone, Copy, Debug)]
pub struct TraceRecord {
    /// Monotonic sequence number over the log's lifetime.
    pub seq: u64,
    /// Wall-clock end-to-end latency (what crossed the threshold).
    pub total_ns: u64,
    /// Stage spans in [`Stage::ALL`] order.
    pub stages: [u64; 6],
    /// Outcome tag bits (see [`Tag`]).
    pub tags: u32,
    /// Plan statistics at finalization.
    pub plan: TracePlan,
}

impl TraceRecord {
    /// Renders one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut line = format!("{{\"seq\":{},\"total_ns\":{}", self.seq, self.total_ns);
        for (stage, ns) in Stage::ALL.iter().zip(self.stages) {
            line.push_str(&format!(",\"{}_ns\":{}", stage.name(), ns));
        }
        line.push_str(",\"tags\":[");
        let mut first = true;
        for tag in Tag::ALL {
            if self.tags & tag.bit() != 0 {
                if !first {
                    line.push(',');
                }
                first = false;
                line.push('"');
                line.push_str(tag.name());
                line.push('"');
            }
        }
        line.push_str(&format!(
            "],\"queries\":{},\"answered_at_plan\":{},\"cache_hits\":{},\"solver_runs\":{},\"index_routed\":{}}}",
            self.plan.queries,
            self.plan.answered_at_plan,
            self.plan.cache_hits,
            self.plan.solver_runs,
            self.plan.index_routed,
        ));
        line
    }
}

/// A ring of the last `capacity` traces whose end-to-end latency
/// crossed `threshold`. The fast path (under threshold, or disabled)
/// is a branch — no lock, no allocation; the ring itself is allocated
/// once up front.
#[derive(Debug)]
pub struct SlowLog {
    threshold_ns: u64,
    capacity: usize,
    seq: AtomicU64,
    ring: Mutex<VecDeque<TraceRecord>>,
}

impl SlowLog {
    /// A log keeping the last `capacity` traces slower than `threshold`.
    pub fn new(threshold: Duration, capacity: usize) -> SlowLog {
        SlowLog {
            threshold_ns: threshold.as_nanos().min(u128::from(u64::MAX)) as u64,
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
        }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> Duration {
        Duration::from_nanos(self.threshold_ns)
    }

    /// Finalizes a trace with its measured end-to-end latency,
    /// admitting it to the ring if it crossed the threshold.
    pub fn observe(&self, trace: &Trace, total: Duration) {
        if !enabled() {
            return;
        }
        let total_ns = total.as_nanos().min(u128::from(u64::MAX)) as u64;
        if total_ns < self.threshold_ns {
            return;
        }
        let record = TraceRecord {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            total_ns,
            stages: trace.spans(),
            tags: Tag::ALL
                .iter()
                .filter(|t| trace.has(**t))
                .fold(0, |acc, t| acc | t.bit()),
            plan: trace.plan(),
        };
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .copied()
            .collect()
    }

    /// Renders the ring as JSON lines (one object per line, oldest
    /// first; empty string when empty).
    pub fn dump_json_lines(&self) -> String {
        let mut out = String::new();
        for record in self.records() {
            out.push_str(&record.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once_and_share_cells() {
        let registry = Registry::new();
        let a = registry.counter("t.hits");
        let b = registry.counter("t.hits");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = registry.gauge("t.level");
        g.set(5);
        g.add(-2);
        g.raise_to(1);
        assert_eq!(registry.gauge("t.level").get(), 3);
        let names: Vec<_> = registry.entries().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["t.hits", "t.level"], "sorted by name");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("t.kind");
        registry.gauge("t.kind");
    }

    #[test]
    fn histogram_buckets_by_log2_and_quantiles_walk_buckets() {
        let h = Histogram::default();
        // 0 and 1 land in bucket 0; 2^k lands in bucket k.
        h.observe_ns(0);
        h.observe_ns(1);
        h.observe_ns(1024); // bucket 10
        h.observe_ns(1_000_000); // bucket 19
        let snap = h.snapshot();
        assert_eq!(snap.count(), 4);
        assert_eq!(snap.buckets[0], 2);
        assert_eq!(snap.buckets[10], 1);
        assert_eq!(snap.buckets[19], 1);
        assert_eq!(snap.p50_ns(), 1); // bucket 0 midpoint
                                      // p99 rank = 4 → bucket 19 midpoint = 2^19 * 1.5.
        assert_eq!(snap.p99_ns(), (1 << 19) + (1 << 18));
        assert_eq!(HistogramSnapshot { buckets: [0; 64] }.quantile_ns(0.5), 0);
    }

    #[test]
    fn trace_spans_accumulate_and_plan_derives_tags() {
        let trace = Trace::new();
        trace.add_ns(Stage::Solve, 100);
        trace.add_ns(Stage::Solve, 50);
        trace.add_ns(Stage::Plan, 7);
        assert_eq!(trace.stage_ns(Stage::Solve), 150);
        assert_eq!(trace.total_ns(), 157);
        trace.note_plan(TracePlan {
            queries: 8,
            answered_at_plan: 3,
            cache_hits: 2,
            solver_runs: 4,
            index_routed: 1,
        });
        assert!(trace.has(Tag::CacheHit));
        assert!(trace.has(Tag::IndexRouted));
        assert!(!trace.has(Tag::Degraded));
        assert_eq!(trace.plan().solver_runs, 4);
    }

    #[test]
    fn slow_log_thresholds_rings_and_dumps_json() {
        let log = SlowLog::new(Duration::from_micros(10), 2);
        let trace = Trace::new();
        trace.add_ns(Stage::QueueWait, 9_000);
        trace.tag(Tag::Degraded);
        log.observe(&trace, Duration::from_micros(9));
        assert!(log.is_empty(), "under threshold stays out");
        for _ in 0..3 {
            log.observe(&trace, Duration::from_micros(11));
        }
        assert_eq!(log.len(), 2, "capacity 2 evicts the oldest");
        let records = log.records();
        assert_eq!(records[0].seq, 1, "seq 0 was evicted");
        let dump = log.dump_json_lines();
        assert_eq!(dump.lines().count(), 2);
        let line = dump.lines().next().unwrap();
        assert!(line.contains("\"queue_wait_ns\":9000"), "{line}");
        assert!(line.contains("\"tags\":[\"degraded\"]"), "{line}");
        assert!(line.contains("\"total_ns\":11000"), "{line}");
    }

    #[test]
    fn runtime_switch_gates_timing_but_not_counts() {
        // Serialized against nothing: tests in this crate that touch the
        // global switch restore it before returning.
        set_enabled(false);
        let h = Histogram::default();
        h.observe_ns(5);
        assert_eq!(h.snapshot().count(), 0, "histograms honour the switch");
        let trace = Trace::new();
        trace.add_ns(Stage::Plan, 5);
        assert_eq!(trace.total_ns(), 0, "spans honour the switch");
        assert_eq!(Stopwatch::start().elapsed(), Duration::ZERO);
        let c = Counter::default();
        c.inc();
        assert_eq!(c.get(), 1, "counters keep counting under runtime disable");
        set_enabled(true);
        h.observe_ns(5);
        assert_eq!(h.snapshot().count(), 1);
    }
}
