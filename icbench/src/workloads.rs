//! The four served workloads. Each one knows how to set its stack up
//! (timed as `setup_s`), which streams its two client connections run,
//! how to drive them for a window, and how to check what came back.
//!
//! Load model, all workloads: server and clients share one process; an
//! in-process `ic_serve::Server` on loopback with `ServeConfig::default()`
//! is driven by exactly [`CLIENTS`] client threads, each with one
//! persistent binary-protocol connection running a closed loop with a
//! fixed in-flight window.

use crate::check::{against_reference, Slots, Verdict};
use crate::client::{closed_loop, Credits, Stop, Tally};
use crate::inputs::{self, SHARD_CAP, SHARD_KS};
use crate::layers::{
    engine_ladder, shard_ladder, Counters, Ladder, LADDER_CYCLES, LADDER_OPS, LADDER_OPS_MISS,
};
use crate::spec::{self, CLIENTS};
use crate::stats::Window;
use crate::trace::SpanLog;
use crate::traffic::{
    self, ListStream, MissStream, Op, Stream, TogglePool, ZipfStream, BURST, KS, MISS_DECK,
};
use ic_core::{Aggregation, Community, Query};
use ic_engine::Engine;
use ic_graph::{GraphBuilder, WeightedGraph};
use ic_serve::{Client, Response, ServeConfig, Server};
use ic_shard::ShardedEngine;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a drive issues ops: a fixed time (the traced replays), until
/// the run raises a flag (the untraced window), or a fixed op count per
/// client (warm-up).
#[derive(Clone, Copy)]
pub enum Budget<'a> {
    Seconds(f64),
    Until(&'a AtomicBool),
    OpsPerClient(u64),
}

impl<'a> Budget<'a> {
    fn stop(self, start: Instant) -> Stop<'a> {
        match self {
            Budget::Seconds(s) => Stop::At(start + Duration::from_secs_f64(s)),
            Budget::Until(flag) => Stop::Raised(flag),
            Budget::OpsPerClient(n) => Stop::AfterOps(n),
        }
    }
}

/// One client thread's share of a drive: when its last reply landed,
/// what it saw, and its spans if the drive was traced.
type ClientRun = (Instant, Tally, Option<SpanLog>);

/// What one drive produced.
pub struct Driven {
    pub window: Window,
    pub tally: Tally,
    pub spans: Option<SpanLog>,
    /// `cold_open` only: backend open start → first reply, per cycle.
    pub first_answer_ms: Vec<f64>,
}

/// Rebuilds the CSR from the edge list, as a server loading an edge
/// file would: setup pays for `GraphBuilder::build`, not for `ic-gen`.
pub fn build_graph(input: &WeightedGraph) -> WeightedGraph {
    let g = input.graph();
    let mut builder = GraphBuilder::with_capacity(g.num_edges());
    builder.reserve_vertices(g.num_vertices());
    builder.extend_edges(g.edges());
    WeightedGraph::new(builder.build(), input.weights().to_vec())
        .expect("one weight per rebuilt vertex")
}

fn bind(engine: &Arc<Engine>) -> Server {
    Server::bind(Arc::clone(engine), "127.0.0.1:0", ServeConfig::default())
        .expect("bind a loopback port")
}

fn connect(addr: SocketAddr) -> Vec<Client> {
    (0..CLIENTS)
        .map(|_| Client::connect(addr).expect("connect to the in-process server"))
        .collect()
}

/// Runs one closed loop per client on its own thread; with a
/// `span_base`, each records its spans relative to that instant.
fn run_clients(
    clients: &mut [Client],
    streams: &mut [Box<dyn Stream>],
    in_flight: usize,
    stop: Stop<'_>,
    slots: usize,
    span_base: Option<Instant>,
) -> Vec<ClientRun> {
    std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .iter_mut()
            .zip(streams.iter_mut())
            .map(|(client, stream)| {
                scope.spawn(move || {
                    let mut tally = Tally::with_slots(slots);
                    let mut log = span_base.map(SpanLog::new);
                    let end = closed_loop(
                        client,
                        stream.as_mut(),
                        in_flight,
                        stop,
                        None,
                        &mut tally,
                        log.as_mut(),
                    );
                    (end, tally, log)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    })
}

/// [`run_clients`] as one drive: all clients released at one instant,
/// their tallies folded.
fn drive_clients(
    clients: &mut [Client],
    streams: &mut [Box<dyn Stream>],
    in_flight: usize,
    budget: Budget<'_>,
    slots: usize,
    traced: bool,
) -> Driven {
    let start = Instant::now();
    let per_client = run_clients(
        clients,
        streams,
        in_flight,
        budget.stop(start),
        slots,
        traced.then_some(start),
    );
    fold(start, per_client, slots)
}

fn fold(start: Instant, per_client: Vec<ClientRun>, slots: usize) -> Driven {
    let ends: Vec<(Instant, u64)> = per_client
        .iter()
        .map(|(end, tally, _)| (*end, tally.attempted - tally.failed))
        .collect();
    let mut tally = Tally::with_slots(slots);
    let mut spans: Option<SpanLog> = None;
    for (_, t, log) in per_client {
        tally.merge(t);
        if let Some(log) = log {
            match spans.as_mut() {
                Some(all) => all.absorb(log),
                None => spans = Some(log),
            }
        }
    }
    Driven {
        window: Window::close(start, &ends),
        tally,
        spans,
        first_answer_ms: Vec::new(),
    }
}

/// An engine-backed stack: what `hot_mix`, `miss_mix` and `churn` serve
/// from.
pub struct Stack {
    pub engine: Arc<Engine>,
    pub server: Server,
    pub clients: Vec<Client>,
    /// `churn`: the subscriber's view of every standing query's answer.
    pub standing: Vec<Vec<Community>>,
}

impl Stack {
    pub fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
        self.server.join();
    }
}

pub trait Workload {
    type Stack;
    fn name(&self) -> &'static str;
    /// Queries each client keeps in flight.
    fn in_flight(&self) -> usize;
    /// Ops per reporting slice (see `stats::slices`): a whole number of
    /// decks, cycles or update rounds, so every slice is the same work.
    fn slice_ops(&self) -> usize;
    /// Everything the system does before the first timed op.
    fn setup(&mut self, scratch: &Path) -> Self::Stack;
    fn teardown(&mut self, stack: Self::Stack);
    /// Fresh window streams, one per client, from their beginning.
    fn streams(&self, seed: u64) -> Vec<Box<dyn Stream>>;
    fn drive(
        &mut self,
        stack: &mut Self::Stack,
        seed: u64,
        budget: Budget<'_>,
        traced: bool,
    ) -> Driven;
    /// Compares what the window returned with direct solves; outside
    /// every timed span.
    fn check(&mut self, stack: &mut Self::Stack, driven: &Driven) -> Verdict;
    /// The first 1000 window ops, hashed.
    fn traffic_checksum(&self, seed: u64) -> u64 {
        traffic::checksum(&mut self.streams(seed), 1000 / CLIENTS)
    }

    // What only the traced run needs.

    /// The graph structural probes run on: the workload's own.
    fn structural_graph(&self) -> &WeightedGraph;
    /// The graph solver-bound probes run on: the 10k-vertex one.
    fn solver_graph(&self) -> &WeightedGraph {
        self.structural_graph()
    }
    /// Cumulative serving counters since set-up.
    fn counters(&self, stack: &Self::Stack) -> Counters;
    /// Backend construction start → first reply, once, on a backend of
    /// its own. (`cold_open` takes it from its cycles instead.)
    fn first_answer_ms(&mut self, scratch: &Path) -> f64;
    /// Runs the layer ladder over the first ops of the window streams.
    fn ladder(&mut self, stack: &mut Self::Stack, seed: u64, log: &mut SpanLog) -> Ladder;
}

/// The first `n` ops of client 0's window stream: the ladder's sample.
fn sample_ops(streams: &mut [Box<dyn Stream>], n: usize) -> Vec<Op> {
    (0..n).map(|_| streams[0].next_op()).collect()
}

/// Times `engine()` → bind → connect → first reply to `probe`.
fn first_answer(engine: impl FnOnce() -> Engine, probe: &Query) -> f64 {
    let t = Instant::now();
    let engine = Arc::new(engine());
    let server = bind(&engine);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.call(0, probe).expect("first answer");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    drop(client);
    server.shutdown();
    server.join();
    ms
}

// ---------------------------------------------------------------------

/// `hot_mix`: the whole working set fits the result cache.
pub struct HotMix {
    pub graph: WeightedGraph,
}

/// Lanes keep warm-up draws apart from window draws under one seed.
const WARM_LANE: u64 = 100;

impl Workload for HotMix {
    type Stack = Stack;

    fn name(&self) -> &'static str {
        spec::HOT_MIX
    }

    fn in_flight(&self) -> usize {
        8
    }

    /// The stream is i.i.d., so any large count is the same mix.
    fn slice_ops(&self) -> usize {
        5000
    }

    fn setup(&mut self, scratch: &Path) -> Stack {
        let engine = Engine::new(build_graph(&self.graph));
        // Memoize what `persist` stores: levels and both forests at
        // every grid k. The result cache is not persisted.
        let forests: Vec<Query> = KS
            .iter()
            .flat_map(|&k| [Aggregation::Min, Aggregation::Max].map(|a| Query::new(k, 1, a)))
            .collect();
        for answer in engine.run_batch(&forests) {
            answer.expect("forest warm-up query");
        }
        let store = scratch.join("hot_mix.ics1");
        engine.persist(&store).expect("persist the warm engine");
        drop(engine);
        let engine = Arc::new(Engine::open(&store).expect("open the persisted store (mmap)"));
        let server = bind(&engine);
        let mut clients = connect(server.local_addr());
        // Warm-up, fixed op count: every template once, then traffic.
        let templates = traffic::hot_templates();
        let mut once: Vec<Box<dyn Stream>> = vec![Box::new(ListStream::each_once(&templates))];
        let warm = drive_clients(
            &mut clients[..1],
            &mut once,
            self.in_flight(),
            Budget::OpsPerClient(templates.len() as u64),
            templates.len(),
            false,
        );
        assert_eq!(warm.tally.failed, 0, "hot_mix warm-up op failed");
        let mut streams: Vec<Box<dyn Stream>> = (0..CLIENTS as u64)
            .map(|c| Box::new(ZipfStream::hot(0, WARM_LANE + c)) as Box<dyn Stream>)
            .collect();
        drive_clients(
            &mut clients,
            &mut streams,
            self.in_flight(),
            Budget::OpsPerClient(1000),
            templates.len(),
            false,
        );
        Stack {
            engine,
            server,
            clients,
            standing: Vec::new(),
        }
    }

    fn teardown(&mut self, stack: Stack) {
        stack.stop();
    }

    fn streams(&self, seed: u64) -> Vec<Box<dyn Stream>> {
        (0..CLIENTS as u64)
            .map(|c| Box::new(ZipfStream::hot(seed, c)) as Box<dyn Stream>)
            .collect()
    }

    fn drive(&mut self, stack: &mut Stack, seed: u64, budget: Budget<'_>, traced: bool) -> Driven {
        drive_clients(
            &mut stack.clients,
            &mut self.streams(seed),
            self.in_flight(),
            budget,
            traffic::hot_templates().len(),
            traced,
        )
    }

    fn check(&mut self, _stack: &mut Stack, driven: &Driven) -> Verdict {
        against_reference(&self.graph, &driven.tally.slots)
    }

    fn structural_graph(&self) -> &WeightedGraph {
        &self.graph
    }

    fn counters(&self, stack: &Stack) -> Counters {
        Counters::of(stack)
    }

    fn first_answer_ms(&mut self, scratch: &Path) -> f64 {
        let store = scratch.join("hot_mix.ics1");
        first_answer(
            || Engine::open(&store).expect("open the persisted store"),
            &traffic::hot_templates()[0],
        )
    }

    fn ladder(&mut self, stack: &mut Stack, seed: u64, log: &mut SpanLog) -> Ladder {
        let ops = sample_ops(&mut self.streams(seed), LADDER_OPS);
        engine_ladder(stack, &ops, false, log)
    }
}

// ---------------------------------------------------------------------

/// `miss_mix`: keys rarely repeat, so the solvers do the work.
pub struct MissMix {
    pub graph: WeightedGraph,
}

/// Sampled ops checked per run, split between the clients.
pub const MISS_SAMPLES: u32 = 128;

impl MissMix {
    fn miss_streams(seed: u64, lane: u64, sampled: bool) -> Vec<Box<dyn Stream>> {
        let per_client = MISS_SAMPLES / CLIENTS as u32;
        (0..CLIENTS as u32)
            .map(|c| {
                let slots = if sampled {
                    c * per_client..(c + 1) * per_client
                } else {
                    0..0
                };
                Box::new(MissStream::new(seed, lane + u64::from(c), slots)) as Box<dyn Stream>
            })
            .collect()
    }
}

impl Workload for MissMix {
    type Stack = Stack;

    fn name(&self) -> &'static str {
        spec::MISS_MIX
    }

    fn in_flight(&self) -> usize {
        4
    }

    /// Three decks from each client: 240 ops, so that ten lie beyond a
    /// slice's p95.
    fn slice_ops(&self) -> usize {
        3 * MISS_DECK * CLIENTS
    }

    fn setup(&mut self, _scratch: &Path) -> Stack {
        let engine = Arc::new(Engine::new(build_graph(&self.graph)));
        let server = bind(&engine);
        let mut clients = connect(server.local_addr());
        // Warm-up, fixed op count. First every key that *does* repeat —
        // plain min/max and exact sum on the grid, 48 keys — so the
        // window starts in the steady state it would otherwise drift
        // into (the first decks of a cold engine run a third slower).
        // Then one deck per client, for levels, forests and arenas; the
        // drawn keys stay cold.
        let repeating = traffic::miss_repeating_keys();
        let mut once: Vec<Box<dyn Stream>> = vec![Box::new(ListStream::each_once(&repeating))];
        let warm = drive_clients(
            &mut clients[..1],
            &mut once,
            self.in_flight(),
            Budget::OpsPerClient(repeating.len() as u64),
            repeating.len(),
            false,
        );
        assert_eq!(warm.tally.failed, 0, "miss_mix warm-up op failed");
        let warm = drive_clients(
            &mut clients,
            &mut Self::miss_streams(0, WARM_LANE, false),
            self.in_flight(),
            Budget::OpsPerClient(MISS_DECK as u64),
            0,
            false,
        );
        assert_eq!(warm.tally.failed, 0, "miss_mix warm-up op failed");
        Stack {
            engine,
            server,
            clients,
            standing: Vec::new(),
        }
    }

    fn teardown(&mut self, stack: Stack) {
        stack.stop();
    }

    fn streams(&self, seed: u64) -> Vec<Box<dyn Stream>> {
        Self::miss_streams(seed, 0, true)
    }

    fn drive(&mut self, stack: &mut Stack, seed: u64, budget: Budget<'_>, traced: bool) -> Driven {
        drive_clients(
            &mut stack.clients,
            &mut self.streams(seed),
            self.in_flight(),
            budget,
            MISS_SAMPLES as usize,
            traced,
        )
    }

    fn check(&mut self, _stack: &mut Stack, driven: &Driven) -> Verdict {
        against_reference(&self.graph, &driven.tally.slots)
    }

    fn structural_graph(&self) -> &WeightedGraph {
        &self.graph
    }

    fn counters(&self, stack: &Stack) -> Counters {
        Counters::of(stack)
    }

    fn first_answer_ms(&mut self, _scratch: &Path) -> f64 {
        first_answer(
            || Engine::new(build_graph(&self.graph)),
            &Query::new(KS[0], 10, Aggregation::Min),
        )
    }

    fn ladder(&mut self, stack: &mut Stack, seed: u64, log: &mut SpanLog) -> Ladder {
        let ops = sample_ops(&mut self.streams(seed), LADDER_OPS_MISS);
        engine_ladder(stack, &ops, true, log)
    }
}

// ---------------------------------------------------------------------

/// `cold_open`: every query is a first touch on a freshly opened
/// sharded backend; the window is a loop of restart cycles.
pub struct ColdOpen {
    pub graph: WeightedGraph,
    /// The 10k-vertex graph, for the traced run's solver probes.
    pub small: Option<WeightedGraph>,
    /// Serving counters summed over the restart cycles so far.
    pub served: Counters,
}

impl ColdOpen {
    fn burst_streams(seed: u64) -> Vec<Box<dyn Stream>> {
        (0..CLIENTS)
            .map(|lane| Box::new(ListStream::burst(seed, lane, CLIENTS)) as Box<dyn Stream>)
            .collect()
    }

    /// One restart: open the shard directory, bind, serve one burst from
    /// both connections, drain and drop. Returns the per-client results,
    /// the open-start → first-reply time and the server's counters.
    /// `traced` is the span base and the cycle number.
    fn cycle(
        dir: &Path,
        streams: &mut [Box<dyn Stream>],
        in_flight: usize,
        traced: Option<(Instant, u64)>,
    ) -> (Vec<ClientRun>, f64, Counters) {
        let opened = Instant::now();
        let backend = ShardedEngine::open_dir(dir).expect("open the shard directory");
        let open_done = Instant::now();
        let server = Server::bind_backend(Arc::new(backend), "127.0.0.1:0", ServeConfig::default())
            .expect("bind a loopback port");
        let mut clients = connect(server.local_addr());
        let mut per_client = run_clients(
            &mut clients,
            streams,
            in_flight,
            Stop::AfterOps((BURST / CLIENTS) as u64),
            BURST,
            traced.map(|(base, _)| base),
        );
        drop(clients);
        let first_reply = per_client
            .iter()
            .filter_map(|(_, tally, _)| tally.first_reply_at)
            .min()
            .expect("a burst answers at least one query");
        // Every query of a burst is distinct and the backend is fresh,
        // so none can hit a result cache; all are exact min/max, which
        // the per-shard engines route through their persisted forests.
        // (The per-shard engine registries are not public.)
        let stats = server.stats();
        let served = Counters {
            admitted: stats.admitted,
            shed: stats.shed_queue_full + stats.shed_draining,
            batches: stats.batches,
            largest_batch: stats.largest_batch,
            queries: stats.admitted,
            cache_hits: 0,
            index_routed: stats.admitted,
        };
        let drain = Instant::now();
        server.shutdown();
        server.join();
        let closed = Instant::now();
        if let (Some((_, cycle)), Some(log)) = (traced, per_client[0].2.as_mut()) {
            log.push("shard.open_dir", opened, open_done, None, cycle);
            log.push("serve.drain", drain, closed, None, cycle);
        }
        // The cycle ends when the server is gone, not at the last reply.
        per_client[0].0 = closed;
        (
            per_client,
            first_reply.duration_since(opened).as_secs_f64() * 1e3,
            served,
        )
    }
}

impl Workload for ColdOpen {
    /// The shard directory.
    type Stack = PathBuf;

    fn name(&self) -> &'static str {
        spec::COLD_OPEN
    }

    fn in_flight(&self) -> usize {
        4
    }

    /// Four restart cycles.
    fn slice_ops(&self) -> usize {
        4 * BURST
    }

    fn setup(&mut self, scratch: &Path) -> PathBuf {
        let dir = scratch.join("cold_open_shards");
        let _ = std::fs::remove_dir_all(&dir);
        let graph = build_graph(&self.graph);
        ic_store::shard::build_shard_stores(&graph, &SHARD_KS, SHARD_CAP, &dir)
            .expect("build the per-shard stores");
        // One untimed cycle: the first open after a build pays for page
        // cache population that no later restart sees.
        let (warm, _, _) = Self::cycle(&dir, &mut Self::burst_streams(0), self.in_flight(), None);
        assert!(
            warm.iter().all(|(_, tally, _)| tally.failed == 0),
            "cold_open warm-up op failed"
        );
        dir
    }

    fn teardown(&mut self, dir: PathBuf) {
        let _ = std::fs::remove_dir_all(dir);
    }

    fn streams(&self, seed: u64) -> Vec<Box<dyn Stream>> {
        Self::burst_streams(seed)
    }

    fn drive(&mut self, dir: &mut PathBuf, seed: u64, budget: Budget<'_>, traced: bool) -> Driven {
        let start = Instant::now();
        let mut streams = Self::burst_streams(seed);
        let per_cycle = (BURST / CLIENTS) as u64;
        let mut all: Vec<ClientRun> = Vec::new();
        let mut first_answer_ms = Vec::new();
        let mut cycles = 0u64;
        let stop = budget.stop(start);
        while stop.issuing(cycles * per_cycle) {
            let (per_client, first, served) = Self::cycle(
                dir,
                &mut streams,
                self.in_flight(),
                traced.then_some((start, cycles)),
            );
            self.served.add(served);
            all.extend(per_client);
            first_answer_ms.push(first);
            cycles += 1;
        }
        let mut driven = fold(start, all, BURST);
        driven.first_answer_ms = first_answer_ms;
        driven
    }

    fn check(&mut self, _dir: &mut PathBuf, driven: &Driven) -> Verdict {
        against_reference(&self.graph, &driven.tally.slots)
    }

    fn structural_graph(&self) -> &WeightedGraph {
        &self.graph
    }

    fn solver_graph(&self) -> &WeightedGraph {
        self.small
            .as_ref()
            .expect("a traced cold_open run loads the small graph")
    }

    fn counters(&self, _dir: &PathBuf) -> Counters {
        self.served
    }

    fn first_answer_ms(&mut self, _scratch: &Path) -> f64 {
        unreachable!("cold_open reports the first answer of its restart cycles")
    }

    fn ladder(&mut self, dir: &mut PathBuf, seed: u64, log: &mut SpanLog) -> Ladder {
        let ops = sample_ops(&mut self.streams(seed), LADDER_CYCLES * 8);
        shard_ladder(dir, &ops, log)
    }
}

// ---------------------------------------------------------------------

/// `churn`: UPDATE frames beside reads, on one mutable engine.
pub struct Churn {
    pub graph: WeightedGraph,
    pub cores: Vec<u32>,
    /// Built per drive from the seed; kept for the post-window check.
    pool: Option<TogglePool>,
}

/// Reads granted per UPDATE frame. Updates are then 1 op in 9, so of
/// the pooled latencies the median is a read and p95 an UPDATE ack.
pub const READS_PER_UPDATE: u64 = 8;

impl Churn {
    pub fn new(graph: WeightedGraph) -> Churn {
        let cores = ic_kcore::core_decomposition(graph.graph()).core_numbers;
        Churn {
            graph,
            cores,
            pool: None,
        }
    }

    /// The writer's closed loop (W = 1) on the subscriber connection:
    /// grant reads, send one UPDATE, wait for its ack, then apply the
    /// NOTIFY frames that arrived ahead of it to the standing answers.
    fn write_loop(
        client: &mut Client,
        pool: &mut TogglePool,
        standing: &mut [Vec<Community>],
        credits: &Credits,
        stop: Stop<'_>,
        tally: &mut Tally,
        mut spans: Option<&mut SpanLog>,
    ) -> Instant {
        /// Releases the reader even if this thread unwinds.
        struct CloseOnDrop<'a>(&'a Credits);
        impl Drop for CloseOnDrop<'_> {
            fn drop(&mut self) {
                self.0.close();
            }
        }
        let _close = CloseOnDrop(credits);
        let queries = traffic::standing_queries();
        let mut sent_updates = 0u64;
        loop {
            if !stop.issuing(sent_updates) || !credits.grant() {
                break;
            }
            let toggles = pool.next_update();
            let sent = Instant::now();
            match client.update(sent_updates, &toggles) {
                Ok(Response::UpdateAck { changed: true, .. }) => tally.record_ok(sent),
                Ok(other) => tally.record_failure(&other),
                Err(e) => {
                    tally.record_failure(&e);
                    break;
                }
            }
            if let Some(log) = spans.as_deref_mut() {
                log.push("client.update", sent, Instant::now(), None, sent_updates);
            }
            sent_updates += 1;
            while let Some(n) = client.poll_notification() {
                let slot = &mut standing[n.id as usize];
                // Size-bounded answers can list one vertex set twice,
                // which `diff_answers` (identity = vertex list) cannot
                // describe; for those the subscriber rebases on the full
                // answer the frame carries, as a stateless consumer does.
                let replays = !crate::check::is_bounded(&queries[n.id as usize]);
                if n.resync || (replays && ic_sub::replay(slot, &n.deltas) != n.answer) {
                    tally.record_failure(&format!(
                        "NOTIFY for standing query {}: resync={} or replay(deltas) != answer",
                        n.id, n.resync
                    ));
                }
                *slot = n.answer;
            }
        }
        Instant::now()
    }

    /// Writer on connection 0 (W = 1), reader on connection 1, coupled
    /// by [`Credits`]; the window closes when the writer stops.
    fn drive_pool(
        stack: &mut Stack,
        pool: &mut TogglePool,
        seed: u64,
        budget: Budget<'_>,
        in_flight: usize,
        traced: bool,
    ) -> Driven {
        let mut reads = ZipfStream::churn_reads(seed, 1);
        let credits = Credits::new(READS_PER_UPDATE);
        let slots = traffic::churn_read_templates().len();
        let (writer_conn, reader_conn) = stack.clients.split_at_mut(1);
        let standing = &mut stack.standing;
        let start = Instant::now();
        let stop = budget.stop(start);
        let per_client = std::thread::scope(|scope| {
            let credits = &credits;
            let writer = scope.spawn(move || {
                let mut tally = Tally::default();
                let mut log = traced.then(|| SpanLog::new(start));
                let end = Self::write_loop(
                    &mut writer_conn[0],
                    pool,
                    standing,
                    credits,
                    stop,
                    &mut tally,
                    log.as_mut(),
                );
                (end, tally, log)
            });
            let reader = scope.spawn(move || {
                // The reader ignores reply digests during the window:
                // answers legitimately change with every epoch.
                let mut tally = Tally::default();
                let mut log = traced.then(|| SpanLog::new(start));
                let end = closed_loop(
                    &mut reader_conn[0],
                    &mut reads,
                    in_flight,
                    Stop::At(start + Duration::from_secs(3600)),
                    Some(credits),
                    &mut tally,
                    log.as_mut(),
                );
                (end, tally, log)
            });
            vec![
                writer.join().expect("writer thread panicked"),
                reader.join().expect("reader thread panicked"),
            ]
        });
        fold(start, per_client, slots)
    }

    /// The pinned graph with the pool's current toggles applied.
    fn toggled_graph(&self, pool: &TogglePool) -> WeightedGraph {
        let g = self.graph.graph();
        let mut edges: std::collections::BTreeSet<(u32, u32)> = g.edges().collect();
        for ((u, v), present) in pool.state() {
            if present {
                edges.insert((u, v));
            } else {
                edges.remove(&(u, v));
            }
        }
        let mut builder = GraphBuilder::with_capacity(edges.len());
        builder.reserve_vertices(g.num_vertices());
        builder.extend_edges(edges);
        WeightedGraph::new(builder.build(), self.graph.weights().to_vec())
            .expect("one weight per vertex")
    }
}

impl Workload for Churn {
    type Stack = Stack;

    fn name(&self) -> &'static str {
        spec::CHURN
    }

    fn in_flight(&self) -> usize {
        4
    }

    /// 25 UPDATE frames and the reads they grant.
    fn slice_ops(&self) -> usize {
        25 * (1 + READS_PER_UPDATE as usize)
    }

    fn setup(&mut self, _scratch: &Path) -> Stack {
        let engine = Arc::new(Engine::new(build_graph(&self.graph)));
        let server = bind(&engine);
        let mut clients = connect(server.local_addr());
        let standing = traffic::standing_queries()
            .iter()
            .enumerate()
            .map(|(id, q)| match clients[0].subscribe(id as u64, q) {
                Ok(Response::Reply {
                    outcome: ic_serve::Outcome::Complete(answer),
                    ..
                }) => answer,
                other => panic!("SUBSCRIBE {q:?} failed: {other:?}"),
            })
            .collect();
        let mut stack = Stack {
            engine,
            server,
            clients,
            standing,
        };
        // Warm-up, fixed op count: eight UPDATE rounds and their reads
        // from a pool of its own, then the same eight again, which
        // toggles every pair back.
        let mut pool = TogglePool::new(&self.graph, &self.cores, 0);
        for _ in 0..2 {
            pool.rewind();
            let warm =
                Self::drive_pool(&mut stack, &mut pool, 0, Budget::OpsPerClient(8), 4, false);
            assert_eq!(warm.tally.failed, 0, "churn warm-up op failed");
        }
        stack
    }

    fn teardown(&mut self, stack: Stack) {
        stack.stop();
    }

    fn streams(&self, seed: u64) -> Vec<Box<dyn Stream>> {
        vec![Box::new(ZipfStream::churn_reads(seed, 1))]
    }

    fn traffic_checksum(&self, seed: u64) -> u64 {
        let reads = traffic::checksum(&mut self.streams(seed), 1000);
        reads ^ TogglePool::new(&self.graph, &self.cores, seed).checksum()
    }

    /// `OpsPerClient(n)` means `n` UPDATE frames (and their reads).
    fn drive(&mut self, stack: &mut Stack, seed: u64, budget: Budget<'_>, traced: bool) -> Driven {
        // A second drive continues the first one's pool: a fresh one
        // would believe the graph is back in its initial state.
        let mut pool = self
            .pool
            .take()
            .unwrap_or_else(|| TogglePool::new(&self.graph, &self.cores, seed));
        let driven = Self::drive_pool(stack, &mut pool, seed, budget, self.in_flight(), traced);
        self.pool = Some(pool);
        driven
    }

    /// After the window has quiesced: the subscriber's replayed view of
    /// every standing query, and a fresh read of every standing query
    /// and read template, against direct solves on the toggled graph.
    fn check(&mut self, stack: &mut Stack, _driven: &Driven) -> Verdict {
        let pool = self.pool.as_ref().expect("check follows a drive");
        let toggled = self.toggled_graph(pool);
        let standing_queries = traffic::standing_queries();
        let mut fresh: Vec<Query> = standing_queries.clone();
        fresh.extend(traffic::churn_read_templates());
        let mut slots = Slots::with_len(standing_queries.len() + fresh.len());
        for (i, (q, answer)) in standing_queries.iter().zip(&stack.standing).enumerate() {
            slots.observe(i as u32, q, answer);
        }
        let mut verdict = Verdict::default();
        let reader = &mut stack.clients[1];
        for (i, q) in fresh.iter().enumerate() {
            match reader.call(i as u64, q) {
                Ok(Response::Reply {
                    outcome: ic_serve::Outcome::Complete(answer),
                    ..
                }) => slots.observe((standing_queries.len() + i) as u32, q, &answer),
                other => verdict
                    .mismatches
                    .push(format!("fresh read {q:?} failed: {other:?}")),
            }
        }
        verdict.absorb(against_reference(&toggled, &slots));
        verdict
    }

    fn structural_graph(&self) -> &WeightedGraph {
        &self.graph
    }

    fn counters(&self, stack: &Stack) -> Counters {
        Counters::of(stack)
    }

    fn first_answer_ms(&mut self, _scratch: &Path) -> f64 {
        first_answer(
            || Engine::new(build_graph(&self.graph)),
            &Query::new(KS[0], 10, Aggregation::Min),
        )
    }

    /// Reads only; the write path has a probe of its own.
    fn ladder(&mut self, stack: &mut Stack, seed: u64, log: &mut SpanLog) -> Ladder {
        let ops = sample_ops(&mut self.streams(seed), LADDER_OPS);
        engine_ladder(stack, &ops, true, log)
    }
}

pub fn small_input() -> Result<WeightedGraph, String> {
    let wg = inputs::small_graph();
    inputs::check_fingerprint("youtube-quick", &wg, spec::SMALL_GRAPH)?;
    Ok(wg)
}

pub fn large_input() -> Result<WeightedGraph, String> {
    let wg = inputs::large_graph();
    inputs::check_fingerprint("chung-lu-400k", &wg, spec::LARGE_GRAPH)?;
    Ok(wg)
}
