//! The micro-batching TCP server.
//!
//! # Architecture
//!
//! ```text
//!  accept thread ──► connection threads (reader + writer per socket)
//!                         │ submit()                 ▲ mpsc<Outbound>
//!                         ▼                          │ one per job ×
//!                   admission queue ──► batcher      │ connection
//!                 (Mutex<VecDeque> + Condvar)  │     │
//!                                              ▼     │
//!                           QueryBackend::submit ──► engine worker pool(s)
//! ```
//!
//! The container is offline (no tokio), so the server is plain
//! `std::net` + `std::thread`: one blocking reader and one writer
//! thread per connection, one bounded **admission queue**, and one
//! **batcher** thread, which flushes the queries it has accumulated as
//! *one* engine batch — that is where the engine's
//! dedup, r-family merging, and work-stealing pay off across clients,
//! not just within one.
//!
//! **A flush returns once its batch is planned.** The batcher hands the
//! batch to [`QueryBackend::submit`] and goes back to admitting the
//! next one while the engine's worker pool drains the last. Each
//! answer slice the backend hands back — the plan-time answers, then
//! one slice per finished job — becomes one message per connection at
//! once, so a forest read leaves while a search in the same batch still
//! runs. The pool runs batches oldest first; a batch admitted later is
//! planned against the snapshot serving at its own flush. A sharded
//! backend hands each merged answer back when its last shard leg lands.
//!
//! **Admission is work-conserving.** A batch leaves as soon as its
//! *oldest* query has waited out the **linger**,
//! `min(admission_window, recent batch service time / 2)`, or
//! `MAX_BATCH` (256) queries are queued. Waiting is worth a
//! fraction of the work it can amortize, never more: cache-hit traffic
//! (batches of microseconds) stops waiting, while solver-bound traffic
//! (batches of tens of milliseconds) lingers for the whole window
//! (default 1 ms) and coalesces exactly as a fixed window would. A
//! batch's service time runs from its submit to its last answer, and
//! the batch feeds it to a moving average when that answer leaves,
//! seeded so the first linger is the whole window.
//! [`ServeConfig::admission_window`] is the hard upper bound on the
//! linger, and `0` means "never linger". A reader wakes the batcher
//! when it makes the queue non-empty or full, not on every push.
//!
//! **Frame I/O is one syscall per direction.** A reader pulls whatever
//! the socket holds into one buffer and cuts frames (or JSON lines) out
//! of it, so a pipelined burst costs one `read`. The writer encodes the
//! message that woke it, plus anything else already queued for the
//! socket, into one buffer and sends it with one `write`. Replies are
//! encoded there straight from the engine's shared result slots
//! ([`ic_engine::SharedAnswer`]): a cached answer is copied once, into
//! that buffer, on its way from the result cache to the kernel.
//!
//! **Backpressure / shedding** — the queries admitted and not yet
//! answered are bounded ([`ServeConfig::queue_capacity`]), whether they
//! still queue or run in a batch; a query arriving beyond the bound is
//! not silently dropped or queued unboundedly, it gets a typed
//! [`Response::Overloaded`] reply immediately (reason `QueueFull`, or
//! `Draining` during shutdown) and the client can retry elsewhere.
//!
//! **Deadline anchoring** — every admitted query records its admission
//! instant. A flush anchors the engine batch at the *earliest*
//! admission ([`BatchOptions::deadline_from`]) and widens each other
//! query's deadline by its extra wait, so each query's budget expires
//! at exactly `admitted_at + deadline`: time spent waiting in the
//! admission queue counts against the budget, end to end.
//!
//! **Epoch pinning** — a batch runs against one immutable snapshot and
//! every reply is tagged with its [`Epoch`](ic_engine::Epoch) index, so
//! a client holding several in-flight queries can tell exactly which
//! graph version answered each one even while `Engine::apply` runs
//! concurrently.
//!
//! **Graceful drain** — a [`Request::Shutdown`] frame (or
//! [`Server::shutdown`]) flips the server into draining: new queries
//! are shed, the batcher flushes everything already admitted, and each
//! connection's writer sends the tail replies **then** a
//! [`Response::ShutdownAck`] before the socket closes. The
//! flush-before-ack ordering is structural, not scheduled: a reply
//! channel closes only when the reader *and* every in-flight admitted
//! query have dropped their senders — a query's sender goes with its
//! answer — and the writer acks only after the channel closes.
//!
//! **Nothing polls for work.** The accept thread blocks in `accept()`,
//! so a connection is served when it arrives; the batcher blocks on the
//! queue's condvar. Whoever starts the drain wakes both: the batcher
//! through the condvar (under the queue lock, so the wake-up cannot
//! slip between the batcher's check and its wait), the accept thread
//! with a throw-away loopback connection to the listener, which it
//! drops unserved. Only an *idle open connection* still notices a drain
//! by its read timeout (`READ_TICK`).
//!
//! **One reader for both wire modes.** The first byte picks the mode
//! once per connection: [`MAGIC`] means length-prefixed frames,
//! anything else `\n`-terminated JSON lines. Both are cut out of the
//! same [`FrameBuf`] by the same loop, under the same rules: a request
//! whose framing cannot be resynchronized (bad magic, a length or line
//! over [`REQ_PAYLOAD_MAX`]) is answered with a protocol error and the
//! connection closes; a bad request inside a well-delimited frame or
//! line is answered and the connection keeps serving; end of stream
//! inside a frame or line is answered `stream ended mid-frame`; and a
//! partial frame or line left silent for `MID_FRAME_STALLS × READ_TICK`
//! (≈ 5 s) is cut as truncated, so a client holding half a request
//! cannot keep a drain waiting.

use crate::error::ProtocolError;
use crate::protocol::{
    self, ErrorKind, FrameBuf, Outcome, Request, Response, ShedReason, WireNotification, WireQuery,
    MAGIC, REQ_PAYLOAD_MAX,
};
use ic_core::Query;
use ic_engine::{AnswerSink, BatchOptions, EdgeUpdate, Engine, Epoch, QueryBackend, SharedAnswer};
use ic_sub::{Admission, NotificationGate, SubscriptionId, SubscriptionManager};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle socket read blocks before re-checking the draining
/// flag (drain responsiveness, not a client-visible timeout).
const READ_TICK: Duration = Duration::from_millis(50);
/// How long the accept loop backs off after a failed `accept` (e.g.
/// `EMFILE`), so a persistent error cannot spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(25);
/// How long the drain's wake-up connection to the listener may take.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);
/// Consecutive mid-frame read timeouts tolerated before the stream is
/// declared truncated (READ_TICK × this ≈ 5 s of mid-frame silence).
const MID_FRAME_STALLS: u32 = 100;
/// Writer-side timeout: a client that stops reading for this long has
/// its connection dropped rather than wedging the writer thread.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// A batch's oldest query waits for company for at most this share
/// (one part in `LINGER_DIVISOR`) of the recently measured batch
/// service time.
const LINGER_DIVISOR: u32 = 2;
/// Bytes a reader pulls from its socket per `read`: a few hundred
/// pipelined query frames, and room for the largest frame or line.
const READ_BUF_LEN: usize = 16 * 1024;
/// A writer stops gathering further queued messages into one `write`
/// once it holds this many encoded bytes.
const WRITE_GATHER_MAX: usize = 256 * 1024;
/// Largest number of queries flushed as one engine batch.
const MAX_BATCH: usize = 256;
/// Per-subscription bound on notifications admitted but not yet
/// written (see `ic_sub::NotificationGate`); a subscriber lagging
/// beyond it has notifications shed and the next delivered one flagged
/// as a resync.
const NOTIFY_CAPACITY: usize = 64;

/// Server tuning knobs; `ServeConfig::default()` is the recommended
/// starting point.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Upper bound on the linger: the longest the batcher holds a batch
    /// open after its first query so concurrent queries coalesce into
    /// one engine batch. The linger actually taken is the smaller of
    /// this and a fixed share of the recently measured batch service
    /// time (see the module docs), so it only reaches the bound while
    /// batches are slow enough to be worth amortizing. `0` never
    /// lingers (a batch is whatever queued while the last was planned).
    pub admission_window: Duration,
    /// Bound on the queries admitted and not yet answered — still
    /// queued, or in a batch the backend is still running; a query
    /// arriving beyond it is shed with [`ShedReason::QueueFull`]. Batches
    /// overlap, so this, not the queue's length, is what bounds the work
    /// a server holds.
    pub queue_capacity: usize,
    /// End-to-end latency (earliest admission → last reply written)
    /// above which a batch's trace lands in the slow-query log
    /// ([`Server::slow_queries_json`]).
    pub slow_query_threshold: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            admission_window: Duration::from_millis(1),
            queue_capacity: 1024,
            slow_query_threshold: Duration::from_millis(100),
        }
    }
}

/// Monotonic serving counters, readable at any time via
/// [`Server::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries accepted into the admission queue.
    pub admitted: u64,
    /// Queries shed with [`ShedReason::QueueFull`].
    pub shed_queue_full: u64,
    /// Queries shed with [`ShedReason::Draining`].
    pub shed_draining: u64,
    /// Engine batches flushed.
    pub batches: u64,
    /// Size of the largest flushed batch (measures coalescing).
    pub largest_batch: u64,
}

/// One message bound for a connection's writer thread.
enum Outbound {
    /// A single response frame.
    Response(Response),
    /// A STATS reply, snapshotted by the writer when it encodes the
    /// frame: the writer settles every message it has written before it
    /// takes the next, so the snapshot counts every batch whose replies
    /// this connection was sent ahead of it.
    Stats { id: u64 },
    /// A NOTIFY frame, plus the notification gate to rebalance once the
    /// message has left the process — written or abandoned, it is off
    /// the queue either way.
    Notify {
        notify: Response,
        gate: Arc<NotificationGate>,
    },
    /// The replies one finished job (or a batch's plan-time answers)
    /// owes this connection: `(request id, the engine's shared result
    /// slot)` pairs, encoded by the writer straight from the slots, and
    /// the batch track whose last settled reply finalizes the batch's
    /// trace.
    Answers {
        epoch: u64,
        answers: Vec<(u64, SharedAnswer)>,
        track: Arc<BatchTrack>,
    },
}

impl From<Response> for Outbound {
    fn from(response: Response) -> Self {
        Outbound::Response(response)
    }
}

/// Appends one message to `buf` in the connection's wire mode: a binary
/// frame around whatever `binary` encodes, or the line `json` renders.
fn push_wire(
    mode: Mode,
    buf: &mut Vec<u8>,
    binary: impl FnOnce(&mut Vec<u8>),
    json: impl FnOnce() -> String,
) {
    match mode {
        Mode::Binary => {
            let at = protocol::begin_frame(buf);
            binary(buf);
            protocol::end_frame(buf, at);
        }
        Mode::Json => {
            buf.extend_from_slice(json().as_bytes());
            buf.push(b'\n');
        }
    }
}

/// Appends one response frame (or JSON line) to `buf`.
fn push_response(mode: Mode, response: &Response, buf: &mut Vec<u8>) {
    push_wire(
        mode,
        buf,
        |out| protocol::encode_response(response, out),
        || protocol::render_json_response(response),
    );
}

impl Outbound {
    /// Appends the message's frames (or JSON lines) to `buf`.
    fn encode(&self, mode: Mode, shared: &Shared, buf: &mut Vec<u8>) {
        match self {
            Outbound::Response(response)
            | Outbound::Notify {
                notify: response, ..
            } => push_response(mode, response, buf),
            Outbound::Stats { id } => {
                let entries = shared.stats_entries();
                push_response(mode, &Response::Stats { id: *id, entries }, buf);
            }
            Outbound::Answers { epoch, answers, .. } => {
                for (id, slot) in answers {
                    push_wire(
                        mode,
                        buf,
                        |out| protocol::encode_reply(*id, *epoch, slot, out),
                        || protocol::render_json_reply(*id, *epoch, slot),
                    );
                }
            }
        }
    }

    /// Called once the message is off the queue, written or abandoned
    /// with its client: frees the notification's gate slot, settles the
    /// batch track.
    fn settle(&self) {
        match self {
            Outbound::Response(_) | Outbound::Stats { .. } => {}
            Outbound::Notify { gate, .. } => gate.delivered(),
            Outbound::Answers { track, answers, .. } => track.settled(answers.len()),
        }
    }
}

/// What finished batches report back to admission: the queries
/// admitted and not yet answered (bounded by
/// [`ServeConfig::queue_capacity`]), and the linger — a moving average
/// of `batch service time / LINGER_DIVISOR`, capped by the window when
/// applied.
struct Flow {
    unanswered: AtomicUsize,
    linger_ns: AtomicU64,
}

impl Flow {
    /// Feeds one batch's service time (submit → last answer) into the
    /// linger.
    fn observe_service(&self, service: Duration) {
        let sample = u64::try_from((service / LINGER_DIVISOR).as_nanos()).unwrap_or(u64::MAX);
        let _ = self
            .linger_ns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                Some(old.saturating_mul(3).saturating_add(sample) / 4)
            });
    }

    fn linger(&self) -> Duration {
        Duration::from_nanos(self.linger_ns.load(Ordering::Relaxed))
    }
}

/// One flushed batch on its way back to its clients. It is the batch's
/// answer sink: each slice the backend hands over becomes one
/// [`Outbound::Answers`] per connection, sent at once. The messages fan
/// out to several connections' writer threads; whichever writes (or
/// abandons) the batch's last reply closes the trace: it records the
/// reply-write span, observes the end-to-end latency, and offers the
/// trace to the slow-query log.
struct BatchTrack {
    trace: Arc<ic_obs::Trace>,
    /// Where each query's reply goes, taken when its answer arrives: a
    /// connection's channel stays open while one of its queries is
    /// unanswered, and no longer.
    routes: Mutex<Vec<Option<Admitted>>>,
    /// Queries whose answer has not reached a writer yet.
    unsent: AtomicUsize,
    /// Queries whose reply has not been written or abandoned yet.
    unsettled: AtomicUsize,
    submitted: Instant,
    /// When the batch's last answer was handed to the writers.
    handed: OnceLock<Instant>,
    /// The batch deadline anchor (earliest admission); end-to-end
    /// latency is measured from here.
    anchor: Instant,
    flow: Arc<Flow>,
    batch_ns: ic_obs::Histogram,
    reply_write_ns: ic_obs::Histogram,
    slow_log: Arc<ic_obs::SlowLog>,
}

impl BatchTrack {
    /// Groups one slice of answers by connection (the merge span) and
    /// hands each connection its share as one message.
    fn deliver(self: &Arc<Self>, epoch: Epoch, answers: &[(usize, SharedAnswer)]) {
        let merge_sw = ic_obs::Stopwatch::start();
        let mut per_conn: Vec<ConnAnswers> = Vec::new();
        {
            let mut routes = self.routes.lock().unwrap();
            for (idx, slot) in answers {
                let admitted = routes[*idx].take().expect("each query is answered once");
                let answer = (admitted.wire.id, Arc::clone(slot));
                match per_conn.iter_mut().find(|c| c.conn == admitted.conn) {
                    Some(found) => found.answers.push(answer),
                    None => per_conn.push(ConnAnswers {
                        conn: admitted.conn,
                        reply_to: admitted.reply_to,
                        answers: vec![answer],
                    }),
                }
            }
        }
        merge_sw.record(&self.trace, ic_obs::Stage::Merge);
        self.flow
            .unanswered
            .fetch_sub(answers.len(), Ordering::AcqRel);
        if self.unsent.fetch_sub(answers.len(), Ordering::AcqRel) == answers.len() {
            self.flow.observe_service(self.submitted.elapsed());
            let _ = self.handed.set(Instant::now());
        }
        for ConnAnswers {
            reply_to, answers, ..
        } in per_conn
        {
            let n = answers.len();
            let outbound = Outbound::Answers {
                epoch: epoch.index(),
                answers,
                track: Arc::clone(self),
            };
            // A send error means the client disconnected; its answers are
            // simply dropped with it (but still settle the batch track).
            if reply_to.send(outbound).is_err() {
                self.settled(n);
            }
        }
    }

    /// Marks `n` replies settled (written or abandoned with their
    /// client); the batch's last one finalizes the trace.
    fn settled(&self, n: usize) {
        if self.unsettled.fetch_sub(n, Ordering::AcqRel) != n {
            return;
        }
        let write = self.handed.get().map_or(Duration::ZERO, Instant::elapsed);
        self.trace.record(ic_obs::Stage::ReplyWrite, write);
        self.reply_write_ns.observe(write);
        let total = self.anchor.elapsed();
        self.batch_ns.observe(total);
        self.slow_log.observe(&self.trace, total);
    }
}

struct Admitted {
    wire: WireQuery,
    admitted_at: Instant,
    /// Which connection asked (a batch groups its replies by this).
    conn: u64,
    reply_to: Sender<Outbound>,
}

/// One live subscriber: where its notifications go and the gate
/// bounding how far it may lag.
struct Subscriber {
    client_id: u64,
    reply_to: Sender<Outbound>,
    gate: Arc<NotificationGate>,
}

/// The subscription side of the server: the standing-query manager plus
/// the routing table from manager-side ids to connections. Present only
/// when the server fronts a concrete [`Engine`] ([`Server::bind`]);
/// [`Server::bind_backend`] serves read-only backends, where SUBSCRIBE
/// and UPDATE are refused typed.
struct Hub {
    manager: SubscriptionManager,
    subscribers: Mutex<HashMap<u64, Subscriber>>,
}

/// The serve-layer metrics (`serve.*` names) on a per-server registry.
/// The original five ad-hoc counters live here now — [`Server::stats`]
/// is a thin view over them — alongside the rest of the serving
/// surface. Handles are resolved once at bind time so hot paths are
/// single atomic ops.
struct ServeMetrics {
    registry: ic_obs::Registry,
    admitted: ic_obs::Counter,
    shed_queue_full: ic_obs::Counter,
    shed_draining: ic_obs::Counter,
    batches: ic_obs::Counter,
    largest_batch: ic_obs::Gauge,
    connections: ic_obs::Counter,
    protocol_errors: ic_obs::Counter,
    updates: ic_obs::Counter,
    subscribes: ic_obs::Counter,
    notify_delivered: ic_obs::Counter,
    notify_shed: ic_obs::Counter,
    notify_resync: ic_obs::Counter,
    queue_wait_ns: ic_obs::Histogram,
    batch_ns: ic_obs::Histogram,
    reply_write_ns: ic_obs::Histogram,
}

impl ServeMetrics {
    fn new() -> ServeMetrics {
        let registry = ic_obs::Registry::new();
        ServeMetrics {
            admitted: registry.counter("serve.admitted"),
            shed_queue_full: registry.counter("serve.shed.queue_full"),
            shed_draining: registry.counter("serve.shed.draining"),
            batches: registry.counter("serve.batches"),
            largest_batch: registry.gauge("serve.largest_batch"),
            connections: registry.counter("serve.connections"),
            protocol_errors: registry.counter("serve.protocol_errors"),
            updates: registry.counter("serve.updates"),
            subscribes: registry.counter("serve.subscribes"),
            notify_delivered: registry.counter("serve.notify.delivered"),
            notify_shed: registry.counter("serve.notify.shed"),
            notify_resync: registry.counter("serve.notify.resync"),
            queue_wait_ns: registry.histogram("serve.queue_wait_ns"),
            batch_ns: registry.histogram("serve.batch_ns"),
            reply_write_ns: registry.histogram("serve.reply_write_ns"),
            registry,
        }
    }
}

struct Shared {
    engine: Arc<dyn QueryBackend>,
    config: ServeConfig,
    queue: Mutex<VecDeque<Admitted>>,
    /// Wakes the batcher: work arrived, a batch filled, or a drain began.
    queue_cond: Condvar,
    flow: Arc<Flow>,
    draining: AtomicBool,
    /// Where a connection reaches the listener from this host: the bound
    /// address, with a wildcard IP replaced by its family's loopback.
    wake_addr: SocketAddr,
    conns: Mutex<Vec<JoinHandle<()>>>,
    next_conn: AtomicU64,
    hub: Option<Hub>,
    metrics: ServeMetrics,
    slow_log: Arc<ic_obs::SlowLog>,
}

impl Shared {
    /// Flips the server into draining and wakes every thread that
    /// blocks waiting for work; the first caller does it, later calls
    /// are no-ops.
    fn start_drain(&self) {
        if self.draining.swap(true, Ordering::AcqRel) {
            return;
        }
        // The batcher checks `draining` and starts waiting under this
        // lock: taking it once orders the notify after that wait.
        drop(self.queue.lock().unwrap());
        self.queue_cond.notify_all();
        // The accept thread blocks in `accept()`; a connection is the
        // one thing that returns it. It sees `draining` and drops the
        // stream unserved. (A failed connect means the listener is
        // already gone, or the host is out of descriptors — in which
        // case `accept` is failing too and the loop sees the flag.)
        let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Admits one query or returns why it was shed.
    fn submit(
        &self,
        wire: WireQuery,
        conn: u64,
        reply_to: Sender<Outbound>,
    ) -> Result<(), ShedReason> {
        let mut queue = self.queue.lock().unwrap();
        // Checked under the queue lock: the batcher only exits
        // after observing `draining` under this same lock with an empty
        // queue, so a push that wins the lock afterwards is guaranteed
        // to see `draining` too — no query can slip into a queue nobody
        // will ever flush.
        if self.is_draining() {
            drop(queue);
            self.metrics.shed_draining.inc();
            return Err(ShedReason::Draining);
        }
        if self.flow.unanswered.load(Ordering::Acquire) >= self.config.queue_capacity {
            drop(queue);
            self.metrics.shed_queue_full.inc();
            return Err(ShedReason::QueueFull);
        }
        queue.push_back(Admitted {
            wire,
            admitted_at: Instant::now(),
            conn,
            reply_to,
        });
        self.flow.unanswered.fetch_add(1, Ordering::AcqRel);
        // The batcher sleeps in two places: on an empty queue, and
        // lingering on a non-empty one until its deadline or a full
        // batch. Only the push that ends one of those needs to wake it.
        let wake = queue.len() == 1 || queue.len() == MAX_BATCH;
        drop(queue);
        self.metrics.admitted.inc();
        if wake {
            self.queue_cond.notify_one();
        }
        Ok(())
    }

    /// One flat name → value snapshot across every registry this server
    /// can see: its own `serve.*` metrics, the backend's registry
    /// (`engine.*` or `shard.*`, with the `store.*` counters of the
    /// stores it opened), and the subscription hub totals.
    fn stats_entries(&self) -> Vec<(String, f64)> {
        let mut entries = self.metrics.registry.flat_entries();
        if let Some(backend) = self.engine.obs_registry() {
            entries.extend(backend.flat_entries());
        }
        if let Some(hub) = &self.hub {
            let s = hub.manager.stats();
            entries.push(("sub.subscriptions".into(), s.subscriptions as f64));
            entries.push(("sub.applies".into(), s.applies as f64));
            entries.push(("sub.skipped".into(), s.skipped_total as f64));
            entries.push(("sub.refreshed".into(), s.refreshed_total as f64));
            entries.push(("sub.notifications".into(), s.notifications_total as f64));
        }
        entries
    }
}

/// A running ic-serve instance. Bind with [`Server::bind`], stop with
/// [`Server::shutdown`] (or a client's shutdown frame) followed by
/// [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port — see
    /// [`Server::local_addr`]) and starts the accept and batcher
    /// threads over `engine`. A server bound this way has a
    /// subscription hub: clients may SUBSCRIBE standing queries, push
    /// UPDATE batches, and receive NOTIFY deltas.
    pub fn bind(
        engine: Arc<Engine>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        let hub = Hub {
            manager: SubscriptionManager::new(Arc::clone(&engine)),
            subscribers: Mutex::new(HashMap::new()),
        };
        Self::bind_inner(engine, addr, config, Some(hub))
    }

    /// [`Server::bind`] over any [`QueryBackend`] — the single-store
    /// engine or a scatter-gather sharded backend (`ic-shard`'s
    /// `ShardedEngine`). The serving pipeline (admission, micro-batch
    /// coalescing, deadline anchoring, drain) is identical; only the
    /// batch executor differs. A backend bound this way gets no
    /// subscription hub: SUBSCRIBE and UPDATE are refused with a typed
    /// `unsupported` error.
    pub fn bind_backend(
        engine: Arc<dyn QueryBackend>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        Self::bind_inner(engine, addr, config, None)
    }

    fn bind_inner(
        engine: Arc<dyn QueryBackend>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
        hub: Option<Hub>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let mut wake_addr = local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let config = ServeConfig {
            queue_capacity: config.queue_capacity.max(1),
            ..config
        };
        let shared = Arc::new(Shared {
            engine,
            config,
            queue: Mutex::new(VecDeque::new()),
            queue_cond: Condvar::new(),
            // Seeded with the window, so until a batch has been measured
            // a query buys the whole window.
            flow: Arc::new(Flow {
                unanswered: AtomicUsize::new(0),
                linger_ns: AtomicU64::new(
                    u64::try_from(config.admission_window.as_nanos()).unwrap_or(u64::MAX),
                ),
            }),
            draining: AtomicBool::new(false),
            wake_addr,
            conns: Mutex::new(Vec::new()),
            next_conn: AtomicU64::new(0),
            hub,
            metrics: ServeMetrics::new(),
            slow_log: Arc::new(ic_obs::SlowLog::new(config.slow_query_threshold, 128)),
        });
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ic-serve-batch".into())
                .spawn(move || batcher(&shared))
                .expect("spawn batcher thread")
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ic-serve-accept".into())
                .spawn(move || accept_loop(listener, &shared))
                .expect("spawn accept thread")
        };
        Ok(Server {
            shared,
            accept: Some(accept),
            batcher: Some(batcher),
            local_addr,
        })
    }

    /// The bound address (resolves an ephemeral port request).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current serving counters — a thin view over the `serve.*`
    /// entries of the metrics registry (see [`Server::stats_entries`]
    /// for the full surface).
    pub fn stats(&self) -> ServeStats {
        let m = &self.shared.metrics;
        ServeStats {
            admitted: m.admitted.get(),
            shed_queue_full: m.shed_queue_full.get(),
            shed_draining: m.shed_draining.get(),
            batches: m.batches.get(),
            largest_batch: m.largest_batch.get().max(0) as u64,
        }
    }

    /// Everything a STATS frame reports: the serve-layer registry, the
    /// backend's, and (on hub-bearing servers) the subscription totals,
    /// as flat `(name, value)` pairs.
    pub fn stats_entries(&self) -> Vec<(String, f64)> {
        self.shared.stats_entries()
    }

    /// The slow-query log as JSON lines (newest last; empty string when
    /// nothing has crossed [`ServeConfig::slow_query_threshold`] yet).
    pub fn slow_queries_json(&self) -> String {
        self.shared.slow_log.dump_json_lines()
    }

    /// Whether a drain (client shutdown frame or [`Server::shutdown`])
    /// has started.
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// Starts a graceful drain: stop accepting, shed new queries,
    /// answer everything already admitted, ack and close every
    /// connection. Wakes the accept thread (one loopback connection to
    /// the listener) and the batcher, then returns; [`Server::join`]
    /// waits. A client's SHUTDOWN frame does exactly the same.
    pub fn shutdown(&self) {
        self.shared.start_drain();
    }

    /// Waits for the drain to complete: accept loop, batcher, and
    /// every connection thread (each of which joins its own writer, so
    /// returning from `join` means every tail reply and every
    /// `ShutdownAck` has been written). Nothing it waits for polls on a
    /// timer except the reader of a connection its client left open and
    /// idle (up to `READ_TICK`), so with the clients gone `join` returns
    /// as soon as the admitted work is answered.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().unwrap());
        for conn in conns {
            let _ = conn.join();
        }
    }
}

// ---------------------------------------------------------------------
// Batcher

fn batcher(shared: &Shared) {
    let window = shared.config.admission_window;
    let mut batch: Vec<Admitted> = Vec::new();
    loop {
        {
            let mut queue = shared.queue.lock().unwrap();
            // Sleep until there is work (or the server drains dry).
            while queue.is_empty() {
                if shared.is_draining() {
                    return;
                }
                let (guard, _) = shared.queue_cond.wait_timeout(queue, READ_TICK).unwrap();
                queue = guard;
            }
            // Hold the batch open for the linger, measured from the
            // *first* admission so it bounds added latency, not
            // inter-arrival gaps — and so that queries which queued
            // while the last flush was planned leave without further
            // wait.
            let linger_end = queue.front().unwrap().admitted_at + shared.flow.linger().min(window);
            while queue.len() < MAX_BATCH && !shared.is_draining() {
                let now = Instant::now();
                if now >= linger_end {
                    break;
                }
                let (guard, _) = shared
                    .queue_cond
                    .wait_timeout(queue, linger_end - now)
                    .unwrap();
                queue = guard;
            }
            let take = queue.len().min(MAX_BATCH);
            batch.extend(queue.drain(..take));
        }
        flush(shared, &mut batch);
    }
}

/// One connection's share of an answer slice.
struct ConnAnswers {
    conn: u64,
    reply_to: Sender<Outbound>,
    answers: Vec<(u64, SharedAnswer)>,
}

/// Submits one admission batch as one pinned engine batch and returns
/// once it is planned: its answers go out as its jobs end, through a
/// [`BatchTrack`] that traces the batch's lifecycle — queue wait
/// (earliest admission → pickup), the engine's plan/solve spans, merge
/// (grouping answers by connection), and, finalized by the last writer,
/// reply write, which covers the encode.
fn flush(shared: &Shared, batch: &mut Vec<Admitted>) {
    if batch.is_empty() {
        return;
    }
    let flush_start = Instant::now();
    let m = &shared.metrics;
    let anchor = batch
        .iter()
        .map(|a| a.admitted_at)
        .min()
        .expect("batch is non-empty");
    let trace = Arc::new(ic_obs::Trace::new());
    trace.record(ic_obs::Stage::QueueWait, flush_start.duration_since(anchor));
    if ic_obs::enabled() {
        for a in batch.iter() {
            m.queue_wait_ns
                .observe(flush_start.duration_since(a.admitted_at));
        }
    }
    let queries: Vec<Query> = batch
        .iter()
        .map(|a| {
            let mut query = a.wire.query;
            if let Some(deadline) = query.deadline {
                // The engine measures every deadline from the batch
                // anchor (the earliest admission). This query was
                // admitted `a.admitted_at - anchor` later, so widen its
                // deadline by exactly that much: its budget then expires
                // at `admitted_at + deadline`, regardless of batching.
                let extra = a.admitted_at.duration_since(anchor);
                query.deadline = Some(deadline.checked_add(extra).unwrap_or(Duration::MAX));
            }
            query
        })
        .collect();
    m.batches.inc();
    m.largest_batch.raise_to(batch.len() as i64);
    let track = Arc::new(BatchTrack {
        trace: Arc::clone(&trace),
        unsent: AtomicUsize::new(batch.len()),
        unsettled: AtomicUsize::new(batch.len()),
        routes: Mutex::new(batch.drain(..).map(Some).collect()),
        submitted: Instant::now(),
        handed: OnceLock::new(),
        anchor,
        flow: Arc::clone(&shared.flow),
        batch_ns: m.batch_ns.clone(),
        reply_write_ns: m.reply_write_ns.clone(),
        slow_log: Arc::clone(&shared.slow_log),
    });
    let sink: AnswerSink = Arc::new(move |epoch, answers| track.deliver(epoch, answers));
    let options = BatchOptions::new().deadline_from(anchor);
    shared.engine.submit(&queries, &options, trace, sink);
}

// ---------------------------------------------------------------------
// Accept loop and connections

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.is_draining() {
            // Whatever just arrived is the drain's wake-up connection
            // (or a client too late to be served): dropped, not counted.
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let shared_conn = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("ic-serve-conn".into())
                    .spawn(move || connection(stream, &shared_conn))
                    .expect("spawn connection thread");
                let mut conns = shared.conns.lock().unwrap();
                // Reap finished connections so a long-lived server does
                // not accumulate handles.
                let mut live = Vec::with_capacity(conns.len() + 1);
                for conn in conns.drain(..) {
                    if conn.is_finished() {
                        let _ = conn.join();
                    } else {
                        live.push(conn);
                    }
                }
                live.push(handle);
                *conns = live;
            }
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Binary,
    Json,
}

fn connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    // Mode detection: peek the first byte without consuming it.
    let mut first = [0u8; 1];
    let mode = loop {
        match stream.peek(&mut first) {
            Ok(0) => return, // closed before speaking
            Ok(_) => {
                break if first[0] == MAGIC {
                    Mode::Binary
                } else {
                    Mode::Json
                }
            }
            Err(e) if is_timeout(&e) => {
                if shared.is_draining() {
                    return; // never spoke; nothing to drain or ack
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    };

    shared.metrics.connections.inc();
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Outbound>();
    let ack_on_close = Arc::new(AtomicBool::new(false));
    let writer = {
        let ack = Arc::clone(&ack_on_close);
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("ic-serve-write".into())
            .spawn(move || write_loop(writer_stream, &rx, mode, &shared, &ack))
            .expect("spawn writer thread")
    };

    let mut subs = ConnSubs {
        id: shared.next_conn.fetch_add(1, Ordering::Relaxed),
        by_client: HashMap::new(),
    };
    read_requests(stream, mode, shared, &mut subs, &tx, &ack_on_close);
    // The connection's standing queries die with it: a NOTIFY has
    // nowhere to go once the socket closes.
    drop_conn_subscriptions(shared, &subs);
    // Closing the reader's sender — after every admitted query's clone
    // has been consumed by a flush — closes the channel; the writer
    // then acks (if owed) and shuts the socket down.
    drop(tx);
    let _ = writer.join();
}

/// One connection's identity and the standing subscriptions registered
/// on it, keyed by the client-chosen id (scoped to the connection;
/// different clients may reuse ids freely).
struct ConnSubs {
    id: u64,
    by_client: HashMap<u64, SubscriptionId>,
}

fn drop_conn_subscriptions(shared: &Shared, subs: &ConnSubs) {
    let Some(hub) = shared.hub.as_ref() else {
        return;
    };
    if subs.by_client.is_empty() {
        return;
    }
    {
        let mut subscribers = hub.subscribers.lock().unwrap();
        for id in subs.by_client.values() {
            subscribers.remove(&id.0);
        }
    }
    for id in subs.by_client.values() {
        hub.manager.unsubscribe(*id);
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Empties the writer's buffer for its next gather and gives back what
/// a bulk reply grew it by: capacity beyond [`WRITE_GATHER_MAX`] would
/// otherwise stay with the connection until it closes.
fn reset_write_buf(buf: &mut Vec<u8>) {
    buf.clear();
    buf.shrink_to(WRITE_GATHER_MAX);
}

/// Drains the connection's outbound queue onto the socket. Each wake-up
/// takes the message that woke it plus whatever else is already queued,
/// encodes all of it into one buffer, and sends that with one `write`.
fn write_loop(
    mut stream: TcpStream,
    rx: &Receiver<Outbound>,
    mode: Mode,
    shared: &Shared,
    ack_on_close: &AtomicBool,
) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut buf = Vec::new();
    let mut gathered: Vec<Outbound> = Vec::new();
    let mut dead = false;
    while let Ok(first) = rx.recv() {
        let mut next = Some(first);
        while let Some(outbound) = next {
            if !dead {
                outbound.encode(mode, shared, &mut buf);
            }
            gathered.push(outbound);
            next = (buf.len() < WRITE_GATHER_MAX)
                .then(|| rx.try_recv().ok())
                .flatten();
        }
        if !dead && stream.write_all(&buf).is_err() {
            // The client stopped reading; kill the socket so the
            // reader sees EOF instead of serving a black hole, then
            // keep draining senders without writing.
            let _ = stream.shutdown(Shutdown::Both);
            dead = true;
        }
        reset_write_buf(&mut buf);
        // Written or abandoned, the messages are off the queue.
        for outbound in gathered.drain(..) {
            outbound.settle();
        }
    }
    if dead {
        return;
    }
    if ack_on_close.load(Ordering::Acquire) {
        push_response(mode, &Response::ShutdownAck, &mut buf);
        let _ = stream.write_all(&buf);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Tells the client what was wrong with its bytes.
fn report_protocol_error(shared: &Shared, tx: &Sender<Outbound>, e: &ProtocolError) {
    shared.metrics.protocol_errors.inc();
    let _ = tx.send(
        Response::ProtocolError {
            message: e.to_string(),
        }
        .into(),
    );
}

/// Serves one connection's requests in either wire mode (see the module
/// docs for the rules they share) until the client hangs up, asks for a
/// drain, breaks the framing, or the server drains.
fn read_requests(
    mut stream: TcpStream,
    mode: Mode,
    shared: &Arc<Shared>,
    subs: &mut ConnSubs,
    tx: &Sender<Outbound>,
    ack_on_close: &AtomicBool,
) {
    let mut frames = match mode {
        Mode::Binary => FrameBuf::new(REQ_PAYLOAD_MAX, READ_BUF_LEN),
        Mode::Json => FrameBuf::lines(REQ_PAYLOAD_MAX, READ_BUF_LEN),
    };
    // Consecutive read timeouts with part of a frame buffered.
    let mut stalls: u32 = 0;
    loop {
        let request = match frames.next_frame() {
            Ok(Some(payload)) => match mode {
                Mode::Binary => protocol::decode_request(payload),
                Mode::Json => match std::str::from_utf8(payload) {
                    Ok(line) if line.trim().is_empty() => continue,
                    Ok(line) => protocol::parse_json_request(line),
                    Err(_) => Err(ProtocolError::BadUtf8),
                },
            },
            // Nothing complete is buffered: read, riding out idle
            // timeouts. Between frames the read waits forever but
            // notices a drain; once mid-frame, silence beyond
            // `MID_FRAME_STALLS × READ_TICK` is a truncation.
            Ok(None) => {
                match frames.fill(&mut stream) {
                    Ok(0) if frames.mid_frame() => {
                        report_protocol_error(shared, tx, &ProtocolError::Truncated);
                        return;
                    }
                    Ok(0) => return, // client hung up; no ack owed
                    Ok(_) => stalls = 0,
                    Err(e) if is_timeout(&e) => {
                        if !frames.mid_frame() {
                            if shared.is_draining() {
                                ack_on_close.store(true, Ordering::Release);
                                return;
                            }
                        } else {
                            stalls += 1;
                            if stalls >= MID_FRAME_STALLS {
                                report_protocol_error(shared, tx, &ProtocolError::Truncated);
                                return;
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        report_protocol_error(shared, tx, &e.into());
                        return;
                    }
                }
                continue;
            }
            // Framing-level violations (bad magic, oversized or empty
            // prefix, an over-long line) make resynchronization
            // impossible: report if the socket still works, then close.
            Err(e) => {
                report_protocol_error(shared, tx, &e);
                return;
            }
        };
        match request {
            Ok(Request::Shutdown) => {
                ack_on_close.store(true, Ordering::Release);
                shared.start_drain();
                return;
            }
            Ok(Request::Query(wire)) => handle_query(shared, subs.id, tx, wire),
            Ok(Request::Subscribe(wire)) => handle_subscribe(shared, subs, tx, wire),
            Ok(Request::Unsubscribe { id }) => handle_unsubscribe(shared, subs, tx, id),
            Ok(Request::Update { id, updates }) => handle_update(shared, tx, id, &updates),
            Ok(Request::Stats { id }) => {
                let _ = tx.send(Outbound::Stats { id });
            }
            // A decode error inside a well-delimited frame or line
            // leaves the stream synchronized: report it, keep serving.
            Err(e) => report_protocol_error(shared, tx, &e),
        }
    }
}

fn handle_query(shared: &Arc<Shared>, conn: u64, tx: &Sender<Outbound>, wire: WireQuery) {
    let id = wire.id;
    if let Err(reason) = shared.submit(wire, conn, tx.clone()) {
        let _ = tx.send(Response::Overloaded { id, reason }.into());
    }
}

/// A typed per-request refusal: a [`Response::Reply`] carrying an
/// `unsupported` outcome, correlatable by id (unlike a bare
/// [`Response::ProtocolError`]).
fn refuse(tx: &Sender<Outbound>, id: u64, epoch: u64, message: String) {
    let _ = tx.send(
        Response::Reply {
            id,
            epoch,
            outcome: Outcome::Error {
                kind: ErrorKind::Unsupported,
                message,
            },
        }
        .into(),
    );
}

fn handle_subscribe(
    shared: &Arc<Shared>,
    subs: &mut ConnSubs,
    tx: &Sender<Outbound>,
    wire: WireQuery,
) {
    let Some(hub) = shared.hub.as_ref() else {
        refuse(
            tx,
            wire.id,
            0,
            "this backend does not support subscriptions".into(),
        );
        return;
    };
    let epoch = hub.manager.engine().epoch().index();
    if subs.by_client.contains_key(&wire.id) {
        refuse(
            tx,
            wire.id,
            epoch,
            format!(
                "subscription id {} is already live on this connection",
                wire.id
            ),
        );
        return;
    }
    match hub.manager.subscribe(wire.query) {
        Ok(sub) => {
            shared.metrics.subscribes.inc();
            let gate = Arc::new(NotificationGate::new(NOTIFY_CAPACITY));
            hub.subscribers.lock().unwrap().insert(
                sub.id.0,
                Subscriber {
                    client_id: wire.id,
                    reply_to: tx.clone(),
                    gate,
                },
            );
            subs.by_client.insert(wire.id, sub.id);
            let _ = tx.send(
                Response::Reply {
                    id: wire.id,
                    epoch: sub.epoch.index(),
                    outcome: Outcome::Complete(sub.answer),
                }
                .into(),
            );
        }
        Err(e) => {
            let _ = tx.send(
                Response::Reply {
                    id: wire.id,
                    epoch,
                    outcome: Outcome::from_engine(&Err(e)),
                }
                .into(),
            );
        }
    }
}

fn handle_unsubscribe(shared: &Arc<Shared>, subs: &mut ConnSubs, tx: &Sender<Outbound>, id: u64) {
    let removed = match (shared.hub.as_ref(), subs.by_client.remove(&id)) {
        (Some(hub), Some(sub_id)) => {
            hub.subscribers.lock().unwrap().remove(&sub_id.0);
            hub.manager.unsubscribe(sub_id)
        }
        // Unknown ids (and hub-less servers, where nothing can be
        // subscribed) ack with `removed: false` — unsubscribing is
        // idempotent, not an error.
        _ => false,
    };
    let _ = tx.send(Response::UnsubscribeAck { id, removed }.into());
}

fn handle_update(shared: &Arc<Shared>, tx: &Sender<Outbound>, id: u64, updates: &[EdgeUpdate]) {
    let Some(hub) = shared.hub.as_ref() else {
        // No hub means no subscribers to notify, so route straight
        // through the backend: read-only backends refuse typed, a
        // mutable one just works.
        match shared.engine.apply_updates(updates) {
            Ok((epoch, changed)) => {
                shared.metrics.updates.inc();
                let _ = tx.send(
                    Response::UpdateAck {
                        id,
                        epoch: epoch.index(),
                        changed,
                    }
                    .into(),
                );
            }
            Err(e) => {
                let _ = tx.send(
                    Response::Reply {
                        id,
                        epoch: 0,
                        outcome: Outcome::from_engine(&Err(e)),
                    }
                    .into(),
                );
            }
        }
        return;
    };
    match hub.manager.apply(updates) {
        Ok(report) => {
            let m = &shared.metrics;
            m.updates.inc();
            // Fan out the notifications *before* enqueueing the ack:
            // an updater subscribed on the same connection observes
            // NOTIFY frames ahead of its UPDATE_ACK, so "ack received"
            // implies "all deltas of that epoch received".
            let subscribers = hub.subscribers.lock().unwrap();
            for n in report.notifications {
                let Some(sub) = subscribers.get(&n.id.0) else {
                    continue; // unsubscribed between refresh and fanout
                };
                let resync = match sub.gate.admit() {
                    Admission::Shed => {
                        m.notify_shed.inc();
                        continue;
                    }
                    Admission::Deliver => false,
                    Admission::DeliverResync => {
                        m.notify_resync.inc();
                        true
                    }
                };
                m.notify_delivered.inc();
                let outbound = Outbound::Notify {
                    notify: Response::Notify(WireNotification {
                        id: sub.client_id,
                        epoch: n.epoch.index(),
                        resync,
                        deltas: n.deltas,
                        answer: n.answer,
                    }),
                    gate: Arc::clone(&sub.gate),
                };
                if sub.reply_to.send(outbound).is_err() {
                    // Writer already gone; give the admission back.
                    sub.gate.delivered();
                }
            }
            drop(subscribers);
            let _ = tx.send(
                Response::UpdateAck {
                    id,
                    epoch: report.epoch.index(),
                    changed: report.changed,
                }
                .into(),
            );
        }
        Err(e) => {
            let epoch = hub.manager.engine().epoch().index();
            let _ = tx.send(
                Response::Reply {
                    id,
                    epoch,
                    outcome: Outcome::from_engine(&Err(e)),
                }
                .into(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_bulk_reply_does_not_pin_the_writers_buffer() {
        // What one 4 MB max reply leaves behind.
        let mut buf = vec![0u8; 16 * WRITE_GATHER_MAX];
        reset_write_buf(&mut buf);
        assert!(buf.is_empty());
        assert!(
            buf.capacity() <= 2 * WRITE_GATHER_MAX,
            "writer kept {} bytes after a bulk reply",
            buf.capacity()
        );
        // An ordinary gather keeps its allocation for the next one.
        let mut small = Vec::with_capacity(WRITE_GATHER_MAX / 4);
        small.extend_from_slice(b"reply");
        let before = small.capacity();
        reset_write_buf(&mut small);
        assert!(small.is_empty());
        assert_eq!(small.capacity(), before);
    }
}
