//! The ic-serve wire protocol: framing, binary codecs, and the
//! JSON-lines debug rendering.
//!
//! # Frame layout (binary mode)
//!
//! ```text
//! ┌──────┬────────────────┬──────────────────────────────┐
//! │ 0xB1 │ length: u32 LE │ payload (length bytes)       │
//! └──────┴────────────────┴──────────────────────────────┘
//!                           payload[0] = frame type
//! ```
//!
//! Request frames (client → server) are capped at
//! [`REQ_PAYLOAD_MAX`] bytes, response frames (server → client) at
//! [`RESP_PAYLOAD_MAX`] — the asymmetry is deliberate: requests are
//! fixed-size records, responses carry whole vertex lists. A length
//! prefix over the cap means the stream is garbage or hostile; it is a
//! typed [`ProtocolError::FrameTooLarge`] and the connection closes
//! (there is no way to resynchronize past an arbitrary prefix).
//!
//! All integers are little-endian; `f64`s travel as `to_bits()` so
//! answers round-trip bit-exactly (the engine's conformance suite
//! compares by bits, and so does the serve integration test).
//!
//! # JSON-lines mode
//!
//! A connection whose **first byte** is not [`MAGIC`] is served in
//! JSON-lines mode: one flat JSON object per `\n`-terminated line in,
//! one JSON object per line out. It exists for debugging with `nc` —
//! the Rust [`Client`](crate::Client) always speaks binary. Parsing is
//! strict (see [`crate::json`]); anything malformed gets a
//! `{"status":"protocol_error",…}` line, never a panic. A line holds at
//! most [`REQ_PAYLOAD_MAX`] bytes before its `\n`; a longer one is
//! [`ProtocolError::FrameTooLarge`] and closes the connection, like an
//! oversized length prefix.

use crate::error::ProtocolError;
use crate::json::{self, JsonValue};
use ic_core::{Aggregation, Community, Constraint, Query};
use ic_engine::{AnswerStatus, EdgeUpdate, EngineError, QueryAnswer};
use ic_sub::Delta;
use std::borrow::Cow;
use std::io::{IoSlice, Read, Write};
use std::time::Duration;

/// First byte of every binary frame (and the binary-mode detector).
pub const MAGIC: u8 = 0xB1;
/// Request-frame payload cap (requests are small fixed-size records).
pub const REQ_PAYLOAD_MAX: u32 = 4096;
/// Response-frame payload cap (answers carry whole vertex lists).
pub const RESP_PAYLOAD_MAX: u32 = 1 << 26;

/// Frame type: a query request.
pub const FRAME_QUERY: u8 = 0x01;
/// Frame type: graceful-drain request.
pub const FRAME_SHUTDOWN: u8 = 0x02;
/// Frame type: register a standing query (same payload as a query).
pub const FRAME_SUBSCRIBE: u8 = 0x03;
/// Frame type: drop a standing query by its client-chosen id.
pub const FRAME_UNSUBSCRIBE: u8 = 0x04;
/// Frame type: apply edge updates to the served graph.
pub const FRAME_UPDATE: u8 = 0x05;
/// Frame type: fetch the server's live metrics snapshot.
pub const FRAME_STATS: u8 = 0x06;
/// Frame type: a query's answer.
pub const FRAME_REPLY: u8 = 0x81;
/// Frame type: the query was shed, not served.
pub const FRAME_OVERLOADED: u8 = 0x82;
/// Frame type: the peer violated the protocol.
pub const FRAME_PROTOCOL_ERROR: u8 = 0x83;
/// Frame type: drain complete, connection about to close.
pub const FRAME_SHUTDOWN_ACK: u8 = 0x84;
/// Frame type: a standing query's answer changed (server-initiated).
pub const FRAME_NOTIFY: u8 = 0x85;
/// Frame type: an update was applied; carries the new epoch.
pub const FRAME_UPDATE_ACK: u8 = 0x86;
/// Frame type: an unsubscribe completed.
pub const FRAME_UNSUBSCRIBE_ACK: u8 = 0x87;
/// Frame type: a metrics snapshot (`(name, value)` pairs).
pub const FRAME_STATS_REPLY: u8 = 0x88;

const QUERY_PAYLOAD_LEN: usize = 47;
/// Bytes per [`EdgeUpdate`] in an UPDATE frame (op + two endpoints).
const UPDATE_RECORD_LEN: usize = 9;
/// Most [`EdgeUpdate`]s one UPDATE frame can carry under
/// [`REQ_PAYLOAD_MAX`]; batch larger scripts across frames.
pub const UPDATES_PER_FRAME_MAX: usize = (REQ_PAYLOAD_MAX as usize - 13) / UPDATE_RECORD_LEN;

/// A query plus the client-chosen correlation id echoed on its reply.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireQuery {
    /// Client-chosen id; replies carry it back so batched, reordered
    /// responses can be matched to requests.
    pub id: u64,
    /// The query itself (validated server-side at plan time).
    pub query: Query,
}

/// A decoded client → server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Answer this query.
    Query(WireQuery),
    /// Register this query as a standing subscription under its
    /// client-chosen id; the initial answer arrives as a normal
    /// [`Response::Reply`] and later changes as [`Response::Notify`]
    /// frames carrying the same id.
    Subscribe(WireQuery),
    /// Drop the standing subscription registered under `id` on this
    /// connection.
    Unsubscribe {
        /// The client-chosen subscription id.
        id: u64,
    },
    /// Apply edge updates to the served graph (at most
    /// [`UPDATES_PER_FRAME_MAX`] per frame). Acked with
    /// [`Response::UpdateAck`]; affected subscribers on any connection
    /// get their notifications *before* this ack is enqueued.
    Update {
        /// Correlation id echoed on the ack.
        id: u64,
        /// The updates, applied in order as one atomic epoch step.
        updates: Vec<EdgeUpdate>,
    },
    /// Fetch a flat snapshot of every live metric (serving counters,
    /// engine/store registries, latency quantiles); answered with
    /// [`Response::Stats`].
    Stats {
        /// Correlation id echoed on the reply.
        id: u64,
    },
    /// Drain in-flight work, ack, and close this connection.
    Shutdown,
}

/// Why a query was shed instead of served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission queue was full (backpressure).
    QueueFull,
    /// The server is draining for shutdown.
    Draining,
}

/// What kind of per-query error the engine reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Validation/routing rejected the query.
    Search,
    /// The deadline expired before anything was proven.
    DeadlineExceeded,
    /// The solver panicked (isolated server-side).
    Internal,
    /// The backend refused the operation (e.g. updates against a
    /// read-only sharded backend, or an out-of-range endpoint).
    Unsupported,
}

/// One query's wire-level outcome — the serializable image of the
/// engine's `Result<QueryAnswer, EngineError>`.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// The full, bit-exact answer.
    Complete(Vec<Community>),
    /// A deadline-degraded answer (prefix certificate semantics; see
    /// `ic_engine::AnswerStatus`).
    Degraded {
        /// Communities, best first.
        communities: Vec<Community>,
        /// Leading entries proven equal to the full answer's prefix.
        proven_prefix_len: u64,
    },
    /// The engine could not answer the query.
    Error {
        /// Which failure class.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

impl Outcome {
    /// Converts an engine batch slot into its wire image.
    pub fn from_engine(slot: &Result<QueryAnswer, EngineError>) -> Self {
        match OutcomeRef::of_engine(slot) {
            OutcomeRef::Complete(communities) => Outcome::Complete(communities.to_vec()),
            OutcomeRef::Degraded {
                communities,
                proven_prefix_len,
            } => Outcome::Degraded {
                communities: communities.to_vec(),
                proven_prefix_len,
            },
            OutcomeRef::Error { kind, message } => Outcome::Error {
                kind,
                message: message.into_owned(),
            },
        }
    }
}

/// What an [`Outcome`] owns, by reference: the one shape both reply
/// encoders (binary and JSON) consume, so a reply encoded straight from
/// an engine slot ([`encode_reply`]) and one encoded from an owned
/// [`Response::Reply`] are the same bytes by construction.
enum OutcomeRef<'a> {
    Complete(&'a [Community]),
    Degraded {
        communities: &'a [Community],
        proven_prefix_len: u64,
    },
    Error {
        kind: ErrorKind,
        message: Cow<'a, str>,
    },
}

impl<'a> OutcomeRef<'a> {
    /// The wire image of an engine batch slot, borrowing its vertex
    /// lists.
    fn of_engine(slot: &'a Result<QueryAnswer, EngineError>) -> Self {
        match slot {
            Ok(ans) => match ans.status {
                AnswerStatus::Complete => OutcomeRef::Complete(&ans.communities),
                AnswerStatus::Degraded { proven_prefix_len } => OutcomeRef::Degraded {
                    communities: &ans.communities,
                    proven_prefix_len: proven_prefix_len as u64,
                },
            },
            Err(EngineError::DeadlineExceeded) => OutcomeRef::Error {
                kind: ErrorKind::DeadlineExceeded,
                message: Cow::Borrowed(""),
            },
            Err(e) => OutcomeRef::Error {
                kind: match e {
                    EngineError::Search(_) => ErrorKind::Search,
                    EngineError::Unsupported { .. } => ErrorKind::Unsupported,
                    _ => ErrorKind::Internal,
                },
                message: Cow::Owned(e.to_string()),
            },
        }
    }

    fn of_outcome(outcome: &'a Outcome) -> Self {
        match outcome {
            Outcome::Complete(communities) => OutcomeRef::Complete(communities),
            Outcome::Degraded {
                communities,
                proven_prefix_len,
            } => OutcomeRef::Degraded {
                communities,
                proven_prefix_len: *proven_prefix_len,
            },
            Outcome::Error { kind, message } => OutcomeRef::Error {
                kind: *kind,
                message: Cow::Borrowed(message),
            },
        }
    }
}

/// A decoded server → client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The answer to query `id`, served at snapshot `epoch`.
    Reply {
        /// Echoed request id.
        id: u64,
        /// The engine epoch whose snapshot answered the query — constant
        /// across a connection's in-flight window (epoch pinning).
        epoch: u64,
        /// The outcome.
        outcome: Outcome,
    },
    /// Query `id` was shed, not served; safe to retry elsewhere/later.
    Overloaded {
        /// Echoed request id.
        id: u64,
        /// Why it was shed.
        reason: ShedReason,
    },
    /// The client's bytes violated the protocol.
    ProtocolError {
        /// What was wrong.
        message: String,
    },
    /// Drain complete; every accepted query has been answered.
    ShutdownAck,
    /// Updates applied (or proven no-ops); the graph now serves `epoch`.
    UpdateAck {
        /// Echoed request id.
        id: u64,
        /// The epoch serving after the update batch.
        epoch: u64,
        /// Whether the batch changed the edge set at all.
        changed: bool,
    },
    /// An unsubscribe completed.
    UnsubscribeAck {
        /// Echoed subscription id.
        id: u64,
        /// Whether a standing query was actually removed.
        removed: bool,
    },
    /// A standing query's answer changed — server-initiated; arrives on
    /// the subscriber's connection without a matching request.
    Notify(WireNotification),
    /// The metrics snapshot answering a [`Request::Stats`]. Counters
    /// and gauges are exact; histogram-derived entries (`*.p50_us`, …)
    /// are bucket-midpoint estimates (see `ic_obs::Registry`).
    Stats {
        /// Echoed request id.
        id: u64,
        /// Flat `(name, value)` pairs, name-sorted within each source
        /// registry. Values travel as `f64::to_bits` and round-trip
        /// bit-exactly.
        entries: Vec<(String, f64)>,
    },
}

/// The payload of a [`Response::Notify`] frame.
#[derive(Clone, Debug, PartialEq)]
pub struct WireNotification {
    /// The client-chosen subscription id (from the SUBSCRIBE frame).
    pub id: u64,
    /// The epoch of the new answer.
    pub epoch: u64,
    /// `true` when earlier notifications for this subscription were
    /// shed (slow consumer): the delta chain is broken and `answer` is
    /// the only trustworthy state to rebase on.
    pub resync: bool,
    /// The changes since the previous delivered answer, in the
    /// canonical [`ic_sub::diff_answers`] order.
    pub deltas: Vec<Delta>,
    /// The full new answer, enabling stateless consumers and resyncs.
    pub answer: Vec<Community>,
}

// ---------------------------------------------------------------------
// Framing

/// Bytes in a frame header: [`MAGIC`] plus the `u32` payload length.
const FRAME_HEAD_LEN: usize = 5;

fn frame_head(payload_len: usize) -> [u8; FRAME_HEAD_LEN] {
    debug_assert!(payload_len <= RESP_PAYLOAD_MAX as usize);
    let mut head = [MAGIC; FRAME_HEAD_LEN];
    head[1..].copy_from_slice(&(payload_len as u32).to_le_bytes());
    head
}

/// Validates a frame header against the side-appropriate payload cap
/// and returns the payload length it announces.
fn parse_frame_head(head: &[u8], max: u32) -> Result<usize, ProtocolError> {
    if head[0] != MAGIC {
        return Err(ProtocolError::BadMagic(head[0]));
    }
    let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]);
    if len > max {
        return Err(ProtocolError::FrameTooLarge { len, max });
    }
    if len == 0 {
        return Err(ProtocolError::EmptyFrame);
    }
    Ok(len as usize)
}

/// Writes one `MAGIC + len + payload` frame; header and payload leave
/// in one vectored write (one syscall on a socket with room).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let head = frame_head(payload.len());
    let mut sent = 0;
    while sent < FRAME_HEAD_LEN {
        let bufs = [IoSlice::new(&head[sent..]), IoSlice::new(payload)];
        match w.write_vectored(&bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    // A short write split the frame: the rest is plain payload.
    w.write_all(&payload[sent - FRAME_HEAD_LEN..])
}

/// Opens a frame inside `out` — a header with the length still blank —
/// and returns where it starts, for [`end_frame`]. Lets a writer lay
/// several frames end to end in one buffer and send them in one write.
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&frame_head(0));
    at
}

/// Closes the frame opened at `at`: everything appended since is its
/// payload.
pub fn end_frame(out: &mut [u8], at: usize) {
    let head = frame_head(out.len() - at - FRAME_HEAD_LEN);
    out[at..at + FRAME_HEAD_LEN].copy_from_slice(&head);
}

/// Reads one frame's payload into `buf` (cleared first). `max` is the
/// side-appropriate payload cap. Returns `Ok(false)` on clean EOF
/// *before* any frame byte; a stream ending mid-frame is
/// [`ProtocolError::Truncated`].
///
/// This reads exactly one frame and nothing past it, at two or more
/// `read` calls per frame; a connection that owns its socket should
/// read through a [`FrameBuf`] instead.
pub fn read_frame(r: &mut impl Read, max: u32, buf: &mut Vec<u8>) -> Result<bool, ProtocolError> {
    let mut head = [0u8; FRAME_HEAD_LEN];
    let mut filled = 0;
    while filled < head.len() {
        match r.read(&mut head[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(ProtocolError::Truncated)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = parse_frame_head(&head, max)?;
    buf.clear();
    buf.resize(len, 0);
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(ProtocolError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

/// A connection's read side: one buffer the socket is read into in
/// large gulps and frames are cut out of, so a burst of pipelined
/// frames costs one `read` call, not two per frame. A buffer made with
/// [`FrameBuf::new`] cuts length-prefixed binary frames; one made with
/// [`FrameBuf::lines`] cuts `\n`-terminated JSON lines by the same
/// rules.
///
/// The owner alternates [`FrameBuf::next_frame`] (hand out the next
/// complete frame already buffered) with [`FrameBuf::fill`] (one `read`
/// call for more bytes) and keeps its own policy for what an empty read,
/// a timeout or an error means — [`FrameBuf::mid_frame`] tells an idle
/// connection from a stalled one.
#[derive(Debug)]
pub struct FrameBuf {
    /// Storage; `buf[start..end]` holds the bytes read but not yet
    /// handed out. Its length is the most one `fill` can read up to.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max: u32,
    /// Cuts `\n`-terminated lines instead of length-prefixed frames.
    lines: bool,
}

impl FrameBuf {
    /// A buffer for frames with payloads up to `max` bytes that reads
    /// up to `capacity` bytes at a time (more when one frame is larger).
    pub fn new(max: u32, capacity: usize) -> FrameBuf {
        FrameBuf {
            buf: vec![0; capacity.max(FRAME_HEAD_LEN)],
            start: 0,
            end: 0,
            max,
            lines: false,
        }
    }

    /// A buffer for `\n`-terminated lines of up to `max` bytes before
    /// the `\n`; a line is handed out without its `\n` and without the
    /// `\r`s before it.
    pub fn lines(max: u32, capacity: usize) -> FrameBuf {
        FrameBuf {
            lines: true,
            ..FrameBuf::new(max, capacity)
        }
    }

    /// Whether part of a frame — but not all of it — is buffered.
    /// (`false` right after `next_frame` returned `Ok(None)` means the
    /// connection is idle between frames.)
    pub fn mid_frame(&self) -> bool {
        self.end > self.start
    }

    /// The payload of the next complete buffered frame (or line), or
    /// `None` when more bytes are needed. A bad header is reported as
    /// soon as its five bytes are in, a line as soon as it is longer
    /// than the cap; the stream cannot be resynchronized after either.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, ProtocolError> {
        let have = &self.buf[self.start..self.end];
        let (payload, len, next) = if self.lines {
            let newline = have.iter().position(|&b| b == b'\n');
            let len = newline.unwrap_or(have.len());
            if len > self.max as usize {
                return Err(ProtocolError::FrameTooLarge {
                    len: u32::try_from(len).unwrap_or(u32::MAX),
                    max: self.max,
                });
            }
            let Some(len) = newline else {
                return Ok(None);
            };
            let crs = have[..len]
                .iter()
                .rev()
                .take_while(|&&b| b == b'\r')
                .count();
            (self.start, len - crs, self.start + len + 1)
        } else {
            if have.len() < FRAME_HEAD_LEN {
                return Ok(None);
            }
            let len = parse_frame_head(have, self.max)?;
            if have.len() < FRAME_HEAD_LEN + len {
                return Ok(None);
            }
            let payload = self.start + FRAME_HEAD_LEN;
            (payload, len, payload + len)
        };
        self.start = next;
        Ok(Some(&self.buf[payload..payload + len]))
    }

    /// Reads once from `r` into the free space, after moving a partial
    /// frame to the front and growing the buffer if that frame (or the
    /// longest line) needs more room than there is. Returns the `read`
    /// result untouched (`Ok(0)` is end of stream).
    pub fn fill(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let need = if self.lines {
            // `next_frame` has refused anything longer, so a partial
            // line always leaves room for one more byte.
            self.max as usize + 1
        } else if self.end >= FRAME_HEAD_LEN {
            // A bad header is `next_frame`'s to report; it buys no room.
            parse_frame_head(&self.buf, self.max).map_or(0, |len| FRAME_HEAD_LEN + len)
        } else {
            0
        };
        if self.buf.len() < need {
            self.buf.resize(need, 0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

// ---------------------------------------------------------------------
// Aggregation codes

/// Maps an aggregation onto its wire `(code, parameter)` pair.
/// `Custom` aggregations are process-local by design (their handle is a
/// registration id plus a `&'static` vtable reference — meaningless in
/// another process) and are rejected as [`ProtocolError::Unsupported`].
pub fn agg_to_wire(agg: Aggregation) -> Result<(u8, f64), ProtocolError> {
    Ok(match agg {
        Aggregation::Min => (0, 0.0),
        Aggregation::Max => (1, 0.0),
        Aggregation::Sum => (2, 0.0),
        Aggregation::SumSurplus { alpha } => (3, alpha),
        Aggregation::Average => (4, 0.0),
        Aggregation::WeightDensity { beta } => (5, beta),
        Aggregation::BalancedDensity => (6, 0.0),
        Aggregation::TopTSum { t } => (7, t as f64),
        Aggregation::Percentile { p } => (8, p),
        Aggregation::GeometricMean => (9, 0.0),
        other => {
            return Err(ProtocolError::Unsupported(format!(
                "aggregation {:?} is process-local and cannot be sent over the wire",
                other.name()
            )))
        }
    })
}

/// Inverse of [`agg_to_wire`]. Parameter *values* are not range-checked
/// here — the engine validates each query at plan time and reports a
/// typed per-query error — but a non-finite, negative or fractional `t`
/// for `TopTSum` cannot even be represented and is rejected.
pub fn agg_from_wire(code: u8, param: f64) -> Result<Aggregation, ProtocolError> {
    Ok(match code {
        0 => Aggregation::Min,
        1 => Aggregation::Max,
        2 => Aggregation::Sum,
        3 => Aggregation::SumSurplus { alpha: param },
        4 => Aggregation::Average,
        5 => Aggregation::WeightDensity { beta: param },
        6 => Aggregation::BalancedDensity,
        7 => {
            if !(param.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&param)) {
                return Err(ProtocolError::Unsupported(format!(
                    "top-t-sum parameter t = {param} is not a representable count"
                )));
            }
            Aggregation::TopTSum { t: param as usize }
        }
        8 => Aggregation::Percentile { p: param },
        9 => Aggregation::GeometricMean,
        c => return Err(ProtocolError::BadAggCode(c)),
    })
}

// ---------------------------------------------------------------------
// Binary request codec

const FLAG_SIZE_BOUND: u8 = 0b001;
const FLAG_GREEDY: u8 = 0b010;
const FLAG_DEADLINE: u8 = 0b100;

/// Encodes a request as one frame payload (type byte included),
/// appended to `out`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) -> Result<(), ProtocolError> {
    match req {
        Request::Shutdown => out.push(FRAME_SHUTDOWN),
        Request::Unsubscribe { id } => {
            out.push(FRAME_UNSUBSCRIBE);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Request::Stats { id } => {
            out.push(FRAME_STATS);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Request::Update { id, updates } => {
            if updates.len() > UPDATES_PER_FRAME_MAX {
                return Err(ProtocolError::Unsupported(format!(
                    "{} updates exceed the {UPDATES_PER_FRAME_MAX}-per-frame cap",
                    updates.len()
                )));
            }
            out.push(FRAME_UPDATE);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(updates.len() as u32).to_le_bytes());
            for update in updates {
                let (op, (u, v)) = match update {
                    EdgeUpdate::Insert { u, v } => (0u8, (*u, *v)),
                    EdgeUpdate::Remove { u, v } => (1u8, (*u, *v)),
                    other => {
                        return Err(ProtocolError::Unsupported(format!(
                            "edge update {other:?} has no wire encoding"
                        )))
                    }
                };
                out.push(op);
                out.extend_from_slice(&u.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Request::Query(wq) | Request::Subscribe(wq) => {
            let frame = if matches!(req, Request::Query(_)) {
                FRAME_QUERY
            } else {
                FRAME_SUBSCRIBE
            };
            let (agg, param) = agg_to_wire(wq.query.aggregation)?;
            let (flags, s) = match wq.query.constraint {
                Constraint::Unconstrained => (0u8, 0u32),
                Constraint::SizeBound { s, greedy } => {
                    let s = u32::try_from(s).map_err(|_| {
                        ProtocolError::Unsupported(format!("size bound s = {s} exceeds u32"))
                    })?;
                    (FLAG_SIZE_BOUND | if greedy { FLAG_GREEDY } else { 0 }, s)
                }
                other => {
                    return Err(ProtocolError::Unsupported(format!(
                        "constraint {other:?} has no wire representation"
                    )))
                }
            };
            let (flags, deadline_micros) = match wq.query.deadline {
                None => (flags, 0u64),
                Some(d) => (
                    flags | FLAG_DEADLINE,
                    u64::try_from(d.as_micros()).unwrap_or(u64::MAX),
                ),
            };
            let k = u32::try_from(wq.query.k).map_err(|_| {
                ProtocolError::Unsupported(format!("k = {} exceeds u32", wq.query.k))
            })?;
            let r = u32::try_from(wq.query.r).map_err(|_| {
                ProtocolError::Unsupported(format!("r = {} exceeds u32", wq.query.r))
            })?;
            out.reserve(QUERY_PAYLOAD_LEN);
            out.push(frame);
            out.extend_from_slice(&wq.id.to_le_bytes());
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&r.to_le_bytes());
            out.push(agg);
            out.extend_from_slice(&param.to_bits().to_le_bytes());
            out.extend_from_slice(&wq.query.epsilon.to_bits().to_le_bytes());
            out.push(flags);
            out.extend_from_slice(&s.to_le_bytes());
            out.extend_from_slice(&deadline_micros.to_le_bytes());
        }
    }
    Ok(())
}

/// Decodes one request frame payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut r = Reader::new(payload);
    match r.u8()? {
        FRAME_SHUTDOWN => {
            r.finish(1)?;
            Ok(Request::Shutdown)
        }
        FRAME_UNSUBSCRIBE => {
            let id = r.u64()?;
            r.finish(9)?;
            Ok(Request::Unsubscribe { id })
        }
        FRAME_STATS => {
            let id = r.u64()?;
            r.finish(9)?;
            Ok(Request::Stats { id })
        }
        FRAME_UPDATE => {
            let id = r.u64()?;
            let n = r.u32()? as usize;
            if n > UPDATES_PER_FRAME_MAX {
                return Err(ProtocolError::Unsupported(format!(
                    "{n} updates exceed the {UPDATES_PER_FRAME_MAX}-per-frame cap"
                )));
            }
            let mut updates = Vec::with_capacity(n);
            for _ in 0..n {
                let op = r.u8()?;
                let u = r.u32()?;
                let v = r.u32()?;
                updates.push(match op {
                    0 => EdgeUpdate::Insert { u, v },
                    1 => EdgeUpdate::Remove { u, v },
                    op => return Err(ProtocolError::BadFrameType(op)),
                });
            }
            r.done()?;
            Ok(Request::Update { id, updates })
        }
        t @ (FRAME_QUERY | FRAME_SUBSCRIBE) => {
            if payload.len() != QUERY_PAYLOAD_LEN {
                return Err(ProtocolError::BadLength {
                    expected: QUERY_PAYLOAD_LEN,
                    got: payload.len(),
                });
            }
            let id = r.u64()?;
            let k = r.u32()? as usize;
            let rr = r.u32()? as usize;
            let agg_code = r.u8()?;
            let param = f64::from_bits(r.u64()?);
            let epsilon = f64::from_bits(r.u64()?);
            let flags = r.u8()?;
            let s = r.u32()? as usize;
            let deadline_micros = r.u64()?;
            let mut query = Query::new(k, rr, agg_from_wire(agg_code, param)?).approx(epsilon);
            if flags & FLAG_SIZE_BOUND != 0 {
                query = query.size_bound(s, flags & FLAG_GREEDY != 0);
            }
            if flags & FLAG_DEADLINE != 0 {
                query = query.deadline(Duration::from_micros(deadline_micros));
            }
            let wire = WireQuery { id, query };
            Ok(if t == FRAME_QUERY {
                Request::Query(wire)
            } else {
                Request::Subscribe(wire)
            })
        }
        t => Err(ProtocolError::BadFrameType(t)),
    }
}

// ---------------------------------------------------------------------
// Binary response codec

const STATUS_COMPLETE: u8 = 0;
const STATUS_DEGRADED: u8 = 1;
const STATUS_SEARCH_ERROR: u8 = 2;
const STATUS_DEADLINE_EXCEEDED: u8 = 3;
const STATUS_INTERNAL: u8 = 4;
const STATUS_UNSUPPORTED: u8 = 5;

const SHED_QUEUE_FULL: u8 = 0;
const SHED_DRAINING: u8 = 1;

const DELTA_ENTERED: u8 = 0;
const DELTA_LEFT: u8 = 1;
const DELTA_RANK_MOVED: u8 = 2;
const DELTA_VALUE_CHANGED: u8 = 3;

/// Encodes a response as one frame payload, appended to `out`.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::ShutdownAck => out.push(FRAME_SHUTDOWN_ACK),
        Response::UpdateAck { id, epoch, changed } => {
            out.push(FRAME_UPDATE_ACK);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
            out.push(u8::from(*changed));
        }
        Response::UnsubscribeAck { id, removed } => {
            out.push(FRAME_UNSUBSCRIBE_ACK);
            out.extend_from_slice(&id.to_le_bytes());
            out.push(u8::from(*removed));
        }
        Response::Stats { id, entries } => {
            out.push(FRAME_STATS_REPLY);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (name, value) in entries {
                push_str(out, name);
                out.extend_from_slice(&value.to_bits().to_le_bytes());
            }
        }
        Response::Notify(n) => {
            out.push(FRAME_NOTIFY);
            out.extend_from_slice(&n.id.to_le_bytes());
            out.extend_from_slice(&n.epoch.to_le_bytes());
            out.push(u8::from(n.resync));
            out.extend_from_slice(&(n.deltas.len() as u32).to_le_bytes());
            for delta in &n.deltas {
                match delta {
                    Delta::CommunityEntered { rank, community } => {
                        out.push(DELTA_ENTERED);
                        out.extend_from_slice(&(*rank as u32).to_le_bytes());
                        push_community(out, community);
                    }
                    Delta::CommunityLeft { rank, community } => {
                        out.push(DELTA_LEFT);
                        out.extend_from_slice(&(*rank as u32).to_le_bytes());
                        push_community(out, community);
                    }
                    Delta::RankMoved {
                        from,
                        to,
                        community,
                    } => {
                        out.push(DELTA_RANK_MOVED);
                        out.extend_from_slice(&(*from as u32).to_le_bytes());
                        out.extend_from_slice(&(*to as u32).to_le_bytes());
                        push_community(out, community);
                    }
                    Delta::ValueChanged {
                        rank,
                        old_value,
                        community,
                    } => {
                        out.push(DELTA_VALUE_CHANGED);
                        out.extend_from_slice(&(*rank as u32).to_le_bytes());
                        out.extend_from_slice(&old_value.to_bits().to_le_bytes());
                        push_community(out, community);
                    }
                }
            }
            push_communities(out, &n.answer);
        }
        Response::ProtocolError { message } => {
            out.push(FRAME_PROTOCOL_ERROR);
            push_str(out, message);
        }
        Response::Overloaded { id, reason } => {
            out.push(FRAME_OVERLOADED);
            out.extend_from_slice(&id.to_le_bytes());
            out.push(match reason {
                ShedReason::QueueFull => SHED_QUEUE_FULL,
                ShedReason::Draining => SHED_DRAINING,
            });
        }
        Response::Reply { id, epoch, outcome } => {
            push_reply(out, *id, *epoch, OutcomeRef::of_outcome(outcome));
        }
    }
}

/// Encodes the reply to query `id` straight from the engine's result
/// slot — no owned [`Outcome`] in between — appended to `out`. The
/// bytes equal `encode_response(&Response::Reply { id, epoch, outcome:
/// Outcome::from_engine(slot) }, out)`.
pub fn encode_reply(
    id: u64,
    epoch: u64,
    slot: &Result<QueryAnswer, EngineError>,
    out: &mut Vec<u8>,
) {
    push_reply(out, id, epoch, OutcomeRef::of_engine(slot));
}

fn push_reply(out: &mut Vec<u8>, id: u64, epoch: u64, outcome: OutcomeRef<'_>) {
    out.push(FRAME_REPLY);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    match outcome {
        OutcomeRef::Complete(communities) => {
            out.push(STATUS_COMPLETE);
            push_communities(out, communities);
        }
        OutcomeRef::Degraded {
            communities,
            proven_prefix_len,
        } => {
            out.push(STATUS_DEGRADED);
            out.extend_from_slice(&proven_prefix_len.to_le_bytes());
            push_communities(out, communities);
        }
        OutcomeRef::Error { kind, message } => {
            out.push(match kind {
                ErrorKind::Search => STATUS_SEARCH_ERROR,
                ErrorKind::DeadlineExceeded => STATUS_DEADLINE_EXCEEDED,
                ErrorKind::Internal => STATUS_INTERNAL,
                ErrorKind::Unsupported => STATUS_UNSUPPORTED,
            });
            push_str(out, &message);
        }
    }
}

/// Decodes one response frame payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut r = Reader::new(payload);
    match r.u8()? {
        FRAME_SHUTDOWN_ACK => {
            r.finish(1)?;
            Ok(Response::ShutdownAck)
        }
        FRAME_UPDATE_ACK => {
            let id = r.u64()?;
            let epoch = r.u64()?;
            let changed = r.u8()? != 0;
            r.finish(18)?;
            Ok(Response::UpdateAck { id, epoch, changed })
        }
        FRAME_UNSUBSCRIBE_ACK => {
            let id = r.u64()?;
            let removed = r.u8()? != 0;
            r.finish(10)?;
            Ok(Response::UnsubscribeAck { id, removed })
        }
        FRAME_STATS_REPLY => {
            let id = r.u64()?;
            let n = r.u32()? as usize;
            let mut entries = Vec::new();
            for _ in 0..n {
                let name = r.str()?;
                let value = f64::from_bits(r.u64()?);
                entries.push((name, value));
            }
            r.done()?;
            Ok(Response::Stats { id, entries })
        }
        FRAME_NOTIFY => {
            let id = r.u64()?;
            let epoch = r.u64()?;
            let resync = r.u8()? != 0;
            let n = r.u32()? as usize;
            let mut deltas = Vec::new();
            for _ in 0..n {
                deltas.push(match r.u8()? {
                    DELTA_ENTERED => Delta::CommunityEntered {
                        rank: r.u32()? as usize,
                        community: r.community()?,
                    },
                    DELTA_LEFT => Delta::CommunityLeft {
                        rank: r.u32()? as usize,
                        community: r.community()?,
                    },
                    DELTA_RANK_MOVED => Delta::RankMoved {
                        from: r.u32()? as usize,
                        to: r.u32()? as usize,
                        community: r.community()?,
                    },
                    DELTA_VALUE_CHANGED => Delta::ValueChanged {
                        rank: r.u32()? as usize,
                        old_value: f64::from_bits(r.u64()?),
                        community: r.community()?,
                    },
                    t => return Err(ProtocolError::BadFrameType(t)),
                });
            }
            let answer = r.communities()?;
            r.done()?;
            Ok(Response::Notify(WireNotification {
                id,
                epoch,
                resync,
                deltas,
                answer,
            }))
        }
        FRAME_PROTOCOL_ERROR => {
            let message = r.str()?;
            r.done()?;
            Ok(Response::ProtocolError { message })
        }
        FRAME_OVERLOADED => {
            let id = r.u64()?;
            let reason = match r.u8()? {
                SHED_QUEUE_FULL => ShedReason::QueueFull,
                SHED_DRAINING => ShedReason::Draining,
                c => return Err(ProtocolError::BadFrameType(c)),
            };
            r.finish(10)?;
            Ok(Response::Overloaded { id, reason })
        }
        FRAME_REPLY => {
            let id = r.u64()?;
            let epoch = r.u64()?;
            let outcome = match r.u8()? {
                STATUS_COMPLETE => Outcome::Complete(r.communities()?),
                STATUS_DEGRADED => {
                    let proven_prefix_len = r.u64()?;
                    Outcome::Degraded {
                        communities: r.communities()?,
                        proven_prefix_len,
                    }
                }
                s @ (STATUS_SEARCH_ERROR
                | STATUS_DEADLINE_EXCEEDED
                | STATUS_INTERNAL
                | STATUS_UNSUPPORTED) => Outcome::Error {
                    kind: match s {
                        STATUS_SEARCH_ERROR => ErrorKind::Search,
                        STATUS_DEADLINE_EXCEEDED => ErrorKind::DeadlineExceeded,
                        STATUS_UNSUPPORTED => ErrorKind::Unsupported,
                        _ => ErrorKind::Internal,
                    },
                    message: r.str()?,
                },
                s => return Err(ProtocolError::BadFrameType(s)),
            };
            r.done()?;
            Ok(Response::Reply { id, epoch, outcome })
        }
        t => Err(ProtocolError::BadFrameType(t)),
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn push_communities(out: &mut Vec<u8>, communities: &[Community]) {
    let bytes: usize = communities.iter().map(|c| 12 + 4 * c.vertices.len()).sum();
    out.reserve(4 + bytes);
    out.extend_from_slice(&(communities.len() as u32).to_le_bytes());
    for c in communities {
        push_community(out, c);
    }
}

fn push_community(out: &mut Vec<u8>, c: &Community) {
    out.extend_from_slice(&c.value.to_bits().to_le_bytes());
    out.extend_from_slice(&(c.vertices.len() as u32).to_le_bytes());
    // One extend over the flattened bytes, not a capacity check per
    // vertex: the list is the bulk of a reply and this compiles to a
    // block copy.
    out.extend(c.vertices.iter().flat_map(|v| v.to_le_bytes()));
}

/// Bounds-checked cursor over a frame payload. Every under-run is a
/// typed [`ProtocolError::BadLength`], never a slice panic.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let out = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            None => Err(ProtocolError::BadLength {
                expected: self.pos.saturating_add(n),
                got: self.bytes.len(),
            }),
        }
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }

    fn communities(&mut self) -> Result<Vec<Community>, ProtocolError> {
        let n = self.u32()? as usize;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(self.community()?);
        }
        Ok(out)
    }

    fn community(&mut self) -> Result<Community, ProtocolError> {
        let value = f64::from_bits(self.u64()?);
        let nv = self.u32()? as usize;
        // One bounds check for the whole list (which also bounds the
        // allocation by the bytes actually present), then a straight
        // copy.
        let vertices = self
            .take(nv.saturating_mul(4))?
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("chunks of 4")))
            .collect();
        // Not Community::new: the wire must round-trip the solver
        // output bit-for-bit, including its (already canonical)
        // vertex order.
        Ok(Community { vertices, value })
    }

    fn finish(self, expected: usize) -> Result<(), ProtocolError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(ProtocolError::BadLength {
                expected,
                got: self.bytes.len(),
            })
        }
    }

    fn done(self) -> Result<(), ProtocolError> {
        let expected = self.pos;
        self.finish(expected)
    }
}

// ---------------------------------------------------------------------
// JSON-lines mode

/// Parses one JSON-lines request. Recognized keys: `op` (`"query"`,
/// the default, `"subscribe"`, `"unsubscribe"`, `"update"`, `"stats"`,
/// or `"shutdown"`), `id`, `k`, `r`, `agg` (name string or numeric wire
/// code), `alpha`/`beta`/`t`/`p` (the aggregation parameter, any one
/// of them), `eps`, `s` + `greedy` (size bound), `deadline_ms`, and —
/// for `"update"` — `updates`, a space-separated string of
/// `+u:v` (insert) / `-u:v` (remove) edge updates. Unknown keys are
/// rejected — silent typo-tolerance ("deadine_ms") is worse than an
/// error in a debug protocol.
pub fn parse_json_request(line: &str) -> Result<Request, ProtocolError> {
    let pairs = json::parse_flat_object(line).map_err(ProtocolError::BadJson)?;
    let mut id = 0u64;
    let mut k = 0usize;
    let mut r = 0usize;
    let mut agg_name: Option<String> = None;
    let mut agg_code: Option<u8> = None;
    let mut param: Option<f64> = None;
    let mut eps = 0.0f64;
    let mut s: Option<usize> = None;
    let mut greedy = false;
    let mut deadline_ms: Option<f64> = None;
    let mut op: Option<String> = None;
    let mut updates: Option<String> = None;

    let num = |key: &str, v: &JsonValue| -> Result<f64, ProtocolError> {
        match v {
            JsonValue::Num(x) => Ok(*x),
            _ => Err(ProtocolError::BadJson(format!("{key} must be a number"))),
        }
    };
    let integer = |key: &str, v: &JsonValue, max: u64| -> Result<u64, ProtocolError> {
        let x = num(key, v)?;
        if x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x <= max as f64 {
            Ok(x as u64)
        } else {
            Err(ProtocolError::BadJson(format!(
                "{key} must be an integer in 0..={max}, got {x}"
            )))
        }
    };
    let count = |key: &str, v: &JsonValue| -> Result<usize, ProtocolError> {
        integer(key, v, u64::from(u32::MAX)).map(|x| x as usize)
    };

    for (key, value) in &pairs {
        match key.as_str() {
            "op" => match value {
                JsonValue::Str(s) => op = Some(s.clone()),
                _ => return Err(ProtocolError::BadJson("op must be a string".into())),
            },
            // Every integer an f64 token holds exactly; the binary frame
            // and every reply carry the id as a u64.
            "id" => id = integer(key, value, 1 << 53)?,
            "k" => k = count(key, value)?,
            "r" => r = count(key, value)?,
            "agg" => match value {
                JsonValue::Str(name) => agg_name = Some(name.clone()),
                JsonValue::Num(c) if c.fract() == 0.0 && (0.0..=255.0).contains(c) => {
                    agg_code = Some(*c as u8)
                }
                _ => {
                    return Err(ProtocolError::BadJson(
                        "agg must be a name string or a wire code".into(),
                    ))
                }
            },
            "alpha" | "beta" | "p" => param = Some(num(key, value)?),
            "t" => param = Some(count(key, value)? as f64),
            "eps" => eps = num(key, value)?,
            "s" => s = Some(count(key, value)?),
            "greedy" => match value {
                JsonValue::Bool(b) => greedy = *b,
                _ => return Err(ProtocolError::BadJson("greedy must be a boolean".into())),
            },
            "deadline_ms" => deadline_ms = Some(num(key, value)?),
            "updates" => match value {
                JsonValue::Str(s) => updates = Some(s.clone()),
                _ => {
                    return Err(ProtocolError::BadJson(
                        "updates must be a string of +u:v / -u:v tokens".into(),
                    ))
                }
            },
            other => {
                return Err(ProtocolError::BadJson(format!("unknown key {other:?}")));
            }
        }
    }

    let subscribe = match op.as_deref() {
        Some("shutdown") => return Ok(Request::Shutdown),
        Some("unsubscribe") => return Ok(Request::Unsubscribe { id }),
        Some("stats") => return Ok(Request::Stats { id }),
        Some("update") => {
            let spec = updates.ok_or_else(|| {
                ProtocolError::BadJson("update requests need an \"updates\" key".into())
            })?;
            return Ok(Request::Update {
                id,
                updates: parse_update_spec(&spec)?,
            });
        }
        Some("subscribe") => true,
        Some("query") | None => false,
        Some(other) => {
            return Err(ProtocolError::BadJson(format!("unknown op {other:?}")));
        }
    };

    let code = match (agg_code, agg_name.as_deref()) {
        (Some(c), _) => c,
        (None, Some(name)) => agg_code_by_name(name)?,
        (None, None) => {
            return Err(ProtocolError::BadJson(
                "query requests need an \"agg\" key".into(),
            ))
        }
    };
    let aggregation = agg_from_wire(code, param.unwrap_or(0.0))?;
    let mut query = Query::new(k, r, aggregation).approx(eps);
    if let Some(s) = s {
        query = query.size_bound(s, greedy);
    }
    if let Some(ms) = deadline_ms {
        // Rejects negative, NaN, infinite and beyond-`Duration` values.
        let deadline = Duration::try_from_secs_f64(ms / 1000.0).map_err(|_| {
            ProtocolError::BadJson(format!(
                "deadline_ms must be a non-negative number of milliseconds, got {ms}"
            ))
        })?;
        query = query.deadline(deadline);
    }
    let wire = WireQuery { id, query };
    Ok(if subscribe {
        Request::Subscribe(wire)
    } else {
        Request::Query(wire)
    })
}

/// Parses the `updates` string of a JSON `update` request: whitespace
/// separated `+u:v` (insert) / `-u:v` (remove) tokens.
fn parse_update_spec(spec: &str) -> Result<Vec<EdgeUpdate>, ProtocolError> {
    let mut updates = Vec::new();
    for token in spec.split_whitespace() {
        let bad = || ProtocolError::BadJson(format!("bad update token {token:?}"));
        let (insert, rest) = if let Some(rest) = token.strip_prefix('+') {
            (true, rest)
        } else if let Some(rest) = token.strip_prefix('-') {
            (false, rest)
        } else {
            return Err(bad());
        };
        let (u, v) = rest.split_once(':').ok_or_else(bad)?;
        let u: u32 = u.parse().map_err(|_| bad())?;
        let v: u32 = v.parse().map_err(|_| bad())?;
        updates.push(if insert {
            EdgeUpdate::Insert { u, v }
        } else {
            EdgeUpdate::Remove { u, v }
        });
        if updates.len() > UPDATES_PER_FRAME_MAX {
            return Err(ProtocolError::BadJson(format!(
                "too many updates in one request (max {UPDATES_PER_FRAME_MAX})"
            )));
        }
    }
    Ok(updates)
}

/// The JSON name of each wire aggregation code (also accepted as the
/// `agg` value in requests).
pub fn agg_name_by_code(code: u8) -> Option<&'static str> {
    Some(match code {
        0 => "min",
        1 => "max",
        2 => "sum",
        3 => "sum_surplus",
        4 => "average",
        5 => "weight_density",
        6 => "balanced_density",
        7 => "top_t_sum",
        8 => "percentile",
        9 => "geometric_mean",
        _ => return None,
    })
}

fn agg_code_by_name(name: &str) -> Result<u8, ProtocolError> {
    (0u8..=9)
        .find(|&c| agg_name_by_code(c) == Some(name))
        .ok_or_else(|| ProtocolError::BadJson(format!("unknown aggregation {name:?}")))
}

/// Renders one response as a single JSON line (no trailing newline).
pub fn render_json_response(resp: &Response) -> String {
    let mut out = String::new();
    match resp {
        Response::ShutdownAck => out.push_str(r#"{"status":"shutdown_ack"}"#),
        Response::ProtocolError { message } => {
            out.push_str(r#"{"status":"protocol_error","message":"#);
            json::push_json_str(&mut out, message);
            out.push('}');
        }
        Response::Overloaded { id, reason } => {
            out.push_str(&format!(
                r#"{{"id":{id},"status":"overloaded","reason":"{}"}}"#,
                match reason {
                    ShedReason::QueueFull => "queue_full",
                    ShedReason::Draining => "draining",
                }
            ));
        }
        Response::Reply { id, epoch, outcome } => {
            push_json_reply(&mut out, *id, *epoch, OutcomeRef::of_outcome(outcome));
        }
        Response::UpdateAck { id, epoch, changed } => {
            out.push_str(&format!(
                r#"{{"id":{id},"status":"updated","epoch":{epoch},"changed":{changed}}}"#
            ));
        }
        Response::UnsubscribeAck { id, removed } => {
            out.push_str(&format!(
                r#"{{"id":{id},"status":"unsubscribed","removed":{removed}}}"#
            ));
        }
        Response::Stats { id, entries } => {
            out.push_str(&format!(r#"{{"id":{id},"status":"stats","stats":{{"#));
            for (i, (name, value)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_json_str(&mut out, name);
                out.push(':');
                json::push_json_f64(&mut out, *value);
            }
            out.push_str("}}");
        }
        Response::Notify(n) => {
            out.push_str(&format!(
                r#"{{"id":{},"status":"notify","epoch":{},"resync":{},"deltas":["#,
                n.id, n.epoch, n.resync
            ));
            for (i, delta) in n.deltas.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_delta(&mut out, delta);
            }
            out.push(']');
            push_json_communities(&mut out, &n.answer);
            out.push('}');
        }
    }
    out
}

/// Renders the reply to query `id` straight from the engine's result
/// slot; the line equals `render_json_response` of the
/// [`Response::Reply`] that [`Outcome::from_engine`] would build.
pub fn render_json_reply(id: u64, epoch: u64, slot: &Result<QueryAnswer, EngineError>) -> String {
    let mut out = String::new();
    push_json_reply(&mut out, id, epoch, OutcomeRef::of_engine(slot));
    out
}

fn push_json_reply(out: &mut String, id: u64, epoch: u64, outcome: OutcomeRef<'_>) {
    out.push_str(&format!(r#"{{"id":{id},"epoch":{epoch}"#));
    match outcome {
        OutcomeRef::Complete(communities) => {
            out.push_str(r#","status":"complete""#);
            push_json_communities(out, communities);
        }
        OutcomeRef::Degraded {
            communities,
            proven_prefix_len,
        } => {
            out.push_str(&format!(
                r#","status":"degraded","proven_prefix_len":{proven_prefix_len}"#
            ));
            push_json_communities(out, communities);
        }
        OutcomeRef::Error { kind, message } => {
            out.push_str(&format!(
                r#","status":"error","kind":"{}","message":"#,
                match kind {
                    ErrorKind::Search => "search",
                    ErrorKind::DeadlineExceeded => "deadline_exceeded",
                    ErrorKind::Internal => "internal",
                    ErrorKind::Unsupported => "unsupported",
                }
            ));
            json::push_json_str(out, &message);
        }
    }
    out.push('}');
}

fn push_json_delta(out: &mut String, delta: &Delta) {
    let community = match delta {
        Delta::CommunityEntered { rank, community } => {
            out.push_str(&format!(r#"{{"kind":"entered","rank":{rank}"#));
            community
        }
        Delta::CommunityLeft { rank, community } => {
            out.push_str(&format!(r#"{{"kind":"left","rank":{rank}"#));
            community
        }
        Delta::RankMoved {
            from,
            to,
            community,
        } => {
            out.push_str(&format!(r#"{{"kind":"rank_moved","from":{from},"to":{to}"#));
            community
        }
        Delta::ValueChanged {
            rank,
            old_value,
            community,
        } => {
            out.push_str(&format!(
                r#"{{"kind":"value_changed","rank":{rank},"old_value":"#
            ));
            json::push_json_f64(out, *old_value);
            community
        }
    };
    out.push_str(r#","value":"#);
    json::push_json_f64(out, community.value);
    push_json_vertices(out, &community.vertices);
    out.push('}');
}

/// Appends `,"vertices":[v0,v1,…]`, writing each id straight into `out`.
fn push_json_vertices(out: &mut String, vertices: &[u32]) {
    use std::fmt::Write;
    out.push_str(r#","vertices":["#);
    for (j, v) in vertices.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        write!(out, "{v}").expect("writing to a String cannot fail");
    }
    out.push(']');
}

fn push_json_communities(out: &mut String, communities: &[Community]) {
    out.push_str(r#","communities":["#);
    for (i, c) in communities.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(r#"{"value":"#);
        json::push_json_f64(out, c.value);
        push_json_vertices(out, &c.vertices);
        out.push('}');
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) -> Request {
        let mut buf = Vec::new();
        encode_request(&req, &mut buf).unwrap();
        decode_request(&buf).unwrap()
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let mut buf = Vec::new();
        encode_response(resp, &mut buf);
        decode_response(&buf).unwrap()
    }

    #[test]
    fn requests_round_trip() {
        for query in [
            Query::new(2, 3, Aggregation::Sum),
            Query::new(1, 1, Aggregation::Min).deadline(Duration::from_micros(1500)),
            Query::new(4, 2, Aggregation::SumSurplus { alpha: 0.5 }).approx(0.25),
            Query::new(2, 2, Aggregation::Average).size_bound(6, true),
            Query::new(2, 2, Aggregation::WeightDensity { beta: 1.5 }).size_bound(5, false),
            Query::new(3, 1, Aggregation::TopTSum { t: 7 }),
            Query::new(3, 1, Aggregation::Percentile { p: 0.9 }),
            Query::new(3, 1, Aggregation::GeometricMean).size_bound(9, true),
            Query::new(2, 1, Aggregation::BalancedDensity)
                .size_bound(4, true)
                .deadline(Duration::from_millis(20)),
        ] {
            let req = Request::Query(WireQuery { id: 42, query });
            assert_eq!(roundtrip_request(req.clone()), req, "{query:?}");
        }
        assert_eq!(roundtrip_request(Request::Shutdown), Request::Shutdown);
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        let communities = vec![
            Community::new(vec![3, 1, 2], 203.0),
            Community::new(vec![9], f64::NEG_INFINITY),
        ];
        for resp in [
            Response::Reply {
                id: 7,
                epoch: 3,
                outcome: Outcome::Complete(communities.clone()),
            },
            Response::Reply {
                id: 8,
                epoch: 3,
                outcome: Outcome::Degraded {
                    communities: communities.clone(),
                    proven_prefix_len: 1,
                },
            },
            Response::Reply {
                id: 9,
                epoch: 0,
                outcome: Outcome::Error {
                    kind: ErrorKind::Search,
                    message: "k must be positive".into(),
                },
            },
            Response::Reply {
                id: 10,
                epoch: 0,
                outcome: Outcome::Error {
                    kind: ErrorKind::DeadlineExceeded,
                    message: String::new(),
                },
            },
            Response::Overloaded {
                id: 11,
                reason: ShedReason::QueueFull,
            },
            Response::Overloaded {
                id: 12,
                reason: ShedReason::Draining,
            },
            Response::ProtocolError {
                message: "bad frame".into(),
            },
            Response::ShutdownAck,
        ] {
            assert_eq!(roundtrip_response(&resp), resp);
        }
    }

    #[test]
    fn subscription_requests_round_trip() {
        let query = Query::new(2, 3, Aggregation::Sum);
        for req in [
            Request::Subscribe(WireQuery { id: 7, query }),
            Request::Unsubscribe { id: 7 },
            Request::Update {
                id: 9,
                updates: vec![
                    EdgeUpdate::Insert { u: 3, v: 4 },
                    EdgeUpdate::Remove { u: 0, v: 1 },
                ],
            },
            Request::Update {
                id: 10,
                updates: Vec::new(),
            },
        ] {
            assert_eq!(roundtrip_request(req.clone()), req);
        }
        // The per-frame update cap is enforced at encode time…
        let oversized = Request::Update {
            id: 1,
            updates: vec![EdgeUpdate::Insert { u: 0, v: 1 }; UPDATES_PER_FRAME_MAX + 1],
        };
        let mut buf = Vec::new();
        assert!(matches!(
            encode_request(&oversized, &mut buf),
            Err(ProtocolError::Unsupported(_))
        ));
        // …and at decode time (a forged count field).
        buf.clear();
        buf.push(FRAME_UPDATE);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&((UPDATES_PER_FRAME_MAX + 1) as u32).to_le_bytes());
        assert!(decode_request(&buf).is_err());
        // An unknown update op byte is typed, not a panic.
        buf.clear();
        buf.push(FRAME_UPDATE);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(9); // not insert (0) or remove (1)
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        assert!(decode_request(&buf).is_err());
    }

    #[test]
    fn subscription_responses_round_trip_bit_exactly() {
        let c = |vs: &[u32], v: f64| Community::new(vs.to_vec(), v);
        for resp in [
            Response::UpdateAck {
                id: 4,
                epoch: 17,
                changed: true,
            },
            Response::UpdateAck {
                id: 5,
                epoch: 17,
                changed: false,
            },
            Response::UnsubscribeAck {
                id: 6,
                removed: true,
            },
            Response::Reply {
                id: 13,
                epoch: 2,
                outcome: Outcome::Error {
                    kind: ErrorKind::Unsupported,
                    message: "read-only backend".into(),
                },
            },
            Response::Notify(WireNotification {
                id: 8,
                epoch: 21,
                resync: true,
                deltas: vec![
                    Delta::CommunityEntered {
                        rank: 0,
                        community: c(&[1, 2, 3], 42.5),
                    },
                    Delta::CommunityLeft {
                        rank: 2,
                        community: c(&[7, 8], f64::NEG_INFINITY),
                    },
                    Delta::RankMoved {
                        from: 1,
                        to: 0,
                        community: c(&[4, 5, 6], 9.0),
                    },
                    Delta::ValueChanged {
                        rank: 1,
                        old_value: 8.25,
                        community: c(&[4, 5, 6], 9.0),
                    },
                ],
                answer: vec![c(&[1, 2, 3], 42.5), c(&[4, 5, 6], 9.0)],
            }),
            Response::Notify(WireNotification {
                id: 9,
                epoch: 22,
                resync: false,
                deltas: Vec::new(),
                answer: Vec::new(),
            }),
        ] {
            assert_eq!(roundtrip_response(&resp), resp);
        }
    }

    #[test]
    fn json_subscription_ops_parse_and_render() {
        match parse_json_request(r#"{"op": "subscribe", "id": 5, "k": 2, "r": 3, "agg": "min"}"#)
            .unwrap()
        {
            Request::Subscribe(wq) => {
                assert_eq!(wq.id, 5);
                assert_eq!(wq.query.k, 2);
                assert_eq!(wq.query.r, 3);
                assert_eq!(wq.query.aggregation, Aggregation::Min);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse_json_request(r#"{"op": "unsubscribe", "id": 5}"#).unwrap(),
            Request::Unsubscribe { id: 5 }
        );
        assert_eq!(
            parse_json_request(r#"{"op": "update", "id": 2, "updates": "+0:3 -4:9"}"#).unwrap(),
            Request::Update {
                id: 2,
                updates: vec![
                    EdgeUpdate::Insert { u: 0, v: 3 },
                    EdgeUpdate::Remove { u: 4, v: 9 },
                ],
            }
        );
        for bad in [
            r#"{"op": "update", "id": 2}"#,           // no updates key
            r#"{"op": "update", "updates": "0:3"}"#,  // no sign
            r#"{"op": "update", "updates": "+0-3"}"#, // no colon
            r#"{"op": "update", "updates": "+a:b"}"#, // not numbers
            r#"{"op": "update", "updates": 7}"#,      // not a string
            r#"{"op": "subscribe", "id": 1}"#,        // subscribe without agg
        ] {
            assert!(parse_json_request(bad).is_err(), "{bad:?} must not parse");
        }

        let line = render_json_response(&Response::UpdateAck {
            id: 2,
            epoch: 5,
            changed: true,
        });
        assert_eq!(
            line,
            r#"{"id":2,"status":"updated","epoch":5,"changed":true}"#
        );
        let line = render_json_response(&Response::UnsubscribeAck {
            id: 5,
            removed: false,
        });
        assert_eq!(line, r#"{"id":5,"status":"unsubscribed","removed":false}"#);
        let line = render_json_response(&Response::Notify(WireNotification {
            id: 5,
            epoch: 6,
            resync: false,
            deltas: vec![Delta::ValueChanged {
                rank: 0,
                old_value: 2.0,
                community: Community::new(vec![1, 2], 3.0),
            }],
            answer: vec![Community::new(vec![1, 2], 3.0)],
        }));
        assert_eq!(
            line,
            r#"{"id":5,"status":"notify","epoch":6,"resync":false,"deltas":[{"kind":"value_changed","rank":0,"old_value":2,"value":3,"vertices":[1,2]}],"communities":[{"value":3,"vertices":[1,2]}]}"#
        );
    }

    #[test]
    fn stats_frames_round_trip_bit_exactly() {
        let req = Request::Stats { id: 77 };
        assert_eq!(roundtrip_request(req.clone()), req);
        // A STATS request is the same 9-byte shape as UNSUBSCRIBE:
        // trailing bytes are a typed length error.
        let mut buf = Vec::new();
        encode_request(&req, &mut buf).unwrap();
        buf.push(0);
        assert!(matches!(
            decode_request(&buf),
            Err(ProtocolError::BadLength { .. })
        ));

        for resp in [
            Response::Stats {
                id: 77,
                entries: vec![
                    ("serve.admitted".into(), 28.0),
                    ("engine.solve_ns.p99_us".into(), 1536.5),
                    ("weird \"name\"".into(), f64::NEG_INFINITY),
                ],
            },
            Response::Stats {
                id: 0,
                entries: Vec::new(),
            },
        ] {
            assert_eq!(roundtrip_response(&resp), resp);
        }

        assert_eq!(
            parse_json_request(r#"{"op": "stats", "id": 4}"#).unwrap(),
            Request::Stats { id: 4 }
        );
        let line = render_json_response(&Response::Stats {
            id: 4,
            entries: vec![("serve.batches".into(), 3.0), ("x".into(), 0.5)],
        });
        assert_eq!(
            line,
            r#"{"id":4,"status":"stats","stats":{"serve.batches":3,"x":0.5}}"#
        );
    }

    #[test]
    fn custom_aggregations_are_refused_at_encode_time() {
        use ic_core::{AggregateFn, Certificates, StateView};
        #[derive(Debug)]
        struct Nop;
        impl AggregateFn for Nop {
            fn name(&self) -> &str {
                "nop"
            }
            fn certificates(&self) -> Certificates {
                Certificates::opaque()
            }
            fn evaluate(&self, _member_weights: &[f64], _total_weight: f64) -> f64 {
                0.0
            }
            fn evaluate_state(&self, _state: &StateView<'_>) -> f64 {
                0.0
            }
        }
        let agg = Aggregation::custom(Nop).unwrap();
        let req = Request::Query(WireQuery {
            id: 1,
            query: Query::new(2, 2, agg).size_bound(4, true),
        });
        let mut buf = Vec::new();
        assert!(matches!(
            encode_request(&req, &mut buf),
            Err(ProtocolError::Unsupported(_))
        ));
    }

    #[test]
    fn framing_rejects_garbage_with_typed_errors() {
        let mut buf = Vec::new();
        // Clean EOF before any byte.
        assert!(!read_frame(&mut &[][..], REQ_PAYLOAD_MAX, &mut buf).unwrap());
        // Bad magic.
        assert!(matches!(
            read_frame(&mut &[0x7fu8, 0, 0, 0, 0][..], REQ_PAYLOAD_MAX, &mut buf),
            Err(ProtocolError::BadMagic(0x7f))
        ));
        // Truncated header.
        assert!(matches!(
            read_frame(&mut &[MAGIC, 1][..], REQ_PAYLOAD_MAX, &mut buf),
            Err(ProtocolError::Truncated)
        ));
        // Oversized length prefix.
        let mut oversized = vec![MAGIC];
        oversized.extend_from_slice(&(REQ_PAYLOAD_MAX + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &oversized[..], REQ_PAYLOAD_MAX, &mut buf),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
        // Truncated payload.
        let mut cut = vec![MAGIC];
        cut.extend_from_slice(&8u32.to_le_bytes());
        cut.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            read_frame(&mut &cut[..], REQ_PAYLOAD_MAX, &mut buf),
            Err(ProtocolError::Truncated)
        ));
        // Empty payload.
        let empty = [MAGIC, 0, 0, 0, 0];
        assert!(matches!(
            read_frame(&mut &empty[..], REQ_PAYLOAD_MAX, &mut buf),
            Err(ProtocolError::EmptyFrame)
        ));
    }

    #[test]
    fn short_and_trailing_payloads_are_bad_length_not_panics() {
        // A QUERY frame one byte short.
        let mut buf = Vec::new();
        encode_request(
            &Request::Query(WireQuery {
                id: 1,
                query: Query::new(2, 2, Aggregation::Sum),
            }),
            &mut buf,
        )
        .unwrap();
        assert!(matches!(
            decode_request(&buf[..buf.len() - 1]),
            Err(ProtocolError::BadLength { .. })
        ));
        // A QUERY frame with a trailing byte.
        buf.push(0);
        assert!(matches!(
            decode_request(&buf),
            Err(ProtocolError::BadLength { .. })
        ));
        // Unknown frame type.
        assert!(matches!(
            decode_request(&[0x55]),
            Err(ProtocolError::BadFrameType(0x55))
        ));
        // A reply whose community count promises more bytes than exist.
        let mut resp = Vec::new();
        encode_response(
            &Response::Reply {
                id: 1,
                epoch: 0,
                outcome: Outcome::Complete(vec![Community::new(vec![1, 2, 3], 5.0)]),
            },
            &mut resp,
        );
        for cut in 1..resp.len() {
            assert!(
                decode_response(&resp[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn json_requests_parse_and_misparse() {
        let req = parse_json_request(
            r#"{"id": 3, "k": 2, "r": 4, "agg": "sum", "eps": 0.1, "deadline_ms": 25}"#,
        )
        .unwrap();
        match req {
            Request::Query(wq) => {
                assert_eq!(wq.id, 3);
                assert_eq!(wq.query.k, 2);
                assert_eq!(wq.query.r, 4);
                assert_eq!(wq.query.aggregation, Aggregation::Sum);
                assert_eq!(wq.query.epsilon, 0.1);
                assert_eq!(wq.query.deadline, Some(Duration::from_millis(25)));
            }
            other => panic!("unexpected {other:?}"),
        }
        let req = parse_json_request(
            r#"{"k": 2, "r": 1, "agg": "weight_density", "beta": 2.0, "s": 5, "greedy": true}"#,
        )
        .unwrap();
        match req {
            Request::Query(wq) => {
                assert_eq!(
                    wq.query.aggregation,
                    Aggregation::WeightDensity { beta: 2.0 }
                );
                assert_eq!(
                    wq.query.constraint,
                    Constraint::SizeBound { s: 5, greedy: true }
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse_json_request(r#"{"op": "shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        for bad in [
            "not json at all",
            r#"{"k": 2}"#,                               // no agg
            r#"{"k": 2, "r": 1, "agg": "frobnicate"}"#,  // unknown agg
            r#"{"k": 2, "r": 1, "agg": "min", "x": 1}"#, // unknown key
            r#"{"k": -2, "r": 1, "agg": "min"}"#,        // negative count
            r#"{"k": 2.5, "r": 1, "agg": "min"}"#,       // fractional count
            r#"{"op": "reboot"}"#,                       // unknown op
            r#"{"k": 2, "r": 1, "agg": "min", "deadline_ms": -5}"#,
            r#"{"k": 2, "r": 1, "agg": "top_t_sum", "p": 2.5}"#,
            r#"{"k": 2, "r": 1, "agg": "min", "deadline_ms": 1e300}"#, // beyond Duration
            r#"{"id": 9007199254740994, "k": 2, "r": 1, "agg": "min"}"#, // beyond 2^53
        ] {
            assert!(parse_json_request(bad).is_err(), "{bad:?} must not parse");
        }
        // The widest values that do parse: a deadline no `Instant` can
        // hold (the engine treats it as "never expires"), and the
        // largest id an f64 token carries exactly.
        let req = parse_json_request(
            r#"{"id": 9007199254740992, "k": 2, "r": 1, "agg": "min", "deadline_ms": 1e22}"#,
        )
        .unwrap();
        match req {
            Request::Query(wq) => {
                assert_eq!(wq.id, 1 << 53);
                assert_eq!(wq.query.deadline, Some(Duration::from_secs_f64(1e19)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn json_rendering_is_parseable_shape() {
        let line = render_json_response(&Response::Reply {
            id: 5,
            epoch: 2,
            outcome: Outcome::Complete(vec![Community::new(vec![1, 2], 203.0)]),
        });
        assert_eq!(
            line,
            r#"{"id":5,"epoch":2,"status":"complete","communities":[{"value":203,"vertices":[1,2]}]}"#
        );
        let line = render_json_response(&Response::Reply {
            id: 6,
            epoch: 2,
            outcome: Outcome::Degraded {
                communities: vec![Community::new(vec![4], f64::NEG_INFINITY)],
                proven_prefix_len: 0,
            },
        });
        assert!(line.contains(r#""status":"degraded""#));
        assert!(line.contains(r#""proven_prefix_len":0"#));
        assert!(line.contains(r#""value":"-inf""#));
        assert_eq!(
            render_json_response(&Response::ShutdownAck),
            r#"{"status":"shutdown_ack"}"#
        );
        assert!(render_json_response(&Response::Overloaded {
            id: 9,
            reason: ShedReason::QueueFull
        })
        .contains("queue_full"));
    }

    /// One engine slot of every kind the reply path can meet, with the
    /// payload and JSON line the parent commit's
    /// `encode_response(&Response::Reply { outcome:
    /// Outcome::from_engine(slot), .. })` produced for it (id 258,
    /// epoch 7).
    fn slots_and_their_wire_images(
    ) -> Vec<(Result<QueryAnswer, EngineError>, &'static str, &'static str)> {
        let communities = vec![
            Community::new(vec![3, 1, 2], 203.0),
            Community::new(vec![9], f64::NEG_INFINITY),
        ];
        vec![
            (
                Ok(QueryAnswer::complete(communities.clone())),
                "81020100000000000007000000000000000002000000000000000060694003000000010000000200000003000000000000000000f0ff0100000009000000",
                r#"{"id":258,"epoch":7,"status":"complete","communities":[{"value":203,"vertices":[1,2,3]},{"value":"-inf","vertices":[9]}]}"#,
            ),
            (
                Ok(QueryAnswer {
                    communities,
                    status: AnswerStatus::Degraded {
                        proven_prefix_len: 1,
                    },
                }),
                "810201000000000000070000000000000001010000000000000002000000000000000060694003000000010000000200000003000000000000000000f0ff0100000009000000",
                r#"{"id":258,"epoch":7,"status":"degraded","proven_prefix_len":1,"communities":[{"value":203,"vertices":[1,2,3]},{"value":"-inf","vertices":[9]}]}"#,
            ),
            (
                Err(EngineError::Search(ic_core::SearchError::InvalidParams(
                    "r = 0".into(),
                ))),
                "81020100000000000007000000000000000219000000696e76616c696420706172616d65746572733a2072203d2030",
                r#"{"id":258,"epoch":7,"status":"error","kind":"search","message":"invalid parameters: r = 0"}"#,
            ),
            (
                Err(EngineError::DeadlineExceeded),
                "81020100000000000007000000000000000300000000",
                r#"{"id":258,"epoch":7,"status":"error","kind":"deadline_exceeded","message":""}"#,
            ),
            (
                Err(EngineError::Internal {
                    detail: "boom \"quoted\"".into(),
                }),
                "81020100000000000007000000000000000437000000696e7465726e616c20736f6c766572206661696c757265202871756572792069736f6c61746564293a20626f6f6d202271756f74656422",
                r#"{"id":258,"epoch":7,"status":"error","kind":"internal","message":"internal solver failure (query isolated): boom \"quoted\""}"#,
            ),
            (
                Err(EngineError::Unsupported {
                    detail: "read-only".into(),
                }),
                "81020100000000000007000000000000000520000000756e737570706f72746564206f7065726174696f6e3a20726561642d6f6e6c79",
                r#"{"id":258,"epoch":7,"status":"error","kind":"unsupported","message":"unsupported operation: read-only"}"#,
            ),
        ]
    }

    #[test]
    fn replies_encoded_from_engine_slots_are_byte_identical() {
        for (slot, hex, json) in slots_and_their_wire_images() {
            let owned = Response::Reply {
                id: 258,
                epoch: 7,
                outcome: Outcome::from_engine(&slot),
            };
            let mut via_response = Vec::new();
            encode_response(&owned, &mut via_response);
            let mut via_slot = Vec::new();
            encode_reply(258, 7, &slot, &mut via_slot);
            assert_eq!(via_slot, via_response, "{slot:?}");
            let as_hex: String = via_slot.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(
                as_hex, hex,
                "{slot:?}: bytes differ from the parent commit's"
            );
            assert_eq!(decode_response(&via_slot).unwrap(), owned);

            let line = render_json_reply(258, 7, &slot);
            assert_eq!(line, render_json_response(&owned), "{slot:?}");
            assert_eq!(
                line, json,
                "{slot:?}: line differs from the parent commit's"
            );
        }
    }

    #[test]
    fn frames_laid_end_to_end_equal_write_frame_and_parse_back() {
        let payloads: [&[u8]; 3] = [&[FRAME_SHUTDOWN], &[1, 2, 3, 4, 5, 6, 7], &[0xAA; 300]];
        let mut written = Vec::new();
        let mut laid = Vec::new();
        for payload in payloads {
            write_frame(&mut written, payload).unwrap();
            let at = begin_frame(&mut laid);
            laid.extend_from_slice(payload);
            end_frame(&mut laid, at);
        }
        assert_eq!(laid, written);

        /// Hands out at most `step` bytes per `read`.
        struct Trickle<'a>(&'a [u8], usize);
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.1.min(buf.len()).min(self.0.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        // Whatever the read sizes and however small the buffer starts,
        // the same frames come back, and the end of the stream falls
        // between frames.
        for step in [1, 4, 5, 6, 64, 1000] {
            let mut source = Trickle(&written, step);
            let mut frames = FrameBuf::new(REQ_PAYLOAD_MAX, 8);
            let mut got: Vec<Vec<u8>> = Vec::new();
            loop {
                if let Some(payload) = frames.next_frame().unwrap() {
                    got.push(payload.to_vec());
                } else if frames.fill(&mut source).unwrap() == 0 {
                    break;
                }
            }
            assert_eq!(got, payloads, "step {step}");
            assert!(!frames.mid_frame(), "step {step}");
        }
        // A stream cut inside a frame leaves the buffer mid-frame, and a
        // bad header is reported as soon as its five bytes are in.
        let mut frames = FrameBuf::new(REQ_PAYLOAD_MAX, 8);
        let mut cut = Trickle(&written[..written.len() - 1], 64);
        while frames.fill(&mut cut).unwrap() != 0 {
            while frames.next_frame().unwrap().is_some() {}
        }
        assert!(frames.mid_frame());
        let mut frames = FrameBuf::new(REQ_PAYLOAD_MAX, 8);
        let oversized = [MAGIC, 0xff, 0xff, 0xff, 0x7f];
        frames.fill(&mut &oversized[..]).unwrap();
        assert!(matches!(
            frames.next_frame(),
            Err(ProtocolError::FrameTooLarge { .. })
        ));

        // The same buffer cuts JSON lines: `\r\n` and `\n` endings, blank
        // lines handed out empty, whatever the read sizes.
        let written = b"{\"op\":\"stats\"}\r\n\n\r\n{\"id\":1}\nlast\r\r\n";
        let want: [&[u8]; 5] = [b"{\"op\":\"stats\"}", b"", b"", b"{\"id\":1}", b"last"];
        for step in [1, 4, 64] {
            let mut source = Trickle(written, step);
            let mut lines = FrameBuf::lines(REQ_PAYLOAD_MAX, 8);
            let mut got: Vec<Vec<u8>> = Vec::new();
            loop {
                if let Some(line) = lines.next_frame().unwrap() {
                    got.push(line.to_vec());
                } else if lines.fill(&mut source).unwrap() == 0 {
                    break;
                }
            }
            assert_eq!(got, want, "step {step}");
            assert!(!lines.mid_frame(), "step {step}");
        }
        // A line may run to the cap before its newline, never past it:
        // one byte more is refused before any newline arrives.
        let cap = REQ_PAYLOAD_MAX as usize;
        for len in [cap, cap + 1] {
            let line = vec![b'x'; len];
            let mut source = Trickle(&line, 64);
            let mut lines = FrameBuf::lines(REQ_PAYLOAD_MAX, 8);
            let mut refused = None;
            while refused.is_none() && lines.fill(&mut source).unwrap() != 0 {
                refused = lines.next_frame().err();
            }
            if len == cap {
                assert_eq!(refused, None);
                assert!(lines.mid_frame());
                lines.fill(&mut &b"\n"[..]).unwrap();
                assert_eq!(lines.next_frame().unwrap(), Some(&line[..]));
            } else {
                let len = len as u32;
                let max = REQ_PAYLOAD_MAX;
                assert_eq!(refused, Some(ProtocolError::FrameTooLarge { len, max }));
            }
        }
    }

    #[test]
    fn agg_names_and_codes_are_a_bijection() {
        for code in 0u8..=9 {
            let name = agg_name_by_code(code).unwrap();
            assert_eq!(agg_code_by_name(name).unwrap(), code);
            // Every code decodes with a benign parameter.
            agg_from_wire(code, 1.0).unwrap();
        }
        assert!(agg_name_by_code(10).is_none());
        assert!(matches!(
            agg_from_wire(10, 0.0),
            Err(ProtocolError::BadAggCode(10))
        ));
        assert!(agg_from_wire(7, f64::NAN).is_err(), "NaN t");
        assert!(agg_from_wire(7, 2.5).is_err(), "fractional t");
    }
}
