//! ic-serve: a micro-batching TCP front end for the
//! influential-community engine.
//!
//! The engine's batch API amortizes planning, dedup, r-family merging,
//! and work-stealing across the queries of one call — but a network
//! front end that forwards each arriving query as its own
//! single-element batch forfeits all of it. This crate closes that gap
//! with **admission batching**: queries arriving on any connection are
//! admitted into one bounded queue and flush as *one*
//! [`QueryBackend::submit`](ic_engine::QueryBackend::submit) call,
//! whose answers leave as each engine job ends. A batch leaves once its
//! oldest query has waited out the *linger* — the smaller of the
//! admission window (default 1 ms) and half the recently measured batch
//! service time — so under concurrency the
//! engine sees the large batches it was designed for, solver-bound
//! traffic coalesces for the whole window, and a lone client asking for
//! cached answers waits for nobody.
//!
//! The pieces:
//!
//! * [`protocol`] — the length-prefixed binary wire format, a JSON-lines
//!   debug mode, and their codecs (pure functions, fuzzed in
//!   `tests/protocol.rs`).
//! * [`Server`] — bind, accept, admit, batch, reply; with bounded
//!   queues (backpressure), typed [`Response::Overloaded`] shedding,
//!   admission-anchored deadlines, per-batch epoch pinning, and a
//!   graceful flush-then-ack drain. Tuned by [`ServeConfig`].
//! * [`Client`] — a blocking binary-mode client with out-of-order reply
//!   matching; what the examples and benchmarks use.
//!
//! Servers bound over a concrete [`Engine`](ic_engine::Engine) (not an
//! opaque backend) additionally serve **standing-query subscriptions**:
//! `SUBSCRIBE` registers a query, `UPDATE` applies edge updates as one
//! atomic epoch step, and every subscription whose answer changed gets
//! a `NOTIFY` frame with typed deltas ([`ic_sub::Delta`]) *before* the
//! updater's ack — backed by `ic_sub`'s cascade-journal pruning, so
//! provably-unaffected subscriptions cost nothing per update.
//!
//! ```no_run
//! use ic_serve::{Client, ServeConfig, Server};
//! use ic_core::{Aggregation, Query};
//! use ic_engine::Engine;
//! use std::sync::Arc;
//!
//! let engine = Arc::new(Engine::open("email.ics")?);
//! let server = Server::bind(engine, "127.0.0.1:0", ServeConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let reply = client.call(1, &Query::new(2, 3, Aggregation::Sum)).unwrap();
//! println!("{reply:?}");
//! client.shutdown_and_drain().unwrap();
//! server.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod client;
mod error;
pub mod json;
pub mod protocol;
mod server;

pub use client::Client;
pub use error::{ClientError, ProtocolError};
pub use protocol::{
    ErrorKind, Outcome, Request, Response, ShedReason, WireNotification, WireQuery,
};
pub use server::{ServeConfig, ServeStats, Server};
