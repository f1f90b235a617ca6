//! Standing-query subscriptions over an evolving graph.
//!
//! The paper's solvers answer one-shot top-r queries; interactive
//! consumers (dashboards, the visualization clients of the
//! influential-community systems literature) instead want *"tell me
//! when the answer changes"*. This crate provides that layer on top of
//! `ic-engine`'s mutable serving surface:
//!
//! * [`SubscriptionManager`] — registers standing [`Query`]s and, on
//!   each [`apply`](SubscriptionManager::apply), asks the engine's
//!   [`ApplyOutcome::keeps`](ic_engine::ApplyOutcome::keeps) of every
//!   subscription's retained answer: answers it proves unchanged are
//!   **skipped** — no re-solve, no notification — and the rest are
//!   refreshed in one engine batch.
//! * [`Delta`] — the typed change vocabulary
//!   ([`CommunityEntered`](Delta::CommunityEntered) /
//!   [`CommunityLeft`](Delta::CommunityLeft) /
//!   [`RankMoved`](Delta::RankMoved) /
//!   [`ValueChanged`](Delta::ValueChanged)) produced by
//!   [`diff_answers`], defined to be *exactly* what diffing two full
//!   re-solves yields (held by property tests in `tests/sub.rs`), and
//!   invertible: [`replay`] reconstructs the new answer from the old
//!   answer plus the deltas.
//! * [`NotificationGate`] — the bounded per-subscriber admission
//!   counter serving layers use to shed notifications to slow
//!   consumers *typed* (the next admitted notification is marked
//!   [`Admission::DeliverResync`], telling the client to treat its
//!   payload as a full resync rather than an increment).
//!
//! # Why skipping is sound
//!
//! Every solver path answers a `(k, …)` query from the maximal
//! `k`-core's vertex set, its induced edges, and the (immutable)
//! vertex weights — nothing else. Above the batch's
//! [`ceiling`](ic_engine::ApplyOutcome::ceiling) no update changed
//! either the `k`-core's vertex set (no core number crossed the `k`
//! threshold) or its induced edge set (every updated edge has an
//! endpoint outside the `k`-core before and after). A plain `min`
//! answer of exactly `r` communities depends on less: only on the
//! subgraph of vertices at least as heavy as its `r`-th value, which
//! toggles with a lighter endpoint leave alone. Deterministic solver
//! paths are bit-identical on identical input (`tests/conformance.rs`),
//! so the retained answer *is* the re-solve — skipping changes nothing
//! but the bill.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use ic_core::figure1::figure1;
//! use ic_core::Aggregation;
//! use ic_engine::{EdgeUpdate, Engine, Query};
//! use ic_sub::SubscriptionManager;
//!
//! let manager = SubscriptionManager::new(Arc::new(Engine::with_threads(figure1(), 2)));
//! let sub = manager.subscribe(Query::new(2, 2, Aggregation::Min)).unwrap();
//! let report = manager.apply(&[EdgeUpdate::Remove { u: 2, v: 8 }]).unwrap();
//! for n in &report.notifications {
//!     assert_eq!(n.id, sub.id);
//!     assert!(!n.deltas.is_empty());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delta;
mod gate;
mod manager;

pub use delta::{diff_answers, replay, Delta};
pub use gate::{Admission, NotificationGate};
pub use manager::{
    ApplyReport, Notification, SubStats, Subscribed, SubscriptionId, SubscriptionManager,
};

// The journal and query vocabulary this crate is parameterized by.
pub use ic_engine::{CascadeRecord, CoreDelta, EdgeUpdate, Epoch, Query};
