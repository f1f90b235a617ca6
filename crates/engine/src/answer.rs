//! The engine's answer vocabulary: status-tagged results and typed
//! serving errors.
//!
//! [`Engine::run_batch_with`](crate::Engine::run_batch_with) returns
//! one `Result<QueryAnswer, EngineError>` per query. The `Ok` side
//! carries an [`AnswerStatus`]: `Complete` answers are the familiar
//! bit-exact solver output, while `Degraded` answers are what a query
//! deadline buys — the communities the solver had *proven* when time
//! ran out. For the exact solver paths (`min`/`max` peels, exact
//! `TIC-IMPROVED`) a degraded answer is a **prefix certificate**: its
//! `proven_prefix_len` leading entries equal the same-length prefix of
//! the full answer bit for bit (held by the conformance suite). For the
//! approximate and local-search paths it is best-so-far
//! (`proven_prefix_len == 0`).
//!
//! The `Err` side distinguishes the ways serving can fail:
//! a [`SearchError`] from validation/routing (the query itself is
//! wrong), [`EngineError::DeadlineExceeded`] (the deadline expired
//! before *anything* was proven — there is no prefix to return),
//! [`EngineError::Internal`] (the solver panicked; the panic was
//! isolated to this query and its arena quarantined, the rest of the
//! batch completed normally), and [`EngineError::CorruptStore`] (the
//! store the engine was opened from failed the adjacency check it owed,
//! so nothing that would read adjacency runs).

use ic_core::{Community, SearchError};
use std::time::Instant;

/// Completeness tag of a [`QueryAnswer`]; see the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerStatus {
    /// The full, bit-exact answer.
    Complete,
    /// A truncated answer: the query's deadline expired mid-solve.
    Degraded {
        /// How many leading communities are *proven* to equal the full
        /// answer's prefix bit for bit. Everything past this index (and
        /// the whole list when this is 0) is best-so-far: genuine
        /// communities, but possibly not the true top ranks.
        proven_prefix_len: usize,
    },
}

/// One query's answer: the communities plus how complete they are.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryAnswer {
    /// Communities in rank order (for `Complete`, exactly the direct
    /// solver output).
    pub communities: Vec<Community>,
    /// Completeness of `communities`; see [`AnswerStatus`].
    pub status: AnswerStatus,
}

impl QueryAnswer {
    /// A complete answer over `communities`.
    pub fn complete(communities: Vec<Community>) -> Self {
        QueryAnswer {
            communities,
            status: AnswerStatus::Complete,
        }
    }

    /// Whether the answer is complete (not degraded).
    pub fn is_complete(&self) -> bool {
        self.status == AnswerStatus::Complete
    }
}

/// One query's result slot as the engine holds it: the very allocation
/// the result cache keeps and every duplicate query of a batch shares.
/// [`QueryBackend::submit`](crate::QueryBackend::submit) hands these
/// to its sink so a serving layer can write a cached answer to a socket
/// without cloning its vertex lists.
pub type SharedAnswer = std::sync::Arc<Result<QueryAnswer, EngineError>>;

/// Why the engine could not answer a query at all; see the module docs.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// Validation/routing rejected the query (see [`SearchError`]).
    Search(SearchError),
    /// The deadline expired before any community was proven final.
    DeadlineExceeded,
    /// The solver panicked; the failure was isolated to this query (its
    /// arena quarantined, the rest of the batch completed).
    Internal {
        /// The panic payload, for diagnostics.
        detail: String,
    },
    /// The backend does not support the requested operation (e.g. edge
    /// updates against a scatter-gather shard front, or an update
    /// addressing a vertex outside the graph).
    Unsupported {
        /// What was refused and why.
        detail: String,
    },
    /// The engine was opened from a lazily verified store whose graph
    /// adjacency failed the check deferred at open
    /// ([`GraphSnapshot::ensure_adjacency`](ic_kcore::GraphSnapshot::ensure_adjacency)).
    /// Sticky: every operation that would read adjacency gets it, no
    /// solver runs; answers served from persisted forests are unaffected.
    CorruptStore {
        /// What the check found.
        detail: String,
    },
}

impl EngineError {
    /// The plain-surface rendering (`Engine::run_batch`): everything
    /// that is not a search or deadline error flattens to
    /// [`SearchError::Internal`].
    pub(crate) fn into_search(self) -> SearchError {
        match self {
            EngineError::Search(e) => e,
            EngineError::DeadlineExceeded => SearchError::DeadlineExceeded,
            EngineError::Internal { detail } | EngineError::Unsupported { detail } => {
                SearchError::Internal(detail)
            }
            corrupt @ EngineError::CorruptStore { .. } => {
                SearchError::Internal(corrupt.to_string())
            }
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Search(e) => e.fmt(f),
            EngineError::DeadlineExceeded => {
                write!(f, "deadline exceeded before any result was proven")
            }
            EngineError::Internal { detail } => {
                write!(f, "internal solver failure (query isolated): {detail}")
            }
            EngineError::Unsupported { detail } => {
                write!(f, "unsupported operation: {detail}")
            }
            EngineError::CorruptStore { detail } => write!(f, "corrupt store: {detail}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Search(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SearchError> for EngineError {
    fn from(e: SearchError) -> Self {
        EngineError::Search(e)
    }
}

impl From<ic_kcore::AdjacencyRefused> for EngineError {
    fn from(refused: ic_kcore::AdjacencyRefused) -> Self {
        EngineError::CorruptStore {
            detail: refused.to_string(),
        }
    }
}

/// Batch-wide serving options for
/// [`Engine::run_batch_with`](crate::Engine::run_batch_with). Deadlines
/// themselves are per query ([`Query::deadline`](ic_core::Query)); the
/// batch only says where their clocks start.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchOptions {
    /// The instant all of the batch's deadlines are measured **from**.
    /// `None` (the default) anchors at serve start — the moment the
    /// engine begins executing the batch — which is correct for callers
    /// that execute immediately. A serving layer that *queues* work must
    /// anchor at **admission** instead
    /// ([`deadline_from`](Self::deadline_from)): otherwise a query can
    /// wait unboundedly in an admission queue and still receive its full
    /// budget once it finally runs, defeating the deadline's purpose as
    /// an end-to-end latency bound.
    pub anchor: Option<Instant>,
}

impl BatchOptions {
    /// Options anchored at serve start (identical to `run_batch`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Anchors every query deadline of the batch at `anchor` instead of serve start, so time already spent —
    /// queueing, admission batching — counts against the budget. An
    /// anchor in the past shrinks every effective budget by the elapsed
    /// wait; a budget the wait has fully consumed expires at the first
    /// checkpoint and degrades exactly like any other expiry.
    pub fn deadline_from(mut self, anchor: Instant) -> Self {
        self.anchor = Some(anchor);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = EngineError::Search(SearchError::InvalidParams("r must be positive".into()));
        assert!(e.to_string().contains("r must be positive"));
        assert!(EngineError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        let e = EngineError::Internal {
            detail: "worker panicked at peel.rs:1".into(),
        };
        let s = e.to_string();
        assert!(s.contains("isolated") && s.contains("peel.rs:1"));
    }

    #[test]
    fn batch_options_fold_builder_style() {
        assert!(BatchOptions::default().anchor.is_none());
        let t = Instant::now();
        assert_eq!(BatchOptions::new().deadline_from(t).anchor, Some(t));
    }
}
