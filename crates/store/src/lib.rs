//! `ic-store`: the persistent on-disk snapshot + community-index store.
//!
//! The paper's fastest query path — and the prior-work baselines it
//! builds on (Li et al. VLDB'15, Bi et al. VLDB'18) — answers top-r
//! queries from a *precomputed index* instead of re-peeling the graph.
//! This crate makes that index (and everything else a serving process
//! needs) survive the process: a versioned, checksummed binary format
//! (**`ICS1`**) persisting
//!
//! * the [`WeightedGraph`](ic_graph::WeightedGraph) (CSR offsets,
//!   targets, weights),
//! * its [`CoreDecomposition`](ic_kcore::CoreDecomposition) (core
//!   numbers + bucket-peel order),
//! * memoized per-`k` [`CoreLevel`](ic_kcore::CoreLevel)s (mask +
//!   components),
//! * precomputed extremum community forests
//!   ([`ExtremumIndex`](ic_core::algo::ExtremumIndex)) per
//!   `(k, peel direction)`.
//!
//! **Zero-parse loading.** [`StoreFile::open`] performs one aligned
//! read, validates header + checksum, and then *views* every section in
//! place as its element type (`u64`/`u32`/`f64` slices — see `cast.rs`
//! for the audited casts); materializing the runtime structures is bulk
//! copies plus structural validation, with no per-element
//! deserialization loop anywhere. A serving process opens a prebuilt
//! store and answers its first index-served query in milliseconds,
//! versus re-reading an edge list, rebuilding the CSR, and re-running
//! the core decomposition.
//!
//! **Fail-closed.** Truncation, byte flips, wrong versions, and
//! internally inconsistent structures all surface as a typed
//! [`StoreError`] — never a panic, never a silently wrong answer. The
//! envelope checksum catches corruption; the adopting constructors
//! ([`Graph::from_csr_checked`](ic_graph::Graph::from_csr_checked),
//! [`ExtremumIndex::from_parts`](ic_core::algo::ExtremumIndex::from_parts),
//! …) catch inconsistency; and [`StoreFile::verify_deep`] re-derives
//! every persisted structure from the persisted graph for defense in
//! depth.
//!
//! **Serving integration.** `ic_engine::Engine::open` wraps
//! [`StoreFile::load_deferred`] + [`StoreContents::into_snapshot`]:
//! decomposition, levels, and forests seed the snapshot's memo caches,
//! and the engine's planner serves exact-tie peel-extremum queries
//! straight from the forest in output-sensitive time. On a lazily
//! verified mapped store the one check left for later is the
//! adjacency arrays' — the snapshot owes it and the engine calls it in
//! before anything reads adjacency; [`StoreFile::load`] owes nothing. After
//! `Engine::apply` mutates the graph, the swapped-in snapshot keeps
//! only the levels the update left untouched, under a new epoch —
//! persisted state of a changed level is *never* consulted across an
//! update; it rebuilds lazily per level.
//!
//! The `ic-store` binary is the operator surface:
//!
//! ```text
//! ic-store build  --dataset email --out email.ics1      # precompute
//! ic-store inspect email.ics1                            # sections
//! ic-store verify  email.ics1                            # deep check
//! ic-store query   email.ics1 --k 6 --r 5 --agg min      # serve
//! ```

#![deny(unsafe_code)] // granted only to `cast.rs`, the audited view layer
#![warn(missing_docs)]

pub mod cast;
pub mod format;
mod reader;
pub mod shard;
mod writer;

pub use format::{Header, Section, SectionKind, ShardMeta, FORMAT_VERSION};
pub use reader::{load_graph, save_graph, OpenOptions, ShardContents, StoreContents, StoreFile};
pub use writer::{StoreBuilder, WarmState};

/// Errors of the store layer. Every failure mode of opening, loading,
/// or writing a store maps onto one of these — corruption is a value,
/// not a panic.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The file (or a structure inside it) is malformed: bad magic,
    /// length/checksum mismatch, out-of-bounds sections, or arrays that
    /// fail structural validation.
    Corrupt {
        /// What exactly failed.
        what: String,
    },
    /// The file declares a format version this build does not read.
    Unsupported {
        /// The declared version.
        version: u32,
    },
    /// A required section is absent.
    Missing {
        /// The missing section's name.
        what: &'static str,
    },
    /// The persisted graph failed `ic-graph`'s own validation.
    Graph(ic_graph::GraphError),
}

impl StoreError {
    pub(crate) fn corrupt<S: Into<String>>(what: S) -> Self {
        StoreError::Corrupt { what: what.into() }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt { what } => write!(f, "corrupt store: {what}"),
            StoreError::Unsupported { version } => write!(
                f,
                "unsupported store format version {version} (this build reads {FORMAT_VERSION})"
            ),
            StoreError::Missing { what } => write!(f, "store is missing its {what} section"),
            StoreError::Graph(e) => write!(f, "persisted graph failed validation: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<ic_graph::GraphError> for StoreError {
    fn from(e: ic_graph::GraphError) -> Self {
        StoreError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use ic_core::algo::ExtremumIndex;
    use ic_core::figure1::figure1;
    use ic_core::Extremum;
    use ic_kcore::{core_decomposition, GraphSnapshot};

    fn full_store_bytes() -> Vec<u8> {
        let snap = GraphSnapshot::new(figure1());
        WarmState::at(&snap, &[2]).builder().to_bytes().unwrap()
    }

    #[test]
    fn full_round_trip_is_bit_identical() {
        let wg = figure1();
        let bytes = full_store_bytes();
        let file = StoreFile::from_bytes(&bytes).unwrap();
        let contents = file.load().unwrap();
        assert_eq!(contents.weighted.graph(), wg.graph());
        assert_eq!(contents.weighted.weights(), wg.weights());
        let decomp = contents.decomposition.as_ref().unwrap();
        assert_eq!(decomp, &core_decomposition(wg.graph()));
        assert_eq!(contents.levels.len(), 1);
        assert_eq!(contents.levels[0].k, 2);
        assert_eq!(contents.forests.len(), 2);
        assert_eq!(
            contents.forests[0],
            ExtremumIndex::build(&wg, 2, Extremum::Min)
        );
        assert_eq!(
            contents.forests[1],
            ExtremumIndex::build(&wg, 2, Extremum::Max)
        );
        file.verify_deep().unwrap();
    }

    #[test]
    fn into_snapshot_seeds_every_cache() {
        let bytes = full_store_bytes();
        let contents = StoreFile::from_bytes(&bytes).unwrap().load().unwrap();
        let snap = contents.into_snapshot();
        // Decomposition and level were seeded (no recompute): the level
        // map has exactly the persisted k, and both forest slots exist.
        assert_eq!(snap.cached_levels(), 1);
        assert_eq!(snap.cached_extensions(), 2);
        assert_eq!(snap.level(2).k, 2);
        let idx = ExtremumIndex::cached(&snap, 2, Extremum::Min);
        assert_eq!(*idx, ExtremumIndex::build_on(&snap, 2, Extremum::Min));
    }

    #[test]
    fn every_truncation_fails_closed() {
        let bytes = full_store_bytes();
        for cut in [0usize, 3, 47, 48, 100, bytes.len() - 8, bytes.len() - 1] {
            let err = StoreFile::from_bytes(&bytes[..cut]);
            assert!(err.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn every_single_byte_flip_fails_closed_or_is_detected() {
        // A flip in the payload must break the checksum; a flip in the
        // header must break a gate. Either way: typed error, no panic,
        // no silent acceptance of different bytes.
        let bytes = full_store_bytes();
        let stride = (bytes.len() / 97).max(1);
        for pos in (0..bytes.len()).step_by(stride) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            match StoreFile::from_bytes(&bad) {
                Err(_) => {}
                Ok(file) => {
                    // The only byte the envelope cannot self-check is a
                    // flip *inside the stored checksum field combined
                    // with* a colliding payload — impossible for a
                    // single flip. Reaching Ok would mean the flip
                    // changed nothing we parse; fail loudly.
                    let _ = file;
                    panic!("byte flip at {pos} was not detected");
                }
            }
        }
    }

    #[test]
    fn wrong_version_and_magic_are_typed() {
        let bytes = full_store_bytes();
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 9;
        assert!(matches!(
            StoreFile::from_bytes(&wrong_version),
            Err(StoreError::Unsupported { version: 9 })
        ));
        let mut wrong_magic = bytes.clone();
        wrong_magic[..4].copy_from_slice(b"ICG1");
        assert!(matches!(
            StoreFile::from_bytes(&wrong_magic),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn graph_only_store_loads_without_optional_sections() {
        let wg = figure1();
        let bytes = StoreBuilder::new(&wg).to_bytes().unwrap();
        let contents = StoreFile::from_bytes(&bytes).unwrap().load().unwrap();
        assert_eq!(contents.weighted.graph(), wg.graph());
        assert!(contents.decomposition.is_none());
        assert!(contents.levels.is_empty());
        assert!(contents.forests.is_empty());
    }

    #[test]
    fn duplicate_section_identities_are_rejected_at_write_time() {
        let wg = figure1();
        let snap = GraphSnapshot::new(wg.clone());
        let level = snap.level(2);
        let mut b = StoreBuilder::new(snap.weighted());
        b.level(&level).level(&level);
        assert!(matches!(b.to_bytes(), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn save_and_load_graph_round_trip_weights() {
        // The ICG1-successor regression: generated-graph caching and
        // engine persistence share one format, and weights survive.
        let wg = figure1();
        let dir = ScratchDir::new("store-test");
        let path = dir.join("graph.ics1");
        save_graph(&path, &wg).unwrap();
        let back = load_graph(&path).unwrap();
        assert_eq!(back.graph(), wg.graph());
        assert_eq!(back.weights(), wg.weights());
    }
}

/// The suites' self-removing scratch directory, shared with this
/// crate's unit tests.
#[cfg(test)]
#[path = "../../../tests/common/scratch.rs"]
mod scratch;
