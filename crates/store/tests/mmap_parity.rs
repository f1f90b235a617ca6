//! Property tests for the mapped open path (PR 8 satellite).
//!
//! Two guarantees, over ER / BA / Chung-Lu graphs:
//!
//! 1. **Parity**: a store opened memory-mapped (lazy per-section
//!    verification) materializes *bit-for-bit* the same snapshot as the
//!    same file opened into an owned buffer (eager whole-file
//!    checksum) — same CSR, same weight bits, same decomposition, same
//!    index-served top-r answers.
//! 2. **Fail-closed**: truncating the file or flipping any verifiable
//!    byte makes the mapped open (or the first typed view of the
//!    damaged section) return a typed [`StoreError`] — never a panic,
//!    never a silently wrong snapshot. A deferred load
//!    (`StoreFile::load_deferred`, what the engine opens with) may hand
//!    an adjacency flip on as a debt; the snapshot's owed check then
//!    refuses it before adjacency is read. The only bytes exempt are the
//!    header checksum field `[24..32)` and the sums section's own
//!    unused slot, which lazy verification cannot cover *by design*
//!    (they are exactly what the eager path exists to check).

use ic_core::algo::ExtremumIndex;
use ic_core::Extremum;
use ic_gen::{barabasi_albert, chung_lu, gnm, pareto_weights, GraphSeed};
use ic_graph::WeightedGraph;
use ic_kcore::{core_decomposition, AdjacencyState, GraphSnapshot};
use ic_store::{OpenOptions, SectionKind, StoreBuilder, StoreError, StoreFile};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// Seeded generator family: every section kind the store can hold gets
/// exercised (graph, weights, decomposition, levels, min/max forests,
/// section sums).
#[derive(Clone, Copy, Debug)]
enum Family {
    Er,
    Ba,
    ChungLu,
}

fn arb_weighted() -> impl Strategy<Value = WeightedGraph> {
    (
        prop_oneof![Just(Family::Er), Just(Family::Ba), Just(Family::ChungLu)],
        20usize..120,
        0u32..1000,
    )
        .prop_map(|(family, n, seed)| {
            let seed = seed as u64;
            let g = match family {
                Family::Er => gnm(n, 3 * n, GraphSeed(seed)),
                Family::Ba => barabasi_albert(n, 3, GraphSeed(seed)),
                Family::ChungLu => chung_lu(n, 3 * n, 2.5, GraphSeed(seed)),
            };
            let w = pareto_weights(n, 1.5, GraphSeed(seed ^ 0xABCD));
            WeightedGraph::new(g, w).expect("generator weights pair")
        })
}

fn scratch(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ic-store-mmap-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{case}.ics1"))
}

/// Full-fat store bytes: decomposition + levels + forests, so the
/// mapped open has every section kind to verify lazily.
fn store_bytes(wg: &WeightedGraph, ks: &[usize]) -> Vec<u8> {
    let decomp = core_decomposition(wg.graph());
    let snap = GraphSnapshot::with_decomposition(Arc::new(wg.clone()), decomp.clone());
    let levels: Vec<_> = ks.iter().map(|&k| snap.level(k)).collect();
    let forests: Vec<_> = ks
        .iter()
        .flat_map(|&k| {
            [
                ExtremumIndex::build_on(&snap, k, Extremum::Min),
                ExtremumIndex::build_on(&snap, k, Extremum::Max),
            ]
        })
        .collect();
    let mut builder = StoreBuilder::new(wg);
    builder.decomposition(&decomp);
    for level in &levels {
        builder.level(level);
    }
    for forest in &forests {
        builder.forest(forest.parts());
    }
    builder.to_bytes().expect("valid store")
}

fn open_snapshot(path: &PathBuf, options: &OpenOptions) -> (GraphSnapshot, &'static str) {
    let file = StoreFile::open_with(path, options).expect("open");
    let backing = file.backing_kind();
    (file.load().expect("load").into_snapshot(), backing)
}

/// Byte offsets a single flip can leave *consistent* instead of
/// corrupt: the header checksum field and the sums section's own
/// (unused) slot — which lazy verification cannot cover by design —
/// plus the section-count field, where a *decrease* merely drops
/// trailing (optional) sections and leaves a file that is valid by
/// construction (the payload checksum covers the table bytes, not the
/// count).
fn unverifiable_ranges(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let file = StoreFile::from_bytes(bytes).expect("fixture is valid");
    let mut ranges = vec![16..20, 24..32];
    if let Some((i, s)) = file
        .sections()
        .iter()
        .enumerate()
        .find(|(_, s)| s.known_kind() == Some(SectionKind::SectionSums))
    {
        let own_slot = s.offset as usize + 8 * (1 + i);
        ranges.push(own_slot..own_slot + 8);
    }
    ranges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Mapped and owned opens of the same file are indistinguishable:
    /// identical graph bits, identical precomputed structures,
    /// identical index-served answers.
    #[test]
    fn mapped_open_matches_owned_open(wg in arb_weighted(), case in any::<u64>()) {
        let ks = [2usize, 3];
        let path = scratch("parity", case);
        std::fs::write(&path, store_bytes(&wg, &ks)).unwrap();

        let (mapped, mapped_kind) = open_snapshot(&path, &OpenOptions::mapped());
        let (owned, owned_kind) = open_snapshot(&path, &OpenOptions::default());
        // The two paths must actually be different paths.
        prop_assert_eq!(mapped_kind, "mapped");
        prop_assert_eq!(owned_kind, "owned");

        prop_assert_eq!(mapped.graph(), owned.graph());
        let mapped_bits: Vec<u64> =
            mapped.weighted().weights().iter().map(|w| w.to_bits()).collect();
        let owned_bits: Vec<u64> =
            owned.weighted().weights().iter().map(|w| w.to_bits()).collect();
        prop_assert_eq!(mapped_bits, owned_bits);
        prop_assert_eq!(&*mapped.decomposition(), &*owned.decomposition());

        // The deferred load owes exactly the adjacency check — only on
        // the lazily verified mapping — and is the same snapshot once
        // that has run.
        let load_deferred = |options: &OpenOptions| {
            let file = StoreFile::open_with(&path, options).expect("open");
            file.load_deferred().expect("deferred load").into_snapshot()
        };
        let owing = load_deferred(&OpenOptions::mapped());
        prop_assert_eq!(owing.adjacency_state(), AdjacencyState::Owed);
        prop_assert_eq!(
            load_deferred(&OpenOptions::default()).adjacency_state(),
            AdjacencyState::Verified
        );
        prop_assert!(owing.ensure_adjacency().is_ok());
        prop_assert_eq!(owing.adjacency_state(), AdjacencyState::Verified);
        prop_assert_eq!(owing.graph(), owned.graph());

        for k in ks {
            for dir in [Extremum::Min, Extremum::Max] {
                let a = ExtremumIndex::cached(&mapped, k, dir)
                    .topr(mapped.weighted(), 5)
                    .expect("mapped topr");
                let b = ExtremumIndex::cached(&owned, k, dir)
                    .topr(owned.weighted(), 5)
                    .expect("owned topr");
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    prop_assert_eq!(&x.vertices, &y.vertices);
                    prop_assert_eq!(x.value.to_bits(), y.value.to_bits());
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Any truncation fails the mapped open with a typed error.
    #[test]
    fn truncation_fails_closed_under_mmap(
        wg in arb_weighted(),
        cut in 0.0f64..1.0,
        case in any::<u64>(),
    ) {
        let bytes = store_bytes(&wg, &[2]);
        let keep = ((bytes.len() as f64) * cut) as usize;
        let path = scratch("trunc", case);
        std::fs::write(&path, &bytes[..keep.min(bytes.len() - 1)]).unwrap();
        match StoreFile::open_with(&path, &OpenOptions::mapped()) {
            Err(StoreError::Corrupt { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("wrong error class: {e}"))),
            Ok(file) => {
                // Truncation to an 8-aligned prefix that still decodes
                // is impossible: total_len is checked at open.
                return Err(TestCaseError::fail(format!(
                    "truncated file opened: {file:?}"
                )));
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Any single byte flip outside the documented unverifiable bytes
    /// fails the mapped open or the subsequent load with a typed
    /// [`StoreError`] — corruption can hide from the *open* (lazy mode
    /// verifies on first touch) but never from a materialized snapshot
    /// whose owed check has run: `load()` runs it at once, a deferred
    /// load leaves it to `ensure_adjacency`.
    #[test]
    fn byte_flips_fail_closed_under_mmap(
        wg in arb_weighted(),
        pos_seed in any::<u64>(),
        xor in 1u8..255,
        case in any::<u64>(),
    ) {
        let bytes = store_bytes(&wg, &[2]);
        let exempt = unverifiable_ranges(&bytes);
        let mut pos = (pos_seed % bytes.len() as u64) as usize;
        while exempt.iter().any(|r| r.contains(&pos)) {
            pos = (pos + 1) % bytes.len();
        }
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= xor;

        let path = scratch("flip", case);
        std::fs::write(&path, &corrupt).unwrap();
        let outcome = StoreFile::open_with(&path, &OpenOptions::mapped())
            .and_then(|file| file.load().map(|_| ()));
        match outcome {
            Err(StoreError::Corrupt { .. })
            | Err(StoreError::Unsupported { .. })
            | Err(StoreError::Missing { .. })
            | Err(StoreError::Graph(_)) => {}
            Err(e) => return Err(TestCaseError::fail(format!(
                "flip at {pos} gave a non-corruption error: {e}"
            ))),
            Ok(()) => return Err(TestCaseError::fail(format!(
                "flip at {pos} (xor {xor:#04x}) loaded cleanly"
            ))),
        }
        let deferred = StoreFile::open_with(&path, &OpenOptions::mapped())
            .and_then(|file| file.load_deferred());
        if let Ok(contents) = deferred {
            let snap = contents.into_snapshot();
            prop_assert_eq!(snap.adjacency_state(), AdjacencyState::Owed,
                            "flip at {} got past a deferred load that owes nothing", pos);
            prop_assert!(snap.ensure_adjacency().is_err(),
                         "flip at {} passed the owed check", pos);
            prop_assert_eq!(snap.adjacency_state(), AdjacencyState::Refused);
        }
        let _ = std::fs::remove_file(&path);
    }
}
