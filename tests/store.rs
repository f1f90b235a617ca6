//! Persistence conformance: `persist → open` must be **bit-identical**
//! to the in-memory engine, and corrupt stores must **fail closed**.
//!
//! * a warmed engine's graph, weights, decomposition and forests round
//!   trip exactly, and the file opened owned and mapped answers like the
//!   oracle (the store arm of [`common::agree`]);
//! * a store-opened engine driven through update scripts never serves
//!   its persisted (pre-update) structures;
//! * truncations, byte flips, and unknown versions all surface as typed
//!   [`StoreError`]s — never a panic, never a silently wrong answer —
//!   through the owned, eagerly verified open and the mapped, lazily
//!   verified one alike;
//! * a mapped store's adjacency check is owed until first touch, and a
//!   flip there fails every operation that reads adjacency.

use common::{agree, arb_workload, Backends, ScratchDir, Shape};
use ic_core::algo::ExtremumIndex;
use ic_core::{Aggregation, Extremum, Query};
use ic_engine::{AnswerSink, BatchOptions, EdgeUpdate, Engine, EngineError, QueryBackend};
use ic_gen::{chung_lu, gnm, rank_weights, GraphSeed};
use ic_graph::WeightedGraph;
use ic_kcore::{AdjacencyState, GraphSnapshot};
use ic_store::{format, OpenOptions, SectionKind, StoreError, StoreFile, WarmState};
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

mod common;

/// Warm a snapshot the way served traffic would, then serialize it.
fn store_bytes_for(wg: &WeightedGraph, ks: &[usize]) -> Vec<u8> {
    let snap = GraphSnapshot::new(wg.clone());
    WarmState::at(&snap, ks)
        .builder()
        .to_bytes()
        .expect("consistent store")
}

fn query_sweep(ks: &[usize]) -> Vec<Query> {
    let mut queries = Vec::new();
    for &k in ks {
        for r in [1usize, 3, 100] {
            queries.push(Query::new(k, r, Aggregation::Min));
            queries.push(Query::new(k, r, Aggregation::Max));
            queries.push(Query::new(k, r, Aggregation::Sum));
        }
    }
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `persist → open` ≡ in-memory, bit for bit: structures and top-r
    /// answers. Weight model 3 quantizes to a handful of distinct
    /// values, forcing the tie paths through every layer.
    #[test]
    fn store_round_trip_is_bit_identical(
        wg in arb_workload(Shape::Families(0..4), 0..4, 20..64),
    ) {
        let on = Backends { store: true, ..Backends::default() };
        agree(&wg, &query_sweep(&[1, 2]), &on)?;
    }

    /// The evolving-store contract, property-based: a store-opened
    /// engine driven through a randomized update script must keep
    /// answering exactly like a fresh engine built from the mutated
    /// graph — the persisted (pre-update) forests are never served
    /// post-`apply`, and the forests the post-apply snapshot *does*
    /// carry (incrementally repaired where the touched region was
    /// small) are bit-identical to full rebuilds.
    #[test]
    fn applied_store_engines_never_serve_stale_state(
        wg in arb_workload(Shape::Families(0..4), 0..4, 20..64),
        script in common::arb_script(1..4, 1..8),
    ) {
        let ks = [1usize, 2];
        let bytes = store_bytes_for(&wg, &ks);
        let contents = StoreFile::from_bytes(&bytes).expect("valid store").load().expect("loads");
        let opened = Engine::from_snapshot(contents.into_snapshot(), 1);
        let sweep = query_sweep(&ks);

        // Warm the persisted forests into the serving path before any
        // mutation, so staleness (if the engine ever leaked them) would
        // actually be observable.
        for r in opened.run_batch(&sweep) {
            r.expect("pre-update answers");
        }

        let n = wg.num_vertices();
        for batch in &script {
            let updates = common::concrete_batch(batch, n);
            if updates.is_empty() {
                continue;
            }
            opened.apply(&updates);

            // Ground truth: a fresh engine over the mutated graph.
            let mutated = opened.snapshot().weighted().clone();
            let fresh = Engine::with_threads(mutated.clone(), 1);
            let a = opened.run_batch(&sweep);
            let b = fresh.run_batch(&sweep);
            for ((q, x), y) in sweep.iter().zip(&a).zip(&b) {
                prop_assert_eq!(
                    x.as_ref().expect("valid query"),
                    y.as_ref().expect("valid query"),
                    "store-opened engine served stale state after {:?} on {:?}",
                    updates, q
                );
            }

            // Whatever forests the post-apply snapshot carries —
            // incrementally repaired or rebuilt on demand — must be
            // bit-identical to a from-scratch build on the mutated
            // graph.
            for (_, _, forest) in opened
                .snapshot()
                .memoized_extensions::<ExtremumIndex>()
            {
                let rebuilt = ExtremumIndex::build(&mutated, forest.k(), forest.extremum());
                prop_assert_eq!(
                    forest.as_ref(), &rebuilt,
                    "post-apply forest diverged from a full rebuild"
                );
            }
        }
    }

    /// Any truncation fails closed with a typed error, whether the
    /// bytes are verified eagerly or the file is mapped.
    #[test]
    fn truncated_stores_fail_closed(
        wg in arb_workload(Shape::Families(0..4), 0..5, 20..120),
        frac in 0.0f64..1.0,
    ) {
        let bytes = store_bytes_for(&wg, &[2]);
        let cut = ((bytes.len() as f64) * frac) as usize; // always < len
        let result = StoreFile::from_bytes(&bytes[..cut]);
        prop_assert!(
            matches!(result, Err(StoreError::Corrupt { .. } | StoreError::Unsupported { .. })),
            "owned: truncation at {} of {}: {:?}", cut, bytes.len(), result.map(|_| "accepted")
        );
        let dir = ScratchDir::new("store-truncated");
        let path = dir.join("cut.ics1");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let result = StoreFile::open_with(&path, &OpenOptions::mapped());
        prop_assert!(
            matches!(result, Err(StoreError::Corrupt { .. })),
            "mapped: truncation at {} of {}: {:?}", cut, bytes.len(), result.map(|_| "accepted")
        );
    }

    /// Any flipped byte fails closed with a typed error: at once when
    /// the bytes are verified eagerly; on a mapped file at the open or
    /// the load — or, for a deferred load, at the owed adjacency check.
    /// A mapping cannot cover the header checksum, the sums section's
    /// own slot and the section count (a decrease only drops trailing
    /// optional sections) by design: they are what the eager path checks.
    #[test]
    fn flipped_bytes_fail_closed(
        wg in arb_workload(Shape::Families(0..4), 0..5, 20..120),
        pos_frac in 0.0f64..1.0,
        xor in 1u8..255,
    ) {
        let bytes = store_bytes_for(&wg, &[2]);
        let flipped_at = |pos: usize| {
            let mut flipped = bytes.clone();
            flipped[pos] ^= xor;
            flipped
        };
        let corrupt = |result: &Result<(), StoreError>| matches!(
            result,
            Err(StoreError::Corrupt { .. }
                | StoreError::Unsupported { .. }
                | StoreError::Missing { .. }
                | StoreError::Graph(_))
        );
        let pos = (((bytes.len() as f64) * pos_frac) as usize).min(bytes.len() - 1);
        let owned = StoreFile::from_bytes(&flipped_at(pos)).map(|_| ());
        prop_assert!(corrupt(&owned), "owned: flip at {} (xor {:#04x}): {:?}", pos, xor, owned);

        let exempt = unverifiable_ranges(&bytes);
        let mut pos = pos;
        while exempt.iter().any(|r| r.contains(&pos)) {
            pos = (pos + 1) % bytes.len();
        }
        let dir = ScratchDir::new("store-flipped");
        let path = dir.join("flipped.ics1");
        std::fs::write(&path, flipped_at(pos)).unwrap();
        let mapped = StoreFile::open_with(&path, &OpenOptions::mapped())
            .and_then(|file| file.load().map(|_| ()));
        prop_assert!(corrupt(&mapped), "mapped: flip at {} (xor {:#04x}): {:?}", pos, xor, mapped);
        let deferred = StoreFile::open_with(&path, &OpenOptions::mapped())
            .and_then(|file| file.load_deferred());
        if let Ok(contents) = deferred {
            let snap = contents.into_snapshot();
            prop_assert_eq!(snap.adjacency_state(), AdjacencyState::Owed,
                            "flip at {} got past a deferred load that owes nothing", pos);
            prop_assert!(snap.ensure_adjacency().is_err(), "flip at {} passed the owed check", pos);
            prop_assert_eq!(snap.adjacency_state(), AdjacencyState::Refused);
        }
    }
}

/// Byte offsets a single flip can leave *consistent* on a mapped open:
/// the section count, the header checksum field and the sums section's
/// own (unused) slot.
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

/// The staleness story: a store-opened engine that then mutates its
/// graph must never serve the persisted (pre-update) structures — the
/// post-`apply` snapshot starts with empty caches and rebuilds lazily,
/// so answers equal a fresh engine on the mutated graph, bit for bit.
#[test]
fn persisted_indexes_are_not_served_across_apply() {
    let wg = WeightedGraph::new(
        gnm(120, 360, GraphSeed(21)),
        rank_weights(120, GraphSeed(22)),
    )
    .unwrap();
    let bytes = store_bytes_for(&wg, &[2]);
    let contents = StoreFile::from_bytes(&bytes).unwrap().load().unwrap();
    let opened = Engine::from_snapshot(contents.into_snapshot(), 1);

    // Mutate through the opened engine: remove a handful of edges that
    // exist, insert a couple that do not.
    let updates: Vec<EdgeUpdate> = wg
        .graph()
        .edges()
        .take(5)
        .map(|(u, v)| EdgeUpdate::Remove { u, v })
        .chain([
            EdgeUpdate::Insert { u: 0, v: 119 },
            EdgeUpdate::Insert { u: 1, v: 118 },
        ])
        .collect();
    let epoch = opened.apply(&updates);
    assert!(epoch.index() > 0, "edge set changed");

    // A fresh engine built from the mutated graph is the ground truth.
    let fresh = Engine::with_threads(opened.snapshot().weighted().clone(), 1);
    let sweep = query_sweep(&[1, 2]);
    let a = opened.run_batch(&sweep);
    let b = fresh.run_batch(&sweep);
    for ((q, x), y) in sweep.iter().zip(&a).zip(&b) {
        assert_eq!(
            x.as_ref().unwrap(),
            y.as_ref().unwrap(),
            "post-apply store engine served stale state on {q:?}"
        );
    }
}

/// Wrong format versions are refused with the dedicated error, not a
/// parse attempt.
#[test]
fn unknown_versions_are_refused() {
    let wg = WeightedGraph::unit_weights(gnm(20, 40, GraphSeed(7)));
    let mut bytes = store_bytes_for(&wg, &[1]);
    for version in [0u8, 2, 200] {
        bytes[4] = version;
        match StoreFile::from_bytes(&bytes) {
            Err(StoreError::Unsupported { version: v }) => assert_eq!(v, version as u32),
            other => panic!("expected Unsupported for version {version}, got {other:?}"),
        }
    }
}

/// End-to-end through the engine's own entry points and a real file:
/// persist a served engine, reopen it, and cross-check answers — the
/// two-process-lifetimes story the store exists for.
#[test]
fn engine_persist_open_file_round_trip() {
    let wg = WeightedGraph::new(
        chung_lu(300, 900, 2.4, GraphSeed(11)),
        rank_weights(300, GraphSeed(12)),
    )
    .unwrap();
    let dir = ScratchDir::new("store-e2e");
    let path = dir.join("served.ics1");

    let sweep = query_sweep(&[1, 2, 3]);
    let first = Engine::with_threads(wg.clone(), 2);
    let expect = first.run_batch(&sweep);
    first.persist(&path).unwrap();
    drop(first); // "process" 1 exits

    let second = Engine::open_with_threads(&path, 2).unwrap(); // "process" 2 cold start
    let got = second.run_batch(&sweep);
    for ((q, x), y) in sweep.iter().zip(&expect).zip(&got) {
        assert_eq!(
            x.as_ref().unwrap(),
            y.as_ref().unwrap(),
            "reopened engine diverged on {q:?}"
        );
    }
    // Deep verification of the artifact itself.
    StoreFile::open(&path).unwrap().verify_deep().unwrap();
}

// ---------------------------------------------------------------------
// Adjacency verified on first touch (lazily verified mapped stores)

/// Forests persisted at k = 2 only; the 3-core is non-empty.
fn owed_fixture() -> WeightedGraph {
    let g = chung_lu(300, 900, 2.4, GraphSeed(11));
    WeightedGraph::new(g, rank_weights(300, GraphSeed(12))).unwrap()
}

/// Queries a store with forests at k = 2 serves without adjacency.
fn forest_served() -> Vec<Query> {
    [1usize, 3, 100]
        .into_iter()
        .flat_map(|r| {
            [
                Query::new(2, r, Aggregation::Min),
                Query::new(2, r, Aggregation::Max),
            ]
        })
        .collect()
}

fn section_range(bytes: &[u8], kind: SectionKind) -> std::ops::Range<usize> {
    let file = StoreFile::from_bytes(bytes).expect("a valid store image");
    let s = file
        .sections()
        .iter()
        .find(|s| s.known_kind() == Some(kind))
        .expect("the store has that section");
    s.offset as usize..(s.offset + s.len) as usize
}

/// `clean` with `patch` applied to its `kind` section and then
/// **re-hashed** — that section's sum and the header checksum — so every
/// integrity hash agrees and only a structural check can refuse it.
fn patched_and_rehashed(clean: &[u8], kind: SectionKind, patch: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let table = StoreFile::from_bytes(clean).unwrap();
    let index = table
        .sections()
        .iter()
        .position(|s| s.known_kind() == Some(kind))
        .expect("the store has that section");
    let section = section_range(clean, kind);
    let sums = section_range(clean, SectionKind::SectionSums);
    let mut bytes = clean.to_vec();
    patch(&mut bytes[section.clone()]);

    let words = |bytes: &[u8]| -> Vec<u64> {
        let word = |w: &[u8]| u64::from_le_bytes(w.try_into().unwrap());
        bytes.chunks_exact(8).map(word).collect()
    };
    let slot = sums.start + 8 * (1 + index);
    let padded = section.start..format::align8(section.end);
    let sum = format::checksum(&words(&bytes[padded]));
    bytes[slot..slot + 8].copy_from_slice(&sum.to_le_bytes());
    let header_sum = format::checksum(&words(&bytes[format::HEADER_LEN..]));
    bytes[24..32].copy_from_slice(&header_sum.to_le_bytes());
    bytes
}

fn counter(entries: &[(String, f64)], name: &str) -> f64 {
    let entry = entries.iter().find(|(n, _)| n == name);
    entry.unwrap_or_else(|| panic!("{name} is registered")).1
}

/// Every engine operation that reads adjacency, each able to be the one
/// that discharges the owed check.
#[derive(Clone, Copy, Debug)]
enum Touch {
    ExactSum,
    SizeBounded,
    UnpersistedK,
    TryApply,
    Persist,
}

impl Touch {
    const ALL: [Touch; 5] = [
        Touch::ExactSum,
        Touch::SizeBounded,
        Touch::UnpersistedK,
        Touch::TryApply,
        Touch::Persist,
    ];

    /// Runs the operation; `Err` carries the typed corruption error's
    /// text, `Ok` means it went through (or failed some other way).
    fn run(self, engine: &Engine, scratch: &Path) -> Result<(), String> {
        let batch = |q: Query| match &engine.run_batch_with(&[q], &BatchOptions::default())[0] {
            Err(EngineError::CorruptStore { detail }) => Err(detail.clone()),
            _ => Ok(()),
        };
        match self {
            Touch::ExactSum => batch(Query::new(2, 3, Aggregation::Sum)),
            Touch::SizeBounded => batch(Query::new(2, 2, Aggregation::Average).size_bound(6, true)),
            Touch::UnpersistedK => batch(Query::new(3, 2, Aggregation::Min)),
            Touch::TryApply => match engine.try_apply(&[EdgeUpdate::Remove { u: 0, v: 1 }]) {
                Err(EngineError::CorruptStore { detail }) => Err(detail),
                _ => Ok(()),
            },
            Touch::Persist => match engine.persist(scratch.join("persisted.ics1")) {
                Err(StoreError::Corrupt { what }) => Err(what),
                _ => Ok(()),
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A flip anywhere inside the adjacency sections hides from
    /// `Engine::open` on a mapped store — that is the deferral — but not
    /// from anything that would read adjacency: forest-served answers at
    /// the persisted `k` equal the clean store's bit for bit, and
    /// whichever adjacency-touching operation comes first (and every one
    /// after it) gets the typed corruption error, with no solver run, no
    /// panic and no quarantined arena.
    #[test]
    fn adjacency_flips_fail_closed_on_first_touch(
        in_targets in any::<bool>(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let wg = owed_fixture();
        let clean = store_bytes_for(&wg, &[2]);
        let kind = if in_targets { SectionKind::GraphTargets } else { SectionKind::GraphOffsets };
        let range = section_range(&clean, kind);
        let pos = range.start + ((range.len() as f64 * pos_frac) as usize).min(range.len() - 1);
        let mut flipped = clean.clone();
        flipped[pos] ^= 1u8 << bit;

        let dir = ScratchDir::new("store-owed-flip");
        let (clean_path, path) = (dir.join("clean.ics1"), dir.join("flipped.ics1"));
        std::fs::write(&clean_path, &clean).unwrap();
        std::fs::write(&path, &flipped).unwrap();
        let expect = Engine::open_with_threads(&clean_path, 1).unwrap().run_batch(&forest_served());

        // The eager readers refuse the file outright.
        prop_assert!(StoreFile::from_bytes(&flipped).is_err());
        let mapped = StoreFile::open_with(&path, &ic_store::OpenOptions::mapped()).unwrap();
        prop_assert!(mapped.load().is_err(), "load() discharges at once");

        for touch in Touch::ALL {
            let engine = Engine::open_with_threads(&path, 1).expect("the open defers the check");
            prop_assert_eq!(&engine.run_batch(&forest_served()), &expect, "before {:?}", touch);
            let entries = engine.obs_registry().flat_entries();
            prop_assert_eq!(counter(&entries, "store.adjacency_checks"), 0.0);
            for attempt in 0..2 {
                let refused = touch.run(&engine, &dir);
                prop_assert!(refused.is_err(), "{:?} went through (attempt {})", touch, attempt);
            }
            prop_assert_eq!(&engine.run_batch(&forest_served()), &expect, "after {:?}", touch);
            prop_assert_eq!(engine.arenas_quarantined(), 0);
            let entries = engine.obs_registry().flat_entries();
            prop_assert_eq!(counter(&entries, "store.adjacency_checks"), 1.0, "{:?}", touch);
            prop_assert_eq!(counter(&entries, "store.adjacency_check_failures"), 1.0);
        }
        }
}

/// The clean side of the same split: the check runs once, on the first
/// operation that reads adjacency and not before, passes, and the batch
/// that paid for it says so.
#[test]
fn a_clean_mapped_store_pays_its_adjacency_check_once_on_first_touch() {
    let wg = owed_fixture();
    let dir = ScratchDir::new("store-owed-clean");
    let path = dir.join("clean.ics1");
    std::fs::write(&path, store_bytes_for(&wg, &[2])).unwrap();
    let fresh = Engine::with_threads(wg, 1);
    let options = BatchOptions::default();
    let checks = |engine: &Engine| {
        let entries = engine.obs_registry().flat_entries();
        (
            counter(&entries, "store.adjacency_checks"),
            counter(&entries, "store.adjacency_check_failures"),
            counter(&entries, "store.adjacency_check_ns.count"),
        )
    };
    // Submits and waits for every answer: counters are read after the jobs.
    let run = |engine: &Engine, queries: &[Query], trace: &Arc<ic_obs::Trace>| {
        let (tx, rx) = std::sync::mpsc::channel();
        let sink: AnswerSink =
            Arc::new(move |_, answers| answers.iter().for_each(|a| tx.send(a.clone()).unwrap()));
        engine.submit(queries, &options, Arc::clone(trace), sink);
        let mut got: Vec<_> = rx.iter().take(queries.len()).collect();
        got.sort_by_key(|&(idx, _)| idx);
        assert_eq!(got.len(), queries.len(), "every query is answered");
        got
    };
    for touch in Touch::ALL {
        let engine = Engine::open_with_threads(&path, 1).unwrap();
        let trace = Arc::new(ic_obs::Trace::new());
        run(&engine, &forest_served(), &trace);
        assert_eq!(checks(&engine), (0.0, 0.0, 0.0), "forest reads owe nothing");
        assert!(!trace.has(ic_obs::Tag::AdjacencyChecked));
        touch.run(&engine, &dir).expect("a clean store passes");
        assert_eq!(checks(&engine), (1.0, 0.0, 1.0), "{touch:?} paid the check");
        touch.run(&engine, &dir).expect("a clean store passes");
        assert_eq!(checks(&engine).0, 1.0, "the check never runs twice");
    }
    // The tag lands on the batch whose plan ran the check.
    let engine = Engine::open_with_threads(&path, 1).unwrap();
    let sweep = query_sweep(&[1, 2, 3]);
    let trace = Arc::new(ic_obs::Trace::new());
    let got = run(&engine, &sweep, &trace);
    assert!(trace.has(ic_obs::Tag::AdjacencyChecked));
    let again = Arc::new(ic_obs::Trace::new());
    run(&engine, &sweep, &again);
    assert!(!again.has(ic_obs::Tag::AdjacencyChecked));
    for ((q, x), (_, y)) in sweep.iter().zip(fresh.run_batch(&sweep)).zip(got) {
        let y = y.as_ref().as_ref().expect("valid query");
        assert_eq!(
            x.unwrap(),
            y.communities,
            "store-opened engine diverged on {q:?}"
        );
    }
}

/// The same contract behind the scatter-gather front and over TCP: a
/// shard store with a flipped adjacency byte opens, serves its forests,
/// and answers an adjacency-reading query with the typed error — on the
/// wire an `internal` error reply naming the corruption.
#[test]
fn sharded_and_served_stores_fail_closed_on_first_touch() {
    use ic_serve::{Client, ErrorKind, Outcome, Response, ServeConfig, Server};
    use ic_shard::ShardedEngine;
    let wg = owed_fixture();
    let dir = ScratchDir::new("store-owed-sharded");
    let paths = ic_store::shard::build_shard_stores(&wg, &[2], 1 << 20, &dir).unwrap();
    let clean = ShardedEngine::open_dir(&dir).unwrap();
    let options = BatchOptions::default();
    let expect = clean.run_batch_pinned(&forest_served(), &options).1;
    drop(clean);
    for path in &paths {
        let mut bytes = std::fs::read(path).unwrap();
        let range = section_range(&bytes, SectionKind::GraphTargets);
        bytes[range.start + range.len() / 2] ^= 0x10;
        std::fs::write(path, &bytes).unwrap();
    }

    let sharded = ShardedEngine::open_dir(&dir).expect("the open defers the check");
    let sum = Query::new(2, 3, Aggregation::Sum);
    assert_eq!(
        sharded.run_batch_pinned(&forest_served(), &options).1,
        expect
    );
    for _ in 0..2 {
        let got = sharded.run_batch_pinned(&[sum], &options).1;
        assert!(
            matches!(got[0], Err(EngineError::CorruptStore { .. })),
            "{:?}",
            got[0]
        );
    }
    assert_eq!(
        sharded.run_batch_pinned(&forest_served(), &options).1,
        expect
    );

    let server = Server::bind_backend(Arc::new(sharded), "127.0.0.1:0", ServeConfig::default());
    let server = server.unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.call(1, &sum).unwrap() {
        Response::Reply {
            outcome: Outcome::Error { kind, message },
            ..
        } => {
            assert_eq!(kind, ErrorKind::Internal);
            assert!(message.starts_with("corrupt store"), "{message}");
        }
        other => panic!("expected a typed error reply, got {other:?}"),
    }
    match client.call(2, &forest_served()[1]).unwrap() {
        Response::Reply {
            outcome: Outcome::Complete(communities),
            ..
        } => assert_eq!(communities, expect[1].as_ref().unwrap().communities),
        other => panic!("expected the forest-served answer, got {other:?}"),
    }
    let entries = server.stats_entries();
    assert_eq!(counter(&entries, "store.opens"), paths.len() as f64);
    assert_eq!(
        counter(&entries, "store.adjacency_checks"),
        paths.len() as f64
    );
    assert_eq!(
        counter(&entries, "store.adjacency_check_failures"),
        paths.len() as f64
    );
    drop(client);
    server.shutdown();
    server.join();
}

/// A store whose targets are patched to an asymmetric edge and then
/// **re-hashed** — section sum and header checksum both — passes every
/// integrity hash: only the structural CSR check can refuse it, at
/// `load()` and, for an engine, on first touch.
#[test]
fn a_rehashed_asymmetric_store_is_refused_by_the_structure_check() {
    let wg = owed_fixture();
    let clean = store_bytes_for(&wg, &[2]);

    // Redirect the last entry of some row u from its largest neighbour v
    // to v + 1: rows stay sorted, in bounds and loop-free, but (u, v + 1)
    // has no mirror.
    let n = wg.num_vertices() as u32;
    let (offsets, _) = wg.graph().csr_parts();
    let (u, v) = (0..n)
        .filter_map(|u| Some((u, *wg.graph().neighbors(u).last()?)))
        .find(|&(u, v)| v + 1 < n && v + 1 != u)
        .expect("some row can be redirected");
    let bytes = patched_and_rehashed(&clean, SectionKind::GraphTargets, |targets| {
        let entry = 4 * (offsets[u as usize + 1] - 1);
        assert_eq!(targets[entry..entry + 4], v.to_le_bytes());
        targets[entry..entry + 4].copy_from_slice(&(v + 1).to_le_bytes());
    });

    // Every hash agrees; the eager path gets as far as the CSR check.
    let eager = StoreFile::from_bytes(&bytes).expect("the envelope and checksum hold");
    assert!(matches!(eager.load(), Err(StoreError::Graph(_))));
    assert!(eager.verify_deep().is_err());

    let dir = ScratchDir::new("store-owed-rehashed");
    let path = dir.join("asymmetric.ics1");
    std::fs::write(&path, &bytes).unwrap();
    let mapped = StoreFile::open_with(&path, &ic_store::OpenOptions::mapped()).unwrap();
    assert!(mapped.is_lazy_verified());
    assert!(matches!(mapped.load(), Err(StoreError::Graph(_))));
    let engine = Engine::open_with_threads(&path, 1).expect("the open defers the check");
    let refused = Touch::ExactSum
        .run(&engine, &dir)
        .expect_err("only validate_csr can refuse");
    assert!(refused.contains("mirror"), "{refused}");
    assert_eq!(engine.arenas_quarantined(), 0);
}

/// Shard metas that agree on a `global_n` the id maps cannot cover —
/// re-hashed, so every integrity hash holds — fail `open_dir` closed,
/// before anything is sized by the declared number.
#[test]
fn a_shard_set_declaring_an_uncovered_global_graph_is_refused_before_allocating() {
    use ic_shard::ShardedEngine;
    let wg = owed_fixture();
    let dir = ScratchDir::new("store-owed-global-n");
    let paths = ic_store::shard::build_shard_stores(&wg, &[2], 1 << 20, &dir).unwrap();
    ShardedEngine::open_dir(&dir).expect("the clean shard set opens");
    for path in &paths {
        let clean = std::fs::read(path).unwrap();
        let bytes = patched_and_rehashed(&clean, SectionKind::ShardMeta, |meta| {
            meta[6 * 8..7 * 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        });
        std::fs::write(path, &bytes).unwrap();
    }
    match ShardedEngine::open_dir(&dir) {
        Err(StoreError::Corrupt { what }) => {
            let owned = format!("own {} vertices", wg.num_vertices());
            assert!(what.contains(&owned), "{what}");
            assert!(what.contains(&(1u64 << 40).to_string()), "{what}");
        }
        other => panic!(
            "expected a typed corruption error, got {:?}",
            other.map(|_| "an open engine")
        ),
    }
}

/// Each server's STATS carries the `store.*` counters of the store its
/// own engine opened: two engines in one process do not report each
/// other's opens, and the sections an owed adjacency check verifies
/// later are counted where the open was.
#[test]
fn stats_report_only_the_store_their_own_engine_opened() {
    use ic_serve::{ServeConfig, Server};
    let wg = owed_fixture();
    let dir = ScratchDir::new("store-owed-own-stats");
    let open = |name: &str| {
        let path = dir.join(name);
        std::fs::write(&path, store_bytes_for(&wg, &[2])).unwrap();
        Arc::new(Engine::open_with_threads(&path, 1).unwrap())
    };
    let engines = [open("first.ics1"), open("second.ics1")];
    let servers = engines
        .clone()
        .map(|engine| Server::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap());
    let before = servers.each_ref().map(Server::stats_entries);
    for entries in &before {
        assert_eq!(counter(entries, "store.opens"), 1.0);
        assert_eq!(counter(entries, "store.lazy_opens"), 1.0);
    }

    // The first engine reads adjacency: its two owed sections are hashed
    // now, and counted on its registry alone.
    assert!(engines[0].run_batch(&[Query::new(2, 3, Aggregation::Sum)])[0].is_ok());
    let sections = |entries: &[(String, f64)]| counter(entries, "store.lazy_verified_sections");
    let after = servers.each_ref().map(Server::stats_entries);
    assert_eq!(sections(&after[0]), sections(&before[0]) + 2.0);
    assert_eq!(sections(&after[1]), sections(&before[1]));

    for server in servers {
        server.shutdown();
        server.join();
    }
}

/// FNV-1a over every array of a forest, in [`ic_core::algo::IndexParts`]
/// field order: equal digests mean byte-identical `ICS1` forest sections.
fn forest_digest(forest: &ExtremumIndex) -> u64 {
    let p = forest.parts();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let u32s = |xs: &[u32]| xs.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
    eat(&(p.k as u64).to_le_bytes());
    eat(&[p.extremum as u8]);
    eat(&(p.num_vertices as u64).to_le_bytes());
    let values: Vec<u8> = p
        .values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    eat(&values);
    for xs in [
        p.event_vertex,
        p.parent,
        p.size,
        p.batch_offsets,
        p.batch_vertices,
        p.child_offsets,
        p.child_ids,
        p.ranked,
        p.vertex_node,
    ] {
        eat(&u32s(xs));
    }
    h
}

/// Forest digests at k ∈ {2, 4, 6, 8, 10}, both directions, of Figure 1,
/// the quick `youtube` analog and that graph under {1, 2, 3} weights
/// (value ties at every cut), as `(graph, k, min, max)`. `verify_deep`
/// and every parity suite compare a forest against the same code's fresh
/// build, so a kernel that reordered batches, children or claims would
/// pass them all; these were recorded from the two-phase reverse pass
/// and pin the bytes any later kernel must reproduce.
const GOLDEN_FORESTS: &[(&str, usize, u64, u64)] = &[
    ("figure1", 2, 0x875d68b5dfd0d661, 0x20f16ee9dcefe9ca),
    ("figure1", 4, 0xd97d09656ba78f2c, 0x60caef50614f72cf),
    ("figure1", 6, 0x2fcbfc3224c1b4a6, 0x32d33ead45bf4bd1),
    ("figure1", 8, 0x8057fd661df945d0, 0xc336b17efcd07f73),
    ("figure1", 10, 0x6a72d30df7a1db4a, 0x0e05a8f563998565),
    ("youtube", 2, 0x0e104eafd6e15619, 0xeb4c75e5eba3b46d),
    ("youtube", 4, 0x6ec14e3b845a80f3, 0xd4c61847bc806ef3),
    ("youtube", 6, 0x87e3dfb93def450e, 0x3724b0efc01ba415),
    ("youtube", 8, 0x7e5d034877c7db11, 0xd3627e9da04b2c5b),
    ("youtube", 10, 0xd7f36efcf7b8e848, 0x171285b956159e4a),
    ("ties", 2, 0x0325674111510b7d, 0x6ba02120ac2d1cae),
    ("ties", 4, 0x9efafb3d565d5680, 0x36620b03f0334a2d),
    ("ties", 6, 0xac11d813306be80d, 0xbaeae3c10a0a91cb),
    ("ties", 8, 0x65178acf742d2363, 0x58192f3991e3b7e4),
    ("ties", 10, 0x45eca2abfe52af5b, 0x20a581d9fad14580),
];

#[test]
fn forests_match_their_golden_digests() {
    let youtube = ic_gen::datasets::by_name(ic_gen::datasets::Profile::Quick, "youtube")
        .expect("youtube is registered")
        .generate_weighted();
    let ties: Vec<f64> = (0..youtube.num_vertices())
        .map(|v| (1 + (v * 7 + v / 3) % 3) as f64)
        .collect();
    let ties = WeightedGraph::new(youtube.graph().clone(), ties).unwrap();
    let graphs = [
        ("figure1", ic_core::figure1::figure1()),
        ("youtube", youtube),
        ("ties", ties),
    ];
    let mut got = Vec::new();
    for (name, wg) in &graphs {
        for k in [2usize, 4, 6, 8, 10] {
            let digest = |dir| forest_digest(&ExtremumIndex::build(wg, k, dir));
            got.push((*name, k, digest(Extremum::Min), digest(Extremum::Max)));
        }
    }
    let table: String = got
        .iter()
        .map(|(name, k, min, max)| format!("    (\"{name}\", {k}, {min:#018x}, {max:#018x}),\n"))
        .collect();
    assert_eq!(got, GOLDEN_FORESTS, "digests now:\n{table}");
}
