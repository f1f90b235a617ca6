//! `Engine::open_with_options` contract (PR 8 satellite): the
//! [`OpenOptions`] knobs — backing choice and read-retry policy —
//! change *how* a store is opened, never *what* it answers.

use ic_core::{Aggregation, Query};
use ic_engine::{BatchOptions, Engine, OpenOptions};
use ic_gen::{chung_lu, pareto_weights, GraphSeed};
use ic_graph::WeightedGraph;
use ic_store::{StoreBuilder, StoreError};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn store_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ic-engine-openopts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.ics1"))
}

fn write_store(tag: &str) -> PathBuf {
    let g = chung_lu(300, 900, 2.5, GraphSeed(5));
    let w = pareto_weights(300, 1.5, GraphSeed(6));
    let wg = WeightedGraph::new(g, w).unwrap();
    let path = store_path(tag);
    StoreBuilder::new(&wg).write_to(&path).unwrap();
    path
}

fn answers(engine: &Engine) -> Vec<String> {
    let batch: Vec<Query> = (1..=3)
        .flat_map(|k| {
            [
                Query::new(k, 4, Aggregation::Min),
                Query::new(k, 4, Aggregation::Sum),
            ]
        })
        .collect();
    engine
        .run_batch_pinned(&batch, &BatchOptions::default())
        .1
        .into_iter()
        .map(|r| format!("{:?}", r.expect("valid query answers")))
        .collect()
}

/// Mapped (the default) and owned-buffer opens serve identical answers.
#[test]
fn mapped_and_owned_backing_answer_identically() {
    let path = write_store("parity");
    let mapped = Engine::open_with_options(&path, &OpenOptions::default()).unwrap();
    let owned = Engine::open_with_options(&path, &OpenOptions::default().owned_buffer()).unwrap();
    assert_eq!(answers(&mapped), answers(&owned));
}

/// The builder composes: threads clamp to at least one worker, and the
/// retry policy rides along without changing the result.
#[test]
fn builder_knobs_compose() {
    let path = write_store("knobs");
    let options = OpenOptions::default()
        .threads(0) // clamps to 1
        .read_retries(3, Duration::from_millis(1))
        .owned_buffer();
    let engine = Engine::open_with_options(&path, &options).unwrap();
    let baseline = Engine::open_with_options(&path, &OpenOptions::default()).unwrap();
    assert_eq!(answers(&engine), answers(&baseline));
}

/// Retries are for *transient* I/O only: a missing file is a hard
/// error and must fail on the first attempt — a generous retry policy
/// must not turn "no such file" into a multi-backoff stall.
#[test]
fn hard_errors_are_not_retried() {
    let missing = store_path("definitely-absent");
    let options = OpenOptions::default().read_retries(10, Duration::from_millis(200));
    let t = Instant::now();
    let err = match Engine::open_with_options(&missing, &options) {
        Err(e) => e,
        Ok(_) => panic!("opened a nonexistent store"),
    };
    assert!(
        t.elapsed() < Duration::from_millis(200),
        "a hard error burned backoff time: {:?}",
        t.elapsed()
    );
    assert!(matches!(err, StoreError::Io(_)), "wrong class: {err}");
}

/// Corruption likewise fails closed immediately, with the typed error.
#[test]
fn corruption_is_not_retried() {
    let path = write_store("corrupt");
    let mut bytes = std::fs::read(&path).unwrap();
    // Inside the weights, the last array of this bare-graph store before
    // its section sums: a byte the open itself verifies. (A flip inside
    // the adjacency arrays is deferred to their first read — never
    // retried either; `tests/store.rs` holds that side.)
    let in_weights = bytes.len() - 200;
    bytes[in_weights] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let options = OpenOptions::default().read_retries(10, Duration::from_millis(200));
    let t = Instant::now();
    let err = match Engine::open_with_options(&path, &options) {
        Err(e) => e,
        Ok(_) => panic!("opened a corrupted store"),
    };
    assert!(
        t.elapsed() < Duration::from_millis(200),
        "corruption burned backoff time: {:?}",
        t.elapsed()
    );
    assert!(
        matches!(err, StoreError::Corrupt { .. }),
        "wrong class: {err}"
    );
}
