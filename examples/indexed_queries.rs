//! Extensions tour: engine-served extremum forests and batched queries.
//!
//! ```text
//! cargo run -p ic-bench --release --example indexed_queries
//! ```
//!
//! Since PR 5 the extremum community forest is wired into the engine:
//! every exact-tie `min`/`max` query is index-served from the forest
//! memoized on the engine's snapshot — built once, shared by every
//! batch, persisted by `Engine::persist` (see `store_serving.rs`).

use ic_core::algo::ExtremumIndex;
use ic_core::{Aggregation, Extremum};
use ic_engine::{Engine, Query};
use ic_gen::datasets::{by_name, Profile};
use std::time::Instant;

fn main() {
    let spec = by_name(Profile::Quick, "email").unwrap();
    let wg = spec.generate_weighted();
    let k = 6;

    // --- 1. The engine serves min queries from its community forest --
    let engine = Engine::new(wg.clone());
    let sweep: Vec<Query> = [1usize, 5, 10, 20]
        .iter()
        .map(|&r| Query::new(k, r, Aggregation::Min))
        .chain(std::iter::once(Query::new(k, 5, Aggregation::Max)))
        .collect();
    let stats = engine.plan(&sweep).stats;
    let t = Instant::now();
    let batched = engine.run_batch(&sweep);
    println!(
        "engine answered an r-sweep of {} queries in {:.1?}: {} index-routed \
         (forest built once on first touch), {} solver runs",
        sweep.len(),
        t.elapsed(),
        stats.index_routed,
        stats.solver_runs,
    );
    let top = batched[1].as_ref().unwrap().clone();

    // Repeat sweeps are output-sensitive: the forest is already on the
    // snapshot, so no peel ever runs again at this (k, direction).
    engine.clear_result_cache(); // force live index serves, not memos
    let t = Instant::now();
    let again = engine.run_batch(&sweep);
    println!(
        "repeat sweep in {:.1?} (index-served; same bits: {})",
        t.elapsed(),
        again[1].as_ref().unwrap() == &top
    );

    // The same answers as the one-query-at-a-time peel, bit for bit.
    let t = Instant::now();
    let online = Query::new(k, 5, Aggregation::Min).solve(&wg).unwrap();
    println!(
        "online peel gives the same answer: {} ({:.1?})",
        online == top,
        t.elapsed()
    );
    println!("\ntop-5 min communities at k = {k}:");
    for (i, c) in top.iter().enumerate() {
        println!("  #{} value {:.6}, {} members", i + 1, c.value, c.len());
    }

    // --- 1b. The forest doubles as a containment index ---------------
    // `ExtremumIndex::cached` hands back the engine's own forest (the
    // same one the batch above was served from).
    let index = ExtremumIndex::cached(&engine.snapshot(), k, Extremum::Min);
    println!(
        "\nforest at k = {k}: {} nested communities ({} indexed vertices)",
        index.len(),
        index.num_vertices()
    );
    let heaviest = (0..wg.num_vertices() as u32)
        .max_by(|&a, &b| wg.weight(a).total_cmp(&wg.weight(b)))
        .unwrap();
    let chain = index.chain_of(heaviest);
    println!(
        "vertex {heaviest} (weight {:.6}) sits in {} nested communities:",
        wg.weight(heaviest),
        chain.len()
    );
    for (value, size) in chain.iter().take(5) {
        println!("  value {value:.6}, size {size}");
    }
}
