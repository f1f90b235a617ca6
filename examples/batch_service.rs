//! A query service on the ic-serve front end: mixed multi-user traffic
//! over real TCP sockets against one shared engine.
//!
//! ```text
//! cargo run -p ic-bench --release --example batch_service
//! ```
//!
//! Simulates three ticks of a query service: each tick, four clients
//! pipeline mixed queries (min/max/sum families, approximate sum,
//! size-constrained avg) over their own connections.
//! Server-side **admission batching** coalesces the concurrent arrivals
//! into a handful of `Engine::run_batch_pinned` calls, so the engine
//! still gets the batch-wide planning — dedup, min/max r-family
//! merging, k-grouping — that a one-query-per-request front end would
//! forfeit.
//!
//! The shutdown path is checked: every in-flight reply must be flushed
//! and accounted for before the server acks the drain.

use ic_core::Aggregation;
use ic_engine::{BatchOptions, Engine, Query};
use ic_gen::datasets::{by_name, Profile};
use ic_serve::{Client, Outcome, Response, ServeConfig, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;
const QUERIES_PER_TICK: usize = 64;

/// What the clients ask, dealt round-robin: `r`-families of min/max,
/// exact and approximate sum, size-bounded avg at every `k` — repeats
/// and families on purpose, the redundancy batch-wide planning exploits.
fn deck(k_grid: &[usize]) -> Vec<Query> {
    let mut out = Vec::new();
    for &k in k_grid {
        for r in [5, 10, 20] {
            out.push(Query::new(k, r, Aggregation::Min));
            out.push(Query::new(k, r, Aggregation::Max));
        }
        out.extend([
            Query::new(k, 5, Aggregation::Sum),
            Query::new(k, 5, Aggregation::Sum).approx(0.1),
            Query::new(k, 5, Aggregation::SumSurplus { alpha: 0.5 }),
            Query::new(k, 5, Aggregation::Average).size_bound(20, true),
        ]);
    }
    out
}

fn main() {
    let spec = by_name(Profile::Quick, "email").unwrap();
    let wg = spec.generate_weighted();
    println!(
        "serving {} ({} vertices, {} edges)",
        spec.name,
        wg.num_vertices(),
        wg.num_edges()
    );

    let engine = Arc::new(Engine::new(wg));
    let server = Server::bind(engine.clone(), "127.0.0.1:0", ServeConfig::default())
        .expect("bind an ephemeral loopback port");
    let addr = server.local_addr();
    println!("ic-serve listening on {addr} ({CLIENTS} clients per tick)\n");

    let deck = deck(spec.k_grid);

    let mut served_total = 0.0;
    let mut expected_replies = 0u64;
    for tick in 0..3usize {
        let batch: Vec<Query> = deck
            .iter()
            .cycle()
            .skip(tick * 7)
            .take(QUERIES_PER_TICK)
            .copied()
            .collect();
        expected_replies += batch.len() as u64;

        // Four clients, each pipelining its slice of the tick over its
        // own connection; the server coalesces across all of them.
        let t = Instant::now();
        let per_client = batch.len() / CLIENTS;
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let slice: Vec<Query> = batch[c * per_client..(c + 1) * per_client].to_vec();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for (i, q) in slice.iter().enumerate() {
                        let id = (c * per_client + i) as u64;
                        client.send(id, q).expect("send query");
                    }
                    let t0 = Instant::now();
                    let mut first = None;
                    let mut complete = 0usize;
                    let mut other = 0usize;
                    for _ in 0..slice.len() {
                        match client.recv().expect("receive reply") {
                            Response::Reply {
                                id,
                                outcome: Outcome::Complete(communities),
                                ..
                            } => {
                                complete += 1;
                                if first.is_none() {
                                    let top = communities.first().map_or(f64::NAN, |c| c.value);
                                    first = Some((id, top, t0.elapsed()));
                                }
                            }
                            _ => other += 1,
                        }
                    }
                    (first, complete, other)
                })
            })
            .collect();
        let mut complete = 0usize;
        let mut other = 0usize;
        let mut first = None;
        for w in workers {
            let (f, c, o) = w.join().expect("client thread");
            complete += c;
            other += o;
            if first.is_none() {
                first = f;
            }
        }
        let served = t.elapsed();
        served_total += served.as_secs_f64();

        let (fi, fv, ft) = first.expect("at least one complete reply");
        println!(
            "tick {tick}: {} queries over {CLIENTS} connections -> {complete} complete, \
             {other} degraded/error; served {served:.1?} \
             (first reply: query #{fi} value {fv:.6} after {ft:.1?})",
            batch.len(),
        );
    }

    let stats = server.stats();
    println!(
        "\n3 ticks served in {served_total:.3}s; {} queries admitted in {} engine batches \
         (largest {})",
        stats.admitted, stats.batches, stats.largest_batch
    );
    assert_eq!(
        stats.admitted, expected_replies,
        "every query of every tick was admitted (none shed)"
    );

    // Checked final flush: park one last burst in the admission window,
    // then drain. The contract is flush-then-ack — all replies must
    // come back before the ShutdownAck, none dropped.
    let mut closer = Client::connect(addr).expect("connect");
    let finale = &deck[..8];
    for (i, q) in finale.iter().enumerate() {
        closer.send(i as u64, q).expect("send final burst");
    }
    let tail = closer.shutdown_and_drain().expect("drain must ack");
    let flushed = tail
        .iter()
        .filter(|r| matches!(r, Response::Reply { .. }))
        .count();
    assert_eq!(
        flushed,
        finale.len(),
        "drain flushed every in-flight reply before acking"
    );
    server.join();
    println!(
        "drain: {} in-flight replies flushed before the ack; server joined clean",
        flushed
    );

    // Degraded delivery: a deadline-armed query answers with the
    // rank prefix its solver had proven when the budget ran out, tagged
    // degraded, instead of making the client wait for the full list.
    let q = Query::new(spec.k_grid[0], 20, Aggregation::Sum).deadline(Duration::from_micros(500));
    let t = Instant::now();
    match &engine.run_batch_with(&[q], &BatchOptions::default())[0] {
        Ok(answer) => println!(
            "\narmed {q:?}: {} communities ({:?}) after {:.1?}",
            answer.communities.len(),
            answer.status,
            t.elapsed()
        ),
        Err(e) => println!("\narmed {q:?}: nothing proven in the budget ({e})"),
    }
}
