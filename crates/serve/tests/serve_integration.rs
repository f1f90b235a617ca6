//! End-to-end serving semantics over real sockets: multi-client
//! bit-identity with solo `run_batch`, load shedding, epoch tagging
//! across live graph updates, and the flush-before-ack drain ordering.

use ic_core::{Aggregation, Community, Query};
use ic_engine::{BatchOptions, EdgeUpdate, Engine};
use ic_serve::{
    protocol, Client, Outcome, Request, Response, ServeConfig, Server, ShedReason, WireQuery,
};
use ic_shard::ShardedEngine;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

fn email_graph() -> ic_graph::WeightedGraph {
    ic_gen::datasets::by_name(ic_gen::datasets::Profile::Quick, "email")
        .expect("email analog exists")
        .generate_weighted()
}

fn query_mix() -> Vec<Query> {
    vec![
        Query::new(4, 3, Aggregation::Min),
        Query::new(4, 3, Aggregation::Max),
        Query::new(4, 3, Aggregation::Sum),
        Query::new(6, 2, Aggregation::Sum).approx(0.2),
        Query::new(4, 2, Aggregation::SumSurplus { alpha: 1.0 }),
        Query::new(4, 2, Aggregation::Average).size_bound(8, true),
        Query::new(4, 1, Aggregation::TopTSum { t: 3 }).size_bound(6, true),
    ]
}

/// A front over `email_graph()`'s shard stores, two workers per shard
/// engine, and the directory to remove afterwards.
fn sharded_email(tag: &str) -> (ShardedEngine, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("ic-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let built = ic_store::shard::build_shard_stores(&email_graph(), &[2, 4], 1000, &dir).unwrap();
    (
        ShardedEngine::open_dir_with(&dir, 2 * built.len()).unwrap(),
        dir,
    )
}

/// An exact-sum search ≈ 15× as long as the forest build and read of
/// `Query::new(4, 4, Min)` on [`email_graph`]: the batch mate a fast
/// reply overtakes, and the job that holds a queue slot.
fn slow_sum() -> Query {
    Query::new(4, 800, Aggregation::Sum)
}

fn reply_communities(response: &Response) -> &[Community] {
    match response {
        Response::Reply {
            outcome: Outcome::Complete(communities),
            ..
        } => communities,
        other => panic!("expected a complete reply, got {other:?}"),
    }
}

/// The headline correctness claim: answers served through admission
/// batching — multiple clients, interleaved arrivals, coalesced engine
/// batches — are bit-identical to a solo `run_batch` on an identical
/// engine.
#[test]
fn multi_client_answers_are_bit_identical_to_solo_run_batch() {
    let wg = email_graph();
    let queries = query_mix();

    // Solo reference on its own engine (no shared cache effects).
    let reference: Vec<Vec<Community>> = {
        let solo = Engine::with_threads(wg.clone(), 2);
        solo.run_batch_with(&queries, &BatchOptions::default())
            .into_iter()
            .map(|r| r.expect("reference query answers").communities)
            .collect()
    };

    let engine = Arc::new(Engine::with_threads(wg, 4));
    let server = Server::bind(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            // A wide window makes coalescing deterministic for the stats
            // assertion below.
            admission_window: Duration::from_millis(20),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let workers: Vec<_> = (0..4)
        .map(|worker| {
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Fire the whole mix pipelined, then collect by id, so
                // queries from all clients coalesce server-side.
                for (i, q) in queries.iter().enumerate() {
                    client.send((worker * 100 + i) as u64, q).unwrap();
                }
                let mut got: Vec<(usize, Vec<Community>, u64)> = Vec::new();
                for i in 0..queries.len() {
                    let id = (worker * 100 + i) as u64;
                    let response = client.wait_for(id).unwrap();
                    let epoch = match &response {
                        Response::Reply { epoch, .. } => *epoch,
                        other => panic!("expected a reply, got {other:?}"),
                    };
                    got.push((i, reply_communities(&response).to_vec(), epoch));
                }
                got
            })
        })
        .collect();

    for worker in workers {
        for (i, communities, epoch) in worker.join().unwrap() {
            assert_eq!(epoch, 0, "no updates ran; everything serves epoch 0");
            assert_eq!(
                communities, reference[i],
                "served answer for query {i} must be bit-identical to solo run_batch"
            );
        }
    }

    let stats = server.stats();
    assert_eq!(stats.admitted, 28, "4 clients x 7 queries all admitted");
    assert!(
        stats.batches < stats.admitted,
        "admission batching must coalesce at least some queries \
         (got {} batches for {} queries)",
        stats.batches,
        stats.admitted
    );

    server.shutdown();
    server.join();
}

/// The linger follows the measured flush service time: the very first
/// query buys the whole window (nothing has been measured yet), but once
/// flushes of a cached query have been seen to take microseconds, a lone
/// client stops paying for company that cannot amortize anything.
#[test]
fn lone_client_stops_paying_the_window_once_flushes_are_fast() {
    let window = Duration::from_millis(20);
    let engine = Arc::new(Engine::with_threads(ic_core::figure1::figure1(), 2));
    let server = Server::bind(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            admission_window: window,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let query = Query::new(2, 2, Aggregation::Sum);
    let mut timed_call = |id: u64| {
        let t0 = std::time::Instant::now();
        let _ = reply_communities(&client.call(id, &query).unwrap());
        t0.elapsed()
    };

    assert!(
        timed_call(0) >= window,
        "the first call is admitted before any flush was measured and waits out the window"
    );
    // Warm-up: the answer is cached after the first call, and every
    // flush pulls the service-time estimate further down.
    for id in 1..=30 {
        timed_call(id);
    }
    let mut round_trips: Vec<Duration> = (31..=51).map(&mut timed_call).collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "a lone client on a cached query must not idle in a {window:?} window; \
         median round trip {median:?}"
    );

    server.shutdown();
    server.join();
}

/// The other side of the same rule: while flushes take far longer than
/// the window (slow exact-sum queries), the linger stays at the window
/// and pipelined queries from several connections still land in one
/// batch.
#[test]
fn slow_flushes_keep_full_window_coalescing() {
    let engine = Arc::new(Engine::with_threads(email_graph(), 4));
    let server = Server::bind(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            admission_window: Duration::from_millis(40),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // One exact-sum query alone: a flush several windows long (≈ 150 ms
    // optimized, seconds unoptimized), which the batcher measures.
    let mut clients: Vec<Client> = (0..3).map(|_| Client::connect(addr).unwrap()).collect();
    let _ = reply_communities(
        &clients[0]
            .call(0, &Query::new(4, 3, Aggregation::Sum))
            .unwrap(),
    );
    assert_eq!(server.stats().batches, 1);

    // Nine more, three per connection, none of them cached. Were the
    // linger to follow anything but the (slow) flushes it would end
    // before the ninth arrived.
    let per_client = 3;
    let burst = clients.len() * per_client;
    for (c, client) in clients.iter_mut().enumerate() {
        for i in 0..per_client {
            let id = (c * per_client + i) as u64;
            let r = 10 + id as usize; // distinct keys, all ≠ r = 3
            client
                .send(id, &Query::new(4, r, Aggregation::Sum))
                .unwrap();
        }
    }
    for (c, client) in clients.iter_mut().enumerate() {
        for i in 0..per_client {
            let response = client.wait_for((c * per_client + i) as u64).unwrap();
            let _ = reply_communities(&response);
        }
    }
    let stats = server.stats();
    assert_eq!(stats.largest_batch, burst as u64, "{stats:?}");
    assert_eq!(stats.batches, 2, "{stats:?}");

    server.shutdown();
    server.join();
}

fn id_epoch(response: &Response) -> (u64, u64) {
    match response {
        Response::Reply { id, epoch, .. } => (*id, *epoch),
        other => panic!("expected a reply, got {other:?}"),
    }
}

/// Replies leave as their job ends: in one admission batch, a forest
/// read sent second is answered before the exact-sum search sent first,
/// by an engine and by a sharded front alike.
#[test]
fn a_fast_reply_overtakes_its_slow_batch_mate() {
    let wg = email_graph();
    let (slow, fast) = (slow_sum(), Query::new(4, 4, Aggregation::Min));
    let solo = Engine::with_threads(wg.clone(), 2).run_batch(&[slow, fast]);
    let config = ServeConfig {
        admission_window: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let (sharded, dir) = sharded_email("overtake");
    let engine = Server::bind(Arc::new(Engine::with_threads(wg, 2)), "127.0.0.1:0", config);
    let sharded = Server::bind_backend(Arc::new(sharded), "127.0.0.1:0", config);
    for server in [engine, sharded] {
        let server = server.unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.send(1, &slow).unwrap();
        client.send(2, &fast).unwrap();
        let (first, second) = (client.recv().unwrap(), client.recv().unwrap());
        assert_eq!(server.stats().batches, 1, "both queries share one batch");
        let first_id = id_epoch(&first).0;
        assert_eq!(first_id, 2, "the forest read must not wait for the search");
        assert_eq!(reply_communities(&first), solo[1].as_ref().unwrap());
        assert_eq!(reply_communities(&second), solo[0].as_ref().unwrap());
        server.shutdown();
        server.join();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A batch admitted while an older one still runs is planned against the
/// snapshot serving at its own admission, and answered before the older
/// batch ends; each reply carries the epoch it was computed under (the
/// engine takes an update in between; the sharded front is read-only).
#[test]
fn a_later_batch_overtakes_an_in_flight_one_under_its_own_epoch() {
    let wg = email_graph();
    let (slow, fast) = (slow_sum(), Query::new(4, 4, Aggregation::Min));
    let before = Engine::with_threads(wg.clone(), 2).run_batch(&[slow, fast]);
    let (u, v) = wg.graph().edges().next().expect("the graph has an edge");
    let update = [EdgeUpdate::Remove { u, v }];
    let after = Engine::with_threads(wg.clone(), 2);
    after.apply(&update);
    let after = after.run_batch(&[fast]);
    let engine = Arc::new(Engine::with_threads(wg, 2));
    let (sharded, dir) = sharded_email("later");
    let config = ServeConfig::default();
    let served = Server::bind(engine.clone(), "127.0.0.1:0", config);
    let sharded = Server::bind_backend(Arc::new(sharded), "127.0.0.1:0", config);
    // The engine takes the update, so its later batch runs under epoch 1.
    for (server, fast_epoch, fast_want) in [(served, 1, &after[0]), (sharded, 0, &before[1])] {
        let server = server.unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.send(1, &slow).unwrap();
        while server.stats().batches == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        if fast_epoch == 1 {
            assert_eq!(engine.apply(&update).index(), 1);
        }
        client.send(2, &fast).unwrap();
        let response = client.recv().unwrap();
        assert_eq!(id_epoch(&response), (2, fast_epoch), "later batch first");
        assert_eq!(reply_communities(&response), fast_want.as_ref().unwrap());
        let response = client.recv().unwrap();
        assert_eq!(id_epoch(&response), (1, 0));
        assert_eq!(reply_communities(&response), before[0].as_ref().unwrap());
        assert_eq!(server.stats().batches, 2);
        server.shutdown();
        server.join();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Replies are tagged with the epoch whose snapshot served them, so a
/// client can correlate in-flight answers with live graph updates.
#[test]
fn replies_are_tagged_with_the_serving_epoch_across_updates() {
    let engine = Arc::new(Engine::with_threads(ic_core::figure1::figure1(), 2));
    let server = Server::bind(engine.clone(), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let query = Query::new(2, 2, Aggregation::Sum);

    let before = client.call(1, &query).unwrap();
    assert_eq!(id_epoch(&before).1, 0);
    let answer_before = reply_communities(&before).to_vec();

    // Live update: remove the v1–v2 edge; v1 (weight 62) drops out of
    // the 2-core, so the top sum community changes.
    let epoch = engine.apply(&[EdgeUpdate::Remove { u: 0, v: 1 }]);
    assert_eq!(epoch.index(), 1);

    let after = client.call(2, &query).unwrap();
    assert_eq!(
        id_epoch(&after).1,
        1,
        "replies after apply carry the new epoch"
    );
    assert_ne!(
        reply_communities(&after),
        &answer_before[..],
        "the update changed the graph, so the answer changes too"
    );

    client.shutdown_and_drain().unwrap();
    server.join();
}

/// Backpressure: a query hitting a full admission queue is shed with a
/// typed `Overloaded(QueueFull)` reply, and the admitted query still
/// completes.
#[test]
fn full_admission_queue_sheds_with_a_typed_reply() {
    let engine = Arc::new(Engine::with_threads(ic_core::figure1::figure1(), 2));
    let server = Server::bind(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            // One slot and a long window: the first query parks in the
            // queue for the whole window, so the second deterministically
            // finds it full.
            admission_window: Duration::from_millis(300),
            queue_capacity: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let query = Query::new(2, 2, Aggregation::Sum);
    client.send(1, &query).unwrap();
    // Give the first query time to land in the queue.
    std::thread::sleep(Duration::from_millis(50));
    client.send(2, &query).unwrap();
    match client.wait_for(2).unwrap() {
        Response::Overloaded {
            id: 2,
            reason: ShedReason::QueueFull,
        } => {}
        other => panic!("expected QueueFull shedding, got {other:?}"),
    }
    match client.wait_for(1).unwrap() {
        Response::Reply {
            id: 1,
            outcome: Outcome::Complete(_),
            ..
        } => {}
        other => panic!("expected the admitted query to complete, got {other:?}"),
    }
    assert_eq!(server.stats().shed_queue_full, 1);
    // The legacy stats view is a projection of the metrics registry;
    // the flat STATS surface must agree with it.
    let registry_shed = server
        .stats_entries()
        .iter()
        .find(|(name, _)| name == "serve.shed.queue_full")
        .map(|&(_, v)| v);
    assert_eq!(registry_shed, Some(1.0));
    server.shutdown();
    server.join();
}

/// Backpressure counts every query admitted and not yet answered, not
/// just the ones still queued: batches overlap, so the queue's length
/// alone would not bound the work in flight.
#[test]
fn backpressure_counts_queries_in_flight() {
    let engine = Arc::new(Engine::with_threads(email_graph(), 2));
    let server = Server::bind(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            queue_capacity: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.send(1, &slow_sum()).unwrap();
    // The search has left the queue for the engine.
    while server.stats().batches == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    client.send(2, &Query::new(4, 1, Aggregation::Max)).unwrap();
    match client.wait_for(2).unwrap() {
        Response::Overloaded {
            id: 2,
            reason: ShedReason::QueueFull,
        } => {}
        other => panic!("expected QueueFull shedding, got {other:?}"),
    }
    let _ = reply_communities(&client.wait_for(1).unwrap());
    server.shutdown();
    server.join();
}

/// The drain contract: a shutdown request flushes every admitted query
/// and the ShutdownAck arrives strictly after the tail replies.
#[test]
fn shutdown_drains_all_in_flight_replies_before_acking() {
    let engine = Arc::new(Engine::with_threads(ic_core::figure1::figure1(), 2));
    let server = Server::bind(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            // A long window guarantees the burst is still queued (not
            // yet flushed) when the shutdown frame lands.
            admission_window: Duration::from_millis(200),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let queries = [
        Query::new(2, 2, Aggregation::Sum),
        Query::new(2, 1, Aggregation::Min),
        Query::new(2, 1, Aggregation::Max),
        Query::new(2, 2, Aggregation::SumSurplus { alpha: 0.5 }),
    ];
    for (i, q) in queries.iter().enumerate() {
        client.send(i as u64, q).unwrap();
    }
    // Immediate shutdown: all four queries are still in the admission
    // window. Every one of them must still be answered before the ack.
    let tail = client.shutdown_and_drain().unwrap();
    let mut answered: Vec<u64> = tail
        .iter()
        .map(|response| match response {
            Response::Reply {
                id,
                outcome: Outcome::Complete(_),
                ..
            } => *id,
            other => panic!("expected complete replies in the tail, got {other:?}"),
        })
        .collect();
    answered.sort_unstable();
    assert_eq!(
        answered,
        vec![0, 1, 2, 3],
        "no admitted query may be dropped by drain"
    );

    // The ack implies a fully flushed server: join must not hang.
    server.join();
}

/// Queries sent while the server is draining are shed with
/// `Overloaded(Draining)`, not silently dropped.
#[test]
fn queries_during_drain_are_shed_with_draining_reason() {
    let engine = Arc::new(Engine::with_threads(ic_core::figure1::figure1(), 2));
    let server = Server::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut victim = Client::connect(addr).unwrap();
    // Drain initiated server-side (operator path).
    server.shutdown();
    // The victim's query races the drain; it must get a typed reply or
    // a clean close — never a silent hang. The send itself may also hit
    // a closed socket, which is an acceptable (visible) outcome.
    if victim.send(9, &Query::new(2, 2, Aggregation::Sum)).is_ok() {
        match victim.wait_for(9) {
            Ok(Response::Overloaded {
                id: 9,
                reason: ShedReason::Draining,
            }) => {}
            Ok(Response::ShutdownAck) => {}
            Err(ic_serve::ClientError::ConnectionClosed) => {}
            // The server may close (or reset) the socket mid-race; any
            // I/O error is a visible outcome, not a hang.
            Err(ic_serve::ClientError::Protocol(ic_serve::ProtocolError::Io(_))) => {}
            other => panic!("expected Draining shed, ack, or clean close; got {other:?}"),
        }
    }
    server.join();
}

/// A drain wakes the blocked accept thread through the loopback address
/// even when the listener is bound to the wildcard, so `join` returns.
#[test]
fn a_wildcard_bound_server_drains_promptly() {
    let engine = Arc::new(Engine::with_threads(ic_core::figure1::figure1(), 1));
    let server = Server::bind(engine, "0.0.0.0:0", ServeConfig::default()).unwrap();
    assert!(server.local_addr().ip().is_unspecified());
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let started = std::time::Instant::now();
    std::thread::spawn(move || {
        server.shutdown();
        server.join();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(1))
        .expect("join returns within a second of shutdown");
    assert!(started.elapsed() < Duration::from_secs(1));
}

/// A JSON-lines client holding half a line cannot keep a drain waiting:
/// like half a binary frame, the silent half line is cut as truncated
/// after the mid-frame stall cap (≈ 5 s) and answered with a protocol
/// error, and `join` returns.
#[test]
fn a_stalled_half_json_line_does_not_block_the_drain() {
    use std::io::{BufRead, Write};

    let engine = Arc::new(Engine::with_threads(ic_core::figure1::figure1(), 1));
    let server = Server::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    // One whole request first: its reply proves the connection is being
    // served in JSON-lines mode before the drain starts.
    writeln!(writer, r#"{{"op":"stats","id":1}}"#).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""status":"stats""#), "got: {line}");
    writer.write_all(br#"{"id": 1, "k": 2"#).unwrap();

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let drain = std::thread::spawn(move || {
        server.shutdown();
        server.join();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(15))
        .expect("join returns while the client still holds half a line");
    drain.join().unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(
        line,
        "{\"status\":\"protocol_error\",\"message\":\"stream ended mid-frame\"}\n"
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "then it closes");
}

/// What a rolling restart pays the server for: 20 × (bind → connect →
/// one query → drop the client → shutdown → join). Nothing on that path
/// waits out a poll interval — the accept thread serves the connection
/// when it arrives and leaves when the drain starts — so the loop takes
/// a few milliseconds per iteration. (With a 25 ms accept poll it took
/// ≈ 37 ms per iteration, 740 ms in all.) The wake-up connection a drain
/// makes is never served: `serve.connections` counts the one client.
#[test]
fn restart_loop_never_waits_out_a_poll_interval() {
    let engine = Arc::new(Engine::with_threads(ic_core::figure1::figure1(), 1));
    let restart_loop = || {
        let started = std::time::Instant::now();
        for i in 0..20u64 {
            let server =
                Server::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
            let mut client = Client::connect(server.local_addr()).unwrap();
            let reply = client.call(i, &Query::new(2, 2, Aggregation::Min)).unwrap();
            assert_eq!(reply_communities(&reply).len(), 2);
            drop(client);
            server.shutdown();
            let connections = server
                .stats_entries()
                .into_iter()
                .find(|(name, _)| name == "serve.connections")
                .expect("serve.connections is registered");
            assert_eq!(connections.1, 1.0, "the wake-up connection was counted");
            server.join();
        }
        started.elapsed()
    };
    // Best of three: the bound is on what the path waits for, not on how
    // busy the other tests keep the machine.
    let best = (0..3).map(|_| restart_loop()).min().unwrap();
    assert!(
        best < Duration::from_millis(300),
        "20 restarts took {best:?}; something on the path polls"
    );
}

// ---------------------------------------------------------------------
// Standing-query subscriptions

/// End-to-end subscription semantics: the initial answer matches a
/// direct solve, an UPDATE fans out NOTIFY deltas (to this and other
/// connections) that match a fresh-engine diff oracle, and the deltas
/// replay onto the old answer bit-exactly.
#[test]
fn subscriptions_stream_deltas_matching_the_fresh_engine_oracle() {
    let engine = Arc::new(Engine::with_threads(ic_core::figure1::figure1(), 2));
    let server = Server::bind(engine.clone(), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    let q1 = Query::new(2, 3, Aggregation::Min);
    let q2 = Query::new(3, 2, Aggregation::Max);

    let mut updater = Client::connect(addr).unwrap();
    let sub1 = updater.subscribe(1, &q1).unwrap();
    let initial1 = reply_communities(&sub1).to_vec();
    assert_eq!(
        initial1,
        q1.solve(&ic_core::figure1::figure1()).unwrap(),
        "initial subscription answer must match a direct solve"
    );

    // A second subscriber on its own connection; client-chosen ids are
    // per-connection, so it can reuse id 1.
    let mut watcher = Client::connect(addr).unwrap();
    let sub2 = watcher.subscribe(1, &q2).unwrap();
    let initial2 = reply_communities(&sub2).to_vec();

    match updater
        .update(99, &[EdgeUpdate::Remove { u: 2, v: 8 }])
        .unwrap()
    {
        Response::UpdateAck {
            id: 99,
            epoch: 1,
            changed: true,
        } => {}
        other => panic!("expected UpdateAck at epoch 1, got {other:?}"),
    }

    // Oracle: a fresh engine over the post-update graph, diffed against
    // the pre-update answers with the canonical diff.
    let fresh = Engine::with_threads(engine.snapshot().weighted().clone(), 2);
    let new1 = fresh.run_batch(&[q1])[0].clone().unwrap();
    let new2 = fresh.run_batch(&[q2])[0].clone().unwrap();
    let want1 = ic_sub::diff_answers(&initial1, &new1);
    let want2 = ic_sub::diff_answers(&initial2, &new2);

    // Fanout happens before the updater's ack is enqueued, so by the
    // time the ack arrived, this connection's notification (if owed)
    // was already diverted to the queue.
    match updater.poll_notification() {
        Some(n) => {
            assert_eq!(n.id, 1);
            assert_eq!(n.epoch, 1);
            assert!(!n.resync);
            assert_eq!(n.deltas, want1, "deltas must match the diff oracle");
            assert_eq!(n.answer, new1);
            assert_eq!(ic_sub::replay(&initial1, &n.deltas), new1);
        }
        None => assert!(
            want1.is_empty(),
            "oracle says the answer changed but no notification arrived"
        ),
    }
    if !want2.is_empty() {
        let n = watcher.wait_notification().unwrap();
        assert_eq!(n.id, 1);
        assert_eq!(n.epoch, 1);
        assert_eq!(n.deltas, want2);
        assert_eq!(ic_sub::replay(&initial2, &n.deltas), new2);
    }

    // A no-op batch (edge already gone) changes nothing and notifies
    // nobody; the ack still reports the (unchanged) epoch.
    match updater
        .update(100, &[EdgeUpdate::Remove { u: 2, v: 8 }])
        .unwrap()
    {
        Response::UpdateAck {
            id: 100,
            epoch: 1,
            changed: false,
        } => {}
        other => panic!("expected a no-op UpdateAck, got {other:?}"),
    }
    assert!(updater.poll_notification().is_none());

    server.shutdown();
    server.join();
}

/// Unsubscribing stops the stream, double-unsubscribe is an idempotent
/// `removed: false`, and duplicate live ids on one connection are
/// refused typed.
#[test]
fn unsubscribe_stops_notifications_and_duplicate_ids_are_refused() {
    let engine = Arc::new(Engine::with_threads(ic_core::figure1::figure1(), 2));
    let server = Server::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    let q = Query::new(2, 3, Aggregation::Min);
    let mut watcher = Client::connect(addr).unwrap();
    watcher.subscribe(1, &q).unwrap();

    // A second SUBSCRIBE under the same live id must not silently
    // shadow the first.
    match watcher.subscribe(1, &q).unwrap() {
        Response::Reply {
            id: 1,
            outcome: Outcome::Error { kind, .. },
            ..
        } => assert_eq!(kind, ic_serve::ErrorKind::Unsupported),
        other => panic!("expected a typed duplicate-id refusal, got {other:?}"),
    }

    match watcher.unsubscribe(1).unwrap() {
        Response::UnsubscribeAck { id: 1, removed } => assert!(removed),
        other => panic!("expected an unsubscribe ack, got {other:?}"),
    }
    match watcher.unsubscribe(1).unwrap() {
        Response::UnsubscribeAck { id: 1, removed } => assert!(!removed),
        other => panic!("expected an idempotent ack, got {other:?}"),
    }

    // An update that definitely changes the k=2 answer must no longer
    // notify the unsubscribed watcher. Ordering makes the negative
    // check sound: the updater's ack is enqueued after fanout, and the
    // watcher's later reply is enqueued after that on its own (FIFO)
    // connection — so a stray NOTIFY would have been diverted by
    // wait_for before the query reply returned.
    let mut updater = Client::connect(addr).unwrap();
    match updater
        .update(7, &[EdgeUpdate::Remove { u: 0, v: 1 }])
        .unwrap()
    {
        Response::UpdateAck { id: 7, changed, .. } => assert!(changed),
        other => panic!("expected an update ack, got {other:?}"),
    }
    let _ = watcher.call(33, &q).unwrap();
    assert!(
        watcher.poll_notification().is_none(),
        "unsubscribed connections must not receive notifications"
    );

    server.shutdown();
    server.join();
}

/// Servers bound over an opaque backend have no subscription hub:
/// SUBSCRIBE and UPDATE get typed `unsupported` refusals and the
/// connection keeps serving queries.
#[test]
fn backend_servers_refuse_subscriptions_and_updates_typed() {
    use ic_engine::{AnswerSink, BatchOptions, QueryBackend};

    /// An Engine hidden behind the trait, keeping the trait's default
    /// (refusing) `apply_updates` — the shape of any read-only backend.
    struct ReadOnly(Engine);
    impl QueryBackend for ReadOnly {
        fn submit(
            &self,
            queries: &[Query],
            options: &BatchOptions,
            trace: Arc<ic_obs::Trace>,
            sink: AnswerSink,
        ) {
            self.0.submit(queries, options, trace, sink)
        }
    }

    let backend = Arc::new(ReadOnly(Engine::with_threads(
        ic_core::figure1::figure1(),
        2,
    )));
    let server = Server::bind_backend(backend, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = Query::new(2, 2, Aggregation::Sum);

    for response in [
        client.subscribe(1, &q).unwrap(),
        client
            .update(2, &[EdgeUpdate::Insert { u: 0, v: 5 }])
            .unwrap(),
    ] {
        match response {
            Response::Reply {
                outcome: Outcome::Error { kind, .. },
                ..
            } => assert_eq!(kind, ic_serve::ErrorKind::Unsupported),
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }
    match client.unsubscribe(1).unwrap() {
        Response::UnsubscribeAck { id: 1, removed } => assert!(!removed),
        other => panic!("expected an idempotent ack, got {other:?}"),
    }
    // The refusals left the connection healthy.
    let _ = reply_communities(&client.call(3, &q).unwrap());

    server.shutdown();
    server.join();
}

/// A hub-less server over a mutable engine acks what the update did: a
/// duplicate insert changes nothing and keeps the epoch.
#[test]
fn backend_update_acks_report_whether_the_graph_changed() {
    let engine = Arc::new(Engine::with_threads(ic_core::figure1::figure1(), 2));
    let server = Server::bind_backend(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (id, update, epoch, want) in [
        (1, EdgeUpdate::Insert { u: 0, v: 1 }, 0, false),
        (2, EdgeUpdate::Remove { u: 0, v: 1 }, 1, true),
        (3, EdgeUpdate::Remove { u: 0, v: 1 }, 1, false),
    ] {
        match client.update(id, &[update]).unwrap() {
            Response::UpdateAck {
                id: got,
                epoch: e,
                changed,
            } => assert_eq!((got, e, changed), (id, epoch, want), "{update:?}"),
            other => panic!("expected an update ack, got {other:?}"),
        }
    }
    server.shutdown();
    server.join();
}

/// The JSON-lines debug mode speaks the whole subscription vocabulary:
/// subscribe, notify-before-ack, unsubscribe, shutdown.
#[test]
fn json_mode_serves_subscriptions_and_updates() {
    use std::io::{BufRead, Write};

    let engine = Arc::new(Engine::with_threads(ic_core::figure1::figure1(), 2));
    let server = Server::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut line = String::new();

    writeln!(
        writer,
        r#"{{"op":"subscribe","id":1,"k":2,"r":3,"agg":"min"}}"#
    )
    .unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""status":"complete""#), "got: {line}");

    writeln!(writer, r#"{{"op":"update","id":9,"updates":"-2:8"}}"#).unwrap();
    let mut saw_notify = false;
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line.contains(r#""status":"notify""#) {
            assert!(line.contains(r#""id":1"#), "got: {line}");
            saw_notify = true;
            continue;
        }
        assert!(
            line.contains(r#""status":"updated""#) && line.contains(r#""epoch":1"#),
            "expected NOTIFY frames then the ack, got: {line}"
        );
        break;
    }
    // Removing an in-2-core edge of figure1 changes the (2,3,Min)
    // answer, so the subscriber is owed exactly one notification —
    // and it must precede the ack (checked by the loop shape above).
    assert!(saw_notify, "the update changed the answer; NOTIFY is owed");

    writeln!(writer, r#"{{"op":"unsubscribe","id":1}}"#).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains(r#""status":"unsubscribed""#) && line.contains(r#""removed":true"#),
        "got: {line}"
    );

    writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line.contains(r#""status":"shutdown_ack""#) {
            break;
        }
    }
    server.join();
}

// ---------------------------------------------------------------------
// Observability: the STATS surface and the slow-query log

/// A STATS request returns the live metrics snapshot over both wire
/// modes: typed `(name, value)` pairs in binary, a flat JSON object in
/// JSON-lines mode — and the snapshot spans both the serve layer and
/// the backend engine's registry.
#[test]
fn stats_frames_surface_live_counters_in_both_wire_modes() {
    use std::io::{BufRead, Write};

    let engine = Arc::new(Engine::with_threads(ic_core::figure1::figure1(), 2));
    let server = Server::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    for id in 0..5u64 {
        let response = client
            .call(id, &Query::new(2, 2, Aggregation::Sum))
            .unwrap();
        let _ = reply_communities(&response);
    }
    let entries = match client.stats(500).unwrap() {
        Response::Stats { id: 500, entries } => entries,
        other => panic!("expected a stats reply, got {other:?}"),
    };
    let get = |name: &str| {
        entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("missing entry {name}"))
    };
    assert_eq!(get("serve.admitted"), 5.0);
    assert!(get("serve.batches") >= 1.0);
    assert_eq!(get("serve.protocol_errors"), 0.0);
    assert!(get("serve.connections") >= 1.0);
    // Queries ran, so the latency histograms have mass.
    assert_eq!(get("serve.batch_ns.count"), get("serve.batches"));
    assert!(
        entries.iter().any(|(n, _)| n.starts_with("engine.")),
        "the snapshot must include the backend engine's registry, got {:?}",
        entries.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );

    // The same snapshot over the human-readable JSON-lines mode.
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(writer, r#"{{"op":"stats","id":3}}"#).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains(r#""id":3"#) && line.contains(r#""status":"stats""#),
        "got: {line}"
    );
    assert!(line.contains(r#""serve.admitted":5"#), "got: {line}");

    server.shutdown();
    server.join();
}

/// The seed memo's counters reach STATS: after a size-bounded
/// SUBSCRIBE and an UPDATE inside its level, the refresh replayed seeds
/// the subscription's solve expanded, and the apply dropped the entries
/// its toggle reached.
#[test]
fn stats_frames_report_the_seed_memo_after_an_update() {
    let engine = Arc::new(Engine::with_threads(email_graph(), 2));
    let server = Server::bind(engine.clone(), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = Query::new(4, 5, Aggregation::Average).size_bound(20, true);
    let _ = reply_communities(&client.subscribe(1, &q).unwrap());

    let snapshot = engine.snapshot();
    let core = &snapshot.level(4).mask;
    let (u, v) = snapshot
        .graph()
        .edges()
        .find(|&(u, v)| core.contains(u as usize) && core.contains(v as usize))
        .expect("the 4-core has an edge");
    match client.update(2, &[EdgeUpdate::Remove { u, v }]).unwrap() {
        Response::UpdateAck { changed: true, .. } => {}
        other => panic!("expected a changing UpdateAck, got {other:?}"),
    }
    let entries = match client.stats(3).unwrap() {
        Response::Stats { id: 3, entries } => entries,
        other => panic!("expected a stats reply, got {other:?}"),
    };
    let get = |name: &str| {
        entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("missing entry {name}"))
    };
    let (seeds, replayed) = (get("core.local_seeds"), get("core.local_seeds_replayed"));
    assert!(replayed > 0.0 && replayed < seeds, "{replayed} of {seeds}");
    assert!(get("core.local_memo_dropped") > 0.0);
    assert!(get("core.local_memo_bytes") > 0.0);
    assert_eq!(get("core.local_memo_refused"), 0.0, "nothing refused");

    server.shutdown();
    server.join();
}

/// Extracts an integer field from one JSON log line by key.
fn json_field_u64(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("missing {key} in {line}"));
    let digits: String = line[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("malformed {key} in {line}"))
}

/// The acceptance claim for tracing: one slow query produces exactly
/// one slow-query JSON line whose stage spans (queue wait + plan +
/// solve + merge + reply write) account for the client-observed latency
/// within 10% (`index_serve` lies *within* solve wall time, so it is
/// not summed). The client observes from its request's write to the
/// reply frame's last byte: decoding the reply is client work, not a
/// server stage. An engine batch under a long admission window, where
/// queue wait dominates; and a one-leg sharded batch whose solve and
/// reply write are each over a tenth of its latency, so a span the
/// front counts twice breaks the bound.
#[test]
fn slow_query_log_stage_spans_account_for_client_latency() {
    let config = |window| ServeConfig {
        admission_window: Duration::from_millis(window),
        slow_query_threshold: Duration::from_millis(1),
        ..ServeConfig::default()
    };
    let engine = Arc::new(Engine::with_threads(email_graph(), 2));
    let (sharded, dir) = sharded_email("slow-log");
    let served = Server::bind(engine, "127.0.0.1:0", config(250));
    let sharded = Server::bind_backend(Arc::new(sharded), "127.0.0.1:0", config(100));
    let query = |r| Query::new(4, r, Aggregation::Sum);
    for (server, query) in [(served, query(2)), (sharded, query(80))] {
        let server = server.unwrap();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut request = Vec::new();
        let at = protocol::begin_frame(&mut request);
        protocol::encode_request(&Request::Query(WireQuery { id: 1, query }), &mut request)
            .unwrap();
        protocol::end_frame(&mut request, at);
        let mut payload = Vec::new();

        let t0 = std::time::Instant::now();
        stream.write_all(&request).unwrap();
        let framed = protocol::read_frame(&mut stream, protocol::RESP_PAYLOAD_MAX, &mut payload);
        let observed_ns = t0.elapsed().as_nanos() as u64;
        assert!(framed.unwrap(), "the server closed before replying");
        let _ = reply_communities(&protocol::decode_response(&payload).unwrap());

        // The trace finalizes on the writer thread after the reply hits
        // the socket, so the log may trail the client's read by a beat.
        let mut log = String::new();
        for _ in 0..200 {
            log = server.slow_queries_json();
            if !log.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 1, "one slow query, one log line; got {log:?}");
        let line = lines[0];

        let span_sum_ns: u64 = [
            "queue_wait_ns",
            "plan_ns",
            "solve_ns",
            "merge_ns",
            "reply_write_ns",
        ]
        .iter()
        .map(|key| json_field_u64(line, key))
        .sum();
        assert!(
            observed_ns.abs_diff(span_sum_ns) * 10 <= observed_ns,
            "stage spans ({span_sum_ns} ns) must account for the client-observed \
             latency ({observed_ns} ns) within 10%: {line}"
        );
        // End-to-end latency went far past the 1 ms threshold, and the
        // plan saw exactly the one query.
        assert!(json_field_u64(line, "total_ns") >= 1_000_000, "{line}");
        assert_eq!(json_field_u64(line, "queries"), 1, "{line}");

        server.shutdown();
        server.join();
    }
    std::fs::remove_dir_all(&dir).ok();
}
