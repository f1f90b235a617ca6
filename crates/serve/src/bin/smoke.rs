//! CI smoke driver for a running `ic-serve` process: mixed binary and
//! JSON-lines queries, a deterministic shed burst, and a checked
//! flush-then-ack drain. Exits nonzero on any contract violation; the
//! CI leg then also requires the server process itself to exit 0.
//!
//! ```text
//! ic-serve-smoke --port-file /tmp/serve.port --mode mixed
//! ic-serve-smoke --port-file /tmp/serve.port --mode shards
//! ic-serve-smoke --port-file /tmp/serve.port --mode shed
//! ic-serve-smoke --port-file /tmp/serve.port --mode sub
//! ic-serve-smoke --port-file /tmp/serve.port --mode stats
//! ```
//!
//! `--mode mixed` expects a default-configured server; `--mode shards`
//! expects one booted with `--shards-dir` (exact families complete,
//! approximate queries are rejected typed per-query); `--mode shed`
//! expects one squeezed to a one-slot admission queue with a long
//! window (`--queue 1 --window-us 300000`), so the
//! second query of a rapid burst deterministically finds the queue
//! full; `--mode sub` expects one booted with `--dataset email` and
//! checks standing-query subscriptions against a local mirror engine
//! over the same deterministic graph; `--mode stats` drives mixed
//! traffic and asserts the live STATS snapshot round-trips over both
//! wire modes with non-zero admission counters and zero protocol
//! errors.

use ic_core::{Aggregation, Community, Query};
use ic_engine::{EdgeUpdate, Engine};
use ic_serve::{Client, Outcome, Response, ShedReason};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;

const USAGE: &str =
    "usage: ic-serve-smoke (--addr <host:port> | --port-file <path>) --mode (mixed|shards|shed|sub|stats)";

fn parse_addr() -> Result<(SocketAddr, String), String> {
    let mut addr: Option<String> = None;
    let mut mode: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--addr" => addr = Some(value("--addr")?),
            "--port-file" => {
                let path = value("--port-file")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read port file {path}: {e}"))?;
                addr = Some(text.trim().to_string());
            }
            "--mode" => mode = Some(value("--mode")?),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let addr = addr.ok_or_else(|| USAGE.to_string())?;
    let addr: SocketAddr = addr
        .parse()
        .map_err(|e| format!("malformed address {addr:?}: {e}"))?;
    Ok((addr, mode.ok_or_else(|| USAGE.to_string())?))
}

fn complete_top(response: &Response, id: u64) -> f64 {
    match response {
        Response::Reply {
            id: got,
            outcome: Outcome::Complete(communities),
            ..
        } if *got == id => communities.first().map_or(f64::NAN, |c| c.value),
        other => panic!("query {id}: expected a complete reply, got {other:?}"),
    }
}

/// Mixed traffic on a default server: binary queries across the
/// aggregation families, a JSON-lines connection, and a checked drain.
fn mixed(addr: SocketAddr) {
    let mut client = Client::connect(addr).expect("connect (binary)");
    let queries = [
        Query::new(4, 3, Aggregation::Min),
        Query::new(4, 3, Aggregation::Max),
        Query::new(4, 3, Aggregation::Sum),
        Query::new(6, 2, Aggregation::Sum).approx(0.2),
        Query::new(4, 2, Aggregation::Average).size_bound(8, true),
    ];
    for (i, q) in queries.iter().enumerate() {
        client.send(i as u64, q).expect("send");
    }
    let mut epochs = Vec::new();
    for i in 0..queries.len() {
        let response = client.wait_for(i as u64).expect("reply");
        let top = complete_top(&response, i as u64);
        assert!(top.is_finite(), "query {i}: top value must be finite");
        if let Response::Reply { epoch, .. } = response {
            epochs.push(epoch);
        }
    }
    assert!(
        epochs.windows(2).all(|w| w[0] == w[1]),
        "no updates ran; every reply must carry the same epoch (got {epochs:?})"
    );
    // An invalid query is a per-query error, not a connection error.
    match client
        .call(99, &Query::new(0, 3, Aggregation::Sum))
        .expect("reply for the invalid query")
    {
        Response::Reply {
            id: 99,
            outcome: Outcome::Error { .. },
            ..
        } => {}
        other => panic!("k = 0 must be a per-query error, got {other:?}"),
    }
    eprintln!("[smoke] binary: {} mixed queries answered", queries.len());

    // JSON-lines mode on a second connection.
    let mut stream = TcpStream::connect(addr).expect("connect (json)");
    stream
        .write_all(b"{\"id\": 1, \"k\": 4, \"r\": 2, \"agg\": \"sum\"}\n")
        .expect("send json");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("json reply");
    assert!(
        line.contains("\"id\":1") && line.contains("\"status\":\"complete\""),
        "json reply malformed: {line:?}"
    );
    drop(reader);
    drop(stream);
    eprintln!("[smoke] json-lines: query answered");

    // Drain with a burst still in the admission window: every in-flight
    // reply must be flushed before the ack.
    let burst = 4usize;
    for i in 0..burst {
        client
            .send(200 + i as u64, &Query::new(4, 2, Aggregation::Sum))
            .expect("send burst");
    }
    let tail = client.shutdown_and_drain().expect("drain must ack");
    let flushed = tail
        .iter()
        .filter(|r| matches!(r, Response::Reply { .. }))
        .count();
    assert_eq!(
        flushed, burst,
        "drain must flush the whole in-flight burst before acking"
    );
    eprintln!("[smoke] drain: {flushed} in-flight replies flushed before ack");
}

/// Exact traffic against a sharded (`--shards-dir`) server: the
/// shard-mergeable extremal families answer complete through the
/// scatter-gather backend, while an approximate query — which has no
/// cross-shard optimality certificate — is a *per-query* typed error,
/// never a connection error. Ends with a checked flush-then-ack drain.
///
/// Only index-served min/max queries here: this smoke runs against a
/// million-node shard directory in CI, where a single TIC-exact sum
/// query enumerates the full k-core for minutes. The sum/surplus merge
/// identity is held in-process by `crates/shard/tests/merge_prop.rs`
/// at sizes where the unsharded oracle is feasible.
fn shards(addr: SocketAddr) {
    let mut client = Client::connect(addr).expect("connect (binary)");
    let queries = [
        Query::new(4, 3, Aggregation::Min),
        Query::new(8, 5, Aggregation::Max),
        Query::new(8, 2, Aggregation::Min),
        Query::new(4, 4, Aggregation::Max),
    ];
    for (i, q) in queries.iter().enumerate() {
        client.send(i as u64, q).expect("send");
    }
    for i in 0..queries.len() {
        let response = client.wait_for(i as u64).expect("reply");
        let top = complete_top(&response, i as u64);
        assert!(top.is_finite(), "query {i}: top value must be finite");
    }
    eprintln!(
        "[smoke] shards: {} exact queries answered through the sharded backend",
        queries.len()
    );
    match client
        .call(99, &Query::new(4, 2, Aggregation::Sum).approx(0.2))
        .expect("reply for the approximate query")
    {
        Response::Reply {
            id: 99,
            outcome: Outcome::Error { .. },
            ..
        } => {}
        other => panic!("epsilon > 0 must be a per-query error on shards, got {other:?}"),
    }
    eprintln!("[smoke] shards: approximate query rejected typed, connection intact");

    // JSON-lines speaks to the sharded backend too.
    let mut stream = TcpStream::connect(addr).expect("connect (json)");
    stream
        .write_all(b"{\"id\": 7, \"k\": 4, \"r\": 2, \"agg\": \"min\"}\n")
        .expect("send json");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("json reply");
    assert!(
        line.contains("\"id\":7") && line.contains("\"status\":\"complete\""),
        "json reply malformed: {line:?}"
    );
    drop(reader);
    drop(stream);
    eprintln!("[smoke] shards: json-lines query answered");

    // Drain with index-served queries still in flight.
    let burst = 4usize;
    for i in 0..burst {
        client
            .send(200 + i as u64, &Query::new(4, 1 + i, Aggregation::Min))
            .expect("send burst");
    }
    let tail = client.shutdown_and_drain().expect("drain must ack");
    let flushed = tail
        .iter()
        .filter(|r| matches!(r, Response::Reply { .. }))
        .count();
    assert_eq!(
        flushed, burst,
        "drain must flush the whole in-flight burst before acking"
    );
    eprintln!("[smoke] shards: drain flushed {flushed} in-flight replies before ack");
}

/// Shed burst on a one-slot server: the second rapid query must get a
/// typed `Overloaded(QueueFull)` while the first still completes.
fn shed(addr: SocketAddr) {
    let mut client = Client::connect(addr).expect("connect");
    let q = Query::new(4, 2, Aggregation::Sum);
    client.send(1, &q).expect("send");
    // Let the first query land in the (one-slot) admission queue.
    std::thread::sleep(std::time::Duration::from_millis(50));
    client.send(2, &q).expect("send");
    match client.wait_for(2).expect("shed reply") {
        Response::Overloaded {
            id: 2,
            reason: ShedReason::QueueFull,
        } => {}
        other => panic!("expected QueueFull shedding, got {other:?}"),
    }
    complete_top(&client.wait_for(1).expect("admitted reply"), 1);
    eprintln!("[smoke] shed: QueueFull reply for the burst, admitted query completed");
    client.shutdown_and_drain().expect("drain must ack");
}

/// Standing-query subscriptions against a `--dataset email` server.
///
/// The dataset analog is generated deterministically, so a local
/// *mirror* engine over the same graph is a fresh-answer oracle: feed
/// it the same `UPDATE` batches and every `NOTIFY` the server streams
/// must carry exactly `diff_answers(old, mirror's new answer)`, and
/// replaying those deltas onto the old answer must reproduce the new
/// one bit-for-bit. The script removes the top community's internal
/// edges (guaranteed answer churn), then inserts them back (answers
/// must return to the originals), then unsubscribes and checks
/// silence.
fn sub(addr: SocketAddr) {
    let wg = ic_gen::datasets::by_name(ic_gen::datasets::Profile::Quick, "email")
        .expect("email analog exists")
        .generate_weighted();
    let mirror = Engine::with_threads(wg, 2);

    let queries = [
        Query::new(4, 3, Aggregation::Min),
        Query::new(4, 3, Aggregation::Max),
    ];
    let mut client = Client::connect(addr).expect("connect");
    let mut answers: Vec<Vec<Community>> = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let reply = client.subscribe(i as u64, q).expect("subscribe");
        let got = match &reply {
            Response::Reply {
                id,
                outcome: Outcome::Complete(communities),
                ..
            } if *id == i as u64 => communities.clone(),
            other => panic!("subscribe {i}: expected a complete reply, got {other:?}"),
        };
        let local = mirror.run_batch(&[*q])[0]
            .clone()
            .expect("mirror answers the subscription query");
        assert_eq!(
            got, local,
            "initial answer for subscription {i} must match the mirror engine"
        );
        answers.push(got);
    }
    assert!(
        !answers[0].is_empty(),
        "the email analog must have a (4, _) community or the smoke is vacuous"
    );
    eprintln!(
        "[smoke] sub: {} subscriptions registered, initial answers match the mirror",
        queries.len()
    );

    // Knock out the top community's internal edges, then restore them.
    let top: Vec<u32> = answers[0][0].vertices.clone();
    let removals: Vec<EdgeUpdate> = {
        let snapshot = mirror.snapshot();
        let graph = snapshot.weighted().graph();
        let inside = |v: u32| top.contains(&v);
        graph
            .edges()
            .filter(|&(u, v)| inside(u) && inside(v))
            .map(|(u, v)| EdgeUpdate::Remove { u, v })
            .take(64)
            .collect()
    };
    assert!(
        !removals.is_empty(),
        "top community must have internal edges"
    );
    let insertions: Vec<EdgeUpdate> = removals
        .iter()
        .map(|r| match r {
            EdgeUpdate::Remove { u, v } => EdgeUpdate::Insert { u: *u, v: *v },
            other => panic!("removal script holds only removals, got {other:?}"),
        })
        .collect();

    for (round, batch) in [removals, insertions].iter().enumerate() {
        let ack_id = 1000 + round as u64;
        let (server_epoch, changed) = match client.update(ack_id, batch).expect("update") {
            Response::UpdateAck { id, epoch, changed } if id == ack_id => (epoch, changed),
            other => panic!("round {round}: expected an UpdateAck, got {other:?}"),
        };
        let mirror_epoch = mirror.apply(batch);
        assert_eq!(
            server_epoch,
            mirror_epoch.index(),
            "round {round}: identical update scripts must land identical epochs"
        );
        assert!(changed, "round {round}: the script edits live edges");

        // Fanout precedes the ack, so every notification owed for this
        // epoch is already queued client-side.
        let mut notified: Vec<Option<ic_serve::WireNotification>> = vec![None; queries.len()];
        while let Some(n) = client.poll_notification() {
            let slot = &mut notified[n.id as usize];
            assert!(
                slot.is_none(),
                "round {round}: duplicate notify for {}",
                n.id
            );
            *slot = Some(n);
        }
        for (i, q) in queries.iter().enumerate() {
            let new = mirror.run_batch(&[*q])[0]
                .clone()
                .expect("mirror answers after the update");
            let want = ic_sub::diff_answers(&answers[i], &new);
            match (&notified[i], want.is_empty()) {
                (Some(n), false) => {
                    assert_eq!(n.epoch, server_epoch);
                    assert_eq!(
                        n.deltas, want,
                        "round {round}: deltas for subscription {i} must match the oracle diff"
                    );
                    assert_eq!(
                        ic_sub::replay(&answers[i], &n.deltas),
                        new,
                        "round {round}: replaying the deltas must reproduce the new answer"
                    );
                    assert_eq!(n.answer, new);
                }
                (None, true) => {}
                (Some(_), true) => {
                    panic!("round {round}: subscription {i} notified but the answer is unchanged")
                }
                (None, false) => {
                    panic!("round {round}: subscription {i} changed but no notification arrived")
                }
            }
            answers[i] = new;
        }
        eprintln!("[smoke] sub: round {round} verified against the mirror diff oracle");
    }

    // Every removal was inserted back, so the graph — and therefore the
    // answers — must be exactly restored.
    for (i, q) in queries.iter().enumerate() {
        let restored = mirror.run_batch(&[*q])[0].clone().expect("restored answer");
        assert_eq!(
            answers[i], restored,
            "subscription {i}: restoring the edges must restore the answer"
        );
    }

    // Unsubscribing silences the stream even under further churn.
    for i in 0..queries.len() as u64 {
        match client.unsubscribe(i).expect("unsubscribe") {
            Response::UnsubscribeAck { id, removed } if id == i => {
                assert!(removed, "subscription {i} was live")
            }
            other => panic!("expected an UnsubscribeAck, got {other:?}"),
        }
    }
    let again: Vec<EdgeUpdate> = {
        let snapshot = mirror.snapshot();
        let graph = snapshot.weighted().graph();
        let inside = |v: u32| top.contains(&v);
        graph
            .edges()
            .filter(|&(u, v)| inside(u) && inside(v))
            .map(|(u, v)| EdgeUpdate::Remove { u, v })
            .take(8)
            .collect()
    };
    match client
        .update(2000, &again)
        .expect("post-unsubscribe update")
    {
        Response::UpdateAck { id: 2000, .. } => {}
        other => panic!("expected an UpdateAck, got {other:?}"),
    }
    assert!(
        client.poll_notification().is_none(),
        "unsubscribed clients must not be notified"
    );
    eprintln!("[smoke] sub: unsubscribe verified; stream is silent under churn");

    client.shutdown_and_drain().expect("drain must ack");
}

/// Metrics smoke on a default server: drive mixed traffic, fetch the
/// STATS surface in both wire modes, and assert the counters moved —
/// non-zero admission and batch counts, zero protocol errors, and an
/// engine-side registry visible through the same frame.
fn stats(addr: SocketAddr) {
    let mut client = Client::connect(addr).expect("connect (binary)");
    let n = 8u64;
    for i in 0..n {
        client
            .send(i, &Query::new(4, 2, Aggregation::Sum))
            .expect("send");
    }
    for i in 0..n {
        complete_top(&client.wait_for(i).expect("reply"), i);
    }

    let entries = match client.stats(500).expect("stats reply") {
        Response::Stats { id: 500, entries } => entries,
        other => panic!("expected a Stats reply, got {other:?}"),
    };
    let get = |name: &str| {
        entries
            .iter()
            .find(|(got, _)| got == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("STATS must carry {name}"))
    };
    assert!(
        get("serve.admitted") >= n as f64,
        "all {n} queries were admitted"
    );
    assert!(get("serve.batches") >= 1.0, "at least one batch flushed");
    assert_eq!(
        get("serve.protocol_errors"),
        0.0,
        "clean traffic must not raise protocol errors"
    );
    assert!(
        entries
            .iter()
            .any(|(name, _)| name.starts_with("engine.") || name.starts_with("shard.")),
        "the backend registry must be visible through STATS"
    );
    eprintln!(
        "[smoke] stats: binary STATS carries {} entries, counters moved",
        entries.len()
    );

    // The same surface over JSON lines.
    let mut stream = TcpStream::connect(addr).expect("connect (json)");
    stream
        .write_all(b"{\"op\": \"stats\", \"id\": 3}\n")
        .expect("send json stats");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("json stats reply");
    assert!(
        line.contains("\"id\":3")
            && line.contains("\"status\":\"stats\"")
            && line.contains("\"serve.admitted\":"),
        "json stats reply malformed: {line:?}"
    );
    drop(reader);
    drop(stream);
    eprintln!("[smoke] stats: json-lines STATS answered");

    client.shutdown_and_drain().expect("drain must ack");
}

fn main() -> ExitCode {
    let (addr, mode) = match parse_addr() {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match mode.as_str() {
        "mixed" => mixed(addr),
        "shards" => shards(addr),
        "shed" => shed(addr),
        "sub" => sub(addr),
        "stats" => stats(addr),
        other => {
            eprintln!("unknown mode {other:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
