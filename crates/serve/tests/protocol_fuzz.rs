//! Protocol robustness: arbitrary bytes, truncated frames, oversized
//! prefixes, garbage JSON, and mid-frame disconnects must all produce
//! *typed* protocol errors — never a panic, never a wedged worker.
//!
//! Half of this file fuzzes the pure codecs; the other half drives a
//! live server over real sockets with each class of malformed input and
//! then proves the server still answers honest queries afterwards.

use ic_core::{Aggregation, Query};
use ic_engine::Engine;
use ic_serve::protocol::{
    self, decode_request, decode_response, encode_request, read_frame, Request, Response,
    WireQuery, MAGIC, REQ_PAYLOAD_MAX, RESP_PAYLOAD_MAX,
};
use ic_serve::{Outcome, ServeConfig, Server};
use proptest::prelude::*;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

// -----------------------------------------------------------------
// Pure codec fuzz

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary payload bytes decode to Ok or a typed error; the call
    /// itself must never panic (the harness would abort the test).
    #[test]
    fn arbitrary_payloads_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// Arbitrary text never panics the JSON request parser.
    #[test]
    fn arbitrary_json_lines_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        if let Ok(line) = std::str::from_utf8(&bytes) {
            let _ = protocol::parse_json_request(line);
        }
    }

    /// Every strict prefix of a valid query frame payload is a typed
    /// error, and appending junk to it is too.
    #[test]
    fn truncations_of_valid_requests_are_typed_errors(
        k in 1u32..64, r in 1u32..16, cut in 0usize..46,
    ) {
        let mut buf = Vec::new();
        encode_request(
            &Request::Query(WireQuery {
                id: 9,
                query: Query::new(k as usize, r as usize, Aggregation::Sum),
            }),
            &mut buf,
        ).unwrap();
        prop_assert!(decode_request(&buf[..cut.min(buf.len() - 1)]).is_err());
        buf.push(0xAA);
        prop_assert!(decode_request(&buf).is_err());
    }

    /// Framed streams with a corrupted byte never panic the frame
    /// reader, and whole-stream truncation is a typed error.
    #[test]
    fn corrupted_frames_never_panic(
        flip in 0usize..16, value in any::<u8>(), cut in 1usize..20,
    ) {
        let mut frame = Vec::new();
        frame.push(MAGIC);
        frame.extend_from_slice(&10u32.to_le_bytes());
        frame.extend_from_slice(&[1u8; 10]);
        let mut corrupted = frame.clone();
        let at = flip % corrupted.len();
        corrupted[at] = value;
        let mut buf = Vec::new();
        let _ = read_frame(&mut &corrupted[..], REQ_PAYLOAD_MAX, &mut buf);
        let cut = cut.min(frame.len() - 1).max(1);
        let mut buf = Vec::new();
        prop_assert!(read_frame(&mut &frame[..cut], REQ_PAYLOAD_MAX, &mut buf).is_err());
    }
}

// -----------------------------------------------------------------
// Live-server malformed-input tests

fn test_server() -> (Server, std::net::SocketAddr) {
    let engine = Arc::new(Engine::with_threads(ic_core::figure1::figure1(), 2));
    let server = Server::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    (server, addr)
}

fn raw_connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn read_response(stream: &mut TcpStream) -> Response {
    let mut buf = Vec::new();
    assert!(
        read_frame(stream, RESP_PAYLOAD_MAX, &mut buf).unwrap(),
        "server closed before responding"
    );
    decode_response(&buf).unwrap()
}

fn send_query(stream: &mut TcpStream, id: u64, query: Query) {
    let mut payload = Vec::new();
    encode_request(&Request::Query(WireQuery { id, query }), &mut payload).unwrap();
    protocol::write_frame(stream, &payload).unwrap();
}

fn assert_server_still_answers(addr: std::net::SocketAddr) {
    let mut healthy = raw_connect(addr);
    send_query(&mut healthy, 77, Query::new(2, 2, Aggregation::Sum));
    match read_response(&mut healthy) {
        Response::Reply {
            id: 77,
            outcome: Outcome::Complete(communities),
            ..
        } => {
            assert_eq!(communities[0].value, 203.0, "figure 1 top sum community");
        }
        other => panic!("expected a complete reply, got {other:?}"),
    }
}

#[test]
fn oversized_length_prefix_gets_a_typed_error_and_close() {
    let (server, addr) = test_server();
    let mut stream = raw_connect(addr);
    stream.write_all(&[MAGIC]).unwrap();
    stream
        .write_all(&(REQ_PAYLOAD_MAX + 1).to_le_bytes())
        .unwrap();
    match read_response(&mut stream) {
        Response::ProtocolError { message } => {
            assert!(
                message.contains("exceeds"),
                "unexpected message {message:?}"
            )
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    // The connection is closed after an unsynchronizable violation.
    let mut buf = Vec::new();
    assert!(!read_frame(&mut stream, RESP_PAYLOAD_MAX, &mut buf).unwrap_or(false));

    // The JSON-lines twin: a line that runs past the cap with no newline
    // in sight is refused the same way.
    let mut stream = raw_connect(addr);
    let mut long = b"{\"id\": 1, \"k\": \"".to_vec();
    long.resize(REQ_PAYLOAD_MAX as usize + 1, b'x');
    stream.write_all(&long).unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    assert!(
        line.contains("protocol_error") && line.contains("exceeds"),
        "got {line:?}"
    );
    line.clear();
    assert_eq!(
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap(),
        0
    );
    assert_server_still_answers(addr);
    server.shutdown();
    server.join();
}

#[test]
fn mid_frame_disconnect_does_not_wedge_the_server() {
    let (server, addr) = test_server();
    {
        let mut stream = raw_connect(addr);
        // Promise a 47-byte query payload, deliver 10 bytes, hang up.
        stream.write_all(&[MAGIC]).unwrap();
        stream.write_all(&47u32.to_le_bytes()).unwrap();
        stream.write_all(&[protocol::FRAME_QUERY; 10]).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        // Server replies with the typed truncation error, then closes.
        match read_response(&mut stream) {
            Response::ProtocolError { message } => {
                assert!(message.contains("mid-frame"), "got {message:?}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }
    // The JSON-lines twin: half a line, then hang up.
    {
        let mut stream = raw_connect(addr);
        stream.write_all(br#"{"id": 1, "k": 2"#).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut line = String::new();
        std::io::BufRead::read_line(&mut std::io::BufReader::new(stream), &mut line).unwrap();
        assert_eq!(
            line,
            "{\"status\":\"protocol_error\",\"message\":\"stream ended mid-frame\"}\n"
        );
    }
    assert_server_still_answers(addr);
    server.shutdown();
    server.join();
}

/// A JSON-lines connection reset by its peer is a socket error the
/// server counts, not a silent hang-up.
#[test]
fn a_reset_json_connection_is_reported_as_a_socket_error() {
    let (server, addr) = test_server();
    let protocol_errors = || {
        server
            .stats_entries()
            .into_iter()
            .find(|(name, _)| name == "serve.protocol_errors")
            .expect("serve.protocol_errors is registered")
            .1
    };
    let mut stream = raw_connect(addr);
    stream.write_all(b"{\"op\":\"stats\",\"id\":1}\n").unwrap();
    // Wait for the reply without reading it: closing a socket with unread
    // bytes makes the kernel reset the connection instead of ending it.
    let mut first = [0u8; 1];
    assert_eq!(stream.peek(&mut first).unwrap(), 1);
    stream.write_all(br#"{"id": 2"#).unwrap();
    drop(stream);
    let waited = std::time::Instant::now();
    while protocol_errors() == 0.0 && waited.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(protocol_errors(), 1.0);
    assert_server_still_answers(addr);
    server.shutdown();
    server.join();
}

#[test]
fn bad_frame_payload_is_recoverable_on_the_same_connection() {
    let (server, addr) = test_server();
    let mut stream = raw_connect(addr);
    // A well-framed payload with an unknown type byte: the stream stays
    // synchronized, so the error is reported and serving continues.
    protocol::write_frame(&mut stream, &[0x77]).unwrap();
    match read_response(&mut stream) {
        Response::ProtocolError { message } => {
            assert!(message.contains("0x77"), "got {message:?}")
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    // Same connection, honest query: still served.
    send_query(&mut stream, 5, Query::new(2, 1, Aggregation::Min));
    match read_response(&mut stream) {
        Response::Reply { id: 5, .. } => {}
        other => panic!("expected a reply, got {other:?}"),
    }
    server.shutdown();
    server.join();
}

#[test]
fn garbage_json_lines_get_error_lines_and_the_connection_survives() {
    let (server, addr) = test_server();
    let mut stream = raw_connect(addr);
    stream
        .write_all(b"this is not json\n{\"k\": 2, \"r\": 1}\n")
        .unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    assert!(line.contains("protocol_error"), "got {line:?}");
    line.clear();
    // Second line parses as JSON but lacks "agg": another typed error.
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    assert!(line.contains("protocol_error"), "got {line:?}");
    // And an honest JSON query on the same connection is answered.
    stream
        .write_all(b"{\"id\": 4, \"k\": 2, \"r\": 2, \"agg\": \"sum\"}\n")
        .unwrap();
    line.clear();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    assert!(
        line.contains("\"id\":4") && line.contains("\"complete\"") && line.contains("203"),
        "got {line:?}"
    );
    server.shutdown();
    server.join();
}

/// Extreme, fractional and negative numbers in every numeric key,
/// unknown keys and `\u` escapes, one JSON line at a time: each line is
/// either answered or refused with a typed error, the same connection
/// answers the honest query that follows it, and no line ever reaches a
/// solver in a shape that panics it.
#[test]
fn hostile_json_lines_never_kill_the_connection_or_poison_a_solver() {
    // Well-formed queries the server must answer `complete`.
    let answered = [
        r#"{"id":1,"k":2,"r":2,"agg":"sum","deadline_ms":1e19}"#,
        // A valid `Duration` no `Instant` can hold: never expires.
        r#"{"id":2,"k":2,"r":2,"agg":"sum","deadline_ms":1e22}"#,
        r#"{"id":3,"k":2,"r":3,"agg":"min","deadline_ms":1e22}"#,
        r#"{"id":4,"k":2,"r":2,"agg":"average","s":4,"deadline_ms":1e22}"#,
        r#"{"id":5,"k":2,"r":2,"agg":"sum","eps":0.1,"deadline_ms":1e22}"#,
        // Ids are u64 on the wire; JSON carries them up to 2^53.
        r#"{"id":4294967296,"k":2,"r":2,"agg":"sum"}"#,
        r#"{"id":9007199254740992,"k":2,"r":2,"agg":"sum"}"#,
        // `r` is a wire u32: no buffer may be sized by it.
        r#"{"k":2,"r":4294967295,"agg":"average","s":4}"#,
    ];
    // Lines it must refuse with a typed error.
    let refused = [
        // Beyond `Duration` itself.
        r#"{"id":6,"k":2,"r":2,"agg":"sum","deadline_ms":1e300}"#,
        r#"{"id":7,"k":2,"r":2,"agg":"sum","deadline_ms":-1e300}"#,
        r#"{"id":8,"k":2,"r":2,"agg":"sum","deadline_ms":1e999}"#,
        r#"{"id":9007199254740994,"k":2,"r":2,"agg":"sum"}"#,
        r#"{"id":-1,"k":2,"r":2,"agg":"sum"}"#,
        r#"{"id":1.5,"k":2,"r":2,"agg":"sum"}"#,
        r#"{"id":9,"k":1e999,"r":2,"agg":"sum"}"#,
        r#"{"id":10,"k":4294967296,"r":2,"agg":"sum"}"#,
        r#"{"id":11,"k":2,"r":-0.5,"agg":"sum"}"#,
        r#"{"id":12,"k":2,"r":2,"agg":"sum","s":1e300}"#,
        r#"{"id":13,"k":2,"r":2,"agg":"top_t_sum","t":1e999}"#,
        r#"{"id":21,"k":2,"r":2,"agg":"top_t_sum","p":2.5,"s":4}"#,
        r#"{"id":14,"k":2,"r":2,"agg":"sum","eps":1e999}"#,
        r#"{"id":15,"k":2,"r":2,"agg":"sum","eps":-1}"#,
        r#"{"id":16,"k":2,"r":2,"agg":"sum_surplus","alpha":-1e308}"#,
        r#"{"id":17,"k":2,"r":2,"agg":1e300}"#,
        r#"{"id":18,"k":2,"r":2,"agg":"sum","frobnicate":1}"#,
        r#"{"id":19,"k":2,"r":2,"agg":"\u0073um"}"#,
        r#"{"op":"qu\u0065ry","id":20,"k":2,"r":2,"agg":"sum"}"#,
        r#"{"op":"unsubscribe","id":1e300}"#,
    ];

    let engine = Arc::new(Engine::with_threads(ic_core::figure1::figure1(), 2));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut stream = raw_connect(server.local_addr());
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let hostile = answered
        .iter()
        .map(|line| (line, true))
        .chain(refused.iter().map(|line| (line, false)));
    for (i, (line, answered)) in hostile.enumerate() {
        let follow_up = 1000 + i;
        let honest = format!(r#"{{"id":{follow_up},"k":2,"r":2,"agg":"sum"}}"#);
        stream
            .write_all(format!("{line}\n{honest}\n").as_bytes())
            .unwrap();
        // One reply line each; the two may share an admission batch, so
        // tell them apart by id rather than by arrival order.
        let mut own = None;
        let mut next = None;
        for _ in 0..2 {
            let mut reply = String::new();
            let n = std::io::BufRead::read_line(&mut reader, &mut reply).unwrap();
            assert!(n > 0, "connection died on {line:?}");
            assert!(
                !reply.contains(r#""kind":"internal""#),
                "{line:?} -> {reply:?}"
            );
            if reply.contains(&format!(r#""id":{follow_up},"#)) {
                next = Some(reply);
            } else {
                own = Some(reply);
            }
        }
        let (own, next) = (
            own.expect("a reply to the line"),
            next.expect("a follow-up"),
        );
        assert!(
            next.contains(r#""status":"complete""#) && next.contains("203"),
            "after {line:?}: {next:?}"
        );
        if answered {
            assert!(
                own.contains(r#""status":"complete""#),
                "{line:?} -> {own:?}"
            );
        } else {
            assert!(
                own.contains("protocol_error") || own.contains(r#""status":"error""#),
                "{line:?} -> {own:?}"
            );
        }
    }
    // The huge-`r` line's binary-frame twin, then an honest query on the
    // same connection.
    let mut framed = raw_connect(server.local_addr());
    let huge_r = Query::new(2, u32::MAX as usize, Aggregation::Average).size_bound(4, true);
    send_query(&mut framed, 1, huge_r);
    send_query(&mut framed, 2, Query::new(2, 2, Aggregation::Sum));
    for _ in 0..2 {
        match read_response(&mut framed) {
            Response::Reply {
                id: 1 | 2,
                outcome: Outcome::Complete(communities),
                ..
            } => assert!(!communities.is_empty()),
            other => panic!("expected a complete reply, got {other:?}"),
        }
    }
    assert_eq!(engine.arenas_quarantined(), 0, "no solver was poisoned");
    server.shutdown();
    server.join();
}

#[test]
fn invalid_query_parameters_are_per_query_errors_not_connection_errors() {
    let (server, addr) = test_server();
    let mut stream = raw_connect(addr);
    // k = 0 is invalid; the engine rejects it per query, the connection
    // (and the rest of the burst) is unaffected.
    send_query(&mut stream, 1, Query::new(0, 2, Aggregation::Sum));
    send_query(&mut stream, 2, Query::new(2, 2, Aggregation::Sum));
    let mut saw_error = false;
    let mut saw_answer = false;
    for _ in 0..2 {
        match read_response(&mut stream) {
            Response::Reply {
                id: 1,
                outcome: Outcome::Error { .. },
                ..
            } => saw_error = true,
            Response::Reply {
                id: 2,
                outcome: Outcome::Complete(_),
                ..
            } => saw_answer = true,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(saw_error && saw_answer);
    server.shutdown();
    server.join();
}

/// Collects `n` replies and returns their ids, sorted.
fn read_reply_ids(stream: &mut TcpStream, n: usize) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..n)
        .map(|_| match read_response(stream) {
            Response::Reply {
                id,
                outcome: Outcome::Complete(_),
                ..
            } => id,
            other => panic!("expected a complete reply, got {other:?}"),
        })
        .collect();
    ids.sort_unstable();
    ids
}

fn query_frames(n: u64) -> Vec<u8> {
    let mut wire = Vec::new();
    for id in 0..n {
        let query = Query::new(2, 1 + (id % 3) as usize, Aggregation::Sum);
        let mut payload = Vec::new();
        encode_request(&Request::Query(WireQuery { id, query }), &mut payload).unwrap();
        protocol::write_frame(&mut wire, &payload).unwrap();
    }
    wire
}

/// The server parses frames out of a buffered read; a client that
/// dribbles its frames a byte per segment must get every answer.
#[test]
fn frames_fed_one_byte_at_a_time_are_all_answered() {
    let (server, addr) = test_server();
    let mut stream = raw_connect(addr);
    stream.set_nodelay(true).unwrap();
    for byte in query_frames(5) {
        stream.write_all(&[byte]).unwrap();
    }
    assert_eq!(read_reply_ids(&mut stream, 5), [0, 1, 2, 3, 4]);
    server.shutdown();
    server.join();
}

/// …and so must one that sends a hundred frames in a single write.
#[test]
fn a_hundred_frames_in_one_write_are_all_answered() {
    let (server, addr) = test_server();
    let mut stream = raw_connect(addr);
    stream.write_all(&query_frames(100)).unwrap();
    assert_eq!(
        read_reply_ids(&mut stream, 100),
        (0..100).collect::<Vec<u64>>()
    );
    server.shutdown();
    server.join();
}

/// The writer gathers queued messages into one write, in queue order:
/// an updater subscribed on its own connection still sees every NOTIFY
/// of an epoch ahead of that epoch's UPDATE_ACK.
#[test]
fn notify_precedes_update_ack_with_the_gathering_writer() {
    let (server, addr) = test_server();
    let mut stream = raw_connect(addr);
    let send = |stream: &mut TcpStream, request: Request| {
        let mut payload = Vec::new();
        encode_request(&request, &mut payload).unwrap();
        protocol::write_frame(stream, &payload).unwrap();
    };
    // Two standing queries whose answers the edge removal changes.
    for (id, r) in [(1, 3), (2, 2)] {
        let query = Query::new(2, r, Aggregation::Min);
        send(&mut stream, Request::Subscribe(WireQuery { id, query }));
        match read_response(&mut stream) {
            Response::Reply { id: got, .. } => assert_eq!(got, id),
            other => panic!("expected the initial answer, got {other:?}"),
        }
    }
    send(
        &mut stream,
        Request::Update {
            id: 9,
            updates: vec![ic_engine::EdgeUpdate::Remove { u: 2, v: 8 }],
        },
    );
    let mut notified = Vec::new();
    loop {
        match read_response(&mut stream) {
            Response::Notify(n) => {
                assert_eq!(n.epoch, 1);
                notified.push(n.id);
            }
            Response::UpdateAck {
                id: 9,
                epoch: 1,
                changed: true,
            } => break,
            other => panic!("expected NOTIFY frames then the ack, got {other:?}"),
        }
    }
    notified.sort_unstable();
    assert_eq!(notified, [1, 2], "both deltas arrive before the ack");
    server.shutdown();
    server.join();
}
