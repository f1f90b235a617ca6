//! The `ic-serve` binary as an operator runs it.
//!
//! `serve_integration.rs` holds the serving contract against a `Server`
//! bound in-process. This file holds only what that cannot show: each
//! flag reaches `ServeConfig`, each of the three sources (`--store`,
//! `--shards-dir`, `--dataset`) is wired to a backend, and the process
//! exits like a tool — 0 and `drained; bye` after a SHUTDOWN frame,
//! non-zero with a diagnostic (never a panic) on a bad invocation.
//!
//! The one `#[ignore]`d test drives a prebuilt shard directory named by
//! `IC_SERVE_SHARDS_DIR` (a million-vertex one in CI):
//!
//! ```text
//! IC_SERVE_SHARDS_DIR=/tmp/shards cargo test --release -p ic-serve --test cli -- --ignored
//! ```

use ic_core::{Aggregation, Community, Query};
use ic_engine::{BatchOptions, EdgeUpdate, Engine, EngineError, QueryAnswer};
use ic_serve::{Client, ErrorKind, Outcome, Response, ShedReason};
use scratch::ScratchDir;
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

#[path = "../../../tests/common/scratch.rs"]
mod scratch;

/// How long a test waits for an expected stderr line before failing.
const STDERR_WAIT: Duration = Duration::from_secs(30);

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ic-serve"))
}

/// A running `ic-serve` process, found through the `listening on <addr>`
/// line it prints first; its stderr goes to a file of its own. Killed
/// on drop, so a failing test leaves no server behind.
struct Booted {
    child: Child,
    addr: SocketAddr,
    stdout: BufReader<ChildStdout>,
    stderr: PathBuf,
    /// Holds the stderr file; removed after the process is killed.
    _scratch: ScratchDir,
}

impl Booted {
    /// Boots with `args` plus the whitespace-separated `flags`, on two
    /// engine workers.
    fn new(args: &[&str], flags: &str) -> Booted {
        let scratch = ScratchDir::new("serve-cli-boot");
        let stderr = scratch.join("stderr");
        let mut child = bin()
            .args(args)
            .args(flags.split_whitespace())
            .args(["--threads", "2"])
            .stdout(Stdio::piped())
            .stderr(File::create(&stderr).expect("create the stderr file"))
            .spawn()
            .expect("spawn ic-serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        stdout.read_line(&mut first).expect("read ic-serve stdout");
        let Some(addr) = first.trim_end().strip_prefix("listening on ") else {
            let _ = child.wait();
            let stderr = std::fs::read_to_string(&stderr).unwrap_or_default();
            panic!("ic-serve {args:?} did not come up: stdout {first:?}, stderr {stderr:?}");
        };
        let addr = addr.parse().expect("a socket address");
        Booted {
            child,
            addr,
            stdout,
            stderr,
            _scratch: scratch,
        }
    }

    fn stderr(&self) -> String {
        std::fs::read_to_string(&self.stderr).expect("read the stderr file")
    }

    /// Waits for a stderr line satisfying `wanted`.
    fn await_stderr(&self, what: &str, wanted: impl Fn(&str) -> bool) {
        let deadline = Instant::now() + STDERR_WAIT;
        loop {
            let stderr = self.stderr();
            if stderr.lines().any(&wanted) {
                return;
            }
            assert!(Instant::now() < deadline, "no {what} line: {stderr}");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Sends SHUTDOWN through `client` and holds the drain contract: the
    /// ack arrives, the process exits 0, and the rest of stdout is
    /// `drained; bye`. Returns everything the process wrote to stderr.
    fn drain(mut self, mut client: Client) -> String {
        client.shutdown_and_drain().expect("drain must ack");
        let status = self.child.wait().expect("wait for ic-serve");
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("read stdout");
        let stderr = self.stderr();
        assert!(status.success(), "drained, got {status:?}: {stderr}");
        assert_eq!(rest, "drained; bye\n", "stdout after the listening line");
        stderr
    }
}

impl Drop for Booted {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn complete(response: Response, id: u64) -> Vec<Community> {
    match response {
        Response::Reply {
            id: got,
            outcome: Outcome::Complete(communities),
            ..
        } if got == id => communities,
        other => panic!("query {id}: expected a complete reply, got {other:?}"),
    }
}

/// A per-query error reply of `kind` (the connection stays up).
fn refused(response: Response, id: u64, kind: ErrorKind) {
    match response {
        Response::Reply {
            id: got,
            outcome: Outcome::Error { kind: got_kind, .. },
            ..
        } if got == id && got_kind == kind => {}
        other => panic!("request {id}: expected a {kind:?} error reply, got {other:?}"),
    }
}

/// `--store` over a file `Engine::persist` wrote: the binary and the
/// JSON-lines wire answer like the in-process engine, an UPDATE is acked
/// (a store-opened server fronts a live engine), `--stats-interval` and
/// `--slow-ms` reach the config (a `[stats]` line counting slow batches),
/// `--port-file` holds the printed address, and a SHUTDOWN exits 0.
#[test]
fn store_server_answers_like_the_engine_and_exits_zero_after_a_drain() {
    let dir = ScratchDir::new("serve-cli-store");
    let (store, port_file) = (dir.join("email.ics1"), dir.join("port"));
    let email = ic_gen::datasets::by_name(ic_gen::datasets::Profile::Quick, "email").unwrap();
    let engine = Engine::with_threads(email.generate_weighted(), 1);
    engine.persist(&store).expect("persist the email analog");

    let paths = [store.to_str().unwrap(), port_file.to_str().unwrap()];
    let args = ["--store", paths[0], "--port-file", paths[1]];
    let flags = "--addr 127.0.0.1:0 --stats-interval 1 --slow-ms 0";
    let server = Booted::new(&args, flags);
    let mut client = Client::connect(server.addr).expect("connect (binary)");
    let binary = Query::new(4, 3, Aggregation::Sum);
    let want = engine.run_batch(&[binary]).remove(0).unwrap();
    assert_eq!(complete(client.call(1, &binary).unwrap(), 1), want);

    let json = Query::new(4, 2, Aggregation::Min);
    let want = engine.run_batch_with(&[json], &BatchOptions::default());
    let want = ic_serve::protocol::render_json_reply(2, 0, &want[0]);
    let stream = TcpStream::connect(server.addr).expect("connect (json)");
    writeln!(&stream, r#"{{"id":2,"k":4,"r":2,"agg":"min"}}"#).unwrap();
    let mut line = String::new();
    BufReader::new(&stream).read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), want, "JSON-lines reply");
    drop(stream);

    let (u, v) = engine.snapshot().weighted().graph().edges().next().unwrap();
    let ack = client.update(3, &[EdgeUpdate::Remove { u, v }]).unwrap();
    let applied = Response::UpdateAck {
        id: 3,
        epoch: 1,
        changed: true,
    };
    assert_eq!(ack, applied, "a store-opened server applies updates");

    server.await_stderr("[stats] with slow batches", |line| {
        line.starts_with("[stats]") && !line.contains(" slow=0")
    });
    let addr = server.addr.to_string();
    server.drain(client);
    let written = std::fs::read_to_string(&port_file).unwrap();
    assert_eq!(written, addr, "--port-file holds the printed address");
}

/// `--dataset` generates the analog and fronts it; `--queue 1` and
/// `--window-us 300000` reach the config: the first query parks in the
/// one-slot queue for the window, so the second is shed `QueueFull`.
#[test]
fn one_slot_queue_flags_shed_the_second_rapid_query() {
    let server = Booted::new(&["--dataset", "email"], "--queue 1 --window-us 300000");
    let mut client = Client::connect(server.addr).expect("connect");
    let q = Query::new(4, 2, Aggregation::Min);
    client.send(1, &q).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    client.send(2, &q).unwrap();
    let shed = Response::Overloaded {
        id: 2,
        reason: ShedReason::QueueFull,
    };
    assert_eq!(client.wait_for(2).unwrap(), shed);
    complete(client.wait_for(1).unwrap(), 1);
    let stderr = server.drain(client);
    assert!(stderr.contains("analog email"), "{stderr}");
}

/// `--shards-dir` over `dir`: min/max answers at the two persisted
/// levels `[lo, hi]` equal `reference`'s, an approximate query is a
/// per-query error, an UPDATE is refused typed (the sharded backend is
/// read-only), and a SHUTDOWN exits 0.
fn sharded_server_answers_like(
    dir: &Path,
    [lo, hi]: [usize; 2],
    reference: impl Fn(&[Query]) -> Vec<Result<QueryAnswer, EngineError>>,
) {
    let server = Booted::new(&["--shards-dir", dir.to_str().unwrap()], "");
    let mut client = Client::connect(server.addr).expect("connect");
    let queries = [
        Query::new(lo, 3, Aggregation::Min),
        Query::new(hi, 5, Aggregation::Max),
        Query::new(hi, 2, Aggregation::Min),
        Query::new(lo, 4, Aggregation::Max),
    ];
    for (i, (q, want)) in queries.iter().zip(reference(&queries)).enumerate() {
        let id = i as u64;
        let want = want.expect("reference answers").communities;
        assert!(!want.is_empty(), "{q:?} has communities to serve");
        assert_eq!(complete(client.call(id, q).unwrap(), id), want, "{q:?}");
    }
    let approx = Query::new(lo, 2, Aggregation::Sum).approx(0.2);
    refused(client.call(10, &approx).unwrap(), 10, ErrorKind::Search);
    let update = client.update(11, &[EdgeUpdate::Insert { u: 0, v: 1 }]);
    refused(update.unwrap(), 11, ErrorKind::Unsupported);
    let stderr = server.drain(client);
    assert!(stderr.contains("shard(s)"), "{stderr}");
}

#[test]
fn sharded_server_answers_like_the_unsharded_engine() {
    let dir = ScratchDir::new("serve-cli-shards");
    let wg = ic_core::figure1::figure1();
    ic_store::shard::build_shard_stores(&wg, &[1, 2], 6, &dir).expect("build shards");
    let engine = Engine::with_threads(wg, 1);
    let run = |queries: &[Query]| engine.run_batch_with(queries, &BatchOptions::default());
    sharded_server_answers_like(&dir, [1, 2], run);
}

/// The same contract at scale, over a directory built beforehand with
/// `ic-store build --stream … --k 4,8 --shards-out <dir>`. The
/// reference is the same directory opened in-process: sharded ≡
/// unsharded is held at oracle-feasible sizes by
/// `crates/shard/tests/merge_prop.rs` and by the test above.
#[test]
#[ignore = "needs IC_SERVE_SHARDS_DIR, a shard directory built with --k 4,8"]
fn prebuilt_shard_dir_serves_through_the_binary() {
    let dir = std::env::var("IC_SERVE_SHARDS_DIR")
        .expect("IC_SERVE_SHARDS_DIR names a shard directory built with --k 4,8");
    let sharded = ic_shard::ShardedEngine::open_dir(&dir).expect("open the shard directory");
    let run = |queries: &[Query]| {
        sharded
            .run_batch_pinned(queries, &BatchOptions::default())
            .1
    };
    let started = Instant::now();
    sharded_server_answers_like(Path::new(&dir), [4, 8], run);
    eprintln!("served {dir} through ic-serve in {:?}", started.elapsed());
}

/// `--help` is a success; every bad invocation exits non-zero with a
/// typed diagnostic on stderr, never a panic, and never comes up.
#[test]
fn help_succeeds_and_bad_invocations_fail_with_a_diagnostic() {
    let help = bin().arg("--help").output().expect("spawn ic-serve");
    assert_eq!(help.status.code(), Some(0), "--help exits 0");
    let usage = String::from_utf8_lossy(&help.stdout);
    assert!(usage.starts_with("usage: ic-serve"), "usage on stdout");
    assert!(help.stderr.is_empty(), "--help writes nothing to stderr");

    let cases: &[&[&str]] = &[
        &[],                                          // no source
        &["--dataset", "email", "--store", "x.ics1"], // two sources
        &["--dataset", "email", "--frobnicate"],      // unknown flag
        &["--store", "/nonexistent/definitely.ics1"], // unopenable store
        &["--dataset", "nosuch"],                     // unknown dataset
    ];
    for args in cases {
        let out = bin().args(*args).output().expect("spawn ic-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?}: expected nonzero exit");
        assert!(stderr.starts_with("ic-serve: "), "{args:?}: {stderr:?}");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing on stdout");
    }
}
