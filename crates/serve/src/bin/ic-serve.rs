//! The ic-serve binary: serve top-r influential-community queries over
//! TCP from a persisted store or a generated dataset analog.
//!
//! ```text
//! ic-serve --store email.ics --addr 127.0.0.1:7171
//! ic-serve --shards-dir shards/ --addr 127.0.0.1:7171
//! ic-serve --dataset email --addr 127.0.0.1:0 --port-file /tmp/port
//! ```
//!
//! With `--addr …:0` the OS picks an ephemeral port; the bound address
//! is the first line on stdout (`listening on <addr>`) and, with
//! `--port-file`, is written there too — a script or test that boots
//! the server reads either to find it. The process runs until a client
//! sends a shutdown frame (binary `0x02`, or `{"op":"shutdown"}` in
//! JSON-lines mode), then drains gracefully, prints `drained; bye` and
//! exits 0. `--help` prints the usage on stdout and exits 0; a bad
//! flag or a source that cannot be opened exits 1 with a diagnostic on
//! stderr. `crates/serve/tests/cli.rs` holds this contract.

use ic_engine::{Engine, QueryBackend};
use ic_serve::{ServeConfig, Server};
use ic_shard::ShardedEngine;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    store: Option<String>,
    shards_dir: Option<String>,
    dataset: Option<String>,
    addr: String,
    port_file: Option<String>,
    window_us: Option<u64>,
    queue: Option<usize>,
    threads: Option<usize>,
    stats_interval: Option<u64>,
    slow_ms: Option<u64>,
}

/// What the server fronts: a concrete engine (mutable; subscriptions
/// live here) or an opaque read-only backend.
enum Backend {
    Engine(Arc<Engine>),
    Opaque(Arc<dyn QueryBackend>),
}

const USAGE: &str = "\
usage: ic-serve (--store <file.ics> | --shards-dir <dir> | --dataset <name>) [options]

options:
  --addr <host:port>   bind address (default 127.0.0.1:0 = ephemeral)
  --port-file <path>   write the bound address to this file once listening
  --window-us <n>      upper bound on the admission linger in microseconds
                       (default 1000; the linger taken is at most half the
                       recent batch time, 0 never lingers)
  --queue <n>          bound on admitted, unanswered queries (default 1024)
  --threads <n>        engine worker threads (default: all cores)
  --stats-interval <s> report live metrics on stderr every <s> seconds
  --slow-ms <n>        slow-query log threshold in milliseconds (default 100)

with --store or --dataset the server fronts a live engine: clients may
SUBSCRIBE standing queries and push UPDATE batches, with delta NOTIFY
fanout. with --shards-dir, every shard-*.ics1 in the directory is
opened memory-mapped and queries are scattered across shard engines
and merged bit-identically to a single unsharded engine (read-only:
SUBSCRIBE/UPDATE are refused typed).
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        store: None,
        shards_dir: None,
        dataset: None,
        addr: "127.0.0.1:0".into(),
        port_file: None,
        window_us: None,
        queue: None,
        threads: None,
        stats_interval: None,
        slow_ms: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} expects a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--store" => args.store = Some(value("--store")?),
            "--shards-dir" => args.shards_dir = Some(value("--shards-dir")?),
            "--dataset" => args.dataset = Some(value("--dataset")?),
            "--addr" => args.addr = value("--addr")?,
            "--port-file" => args.port_file = Some(value("--port-file")?),
            "--window-us" => args.window_us = Some(parse(&value("--window-us")?)?),
            "--queue" => args.queue = Some(parse(&value("--queue")?)?),
            "--threads" => args.threads = Some(parse(&value("--threads")?)?),
            "--stats-interval" => args.stats_interval = Some(parse(&value("--stats-interval")?)?),
            "--slow-ms" => args.slow_ms = Some(parse(&value("--slow-ms")?)?),
            "--help" | "-h" => help(),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let sources = [&args.store, &args.shards_dir, &args.dataset]
        .iter()
        .filter(|s| s.is_some())
        .count();
    if sources != 1 {
        return Err(format!(
            "exactly one of --store / --shards-dir / --dataset is required\n{USAGE}"
        ));
    }
    Ok(args)
}

fn help() -> ! {
    print!("{USAGE}");
    std::process::exit(0)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("malformed numeric argument {s:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("ic-serve: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let engine = match build_engine(&args) {
        Ok(e) => e,
        Err(msg) => {
            eprintln!("ic-serve: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut config = ServeConfig::default();
    if let Some(us) = args.window_us {
        config.admission_window = Duration::from_micros(us);
    }
    if let Some(q) = args.queue {
        config.queue_capacity = q;
    }
    if let Some(ms) = args.slow_ms {
        config.slow_query_threshold = Duration::from_millis(ms);
    }

    let bound = match engine {
        Backend::Engine(engine) => Server::bind(engine, &args.addr, config),
        Backend::Opaque(backend) => Server::bind_backend(backend, &args.addr, config),
    };
    let server = match bound {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ic-serve: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    println!("listening on {addr}");
    let _ = std::io::stdout().flush();
    if let Some(path) = &args.port_file {
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            eprintln!("ic-serve: cannot write port file {path}: {e}");
            server.shutdown();
            server.join();
            return ExitCode::FAILURE;
        }
    }

    // The periodic reporter borrows the server, so it runs inside a
    // scope that ends (on drain) before `join` consumes it.
    if let Some(secs) = args.stats_interval {
        let interval = Duration::from_secs(secs.max(1));
        std::thread::scope(|scope| {
            let server = &server;
            scope.spawn(move || {
                let mut last = std::time::Instant::now();
                while !server.is_draining() {
                    std::thread::sleep(Duration::from_millis(250));
                    if last.elapsed() >= interval {
                        last = std::time::Instant::now();
                        report_stats(server);
                    }
                }
            });
        });
    }

    server.join();
    println!("drained; bye");
    ExitCode::SUCCESS
}

/// One compact stderr line of headline serving metrics (the full
/// surface is a STATS frame away; this is for watching a terminal).
fn report_stats(server: &Server) {
    let entries = server.stats_entries();
    let get = |name: &str| {
        entries
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    eprintln!(
        "[stats] conns={} admitted={} batches={} shed={} proto_errs={} \
         batch_p50_us={} batch_p99_us={} slow={}",
        get("serve.connections"),
        get("serve.admitted"),
        get("serve.batches"),
        get("serve.shed.queue_full") + get("serve.shed.draining"),
        get("serve.protocol_errors"),
        get("serve.batch_ns.p50_us"),
        get("serve.batch_ns.p99_us"),
        server.slow_queries_json().lines().count(),
    );
}

fn build_engine(args: &Args) -> Result<Backend, String> {
    let threads = args.threads.unwrap_or_else(ic_engine::available_threads);
    if let Some(store) = &args.store {
        let engine = Engine::open_with_threads(store, threads)
            .map_err(|e| format!("cannot open store {store}: {e}"))?;
        return Ok(Backend::Engine(Arc::new(engine)));
    }
    if let Some(dir) = &args.shards_dir {
        let sharded = ShardedEngine::open_dir_with(dir, threads)
            .map_err(|e| format!("cannot open shards in {dir}: {e}"))?;
        eprintln!(
            "opened {} shard(s) in {} group(s): {} vertices, {} edges",
            sharded.num_shards(),
            sharded.num_groups(),
            sharded.global_vertices(),
            sharded.global_edges()
        );
        return Ok(Backend::Opaque(Arc::new(sharded)));
    }
    let name = args
        .dataset
        .as_deref()
        .expect("parse_args enforces one source");
    let spec = ic_gen::datasets::by_name(ic_gen::datasets::Profile::Quick, name)
        .ok_or_else(|| format!("unknown dataset {name:?}"))?;
    eprintln!(
        "generating dataset analog {name} (n = {}, target m = {})…",
        spec.n, spec.target_m
    );
    Ok(Backend::Engine(Arc::new(Engine::with_threads(
        spec.generate_weighted(),
        threads,
    ))))
}
