//! The traced run: a plain and a span-wrapped replay of the workload's
//! own client loop, the outside-in layer ladder over a sample of its
//! ops, and the layer probes. Its numbers never feed the end-to-end
//! metrics; the untraced run never constructs a span.

use crate::client::Tally;
use crate::json::Value;
use crate::probes::{self, Layers};
use crate::run::{Report, RunCfg};
use crate::spec::{Metric, PER_LAYER};
use crate::stats::{median, BEYOND};
use crate::sys::{self, Scratch};
use crate::trace::SpanLog;
use crate::traffic::Op;
use crate::workloads::{Budget, Stack, Workload};
use ic_core::algo::ExtremumIndex;
use ic_core::{Extremum, Query, Solver};
use ic_engine::BatchOptions;
use ic_graph::Graph;
use ic_kcore::ArenaPool;
use ic_serve::protocol;
use ic_serve::{Client, Request, Response, ServeConfig, Server, WireQuery};
use ic_shard::ShardedEngine;
use ic_store::StoreFile;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Cumulative serving counters of a stack, read from the public
/// `Server::stats()` and the engine's public metrics registry.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub admitted: u64,
    pub shed: u64,
    pub batches: u64,
    pub largest_batch: u64,
    pub queries: u64,
    pub cache_hits: u64,
    pub index_routed: u64,
}

impl Counters {
    pub fn of(stack: &Stack) -> Counters {
        let serve = stack.server.stats();
        let engine = stack.engine.obs_registry().flat_entries();
        let read = |name: &str| {
            engine
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v as u64)
        };
        Counters {
            admitted: serve.admitted,
            shed: serve.shed_queue_full + serve.shed_draining,
            batches: serve.batches,
            largest_batch: serve.largest_batch,
            queries: read("engine.queries"),
            cache_hits: read("engine.plan.cache_hits"),
            index_routed: read("engine.plan.index_routed"),
        }
    }

    pub fn add(&mut self, other: Counters) {
        self.admitted += other.admitted;
        self.shed += other.shed;
        self.batches += other.batches;
        self.largest_batch = self.largest_batch.max(other.largest_batch);
        self.queries += other.queries;
        self.cache_hits += other.cache_hits;
        self.index_routed += other.index_routed;
    }

    fn since(self, earlier: Counters) -> Counters {
        Counters {
            admitted: self.admitted - earlier.admitted,
            shed: self.shed - earlier.shed,
            batches: self.batches - earlier.batches,
            largest_batch: self.largest_batch,
            queries: self.queries - earlier.queries,
            cache_hits: self.cache_hits - earlier.cache_hits,
            index_routed: self.index_routed - earlier.index_routed,
        }
    }
}

/// What the ladder learned from its sample of ops.
pub struct Ladder {
    pub queries: Vec<Query>,
    pub replies: Vec<Response>,
    /// Indices of the `serve.rtt` root spans, one per sampled op.
    pub roots: Vec<u32>,
}

/// Ladder sample sizes: ops for the engine-backed workloads (`miss_mix`
/// ops run for tens of ms at every rung, so it samples fewer) and
/// restart cycles × ops per cycle for `cold_open`.
pub const LADDER_OPS: usize = 64;
pub const LADDER_OPS_MISS: usize = 32;
pub const LADDER_CYCLES: usize = 8;

/// Span names of solver work; `trace.solver_share` sums them.
const SOLVER_SPANS: [&str; 2] = ["core.solve", "core.index_topr"];

fn codec_rungs(log: &mut SpanLog, rtt: u32, op_no: u64, query: Query, reply: &Response) {
    let request = Request::Query(WireQuery { id: op_no, query });
    let mut wire = Vec::new();
    log.time("serve.req_encode", Some(rtt), op_no, || {
        protocol::encode_request(&request, &mut wire).expect("encodable request")
    });
    log.time("serve.req_decode", Some(rtt), op_no, || {
        black_box(protocol::decode_request(&wire).expect("decodable request"));
    });
    let mut out = Vec::new();
    log.time("serve.resp_encode", Some(rtt), op_no, || {
        protocol::encode_response(reply, &mut out)
    });
    log.time("serve.resp_decode", Some(rtt), op_no, || {
        black_box(protocol::decode_response(&out).expect("decodable reply"));
    });
}

fn extremum_of(query: &Query) -> Option<Extremum> {
    match query.solver() {
        Ok(Solver::MinPeel) => Some(Extremum::Min),
        Ok(Solver::MaxPeel) => Some(Extremum::Max),
        _ => None,
    }
}

/// Executes each sampled op one layer down at a time by direct public
/// call: TCP round trip → `run_batch_with` → `Engine::plan` →
/// `Query::solve_on` / `ExtremumIndex::topr`. With `cold`, the result
/// cache is cleared before every rung so each one does the op's real
/// work (the `miss_mix` and `churn` case); without, every rung is a
/// cache hit (the `hot_mix` case).
pub fn engine_ladder(stack: &mut Stack, ops: &[Op], cold: bool, log: &mut SpanLog) -> Ladder {
    let engine = Arc::clone(&stack.engine);
    let client = stack.clients.last_mut().expect("a connected client");
    let snapshot = engine.snapshot();
    let pool = ArenaPool::for_graph(snapshot.graph());
    let mut arena = pool.acquire();
    let options = BatchOptions::default();
    let clear = || {
        if cold {
            engine.clear_result_cache();
        }
    };
    let mut ladder = Ladder {
        queries: Vec::new(),
        replies: Vec::new(),
        roots: Vec::new(),
    };
    for (i, op) in ops.iter().enumerate() {
        let (q, op_no) = (op.query, i as u64);
        clear();
        let (rtt, reply) = log.time("serve.rtt", None, op_no, || {
            client.call(op_no, &q).expect("ladder round trip")
        });
        codec_rungs(log, rtt, op_no, q, &reply);
        clear();
        let (run, _) = log.time("engine.run_batch", Some(rtt), op_no, || {
            black_box(engine.run_batch_with(&[q], &options));
        });
        clear();
        log.time("engine.plan", Some(run), op_no, || {
            black_box(engine.plan(&[q]));
        });
        if cold {
            match extremum_of(&q) {
                Some(extremum) => log.time("core.index_topr", Some(run), op_no, || {
                    let index = ExtremumIndex::cached(&snapshot, q.k, extremum);
                    black_box(index.topr(snapshot.weighted(), q.r).expect("index top-r"));
                }),
                None => log.time("core.solve", Some(run), op_no, || {
                    black_box(q.solve_on(&snapshot, &mut arena).expect("direct solve"));
                }),
            };
        }
        ladder.queries.push(q);
        ladder.replies.push(reply);
        ladder.roots.push(rtt);
    }
    ladder
}

fn shard_files(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("list the shard directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "ics1"))
        .collect();
    paths.sort();
    paths
}

/// The `cold_open` ladder, one restart per cycle. Storage rungs:
/// `open_dir` → per shard file `StoreFile::open_with` → `load` →
/// `Graph::from_csr_checked`. Query rungs, first touch on fresh
/// backends: TCP round trip → `ShardedEngine::run_batch_pinned` → per
/// routed shard `ExtremumIndex::topr` → `merge_topr`.
pub fn shard_ladder(dir: &Path, ops: &[Op], log: &mut SpanLog) -> Ladder {
    let paths = shard_files(dir);
    let options = BatchOptions::default();
    let mut ladder = Ladder {
        queries: Vec::new(),
        replies: Vec::new(),
        roots: Vec::new(),
    };
    let per_cycle = ops.len().div_ceil(LADDER_CYCLES);
    let mut op_no = 0u64;
    for chunk in ops.chunks(per_cycle) {
        let (open, direct) = log.time("shard.open_dir", None, op_no, || {
            ShardedEngine::open_dir(dir).expect("open the shard directory")
        });
        let mut shards = Vec::with_capacity(paths.len());
        for path in &paths {
            let (_, file) = log.time("store.open_with", Some(open), op_no, || {
                StoreFile::open_with(path, &ic_store::OpenOptions::mapped()).expect("open a shard")
            });
            let (load, contents) = log.time("store.load", Some(open), op_no, || {
                file.load().expect("load a shard")
            });
            let (offsets, targets) = contents.weighted.graph().csr_parts();
            let (offsets, targets) = (offsets.to_vec(), targets.to_vec());
            log.time("graph.from_csr_checked", Some(load), op_no, || {
                black_box(Graph::from_csr_checked(offsets, targets).expect("a valid CSR"));
            });
            shards.push(contents);
        }
        let served = ShardedEngine::open_dir(dir).expect("open the shard directory");
        let server = Server::bind_backend(Arc::new(served), "127.0.0.1:0", ServeConfig::default())
            .expect("bind a loopback port");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for op in chunk {
            let q = op.query;
            let (rtt, reply) = log.time("serve.rtt", None, op_no, || {
                client.call(op_no, &q).expect("ladder round trip")
            });
            codec_rungs(log, rtt, op_no, q, &reply);
            let (run, _) = log.time("shard.run_batch", Some(rtt), op_no, || {
                black_box(direct.run_batch_pinned(&[q], &options));
            });
            let mut lists = Vec::new();
            for shard in direct.route(q.k) {
                let contents = &shards[shard];
                let forest = contents
                    .forests
                    .iter()
                    .find(|f| f.k() == q.k && Some(f.extremum()) == extremum_of(&q));
                if let Some(forest) = forest {
                    // Shards scatter in parallel, so these rungs overlap
                    // in the served path: the reply waits for the slowest.
                    let (_, list) = log.time("core.index_topr", Some(run), op_no, || {
                        forest.topr(&contents.weighted, q.r).expect("index top-r")
                    });
                    lists.push(list);
                }
            }
            log.time("shard.merge", Some(run), op_no, || {
                black_box(ic_shard::merge_topr(&lists, q.r));
            });
            ladder.queries.push(q);
            ladder.replies.push(reply);
            ladder.roots.push(rtt);
            op_no += 1;
        }
        drop(client);
        server.shutdown();
        server.join();
    }
    ladder
}

/// The highest latency with ten samples beyond it; the highest of all
/// when a machine slowed to a crawl leaves a replay no more than ten.
fn tail_ms(tally: &Tally) -> f64 {
    let mut sorted: Vec<f64> = tally.ops.iter().map(|&(_, ms)| ms).collect();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len().saturating_sub(1 + BEYOND)]
}

pub fn run_traced<W: Workload>(mut w: W, cfg: &RunCfg, traffic: u64) -> Result<Report, String> {
    let scratch = Scratch::new();
    let mut out = Layers::default();
    let mut stack = w.setup(&scratch.0);

    // Two replays of the workload's own client loop, plain then wrapped
    // in spans: the throughput difference is what tracing costs.
    let share = Budget::Seconds(cfg.seconds * 0.4);
    let before = w.counters(&stack);
    let cpu_before = sys::cpu_seconds();
    let plain = w.drive(&mut stack, cfg.seed, share, false);
    let plain_cpu_s = sys::cpu_seconds() - cpu_before;
    let served = w.counters(&stack).since(before);
    // The next seed, or a workload with drawn keys would replay the plain
    // run's ops straight out of the result cache.
    let mut wrapped = w.drive(&mut stack, cfg.seed.wrapping_add(1), share, true);
    out.set("mem.rss_peak_mb", sys::rss_peak_mb());
    let mut log = wrapped.spans.take().expect("a traced drive records spans");

    let ladder = w.ladder(&mut stack, cfg.seed, &mut log);
    let first_answer_ms = if wrapped.first_answer_ms.is_empty() {
        let mut samples: Vec<f64> = (0..5).map(|_| w.first_answer_ms(&scratch.0)).collect();
        median(&mut samples)
    } else {
        median(&mut wrapped.first_answer_ms)
    };
    let verdict = w.check(&mut stack, &plain);
    w.teardown(stack);

    // Replay-derived layer metrics.
    let replies = plain.tally.replies.max(1) as f64;
    out.set(
        "core.verts_per_answer",
        plain.tally.vertices as f64 / replies,
    );
    out.set(
        "engine.cache_hit_share",
        served.cache_hits as f64 / served.queries.max(1) as f64,
    );
    out.set(
        "engine.index_routed_share",
        served.index_routed as f64 / served.queries.max(1) as f64,
    );
    out.set(
        "serve.batch_mean",
        served.admitted as f64 / served.batches.max(1) as f64,
    );
    out.set("serve.batch_max", served.largest_batch as f64);
    out.set(
        "serve.shed_share",
        served.shed as f64 / (served.admitted + served.shed).max(1) as f64,
    );
    out.set("serve.first_answer_ms", first_answer_ms);
    out.set(
        "proc.cpu_ms_per_op",
        plain_cpu_s * 1e3 / plain.window.ops.max(1) as f64,
    );
    out.set("serve.latency_tail_ms", tail_ms(&plain.tally));

    // Ladder arithmetic: a rung's self time is its span minus its
    // children; the round trip's self time is admission wait, queueing
    // and syscalls — everything the engine and the codec did not do.
    let mut rtt_ms: Vec<f64> = ladder
        .roots
        .iter()
        .map(|&r| log.spans[r as usize].ns() as f64 / 1e6)
        .collect();
    let mut residual_us: Vec<f64> = ladder
        .roots
        .iter()
        .map(|&r| log.self_ns(r) as f64 / 1e3)
        .collect();
    let rtt_total: f64 = rtt_ms.iter().sum::<f64>() * 1e6;
    let solver_total: f64 = SOLVER_SPANS
        .iter()
        .flat_map(|name| log.durations(name))
        .sum();
    let mut client_ms: Vec<f64> = log
        .durations("client.op")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    out.set("serve.residual_us", median(&mut residual_us));
    out.set("trace.solver_share", solver_total / rtt_total.max(1.0));
    out.set(
        "trace.coverage",
        median(&mut rtt_ms) / median(&mut client_ms),
    );
    out.set(
        "trace.overhead_share",
        1.0 - wrapped.window.per_second() / plain.window.per_second(),
    );

    let structural = w.structural_graph();
    let solver = w.solver_graph();
    probes::graph_layer(structural, &mut out);
    probes::kcore_layer(structural, solver, &mut out);
    probes::core_layer(structural, solver, &mut out);
    probes::engine_layer(structural, solver, &scratch.0, &mut out);
    probes::store_layer(structural, &scratch.0, &mut out);
    probes::shard_layer(structural, &scratch.0, &mut out);
    probes::sub_layer(solver, &mut out);
    probes::codec_layer(&ladder.queries, &ladder.replies, &mut out);
    probes::write_path(solver, &mut out);
    probes::serving_floor(solver, &mut out);

    out.set("trace.spans", log.spans.len() as f64);
    let path = sys::work_root().join(format!("{}.trace.jsonl", w.name()));
    log.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "trace {}: {} spans -> {}",
        w.name(),
        log.spans.len(),
        path.display()
    );

    // Every per-layer metric, in the order BENCHMARK.json lists them.
    let metrics: Vec<(&'static Metric, f64)> = PER_LAYER
        .iter()
        .map(|m| {
            out.0
                .iter()
                .find(|(have, _)| have.name == m.name)
                .map(|&(_, v)| (m, v))
                .ok_or_else(|| format!("per-layer metric {} was never taken", m.name))
        })
        .collect::<Result<_, _>>()?;
    for (m, v) in &metrics {
        println!("  {:<30} {v:>14.4} {}", m.name, m.unit);
    }
    let tally = &plain.tally;
    let failed = tally.failed + wrapped.tally.failed + verdict.mismatches.len() as u64;
    let attempted = tally.attempted + wrapped.tally.attempted + verdict.checked;
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail: Value::obj([
            ("workload", Value::str(w.name())),
            ("seed", Value::Num(cfg.seed as f64)),
            ("traffic_checksum", Value::Str(format!("{traffic:#018x}"))),
            ("trace_file", Value::Str(path.display().to_string())),
            ("ladder_ops", Value::Num(ladder.roots.len() as f64)),
        ]),
    })
}
