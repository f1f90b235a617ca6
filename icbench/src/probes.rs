//! Layer probes: each per-layer timing is taken here by calling one
//! public function of one workspace crate and timing it from outside.
//! Nothing inside the crates is instrumented.
//!
//! Two graphs are probed. *Structural* probes (CSR, decomposition,
//! forests, stores, shards) run on the workload's own graph, because
//! that is where they cost something; *solver* probes (peels, TIC, local
//! search, the planner, subscriptions, the codec) run on the 10k-vertex
//! graph, because TIC-exact on anything larger runs for minutes.

use crate::inputs::SHARD_KS;
use crate::spec::{layer_metric, Metric};
use crate::stats::median;
use crate::traffic::{self, MissStream, Stream, TogglePool, TOGGLES_PER_UPDATE};
use crate::workloads::build_graph;
use ic_core::algo::ExtremumIndex;
use ic_core::{Aggregation, Community, Extremum, Query};
use ic_engine::{BatchOptions, Engine};
use ic_graph::{connected_components, Graph, WeightedGraph};
use ic_kcore::{core_decomposition, ArenaPool, CoreMaintainer, EdgeUpdate, GraphSnapshot};
use ic_serve::protocol::{self, RESP_PAYLOAD_MAX};
use ic_serve::{Client, Request, Response, ServeConfig, Server, WireQuery};
use ic_shard::ShardedEngine;
use ic_store::{StoreBuilder, StoreFile};
use std::hint::black_box;
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Collected per-layer values, by metric name.
#[derive(Default)]
pub struct Layers(pub Vec<(&'static Metric, f64)>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        let metric = layer_metric(name);
        assert!(
            !self.0.iter().any(|(m, _)| m.name == name),
            "{name} set twice"
        );
        self.0.push((metric, value));
    }
}

fn ms_of(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `reps` timings of `f`, in ms.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps).map(|_| ms_of(&mut f)).collect();
    median(&mut samples)
}

/// Mean ns per call of `f` over `calls` back-to-back calls.
fn ns_per_call(calls: u64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..calls {
        f();
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// Probe repetitions: one on a graph where a single pass takes seconds.
fn reps_for(wg: &WeightedGraph) -> usize {
    if wg.num_vertices() > 100_000 {
        1
    } else {
        5
    }
}

/// The default probe query shape: the paper's default `k` for small
/// datasets and a mid-grid `r`.
const K: usize = 4;
const R: usize = 10;

pub fn graph_layer(wg: &WeightedGraph, out: &mut Layers) {
    let reps = reps_for(wg);
    out.set(
        "graph.csr_build_ms",
        median_ms(reps, || {
            black_box(build_graph(wg));
        }),
    );
    let (offsets, targets) = wg.graph().csr_parts();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (o, t) = (offsets.to_vec(), targets.to_vec());
        samples.push(ms_of(|| {
            black_box(Graph::from_csr_checked(o, t).expect("a valid CSR"));
        }));
    }
    out.set("graph.csr_check_ms", median(&mut samples));
    out.set(
        "graph.components_ms",
        median_ms(reps, || {
            black_box(connected_components(wg.graph()));
        }),
    );
}

pub fn kcore_layer(structural: &WeightedGraph, solver: &WeightedGraph, out: &mut Layers) {
    let reps = reps_for(structural);
    out.set(
        "kcore.decompose_ms",
        median_ms(reps, || {
            black_box(core_decomposition(structural.graph()));
        }),
    );
    let decomp = core_decomposition(structural.graph());
    let shared = Arc::new(structural.clone());
    out.set(
        "kcore.level_ms",
        median_ms(reps, || {
            // A fresh snapshot each time: `level` memoizes.
            let snap = GraphSnapshot::with_decomposition(Arc::clone(&shared), decomp.clone());
            black_box(snap.level(K));
        }),
    );

    // Arena load and the full weight-order peel, on the solver graph's
    // largest 4-core component.
    let snap = GraphSnapshot::new(solver.clone());
    let level = snap.level(K);
    let members = level
        .components
        .iter()
        .max_by_key(|c| c.len())
        .expect("the solver graph has a 4-core");
    let mut order = members.clone();
    order.sort_by(|&a, &b| {
        solver
            .weight(a)
            .total_cmp(&solver.weight(b))
            .then(a.cmp(&b))
    });
    let pool = ArenaPool::for_graph(snap.graph());
    let mut arena = pool.acquire();
    let mut loads = Vec::new();
    let mut peel_ns = Vec::new();
    let mut allocs_after_warm = 0;
    for round in 0..5 {
        let before = arena.alloc_events();
        loads.push(ms_of(|| arena.load(snap.graph(), members, K)));
        let t = Instant::now();
        let mut removed = 0usize;
        for &v in &order {
            removed += arena.remove_cascade(v);
            arena.commit();
        }
        peel_ns.push(t.elapsed().as_nanos() as f64 / removed.max(1) as f64);
        if round > 0 {
            allocs_after_warm += arena.alloc_events() - before;
        }
    }
    out.set("kcore.arena_load_ms", median(&mut loads));
    out.set("kcore.cascade_ns_per_vertex", median(&mut peel_ns));
    out.set("kcore.arena_alloc_events", allocs_after_warm as f64);

    let cores = snap.decomposition();
    let mut pool = TogglePool::new(solver, &cores.core_numbers, 0);
    let mut maintainer = CoreMaintainer::from_graph(solver.graph());
    let toggles: Vec<EdgeUpdate> = (0..64).flat_map(|_| pool.next_update()).collect();
    let t = Instant::now();
    for &toggle in &toggles {
        black_box(maintainer.apply_recorded(toggle));
    }
    out.set(
        "kcore.maintain_us",
        t.elapsed().as_secs_f64() * 1e6 / toggles.len() as f64,
    );
}

pub fn core_layer(structural: &WeightedGraph, solver: &WeightedGraph, out: &mut Layers) {
    let snap = GraphSnapshot::new(solver.clone());
    let pool = ArenaPool::for_graph(snap.graph());
    let mut arena = pool.acquire();
    // Warm the snapshot's level and the arena before timing anything.
    Query::new(K, R, Aggregation::Min)
        .solve_on(&snap, &mut arena)
        .expect("warm-up solve");
    let mut solve = |name: &str, reps: usize, q: Query| {
        let ms = median_ms(reps, || {
            black_box(q.solve_on(&snap, &mut arena).expect("probe solve"));
        });
        out.set(name, ms);
    };
    solve("core.min_peel_ms", 9, Query::new(K, R, Aggregation::Min));
    solve("core.max_peel_ms", 9, Query::new(K, R, Aggregation::Max));
    solve("core.tic_exact_ms", 1, Query::new(K, R, Aggregation::Sum));
    solve(
        "core.tic_eps_ms",
        1,
        Query::new(K, R, Aggregation::Sum).approx(0.1),
    );
    solve(
        "core.local_search_ms",
        3,
        Query::new(K, R, Aggregation::Average).size_bound(20, true),
    );

    let big = GraphSnapshot::new(structural.clone());
    big.level(K);
    out.set(
        "core.index_build_ms",
        median_ms(reps_for(structural), || {
            black_box(ExtremumIndex::build_on(&big, K, Extremum::Min));
        }),
    );
    let index = ExtremumIndex::build_on(&big, K, Extremum::Min);
    out.set(
        "core.index_topr_us",
        median_ms(25, || {
            black_box(index.topr(structural, R).expect("index top-r"));
        }) * 1e3,
    );

    // Repair vs rebuild over a churn script on the solver graph.
    let mut index = ExtremumIndex::build_on(&snap, K, Extremum::Min);
    let mut pool = TogglePool::new(solver, &snap.decomposition().core_numbers, 0);
    let mut maintainer = CoreMaintainer::from_graph(solver.graph());
    let mut repair_ms = Vec::new();
    let (mut repaired, attempts) = (0u32, 32u32);
    for _ in 0..attempts {
        let mut touched: Vec<u32> = Vec::new();
        for toggle in pool.next_update() {
            touched.extend(maintainer.apply_recorded(toggle).touched);
        }
        touched.sort_unstable();
        touched.dedup();
        let new_wg = WeightedGraph::new(maintainer.to_graph(), solver.weights().to_vec())
            .expect("one weight per vertex");
        let t = Instant::now();
        let patched = index.repair(
            &new_wg,
            maintainer.core_numbers(),
            &touched,
            ExtremumIndex::REPAIR_REGION_LIMIT,
        );
        repair_ms.push(t.elapsed().as_secs_f64() * 1e3);
        index = match patched {
            Some(patched) => {
                repaired += 1;
                patched
            }
            None => ExtremumIndex::build(&new_wg, K, Extremum::Min),
        };
    }
    out.set("core.index_repair_ms", median(&mut repair_ms));
    out.set(
        "core.index_repair_share",
        f64::from(repaired) / f64::from(attempts),
    );
}

/// A fixed `miss_mix` batch: the first `n` ops of a constant-seed deck.
fn miss_batch(n: usize) -> Vec<Query> {
    let mut stream = MissStream::new(0xBA7C4, 0, 0..0);
    (0..n).map(|_| stream.next_op().query).collect()
}

pub fn engine_layer(
    structural: &WeightedGraph,
    solver: &WeightedGraph,
    scratch: &Path,
    out: &mut Layers,
) {
    let engine = Engine::with_threads(solver.clone(), 2);
    let batch16 = miss_batch(16);
    engine.run_batch(&[Query::new(K, 1, Aggregation::Min)]); // decomposition + level
    out.set(
        "engine.plan_us",
        median_ms(25, || {
            black_box(engine.plan(&batch16));
        }) * 1e3,
    );
    let hit = [Query::new(K, R, Aggregation::Min)];
    engine.run_batch(&hit);
    out.set(
        "engine.cache_hit_us",
        ns_per_call(2000, || {
            black_box(engine.run_batch_with(&hit, &BatchOptions::default()));
        }) / 1e3,
    );

    let batch = miss_batch(32);
    let cold_ms = |engine: &Engine| {
        engine.run_batch(&batch); // levels, forests, arenas
        engine.clear_result_cache();
        ms_of(|| {
            black_box(engine.run_batch_with(&batch, &BatchOptions::default()));
        })
    };
    let two = cold_ms(&engine);
    let one = cold_ms(&Engine::with_threads(solver.clone(), 1));
    out.set("engine.batch_cold_ms", two);
    out.set("engine.scale_2t", one / two);
    engine.clear_result_cache();
    let stats = engine.plan(&batch).stats;
    out.set(
        "engine.solver_runs_per_query",
        stats.solver_runs as f64 / stats.total_queries as f64,
    );

    let mutable = Engine::with_threads(solver.clone(), 2);
    let mut pool = TogglePool::new(solver, &mutable.snapshot().decomposition().core_numbers, 0);
    out.set(
        "engine.apply_ms",
        median_ms(16, || {
            black_box(mutable.apply_journaled(&pool.next_update()));
        }),
    );

    // Persist and open on the structural graph, warmed as an operator
    // would: levels and both forests at every shard k.
    let warm = Engine::new(structural.clone());
    let forests: Vec<Query> = SHARD_KS
        .iter()
        .flat_map(|&k| [Aggregation::Min, Aggregation::Max].map(|a| Query::new(k, 1, a)))
        .collect();
    for answer in warm.run_batch(&forests) {
        answer.expect("forest warm-up");
    }
    let store = scratch.join("probe.ics1");
    let reps = reps_for(structural);
    out.set(
        "engine.persist_ms",
        median_ms(reps, || warm.persist(&store).expect("persist")),
    );
    out.set(
        "engine.open_ms",
        median_ms(reps.max(3), || {
            black_box(Engine::open(&store).expect("open"));
        }),
    );
}

/// Store probes, on the file `engine_layer` persisted.
pub fn store_layer(structural: &WeightedGraph, scratch: &Path, out: &mut Layers) {
    let reps = reps_for(structural);
    let store = scratch.join("probe.ics1");
    let contents = StoreFile::open(&store)
        .and_then(|f| f.load())
        .expect("load the probe store");
    let rewrite = scratch.join("probe_rewrite.ics1");
    out.set(
        "store.write_ms",
        median_ms(reps, || {
            let mut builder = StoreBuilder::new(&contents.weighted);
            if let Some(decomp) = &contents.decomposition {
                builder.decomposition(decomp);
            }
            for level in &contents.levels {
                builder.level(level);
            }
            for forest in &contents.forests {
                builder.forest(forest.parts());
            }
            builder.write_to(&rewrite).expect("rewrite the probe store");
        }),
    );
    let open = |options: ic_store::OpenOptions| {
        median_ms(reps.max(3), || {
            black_box(StoreFile::open_with(&store, &options).expect("open"));
        })
    };
    out.set(
        "store.open_mapped_ms",
        open(ic_store::OpenOptions::mapped()),
    );
    out.set(
        "store.open_owned_ms",
        open(ic_store::OpenOptions::default()),
    );
    let file = StoreFile::open_with(&store, &ic_store::OpenOptions::mapped()).expect("open");
    out.set(
        "store.load_ms",
        median_ms(reps.max(3), || {
            black_box(file.load().expect("load"));
        }),
    );
    out.set(
        "store.verify_deep_ms",
        ms_of(|| file.verify_deep().expect("verify_deep")),
    );
    out.set(
        "store.bytes_per_edge",
        file.file_len() as f64 / structural.num_edges() as f64,
    );
}

pub fn shard_layer(structural: &WeightedGraph, scratch: &Path, out: &mut Layers) {
    let reps = reps_for(structural);
    let cap = structural.num_vertices() / 3;
    let decomp = core_decomposition(structural.graph());
    out.set(
        "shard.plan_ms",
        median_ms(reps, || {
            black_box(ic_store::shard::plan_shards(
                structural.graph(),
                &decomp,
                cap,
            ));
        }),
    );
    let dir = scratch.join("probe_shards");
    out.set(
        "shard.build_ms",
        median_ms(reps.min(3), || {
            let _ = std::fs::remove_dir_all(&dir);
            ic_store::shard::build_shard_stores(structural, &SHARD_KS, cap, &dir)
                .expect("build probe shards");
        }),
    );
    out.set(
        "shard.open_ms",
        median_ms(5, || {
            black_box(ShardedEngine::open_dir(&dir).expect("open probe shards"));
        }),
    );
    // First touch: a fresh backend per sample.
    let probe = [Query::new(K, R, Aggregation::Min)];
    let options = BatchOptions::default();
    let mut sharded_ms = Vec::new();
    let mut single_ms = Vec::new();
    let store = scratch.join("probe.ics1");
    for _ in 0..5 {
        let sharded = ShardedEngine::open_dir(&dir).expect("open probe shards");
        sharded_ms.push(ms_of(|| {
            black_box(sharded.run_batch_pinned(&probe, &options));
        }));
        let single = Engine::open(&store).expect("open the probe store");
        single_ms.push(ms_of(|| {
            black_box(single.run_batch_pinned(&probe, &options));
        }));
    }
    let (sharded, single) = (median(&mut sharded_ms), median(&mut single_ms));
    out.set("shard.query_ms", sharded);
    out.set("shard.vs_unsharded", sharded / single);

    let backend = ShardedEngine::open_dir(&dir).expect("open probe shards");
    let fanout: usize = SHARD_KS.iter().map(|&k| backend.route(k).len()).sum();
    out.set("shard.fanout_mean", fanout as f64 / SHARD_KS.len() as f64);
    let (_, answers) = backend.run_batch_pinned(&[Query::new(K, 60, Aggregation::Min)], &options);
    let top: Vec<Community> = answers
        .into_iter()
        .next()
        .and_then(Result::ok)
        .expect("top-60 for the merge probe")
        .communities;
    let lists: Vec<Vec<Community>> = (0..3)
        .map(|i| top.iter().skip(i).step_by(3).cloned().collect())
        .collect();
    out.set(
        "shard.merge_us",
        median_ms(25, || {
            black_box(ic_shard::merge_topr(&lists, 20));
        }) * 1e3,
    );
}

pub fn sub_layer(solver: &WeightedGraph, out: &mut Layers) {
    let engine = Arc::new(Engine::with_threads(solver.clone(), 2));
    let manager = ic_sub::SubscriptionManager::new(Arc::clone(&engine));
    for q in traffic::standing_queries() {
        manager.subscribe(q).expect("subscribe a standing query");
    }
    let mut pool = TogglePool::new(solver, &engine.snapshot().decomposition().core_numbers, 0);
    let probe = Query::new(K, 20, Aggregation::Min);
    let before = engine.run_batch(&[probe]).remove(0).expect("answer");
    let mut apply_ms = Vec::new();
    for _ in 0..16 {
        let update = pool.next_update();
        apply_ms.push(ms_of(|| {
            black_box(manager.apply(&update).expect("apply"));
        }));
    }
    let stats = manager.stats();
    out.set("sub.apply_ms", median(&mut apply_ms));
    out.set(
        "sub.pruned_share",
        stats.skipped_total as f64 / (stats.skipped_total + stats.refreshed_total).max(1) as f64,
    );
    out.set(
        "sub.notifications_per_update",
        stats.notifications_total as f64 / stats.applies.max(1) as f64,
    );
    let after = engine.run_batch(&[probe]).remove(0).expect("answer");
    out.set(
        "sub.diff_us",
        ns_per_call(200, || {
            black_box(ic_sub::diff_answers(&before, &after));
        }) / 1e3,
    );
}

/// Codec probes over the workload's own sample: the queries of its
/// first ops and the replies the ladder received for them.
pub fn codec_layer(queries: &[Query], replies: &[Response], out: &mut Layers) {
    let requests: Vec<Request> = queries
        .iter()
        .enumerate()
        .map(|(id, &query)| {
            Request::Query(WireQuery {
                id: id as u64,
                query,
            })
        })
        .collect();
    let mut buf = Vec::new();
    let encoded: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| {
            buf.clear();
            protocol::encode_request(r, &mut buf).expect("encodable request");
            buf.clone()
        })
        .collect();
    let rounds = 200;
    out.set(
        "serve.req_encode_ns",
        ns_per_call(rounds, || {
            for r in &requests {
                buf.clear();
                protocol::encode_request(r, &mut buf).expect("encodable request");
                black_box(&buf);
            }
        }) / requests.len() as f64,
    );
    out.set(
        "serve.req_decode_ns",
        ns_per_call(rounds, || {
            for bytes in &encoded {
                black_box(protocol::decode_request(bytes).expect("decodable request"));
            }
        }) / requests.len() as f64,
    );

    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    let mut render_us = Vec::new();
    let mut bytes = 0usize;
    for reply in replies {
        let mut wire = Vec::new();
        encode_us.push(ms_of(|| protocol::encode_response(reply, &mut wire)) * 1e3);
        bytes += wire.len();
        decode_us.push(
            ms_of(|| {
                black_box(protocol::decode_response(&wire).expect("decodable reply"));
            }) * 1e3,
        );
        render_us.push(
            ms_of(|| {
                black_box(protocol::render_json_response(reply));
            }) * 1e3,
        );
    }
    out.set("serve.resp_encode_us", median(&mut encode_us));
    out.set("serve.resp_decode_us", median(&mut decode_us));
    out.set(
        "serve.reply_bytes_mean",
        bytes as f64 / replies.len() as f64,
    );
    out.set("serve.json_render_us", median(&mut render_us));
    let line = r#"{"id":7,"k":4,"r":10,"agg":"sum_surplus","alpha":0.5}"#;
    protocol::parse_json_request(line).expect("the probe line parses");
    out.set(
        "serve.json_parse_us",
        ns_per_call(2000, || {
            black_box(protocol::parse_json_request(line).expect("parses"));
        }) / 1e3,
    );
}

/// The UPDATE/NOTIFY path through a live server, on a raw connection so
/// NOTIFY frames can be timed as they arrive: 32 standing queries, 48
/// UPDATE frames of 4 toggles.
pub fn write_path(solver: &WeightedGraph, out: &mut Layers) {
    let engine = Arc::new(Engine::new(build_graph(solver)));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default())
        .expect("bind a loopback port");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut buf = Vec::new();
    let mut frame = Vec::new();
    let mut send = |stream: &mut TcpStream, request: &Request| {
        buf.clear();
        protocol::encode_request(request, &mut buf).expect("encodable request");
        protocol::write_frame(stream, &buf).expect("write frame");
    };
    let mut recv = |stream: &mut TcpStream| {
        assert!(
            protocol::read_frame(stream, RESP_PAYLOAD_MAX, &mut frame).expect("read frame"),
            "server closed the probe connection"
        );
        protocol::decode_response(&frame).expect("decodable response")
    };
    for (id, query) in traffic::standing_queries().into_iter().enumerate() {
        send(
            &mut stream,
            &Request::Subscribe(WireQuery {
                id: id as u64,
                query,
            }),
        );
        assert!(matches!(recv(&mut stream), Response::Reply { .. }));
    }
    let mut pool = TogglePool::new(solver, &engine.snapshot().decomposition().core_numbers, 0);
    let mut ack_ms = Vec::new();
    let mut notify_ms = Vec::new();
    let started = Instant::now();
    let updates = 48u64;
    for id in 0..updates {
        let request = Request::Update {
            id: 1000 + id,
            updates: pool.next_update(),
        };
        let sent = Instant::now();
        send(&mut stream, &request);
        loop {
            match recv(&mut stream) {
                Response::Notify(_) => notify_ms.push(sent.elapsed().as_secs_f64() * 1e3),
                Response::UpdateAck { .. } => {
                    ack_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    break;
                }
                other => panic!("unexpected frame on the write probe: {other:?}"),
            }
        }
    }
    out.set(
        "serve.updates_per_s",
        updates as f64 / started.elapsed().as_secs_f64(),
    );
    ack_ms.sort_by(f64::total_cmp);
    out.set("serve.update_p50_ms", ack_ms[ack_ms.len() / 2]);
    // The highest percentile with ten samples beyond it.
    out.set(
        "serve.update_tail_ms",
        ack_ms[ack_ms.len() - 1 - crate::stats::BEYOND],
    );
    assert!(
        !notify_ms.is_empty(),
        "48 updates of {TOGGLES_PER_UPDATE} toggles produced no NOTIFY frame"
    );
    out.set("serve.notify_p50_ms", median(&mut notify_ms));
    drop(stream);
    server.shutdown();
    server.join();
}

/// The admission-window floor (a cached r = 1 query, one in flight) and
/// what the observability layer costs (interleaved replays of a cached
/// min/max mix with `ic_obs` timing on and off).
pub fn serving_floor(solver: &WeightedGraph, out: &mut Layers) {
    let engine = Arc::new(Engine::new(solver.clone()));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default())
        .expect("bind a loopback port");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let floor = Query::new(K, 1, Aggregation::Min);
    client.call(0, &floor).expect("warm the floor query");
    let mut rtt_us: Vec<f64> = (1..=50)
        .map(|id| {
            ms_of(|| {
                black_box(client.call(id, &floor).expect("floor query"));
            }) * 1e3
        })
        .collect();
    out.set("serve.rtt_floor_us", median(&mut rtt_us));

    let templates = traffic::churn_read_templates();
    for (id, q) in templates.iter().enumerate() {
        client.call(1000 + id as u64, q).expect("warm the mix");
    }
    let mut stream = crate::traffic::ZipfStream::churn_reads(0, 7);
    let mut replay = |seconds: f64| {
        let mut tally = crate::client::Tally::default();
        let start = Instant::now();
        let end = crate::client::closed_loop(
            &mut client,
            &mut stream,
            8,
            crate::client::Stop::At(start + std::time::Duration::from_secs_f64(seconds)),
            None,
            &mut tally,
            None,
        );
        assert_eq!(tally.failed, 0, "obs replay op failed");
        tally.attempted as f64 / end.duration_since(start).as_secs_f64()
    };
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        ic_obs::set_enabled(true);
        on.push(replay(0.4));
        ic_obs::set_enabled(false);
        off.push(replay(0.4));
    }
    ic_obs::set_enabled(true);
    out.set(
        "obs.enabled_cost_share",
        1.0 - median(&mut on) / median(&mut off),
    );
    drop(client);
    server.shutdown();
    server.join();

    let registry = ic_obs::Registry::new();
    let counter = registry.counter("icbench.probe.counter");
    out.set(
        "obs.counter_inc_ns",
        ns_per_call(2_000_000, || counter.inc()),
    );
    let histogram = registry.histogram("icbench.probe.histogram");
    let mut ns = 1u64;
    out.set(
        "obs.hist_observe_ns",
        ns_per_call(2_000_000, || {
            ns = ns.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1) >> 40;
            histogram.observe_ns(ns);
        }),
    );
    black_box(registry.flat_entries());
}
