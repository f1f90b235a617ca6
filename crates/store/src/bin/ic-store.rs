//! Operator CLI for `ICS1` store files.
//!
//! ```text
//! ic-store build   --dataset email [--profile quick|full] --out email.ics1
//! ic-store build   --edges graph.txt [--weights w.txt] --k 4,6 --out g.ics1
//! ic-store build   --stream chunglu:1000000:5000000:2.5:42 --k 8 \
//!                  --shards-out shards/ [--shard-cap 262144]
//! ic-store inspect <file> [--mmap]
//! ic-store verify  <file>
//! ic-store query   <file> --k 6 --r 5 --agg min|max|sum [--epsilon 0.1] [--mmap]
//! ```
//!
//! `build` precomputes the serving state: decomposition, one core level
//! and a min + max community forest per requested `k` (`--k` defaults
//! to the dataset's default k and is required for `--edges` and
//! `--stream` input). `--stream` generates a multi-million-node graph
//! with the two-pass bounded-memory emission (`ic_gen::stream`) —
//! specs: `chunglu:<n>:<m>:<gamma>:<seed>`, `ba:<n>:<m>:<seed>`,
//! `gnm:<n>:<m>:<seed>`; weights are seeded Pareto. `--shards-out`
//! writes a directory of per-shard stores (component-partitioned, see
//! `ic_store::shard`) instead of one file — the full edge list is
//! never materialized on this path. `inspect` prints per-section
//! offsets, byte sizes, and alignment — exactly what a mapped open
//! will touch. `verify` runs the deep re-derivation check on top of
//! the envelope validation. `query` serves straight from the artifact
//! — forests answer `min`/`max` in output-sensitive time; other
//! aggregations route through the ordinary solver on the loaded graph.
//! `--mmap` opens the file memory-mapped with per-section lazy
//! verification instead of the bulk owned-buffer read.

use ic_core::algo::ExtremumIndex;
use ic_core::{Aggregation, Community, Query};
use ic_gen::datasets::{by_name, Profile};
use ic_gen::{pareto_weights, stream_graph, GraphSeed, StreamSpec};
use ic_graph::WeightedGraph;
use ic_kcore::GraphSnapshot;
use ic_store::shard::{build_shard_stores, DEFAULT_MAX_SHARD_VERTICES};
use ic_store::{OpenOptions, SectionKind, StoreFile, WarmState};
use std::process::ExitCode;
use std::time::Instant;

fn fail(msg: &str) -> ExitCode {
    eprintln!("ic-store: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    // Last-resort guard: an operator tool reports one typed line and a
    // nonzero exit, never a backtrace. Every expected failure below
    // already routes through `fail`; this catches the unexpected rest.
    // The default hook would print "thread 'main' panicked ..." before
    // unwinding reaches us, so silence it first.
    std::panic::set_hook(Box::new(|_| {}));
    match std::panic::catch_unwind(run) {
        Ok(code) => code,
        Err(payload) => {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unexpected internal error".to_string());
            fail(&format!("internal error: {detail}"))
        }
    }
}

fn run() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return fail(
            "usage: ic-store <build|inspect|verify|query> ... (see the crate docs for flags)",
        );
    };
    match command.as_str() {
        "build" => build(&args[1..]),
        "inspect" => inspect(&args[1..]),
        "verify" => verify(&args[1..]),
        "query" => query(&args[1..]),
        other => fail(&format!("unknown command {other:?}")),
    }
}

/// Pulls `--flag value` out of an argument list.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Valueless flag presence (`--mmap`). Valueless flags must follow the
/// positional argument — `positional` assumes every `--flag` carries a
/// value.
fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// First argument that is neither a `--flag` nor a flag's value.
fn positional(args: &[String]) -> Option<&str> {
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2; // skip the flag and its value
        } else {
            return Some(&args[i]);
        }
    }
    None
}

/// Parses a streaming generator spec: `chunglu:<n>:<m>:<gamma>:<seed>`,
/// `ba:<n>:<m>:<seed>`, or `gnm:<n>:<m>:<seed>`.
fn parse_stream_spec(spec: &str) -> Result<StreamSpec, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |s: &str| -> Result<usize, String> {
        s.parse().map_err(|_| format!("malformed number {s:?}"))
    };
    match parts.as_slice() {
        ["chunglu", n, m, gamma, seed] => Ok(StreamSpec::ChungLu {
            n: num(n)?,
            target_m: num(m)?,
            gamma: gamma
                .parse()
                .map_err(|_| format!("malformed gamma {gamma:?}"))?,
            seed: GraphSeed(num(seed)? as u64),
        }),
        ["ba", n, m, seed] => Ok(StreamSpec::BarabasiAlbert {
            n: num(n)?,
            m: num(m)?,
            seed: GraphSeed(num(seed)? as u64),
        }),
        ["gnm", n, m, seed] => Ok(StreamSpec::Gnm {
            n: num(n)?,
            target_m: num(m)?,
            seed: GraphSeed(num(seed)? as u64),
        }),
        _ => Err(format!(
            "unknown stream spec {spec:?} (expected chunglu:<n>:<m>:<gamma>:<seed>, \
             ba:<n>:<m>:<seed>, or gnm:<n>:<m>:<seed>)"
        )),
    }
}

fn build(args: &[String]) -> ExitCode {
    let out = flag_value(args, "--out").map(str::to_string);
    let shards_out = flag_value(args, "--shards-out").map(str::to_string);
    if out.is_some() == shards_out.is_some() {
        return fail("build requires exactly one of --out <path> or --shards-out <dir>");
    }
    let sources = [
        flag_value(args, "--dataset"),
        flag_value(args, "--edges"),
        flag_value(args, "--stream"),
    ];
    if sources.iter().filter(|s| s.is_some()).count() != 1 {
        return fail(
            "build requires exactly one of --dataset <name>, --edges <file>, or --stream <spec>",
        );
    }
    let (wg, default_ks): (WeightedGraph, Vec<usize>) =
        if let Some(name) = flag_value(args, "--dataset") {
            let profile = match flag_value(args, "--profile").unwrap_or("quick") {
                "quick" => Profile::Quick,
                "full" => Profile::Full,
                other => return fail(&format!("unknown profile {other:?}")),
            };
            let Some(spec) = by_name(profile, name) else {
                return fail(&format!("unknown dataset {name:?}"));
            };
            eprintln!("[build] generating dataset {name} ({:?}) ...", profile);
            (spec.generate_weighted(), vec![spec.default_k])
        } else if let Some(edges) = flag_value(args, "--edges") {
            let g = match ic_graph::io::read_edge_list_file(edges) {
                Ok(g) => g,
                Err(e) => return fail(&format!("reading {edges}: {e}")),
            };
            let wg = match flag_value(args, "--weights") {
                Some(wpath) => {
                    let f = match std::fs::File::open(wpath) {
                        Ok(f) => f,
                        Err(e) => return fail(&format!("opening {wpath}: {e}")),
                    };
                    let w = match ic_graph::io::read_weights(f) {
                        Ok(w) => w,
                        Err(e) => return fail(&format!("reading {wpath}: {e}")),
                    };
                    match WeightedGraph::new(g, w) {
                        Ok(wg) => wg,
                        Err(e) => return fail(&format!("pairing weights: {e}")),
                    }
                }
                None => WeightedGraph::unit_weights(g),
            };
            (wg, vec![])
        } else {
            let raw = flag_value(args, "--stream").expect("source count checked above");
            let spec = match parse_stream_spec(raw) {
                Ok(s) => s,
                Err(msg) => return fail(&msg),
            };
            let t = Instant::now();
            let g = stream_graph(&spec);
            eprintln!(
                "[build] streamed {} vertices, {} edges in {:.2?} (two-pass, no edge list)",
                g.num_vertices(),
                g.num_edges(),
                t.elapsed()
            );
            let seed = match spec {
                StreamSpec::ChungLu { seed, .. }
                | StreamSpec::BarabasiAlbert { seed, .. }
                | StreamSpec::Gnm { seed, .. } => seed,
            };
            // Weight seed is derived from (not equal to) the structure seed so
            // the two RNG streams never collide; alpha 1.5 gives the heavy tail
            // the paper's influence values exhibit.
            let w = pareto_weights(
                g.num_vertices(),
                1.5,
                GraphSeed(seed.0 ^ 0x9e37_79b9_7f4a_7c15),
            );
            let wg = match WeightedGraph::new(g, w) {
                Ok(wg) => wg,
                Err(e) => return fail(&format!("pairing streamed weights: {e}")),
            };
            (wg, vec![])
        };

    let ks: Vec<usize> = match flag_value(args, "--k") {
        Some(spec) => {
            let parsed: Result<Vec<usize>, _> =
                spec.split(',').map(|s| s.trim().parse::<usize>()).collect();
            match parsed {
                Ok(ks) if !ks.is_empty() && ks.iter().all(|&k| k > 0) => ks,
                _ => return fail("--k takes a comma-separated list of positive integers"),
            }
        }
        None if !default_ks.is_empty() => default_ks,
        None => {
            return fail(
                "--k is required with --edges and --stream input (there is no sensible \
                 default degree constraint for an arbitrary graph)",
            )
        }
    };

    if let Some(dir) = shards_out {
        let cap = match flag_value(args, "--shard-cap") {
            Some(s) => match s.parse::<usize>() {
                Ok(c) if c > 0 => c,
                _ => return fail("--shard-cap takes a positive integer"),
            },
            None => DEFAULT_MAX_SHARD_VERTICES,
        };
        let t = Instant::now();
        let paths = match build_shard_stores(&wg, &ks, cap, std::path::Path::new(&dir)) {
            Ok(p) => p,
            Err(e) => return fail(&format!("building shards in {dir}: {e}")),
        };
        let total: u64 = paths
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok().map(|m| m.len()))
            .sum();
        println!(
            "wrote {} shard(s) to {dir}: {} vertices, {} edges, k = {ks:?}, cap {cap}, \
             {total} bytes ({:.2?})",
            paths.len(),
            wg.num_vertices(),
            wg.num_edges(),
            t.elapsed()
        );
        return ExitCode::SUCCESS;
    }
    let out = out.expect("exactly one output target checked above");

    let t = Instant::now();
    let snap = GraphSnapshot::new(wg);
    let warm = WarmState::at(&snap, &ks);
    eprintln!(
        "[build] precomputed decomposition, levels and forests at k = {ks:?} in {:.2?}",
        t.elapsed()
    );

    let t = Instant::now();
    if let Err(e) = warm.builder().write_to(&out) {
        return fail(&format!("writing {out}: {e}"));
    }
    let size = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "wrote {out}: {} vertices, {} edges, k = {ks:?}, {size} bytes ({:.2?})",
        snap.weighted().num_vertices(),
        snap.weighted().num_edges(),
        t.elapsed()
    );
    ExitCode::SUCCESS
}

fn inspect(args: &[String]) -> ExitCode {
    let Some(path) = positional(args) else {
        return fail("inspect requires a store path");
    };
    let t = Instant::now();
    let file = if has_flag(args, "--mmap") {
        match StoreFile::open_with(path, &OpenOptions::mapped()) {
            Ok(f) => f,
            Err(e) => return fail(&format!("{path}: {e}")),
        }
    } else {
        match StoreFile::open(path) {
            Ok(f) => f,
            Err(e) => return fail(&format!("{path}: {e}")),
        }
    };
    let h = file.header();
    println!(
        "{path}: ICS1 v{}, {} bytes, {} sections, checksum {:#018x} \
         ({} backing, {} verification, opened in {:.2?})",
        h.version,
        file.file_len(),
        h.section_count,
        h.checksum,
        file.backing_kind(),
        if file.is_lazy_verified() {
            "lazy per-section"
        } else {
            "eager whole-file"
        },
        t.elapsed()
    );
    // Each row is one region an mmap open will fault in on first touch:
    // offset + length say where, alignment says whether the typed view
    // can validate in place (8 = every section the builder writes).
    println!(
        "  {:<14}{:<12} {:>10}  {:>12}  {:>5}",
        "section", "params", "offset", "bytes", "align"
    );
    for s in file.sections() {
        let kind = s
            .known_kind()
            .map(SectionKind::name)
            .unwrap_or("unknown-kind");
        let param = match s.known_kind() {
            Some(SectionKind::Level) => format!(" k={}", s.k),
            Some(SectionKind::Forest) => {
                format!(" k={} dir={}", s.k, if s.dir == 0 { "min" } else { "max" })
            }
            _ => String::new(),
        };
        let align = 1u64 << (s.offset | 64).trailing_zeros();
        println!(
            "  {kind:<14}{param:<12} {:>10}  {:>12}  {:>5}",
            s.offset, s.len, align
        );
    }
    if !file.has_section_sums() {
        println!("  (no section-sums table: lazy mapped verification unavailable)");
    }
    if let Ok((n, m)) = file.graph_meta() {
        println!("  graph: {n} vertices, {m} edges");
    }
    ExitCode::SUCCESS
}

fn verify(args: &[String]) -> ExitCode {
    let Some(path) = positional(args) else {
        return fail("verify requires a store path");
    };
    let t = Instant::now();
    let file = match StoreFile::open(path) {
        Ok(f) => f,
        Err(e) => return fail(&format!("{path}: envelope verification failed: {e}")),
    };
    println!("{path}: envelope + checksum ok ({:.2?})", t.elapsed());
    let t = Instant::now();
    match file.verify_deep() {
        Ok(()) => {
            println!(
                "{path}: deep verification ok — every persisted structure matches a fresh \
                 re-derivation ({:.2?})",
                t.elapsed()
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("{path}: deep verification failed: {e}")),
    }
}

fn print_top(top: &[Community]) {
    for (i, c) in top.iter().enumerate() {
        let preview: Vec<_> = c.vertices.iter().take(8).collect();
        println!(
            "  #{:<3} value {:>14.6}  {:>6} members  {:?}{}",
            i + 1,
            c.value,
            c.len(),
            preview,
            if c.len() > 8 { " ..." } else { "" }
        );
    }
}

fn query(args: &[String]) -> ExitCode {
    let Some(path) = positional(args) else {
        return fail("query requires a store path");
    };
    let k: usize = match flag_value(args, "--k").map(str::parse) {
        Some(Ok(k)) => k,
        _ => return fail("query requires --k <positive integer>"),
    };
    let r: usize = match flag_value(args, "--r").map(str::parse) {
        Some(Ok(r)) => r,
        _ => return fail("query requires --r <positive integer>"),
    };
    let agg = match flag_value(args, "--agg").unwrap_or("min") {
        "min" => Aggregation::Min,
        "max" => Aggregation::Max,
        "sum" => Aggregation::Sum,
        other => return fail(&format!("--agg must be min|max|sum, got {other:?}")),
    };
    let epsilon: f64 = match flag_value(args, "--epsilon").map(str::parse) {
        Some(Ok(e)) => e,
        Some(Err(_)) => return fail("--epsilon takes a float"),
        None => 0.0,
    };
    // One validation gate for both serving paths below — the
    // index-served branch must reject exactly what the solver router
    // rejects (k = 0, r = 0, ε out of range, ε on a peel aggregation).
    let q = Query::new(k, r, agg).approx(epsilon);
    if let Err(e) = q.validate() {
        return fail(&format!("invalid query: {e}"));
    }

    let t_open = Instant::now();
    let file = if has_flag(args, "--mmap") {
        match StoreFile::open_with(path, &OpenOptions::mapped()) {
            Ok(f) => f,
            Err(e) => return fail(&format!("{path}: {e}")),
        }
    } else {
        match StoreFile::open(path) {
            Ok(f) => f,
            Err(e) => return fail(&format!("{path}: {e}")),
        }
    };
    let backing = file.backing_kind();
    let contents = match file.load() {
        Ok(c) => c,
        Err(e) => return fail(&format!("{path}: {e}")),
    };
    let snap = contents.into_snapshot();
    let opened = t_open.elapsed();

    let extremum = agg.certificates().peel_extremum;
    let t_query = Instant::now();
    if let (Some(dir), true) = (extremum, epsilon == 0.0) {
        // Index-served: output-sensitive answer from the persisted (or
        // lazily built) forest — the same bits the peel would produce.
        let forest = ExtremumIndex::cached(&snap, k, dir);
        match forest.topr(snap.weighted(), r) {
            Ok(top) => {
                println!(
                    "opened {path} ({backing}) in {opened:.2?}; index-served top-{r} \
                     ({}, k={k}) in {:.2?}:",
                    agg.name(),
                    t_query.elapsed()
                );
                print_top(&top);
                ExitCode::SUCCESS
            }
            Err(e) => fail(&format!("query failed: {e}")),
        }
    } else {
        let mut arena = ic_kcore::PeelArena::for_graph(snap.graph());
        match q.solve_on(&snap, &mut arena) {
            Ok(top) => {
                println!(
                    "opened {path} ({backing}) in {opened:.2?}; solver-served top-{r} \
                     ({}, k={k}) in {:.2?}:",
                    agg.name(),
                    t_query.elapsed()
                );
                print_top(&top);
                ExitCode::SUCCESS
            }
            Err(e) => fail(&format!("query failed: {e}")),
        }
    }
}
