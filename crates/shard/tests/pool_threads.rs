//! The engine's worker pool leaks no thread: engines and sharded fronts
//! that are built, used and dropped leave the process with the threads
//! it had. Alone in its binary, so no other test's threads move the
//! count in `/proc/self/task`.

use ic_core::{Aggregation, Query};
use ic_engine::{AnswerSink, BatchOptions, Engine, QueryBackend};
use ic_shard::ShardedEngine;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |tasks| tasks.count())
}

/// The thread count once it has settled at `baseline`, or whatever it
/// still is after a second: a joined thread can outlive its join in
/// `/proc` by a moment.
fn settled(baseline: usize) -> usize {
    let start = Instant::now();
    while threads() != baseline && start.elapsed() < Duration::from_secs(1) {
        std::thread::sleep(Duration::from_millis(1));
    }
    threads()
}

fn email_graph() -> ic_graph::WeightedGraph {
    ic_gen::datasets::by_name(ic_gen::datasets::Profile::Quick, "email")
        .expect("email analog exists")
        .generate_weighted()
}

#[test]
fn dropped_engines_and_shard_fronts_leave_no_thread_behind() {
    if !std::path::Path::new("/proc/self/task").exists() {
        return;
    }
    let wg = email_graph();
    let dir = std::env::temp_dir().join(format!("ic-pool-threads-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let built = ic_store::shard::build_shard_stores(&wg, &[2, 4], 1000, &dir).unwrap();
    assert_eq!(built.len(), 3);
    let batch = [
        Query::new(4, 3, Aggregation::Min),
        Query::new(4, 3, Aggregation::Max),
        Query::new(2, 2, Aggregation::Sum),
    ];
    let baseline = threads();
    for round in 0..50 {
        match round % 5 {
            // Dropping an engine waits for the batches it was handed.
            0 => {
                let engine = Engine::with_threads(wg.clone(), 2);
                let answered = Arc::new(AtomicUsize::new(0));
                let sink: AnswerSink = {
                    let answered = Arc::clone(&answered);
                    Arc::new(move |_, answers| {
                        answered.fetch_add(answers.len(), Ordering::Relaxed);
                    })
                };
                engine.submit(&batch, &BatchOptions::default(), Arc::default(), sink);
                drop(engine);
                assert_eq!(
                    answered.load(Ordering::Relaxed),
                    batch.len(),
                    "round {round}"
                );
            }
            1 => {
                let engine = Engine::with_threads(wg.clone(), 3);
                assert!(engine.run_batch(&batch).iter().all(Result::is_ok));
            }
            // An idle open starts no worker, and no batch spawns one: a
            // leg runs on its shard engine's pool, started by the
            // engine's first leg and never grown.
            2 => {
                let workers = 2 * built.len();
                let sharded = ShardedEngine::open_dir_with(&dir, workers).unwrap();
                assert_eq!(settled(baseline), baseline, "round {round}: an idle open");
                for _ in 0..20 {
                    let sink: AnswerSink = Arc::new(|_, _| {});
                    sharded.submit(&batch, &BatchOptions::default(), Arc::default(), sink);
                    assert!(
                        threads() <= baseline + workers,
                        "round {round}: a thread per batch"
                    );
                }
            }
            3 => {
                let sharded = ShardedEngine::open_dir_with(&dir, 6).unwrap();
                let (_, got) = sharded.run_batch_pinned(&batch, &BatchOptions::default());
                assert!(got.iter().all(Result::is_ok));
            }
            _ => drop(Engine::with_threads(wg.clone(), 4)),
        }
        assert_eq!(settled(baseline), baseline, "round {round}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
