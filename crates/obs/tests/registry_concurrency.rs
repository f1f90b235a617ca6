//! Concurrency properties of the lock-free registry (ISSUE 10): with
//! `thread::scope` workers hammering shared handles,
//!
//! * counters are **exact** under contention (every `add` lands),
//! * histogram totals are **conserved** (snapshot count equals the
//!   number of observations once writers join),
//! * a snapshot read concurrent with writers is never **torn**: its
//!   count is the sum of its own buckets by construction, and counts
//!   only grow monotonically across successive reads.

use ic_obs::{Registry, Stage, Trace};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Counters and gauges: per-thread op counts are drawn randomly;
    /// the final values must match the arithmetic exactly.
    #[test]
    fn counters_are_exact_under_contention(
        per_thread in proptest::collection::vec(1usize..400, 2..8),
    ) {
        let registry = Registry::new();
        let counter = registry.counter("prop.hits");
        let gauge = registry.gauge("prop.level");
        std::thread::scope(|scope| {
            for &ops in &per_thread {
                let counter = counter.clone();
                let gauge = gauge.clone();
                scope.spawn(move || {
                    for i in 0..ops {
                        counter.add(1 + (i % 3) as u64);
                        gauge.add(1);
                        gauge.add(-1);
                    }
                });
            }
        });
        let want: u64 = per_thread
            .iter()
            .map(|&ops| (0..ops).map(|i| 1 + (i % 3) as u64).sum::<u64>())
            .sum();
        prop_assert_eq!(counter.get(), want, "every add must land exactly once");
        prop_assert_eq!(gauge.get(), 0, "balanced adds cancel exactly");
    }

    /// Histograms under contention, with a concurrent snapshot reader:
    /// no observation is lost, and no intermediate snapshot overcounts
    /// or regresses.
    #[test]
    fn histogram_totals_conserved_and_snapshots_untorn(
        per_thread in proptest::collection::vec(1usize..300, 2..8),
        ns_values in proptest::collection::vec(any::<u64>(), 8),
    ) {
        let registry = Registry::new();
        let histogram = registry.histogram("prop.latency_ns");
        let total: usize = per_thread.iter().sum();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // Reader races the writers: every snapshot it takes must be
            // internally consistent and monotone in total count.
            let reader_hist = histogram.clone();
            let done = &done;
            scope.spawn(move || {
                let mut last = 0u64;
                while !done.load(Ordering::Acquire) {
                    let snap = reader_hist.snapshot();
                    let count = snap.count();
                    let bucket_sum: u64 = snap.buckets.iter().sum();
                    assert_eq!(count, bucket_sum, "snapshot must not be torn");
                    assert!(count >= last, "snapshot count regressed {last} -> {count}");
                    assert!(count <= total as u64, "snapshot overcounts");
                    last = count;
                }
            });
            std::thread::scope(|writers| {
                for (t, &ops) in per_thread.iter().enumerate() {
                    let histogram = histogram.clone();
                    let ns_values = &ns_values;
                    writers.spawn(move || {
                        for i in 0..ops {
                            histogram.observe_ns(ns_values[(t + i) % ns_values.len()]);
                        }
                    });
                }
            });
            done.store(true, Ordering::Release);
        });
        let snap = histogram.snapshot();
        prop_assert_eq!(snap.count(), total as u64, "histogram total must be conserved");
        // Quantiles stay inside the observed range's bucket bounds.
        let p99 = snap.p99_ns();
        let max_seen = ns_values.iter().copied().max().unwrap_or(0);
        prop_assert!(p99 <= max_seen.max(1).saturating_mul(2), "p99 {p99} beyond max bucket");
    }

    /// Trace spans and plan cells are additive across scoped workers —
    /// the shape the engine uses (solver workers recording into one
    /// shared `&Trace`).
    #[test]
    fn trace_spans_accumulate_exactly_across_threads(
        per_thread in proptest::collection::vec(1usize..200, 2..8),
    ) {
        let trace = Trace::new();
        std::thread::scope(|scope| {
            for &ops in &per_thread {
                let trace = &trace;
                scope.spawn(move || {
                    for _ in 0..ops {
                        trace.add_ns(Stage::Solve, 3);
                        trace.add_ns(Stage::IndexServe, 1);
                    }
                });
            }
        });
        let total = per_thread.iter().sum::<usize>() as u64;
        prop_assert_eq!(trace.stage_ns(Stage::Solve), 3 * total);
        prop_assert_eq!(trace.stage_ns(Stage::IndexServe), total);
        prop_assert_eq!(trace.total_ns(), 4 * total);
    }
}
