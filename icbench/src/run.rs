//! One run of one workload in this process: the untraced run that
//! yields the end-to-end metrics, or the traced run that yields the
//! per-layer ones.

use crate::json::Value;
use crate::spec::{self, Metric, END_TO_END};
use crate::stats::{median, sliced_percentile, slices, Slice, Track};
use crate::sys::{self, Scratch};
use crate::workloads::{self, Budget, Churn, ColdOpen, HotMix, MissMix, Workload};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run reports: the contract's result line plus the sample counts
/// and fingerprints the suite commands copy into their result files.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static Metric, f64)>,
    pub detail: Value,
}

impl Report {
    /// The last line of a run's standard output.
    pub fn result_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|(m, v)| {
                    (
                        m.name,
                        Value::obj([("value", Value::Num(*v)), ("unit", Value::str(m.unit))]),
                    )
                })),
            ),
        ])
        .render()
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of the machine's CPU time the hypervisor may take during a
/// slice before the slice is dropped. The build box reads 0.1–0.7% in a
/// quiet hour, 1–4% in an ordinary one and 15–35% in a storm.
const STEAL_LIMIT: f64 = 0.05;
/// Longest a run waits for the machine to quieten before its window...
const QUIET_WAIT: Duration = Duration::from_secs(90);
/// ...and the runs of one checkout together, in any hour. A storm lasts
/// one to ten minutes and there are several in an afternoon, so a wait
/// every run could afford (the driver's 92 runs and two builds have a
/// quarter of an hour to spare in their 57 minutes) would outlast none
/// of them; pooled, the spare time carries a run or two across one.
const QUIET_WAIT_PER_HOUR: f64 = 450.0;
/// A window runs on past `--seconds` while less than this share of it
/// was quiet...
const QUIET_SHARE: f64 = 0.6;
/// ...by at most this share of `--seconds`.
const EXTEND: f64 = 1.0 / 3.0;

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    if sys::nproc() < spec::CLIENTS {
        return Err(format!(
            "the load model needs {} cores (two client threads beside the server), found {}",
            spec::CLIENTS,
            sys::nproc()
        ));
    }
    match cfg.workload.as_str() {
        spec::HOT_MIX => run_workload(
            HotMix {
                graph: workloads::small_input()?,
            },
            cfg,
        ),
        spec::MISS_MIX => run_workload(
            MissMix {
                graph: workloads::small_input()?,
            },
            cfg,
        ),
        spec::COLD_OPEN => run_workload(
            ColdOpen {
                graph: workloads::large_input()?,
                small: cfg.trace.then(workloads::small_input).transpose()?,
                served: Default::default(),
            },
            cfg,
        ),
        spec::CHURN => run_workload(Churn::new(workloads::small_input()?), cfg),
        other => Err(format!(
            "unknown workload {other:?}; the workloads are {:?}",
            spec::WORKLOADS
        )),
    }
}

fn run_workload<W: Workload>(w: W, cfg: &RunCfg) -> Result<Report, String> {
    let traffic = w.traffic_checksum(cfg.seed);
    println!(
        "traffic {}: seed={} first-1000-ops checksum={traffic:#018x}",
        w.name(),
        cfg.seed
    );
    let pinned = spec::TRAFFIC_PRINTS[spec::workload_index(w.name()).expect("known workload")];
    if cfg.seed == spec::DEFAULT_SEED && traffic != pinned {
        return Err(format!(
            "{} traffic under the default seed drifted: got {traffic:#018x}, pinned {pinned:#018x}",
            w.name()
        ));
    }
    if cfg.trace {
        crate::layers::run_traced(w, cfg, traffic)
    } else {
        run_untraced(w, cfg, traffic)
    }
}

/// CPU ticks (USER_HZ, which Linux fixes at 100) the machine has to
/// give per second.
fn ticks_per_second() -> f64 {
    100.0 * sys::stat_cpus() as f64
}

/// Hands a token back and forth between two threads for `span` and
/// returns the share of the machine's CPU time the hypervisor took
/// meanwhile. The load has to look like the served one: an idle machine
/// shows no steal at all (time is stolen only from a core that wants to
/// run), and one that spins shows a tenth of what the server sees in the
/// same minute, because most of it is taken when a sleeping core is woken
/// — which is what a server's threads do to each other, op after op.
fn stolen_under_load(span: Duration) -> f64 {
    let before = sys::steal_ticks();
    let started = Instant::now();
    let (to_partner, from_main) = mpsc::channel::<bool>();
    let (to_main, from_partner) = mpsc::channel::<bool>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(more) = from_main.recv() {
                if to_main.send(more).is_err() || !more {
                    break;
                }
            }
        });
        loop {
            let more = started.elapsed() < span;
            let returned = to_partner.send(more).is_ok() && from_partner.recv().is_ok();
            if !more || !returned {
                break;
            }
        }
    });
    (sys::steal_ticks() - before) / (started.elapsed().as_secs_f64() * ticks_per_second())
}

/// Holds the window back while the hypervisor is taking more than
/// [`STEAL_LIMIT`] of the machine, during which every slice would be
/// dropped — but for at most [`QUIET_WAIT`], and less when the runs of
/// the last hour have used up [`QUIET_WAIT_PER_HOUR`]. One probe, a
/// second, where `/proc/stat` reports no steal.
fn wait_for_quiet() {
    let ledger = sys::WaitLedger::open(Duration::from_secs(3600));
    let allowance = (QUIET_WAIT_PER_HOUR - ledger.spent()).clamp(0.0, QUIET_WAIT.as_secs_f64());
    let probe = Duration::from_secs(1);
    let started = Instant::now();
    let mut probes = 0;
    loop {
        let quiet = stolen_under_load(probe) <= STEAL_LIMIT;
        probes += 1;
        let waited = started.elapsed().as_secs_f64();
        if quiet || waited >= allowance {
            println!(
                "waited {waited:.1} s of at most {allowance:.0} s for a quiet machine ({})",
                if quiet { "got one" } else { "gave up" }
            );
            if probes > 1 {
                ledger.record(waited);
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(500));
    }
}

/// Seconds of a steal track, in blocks of ten sampling intervals (one
/// second), during which the hypervisor took no more than
/// [`STEAL_LIMIT`] of the machine.
fn quiet_seconds(stolen: &[(Instant, f64)]) -> f64 {
    let per_second = ticks_per_second();
    (0..stolen.len().saturating_sub(1) / 10)
        .map(|block| (stolen[10 * block], stolen[10 * block + 10]))
        .map(|((from, before), (to, after))| {
            (to.duration_since(from).as_secs_f64(), after - before)
        })
        .filter(|(span, ticks)| *ticks <= STEAL_LIMIT * span * per_second)
        .map(|(span, _)| span)
        .sum()
}

/// Clears a flag when dropped, so a thread waiting on it is released
/// even if this one unwinds.
struct ClearOnDrop<'a>(&'a AtomicBool);

impl Drop for ClearOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

/// Runs `f`, a drive that issues ops until `done` is raised, while a
/// second thread samples ten times a second the CPU ticks the hypervisor
/// took from the machine. That thread raises `done` after `seconds` — or
/// later, by up to [`EXTEND`], while less than [`QUIET_SHARE`] of the
/// window was quiet: a window that a storm crossed runs on to collect
/// undisturbed slices. (The calling thread only waits for client threads
/// in `f`.)
fn watched<R>(seconds: f64, done: &AtomicBool, f: impl FnOnce() -> R) -> (R, Track) {
    let driving = AtomicBool::new(true);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let started = Instant::now();
            let mut stolen = vec![(started, sys::steal_ticks())];
            while driving.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(100));
                stolen.push((Instant::now(), sys::steal_ticks()));
                let elapsed = started.elapsed().as_secs_f64();
                let quiet_enough = quiet_seconds(&stolen) >= QUIET_SHARE * seconds;
                if elapsed >= seconds && (quiet_enough || elapsed >= seconds * (1.0 + EXTEND)) {
                    done.store(true, Ordering::Relaxed);
                }
            }
            Track(stolen)
        });
        let out = {
            let _released = ClearOnDrop(&driving);
            f()
        };
        (out, sampler.join().expect("sampler panicked"))
    })
}

/// The slices a run reports from. A slice during which the hypervisor
/// took more than [`STEAL_LIMIT`] of the machine is a measurement of the
/// neighbours and is dropped — unless that leaves fewer than half of
/// them or fewer than three, in which case the least disturbed half
/// (or three) stand.
fn quiet_slices<'a>(cut: &'a [Slice], stolen: &Track) -> Vec<&'a Slice> {
    let per_second = ticks_per_second();
    let share = |s: &Slice| stolen.over(s) / (s.seconds() * per_second);
    let mut kept: Vec<&Slice> = cut.iter().collect();
    kept.sort_by(|a, b| share(a).total_cmp(&share(b)));
    let quiet = kept.partition_point(|s| share(s) <= STEAL_LIMIT);
    kept.truncate(quiet.max(cut.len().div_ceil(2)).max(3));
    kept
}

fn run_untraced<W: Workload>(mut w: W, cfg: &RunCfg, traffic: u64) -> Result<Report, String> {
    let scratch = Scratch::new();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = stack.take() {
            w.teardown(previous);
        }
        let t = Instant::now();
        stack = Some(w.setup(&scratch.0));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut stack = stack.expect("at least one set-up");

    wait_for_quiet();
    let done = AtomicBool::new(false);
    let (driven, stolen) = watched(cfg.seconds, &done, || {
        w.drive(&mut stack, cfg.seed, Budget::Until(&done), false)
    });

    let verdict = w.check(&mut stack, &driven);
    w.teardown(stack);

    let tally = &driven.tally;
    // Every end-to-end timing is a median over equal-work slices.
    let mut ops = tally.ops.clone();
    let mut cut = slices(driven.window.start, &mut ops, w.slice_ops());
    if cut.len() < 3 {
        // Too slow a machine (or too short a window) for a median of
        // slices: the whole window stands as the one slice.
        let all = ops.len().max(1);
        cut = slices(driven.window.start, &mut ops, all);
    }
    let every = cut.first().map_or(0, |s| s.latencies_ms.len());
    let kept = quiet_slices(&cut, &stolen);
    let mut sorted: Vec<f64> = kept
        .iter()
        .flat_map(|s| s.latencies_ms.iter().copied())
        .collect();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return Err(format!(
            "{}: no op completed in a window of {:.1} s",
            w.name(),
            driven.window.seconds()
        ));
    }
    let latency = |p: f64, name: &str| {
        let got = sliced_percentile(&kept, &sorted, p).expect("the window has samples");
        if !got.supported {
            eprintln!(
                "icbench: {}: {} samples are too few for {name} (fewer than ten lie beyond \
                 it); reporting it all the same",
                w.name(),
                sorted.len()
            );
        }
        got.value
    };
    let mut slice_qps: Vec<f64> = kept.iter().map(|s| every as f64 / s.seconds()).collect();
    let values = [
        median(&mut setups),
        median(&mut slice_qps),
        latency(0.50, "latency_p50_ms"),
        latency(0.95, "latency_p95_ms"),
    ];
    println!(
        "{}: {} of {} slices of {every} ops kept ({:.0} ticks stolen); whole-window qps {:.4}",
        w.name(),
        kept.len(),
        cut.len(),
        cut.iter().map(|s| stolen.over(s)).sum::<f64>(),
        driven.window.per_second(),
    );
    let metrics: Vec<(&'static Metric, f64)> = END_TO_END.iter().zip(values).collect();

    let failed = tally.failed + verdict.mismatches.len() as u64;
    let attempted = tally.attempted + verdict.checked;
    println!(
        "{}: window {:.3} s, {} ops attempted, {} failed, {} answers checked, {} mismatched",
        w.name(),
        driven.window.seconds(),
        tally.attempted,
        tally.failed,
        verdict.checked,
        verdict.mismatches.len()
    );
    for (m, v) in &metrics {
        println!(
            "  {:<16} {v:>14.4} {:<4} ({} is better, bound {:.0}%, n={})",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            match m.name {
                "setup_s" => SETUP_REPS,
                "qps" => kept.len(),
                _ => sorted.len(),
            }
        );
    }
    let detail = Value::obj([
        ("workload", Value::str(w.name())),
        ("seed", Value::Num(cfg.seed as f64)),
        ("window_s", Value::Num(driven.window.seconds())),
        ("samples", Value::Num(sorted.len() as f64)),
        ("slices", Value::Num(cut.len() as f64)),
        ("slices_kept", Value::Num(kept.len() as f64)),
        (
            "slice_qps",
            Value::Arr(
                cut.iter()
                    .map(|s| Value::Num((every as f64 / s.seconds()).round()))
                    .collect(),
            ),
        ),
        (
            "failed_share",
            Value::Num(failed as f64 / attempted.max(1) as f64),
        ),
        ("answers_checked", Value::Num(verdict.checked as f64)),
        ("traffic_checksum", Value::Str(format!("{traffic:#018x}"))),
        (
            "mean_reply_vertices",
            Value::Num(tally.vertices as f64 / tally.replies.max(1) as f64),
        ),
    ]);
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PER_LAYER;

    /// One end-to-end smoke of every workload, then the traced pass on
    /// the cheapest one. Short windows, so the numbers mean nothing, but
    /// every op is answered, every checked answer matches its direct
    /// solve, and every metric is taken. One test on purpose: the load
    /// model owns both cores, so the runs must not overlap.
    #[test]
    fn every_workload_runs_end_to_end_and_the_traced_pass_is_complete() {
        for workload in spec::WORKLOADS {
            let report = run(&RunCfg {
                workload: workload.to_string(),
                seed: 7,
                seconds: spec::SMOKE_SECONDS,
                trace: false,
            })
            .unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(report.correct, "{workload} reported failures");
            assert_eq!(report.failed, 0);
            assert_eq!(report.metrics.len(), END_TO_END.len());
            for (metric, value) in &report.metrics {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{workload}/{} = {value}",
                    metric.name
                );
            }
            let line = crate::json::parse(&report.result_line()).expect("result line is JSON");
            let keys: Vec<&String> = line.as_obj().expect("an object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        }

        let report = run(&RunCfg {
            workload: spec::CHURN.to_string(),
            seed: 7,
            seconds: spec::SMOKE_SECONDS,
            trace: true,
        })
        .expect("traced churn run");
        assert!(report.correct);
        let names: Vec<&str> = report.metrics.iter().map(|(m, _)| m.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        let trace = sys::work_root().join("churn.trace.jsonl");
        let first = std::fs::read_to_string(&trace)
            .expect("trace file")
            .lines()
            .next()
            .map(str::to_string)
            .expect("at least one span");
        let span = crate::json::parse(&first).expect("a span is a JSON object");
        for key in ["id", "name", "start_ns", "end_ns", "parent", "op"] {
            assert!(span.get(key).is_some(), "span lacks {key}");
        }
    }

    /// A steal track sampled every 100 ms in which the blocks (seconds)
    /// listed in `stormy` lose a tenth of the machine.
    fn track(start: Instant, seconds: usize, stormy: &[usize]) -> Vec<(Instant, f64)> {
        let per_sample = 0.10 * ticks_per_second() / 10.0;
        let mut ticks = 0.0;
        (0..=seconds * 10)
            .map(|i| {
                if i > 0 && stormy.contains(&((i - 1) / 10)) {
                    ticks += per_sample;
                }
                (start + Duration::from_millis(100 * i as u64), ticks)
            })
            .collect()
    }

    #[test]
    fn quiet_seconds_count_whole_undisturbed_blocks() {
        let start = Instant::now();
        assert!((quiet_seconds(&track(start, 5, &[])) - 5.0).abs() < 1e-9);
        assert!((quiet_seconds(&track(start, 5, &[1, 3])) - 3.0).abs() < 1e-9);
        // A block still being sampled does not count yet.
        assert!((quiet_seconds(&track(start, 5, &[])[..25]) - 2.0).abs() < 1e-9);
        assert_eq!(quiet_seconds(&[]), 0.0);
    }

    #[test]
    fn disturbed_slices_are_dropped_but_never_more_than_half() {
        let start = Instant::now();
        let slice = |second: u64| Slice {
            from: start + Duration::from_secs(second),
            to: start + Duration::from_secs(second + 1),
            latencies_ms: vec![second as f64],
        };
        let cut: Vec<Slice> = (0..6).map(slice).collect();
        let kept = |stormy: &[usize]| {
            let mut seconds: Vec<f64> = quiet_slices(&cut, &Track(track(start, 6, stormy)))
                .iter()
                .map(|s| s.latencies_ms[0])
                .collect();
            seconds.sort_by(f64::total_cmp);
            seconds
        };
        assert_eq!(kept(&[]), [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(kept(&[1, 4]), [0.0, 2.0, 3.0, 5.0]);
        let half = kept(&[0, 1, 2, 4]);
        assert_eq!(half.len(), 3, "half stand");
        assert!(half.contains(&3.0) && half.contains(&5.0));
        assert_eq!(kept(&[0, 1, 2, 3, 4, 5]).len(), 3);
    }

    #[test]
    fn unknown_workloads_are_refused() {
        let err = run(&RunCfg {
            workload: "warm_mix".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
        })
        .err()
        .expect("an unknown workload is an error");
        assert!(err.contains("warm_mix") && err.contains("hot_mix"));
    }
}
