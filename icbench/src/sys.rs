//! What the benchmark reads from the operating system: process memory
//! and CPU time from `/proc/self`, and the machine description that
//! goes into every result file.

use crate::json::Value;
use std::path::PathBuf;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) of this process so far, in MB.
pub fn rss_peak_mb() -> f64 {
    proc_status_kb("VmHWM:").expect("/proc/self/status has VmHWM") / 1024.0
}

/// User + system CPU seconds of every thread of this process so far.
/// `/proc/self/stat` counts in USER_HZ ticks, which Linux fixes at 100.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).expect("utime");
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).expect("stime");
    (utime + stime) / 100.0
}

/// CPU ticks (USER_HZ) the hypervisor has taken from this machine so
/// far: the `steal` field of `/proc/stat`. 0 where it is not reported.
pub fn steal_ticks() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0.0)
}

/// CPUs that `/proc/stat` counts ticks for: the whole machine's, which
/// [`steal_ticks`] must be set against — [`nproc`] may be fewer where a
/// CPU set confines the process.
pub fn stat_cpus() -> usize {
    std::fs::read_to_string("/proc/stat")
        .map(|stat| {
            stat.lines()
                .filter(|l| {
                    l.strip_prefix("cpu")
                        .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
                })
                .count()
        })
        .unwrap_or(0)
        .max(1)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Where stores and trace files go: `icbench/` under the cargo target
/// directory, which is inside the checkout and already ignored.
pub fn work_root() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("icbench")
}

/// How long the runs made in this checkout have waited for a quiet
/// machine, and when: a file under [`work_root`] with one line,
/// `<unix seconds> <seconds waited>`, per run that waited. It lets a run
/// wait out a storm for longer than every run could afford to.
pub struct WaitLedger {
    path: PathBuf,
    horizon: Duration,
}

impl WaitLedger {
    /// The ledger of the last `horizon`.
    pub fn open(horizon: Duration) -> WaitLedger {
        WaitLedger {
            path: work_root().join("quiet-waits"),
            horizon,
        }
    }

    fn now() -> f64 {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0.0, |d| d.as_secs_f64())
    }

    /// `(when, waited)` of every wait within the horizon. A missing or
    /// mangled file reads as no waits.
    fn entries(&self) -> Vec<(f64, f64)> {
        let oldest = Self::now() - self.horizon.as_secs_f64();
        std::fs::read_to_string(&self.path)
            .unwrap_or_default()
            .lines()
            .filter_map(|line| {
                let (when, waited) = line.split_once(' ')?;
                Some((when.parse().ok()?, waited.parse().ok()?))
            })
            .filter(|&(when, waited): &(f64, f64)| when >= oldest && waited >= 0.0)
            .collect()
    }

    /// Seconds waited within the horizon.
    pub fn spent(&self) -> f64 {
        self.entries().iter().map(|&(_, waited)| waited).sum()
    }

    /// Adds a wait that ended now and forgets those beyond the horizon.
    /// A ledger that cannot be written only forgets the wait.
    pub fn record(&self, waited: f64) {
        let mut entries = self.entries();
        entries.push((Self::now(), waited));
        let text: String = entries
            .iter()
            .map(|(when, waited)| format!("{when:.0} {waited:.1}\n"))
            .collect();
        let written =
            std::fs::create_dir_all(work_root()).and_then(|()| std::fs::write(&self.path, text));
        if let Err(e) = written {
            eprintln!(
                "icbench: cannot note the wait in {}: {e}",
                self.path.display()
            );
        }
    }
}

/// A per-process scratch directory under [`work_root`], removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new() -> Scratch {
        // Unique per process and per call: tests share one process.
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let call = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = work_root().join(format!("run-{}-{call}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under the target dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `nproc`, CPU model, rustc and commit, for the suite result files.
/// The commit is absent when the checkout is not a git repository.
pub fn machine() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let or_null = |s: Option<String>| s.map_or(Value::Null, Value::Str);
    Value::obj([
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu", Value::Str(cpu)),
        ("rustc", or_null(command_line("rustc", &["--version"]))),
        (
            "commit",
            or_null(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_numbers() {
        assert!(rss_peak_mb() > 1.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
        assert!(stat_cpus() >= nproc());
    }

    #[test]
    fn the_wait_ledger_sums_recent_waits_and_survives_garbage() {
        let dir = Scratch::new();
        let ledger = WaitLedger {
            path: dir.0.join("quiet-waits"),
            horizon: Duration::from_secs(3600),
        };
        assert_eq!(ledger.spent(), 0.0);
        ledger.record(12.5);
        ledger.record(30.0);
        assert!((ledger.spent() - 42.5).abs() < 1e-9);
        // A wait two hours old and a mangled line count for nothing,
        // and the next record drops them.
        let stale = format!("{:.0} 500.0\nnot a line\n", WaitLedger::now() - 7200.0);
        let kept = std::fs::read_to_string(&ledger.path).unwrap();
        std::fs::write(&ledger.path, stale + &kept).unwrap();
        assert!((ledger.spent() - 42.5).abs() < 1e-9);
        ledger.record(1.0);
        assert_eq!(
            std::fs::read_to_string(&ledger.path)
                .unwrap()
                .lines()
                .count(),
            3
        );
    }
}
