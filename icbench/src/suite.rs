//! The suite commands: `run`, `trace` and `repeat`. Each workload runs
//! in a child process of its own (this binary re-executed with the
//! single-run flags), so peak memory and allocator state are per
//! workload; the parent only collects result lines.

use crate::json::{self, Value};
use crate::spec::{self, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::sys;
use std::path::PathBuf;
use std::process::Command;

pub struct SuiteCfg {
    pub seed: u64,
    pub smoke: bool,
    /// Run only this workload.
    pub only: Option<String>,
    pub out_dir: PathBuf,
}

impl SuiteCfg {
    fn seconds(&self) -> f64 {
        if self.smoke {
            spec::SMOKE_SECONDS
        } else {
            spec::RUN_SECONDS
        }
    }

    fn workloads(&self) -> Result<Vec<&'static str>, String> {
        match &self.only {
            None => Ok(WORKLOADS.to_vec()),
            Some(name) => WORKLOADS
                .iter()
                .find(|w| *w == name)
                .map(|w| vec![*w])
                .ok_or_else(|| {
                    format!("unknown workload {name:?}; the workloads are {WORKLOADS:?}")
                }),
        }
    }
}

/// One child run: its result line and its `detail` line, parsed.
struct Child {
    result: Value,
    detail: Value,
}

fn run_child(cfg: &SuiteCfg, workload: &str, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("running the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in &lines {
        if !line.starts_with("detail ") {
            println!("{line}");
        }
    }
    let result = json::parse(last)
        .map_err(|e| format!("{workload} printed no result line ({e}): {last:?}"))?;
    if !output.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{workload} run was not correct: {last}"));
    }
    let detail = lines
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix("detail "))
        .and_then(|d| json::parse(d).ok())
        .unwrap_or(Value::Null);
    Ok(Child { result, detail })
}

/// One workload's entry of a result document.
fn entry(child: Child) -> Value {
    let mut entry = child.result.as_obj().cloned().unwrap_or_default();
    entry.insert("detail".into(), child.detail);
    Value::Obj(entry)
}

/// A result document: what ran, on what, and each workload's result.
fn document(cfg: &SuiteCfg, trace: bool, workloads: Vec<(&'static str, Value)>) -> Value {
    Value::obj([
        ("schema", Value::str("icbench/result/v1")),
        ("mode", Value::str(if trace { "trace" } else { "run" })),
        ("seed", Value::Num(cfg.seed as f64)),
        ("window_s", Value::Num(cfg.seconds())),
        // A smoke run's windows are too short to compare with anything.
        ("comparable", Value::Bool(!cfg.smoke)),
        ("machine", sys::machine()),
        ("workloads", Value::obj(workloads)),
    ])
}

fn write_result(cfg: &SuiteCfg, name: &str, doc: &Value) -> Result<(), String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.out_dir.display()))?;
    let path = cfg.out_dir.join(name);
    std::fs::write(&path, doc.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `icbench run` / `icbench trace`.
pub fn run(cfg: &SuiteCfg, trace: bool) -> Result<(), String> {
    let mut entries = Vec::new();
    for workload in cfg.workloads()? {
        println!(
            "--- {workload} ({})",
            if trace { "traced" } else { "untraced" }
        );
        entries.push((workload, entry(run_child(cfg, workload, trace)?)));
    }
    let name = if trace { "trace.json" } else { "run.json" };
    write_result(cfg, name, &document(cfg, trace, entries))
}

fn metric_value(doc: &Value, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// The larger of the two one-sided worsenings between two runs of the
/// same code: neither may be worse than the other by more than the bound.
pub fn disagreement(metric: &Metric, a: f64, b: f64) -> f64 {
    metric
        .better
        .worsening(a, b)
        .max(metric.better.worsening(b, a))
}

/// `icbench repeat --sets N`: the untraced suite N times, workloads
/// interleaved — each workload runs all its sets back to back, and which
/// set goes first alternates from workload to workload. Prints every
/// (workload, metric) with each set's value, the largest relative
/// difference and the bound, and fails when an end-to-end pair disagrees
/// by more than its bound.
pub fn repeat(cfg: &SuiteCfg, sets: usize) -> Result<(), String> {
    if sets < 2 {
        return Err("repeat needs --sets of at least 2".into());
    }
    let workloads = cfg.workloads()?;
    let mut per_set: Vec<Vec<(&'static str, Value)>> = vec![Vec::new(); sets];
    for (i, &workload) in workloads.iter().enumerate() {
        let mut order: Vec<usize> = (0..sets).collect();
        order.rotate_left(i % sets);
        for set in order {
            println!("--- {workload}, set {}", set_name(set));
            per_set[set].push((workload, entry(run_child(cfg, workload, false)?)));
        }
    }
    let docs: Vec<Value> = per_set
        .into_iter()
        .map(|entries| document(cfg, false, entries))
        .collect();
    for (set, doc) in docs.iter().enumerate() {
        write_result(cfg, &format!("repeat-set-{}.json", set_name(set)), doc)?;
    }

    println!(
        "\n{:<10} {:<16} {:>5}  values per set ... | worst difference vs bound",
        "workload", "metric", "unit"
    );
    let mut outside = Vec::new();
    for &workload in &workloads {
        for metric in &END_TO_END {
            let values: Vec<f64> = docs
                .iter()
                .filter_map(|d| metric_value(d, workload, metric.name))
                .collect();
            if values.len() != sets {
                return Err(format!("{workload} lacks {} in some set", metric.name));
            }
            let worst = values
                .iter()
                .flat_map(|&a| values.iter().map(move |&b| disagreement(metric, a, b)))
                .fold(0.0, f64::max);
            let verdict = if worst > metric.bound {
                "OUTSIDE"
            } else {
                "ok"
            };
            println!(
                "{workload:<10} {:<16} {:>5}  {}  | {:>6.2}% vs {:>4.0}%  {verdict}",
                metric.name,
                metric.unit,
                values
                    .iter()
                    .map(|v| format!("{v:>12.4}"))
                    .collect::<Vec<_>>()
                    .join(" "),
                worst * 100.0,
                metric.bound * 100.0,
            );
            if worst > metric.bound {
                outside.push(format!("{workload}/{}", metric.name));
            }
        }
    }
    if outside.is_empty() {
        println!("every end-to-end pair agrees within its bound");
        Ok(())
    } else {
        Err(format!("outside their bounds: {}", outside.join(", ")))
    }
}

fn set_name(set: usize) -> char {
    (b'A' + set as u8) as char
}

/// `icbench metrics`: every metric by name with unit, direction and bound.
pub fn list_metrics() {
    println!("end-to-end (each on every workload; bound = allowed worsening):");
    for m in &END_TO_END {
        println!(
            "  {:<18} {:<6} {:<7} bound {:.0}%",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    println!("per-layer (traced run; no bounds):");
    for m in &PER_LAYER {
        println!("  {:<30} {:<6} {}", m.name, m.unit, m.better.as_str());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disagreement_is_symmetric_and_direction_aware() {
        let qps = &END_TO_END[1];
        assert_eq!(qps.name, "qps");
        // 100 vs 90: b is 10% worse than a; a is 11.1% better than b.
        assert!((disagreement(qps, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((disagreement(qps, 90.0, 100.0) - 0.10).abs() < 1e-12);
        let p50 = &END_TO_END[2];
        assert!((disagreement(p50, 2.0, 2.5) - 0.25).abs() < 1e-12);
        assert_eq!(disagreement(p50, 2.0, 2.0), 0.0);
    }
}
