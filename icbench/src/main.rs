//! `icbench`: the repository's one benchmark. README.md beside the
//! manifest describes the workloads, every metric and the output.
//!
//! ```text
//! icbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, this process
//! icbench run    [--seed <n>] [--workload <name>] [--smoke] [--out-dir <dir>]
//! icbench trace  [--seed <n>] [--workload <name>] [--smoke] [--out-dir <dir>]
//! icbench repeat --sets <n> [--seed <n>] [--workload <name>] [--smoke] [--out-dir <dir>]
//! icbench metrics
//! ```

mod check;
mod client;
mod inputs;
mod json;
mod layers;
mod probes;
mod rng;
mod run;
mod spec;
mod stats;
mod suite;
mod sys;
mod trace;
mod traffic;
mod workloads;

use run::RunCfg;
use suite::SuiteCfg;

/// Flags as `--name value` pairs, plus bare `--smoke`.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let name = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {:?}", args[i]))?;
            if name == "smoke" {
                out.push((name.to_string(), String::new()));
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{name} needs a value"))?;
            out.push((name.to_string(), value.clone()));
            i += 2;
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} takes a number, got {v:?}")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            None => Ok(()),
            Some((n, _)) => Err(format!("unknown flag --{n} (expected one of {allowed:?})")),
        }
    }
}

fn single_run(flags: &Flags) -> Result<bool, String> {
    flags.only(&["workload", "seed", "seconds", "trace"])?;
    let cfg = RunCfg {
        workload: flags.get("workload").unwrap_or_default().to_string(),
        seed: flags.number("seed", spec::DEFAULT_SEED)?,
        seconds: flags.number("seconds", spec::RUN_SECONDS)?,
        trace: match flags.get("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
    };
    if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {}", cfg.seconds));
    }
    let report = run::run(&cfg)?;
    println!("detail {}", report.detail.render());
    println!("{}", report.result_line());
    Ok(report.correct)
}

fn suite_command(command: &str, flags: &Flags) -> Result<bool, String> {
    flags.only(&["seed", "workload", "smoke", "out-dir", "sets"])?;
    let cfg = SuiteCfg {
        seed: flags.number("seed", spec::DEFAULT_SEED)?,
        smoke: flags.get("smoke").is_some(),
        only: flags.get("workload").map(str::to_string),
        out_dir: flags
            .get("out-dir")
            .map_or_else(sys::work_root, std::path::PathBuf::from),
    };
    match command {
        "run" => suite::run(&cfg, false)?,
        "trace" => suite::run(&cfg, true)?,
        "repeat" => suite::repeat(&cfg, flags.number("sets", 2)?)?,
        _ => unreachable!("dispatched on a known command"),
    }
    Ok(true)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("metrics") => {
            suite::list_metrics();
            Ok(true)
        }
        Some(command @ ("run" | "trace" | "repeat")) => {
            Flags::parse(&args[1..]).and_then(|flags| suite_command(command, &flags))
        }
        _ => Flags::parse(&args).and_then(|flags| single_run(&flags)),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("icbench: {e}");
            std::process::exit(2);
        }
    }
}
