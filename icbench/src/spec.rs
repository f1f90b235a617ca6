//! The benchmark's fixed vocabulary: workload names, every metric's
//! name, unit, direction and bound, and the pinned input fingerprints.
//! `BENCHMARK.json` at the repository root repeats the names, units,
//! directions and bounds; `tests::benchmark_json_matches_spec` holds
//! the two together.

pub const HOT_MIX: &str = "hot_mix";
pub const MISS_MIX: &str = "miss_mix";
pub const COLD_OPEN: &str = "cold_open";
pub const CHURN: &str = "churn";

pub const WORKLOADS: [&str; 4] = [HOT_MIX, MISS_MIX, COLD_OPEN, CHURN];

/// Seed of the suite commands and of the pinned traffic checksums.
pub const DEFAULT_SEED: u64 = 20_220_509;
/// Timed window of one run, seconds (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: f64 = 12.0;
/// `--smoke` window; its results are flagged `comparable: false`. Five
/// seconds, not the ISSUE's three: `cold_open` and `churn` answer ~220
/// ops a second and a median of slices needs three slices of 256.
pub const SMOKE_SECONDS: f64 = 5.0;
/// Client threads, one connection each. The load model needs both.
pub const CLIENTS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative when it improved).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        let rel = (new - old) / old.abs().max(f64::MIN_POSITIVE);
        match self {
            Better::Lower => rel,
            Better::Higher => -rel,
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median; end-to-end
    /// metrics only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// Every end-to-end metric is defined on every workload and is never 0.
/// The ISSUE's workload-specific metrics (`first_answer_ms`, the UPDATE
/// and NOTIFY timings, p99) live in [`PER_LAYER`]; failures are the
/// `failed`/`attempted` pair of the result line.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("qps", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_p95_ms", "ms", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// `<crate>.<metric>`, taken by timing calls into that crate's public
/// functions or reading its public counters. README.md says how each is
/// taken and which end-to-end metric it should move.
pub const PER_LAYER: [Metric; 73] = [
    layer("graph.csr_build_ms", "ms", Lower),
    layer("graph.csr_check_ms", "ms", Lower),
    layer("graph.components_ms", "ms", Lower),
    layer("kcore.decompose_ms", "ms", Lower),
    layer("kcore.level_ms", "ms", Lower),
    layer("kcore.arena_load_ms", "ms", Lower),
    layer("kcore.cascade_ns_per_vertex", "ns", Lower),
    layer("kcore.arena_alloc_events", "count", Lower),
    layer("kcore.maintain_us", "us", Lower),
    layer("core.min_peel_ms", "ms", Lower),
    layer("core.max_peel_ms", "ms", Lower),
    layer("core.tic_exact_ms", "ms", Lower),
    layer("core.tic_eps_ms", "ms", Lower),
    layer("core.local_search_ms", "ms", Lower),
    layer("core.index_build_ms", "ms", Lower),
    layer("core.index_topr_us", "us", Lower),
    layer("core.index_repair_ms", "ms", Lower),
    layer("core.index_repair_share", "ratio", Higher),
    layer("core.verts_per_answer", "count", Lower),
    layer("engine.plan_us", "us", Lower),
    layer("engine.cache_hit_us", "us", Lower),
    layer("engine.batch_cold_ms", "ms", Lower),
    layer("engine.solver_runs_per_query", "ratio", Lower),
    layer("engine.scale_2t", "ratio", Higher),
    layer("engine.cache_hit_share", "ratio", Higher),
    layer("engine.index_routed_share", "ratio", Higher),
    layer("engine.apply_ms", "ms", Lower),
    layer("engine.persist_ms", "ms", Lower),
    layer("engine.open_ms", "ms", Lower),
    layer("store.write_ms", "ms", Lower),
    layer("store.open_mapped_ms", "ms", Lower),
    layer("store.open_owned_ms", "ms", Lower),
    layer("store.load_ms", "ms", Lower),
    layer("store.verify_deep_ms", "ms", Lower),
    layer("store.bytes_per_edge", "B", Lower),
    layer("shard.plan_ms", "ms", Lower),
    layer("shard.build_ms", "ms", Lower),
    layer("shard.open_ms", "ms", Lower),
    layer("shard.query_ms", "ms", Lower),
    layer("shard.vs_unsharded", "ratio", Lower),
    layer("shard.merge_us", "us", Lower),
    layer("shard.fanout_mean", "count", Lower),
    layer("sub.apply_ms", "ms", Lower),
    layer("sub.pruned_share", "ratio", Higher),
    layer("sub.notifications_per_update", "count", Lower),
    layer("sub.diff_us", "us", Lower),
    layer("serve.req_encode_ns", "ns", Lower),
    layer("serve.req_decode_ns", "ns", Lower),
    layer("serve.resp_encode_us", "us", Lower),
    layer("serve.resp_decode_us", "us", Lower),
    layer("serve.reply_bytes_mean", "B", Lower),
    layer("serve.json_render_us", "us", Lower),
    layer("serve.json_parse_us", "us", Lower),
    layer("serve.rtt_floor_us", "us", Lower),
    layer("serve.residual_us", "us", Lower),
    layer("serve.batch_mean", "count", Higher),
    layer("serve.batch_max", "count", Higher),
    layer("serve.shed_share", "ratio", Lower),
    layer("serve.first_answer_ms", "ms", Lower),
    layer("serve.latency_tail_ms", "ms", Lower),
    layer("serve.updates_per_s", "1/s", Higher),
    layer("serve.update_p50_ms", "ms", Lower),
    layer("serve.update_tail_ms", "ms", Lower),
    layer("serve.notify_p50_ms", "ms", Lower),
    layer("mem.rss_peak_mb", "MB", Lower),
    layer("proc.cpu_ms_per_op", "ms", Lower),
    layer("obs.counter_inc_ns", "ns", Lower),
    layer("obs.hist_observe_ns", "ns", Lower),
    layer("obs.enabled_cost_share", "ratio", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.solver_share", "ratio", Lower),
    layer("trace.spans", "count", Higher),
];

/// Looks a per-layer metric up by name; a typo is a bug in this crate.
pub fn layer_metric(name: &str) -> &'static Metric {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

/// `(n, m, degeneracy, weights checksum)` of a generated input. `--seed`
/// never reaches graph generation, so these hold for every seed and a
/// run fails when `ic-gen` drifts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphPrint {
    pub n: usize,
    pub m: usize,
    pub degeneracy: u32,
    pub weights: u64,
}

pub const SMALL_GRAPH: GraphPrint = GraphPrint {
    n: 10_000,
    m: 29_811,
    degeneracy: 35,
    weights: 0xbbeb_e0be_ba4c_7ef8,
};

pub const LARGE_GRAPH: GraphPrint = GraphPrint {
    n: 400_000,
    m: 1_597_850,
    degeneracy: 23,
    weights: 0x1b10_3c79_8058_8935,
};

/// Checksum of the first 1000 ops of each workload under
/// [`DEFAULT_SEED`], in [`WORKLOADS`] order.
pub const TRAFFIC_PRINTS: [u64; 4] = [
    0x16e1_75cc_d79e_e043,
    0xefe6_1889_9177_2b65,
    0x811b_a631_4de5_3346,
    0xb5e7_6582_a88a_b44f,
];

pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|w| *w == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn names(metrics: &[Metric]) -> Vec<&str> {
        metrics.iter().map(|m| m.name).collect()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all = names(&END_TO_END);
        all.extend(names(&PER_LAYER));
        all.extend(WORKLOADS);
        for name in &all {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let unique: std::collections::BTreeSet<&&str> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` repeats this module; neither may drift.
    #[test]
    fn benchmark_json_matches_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
        let list = |key: &str| match doc.get(key) {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("{key} is not a list: {other:?}"),
        };
        let text = |v: &Value, key: &str| match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key} is not a string: {other:?}"),
        };
        let listed: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(listed, WORKLOADS);
        for w in list("workloads") {
            let why = text(&w, "why");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why of {}",
                text(&w, "name")
            );
        }
        for (key, metrics) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = list(key);
            assert_eq!(listed.len(), metrics.len(), "{key}");
            for (have, want) in listed.iter().zip(metrics) {
                assert_eq!(text(have, "name"), want.name);
                assert_eq!(text(have, "unit"), want.unit, "{}", want.name);
                assert_eq!(text(have, "better"), want.better.as_str(), "{}", want.name);
                if key == "end_to_end" {
                    assert_eq!(have.get("bound").and_then(Value::as_f64), Some(want.bound));
                }
            }
        }
    }
}
