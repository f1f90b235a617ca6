//! One function per paper artifact (Table III, Figs 2–14), plus the
//! parallel-scaling ablation.
//! Each returns a markdown section; the `experiments` binary routes
//! subcommands here.

use crate::harness::{sum_naive, Solved};
use crate::report::{fmt_secs, fmt_value, Table};
use crate::runner::{time_median, time_once};
use crate::workloads::{
    load, Workload, CONSTRAINED_K_GRID, DEFAULT_EPSILON, DEFAULT_R, DEFAULT_S, EPSILON_GRID,
    R_GRID, S_GRID,
};
use ic_core::algo::{self, local_search, LocalSearchConfig};
use ic_core::{Aggregation, Community, Query};
use ic_gen::datasets::Profile;
use ic_gen::{aminer_network, GraphSeed};
use ic_graph::stats::graph_stats;

/// Shared experiment context.
pub struct Ctx {
    /// Scale profile.
    pub profile: Profile,
    /// Dataset name filter (empty = all six).
    pub datasets: Vec<String>,
}

impl Ctx {
    fn workloads(&self) -> Vec<Workload> {
        load(self.profile, &self.datasets)
    }
}

fn section(title: &str, body: String) -> String {
    format!("\n## {title}\n\n{body}")
}

/// Holds one Fig 2/3 cell to what Section VI guarantees: Improve returns
/// Naive's answer bit for bit, and Approx's r-th value is at least
/// `(1 − ε)` times the exact r-th value (Theorem 6). Panics otherwise —
/// a figure that times wrong answers measures nothing.
fn check_section6(cell: &str, naive: &Solved, improve: &Solved, approx: &Solved, epsilon: f64) {
    assert_eq!(improve, naive, "{cell}: Improve differs from Naive");
    let (Ok(exact), Ok(approx)) = (naive, approx) else {
        panic!("{cell}: Naive or Approx failed: {naive:?} / {approx:?}");
    };
    assert_eq!(approx.len(), exact.len(), "{cell}: Approx's answer count");
    if let (Some(a), Some(e)) = (approx.last(), exact.last()) {
        // 1e-9 relative slack for the rounding of two summation orders.
        let bar = (1.0 - epsilon) * e.value - 1e-9 * e.value.abs();
        assert!(
            a.value >= bar,
            "{cell}: Approx's r-th value {} is below (1 - {epsilon}) x the exact {}",
            a.value,
            e.value
        );
    }
}

/// Table III: dataset statistics (paper original vs synthetic analog).
pub fn table3(ctx: &Ctx) -> String {
    let mut t = Table::new([
        "dataset",
        "paper n",
        "paper m",
        "paper kmax",
        "analog n",
        "analog m",
        "analog dmax",
        "analog davg",
        "analog kmax",
    ]);
    for w in ctx.workloads() {
        let s = graph_stats(w.wg.graph());
        t.row([
            w.spec.name.to_string(),
            w.spec.paper_vertices.to_string(),
            w.spec.paper_edges.to_string(),
            w.spec.paper_kmax.to_string(),
            s.num_vertices.to_string(),
            s.num_edges.to_string(),
            s.max_degree.to_string(),
            format!("{:.2}", s.avg_degree),
            w.kmax.to_string(),
        ]);
    }
    section("Table III — dataset statistics", t.to_markdown())
}

/// Fig 2: running time vs k (sum, size-unconstrained): Naive / Improve /
/// Approx(ε = 0.1).
pub fn fig2(ctx: &Ctx) -> String {
    let mut out = String::new();
    for w in ctx.workloads() {
        let mut t = Table::new(["k", "Naive", "Improve", "Approx(0.1)", "top-1 value"]);
        for k in w.usable_k_grid() {
            eprintln!("[fig2] {} k={k}", w.spec.name);
            let (tn, rn) = time_once(|| sum_naive(&w.wg, k, DEFAULT_R, Aggregation::Sum));
            let (ti, ri) = time_once(|| Query::new(k, DEFAULT_R, Aggregation::Sum).solve(&w.wg));
            let (ta, ra) = time_once(|| {
                Query::new(k, DEFAULT_R, Aggregation::Sum)
                    .approx(DEFAULT_EPSILON)
                    .solve(&w.wg)
            });
            let cell = format!("fig2 {} k={k}", w.spec.name);
            check_section6(&cell, &rn, &ri, &ra, DEFAULT_EPSILON);
            let top1 = rn
                .ok()
                .and_then(|v| v.first().map(|c| c.value))
                .unwrap_or(f64::NEG_INFINITY);
            t.row([
                k.to_string(),
                fmt_secs(tn),
                fmt_secs(ti),
                fmt_secs(ta),
                fmt_value(top1),
            ]);
        }
        out.push_str(&section(
            &format!("Fig 2 ({}) — time vs k (sum, unconstrained)", w.spec.name),
            t.to_markdown(),
        ));
    }
    out
}

/// Fig 3: running time vs r (sum, size-unconstrained).
pub fn fig3(ctx: &Ctx) -> String {
    let mut out = String::new();
    for w in ctx.workloads() {
        let k = w.spec.default_k.min(w.kmax as usize);
        let mut t = Table::new(["r", "Naive", "Improve", "Approx(0.1)"]);
        for r in R_GRID {
            eprintln!("[fig3] {} r={r}", w.spec.name);
            let (tn, rn) = time_once(|| sum_naive(&w.wg, k, r, Aggregation::Sum));
            let (ti, ri) = time_once(|| Query::new(k, r, Aggregation::Sum).solve(&w.wg));
            let (ta, ra) = time_once(|| {
                Query::new(k, r, Aggregation::Sum)
                    .approx(DEFAULT_EPSILON)
                    .solve(&w.wg)
            });
            let cell = format!("fig3 {} k={k} r={r}", w.spec.name);
            check_section6(&cell, &rn, &ri, &ra, DEFAULT_EPSILON);
            t.row([r.to_string(), fmt_secs(tn), fmt_secs(ti), fmt_secs(ta)]);
        }
        out.push_str(&section(
            &format!(
                "Fig 3 ({}) — time vs r (sum, unconstrained, k={k})",
                w.spec.name
            ),
            t.to_markdown(),
        ));
    }
    out
}

/// Fig 4: Approx running time vs k for each ε.
pub fn fig4(ctx: &Ctx) -> String {
    let mut out = String::new();
    for w in ctx.workloads() {
        let mut header = vec!["k".to_string()];
        header.extend(EPSILON_GRID.iter().map(|e| format!("ε={e}")));
        let mut t = Table::new(header);
        for k in w.usable_k_grid() {
            eprintln!("[fig4] {} k={k}", w.spec.name);
            let mut row = vec![k.to_string()];
            for &eps in &EPSILON_GRID {
                let (ta, _) = time_median(3, || {
                    Query::new(k, DEFAULT_R, Aggregation::Sum)
                        .approx(eps)
                        .solve(&w.wg)
                });
                row.push(fmt_secs(ta));
            }
            t.row(row);
        }
        out.push_str(&section(
            &format!("Fig 4 ({}) — Approx time vs k across ε", w.spec.name),
            t.to_markdown(),
        ));
    }
    out
}

/// Fig 5: Approx running time vs r for each ε.
pub fn fig5(ctx: &Ctx) -> String {
    let mut out = String::new();
    for w in ctx.workloads() {
        let k = w.spec.default_k.min(w.kmax as usize);
        let mut header = vec!["r".to_string()];
        header.extend(EPSILON_GRID.iter().map(|e| format!("ε={e}")));
        let mut t = Table::new(header);
        for r in R_GRID {
            eprintln!("[fig5] {} r={r}", w.spec.name);
            let mut row = vec![r.to_string()];
            for &eps in &EPSILON_GRID {
                let (ta, _) = time_median(3, || {
                    Query::new(k, r, Aggregation::Sum).approx(eps).solve(&w.wg)
                });
                row.push(fmt_secs(ta));
            }
            t.row(row);
        }
        out.push_str(&section(
            &format!(
                "Fig 5 ({}) — Approx time vs r across ε (k={k})",
                w.spec.name
            ),
            t.to_markdown(),
        ));
    }
    out
}

fn constrained_time_sweep<I, FMT>(
    ctx: &Ctx,
    aggregation: Aggregation,
    fig: &str,
    param_name: &str,
    params: I,
    config_of: FMT,
) -> String
where
    I: IntoIterator<Item = usize> + Clone,
    FMT: Fn(usize) -> LocalSearchConfig,
{
    let mut out = String::new();
    for w in ctx.workloads() {
        let mut t = Table::new([param_name, "Random", "Greedy"]);
        for p in params.clone() {
            eprintln!("[{fig}] {} {param_name}={p}", w.spec.name);
            let base = config_of(p);
            let random = LocalSearchConfig {
                greedy: false,
                ..base
            };
            let greedy = LocalSearchConfig {
                greedy: true,
                ..base
            };
            let (tr, _) = time_median(3, || local_search(&w.wg, &random, aggregation));
            let (tg, _) = time_median(3, || local_search(&w.wg, &greedy, aggregation));
            t.row([p.to_string(), fmt_secs(tr), fmt_secs(tg)]);
        }
        out.push_str(&section(
            &format!(
                "{fig} ({}) — time vs {param_name} ({}, size-constrained)",
                w.spec.name,
                aggregation.name()
            ),
            t.to_markdown(),
        ));
    }
    out
}

/// Fig 6: running time vs k (sum, size-constrained).
pub fn fig6(ctx: &Ctx) -> String {
    constrained_time_sweep(
        ctx,
        Aggregation::Sum,
        "Fig 6",
        "k",
        CONSTRAINED_K_GRID,
        |k| LocalSearchConfig {
            k,
            r: DEFAULT_R,
            s: DEFAULT_S,
            greedy: false,
        },
    )
}

/// Fig 7: running time vs k (avg, size-constrained).
pub fn fig7(ctx: &Ctx) -> String {
    constrained_time_sweep(
        ctx,
        Aggregation::Average,
        "Fig 7",
        "k",
        CONSTRAINED_K_GRID,
        |k| LocalSearchConfig {
            k,
            r: DEFAULT_R,
            s: DEFAULT_S,
            greedy: false,
        },
    )
}

/// Fig 8: running time vs r (sum, size-constrained).
pub fn fig8(ctx: &Ctx) -> String {
    constrained_time_sweep(ctx, Aggregation::Sum, "Fig 8", "r", R_GRID, |r| {
        LocalSearchConfig {
            k: 4,
            r,
            s: DEFAULT_S,
            greedy: false,
        }
    })
}

/// Fig 9: running time vs r (avg, size-constrained).
pub fn fig9(ctx: &Ctx) -> String {
    constrained_time_sweep(ctx, Aggregation::Average, "Fig 9", "r", R_GRID, |r| {
        LocalSearchConfig {
            k: 4,
            r,
            s: DEFAULT_S,
            greedy: false,
        }
    })
}

/// Fig 10: running time vs s (sum, size-constrained).
pub fn fig10(ctx: &Ctx) -> String {
    constrained_time_sweep(ctx, Aggregation::Sum, "Fig 10", "s", S_GRID, |s| {
        LocalSearchConfig {
            k: 4,
            r: DEFAULT_R,
            s,
            greedy: false,
        }
    })
}

/// Fig 11: running time vs s (avg, size-constrained).
pub fn fig11(ctx: &Ctx) -> String {
    constrained_time_sweep(ctx, Aggregation::Average, "Fig 11", "s", S_GRID, |s| {
        LocalSearchConfig {
            k: 4,
            r: DEFAULT_R,
            s,
            greedy: false,
        }
    })
}

fn effectiveness_sweep(ctx: &Ctx, aggregation: Aggregation, fig: &str) -> String {
    let mut out = String::new();
    for w in ctx.workloads() {
        let mut t = Table::new([
            "k",
            "Random r-th value",
            "Greedy r-th value",
            "Greedy/Random",
        ]);
        for k in CONSTRAINED_K_GRID {
            eprintln!("[{fig}] {} k={k}", w.spec.name);
            let random = local_search(
                &w.wg,
                &LocalSearchConfig {
                    k,
                    r: DEFAULT_R,
                    s: DEFAULT_S,
                    greedy: false,
                },
                aggregation,
            )
            .unwrap_or_default();
            let greedy = local_search(
                &w.wg,
                &LocalSearchConfig {
                    k,
                    r: DEFAULT_R,
                    s: DEFAULT_S,
                    greedy: true,
                },
                aggregation,
            )
            .unwrap_or_default();
            let rv = random.last().map_or(f64::NEG_INFINITY, |c| c.value);
            let gv = greedy.last().map_or(f64::NEG_INFINITY, |c| c.value);
            let ratio = if rv > 0.0 {
                format!("{:.3}", gv / rv)
            } else {
                "—".into()
            };
            t.row([k.to_string(), fmt_value(rv), fmt_value(gv), ratio]);
        }
        out.push_str(&section(
            &format!(
                "{fig} ({}) — r-th influence value ({}, size-constrained)",
                w.spec.name,
                aggregation.name()
            ),
            t.to_markdown(),
        ));
    }
    out
}

/// Fig 12: r-th influence value, Greedy vs Random (sum).
pub fn fig12(ctx: &Ctx) -> String {
    effectiveness_sweep(ctx, Aggregation::Sum, "Fig 12")
}

/// Fig 13: r-th influence value, Greedy vs Random (avg).
pub fn fig13(ctx: &Ctx) -> String {
    effectiveness_sweep(ctx, Aggregation::Average, "Fig 13")
}

fn describe(net: &ic_gen::AminerNetwork, c: &Community) -> String {
    let names: Vec<&str> = c.vertices.iter().map(|&v| net.name_of(v)).collect();
    names.join(", ")
}

/// Fig 14: Aminer case study — top-3 non-overlapping communities under
/// min / avg / sum at k = 4.
pub fn fig14(_ctx: &Ctx) -> String {
    let net = aminer_network(GraphSeed(2022));
    let mut out = String::new();

    // min over the i10-like metric (unconstrained, exact peel).
    let wg = net.weighted_by_i10();
    let min_top = algo::nonoverlap::min_topr_nonoverlapping(&wg, 4, 3).expect("valid params");
    let mut t = Table::new(["rank", "min(i10)", "members"]);
    for (i, c) in min_top.iter().enumerate() {
        t.row([format!("{}", i + 1), fmt_value(c.value), describe(&net, c)]);
    }
    out.push_str(&section(
        "Fig 14 (a-c) — min over i10-like metric",
        t.to_markdown(),
    ));

    // avg over the G-index-like metric (size-constrained local search).
    let wg = net.weighted_by_gindex();
    let avg_top = algo::local_search_nonoverlapping(
        &wg,
        &LocalSearchConfig {
            k: 4,
            r: 3,
            s: 7,
            greedy: true,
        },
        Aggregation::Average,
    )
    .expect("valid params");
    let mut t = Table::new(["rank", "avg(G-index)", "members"]);
    for (i, c) in avg_top.iter().enumerate() {
        t.row([format!("{}", i + 1), fmt_value(c.value), describe(&net, c)]);
    }
    out.push_str(&section(
        "Fig 14 (d-f) — avg over G-index-like metric",
        t.to_markdown(),
    ));

    // sum over citations (size-constrained local search).
    let wg = net.weighted_by_citations();
    let sum_top = algo::local_search_nonoverlapping(
        &wg,
        &LocalSearchConfig {
            k: 4,
            r: 3,
            s: 6,
            greedy: true,
        },
        Aggregation::Sum,
    )
    .expect("valid params");
    let mut t = Table::new(["rank", "sum(citations)", "members"]);
    for (i, c) in sum_top.iter().enumerate() {
        t.row([format!("{}", i + 1), fmt_value(c.value), describe(&net, c)]);
    }
    out.push_str(&section(
        "Fig 14 (g-i) — sum over citations",
        t.to_markdown(),
    ));
    out
}

/// Example 1/2 sanity: every solver on the reconstructed Figure 1.
pub fn example1(_ctx: &Ctx) -> String {
    use ic_core::figure1::figure1;
    let wg = figure1();
    let mut t = Table::new(["query", "result (paper labels)", "values"]);

    let fmt_comm = |cs: &[Community]| -> (String, String) {
        let sets: Vec<String> = cs
            .iter()
            .map(|c| {
                let labels: Vec<String> =
                    c.vertices.iter().map(|&v| format!("v{}", v + 1)).collect();
                format!("{{{}}}", labels.join(","))
            })
            .collect();
        let vals: Vec<String> = cs.iter().map(|c| fmt_value(c.value)).collect();
        (sets.join(" "), vals.join(" "))
    };

    let sum2 = Query::new(2, 2, Aggregation::Sum).solve(&wg).unwrap();
    let (s, v) = fmt_comm(&sum2);
    t.row(["sum top-2 (k=2)".to_string(), s, v]);

    let avg2 = algo::oracle::exact_topr(&wg, 2, 2, None, Aggregation::Average).unwrap();
    let (s, v) = fmt_comm(&avg2);
    t.row(["avg top-2 (k=2)".to_string(), s, v]);

    let min2 = Query::new(2, 2, Aggregation::Min).solve(&wg).unwrap();
    let (s, v) = fmt_comm(&min2);
    t.row(["min top-2 (k=2)".to_string(), s, v]);

    let tonic =
        algo::nonoverlap::exact_nonoverlapping(&wg, 2, 3, None, Aggregation::Average).unwrap();
    let (s, v) = fmt_comm(&tonic);
    t.row(["avg non-overlapping top-3".to_string(), s, v]);

    section("Example 1/2 — the paper's running example", t.to_markdown())
}

/// All experiment ids, in run order.
pub const ALL_EXPERIMENTS: [&str; 15] = [
    "table3", "example1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig13", "fig14",
];

/// Dispatches an experiment by id.
pub fn run(id: &str, ctx: &Ctx) -> Option<String> {
    let out = match id {
        "table3" => table3(ctx),
        "example1" => example1(ctx),
        "fig2" => fig2(ctx),
        "fig3" => fig3(ctx),
        "fig4" => fig4(ctx),
        "fig5" => fig5(ctx),
        "fig6" => fig6(ctx),
        "fig7" => fig7(ctx),
        "fig8" => fig8(ctx),
        "fig9" => fig9(ctx),
        "fig10" => fig10(ctx),
        "fig11" => fig11(ctx),
        "fig12" => fig12(ctx),
        "fig13" => fig13(ctx),
        "fig14" => fig14(ctx),
        _ => return None,
    };
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> Ctx {
        Ctx {
            profile: Profile::Quick,
            datasets: vec!["email".to_string()],
        }
    }

    #[test]
    fn example1_renders() {
        let out = example1(&tiny_ctx());
        assert!(out.contains("sum top-2"));
        assert!(out.contains("203"));
        assert!(out.contains("{v1,v2,v4}"));
    }

    #[test]
    fn fig14_reports_planted_groups() {
        let out = fig14(&tiny_ctx());
        assert!(out.contains("Garcia-Molina"), "{out}");
        assert!(out.contains("min over i10"));
    }

    #[test]
    fn dispatcher_knows_all_ids() {
        for id in ALL_EXPERIMENTS {
            // Don't run the heavy ones here; just check routing for the
            // cheap ones and id validity for the rest.
            if matches!(id, "example1") {
                assert!(run(id, &tiny_ctx()).is_some());
            }
        }
        assert!(run("nope", &tiny_ctx()).is_none());
    }
}
