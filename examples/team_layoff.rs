//! The paper's first motivating application (Section I, "Engagement"):
//! a team must shrink while keeping a cohesive, strong core — served
//! through the engine's session API, on a graph that *changes*.
//!
//! Each member's engagement depends on having at least `k` friends in
//! the retained group (the k-core constraint); ability scores are the
//! vertex weights. The top size-constrained k-influential community
//! under an aggregation answers "whom do we keep". This example runs the
//! whole scenario through `ic_engine`:
//!
//! * one [`Engine`] owns the org graph and answers every aggregation's
//!   retention plan from one shared snapshot (`run_batch`);
//! * when the org changes — friendships dissolve, a new mentorship
//!   forms — [`Engine::apply`] feeds the edge updates through the
//!   incremental core maintainer and swaps in a new epoch, and the same
//!   queries are simply re-submitted: no rebuild, no second engine.
//!
//! ```text
//! cargo run -p ic-bench --release --example team_layoff
//! ```

use ic_engine::prelude::*;
use ic_gen::{planted_partition, uniform_weights, GraphSeed, PlantedPartitionConfig};
use ic_graph::WeightedGraph;

fn report(engine: &Engine, queries: &[(Aggregation, Query)], wg_total: f64) {
    let batch: Vec<Query> = queries.iter().map(|&(_, q)| q).collect();
    let results = engine.run_batch(&batch);
    let snapshot = engine.snapshot(); // one serving-state grab for the whole report
    for ((agg, _), result) in queries.iter().zip(&results) {
        match result.as_ref().expect("valid layoff query").first() {
            Some(keep) => {
                let n = snapshot.graph().num_vertices();
                let kept_ability: f64 = keep
                    .vertices
                    .iter()
                    .map(|&v| snapshot.weighted().weight(v))
                    .sum();
                println!(
                    "  [{}] keep {:?}\n       objective {:.2}, retained ability {:.1} of {:.1}, lay off {} people",
                    agg.name(),
                    keep.vertices,
                    keep.value,
                    kept_ability,
                    wg_total,
                    n - keep.len()
                );
            }
            None => println!("  [{}] no feasible retention plan", agg.name()),
        }
    }
}

fn main() {
    // A 30-person org: three squads of 10 with dense internal friendship
    // and sparse cross-squad ties.
    let graph = planted_partition(
        &PlantedPartitionConfig {
            communities: 3,
            community_size: 10,
            p_in: 0.7,
            p_out: 0.08,
        },
        GraphSeed(7),
    );
    // Ability scores in [1, 10).
    let ability = uniform_weights(graph.num_vertices(), 1.0, 10.0, GraphSeed(99));
    let wg = WeightedGraph::new(graph, ability).expect("valid weights");
    let total = wg.total_weight();

    let headcount_target = 12; // the size constraint s
    let k = 3; // everyone kept must have >= 3 friends kept

    println!(
        "org: {} people, {} friendships; target headcount {} with k = {}",
        wg.num_vertices(),
        wg.num_edges(),
        headcount_target,
        k
    );

    // One engine serves every retention scenario. `Query::validate`
    // rejects nonsensical plans (s <= k, bad epsilon, ...) up front.
    let engine = Engine::with_threads(wg.clone(), 1);
    let queries: Vec<(Aggregation, Query)> = [
        Aggregation::Sum,
        Aggregation::Average,
        Aggregation::Max,
        // Weight density: total ability minus a per-head cost.
        Aggregation::WeightDensity { beta: 2.0 },
    ]
    .into_iter()
    .map(|agg| {
        let q = Query::new(k, 1, agg).size_bound(headcount_target, true);
        q.validate().expect("layoff query is valid");
        (agg, q)
    })
    .collect();

    println!("\nretention plans at {}:", engine.epoch());
    report(&engine, &queries, total);

    // The org changes: two friendships dissolve (attrition fallout) and
    // a cross-squad mentorship forms. `apply` maintains core numbers
    // incrementally and swaps the snapshot; the old epoch's cached
    // answers are retired automatically.
    let updates = [
        EdgeUpdate::Remove { u: 1, v: 7 },
        EdgeUpdate::Remove { u: 14, v: 17 },
        EdgeUpdate::Insert { u: 4, v: 25 },
    ];
    let epoch = engine.apply(&updates);
    println!(
        "\norg changed ({} updates) -> {}; same queries, new answers:",
        updates.len(),
        epoch
    );
    report(&engine, &queries, total);

    // The mutable engine is exact: a from-scratch engine on the mutated
    // graph gives bit-identical answers.
    let fresh = Engine::with_threads(engine.snapshot().weighted().clone(), 1);
    let batch: Vec<Query> = queries.iter().map(|&(_, q)| q).collect();
    let a = engine.run_batch(&batch);
    let b = fresh.run_batch(&batch);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.as_ref().unwrap(),
            y.as_ref().unwrap(),
            "post-apply engine must equal a fresh engine"
        );
    }
    println!("\npost-update answers equal a from-scratch engine ✓");
}
