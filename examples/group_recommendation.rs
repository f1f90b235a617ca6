//! The paper's second motivating application (Section I, "Group
//! Recommendation"): suggest interest groups in a social network, ranked
//! by the *average* influence of their members, without recommending the
//! same users twice — served by paging through one engine batch.
//!
//! The pre-PR-3 version of this example called
//! `local_search_nonoverlapping` directly. Here the same product flow
//! runs on [`Engine::run_batch`]: the candidate list is asked for at
//! three depths (`r` = one, two and three pages) in one batch, which
//! the planner merges into a single seed walk, and the serving loop
//! reads pages in rank order, keeping the disjoint candidates until the
//! slate is full.
//!
//! ```text
//! cargo run -p ic-bench --release --example group_recommendation
//! ```

use ic_core::verify::check_community;
use ic_engine::prelude::*;
use ic_gen::{pagerank_weights, planted_partition, GraphSeed, PlantedPartitionConfig};
use ic_graph::WeightedGraph;

fn main() {
    // A social network with eight interest clusters.
    let graph = planted_partition(
        &PlantedPartitionConfig {
            communities: 8,
            community_size: 25,
            p_in: 0.4,
            p_out: 0.01,
        },
        GraphSeed(11),
    );
    // Influence = PageRank, exactly like the paper's experiments.
    let weights = pagerank_weights(&graph);
    let wg = WeightedGraph::new(graph, weights).expect("valid weights");

    println!(
        "social network: {} users, {} ties",
        wg.num_vertices(),
        wg.num_edges()
    );

    // Recommend up to 4 disjoint groups of at most 12 members whose
    // every member knows at least 4 others in the group. A page is four
    // candidates; the disjointness filter below may need to read past
    // the first, so the batch asks for one, two and three pages at once
    // — same `(k, s)`, so one solver run answers all three.
    let engine = Engine::new(wg.clone());
    let page = 4;
    let pages: Vec<Query> = (1..=3)
        .map(|depth| Query::new(4, depth * page, Aggregation::Average).size_bound(12, true))
        .collect();
    for q in &pages {
        q.validate().expect("valid recommendation query");
    }
    let stats = engine.plan(&pages).stats;
    println!(
        "{} page depths -> {} solver run",
        stats.total_queries, stats.solver_runs
    );
    let answers = engine.run_batch(&pages);

    let slate_size = 4;
    let mut slate: Vec<Community> = Vec::new();
    let mut pages_read = 0usize;
    for answer in &answers {
        pages_read += 1;
        let candidates = answer.as_ref().expect("valid recommendation query");
        // Non-overlap policy: a candidate sharing a user with an
        // already-recommended group — itself included, on a deeper page
        // — is skipped (TONIC-style greedy).
        for candidate in candidates {
            if slate.len() < slate_size && !slate.iter().any(|g| g.overlaps(candidate)) {
                slate.push(candidate.clone());
            }
        }
        if slate.len() == slate_size {
            break; // slate full; deeper pages are simply not read
        }
    }

    println!(
        "\nrecommended groups (ranked by average member influence; \
         {pages_read} page(s) read):"
    );
    for (i, g) in slate.iter().enumerate() {
        // Which planted cluster does the group live in?
        let cluster = g.vertices[0] / 25;
        let pure = g.vertices.iter().all(|&v| v / 25 == cluster);
        println!(
            "  #{} avg influence {:.5}, {} members, cluster {}{}",
            i + 1,
            g.value,
            g.len(),
            cluster,
            if pure { "" } else { " (mixed)" }
        );
        check_community(&wg, 4, Some(12), Aggregation::Average, g).expect("valid group");
    }

    // Sanity: recommendations never overlap.
    for (i, a) in slate.iter().enumerate() {
        for b in &slate[i + 1..] {
            assert!(!a.overlaps(b), "slate must be disjoint");
        }
    }
    println!("\nno user appears in two recommendations ✓");
}
