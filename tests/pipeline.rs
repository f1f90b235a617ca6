//! End-to-end pipeline tests: generate → weight → search → verify,
//! spanning every crate in the workspace.

use ic_centrality::{degree_centrality, pagerank, PageRankConfig};
use ic_core::algo::{self, LocalSearchConfig};
use ic_core::verify::check_community;
use ic_core::{Aggregation, Query};
use ic_gen::datasets::{by_name, Profile};
use ic_gen::{aminer_network, GraphSeed};
use ic_graph::{io, WeightedGraph};
use ic_kcore::core_decomposition;

#[test]
fn generate_pagerank_search_verify_email() {
    let spec = by_name(Profile::Quick, "email").unwrap();
    let wg = spec.generate_weighted();

    // The dataset supports its full k grid.
    let kmax = core_decomposition(wg.graph()).max_core as usize;
    assert!(kmax >= *spec.k_grid.last().unwrap());

    // Unconstrained search: Improve and Approx agree within the bound.
    let k = spec.default_k;
    let exact = Query::new(k, 5, Aggregation::Sum).solve(&wg).unwrap();
    assert_eq!(exact.len(), 5);
    let approx = Query::new(k, 5, Aggregation::Sum)
        .approx(0.1)
        .solve(&wg)
        .unwrap();
    assert!(approx.last().unwrap().value >= 0.9 * exact.last().unwrap().value - 1e-12);
    for c in exact.iter().chain(&approx) {
        check_community(&wg, k, None, Aggregation::Sum, c).unwrap();
    }

    // Constrained search returns verifiable size-bounded communities.
    let config = LocalSearchConfig {
        k: 4,
        r: 5,
        s: 20,
        greedy: true,
    };
    for agg in [Aggregation::Sum, Aggregation::Average] {
        let res = algo::local_search(&wg, &config, agg).unwrap();
        assert!(!res.is_empty(), "{}", agg.name());
        for c in &res {
            check_community(&wg, 4, Some(20), agg, c).unwrap();
        }
    }
}

#[test]
fn graph_round_trips_through_store_and_text_io() {
    let spec = by_name(Profile::Quick, "dblp").unwrap();
    let g = spec.generate();

    // Binary caching goes through the unified ICS1 store since PR 5
    // (the ad-hoc ICG1 format is gone): graph + weights round-trip
    // bit-for-bit through one checksummed file.
    let w = pagerank(&g, &PageRankConfig::default());
    let wg = WeightedGraph::new(g.clone(), w).unwrap();
    let bin = ic_store::StoreBuilder::new(&wg).to_bytes().unwrap();
    let wg2 = ic_store::StoreFile::from_bytes(&bin)
        .unwrap()
        .graph()
        .unwrap();
    assert_eq!(&g, wg2.graph());
    assert_eq!(wg.weights(), wg2.weights());

    let mut text = Vec::new();
    io::write_edge_list(&g, &mut text).unwrap();
    let g3 = io::read_edge_list(&text[..]).unwrap();
    assert_eq!(
        g.edges().collect::<Vec<_>>(),
        g3.edges().collect::<Vec<_>>()
    );

    // Search results on the round-tripped graph are identical.
    let a = Query::new(4, 3, Aggregation::Sum).solve(&wg).unwrap();
    let b = Query::new(4, 3, Aggregation::Sum).solve(&wg2).unwrap();
    assert_eq!(a, b);
}

#[test]
fn alternative_centralities_plug_in_as_weights() {
    let spec = by_name(Profile::Quick, "email").unwrap();
    let g = spec.generate();

    // Degree weights drive a valid search just like PageRank ones.
    let wg = WeightedGraph::new(g.clone(), degree_centrality(&g)).unwrap();
    let res = Query::new(4, 3, Aggregation::Min).solve(&wg).unwrap();
    for c in &res {
        check_community(&wg, 4, None, Aggregation::Min, c).unwrap();
    }
}

#[test]
fn case_study_recovers_planted_groups() {
    let net = aminer_network(GraphSeed(2022));

    // min over i10: top-1 must be exactly the pioneers.
    let wg = net.weighted_by_i10();
    let top = algo::nonoverlap::min_topr_nonoverlapping(&wg, 4, 3).unwrap();
    let pioneers = net.group("db-pioneers").unwrap();
    let mut expected = pioneers.members.clone();
    expected.sort_unstable();
    assert_eq!(top[0].vertices, expected);
    assert_eq!(top[0].value, 90.0);
    // top-2 is the imaging core (without Penney), top-3 the informatics
    // group.
    assert_eq!(top[1].value, 70.0);
    assert_eq!(top[2].value, 60.0);

    // avg over G-index: top-1 is inside db-systems.
    let wg = net.weighted_by_gindex();
    let config = LocalSearchConfig {
        k: 4,
        r: 3,
        s: 7,
        greedy: true,
    };
    let top = algo::local_search_nonoverlapping(&wg, &config, Aggregation::Average).unwrap();
    let systems = net.group("db-systems").unwrap();
    assert!(
        top[0].vertices.iter().all(|v| systems.members.contains(v)),
        "avg top-1 should be a db-systems subset: {:?}",
        top[0].vertices
    );
    assert!(top[0].value > 90.0);

    // sum over citations: top-1 is exactly db-systems.
    let wg = net.weighted_by_citations();
    let config = LocalSearchConfig {
        k: 4,
        r: 3,
        s: 6,
        greedy: true,
    };
    let top = algo::local_search_nonoverlapping(&wg, &config, Aggregation::Sum).unwrap();
    let mut expected = systems.members.clone();
    expected.sort_unstable();
    assert_eq!(top[0].vertices, expected);
    assert_eq!(top[0].value, 57_500.0);
}

#[test]
fn all_quick_datasets_generate_and_search() {
    for spec in ic_gen::datasets::registry(Profile::Quick) {
        let wg = spec.generate_weighted();
        assert_eq!(wg.num_vertices(), spec.n);
        let k = spec.default_k;
        let res = Query::new(k, 3, Aggregation::Sum)
            .approx(0.1)
            .solve(&wg)
            .unwrap();
        assert!(!res.is_empty(), "{} found no communities", spec.name);
        for c in &res {
            check_community(&wg, k, None, Aggregation::Sum, c).unwrap();
        }
    }
}
