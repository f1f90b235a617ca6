//! Cross-solver consistency on realistic workloads: the paper's three
//! unconstrained solvers must agree (Naive ≡ Improve; Approx within the
//! Theorem-6 bound), and every solver's output must verify.

use common::email;
use ic_bench::harness::sum_naive;
use ic_core::algo;
use ic_core::verify::check_community;
use ic_core::{Aggregation, Query};

mod common;

#[test]
fn naive_equals_improved_on_email() {
    let wg = email();
    for k in [4usize, 8] {
        for r in [1usize, 5] {
            let naive = sum_naive(&wg, k, r, Aggregation::Sum).unwrap();
            let improved = Query::new(k, r, Aggregation::Sum).solve(&wg).unwrap();
            let nv: Vec<f64> = naive.iter().map(|c| c.value).collect();
            let iv: Vec<f64> = improved.iter().map(|c| c.value).collect();
            assert_eq!(nv.len(), iv.len(), "k={k} r={r}");
            for (a, b) in nv.iter().zip(&iv) {
                assert!((a - b).abs() < 1e-9, "k={k} r={r}: {nv:?} vs {iv:?}");
            }
        }
    }
}

#[test]
fn approx_bound_holds_across_epsilons_on_email() {
    let wg = email();
    let k = 4;
    let r = 5;
    let exact = Query::new(k, r, Aggregation::Sum).solve(&wg).unwrap();
    let re = exact.last().unwrap().value;
    for eps in [0.01, 0.05, 0.1, 0.2, 0.5] {
        let approx = Query::new(k, r, Aggregation::Sum)
            .approx(eps)
            .solve(&wg)
            .unwrap();
        assert_eq!(approx.len(), r);
        let ra = approx.last().unwrap().value;
        assert!(ra >= (1.0 - eps) * re - 1e-9, "eps={eps}: ra={ra} re={re}");
        for c in &approx {
            check_community(&wg, k, None, Aggregation::Sum, c).unwrap();
        }
    }
}

#[test]
fn min_and_max_peels_verify_on_email() {
    let wg = email();
    let min = Query::new(6, 5, Aggregation::Min).solve(&wg).unwrap();
    assert!(!min.is_empty());
    for c in &min {
        check_community(&wg, 6, None, Aggregation::Min, c).unwrap();
    }
    // Values are non-increasing.
    for w in min.windows(2) {
        assert!(w[0].value >= w[1].value);
    }
    let max = Query::new(6, 5, Aggregation::Max).solve(&wg).unwrap();
    for c in &max {
        check_community(&wg, 6, None, Aggregation::Max, c).unwrap();
    }
    // max top-1 contains the heaviest core vertex and dominates min top-1.
    assert!(max[0].value >= min[0].value);
}

#[test]
fn local_search_answers_equal_sequential_at_every_thread_count() {
    let wg = email();
    let config = algo::LocalSearchConfig {
        k: 4,
        r: 5,
        s: 20,
        greedy: true,
    };
    // The paper-printed Algorithm 4, one seed after another.
    let seq = algo::oracle::local_search(&wg, &config, Aggregation::Average).unwrap();
    let query = [Query::new(4, 5, Aggregation::Average).size_bound(20, true)];
    for threads in [1usize, 2, 4] {
        let engine = ic_engine::Engine::with_threads(wg.clone(), threads);
        let got = engine.run_batch(&query).pop().unwrap().unwrap();
        assert_eq!(got, seq, "threads = {threads}");
    }
}

#[test]
fn sum_surplus_tracks_sum_plus_alpha_times_size() {
    let wg = email();
    let sum = Query::new(4, 3, Aggregation::Sum).solve(&wg).unwrap();
    let surplus = Query::new(4, 3, Aggregation::SumSurplus { alpha: 0.001 })
        .solve(&wg)
        .unwrap();
    // With PageRank weights summing to 1 and communities of hundreds of
    // vertices, a per-member bonus shifts values but both solvers return
    // valid communities.
    for (c, agg) in sum.iter().map(|c| (c, Aggregation::Sum)).chain(
        surplus
            .iter()
            .map(|c| (c, Aggregation::SumSurplus { alpha: 0.001 })),
    ) {
        check_community(&wg, 4, None, agg, c).unwrap();
    }
}
