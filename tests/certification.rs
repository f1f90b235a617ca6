//! The certificate-validation harness, end to end.
//!
//! Three things are pinned here:
//!
//! 1. **Every aggregation certifies** — all built-ins (across their
//!    parameter grids) and every registered custom function pass the
//!    sampled certificate checks on proptest-randomized weight
//!    multisets (CI runs this under the randomized session seed, so
//!    each run explores fresh inputs);
//! 2. **Mis-declared certificates are caught** — a function claiming a
//!    property it does not have is rejected by
//!    [`Aggregation::custom`] at registration, before it can touch a
//!    ranking;
//! 3. **User-defined aggregations are served end to end** — an
//!    [`AggregateFn`] defined *in this test crate* (outside `ic-core`)
//!    flows through `Query::validate` → `Engine::run_batch` with correct,
//!    cache-safe, bit-reproducible results, on both the polynomial
//!    (TIC) and the NP-hard (local search) routes.

use ic_core::algo::{self, LocalSearchConfig};
use ic_core::certify::{certify, certify_with};
use ic_core::verify::check_community;
use ic_core::{AggregateFn, Aggregation, Certificates, StateView};
use ic_engine::{Engine, Query};
use ic_gen::{barabasi_albert, gnm, uniform_weights, GraphSeed};
use ic_graph::WeightedGraph;
use proptest::prelude::*;
use std::sync::OnceLock;

// ---------------------------------------------------------------------
// Custom aggregations defined OUTSIDE ic-core.
// ---------------------------------------------------------------------

/// `f(H) = factor · Σ w(v)`: removal-decreasing with an exact O(1)
/// remove delta, so the router sends it down the zero-rebuild TIC path
/// — automatically, from the declared certificates alone.
#[derive(Debug)]
struct ScaledSum {
    factor: f64,
}

impl AggregateFn for ScaledSum {
    fn name(&self) -> &str {
        "scaled-sum"
    }
    fn certificates(&self) -> Certificates {
        Certificates {
            removal_decreasing: true,
            size_proportional: true,
            incremental_removal: true,
            hardness_unconstrained: ic_core::Hardness::Polynomial,
            ..Certificates::opaque()
        }
    }
    fn validate(&self) -> Result<(), String> {
        if !(self.factor.is_finite() && self.factor > 0.0) {
            return Err(format!(
                "factor must be positive finite, got {}",
                self.factor
            ));
        }
        Ok(())
    }
    fn evaluate(&self, w: &[f64], _total: f64) -> f64 {
        let s: f64 = w.iter().sum();
        self.factor * s
    }
    fn value_after_removal(&self, parent_value: f64, removed_weight: f64) -> f64 {
        parent_value - self.factor * removed_weight
    }
    fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
        self.factor * state.sum()
    }
}

/// `f(H) = max w − min w` (the influence spread): an opaque NP-hard
/// declaration with order statistics — served through the
/// size-constrained local-search route.
#[derive(Debug)]
struct Spread;

impl AggregateFn for Spread {
    fn name(&self) -> &str {
        "spread"
    }
    fn certificates(&self) -> Certificates {
        Certificates {
            needs_multiset: true,
            ..Certificates::opaque()
        }
    }
    fn evaluate(&self, w: &[f64], _total: f64) -> f64 {
        let min = w.iter().copied().fold(f64::INFINITY, f64::min);
        let max = w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        max - min
    }
    fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
        state.max_weight().expect("non-empty") - state.min_weight().expect("non-empty")
    }
}

fn scaled_sum() -> Aggregation {
    static HANDLE: OnceLock<Aggregation> = OnceLock::new();
    *HANDLE.get_or_init(|| Aggregation::custom(ScaledSum { factor: 2.0 }).expect("certifies"))
}

fn spread() -> Aggregation {
    static HANDLE: OnceLock<Aggregation> = OnceLock::new();
    *HANDLE.get_or_init(|| Aggregation::custom(Spread).expect("certifies"))
}

fn fixture(seed: u64, n: usize) -> WeightedGraph {
    let g = barabasi_albert(n, 3, GraphSeed(seed));
    let w = uniform_weights(n, 0.5, 50.0, GraphSeed(seed ^ 0xfeed));
    WeightedGraph::new(g, w).unwrap()
}

/// The built-ins plus a parameter sweep (what the CI randomized leg
/// certifies every run).
fn certifiable_aggregations() -> Vec<Aggregation> {
    let mut all = Aggregation::builtins();
    all.extend([
        Aggregation::SumSurplus { alpha: 0.0 },
        Aggregation::SumSurplus { alpha: -1.5 },
        Aggregation::WeightDensity { beta: 3.0 },
        Aggregation::TopTSum { t: 1 },
        Aggregation::TopTSum { t: 64 },
        Aggregation::Percentile { p: 0.0 },
        Aggregation::Percentile { p: 1.0 },
        Aggregation::Percentile { p: 0.9 },
    ]);
    all.push(scaled_sum());
    all.push(spread());
    all.extend(Aggregation::registered_customs());
    all
}

// ---------------------------------------------------------------------
// 1. Randomized certification sweep (the proptest entry point).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every built-in (across parameters) and every registered custom
    /// aggregation passes the certificate checks on random multisets.
    #[test]
    fn all_registered_aggregations_certify_on_random_samples(
        samples in proptest::collection::vec(
            proptest::collection::vec(0.1f64..64.0, 1..12), 1..6),
    ) {
        for agg in certifiable_aggregations() {
            prop_assert!(
                certify_with(&agg, &samples).is_ok(),
                "{} failed certification on {:?}", agg.name(), samples
            );
        }
    }

    /// A deliberately mis-declared certificate is falsified by random
    /// samples too (any multiset of two or more distinct weights is a
    /// counterexample to "average strictly decreases on removal").
    #[test]
    fn mis_declared_certificate_is_caught_on_random_samples(
        mut samples in proptest::collection::vec(
            proptest::collection::vec(0.1f64..64.0, 2..10), 1..4),
    ) {
        #[derive(Debug)]
        struct LyingAverage;
        impl AggregateFn for LyingAverage {
            fn name(&self) -> &str { "lying-average" }
            fn certificates(&self) -> Certificates {
                Certificates {
                    removal_decreasing: true, // false claim
                    ..Certificates::opaque()
                }
            }
            fn evaluate(&self, w: &[f64], _t: f64) -> f64 {
                w.iter().sum::<f64>() / w.len() as f64
            }
            fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
                state.sum() / state.len() as f64
            }
        }
        // Ensure at least one sample has ≥ 2 members (generator already
        // guarantees it, but keep the counterexample explicit).
        samples.push(vec![1.0, 2.0, 3.0]);
        let agg = Aggregation::custom(LyingAverage);
        prop_assert!(agg.is_err(), "registration must reject the false certificate");
        // And the standalone harness agrees on these specific samples.
        let e = ic_core::certify::certify_fn_with(&LyingAverage, &samples).unwrap_err();
        prop_assert_eq!(e.certificate, "removal_decreasing");
    }
}

#[test]
fn default_battery_certifies_everything_registered() {
    for agg in certifiable_aggregations() {
        certify(&agg).unwrap_or_else(|e| panic!("{} failed: {e}", agg.name()));
    }
}

// ---------------------------------------------------------------------
// 2. Custom aggregations served end to end.
// ---------------------------------------------------------------------

/// The TIC-routed custom function: validated by `Query::validate`,
/// answered by `run_batch`, bit-reproducible across engines and served
/// from the result cache on repetition.
#[test]
fn custom_tic_aggregation_flows_through_builder_and_batch() {
    let wg = fixture(2022, 60);
    let agg = scaled_sum();

    // Validation accepts it and routing reads its certificates.
    let q = Query::new(2, 4, agg);
    q.validate().expect("valid custom query");
    assert_eq!(q.solver().unwrap(), ic_engine::Solver::TicExact);

    // Correctness anchor: factor · sum ranks exactly like sum, with
    // values scaled by the factor.
    let direct = q.solve(&wg).unwrap();
    let sum_ref = Query::new(2, 4, Aggregation::Sum).solve(&wg).unwrap();
    assert_eq!(direct.len(), sum_ref.len());
    for (c, s) in direct.iter().zip(&sum_ref) {
        assert_eq!(c.vertices, s.vertices, "scaled-sum must rank like sum");
        assert!((c.value - 2.0 * s.value).abs() < 1e-9);
        check_community(&wg, 2, None, agg, c).unwrap();
    }

    // Engine batch ≡ direct; repeated batch is served from the
    // epoch-tagged cache bit-identically; a fresh engine reproduces the
    // same bits.
    let eng = Engine::with_threads(wg.clone(), 2);
    let first = eng.run_batch(&[q])[0].clone().unwrap();
    assert_eq!(first, direct, "engine vs direct");
    let cached = eng.run_batch(&[q])[0].clone().unwrap();
    assert_eq!(cached, first, "cache hit must be bit-identical");
    let fresh = Engine::with_threads(wg.clone(), 2).run_batch(&[q])[0]
        .clone()
        .unwrap();
    assert_eq!(fresh, first, "bit-reproducible across engines");

    // r-family merging serves the custom aggregation too: mixed-r
    // batches equal the one-at-a-time answers.
    let family = [
        Query::new(2, 1, agg),
        Query::new(2, 4, agg),
        Query::new(2, 2, agg),
    ];
    let merged = eng.run_batch(&family);
    for (q, res) in family.iter().zip(&merged) {
        let alone = Engine::with_threads(wg.clone(), 2).run_batch(&[*q])[0]
            .clone()
            .unwrap();
        assert_eq!(res.clone().unwrap(), alone, "family member r={}", q.r);
    }
}

/// The locally-searched custom function: size-bounded route, engine(1)
/// ≡ sequential local search.
#[test]
fn custom_opaque_aggregation_flows_through_local_search_route() {
    let wg = fixture(7, 48);
    let agg = spread();

    let q = Query::new(2, 3, agg).size_bound(6, true);
    q.validate().expect("valid custom query");
    assert_eq!(q.solver().unwrap(), ic_engine::Solver::LocalSearch);
    // Unconstrained is rejected: no polynomial certificate declared.
    assert!(Query::new(2, 3, agg).validate().is_err());

    let config = LocalSearchConfig {
        k: 2,
        r: 3,
        s: 6,
        greedy: true,
    };
    let seq = algo::local_search(&wg, &config, agg).unwrap();
    let direct = q.solve(&wg).unwrap();
    assert_eq!(direct, seq, "router vs sequential");

    let eng = Engine::with_threads(wg.clone(), 1);
    let batched = eng.run_batch(&[q])[0].clone().unwrap();
    assert_eq!(batched, seq, "engine(1) vs sequential");
    for c in &seq {
        check_community(&wg, 2, Some(6), agg, c).unwrap();
    }
}

/// New built-ins answer through the same end-to-end surfaces on a
/// second graph family (gnm), with value semantics spot-checked.
#[test]
fn new_builtins_serve_end_to_end() {
    let g = gnm(50, 120, GraphSeed(5));
    let w = uniform_weights(50, 1.0, 9.0, GraphSeed(6));
    let wg = WeightedGraph::new(g, w).unwrap();
    let eng = Engine::with_threads(wg.clone(), 1);
    for agg in [
        Aggregation::TopTSum { t: 3 },
        Aggregation::Percentile { p: 0.5 },
        Aggregation::GeometricMean,
    ] {
        let q = Query::new(2, 2, agg).size_bound(6, true);
        q.validate().unwrap();
        let direct = q.solve(&wg).unwrap();
        let batched = eng.run_batch(&[q])[0].clone().unwrap();
        assert_eq!(batched, direct, "{}", agg.name());
        for c in &direct {
            check_community(&wg, 2, Some(6), agg, c).unwrap();
        }
    }
}
