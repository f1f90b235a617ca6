//! Define your own aggregation function and serve it end to end.
//!
//! ```text
//! cargo run -p ic-bench --release --example custom_aggregation
//! ```
//!
//! The aggregation layer is open (PR 4): implement
//! [`ic_core::AggregateFn`], declare the property certificates that
//! actually hold, register with [`ic_core::Aggregation::custom`], and
//! the returned handle works everywhere a built-in does —
//! `Query::validate`, `Engine::run_batch`, deadline-armed
//! `Engine::run_batch_with`, and the epoch-tagged result cache. Routing
//! is decided by the certificates alone:
//!
//! * this example's `CappedSum` declares removal-decreasing
//!   monotonicity plus an O(1) remove delta, so the router sends it
//!   down the zero-rebuild TIC-IMPROVED path automatically;
//! * a function declaring nothing (NP-hard) is still servable through
//!   the size-bounded local-search route;
//! * a *false* declaration is rejected at registration by the sampled
//!   certification harness — shown at the end.

use ic_core::{AggregateFn, Aggregation, Certificates, Hardness, StateView};
use ic_engine::{Engine, Query};
use ic_gen::datasets::{by_name, Profile};

/// `f(H) = Σ min(w(v), cap)`: total influence where any single member
/// counts at most `cap` — a robust sum that stops one whale from
/// dominating the ranking.
///
/// Every certificate below is machine-checked at registration:
/// removing a member always subtracts its (positive) capped weight, so
/// the value strictly decreases (Corollary 2 holds) and the remove
/// delta is exact in O(1).
#[derive(Debug)]
struct CappedSum {
    cap: f64,
}

impl CappedSum {
    fn capped(&self, w: f64) -> f64 {
        w.min(self.cap)
    }
}

impl AggregateFn for CappedSum {
    fn name(&self) -> &str {
        "capped-sum"
    }

    fn certificates(&self) -> Certificates {
        Certificates {
            removal_decreasing: true,
            size_proportional: true,
            incremental_removal: true,
            hardness_unconstrained: Hardness::Polynomial,
            // Capping is per-weight, so the incremental state keeps the
            // weight multiset (a plain running sum cannot re-cap).
            needs_multiset: true,
            ..Certificates::opaque()
        }
    }

    fn validate(&self) -> Result<(), String> {
        if !(self.cap.is_finite() && self.cap > 0.0) {
            return Err(format!("cap must be positive finite, got {}", self.cap));
        }
        Ok(())
    }

    fn evaluate(&self, member_weights: &[f64], _total_weight: f64) -> f64 {
        member_weights.iter().map(|&w| self.capped(w)).sum()
    }

    fn value_after_removal(&self, parent_value: f64, removed_weight: f64) -> f64 {
        parent_value - self.capped(removed_weight)
    }

    fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
        let mut s = 0.0;
        for (w, count) in state.weights_asc() {
            s += self.capped(w) * count as f64;
        }
        s
    }
}

fn main() {
    let spec = by_name(Profile::Quick, "email").unwrap();
    let wg = spec.generate_weighted();
    println!(
        "graph: {} ({} vertices, {} edges)",
        spec.name,
        wg.num_vertices(),
        wg.num_edges()
    );

    // 1. Register. The certification harness runs here: a mis-declared
    //    certificate never reaches the solvers.
    let capped = Aggregation::custom(CappedSum { cap: 0.002 }).expect("certificates hold");
    println!(
        "registered `{}` (routes to {:?})",
        capped.name(),
        Query::new(4, 5, capped).solver().unwrap()
    );
    // With PageRank weights, a 0.002 cap genuinely limits the hubs, so
    // the ranking is not just a rescaled plain sum.

    // 2. One-shot query through validation + the router.
    let q = Query::new(4, 5, capped);
    q.validate().unwrap();
    let top = q.solve(&wg).unwrap();
    println!("\ntop-{} under {} (k = {}):", q.r, capped.name(), q.k);
    for (i, c) in top.iter().enumerate() {
        println!(
            "  #{:<2} value {:>10.3}  ({} members)",
            i + 1,
            c.value,
            c.len()
        );
    }

    // 3. Batched serving: the custom handle merges into r-families and
    //    lands in the epoch-tagged result cache like any built-in.
    let engine = Engine::new(wg.clone());
    let batch = [
        Query::new(4, 1, capped),
        Query::new(4, 5, capped), // shares one TIC run with the others
        Query::new(4, 3, capped),
        Query::new(4, 5, Aggregation::Sum), // built-ins mix freely
    ];
    let stats = engine.plan(&batch).stats;
    println!(
        "\nbatch: {} queries -> {} solver runs (family merging)",
        stats.total_queries, stats.solver_runs
    );
    let answers = engine.run_batch(&batch);
    for (q, a) in batch.iter().zip(&answers) {
        let a = a.as_ref().expect("valid");
        println!(
            "  {}(k={}, r={}) -> {} communities, best {:.3}",
            q.aggregation.name(),
            q.k,
            q.r,
            a.len(),
            a.first().map_or(f64::NEG_INFINITY, |c| c.value)
        );
    }
    assert_eq!(answers[1].as_ref().unwrap().as_slice(), top.as_slice());

    // 4. Under a deadline: the armed TIC run answers with the rank
    //    prefix it has proven when the budget runs out, status-tagged.
    let armed = Query::new(4, 5, capped).deadline(std::time::Duration::from_secs(5));
    match &engine.run_batch_with(&[armed], &Default::default())[0] {
        Ok(a) => println!("\narmed: {} ranked, {:?}", a.communities.len(), a.status),
        Err(e) => println!("\narmed: {e}"),
    }

    // 5. A false certificate is caught at registration. `Average` is
    //    not removal-decreasing — claiming it must fail.
    #[derive(Debug)]
    struct BogusAverage;
    impl AggregateFn for BogusAverage {
        fn name(&self) -> &str {
            "bogus-average"
        }
        fn certificates(&self) -> Certificates {
            Certificates {
                removal_decreasing: true, // <- lie
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
    match Aggregation::custom(BogusAverage) {
        Err(e) => println!("\nmis-declared certificate rejected as expected:\n  {e}"),
        Ok(_) => unreachable!("the certification harness must catch the false claim"),
    }
}
