//! Sampled validation of aggregation property [`Certificates`]: a
//! declared certificate the implementation does not actually satisfy
//! fails **here**, loudly, instead of silently corrupting rankings
//! downstream.
//!
//! Three layers of defense:
//!
//! 1. **Registration** — [`crate::Aggregation::custom`] runs
//!    [`certify_fn`] on a deterministic sample battery before a
//!    user-defined function is admitted to the registry;
//! 2. **Debug-mode solver checks** — the arena solvers re-check the
//!    removal-decreasing claim on every enumerated subgraph in debug
//!    builds (see `expand_children` in `algo::common`), so a bad
//!    certificate that slipped past sampling still trips during
//!    solving;
//! 3. **Randomized CI sweep** — `tests/certification.rs` drives
//!    [`certify`] over every built-in and registered aggregation with
//!    proptest-generated weight sets under the session seed, so each CI
//!    run explores fresh inputs.
//!
//! The checks are *sound rejections*: every reported violation is a
//! genuine counterexample (weights are printed with the failure).
//! Sampling cannot prove a certificate, only falsify it — which is the
//! right trade for an open registry.

use crate::aggregate::{AggregateFn, Certificates, Extremum, StateView};
use std::fmt;

/// A falsified certificate: which claim broke and the counterexample.
#[derive(Clone, Debug, PartialEq)]
pub struct CertifyError {
    /// The certificate (or invariant) that was falsified.
    pub certificate: &'static str,
    /// Human-readable counterexample.
    pub detail: String,
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "certificate `{}` falsified: {}",
            self.certificate, self.detail
        )
    }
}

impl std::error::Error for CertifyError {}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic battery of weight multisets for [`certify_fn`]:
/// pseudo-random positive weights across sizes 1..=12, plus structured
/// sets (all-equal, heavy duplicates, wide dynamic range) that historic
/// bugs favor. Weights stay in `[0.1, 64)` so "strictly decreasing"
/// claims are testable without denormal noise.
pub fn default_samples(seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed ^ 0xc2f7_1d3a_9e24_5b01;
    let mut next = move || {
        state = splitmix64(state);
        // 0.1 ..= ~64, quantized to avoid accidental exact cancellation.
        0.1 + (state % 6_400) as f64 / 100.0
    };
    let mut samples: Vec<Vec<f64>> = Vec::new();
    for n in 1..=12usize {
        samples.push((0..n).map(|_| next()).collect());
    }
    samples.push(vec![5.0; 6]); // all equal
    samples.push(vec![2.0, 2.0, 2.0, 9.0, 9.0, 0.5]); // heavy duplicates
    samples.push(vec![0.1, 0.1, 50.0, 63.9]); // wide range
    samples
}

/// Certifies an [`Aggregation`](crate::Aggregation) handle against the
/// default sample battery (see [`certify_fn`]).
pub fn certify(aggregation: &crate::Aggregation) -> Result<(), CertifyError> {
    certify_with(aggregation, &default_samples(0x1c0de))
}

/// Certifies an [`Aggregation`](crate::Aggregation) handle against
/// caller-provided weight multisets — the proptest entry point
/// (`tests/certification.rs` feeds randomized sets through this).
pub fn certify_with(
    aggregation: &crate::Aggregation,
    samples: &[Vec<f64>],
) -> Result<(), CertifyError> {
    aggregation.with_fn(|f| certify_fn_with(f, samples))
}

/// Certifies a raw [`AggregateFn`] (used at registration, before an
/// [`Aggregation`](crate::Aggregation) handle exists) against the
/// default battery.
pub fn certify_fn(f: &dyn AggregateFn) -> Result<(), CertifyError> {
    certify_fn_with(f, &default_samples(0x1c0de))
}

/// [`certify_fn`] against caller-provided weight multisets. Each set
/// must be non-empty; non-positive or non-finite weights are skipped
/// (graph weights are validated non-negative finite upstream, and the
/// strictness checks need positive weights to be meaningful).
pub fn certify_fn_with(f: &dyn AggregateFn, samples: &[Vec<f64>]) -> Result<(), CertifyError> {
    if let Err(m) = f.validate() {
        return Err(CertifyError {
            certificate: "validate",
            detail: m,
        });
    }
    let certs = f.certificates();
    for sample in samples {
        if sample.is_empty() || sample.iter().any(|w| !w.is_finite() || *w <= 0.0) {
            continue;
        }
        // Two total-weight regimes: the community is the whole graph
        // (sum) and a small minority of it (sentinel-prone for
        // balanced-density-style functions).
        let sum: f64 = sample.iter().sum();
        for total in [sum, 4.0 * sum] {
            certify_one(f, &certs, sample, total)?;
        }
    }
    Ok(())
}

fn rel_close(a: f64, b: f64) -> bool {
    if a == b {
        return true; // covers equal infinities and exact matches
    }
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn err(certificate: &'static str, detail: String) -> CertifyError {
    CertifyError {
        certificate,
        detail,
    }
}

fn certify_one(
    f: &dyn AggregateFn,
    certs: &Certificates,
    weights: &[f64],
    total: f64,
) -> Result<(), CertifyError> {
    let v = f.evaluate(weights, total);
    if v.is_nan() {
        return Err(err(
            "evaluate",
            format!("f({weights:?}) is NaN (total_weight {total})"),
        ));
    }
    if v == f64::NEG_INFINITY && !certs.may_be_neg_infinite {
        return Err(err(
            "may_be_neg_infinite",
            format!("f({weights:?}) = −∞ but the sentinel certificate is not declared"),
        ));
    }

    // evaluate_state must agree with evaluate on the same multiset. The
    // harness view always carries the multiset but *probes* accesses,
    // so a mis-declared needs_multiset is reported as a falsified
    // certificate — no unwinding involved (works under panic = "abort").
    let (state_value, touched_multiset) = state_value(f, weights, total);
    if touched_multiset && !certs.needs_multiset {
        return Err(err(
            "needs_multiset",
            format!(
                "evaluate_state reads order statistics on {weights:?} without declaring \
                 Certificates::needs_multiset — the production AggregateState would not \
                 maintain the multiset it needs. Either declare needs_multiset: true, or \
                 override evaluate_state (its default body materializes the multiset)"
            ),
        ));
    }
    if !rel_close(state_value, v) {
        return Err(err(
            "evaluate_state",
            format!("state evaluation {state_value} != slice evaluation {v} on {weights:?}"),
        ));
    }

    // Node domination: the value must be one of the member weights (the
    // sentinel is exempt — an undefined value dominates nothing).
    if certs.node_domination && v != f64::NEG_INFINITY {
        let hit = weights.iter().any(|w| w.to_bits() == v.to_bits());
        if !hit {
            return Err(err(
                "node_domination",
                format!("f({weights:?}) = {v} is not any member's weight"),
            ));
        }
    }
    if let Some(ext) = certs.peel_extremum {
        let expect = match ext {
            Extremum::Min => weights.iter().copied().fold(f64::INFINITY, f64::min),
            Extremum::Max => weights.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        };
        if v.total_cmp(&expect) != std::cmp::Ordering::Equal {
            return Err(err(
                "peel_extremum",
                format!("f({weights:?}) = {v}, but the declared peel extreme is {expect}"),
            ));
        }
    }

    // Removal checks need at least two members (removing the only one
    // yields the empty community, pinned to −∞ one layer up).
    if weights.len() >= 2 {
        for i in 0..weights.len() {
            let child_weights: Vec<f64> = weights
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &w)| w)
                .collect();
            let child = f.evaluate(&child_weights, total);
            if certs.removal_decreasing && child.total_cmp(&v) != std::cmp::Ordering::Less {
                return Err(err(
                    "removal_decreasing",
                    format!(
                        "removing weight {} from {weights:?} gives {child}, not strictly \
                         below the parent value {v}",
                        weights[i]
                    ),
                ));
            }
            if certs.incremental_removal {
                let delta = f.value_after_removal(v, weights[i]);
                if !rel_close(delta, child) {
                    return Err(err(
                        "incremental_removal",
                        format!(
                            "value_after_removal({v}, {}) = {delta} but re-evaluation of the \
                             child gives {child} (parent {weights:?})",
                            weights[i]
                        ),
                    ));
                }
            }
        }
    }

    // Subset monotonicity: every prefix of a deterministic shuffle must
    // not exceed the full value.
    if certs.size_proportional {
        let mut order: Vec<usize> = (0..weights.len()).collect();
        // Deterministic Fisher-Yates off splitmix.
        let mut s = weights.len() as u64 ^ 0x5b5_ee11;
        for i in (1..order.len()).rev() {
            s = splitmix64(s);
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        for cut in 1..weights.len() {
            let subset: Vec<f64> = order[..cut].iter().map(|&i| weights[i]).collect();
            let fv = f.evaluate(&subset, total);
            if fv.is_finite() && v.is_finite() && fv > v + 1e-9 * v.abs().max(1.0) {
                return Err(err(
                    "size_proportional",
                    format!("subset {subset:?} evaluates to {fv} > superset value {v}"),
                ));
            }
        }
    }

    Ok(())
}

/// Re-evaluates through the incremental-state path: add every weight,
/// then read the value the way `AggregateState` would. The multiset is
/// always materialized and its accesses probed, so the caller learns
/// whether the implementation consumed order statistics.
fn state_value(f: &dyn AggregateFn, weights: &[f64], total: f64) -> (f64, bool) {
    let sum = weights.iter().fold(0.0, |sum, w| sum + w);
    let mut multiset = weights.to_vec();
    multiset.sort_by(f64::total_cmp);
    let touched = std::cell::Cell::new(false);
    let view = StateView::probing(weights.len(), sum, total, &multiset, &touched);
    let value = f.evaluate_state(&view);
    (value, touched.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Aggregation;

    #[test]
    fn every_builtin_certifies() {
        for agg in Aggregation::builtins() {
            certify(&agg).unwrap_or_else(|e| panic!("{} failed: {e}", agg.name()));
        }
        // Parameter sweeps beyond the representative defaults.
        for agg in [
            Aggregation::SumSurplus { alpha: 0.0 },
            Aggregation::SumSurplus { alpha: 3.5 },
            Aggregation::SumSurplus { alpha: -1.0 },
            Aggregation::WeightDensity { beta: 2.0 },
            Aggregation::TopTSum { t: 1 },
            Aggregation::TopTSum { t: 100 },
            Aggregation::Percentile { p: 0.0 },
            Aggregation::Percentile { p: 1.0 },
            Aggregation::Percentile { p: 0.25 },
        ] {
            certify(&agg).unwrap_or_else(|e| panic!("{:?} failed: {e}", agg));
        }
    }

    /// A deliberately mis-declared function per certificate, each caught.
    #[test]
    fn mis_declared_certificates_are_caught() {
        use crate::aggregate::{AggregateFn, Certificates};

        #[derive(Debug)]
        struct LyingAverage {
            claim: Certificates,
        }
        impl AggregateFn for LyingAverage {
            fn name(&self) -> &str {
                "lying-avg"
            }
            fn certificates(&self) -> Certificates {
                self.claim
            }
            fn evaluate(&self, w: &[f64], _t: f64) -> f64 {
                w.iter().sum::<f64>() / w.len() as f64
            }
            fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
                state.sum() / state.len() as f64
            }
            fn value_after_removal(&self, parent: f64, _w: f64) -> f64 {
                parent // wrong on purpose
            }
        }

        // avg is not removal-decreasing.
        let e = certify_fn(&LyingAverage {
            claim: Certificates {
                removal_decreasing: true,
                ..Certificates::opaque()
            },
        })
        .unwrap_err();
        assert_eq!(e.certificate, "removal_decreasing");

        // avg is not subset-monotone.
        let e = certify_fn(&LyingAverage {
            claim: Certificates {
                size_proportional: true,
                ..Certificates::opaque()
            },
        })
        .unwrap_err();
        assert_eq!(e.certificate, "size_proportional");

        // avg is not node-dominated.
        let e = certify_fn(&LyingAverage {
            claim: Certificates {
                node_domination: true,
                ..Certificates::opaque()
            },
        })
        .unwrap_err();
        assert_eq!(e.certificate, "node_domination");

        // avg is not the minimum member weight.
        let e = certify_fn(&LyingAverage {
            claim: Certificates {
                node_domination: true,
                peel_extremum: Some(Extremum::Min),
                ..Certificates::opaque()
            },
        })
        .unwrap_err();
        assert!(e.certificate == "node_domination" || e.certificate == "peel_extremum");

        // The broken O(1) delta is caught against re-evaluation.
        let e = certify_fn(&LyingAverage {
            claim: Certificates {
                incremental_removal: true,
                ..Certificates::opaque()
            },
        })
        .unwrap_err();
        assert_eq!(e.certificate, "incremental_removal");

        // An honest declaration passes.
        certify_fn(&LyingAverage {
            claim: Certificates::opaque(),
        })
        .unwrap();
    }

    #[test]
    fn samples_are_deterministic() {
        assert_eq!(default_samples(7), default_samples(7));
        assert_ne!(default_samples(7), default_samples(8));
    }
}
