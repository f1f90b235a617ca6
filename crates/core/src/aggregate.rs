//! The open aggregation-function layer: the [`AggregateFn`] trait, its
//! machine-checkable property [`Certificates`], the built-in
//! implementations behind the [`Aggregation`] handle, and the registry
//! that lets aggregations defined *outside* this crate flow through the
//! whole serving stack.
//!
//! # The taxonomy is the API
//!
//! The paper's central idea (Table I) is not any single aggregation but
//! a *taxonomy*: each function's properties decide which algorithm can
//! answer top-r correctly and fast. Those properties are first-class
//! here — an implementor *declares* them as certificates and the solver
//! routing ([`crate::Query::solver`]), the peel fast path, TIC-IMPROVED
//! pruning and the local-search strategies all read the certificates
//! instead of matching on an enum.
//! A wrongly declared certificate is caught by the sampled validation
//! harness in [`crate::certify`] (custom functions are certified at
//! registration; debug builds re-check monotonicity on every enumerated
//! subgraph).
//!
//! | Function | `f(H)` | Key certificates | Top-r unconstrained |
//! |----------|--------|------------------|---------------------|
//! | `Min` | `min w(v)` | node domination, peel-from-below | P |
//! | `Max` | `max w(v)` | node domination, peel-from-above | P |
//! | `Sum` | `Σ w(v)` | removal-decreasing, O(1) remove delta | P |
//! | `SumSurplus` | `Σ w(v) + α·|H|` | removal-decreasing (α ≥ 0) | P |
//! | `Average` | `Σ w(v) / |H|` | — | NP-hard (Thm 1, 3) |
//! | `WeightDensity` | `Σ w(v) − β·|H|` | — | NP-hard |
//! | `BalancedDensity` | `w(H)/(w(H) − w(V∖H))` | −∞ sentinel | NP-hard |
//! | `TopTSum` | `Σ of the t largest w(v)` | subset-monotone, order statistics | no strict-decrease certificate (see below) |
//! | `Percentile` | nearest-rank p-quantile of `w(v)` | node domination (no peel direction) | no monotone certificate |
//! | `GeometricMean` | `(Π w(v))^(1/|H|)` | order statistics | NP-hard (avg-like) |
//!
//! `TopTSum` is subset-monotone but **not** strictly removal-decreasing
//! (removing a vertex outside the top-t leaves the value unchanged), so
//! Corollary 2 does not apply and it is served through the
//! size-constrained local-search route like the other functions without
//! a polynomial certificate; see Zhang et al. (arXiv:2311.13162) for
//! the dedicated top-L machinery this crate does not implement.
//! `Percentile` shows that node domination alone (Definition 6) is not
//! enough for threshold peeling — it additionally needs a peel
//! direction, which only the extremes have, hence the separate
//! [`Certificates::peel_extremum`] certificate.
//!
//! # Defining your own aggregation
//!
//! Implement [`AggregateFn`], register it with [`Aggregation::custom`],
//! and the returned handle works everywhere an [`Aggregation`] does —
//! `Query`, `Engine::run_batch` and the per-epoch result
//! cache. Registration runs the certification harness, so a
//! mis-declared certificate fails loudly *before* it can corrupt a
//! ranking. See `examples/custom_aggregation.rs` and DESIGN.md §10.

use std::sync::{OnceLock, RwLock};

/// Complexity class of a top-r search problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hardness {
    /// Solvable in polynomial time.
    Polynomial,
    /// NP-hard (Theorems 1, 3, 4 of the paper) — or no polynomial
    /// certificate is declared, which the router treats the same way.
    NpHard,
}

/// Peel direction of a node-domination aggregation whose top-r problem
/// is answered by threshold peeling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Extremum {
    /// The community value is its minimum member weight: peel the global
    /// minimum from below (Li et al. VLDB'15).
    Min,
    /// The community value is its maximum member weight: peel from above.
    Max,
}

impl Extremum {
    /// The built-in aggregation that peels in this direction — the one
    /// call every peel path evaluates communities with, so their values
    /// are bit-identical by construction.
    pub fn aggregation(self) -> Aggregation {
        match self {
            Extremum::Min => Aggregation::Min,
            Extremum::Max => Aggregation::Max,
        }
    }
}

/// Machine-checkable property certificates of an [`AggregateFn`].
///
/// Every field is a *claim* the implementation makes about itself; the
/// solver routing trusts the claims and the harness in
/// [`crate::certify`] checks them on sampled inputs. Start from
/// [`Certificates::opaque`] and declare only what holds — an opaque
/// aggregation is still servable through the size-constrained
/// local-search route.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Certificates {
    /// Corollary 2: removing any vertex from a community **strictly**
    /// decreases `f` (for positive weights). Grants the polynomial
    /// `SUM-NAÏVE`/`TIC-IMPROVED` route for unconstrained top-r.
    pub removal_decreasing: bool,
    /// Definition 7: `H ⊆ H'` implies `f(H) ≤ f(H')` for non-negative
    /// weights (subset monotone).
    pub size_proportional: bool,
    /// Definition 6: `f(H)` always equals some single member's weight.
    pub node_domination: bool,
    /// The value is the community's extreme member weight, so top-r is
    /// answered exactly by threshold peeling in the given direction.
    /// Stronger than [`node_domination`](Self::node_domination) — a
    /// percentile is node-dominated but has no peel direction.
    /// `Some(Min)` grants a second thing: size-bounded local search
    /// skips a seed that weighs no more than the list's threshold,
    /// because every candidate contains its seed.
    pub peel_extremum: Option<Extremum>,
    /// [`AggregateFn::value_after_removal`] computes the exact value of
    /// `H ∖ {v}` in O(1) from `f(H)` and `w(v)`. Grants TIC-IMPROVED's
    /// line-13 pruning and selects the drop-from-full-pool local-search
    /// strategy; without it, TIC (if routed) runs unpruned and local
    /// search uses the prefix strategy.
    pub incremental_removal: bool,
    /// Hardness of the size-*unconstrained* top-r problem.
    pub hardness_unconstrained: Hardness,
    /// The incremental [`AggregateState`] must maintain the weight
    /// multiset (order statistics) for
    /// [`AggregateFn::evaluate_state`], as a sorted vector: an add or
    /// remove costs a binary search plus an O(n) shift (n ≤ s, the size
    /// bound) instead of O(1), and an order statistic is an index.
    pub needs_multiset: bool,
    /// `f` may evaluate to `−∞` on a *non-empty* community (the
    /// undefined-value sentinel, e.g. `BalancedDensity` below half the
    /// total weight). Such communities rank last under `total_cmp`; see
    /// DESIGN.md §4 and the `TopList` ordering notes.
    pub may_be_neg_infinite: bool,
}

impl Certificates {
    /// The weakest truthful declaration: no structure claimed, NP-hard.
    /// Routes only through size-constrained local search.
    ///
    /// One caveat: `needs_multiset` is `false` here, which is only
    /// truthful when [`AggregateFn::evaluate_state`] is overridden —
    /// its *default* body reads the weight multiset, so a minimal
    /// implementation must either override `evaluate_state` (an O(1)
    /// body over `(count, sum)` where possible) or flip
    /// `needs_multiset` to `true`.
    pub const fn opaque() -> Certificates {
        Certificates {
            removal_decreasing: false,
            size_proportional: false,
            node_domination: false,
            peel_extremum: None,
            incremental_removal: false,
            hardness_unconstrained: Hardness::NpHard,
            needs_multiset: false,
            may_be_neg_infinite: false,
        }
    }
}

/// An aggregation function over community weights.
///
/// Implementations must be **pure and deterministic**: `evaluate` on
/// the same slice must return the same bits every time — the engine's
/// result cache, r-family merging, and the conformance suite all rely
/// on it. The certificates are checked by [`crate::certify`]; a custom
/// implementation that declares a property it does not have is rejected
/// at [`Aggregation::custom`] registration.
pub trait AggregateFn: Send + Sync + std::fmt::Debug {
    /// Short lowercase name (used in errors and reports).
    fn name(&self) -> &str;

    /// The property certificates; see [`Certificates`].
    fn certificates(&self) -> Certificates;

    /// Evaluates `f(H)` from a non-empty slice of member weights.
    /// `total_weight` is `w(V)` of the whole graph (consulted only by
    /// functions like `BalancedDensity`).
    fn evaluate(&self, member_weights: &[f64], total_weight: f64) -> f64;

    /// Validates the function's own parameters (NaN, out-of-range);
    /// called when a [`crate::Query`] is routed or built.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }

    /// For implementations declaring
    /// [`Certificates::incremental_removal`]: the exact value of
    /// `H ∖ {v}` computed in O(1) from `f(H)` and `w(v)`.
    fn value_after_removal(&self, parent_value: f64, removed_weight: f64) -> f64 {
        let _ = (parent_value, removed_weight);
        panic!(
            "value_after_removal is only defined for aggregations declaring the \
             removal-decreasing incremental certificate, not {}",
            self.name()
        )
    }

    /// Evaluates `f` from incrementally maintained state (running count
    /// and sum, plus the weight multiset when
    /// [`Certificates::needs_multiset`] is declared).
    ///
    /// The default calls [`evaluate`](Self::evaluate) on the multiset
    /// (ascending) — correct for any multiset-backed function, but it
    /// **requires the
    /// [`needs_multiset`](Certificates::needs_multiset) certificate**:
    /// an implementation that keeps the default must declare it (the
    /// certification harness rejects the combination otherwise, because
    /// the production [`AggregateState`] would not maintain the
    /// multiset this default reads). Functions computable from the
    /// running `(count, sum)` alone should override with an O(1) body
    /// instead and skip the multiset cost entirely.
    fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
        self.evaluate(state.sorted_weights(), state.total_weight())
    }
}

/// Built-in [`AggregateFn`] implementations. The [`Aggregation`] enum
/// variants are thin `Copy` handles onto these structs — one source of
/// truth per function.
pub mod builtin {
    use super::{AggregateFn, Certificates, Extremum, Hardness, StateView};

    /// `min_{v∈H} w(v)` — the classic influential-community model.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Min;

    impl AggregateFn for Min {
        fn name(&self) -> &str {
            "min"
        }
        fn certificates(&self) -> Certificates {
            Certificates {
                node_domination: true,
                peel_extremum: Some(Extremum::Min),
                hardness_unconstrained: Hardness::Polynomial,
                needs_multiset: true,
                ..Certificates::opaque()
            }
        }
        fn evaluate(&self, member_weights: &[f64], _total_weight: f64) -> f64 {
            member_weights.iter().copied().fold(f64::INFINITY, f64::min)
        }
        fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
            state.min_weight().expect("non-empty state")
        }
    }

    /// `max_{v∈H} w(v)`.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Max;

    impl AggregateFn for Max {
        fn name(&self) -> &str {
            "max"
        }
        fn certificates(&self) -> Certificates {
            Certificates {
                node_domination: true,
                peel_extremum: Some(Extremum::Max),
                hardness_unconstrained: Hardness::Polynomial,
                needs_multiset: true,
                ..Certificates::opaque()
            }
        }
        fn evaluate(&self, member_weights: &[f64], _total_weight: f64) -> f64 {
            member_weights
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
        fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
            state.max_weight().expect("non-empty state")
        }
    }

    /// `Σ_{v∈H} w(v)`.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Sum;

    impl AggregateFn for Sum {
        fn name(&self) -> &str {
            "sum"
        }
        fn certificates(&self) -> Certificates {
            Certificates {
                removal_decreasing: true,
                size_proportional: true,
                incremental_removal: true,
                hardness_unconstrained: Hardness::Polynomial,
                ..Certificates::opaque()
            }
        }
        fn evaluate(&self, member_weights: &[f64], _total_weight: f64) -> f64 {
            member_weights.iter().sum()
        }
        fn value_after_removal(&self, parent_value: f64, removed_weight: f64) -> f64 {
            parent_value - removed_weight
        }
        fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
            state.sum()
        }
    }

    /// `Σ w(v) + α·|H|` (α ≥ 0 keeps it removal-decreasing).
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct SumSurplus {
        /// Per-member bonus α.
        pub alpha: f64,
    }

    impl AggregateFn for SumSurplus {
        fn name(&self) -> &str {
            "sum-surplus"
        }
        fn certificates(&self) -> Certificates {
            let monotone = self.alpha >= 0.0;
            Certificates {
                removal_decreasing: monotone,
                size_proportional: monotone,
                // The O(1) remove delta is exact for any α — only the
                // *monotonicity* certificate depends on the sign.
                incremental_removal: true,
                hardness_unconstrained: if monotone {
                    Hardness::Polynomial
                } else {
                    Hardness::NpHard
                },
                ..Certificates::opaque()
            }
        }
        fn validate(&self) -> Result<(), String> {
            if self.alpha.is_nan() {
                return Err("sum-surplus has a NaN parameter".into());
            }
            Ok(())
        }
        fn evaluate(&self, member_weights: &[f64], _total_weight: f64) -> f64 {
            let sum: f64 = member_weights.iter().sum();
            sum + self.alpha * member_weights.len() as f64
        }
        fn value_after_removal(&self, parent_value: f64, removed_weight: f64) -> f64 {
            parent_value - removed_weight - self.alpha
        }
        fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
            state.sum() + self.alpha * state.len() as f64
        }
    }

    /// `Σ w(v) / |H|`.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Average;

    impl AggregateFn for Average {
        fn name(&self) -> &str {
            "avg"
        }
        fn certificates(&self) -> Certificates {
            Certificates::opaque()
        }
        fn evaluate(&self, member_weights: &[f64], _total_weight: f64) -> f64 {
            let sum: f64 = member_weights.iter().sum();
            sum / member_weights.len() as f64
        }
        fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
            state.sum() / state.len() as f64
        }
    }

    /// `Σ w(v) − β·|H|` (β > 0 penalizes size).
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct WeightDensity {
        /// Per-member penalty β.
        pub beta: f64,
    }

    impl AggregateFn for WeightDensity {
        fn name(&self) -> &str {
            "weight-density"
        }
        fn certificates(&self) -> Certificates {
            Certificates::opaque()
        }
        fn validate(&self) -> Result<(), String> {
            if self.beta.is_nan() {
                return Err("weight-density has a NaN parameter".into());
            }
            Ok(())
        }
        fn evaluate(&self, member_weights: &[f64], _total_weight: f64) -> f64 {
            let sum: f64 = member_weights.iter().sum();
            sum - self.beta * member_weights.len() as f64
        }
        fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
            state.sum() - self.beta * state.len() as f64
        }
    }

    /// `w(H) / (w(H) − w(V∖H))`, defined only when `H` carries more
    /// than half of the total weight; returns `−∞` otherwise so such
    /// communities rank last (see DESIGN.md §4).
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct BalancedDensity;

    impl AggregateFn for BalancedDensity {
        fn name(&self) -> &str {
            "balanced-density"
        }
        fn certificates(&self) -> Certificates {
            Certificates {
                may_be_neg_infinite: true,
                ..Certificates::opaque()
            }
        }
        fn evaluate(&self, member_weights: &[f64], total_weight: f64) -> f64 {
            let sum: f64 = member_weights.iter().sum();
            let denom = 2.0 * sum - total_weight;
            if denom > 0.0 {
                sum / denom
            } else {
                f64::NEG_INFINITY
            }
        }
        fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
            let denom = 2.0 * state.sum() - state.total_weight();
            if denom > 0.0 {
                state.sum() / denom
            } else {
                f64::NEG_INFINITY
            }
        }
    }

    /// `Σ of the t largest member weights` — the top-L influence model
    /// (Zhang et al., arXiv:2311.13162). Subset-monotone but **not**
    /// strictly removal-decreasing: removing a vertex outside the top-t
    /// leaves the value unchanged, so Corollary 2 does not apply and
    /// the unconstrained problem is served through local search.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct TopTSum {
        /// How many of the largest weights are summed (t ≥ 1).
        pub t: usize,
    }

    impl AggregateFn for TopTSum {
        fn name(&self) -> &str {
            "top-t-sum"
        }
        fn certificates(&self) -> Certificates {
            Certificates {
                size_proportional: true,
                needs_multiset: true,
                ..Certificates::opaque()
            }
        }
        fn validate(&self) -> Result<(), String> {
            if self.t == 0 {
                return Err("top-t-sum needs t >= 1".into());
            }
            Ok(())
        }
        fn evaluate(&self, member_weights: &[f64], _total_weight: f64) -> f64 {
            let mut sorted = member_weights.to_vec();
            sorted.sort_by(|a, b| b.total_cmp(a));
            let mut s = 0.0;
            for &w in sorted.iter().take(self.t) {
                s += w;
            }
            s
        }
        fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
            // Identical addition sequence to `evaluate`: the `t` largest
            // weights in descending order.
            let mut s = 0.0;
            for &w in state.sorted_weights().iter().rev().take(self.t) {
                s += w;
            }
            s
        }
    }

    /// Nearest-rank p-quantile of the member weights (`p ∈ [0, 1]`;
    /// `p = 0` is `min`, `p = 1` is `max`). Node-dominated (the value
    /// is always some member's weight) yet **not** peelable: a
    /// percentile has no monotone peel direction, which is exactly why
    /// [`Certificates::peel_extremum`] is a separate, stronger
    /// certificate than [`Certificates::node_domination`].
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Percentile {
        /// Quantile in `[0, 1]`.
        pub p: f64,
    }

    impl Percentile {
        /// Nearest-rank index into an ascending order of `n` weights.
        pub(crate) fn index(&self, n: usize) -> usize {
            let idx = (self.p * n as f64).ceil() as usize;
            idx.saturating_sub(1).min(n - 1)
        }
    }

    impl AggregateFn for Percentile {
        fn name(&self) -> &str {
            "percentile"
        }
        fn certificates(&self) -> Certificates {
            Certificates {
                node_domination: true,
                needs_multiset: true,
                ..Certificates::opaque()
            }
        }
        fn validate(&self) -> Result<(), String> {
            if !(0.0..=1.0).contains(&self.p) {
                return Err(format!("percentile p must be in [0, 1], got {}", self.p));
            }
            Ok(())
        }
        fn evaluate(&self, member_weights: &[f64], _total_weight: f64) -> f64 {
            let mut sorted = member_weights.to_vec();
            sorted.sort_by(|a, b| a.total_cmp(b));
            sorted[self.index(sorted.len())]
        }
        fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
            state.sorted_weights()[self.index(state.len())]
        }
    }

    /// Geometric mean of the member weights, `(Π w(v))^(1/|H|)` —
    /// computed as `exp(mean of ln w)` for numeric stability. Rewards
    /// uniformly influential groups (a single near-zero member drags
    /// the value toward zero, unlike `avg`). NP-hard unconstrained for
    /// the same reason as `avg` (it is `avg` in log space).
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct GeometricMean;

    impl GeometricMean {
        fn fold(weights: impl Iterator<Item = f64>, count: usize) -> f64 {
            let mut log_sum = 0.0;
            for w in weights {
                if w == 0.0 {
                    return 0.0; // a zero factor zeroes the product
                }
                log_sum += w.ln();
            }
            (log_sum / count as f64).exp()
        }
    }

    impl AggregateFn for GeometricMean {
        fn name(&self) -> &str {
            "geo-mean"
        }
        fn certificates(&self) -> Certificates {
            Certificates {
                needs_multiset: true,
                ..Certificates::opaque()
            }
        }
        fn evaluate(&self, member_weights: &[f64], _total_weight: f64) -> f64 {
            Self::fold(member_weights.iter().copied(), member_weights.len())
        }
        fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
            Self::fold(state.sorted_weights().iter().copied(), state.len())
        }
    }
}

/// An aggregation function handle: `Copy`, hashable (via
/// [`cache_key`](Aggregation::cache_key)), and routable. The built-in
/// variants are handles onto the structs in [`builtin`];
/// [`Aggregation::Custom`] carries a registry id for a user-defined
/// [`AggregateFn`] registered with [`Aggregation::custom`].
///
/// `#[non_exhaustive]`: match with a wildcard arm outside `ic-core` —
/// or better, don't match at all and read
/// [`certificates`](Aggregation::certificates) instead; that is the
/// whole point of the certificate layer.
///
/// Unlike [`Community`](crate::Community), this type carries no serde
/// derives even under the (stub) `serde` feature: the `Custom` variant
/// holds a process-local `&'static` implementation reference that is
/// deliberately not serializable — a registration id means nothing in
/// another process. Wire formats should transmit the built-in variant
/// name + parameters, or a custom function's own identity.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Aggregation {
    /// `min_{v∈H} w(v)` — the classic influential-community model
    /// (Li et al., Bi et al.).
    Min,
    /// `max_{v∈H} w(v)`.
    Max,
    /// `Σ_{v∈H} w(v)`.
    Sum,
    /// `Σ w(v) + α·|H|` (α ≥ 0 keeps it removal-decreasing).
    SumSurplus {
        /// Per-member bonus α.
        alpha: f64,
    },
    /// `Σ w(v) / |H|`.
    Average,
    /// `Σ w(v) − β·|H|` (β > 0 penalizes size).
    WeightDensity {
        /// Per-member penalty β.
        beta: f64,
    },
    /// `w(H) / (w(H) − w(V∖H))`; `−∞` when `H` carries at most half the
    /// total weight (see DESIGN.md §4).
    BalancedDensity,
    /// Sum of the `t` largest member weights ([`builtin::TopTSum`]).
    TopTSum {
        /// How many of the largest weights are summed (t ≥ 1).
        t: usize,
    },
    /// Nearest-rank p-quantile of the member weights
    /// ([`builtin::Percentile`]).
    Percentile {
        /// Quantile in `[0, 1]`.
        p: f64,
    },
    /// Geometric mean of the member weights ([`builtin::GeometricMean`]).
    GeometricMean,
    /// A user-defined [`AggregateFn`] registered with
    /// [`Aggregation::custom`].
    Custom(CustomAggregation),
}

/// Handle onto a registered user-defined [`AggregateFn`]. Obtained from
/// [`Aggregation::custom`]; two handles compare equal iff they came
/// from the same registration.
///
/// The handle is **process-local**: it carries the registration id (the
/// cache identity) and a direct `&'static` reference to the leaked
/// implementation, so dispatch is a plain field read — no registry lock
/// on any solver hot path — and the handle is deliberately *not*
/// serializable (a registration id means nothing in another process).
#[derive(Clone, Copy, Debug)]
pub struct CustomAggregation {
    id: u32,
    f: &'static dyn AggregateFn,
    /// Leaked once per registration so [`Aggregation::name`] can keep
    /// its `&'static str` return type.
    name: &'static str,
}

impl PartialEq for CustomAggregation {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for CustomAggregation {}
impl std::hash::Hash for CustomAggregation {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

fn registry() -> &'static RwLock<Vec<CustomAggregation>> {
    static REGISTRY: OnceLock<RwLock<Vec<CustomAggregation>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(Vec::new()))
}

impl CustomAggregation {
    /// The registry id (stable within the process, assigned in
    /// registration order).
    pub fn id(self) -> u32 {
        self.id
    }
}

impl Aggregation {
    /// Registers a user-defined aggregation function and returns a
    /// handle that works everywhere an [`Aggregation`] does (query
    /// building, engine batches, the result cache).
    ///
    /// Registration validates the function's parameters and runs the
    /// sampled certification harness ([`crate::certify`]): a declared
    /// certificate the implementation does not actually satisfy is
    /// rejected here, before it can silently corrupt a ranking.
    ///
    /// The function is stored for the lifetime of the process (one
    /// small leak per registration — registries are expected to be
    /// populated once at startup). Registering the same logical
    /// function twice yields two distinct handles with distinct cache
    /// identities; keep and reuse the returned handle.
    pub fn custom<F: AggregateFn + 'static>(f: F) -> Result<Aggregation, crate::SearchError> {
        f.validate()
            .map_err(|m| crate::SearchError::InvalidParams(format!("{}: {m}", f.name())))?;
        crate::certify::certify_fn(&f).map_err(|v| {
            crate::SearchError::InvalidParams(format!(
                "certification failed for custom aggregation {}: {v}",
                f.name()
            ))
        })?;
        let name: &'static str = Box::leak(f.name().to_owned().into_boxed_str());
        let leaked: &'static dyn AggregateFn = Box::leak(Box::new(f));
        let mut reg = registry().write().expect("aggregation registry poisoned");
        let id = u32::try_from(reg.len()).expect("aggregation registry overflow");
        let handle = CustomAggregation {
            id,
            f: leaked,
            name,
        };
        reg.push(handle);
        Ok(Aggregation::Custom(handle))
    }

    /// Handles of every custom aggregation registered so far (built-ins
    /// are enumerated separately; see [`Aggregation::builtins`]). Used
    /// by the CI certification sweep.
    pub fn registered_customs() -> Vec<Aggregation> {
        let reg = registry().read().expect("aggregation registry poisoned");
        reg.iter().copied().map(Aggregation::Custom).collect()
    }

    /// One representative handle per built-in variant (parameterized
    /// variants use their documented default-ish parameters). The
    /// certification harness and the conformance suite sweep these.
    pub fn builtins() -> Vec<Aggregation> {
        vec![
            Aggregation::Min,
            Aggregation::Max,
            Aggregation::Sum,
            Aggregation::SumSurplus { alpha: 0.5 },
            Aggregation::Average,
            Aggregation::WeightDensity { beta: 0.5 },
            Aggregation::BalancedDensity,
            Aggregation::TopTSum { t: 3 },
            Aggregation::Percentile { p: 0.5 },
            Aggregation::GeometricMean,
        ]
    }

    /// Dispatches to the underlying [`AggregateFn`] implementation.
    /// Built-in variants construct their (zero-cost) [`builtin`] struct
    /// on the stack; custom handles carry a direct `&'static` reference
    /// to their registered implementation, so neither side takes a lock.
    pub fn with_fn<R>(&self, f: impl FnOnce(&dyn AggregateFn) -> R) -> R {
        match *self {
            Aggregation::Min => f(&builtin::Min),
            Aggregation::Max => f(&builtin::Max),
            Aggregation::Sum => f(&builtin::Sum),
            Aggregation::SumSurplus { alpha } => f(&builtin::SumSurplus { alpha }),
            Aggregation::Average => f(&builtin::Average),
            Aggregation::WeightDensity { beta } => f(&builtin::WeightDensity { beta }),
            Aggregation::BalancedDensity => f(&builtin::BalancedDensity),
            Aggregation::TopTSum { t } => f(&builtin::TopTSum { t }),
            Aggregation::Percentile { p } => f(&builtin::Percentile { p }),
            Aggregation::GeometricMean => f(&builtin::GeometricMean),
            Aggregation::Custom(c) => f(c.f),
        }
    }

    /// Short lowercase name, matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match *self {
            Aggregation::Min => "min",
            Aggregation::Max => "max",
            Aggregation::Sum => "sum",
            Aggregation::SumSurplus { .. } => "sum-surplus",
            Aggregation::Average => "avg",
            Aggregation::WeightDensity { .. } => "weight-density",
            Aggregation::BalancedDensity => "balanced-density",
            Aggregation::TopTSum { .. } => "top-t-sum",
            Aggregation::Percentile { .. } => "percentile",
            Aggregation::GeometricMean => "geo-mean",
            Aggregation::Custom(c) => c.name,
        }
    }

    /// The declared property certificates; see [`Certificates`]. This
    /// is what every routing decision reads — nothing in the workspace
    /// matches on the enum variants for dispatch anymore.
    pub fn certificates(&self) -> Certificates {
        self.with_fn(|f| f.certificates())
    }

    /// Validates the aggregation's own parameters (NaN, out-of-range).
    pub fn validate_params(&self) -> Result<(), String> {
        self.with_fn(|f| f.validate())
    }

    /// Node domination (Definition 6): the community value always equals
    /// some single member's weight.
    pub fn is_node_domination(&self) -> bool {
        self.certificates().node_domination
    }

    /// The aggregation's scalar parameter (α of `SumSurplus`, β of
    /// `WeightDensity`, p of `Percentile`), if it has one.
    pub fn parameter(&self) -> Option<f64> {
        match *self {
            Aggregation::SumSurplus { alpha } => Some(alpha),
            Aggregation::WeightDensity { beta } => Some(beta),
            Aggregation::Percentile { p } => Some(p),
            _ => None,
        }
    }

    /// Stable hashable identity: a variant discriminant plus the
    /// variant's canonicalized parameter bits (`f64` parameters run
    /// through [`canonical_f64_bits`]). Aggregations that compare equal —
    /// including `alpha: -0.0` vs `alpha: 0.0` — hash identically, so
    /// job dedup and the cross-batch result cache never split on signed
    /// zero or NaN payload differences. Custom handles key on their
    /// registration id (distinct registrations are distinct cache
    /// entities by design). This is the one key every cache and planner
    /// in the workspace uses.
    pub fn cache_key(&self) -> (u8, u64) {
        match *self {
            Aggregation::Min => (0, 0),
            Aggregation::Max => (1, 0),
            Aggregation::Sum => (2, 0),
            Aggregation::SumSurplus { alpha } => (3, canonical_f64_bits(alpha)),
            Aggregation::Average => (4, 0),
            Aggregation::WeightDensity { beta } => (5, canonical_f64_bits(beta)),
            Aggregation::BalancedDensity => (6, 0),
            Aggregation::TopTSum { t } => (7, t as u64),
            Aggregation::Percentile { p } => (8, canonical_f64_bits(p)),
            Aggregation::GeometricMean => (9, 0),
            Aggregation::Custom(c) => (u8::MAX, c.id as u64),
        }
    }

    /// Size proportionality (Definition 7): `H ⊆ H'` implies
    /// `f(H) ≤ f(H')` (for non-negative weights).
    pub fn is_size_proportional(&self) -> bool {
        self.certificates().size_proportional
    }

    /// Hardness of the *size-unconstrained* top-r problem (Section III).
    pub fn hardness_unconstrained(&self) -> Hardness {
        self.certificates().hardness_unconstrained
    }

    /// Evaluates `f(H)` from a slice of member weights.
    ///
    /// `total_weight` is `w(V)` of the *whole* graph; only functions
    /// like `BalancedDensity` consult it. Returns `−∞` for an empty
    /// community.
    pub fn evaluate(&self, member_weights: &[f64], total_weight: f64) -> f64 {
        if member_weights.is_empty() {
            return f64::NEG_INFINITY;
        }
        self.with_fn(|f| f.evaluate(member_weights, total_weight))
    }

    /// For aggregations declaring the
    /// [`incremental_removal`](Certificates::incremental_removal)
    /// certificate, the value of `H ∖ {v}` computed in O(1) from the
    /// value of `H` (used by Algorithm 2's pruning bound: the value of
    /// the parent minus the removed vertex upper-bounds every child
    /// created by the cascade).
    ///
    /// Panics for aggregations without the certificate.
    pub fn value_after_removal(&self, parent_value: f64, removed_weight: f64) -> f64 {
        self.with_fn(|f| f.value_after_removal(parent_value, removed_weight))
    }
}

/// Canonical bit pattern of an `f64` used in hash keys: `-0.0` folds
/// onto `+0.0` (they compare equal, so they must hash equal) and every
/// NaN payload folds onto one canonical quiet NaN (validation rejects
/// NaN parameters, but a key derived from one must still not split the
/// cache). All other values hash by their exact bits — distinct finite
/// values stay distinct, and the infinities (including the `−∞`
/// undefined-value sentinel) keep their unique IEEE-754 patterns.
pub fn canonical_f64_bits(x: f64) -> u64 {
    if x == 0.0 {
        0.0f64.to_bits()
    } else if x.is_nan() {
        0x7ff8_0000_0000_0000
    } else {
        x.to_bits()
    }
}

/// Read-only view over incrementally maintained aggregate state, passed
/// to [`AggregateFn::evaluate_state`]. The multiset accessors panic for
/// aggregations that did not declare
/// [`Certificates::needs_multiset`] — a mis-declared certificate fails
/// loudly instead of silently evaluating garbage.
pub struct StateView<'a> {
    count: usize,
    sum: f64,
    total_weight: f64,
    multiset: Option<&'a [f64]>,
    /// Set by the certification harness: flags any multiset access so
    /// an undeclared `needs_multiset` is detected without panicking
    /// (works under `panic = "abort"` too).
    multiset_probe: Option<&'a std::cell::Cell<bool>>,
}

impl<'a> StateView<'a> {
    pub(crate) fn new(
        count: usize,
        sum: f64,
        total_weight: f64,
        multiset: Option<&'a [f64]>,
    ) -> Self {
        StateView {
            count,
            sum,
            total_weight,
            multiset,
            multiset_probe: None,
        }
    }

    /// Harness constructor: the multiset is always present and every
    /// access flips `probe`, so [`crate::certify`] can falsify an
    /// undeclared [`Certificates::needs_multiset`] without relying on
    /// unwinding.
    pub(crate) fn probing(
        count: usize,
        sum: f64,
        total_weight: f64,
        multiset: &'a [f64],
        probe: &'a std::cell::Cell<bool>,
    ) -> Self {
        StateView {
            count,
            sum,
            total_weight,
            multiset: Some(multiset),
            multiset_probe: Some(probe),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no member is present (never observed by
    /// [`AggregateFn::evaluate_state`]; the empty value is pinned to
    /// `−∞` one layer up).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Running sum of the member weights.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// `w(V)` of the whole graph.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// The member weights in ascending (`total_cmp`) order, duplicates
    /// adjacent (requires the multiset certificate).
    pub fn sorted_weights(&self) -> &'a [f64] {
        if let Some(probe) = self.multiset_probe {
            probe.set(true);
        }
        self.multiset.unwrap_or_else(|| {
            panic!(
                "aggregate state holds no weight multiset — the aggregation must declare \
                 Certificates::needs_multiset to use order statistics"
            )
        })
    }

    /// Smallest member weight (requires the multiset certificate).
    pub fn min_weight(&self) -> Option<f64> {
        self.sorted_weights().first().copied()
    }

    /// Largest member weight (requires the multiset certificate).
    pub fn max_weight(&self) -> Option<f64> {
        self.sorted_weights().last().copied()
    }

    fn runs(&self) -> impl DoubleEndedIterator<Item = (f64, usize)> + 'a {
        let same = |a: &f64, b: &f64| a.to_bits() == b.to_bits();
        let runs = self.sorted_weights().chunk_by(same);
        runs.map(|run| (run[0], run.len()))
    }

    /// `(weight, multiplicity)` pairs in ascending weight order
    /// (requires the multiset certificate).
    pub fn weights_asc(&self) -> impl Iterator<Item = (f64, usize)> + 'a {
        self.runs()
    }

    /// `(weight, multiplicity)` pairs in descending weight order
    /// (requires the multiset certificate).
    pub fn weights_desc(&self) -> impl Iterator<Item = (f64, usize)> + 'a {
        self.runs().rev()
    }
}

/// Incrementally maintained aggregate over a community's weight multiset.
///
/// `add`/`remove` run in O(1) for the arithmetic aggregations; for
/// those declaring [`Certificates::needs_multiset`] (`min`/`max`, the
/// order-statistics functions, and any custom implementation that asks
/// for it) they keep a sorted vector — a binary search plus a shift of
/// at most the community's size. Used by the local-search
/// strategies, which grow and shrink a candidate community one vertex
/// at a time; [`value`](AggregateState::value) dispatches to
/// [`AggregateFn::evaluate_state`].
#[derive(Clone, Debug)]
pub struct AggregateState {
    aggregation: Aggregation,
    needs_multiset: bool,
    total_weight: f64,
    count: usize,
    sum: f64,
    /// The weights in ascending `total_cmp` order; maintained only under
    /// the multiset certificate.
    multiset: Vec<f64>,
}

impl AggregateState {
    /// Creates an empty state. `total_weight` is `w(V)` (used by
    /// `BalancedDensity`-style functions only; pass anything, e.g. 0.0,
    /// otherwise).
    pub fn new(aggregation: Aggregation, total_weight: f64) -> Self {
        AggregateState {
            aggregation,
            needs_multiset: aggregation.certificates().needs_multiset,
            total_weight,
            count: 0,
            sum: 0.0,
            multiset: Vec::new(),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no member has been added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds a member with weight `w`.
    pub fn add(&mut self, w: f64) {
        self.count += 1;
        self.sum += w;
        if self.needs_multiset {
            let at = self.multiset.partition_point(|x| x.total_cmp(&w).is_le());
            self.multiset.insert(at, w);
        }
    }

    /// Removes a member with weight `w`. Under the multiset certificate
    /// the weight must have been added before (panics otherwise — a
    /// logic error).
    pub fn remove(&mut self, w: f64) {
        debug_assert!(self.count > 0, "remove from empty aggregate");
        self.count -= 1;
        self.sum -= w;
        if self.needs_multiset {
            let at = self
                .multiset
                .binary_search_by(|x| x.total_cmp(&w))
                .unwrap_or_else(|_| panic!("weight {w} was never added"));
            self.multiset.remove(at);
        }
    }

    /// Clears all members.
    pub fn clear(&mut self) {
        self.count = 0;
        self.sum = 0.0;
        self.multiset.clear();
    }

    /// Current `f(H)`; `−∞` when empty.
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            return f64::NEG_INFINITY;
        }
        let view = StateView::new(
            self.count,
            self.sum,
            self.total_weight,
            self.needs_multiset.then_some(&self.multiset[..]),
        );
        self.aggregation.with_fn(|f| f.evaluate_state(&view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> Vec<Aggregation> {
        Aggregation::builtins()
    }

    #[test]
    fn table_one_values() {
        let w = [4.0, 1.0, 7.0];
        let total = 20.0;
        assert_eq!(Aggregation::Min.evaluate(&w, total), 1.0);
        assert_eq!(Aggregation::Max.evaluate(&w, total), 7.0);
        assert_eq!(Aggregation::Sum.evaluate(&w, total), 12.0);
        assert_eq!(
            Aggregation::SumSurplus { alpha: 2.0 }.evaluate(&w, total),
            18.0
        );
        assert_eq!(Aggregation::Average.evaluate(&w, total), 4.0);
        assert_eq!(
            Aggregation::WeightDensity { beta: 1.0 }.evaluate(&w, total),
            9.0
        );
        // Balanced density: 12 / (12 - 8) = 3.
        assert_eq!(Aggregation::BalancedDensity.evaluate(&w, total), 3.0);
    }

    #[test]
    fn new_builtin_values() {
        let w = [4.0, 1.0, 7.0, 2.0];
        assert_eq!(Aggregation::TopTSum { t: 2 }.evaluate(&w, 0.0), 11.0);
        assert_eq!(Aggregation::TopTSum { t: 10 }.evaluate(&w, 0.0), 14.0);
        assert_eq!(Aggregation::Percentile { p: 0.0 }.evaluate(&w, 0.0), 1.0);
        assert_eq!(Aggregation::Percentile { p: 1.0 }.evaluate(&w, 0.0), 7.0);
        assert_eq!(Aggregation::Percentile { p: 0.5 }.evaluate(&w, 0.0), 2.0);
        let gm = Aggregation::GeometricMean.evaluate(&w, 0.0);
        assert!((gm - (4.0f64 * 1.0 * 7.0 * 2.0).powf(0.25)).abs() < 1e-9);
        // A zero member zeroes the geometric mean.
        assert_eq!(Aggregation::GeometricMean.evaluate(&[0.0, 5.0], 0.0), 0.0);
    }

    #[test]
    fn balanced_density_undefined_when_minority() {
        let w = [1.0, 2.0];
        assert_eq!(
            Aggregation::BalancedDensity.evaluate(&w, 100.0),
            f64::NEG_INFINITY
        );
        // Exactly half is also undefined (denominator 0).
        assert_eq!(
            Aggregation::BalancedDensity.evaluate(&w, 6.0),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn empty_community_is_neg_infinity() {
        for agg in all() {
            assert_eq!(agg.evaluate(&[], 10.0), f64::NEG_INFINITY, "{}", agg.name());
        }
    }

    #[test]
    fn classification_matches_paper_table() {
        use Hardness::*;
        assert!(Aggregation::Min.is_node_domination());
        assert!(Aggregation::Max.is_node_domination());
        assert!(Aggregation::Percentile { p: 0.5 }.is_node_domination());
        assert!(!Aggregation::Sum.is_node_domination());

        assert!(Aggregation::Sum.is_size_proportional());
        assert!(Aggregation::SumSurplus { alpha: 1.0 }.is_size_proportional());
        assert!(!Aggregation::SumSurplus { alpha: -1.0 }.is_size_proportional());
        assert!(Aggregation::TopTSum { t: 2 }.is_size_proportional());
        assert!(!Aggregation::Average.is_size_proportional());

        assert_eq!(Aggregation::Min.hardness_unconstrained(), Polynomial);
        assert_eq!(Aggregation::Sum.hardness_unconstrained(), Polynomial);
        assert_eq!(Aggregation::Average.hardness_unconstrained(), NpHard);
        assert_eq!(
            Aggregation::WeightDensity { beta: 1.0 }.hardness_unconstrained(),
            NpHard
        );
        assert_eq!(
            Aggregation::BalancedDensity.hardness_unconstrained(),
            NpHard
        );
        assert_eq!(Aggregation::GeometricMean.hardness_unconstrained(), NpHard);
    }

    #[test]
    fn certificates_expose_the_routing_structure() {
        assert_eq!(
            Aggregation::Min.certificates().peel_extremum,
            Some(Extremum::Min)
        );
        assert_eq!(
            Aggregation::Max.certificates().peel_extremum,
            Some(Extremum::Max)
        );
        // Node domination without a peel direction.
        let p = Aggregation::Percentile { p: 0.5 }.certificates();
        assert!(p.node_domination && p.peel_extremum.is_none());
        // Monotone without strict decrease.
        let t = Aggregation::TopTSum { t: 2 }.certificates();
        assert!(t.size_proportional && !t.removal_decreasing);
        // The sentinel certificate.
        assert!(
            Aggregation::BalancedDensity
                .certificates()
                .may_be_neg_infinite
        );
        assert!(!Aggregation::Sum.certificates().may_be_neg_infinite);
    }

    #[test]
    fn cache_key_normalizes_signed_zero_and_nan() {
        assert_eq!(
            Aggregation::SumSurplus { alpha: -0.0 }.cache_key(),
            Aggregation::SumSurplus { alpha: 0.0 }.cache_key(),
            "-0.0 and 0.0 compare equal and must hash equal"
        );
        assert_eq!(
            Aggregation::WeightDensity { beta: -0.0 }.cache_key(),
            Aggregation::WeightDensity { beta: 0.0 }.cache_key()
        );
        // Every NaN payload folds onto one canonical key.
        let a = f64::from_bits(0x7ff8_0000_0000_0001);
        let b = f64::from_bits(0xfff8_dead_beef_0000);
        assert_eq!(
            Aggregation::SumSurplus { alpha: a }.cache_key(),
            Aggregation::SumSurplus { alpha: b }.cache_key()
        );
        // Distinct finite parameters stay distinct; so do variants.
        assert_ne!(
            Aggregation::SumSurplus { alpha: 1.0 }.cache_key(),
            Aggregation::SumSurplus { alpha: 2.0 }.cache_key()
        );
        assert_ne!(
            Aggregation::SumSurplus { alpha: 1.0 }.cache_key(),
            Aggregation::WeightDensity { beta: 1.0 }.cache_key()
        );
        assert_ne!(
            Aggregation::TopTSum { t: 2 }.cache_key(),
            Aggregation::TopTSum { t: 3 }.cache_key()
        );
        assert_ne!(
            Aggregation::Percentile { p: 0.5 }.cache_key(),
            Aggregation::Percentile { p: 0.9 }.cache_key()
        );
        // All built-ins have pairwise distinct discriminants.
        let mut kinds: Vec<u8> = all().iter().map(|a| a.cache_key().0).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), all().len());
    }

    #[test]
    fn canonical_bits_keep_infinities_distinct_and_stable() {
        // The −∞ undefined-value sentinel must cache/dedup under its own
        // stable identity (regression companion to the TopList ordering
        // tests in `community.rs`).
        assert_eq!(
            canonical_f64_bits(f64::NEG_INFINITY),
            f64::NEG_INFINITY.to_bits()
        );
        assert_eq!(canonical_f64_bits(f64::INFINITY), f64::INFINITY.to_bits());
        assert_ne!(
            canonical_f64_bits(f64::NEG_INFINITY),
            canonical_f64_bits(f64::INFINITY)
        );
    }

    #[test]
    fn parameter_accessor() {
        assert_eq!(
            Aggregation::SumSurplus { alpha: 2.5 }.parameter(),
            Some(2.5)
        );
        assert_eq!(
            Aggregation::WeightDensity { beta: 0.5 }.parameter(),
            Some(0.5)
        );
        assert_eq!(Aggregation::Percentile { p: 0.9 }.parameter(), Some(0.9));
        assert_eq!(Aggregation::Sum.parameter(), None);
        assert_eq!(Aggregation::Min.parameter(), None);
    }

    #[test]
    fn value_after_removal_matches_reevaluation() {
        let w = [4.0, 1.0, 7.0];
        for agg in [Aggregation::Sum, Aggregation::SumSurplus { alpha: 0.5 }] {
            let parent = agg.evaluate(&w, 0.0);
            let child = agg.value_after_removal(parent, 1.0);
            let expect = agg.evaluate(&[4.0, 7.0], 0.0);
            assert!((child - expect).abs() < 1e-12, "{}", agg.name());
        }
    }

    #[test]
    #[should_panic(expected = "removal-decreasing")]
    fn value_after_removal_rejects_avg() {
        Aggregation::Average.value_after_removal(1.0, 1.0);
    }

    #[test]
    fn incremental_state_matches_slice_evaluation() {
        let weights = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let total = 40.0;
        for agg in all() {
            let mut st = AggregateState::new(agg, total);
            let mut current: Vec<f64> = Vec::new();
            for &w in &weights {
                st.add(w);
                current.push(w);
                let expect = agg.evaluate(&current, total);
                let got = st.value();
                assert!(
                    (got - expect).abs() < 1e-9 || (got == expect),
                    "{} after add: {got} vs {expect}",
                    agg.name()
                );
            }
            // Remove in a scrambled order.
            for &w in &[1.0, 9.0, 3.0, 2.0] {
                st.remove(w);
                let pos = current.iter().position(|&x| x == w).unwrap();
                current.remove(pos);
                let expect = agg.evaluate(&current, total);
                let got = st.value();
                assert!(
                    (got - expect).abs() < 1e-9 || (got == expect),
                    "{} after remove: {got} vs {expect}",
                    agg.name()
                );
            }
        }
    }

    #[test]
    fn sorted_state_evaluates_like_the_slice_bit_for_bit() {
        // Duplicates, both zeros, and a walk down to the empty state's
        // −∞: every multiset-backed builtin reads the sorted vector
        // exactly as `evaluate` reads the members (handed over in
        // ascending order: `f64::min` of the two zeros is whichever
        // comes last).
        let adds = [0.0, 2.5, -0.0, 2.5, 7.0, 0.0, 1.0, 2.5, -0.0].map(|w| (true, w));
        let removes = [2.5, 0.0, -0.0, 7.0, 2.5, 0.0, 1.0, -0.0, 2.5].map(|w| (false, w));
        for agg in all()
            .into_iter()
            .filter(|a| a.certificates().needs_multiset)
        {
            let mut st = AggregateState::new(agg, 10.0);
            let mut members: Vec<f64> = Vec::new();
            for (add, w) in adds.into_iter().chain(removes) {
                if add {
                    st.add(w);
                    members.push(w);
                } else {
                    st.remove(w);
                    let at = members.iter().position(|x| x.to_bits() == w.to_bits());
                    members.remove(at.expect("removals mirror the additions"));
                }
                members.sort_by(f64::total_cmp);
                let expect = agg.evaluate(&members, 10.0);
                assert_eq!(
                    st.value().to_bits(),
                    expect.to_bits(),
                    "{} on {members:?}",
                    agg.name()
                );
            }
            assert_eq!(st.value(), f64::NEG_INFINITY);
        }
    }

    #[test]
    fn min_max_handle_duplicate_weights() {
        let mut st = AggregateState::new(Aggregation::Min, 0.0);
        st.add(2.0);
        st.add(2.0);
        st.add(5.0);
        st.remove(2.0);
        assert_eq!(st.value(), 2.0); // one copy of 2.0 remains
        st.remove(2.0);
        assert_eq!(st.value(), 5.0);
    }

    #[test]
    fn clear_resets() {
        let mut st = AggregateState::new(Aggregation::Max, 0.0);
        st.add(1.0);
        st.clear();
        assert!(st.is_empty());
        assert_eq!(st.value(), f64::NEG_INFINITY);
    }

    #[test]
    fn builtin_validate_rejects_bad_parameters() {
        assert!(Aggregation::TopTSum { t: 0 }.validate_params().is_err());
        assert!(Aggregation::Percentile { p: 1.5 }
            .validate_params()
            .is_err());
        assert!(Aggregation::Percentile { p: -0.1 }
            .validate_params()
            .is_err());
        assert!(Aggregation::Percentile { p: f64::NAN }
            .validate_params()
            .is_err());
        assert!(Aggregation::SumSurplus { alpha: f64::NAN }
            .validate_params()
            .is_err());
        assert!(Aggregation::Percentile { p: 0.5 }.validate_params().is_ok());
        assert!(Aggregation::TopTSum { t: 1 }.validate_params().is_ok());
    }

    #[test]
    fn custom_registration_round_trips() {
        // A trivially correct custom function: the squared sum.
        #[derive(Debug)]
        struct SquaredSum;
        impl AggregateFn for SquaredSum {
            fn name(&self) -> &str {
                "squared-sum"
            }
            fn certificates(&self) -> Certificates {
                Certificates {
                    size_proportional: true,
                    ..Certificates::opaque()
                }
            }
            fn evaluate(&self, w: &[f64], _t: f64) -> f64 {
                let s: f64 = w.iter().sum();
                s * s
            }
            fn evaluate_state(&self, state: &StateView<'_>) -> f64 {
                state.sum() * state.sum()
            }
        }
        let agg = Aggregation::custom(SquaredSum).expect("valid custom fn");
        assert_eq!(agg.name(), "squared-sum");
        assert_eq!(agg.evaluate(&[2.0, 3.0], 0.0), 25.0);
        assert!(agg.is_size_proportional());
        let mut st = AggregateState::new(agg, 0.0);
        st.add(2.0);
        st.add(3.0);
        assert_eq!(st.value(), 25.0);
        // Distinct registrations are distinct cache entities.
        let again = Aggregation::custom(SquaredSum).unwrap();
        assert_ne!(agg.cache_key(), again.cache_key());
        assert_ne!(agg, again);
        assert_eq!(agg, agg);
        assert!(Aggregation::registered_customs().contains(&agg));
    }

    #[test]
    fn mis_declared_multiset_certificate_fails_loudly() {
        // Declares no multiset but evaluates via the default
        // (multiset-materializing) evaluate_state: the StateView access
        // must panic instead of silently evaluating garbage.
        #[derive(Debug)]
        struct Forgetful;
        impl AggregateFn for Forgetful {
            fn name(&self) -> &str {
                "forgetful"
            }
            fn certificates(&self) -> Certificates {
                Certificates::opaque() // needs_multiset: false
            }
            fn evaluate(&self, w: &[f64], _t: f64) -> f64 {
                w.iter().copied().fold(f64::INFINITY, f64::min)
            }
            // evaluate_state not overridden: default needs the multiset.
        }
        let err = Aggregation::custom(Forgetful);
        assert!(
            err.is_err(),
            "certification must catch the panic-or-mismatch"
        );
    }
}
