//! Algorithm 2 (`TIC-IMPROVED`): best-first search with lower-bound
//! pruning. With `ε = 0` this is the exact "Improve" solver; with `ε > 0`
//! it is the "Approx" solver with the (1−ε) guarantee of Theorem 6
//! (Definition 8: the returned r-th value is ≥ (1−ε)·the exact r-th value).
//!
//! As printed in the paper, line 16 can only ever admit children whose
//! value ties the current maximum when ε = 0, so `R` would never fill; we
//! implement the evidently intended semantics (see DESIGN.md §4): each
//! popped maximum is *confirmed* into the result set — it dominates every
//! unexplored candidate because the aggregation is anti-monotone under
//! removal (Corollary 2) — and children within `(1−ε)` of the current
//! maximum are early-accepted, which is what makes the approximate variant
//! cheaper.
//!
//! The expansion loop runs on the zero-rebuild [`PeelArena`] (see
//! DESIGN.md §5) and costs what it touches. A pop first drops the
//! vertices line 13 dismisses, then orders only the rest. The popped
//! maximum is loaded once — a snapshot level's root component is copied
//! from the level's root image, loaded and marked once per snapshot —
//! every candidate deletion is a journaled cascade + rollback touching
//! only the affected frontier, and the components it leaves come from
//! the arena's split: almost always a certificate over the load's DFS
//! tree proves the parent still one piece without a walk, and otherwise
//! a walk from the cascade's boundary splits them off. A child is built only if
//! it can still reach the live r-th candidate value — the candidate
//! list is trimmed to `r` as children arrive, and `expand_children`
//! decides each child from a bound or from its exact value before
//! allocating it. With ε > 0 the vertex loop ends as soon as `R` is
//! full. The from-scratch formulation is preserved as
//! [`crate::algo::oracle::tic_improved`] for the property tests.
//!
//! [`tic_improved_on`] is the public entry point; [`crate::Query::solve`]
//! runs it on a fresh snapshot, and the engine's `TIC` jobs drive a
//! [`TicSearch`] directly.

use crate::algo::common::{
    community_from_vertices, expand_children, require_corollary2, validate_k_r, vertex_set_key,
    ExpandScratch, ExpansionCounts, KeepRule, Parent,
};
use crate::{Aggregation, Community, SearchError};
use ic_graph::{VertexId, WeightedGraph};
use ic_kcore::{ArenaImage, Budget, CoreLevel, GraphSnapshot, PeelArena};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// Algorithm 2 against a [`GraphSnapshot`]: [`TicSearch::start_on`] run
/// to its end on the caller's (typically pooled) arena. Output depends
/// only on the snapshot's graph, not on what the snapshot or the arena
/// already holds.
pub fn tic_improved_on(
    snap: &GraphSnapshot,
    k: usize,
    r: usize,
    aggregation: Aggregation,
    epsilon: f64,
    arena: &mut PeelArena,
) -> Result<Vec<Community>, SearchError> {
    Ok(TicSearch::start_on(snap, k, r, aggregation, epsilon)?.run(snap.weighted(), arena))
}

fn validate_improved(r: usize, aggregation: Aggregation, epsilon: f64) -> Result<(), SearchError> {
    validate_k_r(r)?;
    require_corollary2("tic_improved", aggregation)?;
    if !(0.0..1.0).contains(&epsilon) {
        return Err(SearchError::InvalidParams(format!(
            "epsilon must be in [0, 1), got {epsilon}"
        )));
    }
    Ok(())
}

/// A snapshot level's root components as loaded, articulation-marked
/// arena states ([`ArenaImage`]), one slot per component of the level,
/// each filled by the first search that expands that component. A
/// function of the level's k-core alone, so it is a snapshot extension
/// and `GraphSnapshot::successor` carries it with its level.
#[derive(Debug)]
struct RootImages {
    level: Arc<CoreLevel>,
    slots: Vec<OnceLock<ArenaImage>>,
}

impl RootImages {
    fn of(snap: &GraphSnapshot, k: usize) -> Arc<RootImages> {
        snap.extension(k, 0, || {
            let level = snap.level(k);
            let slots = level.components.iter().map(|_| OnceLock::new()).collect();
            RootImages { level, slots }
        })
    }

    /// The slot of `vertices` if they are a whole component of the level.
    /// A community lies inside one component and ascends, so it is that
    /// component exactly when it has its first member and its size.
    fn slot(&self, vertices: &[VertexId]) -> Option<&OnceLock<ArenaImage>> {
        let comps = &self.level.components;
        let i = comps
            .binary_search_by_key(&vertices.first()?, |c| &c[0])
            .ok()?;
        (comps[i].len() == vertices.len()).then(|| &self.slots[i])
    }
}

/// One `TIC-IMPROVED` run — the search the engine's `TIC` jobs run for
/// the removal-decreasing aggregations, optionally under a cooperative
/// deadline ([`set_budget`](Self::set_budget)). `run_improved` runs the
/// same search unarmed, so there is exactly one implementation of
/// Algorithm 2.
#[derive(Clone, Debug)]
pub struct TicSearch {
    k: usize,
    r: usize,
    aggregation: Aggregation,
    /// Approximation parameter ε ∈ [0, 1); 0 = exact.
    epsilon: f64,
    /// Line-13 pruning needs the O(1) remove delta; aggregations
    /// without the `incremental_removal` certificate run unpruned.
    prune_with_delta: bool,
    candidates: Vec<Community>,
    explored: HashSet<u64>,
    /// Signatures of the confirmed communities; kept by the approximate
    /// search only, whose ε-acceptance can confirm a candidate early.
    in_results: HashSet<u64>,
    /// Confirmed communities in confirmation order (non-increasing value
    /// in exact mode); the answer, in `ranking_cmp` order, once
    /// `finished`.
    results: Vec<Community>,
    fresh: Vec<Community>,
    /// The popped maximum's vertices that line 13 does not dismiss, in
    /// deletion order (reused across pops).
    order: Vec<VertexId>,
    scratch: ExpandScratch,
    /// The level's root images.
    images: Arc<RootImages>,
    finished: bool,
    /// Cooperative deadline: checkpointed in the per-vertex expansion
    /// loop; also handed to the arena so long cascades keep the shared
    /// flag fresh.
    budget: Option<Arc<Budget>>,
    /// Whether the search was cut short by its budget (the answer is
    /// then a certified prefix / best-so-far, not the full answer).
    aborted: bool,
}

impl TicSearch {
    /// Prepares a `TIC-IMPROVED` run against a snapshot (`ε = 0` exact,
    /// `ε > 0` approximate); [`run`](Self::run) performs it.
    pub fn start_on(
        snap: &GraphSnapshot,
        k: usize,
        r: usize,
        aggregation: Aggregation,
        epsilon: f64,
    ) -> Result<Self, SearchError> {
        validate_improved(r, aggregation, epsilon)?;
        let images = RootImages::of(snap, k);
        // Line 1-2: candidate list seeded with the k-core components.
        let mut candidates: Vec<Community> = images
            .level
            .components
            .iter()
            .map(|c| community_from_vertices(snap.weighted(), aggregation, c.clone()))
            .collect();
        candidates.sort_by(|a, b| a.ranking_cmp(b));
        candidates.truncate(r);
        let explored: HashSet<u64> = candidates
            .iter()
            .map(|c| vertex_set_key(&c.vertices))
            .collect();
        Ok(TicSearch {
            k,
            r,
            aggregation,
            epsilon,
            prune_with_delta: aggregation.certificates().incremental_removal,
            candidates,
            explored,
            in_results: HashSet::new(),
            results: Vec::new(),
            fresh: Vec::new(),
            order: Vec::new(),
            scratch: ExpandScratch::default(),
            images,
            finished: false,
            budget: None,
            aborted: false,
        })
    }

    /// Arms (or disarms) a cooperative deadline. On expiry the search
    /// stops at the next checkpoint: in exact mode it returns every
    /// confirmed community whose value is **strictly** above the best
    /// community it could still confirm — children are strictly smaller
    /// under removal (Corollary 2), so that prefix is provably final, bit
    /// for bit — and in approximate mode everything confirmed so far, as
    /// best-so-far. [`Self::deadline_aborted`] reports whether truncation
    /// happened.
    pub fn set_budget(&mut self, budget: Option<Arc<Budget>>) {
        self.budget = budget;
    }

    /// Whether the search was cut short by its budget (the answer is a
    /// proven prefix / best-so-far rather than the full answer).
    pub fn deadline_aborted(&self) -> bool {
        self.aborted
    }

    /// Work done so far: cascade deletions, and what became of the
    /// children they produced. The counts depend only on the graph and
    /// the query.
    pub fn work(&self) -> ExpansionCounts {
        self.scratch.counts
    }

    /// What a child must reach to be built (`expand_children`'s
    /// keep-rule): the live r-th candidate value, since anything below
    /// it is trimmed the moment it is inserted. While ε-acceptance is
    /// open a child at or above `lb` must exist to be accepted, so the
    /// bar drops to `lb`.
    fn need(&self, lb: f64) -> f64 {
        if self.candidates.len() < self.r {
            return f64::NEG_INFINITY;
        }
        let rth = self.candidates[self.r - 1].value;
        if self.epsilon > 0.0 {
            rth.min(lb)
        } else {
            rth
        }
    }

    /// Runs the search to its end (or to its budget) and returns the
    /// answer in `ranking_cmp` order. `wg` must be the graph the search
    /// was started on; `arena` is the caller's (typically pooled) peel
    /// arena.
    pub fn run(&mut self, wg: &WeightedGraph, arena: &mut PeelArena) -> Vec<Community> {
        while !self.finished {
            self.advance(wg, arena);
        }
        std::mem::take(&mut self.results)
    }

    /// One iteration of Algorithm 2's outer loop (or termination).
    fn advance(&mut self, wg: &WeightedGraph, arena: &mut PeelArena) {
        ic_fail::fail_point!("core::tic_advance");
        if self.results.len() >= self.r || self.candidates.is_empty() {
            self.finish();
            return;
        }
        if let Some(b) = &self.budget {
            if b.check() {
                // Every later confirmation is at most the best remaining
                // candidate.
                let bar = self.candidates[0].value;
                self.deadline_abort(bar);
                return;
            }
        }
        // Pop the maximum candidate (kept sorted best-first). Only
        // ε-acceptance can confirm a candidate before it is popped: the
        // exact search confirms each community once, as `explored`
        // admits it to the candidates once.
        let lmax = self.candidates.remove(0);
        let approx = self.epsilon > 0.0;
        if !approx || self.in_results.insert(lmax.signature()) {
            self.results.push(lmax.clone());
            if self.results.len() == self.r {
                self.finish();
                return;
            }
        }
        let lb = (1.0 - self.epsilon) * lmax.value;
        // f(Lr): the value of the r-th best known candidate/result.
        let threshold = r_th_value(&self.results, &self.candidates, self.r);

        // At most one load per popped maximum (`expand_children` loads
        // on the first deletion it performs, or copies a root's image);
        // every deletion is then an O(affected) journaled cascade
        // instead of a full re-peel.
        arena.set_budget(self.budget.clone());
        let mut parent = Parent::new(wg, self.aggregation, &lmax, self.k);
        parent.image = self.images.slot(&lmax.vertices);
        // Line 13: the pre-cascade value of Lmax ∖ {v} upper-bounds
        // every child it can produce, and `threshold` is fixed for the
        // pop, so the vertices it dismisses are dropped before anything
        // is ordered. Available exactly when the aggregation certifies
        // an O(1) remove delta; otherwise the search runs unpruned
        // (still correct — pruning is an optimization, not a correctness
        // requirement). A branch that can tie the bar is pursued:
        // `ranking_cmp`, not the order the search meets them in, cuts a
        // tie at slot `r`.
        let dismissed = |v: VertexId| {
            self.prune_with_delta
                && self
                    .aggregation
                    .value_after_removal(lmax.value, wg.weight(v))
                    < threshold
        };
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(lmax.vertices.iter().copied().filter(|&v| !dismissed(v)));
        // ε-acceptance takes children in the order they appear, so the
        // approximate search keeps the paper's vertex order. The exact
        // search's outcome does not depend on the order (DESIGN.md §5),
        // and lightest-first meets the best children first: after about
        // `r` of them `need` is at its final level and the heavier
        // survivors are dropped on their stage-A bound without a cascade.
        if !approx {
            order.sort_unstable_by(|&a, &b| {
                wg.weight(a)
                    .total_cmp(&wg.weight(b))
                    .then_with(|| a.cmp(&b))
            });
        }
        let mut fresh = std::mem::take(&mut self.fresh);
        for &v in &order {
            // Deadline checkpoint between journaled deletions: aborting
            // here certifies every confirmation strictly above
            // `lmax.value` (children are strictly smaller, Corollary 2).
            // A bare flag load suffices — the arena's cascade polls the
            // shared budget and keeps the flag fresh, so ticking it
            // again here would only double the atomic traffic.
            if let Some(b) = &self.budget {
                if b.expired() {
                    self.fresh = fresh;
                    self.order = order;
                    self.deadline_abort(lmax.value);
                    return;
                }
            }
            let keep = KeepRule {
                need: self.need(lb),
                track_dropped: approx,
            };
            expand_children(
                arena,
                &mut parent,
                v,
                keep,
                &mut self.explored,
                &mut self.scratch,
                &mut fresh,
            );
            for child in fresh.drain(..) {
                // Line 16: ε-early acceptance.
                if approx
                    && child.value >= lb
                    && self.results.len() < self.r
                    && self.in_results.insert(child.signature())
                {
                    self.results.push(child.clone());
                }
                let pos = self
                    .candidates
                    .binary_search_by(|c| c.ranking_cmp(&child))
                    .unwrap_or_else(|p| p);
                self.candidates.insert(pos, child);
                // Line 19, applied per insertion so `need` stays live:
                // the top-r of a growing set does not depend on when
                // the rest is dropped.
                self.candidates.truncate(self.r);
            }
            // `R` is full: the search ends at the next `advance`, and
            // nothing reads `candidates` between here and there.
            if approx && self.results.len() == self.r {
                break;
            }
        }
        self.fresh = fresh;
        self.order = order;
    }

    /// Deadline expiry: terminates the search, keeping only what is
    /// *provable* at this point. Exact mode keeps confirmations whose
    /// value is strictly above `bar`, the best value the search could
    /// still confirm: that prefix equals the full run's prefix bit for bit
    /// (tie groups strictly inside the range sort identically).
    /// Approximate mode has no rank certificate to preserve and keeps
    /// everything confirmed so far as best-so-far.
    fn deadline_abort(&mut self, bar: f64) {
        self.aborted = true;
        if self.epsilon == 0.0 {
            self.results.retain(|c| c.value.total_cmp(&bar).is_gt());
        }
        self.finish();
    }

    /// Terminates the search and puts the confirmations in
    /// `ranking_cmp` order (the final sort).
    fn finish(&mut self) {
        self.finished = true;
        self.results.sort_by(|a, b| a.ranking_cmp(b));
    }
}

/// The value of the r-th best community among results ∪ candidates, or
/// `−∞` when fewer than `r` exist. Results are all ≥ any candidate, so
/// take results first.
fn r_th_value(results: &[Community], candidates: &[Community], r: usize) -> f64 {
    let have = results.len();
    if have >= r {
        return results[r - 1].value;
    }
    let need = r - have;
    if candidates.len() >= need {
        candidates[need - 1].value
    } else {
        f64::NEG_INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::oracle::{self, exact_topr};
    use crate::figure1::{figure1, vs};
    use ic_graph::graph_from_edges;

    /// Algorithm 2 on a fresh snapshot and arena, as `Query::solve` runs it.
    fn solve_fresh(
        wg: &WeightedGraph,
        k: usize,
        r: usize,
        aggregation: Aggregation,
        epsilon: f64,
    ) -> Result<Vec<Community>, SearchError> {
        let snap = GraphSnapshot::new(wg.clone());
        let mut arena = PeelArena::for_graph(snap.graph());
        tic_improved_on(&snap, k, r, aggregation, epsilon, &mut arena)
    }

    #[test]
    fn rejects_bad_params() {
        let wg = figure1();
        assert!(solve_fresh(&wg, 2, 0, Aggregation::Sum, 0.0).is_err());
        assert!(solve_fresh(&wg, 2, 2, Aggregation::Sum, 1.0).is_err());
        assert!(solve_fresh(&wg, 2, 2, Aggregation::Sum, -0.1).is_err());
        assert!(solve_fresh(&wg, 2, 2, Aggregation::Average, 0.0).is_err());
        assert!(solve_fresh(&wg, 2, 2, Aggregation::Min, 0.0).is_err());
    }

    #[test]
    fn figure1_exact_mode_matches_example1() {
        let wg = figure1();
        let top = solve_fresh(&wg, 2, 2, Aggregation::Sum, 0.0).unwrap();
        assert_eq!(top[0].vertices, vs(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]));
        assert_eq!(top[0].value, 203.0);
        assert_eq!(top[1].vertices, vs(&[1, 2, 4, 5, 6, 7, 8, 9, 10, 11]));
        assert_eq!(top[1].value, 195.0);
    }

    #[test]
    fn exact_mode_matches_oracle_for_deeper_r() {
        let wg = figure1();
        for r in [1, 2, 3, 5, 8] {
            let got = solve_fresh(&wg, 2, r, Aggregation::Sum, 0.0).unwrap();
            let expect = exact_topr(&wg, 2, r, None, Aggregation::Sum).unwrap();
            let got_vals: Vec<f64> = got.iter().map(|c| c.value).collect();
            let expect_vals: Vec<f64> = expect.iter().map(|c| c.value).collect();
            assert_eq!(got_vals, expect_vals, "r = {r}");
        }
    }

    #[test]
    fn exact_mode_matches_naive() {
        let wg = figure1();
        for r in [1, 2, 4, 6] {
            let a = solve_fresh(&wg, 2, r, Aggregation::Sum, 0.0).unwrap();
            let b = oracle::sum_naive(&wg, 2, r, Aggregation::Sum).unwrap();
            let av: Vec<f64> = a.iter().map(|c| c.value).collect();
            let bv: Vec<f64> = b.iter().map(|c| c.value).collect();
            assert_eq!(av, bv, "r = {r}");
        }
    }

    #[test]
    fn matches_from_scratch_oracle() {
        let wg = figure1();
        for eps in [0.0, 0.1, 0.3] {
            for r in [1, 2, 4, 7] {
                assert_eq!(
                    solve_fresh(&wg, 2, r, Aggregation::Sum, eps).unwrap(),
                    crate::algo::oracle::tic_improved(&wg, 2, r, Aggregation::Sum, eps).unwrap(),
                    "eps = {eps} r = {r}"
                );
            }
        }
    }

    #[test]
    fn approx_mode_satisfies_theorem6_bound() {
        let wg = figure1();
        for epsilon in [0.01, 0.05, 0.1, 0.2, 0.5] {
            for r in [1, 2, 3, 5] {
                let exact = solve_fresh(&wg, 2, r, Aggregation::Sum, 0.0).unwrap();
                let approx = solve_fresh(&wg, 2, r, Aggregation::Sum, epsilon).unwrap();
                assert_eq!(exact.len(), approx.len());
                let re = exact.last().unwrap().value;
                let ra = approx.last().unwrap().value;
                assert!(
                    ra >= (1.0 - epsilon) * re - 1e-9,
                    "eps={epsilon} r={r}: ra={ra} re={re}"
                );
            }
        }
    }

    #[test]
    fn snapshot_path_is_bit_identical() {
        let wg = figure1();
        let snap = GraphSnapshot::new(wg.clone());
        let mut arena = PeelArena::for_graph(snap.graph());
        for eps in [0.0, 0.1] {
            for r in [1, 3, 6] {
                assert_eq!(
                    tic_improved_on(&snap, 2, r, Aggregation::Sum, eps, &mut arena).unwrap(),
                    solve_fresh(&wg, 2, r, Aggregation::Sum, eps).unwrap(),
                    "eps = {eps} r = {r}"
                );
            }
        }
    }

    #[test]
    fn budgeted_search_yields_a_certified_prefix_or_best_so_far() {
        use std::time::Duration;
        let wg = figure1();
        let snap = GraphSnapshot::new(wg.clone());
        let mut arena = PeelArena::for_graph(snap.graph());
        // Generous budget: identical to the unbudgeted run, no abort.
        let full = solve_fresh(&wg, 2, 7, Aggregation::Sum, 0.0).unwrap();
        let mut search = TicSearch::start_on(&snap, 2, 7, Aggregation::Sum, 0.0).unwrap();
        search.set_budget(Some(Arc::new(Budget::within(Duration::from_secs(3600)))));
        assert_eq!(search.run(&wg, &mut arena), full);
        assert!(!search.deadline_aborted());
        // Already-expired budget: whatever is returned is a bit-identical
        // prefix of the full answer, and the truncation is reported.
        for eps in [0.0, 0.2] {
            let full = solve_fresh(&wg, 2, 7, Aggregation::Sum, eps).unwrap();
            let mut search = TicSearch::start_on(&snap, 2, 7, Aggregation::Sum, eps).unwrap();
            let expired = Arc::new(Budget::within(Duration::from_millis(0)));
            std::thread::sleep(Duration::from_millis(2));
            assert!(expired.check());
            search.set_budget(Some(expired));
            let got = search.run(&wg, &mut arena);
            assert!(search.deadline_aborted(), "eps={eps}");
            if eps == 0.0 {
                assert_eq!(got.as_slice(), &full[..got.len()], "certified prefix");
            }
            assert!(got.len() < full.len(), "expired budget cannot finish");
        }
        arena.set_budget(None);
    }

    #[test]
    fn approx_mode_records_the_children_it_drops() {
        // ε-acceptance admits a child only the first time the search
        // meets it, so a child dropped below the bar must still count as
        // met. A triangle {2, 3, 4} carries five two-vertex paths between
        // 2 and 3; deleting either vertex of a path cascades the other.
        // With r = 5, ε = 0.1 the child "everything but paths {0, 1} and
        // {7, 8}" (87.8) first appears under the parent 99 — below both
        // the r-th candidate (88) and (1−ε)·99 — and again under the
        // parent 88.8, where it clears (1−ε)·88.8 while `R` still has
        // room. Accepting it there would return 87.8 in place of 88.6.
        let mut edges = vec![(2, 3), (3, 4), (2, 4)];
        for path in [(0, 1), (5, 6), (7, 8), (9, 10), (11, 12)] {
            edges.extend([(2, path.0), path, (path.1, 3)]);
        }
        let g = graph_from_edges(13, &edges);
        let weights = vec![
            0.1, 0.9, 18.0, 18.0, 17.8, 5.5, 5.5, 5.6, 5.6, 5.7, 5.7, 5.8, 5.8,
        ];
        let wg = WeightedGraph::new(g, weights).unwrap();
        let got = solve_fresh(&wg, 2, 5, Aggregation::Sum, 0.1).unwrap();
        let expect = oracle::tic_improved(&wg, 2, 5, Aggregation::Sum, 0.1).unwrap();
        assert_eq!(got, expect);
        assert_eq!(got[4].vertices, [0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12]);
    }

    #[test]
    fn work_is_proportional_to_r_not_to_the_first_community() {
        // The first popped maximum of this 6-core has 895 vertices. A
        // top-10 query may neither build nor cascade a child per vertex
        // (before the keep-rule: 895 of each on the first pop alone).
        // The counts depend only on the graph and the query, so the
        // bounds are exact gates.
        let spec = ic_gen::datasets::by_name(ic_gen::datasets::Profile::Quick, "youtube").unwrap();
        let wg = spec.generate_weighted();
        let snap = GraphSnapshot::new(wg.clone());
        let mut arena = PeelArena::for_graph(snap.graph());
        let (k, r) = (6, 10);
        let mut run = |eps: f64| {
            let mut search = TicSearch::start_on(&snap, k, r, Aggregation::Sum, eps).unwrap();
            assert_eq!(search.run(&wg, &mut arena).len(), r);
            search.work()
        };
        let exact = run(0.0);
        assert!(exact.deletions <= 4 * r as u64, "{exact:?}");
        assert!(exact.materialized <= 4 * r as u64, "{exact:?}");
        assert!(exact.skipped_by_bound >= 895 - 4 * r as u64, "{exact:?}");
        let approx = run(0.2);
        assert!(approx.deletions <= 4 * r as u64, "{approx:?}");
        // The counts repeat exactly, but for the load the first run's
        // root image saves the second.
        let again = run(0.0);
        assert_eq!(ExpansionCounts { loads: 1, ..again }, exact, "{again:?}");
        assert_eq!(again.loads, 0, "{again:?}");
    }

    /// The quick `youtube` analog with a (k + 1)-clique of new vertices
    /// hung off each of the `hinges` lowest ids of its largest k-core
    /// component by one hinge vertex, made the lightest in the graph so
    /// that the exact search deletes it too: deleting a hinge cuts its
    /// clique off the parent, a second piece no certificate can prove
    /// away.
    fn youtube_with_satellites(k: usize, hinges: usize) -> WeightedGraph {
        let spec = ic_gen::datasets::by_name(ic_gen::datasets::Profile::Quick, "youtube").unwrap();
        let wg = spec.generate_weighted();
        let core = ic_kcore::maximal_kcore_components(wg.graph(), k)
            .into_iter()
            .max_by_key(Vec::len)
            .unwrap();
        let mut edges: Vec<(VertexId, VertexId)> = wg.graph().edges().collect();
        let mut weights = wg.weights().to_vec();
        let lightest = weights.iter().copied().fold(f64::INFINITY, f64::min);
        for &hinge in &core[..hinges] {
            weights[hinge as usize] = lightest;
            let clique: Vec<VertexId> = (0..=k).map(|i| (weights.len() + i) as VertexId).collect();
            weights.extend(clique.iter().map(|_| wg.weight(hinge)));
            for (i, &a) in clique.iter().enumerate() {
                edges.push((hinge, a));
                edges.extend(clique[i + 1..].iter().map(|&b| (a, b)));
            }
        }
        WeightedGraph::new(graph_from_edges(weights.len(), &edges), weights).unwrap()
    }

    #[test]
    fn a_split_walks_what_the_cascade_cut_off_not_the_parent() {
        // A deletion that cuts a piece off makes the arena walk. The
        // boundary walk expands the pieces cut off and stops, where a
        // full walk would cover the whole surviving parent: over a run it
        // expands under a quarter of that, in either mode. Counts, not
        // time, so the bound is an exact gate on this fixed graph.
        for (k, eps) in [(4, 0.1), (6, 0.0), (6, 0.1)] {
            let wg = youtube_with_satellites(k, 8);
            let snap = GraphSnapshot::new(wg.clone());
            let mut arena = PeelArena::for_graph(snap.graph());
            let mut search = TicSearch::start_on(&snap, k, 20, Aggregation::Sum, eps).unwrap();
            search.run(&wg, &mut arena);
            let work = search.work();
            assert!(
                work.walked > 0,
                "k={k} eps={eps}: no split walked: {work:?}"
            );
            assert!(
                4 * work.walked < work.walk_span,
                "k={k} eps={eps}: {work:?}"
            );
        }
    }

    #[test]
    fn the_certificate_settles_nine_splits_in_ten() {
        // On the miss-traffic graph a TIC deletion almost never
        // disconnects its parent, and the arena's one-piece certificate
        // proves it without a walk. Counts, not time: an exact gate.
        let spec = ic_gen::datasets::by_name(ic_gen::datasets::Profile::Quick, "youtube").unwrap();
        let wg = spec.generate_weighted();
        let snap = GraphSnapshot::new(wg.clone());
        let mut arena = PeelArena::for_graph(snap.graph());
        for (k, eps) in [(6, 0.0), (6, 0.1), (8, 0.1)] {
            let mut search = TicSearch::start_on(&snap, k, 20, Aggregation::Sum, eps).unwrap();
            search.run(&wg, &mut arena);
            let work = search.work();
            assert!(work.splits > 0, "k={k} eps={eps}: no split ran: {work:?}");
            assert!(
                10 * work.certified >= 9 * work.splits,
                "k={k} eps={eps}: {work:?}"
            );
        }
    }

    #[test]
    fn sum_surplus_supported() {
        let wg = figure1();
        let agg = Aggregation::SumSurplus { alpha: 2.0 };
        let top = solve_fresh(&wg, 2, 2, agg, 0.0).unwrap();
        assert_eq!(top[0].value, 203.0 + 22.0);
        assert_eq!(top[1].value, 195.0 + 20.0);
    }

    #[test]
    fn empty_kcore_returns_empty() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let wg = WeightedGraph::new(g, vec![1.0; 3]).unwrap();
        assert!(solve_fresh(&wg, 2, 5, Aggregation::Sum, 0.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn two_components_with_disjoint_values() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let wg = WeightedGraph::new(g, vec![1.0, 1.0, 1.0, 5.0, 5.0, 5.0]).unwrap();
        let top = solve_fresh(&wg, 2, 2, Aggregation::Sum, 0.0).unwrap();
        assert_eq!(top[0].value, 15.0);
        assert_eq!(top[1].value, 3.0);
    }
}
