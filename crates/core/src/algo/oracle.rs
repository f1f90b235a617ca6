//! Reference solvers: no [`crate::Query`] routes to them.
//!
//! [`exact_topr`] (with [`all_communities`]) is the exhaustive,
//! maximality-aware ground truth on tiny graphs, and [`exact_naive`] is
//! Algorithm 3 (`TIC-EXACT`) as printed, which the paper gives only to
//! motivate the heuristics.
//!
//! The rest are the pre-arena implementations of the four rewritten solvers:
//! every deletion step re-computes internal degrees over the whole
//! community ([`ic_kcore::PeelScratch`]) or clones mask state per pass.
//! They are kept as the **correctness oracle**: the property tests assert
//! the incremental [`PeelArena`](ic_kcore::PeelArena)-based solvers in
//! [`crate::algo`] produce *identical* top-r output (communities and
//! values). [`local_search`] is Algorithm 4 the same way: the pool
//! builder and strategies as the paper prints them, before they learned
//! to decide first.
//!
//! Do not use these in production paths; they are deliberately the slow,
//! allocation-happy formulation.

pub use crate::algo::exact::{all_communities, exact_naive, exact_topr};

use crate::algo::common::{
    community_from_vertices, components_as_communities, require_corollary2, validate_k_r,
};
use crate::algo::local_search::{heavier_first, validate_params};
use crate::algo::{CoreRows, LocalScratch, LocalSearchConfig};
use crate::{AggregateState, Aggregation, Community, Extremum, SearchError, TopList};
use ic_graph::{BitSet, VertexId, WeightedGraph};
use ic_kcore::{kcore_mask, maximal_kcore_components, PeelScratch};
use std::collections::{HashSet, VecDeque};

/// From-scratch top-r under `f = min` (two mask-cloning peel passes).
pub fn min_topr(wg: &WeightedGraph, k: usize, r: usize) -> Result<Vec<Community>, SearchError> {
    peel_topr(wg, k, r, Extremum::Min)
}

/// From-scratch top-r under `f = max`.
pub fn max_topr(wg: &WeightedGraph, k: usize, r: usize) -> Result<Vec<Community>, SearchError> {
    peel_topr(wg, k, r, Extremum::Max)
}

fn peel_topr(
    wg: &WeightedGraph,
    k: usize,
    r: usize,
    dir: Extremum,
) -> Result<Vec<Community>, SearchError> {
    validate_k_r(r)?;
    let g = wg.graph();
    let core = kcore_mask(g, k);

    let mut order: Vec<u32> = core.iter().map(|v| v as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        let (wa, wb) = (wg.weight(a), wg.weight(b));
        let c = match dir {
            Extremum::Min => wa.total_cmp(&wb),
            Extremum::Max => wb.total_cmp(&wa),
        };
        c.then_with(|| a.cmp(&b))
    });

    // Pass 1: record (event sequence number, value) per extreme-vertex
    // removal whose component is a community of Definition 3: no strict
    // superset has its value. At the first event of a value the live set
    // is the k-core of the vertices peeled no earlier (for `min`, of
    // `G≥θ`), so a later event of that value witnesses a community only
    // if its component is still the one it had then.
    let mut events: Vec<(usize, f64)> = Vec::new();
    let mut group: Option<(f64, BitSet)> = None;
    simulate(g, k, &core, &order, |seq, v, alive| {
        let value = wg.weight(v);
        match &group {
            Some((first, at_first)) if first.total_cmp(&value).is_eq() => {
                let now = ic_graph::component_of(g, alive, v).len();
                if now < ic_graph::component_of(g, at_first, v).len() {
                    return;
                }
            }
            _ => group = Some((value, alive.clone())),
        }
        events.push((seq, value));
    });

    // Every community valued at least the r-th best one: `ranking_cmp`
    // cuts a value tie at slot `r`, not the peel order.
    events.sort_by(|a, b| b.1.total_cmp(&a.1));
    if let Some(&(_, bar)) = events.get(r - 1) {
        events.retain(|e| e.1.total_cmp(&bar).is_ge());
    }
    let selected: HashSet<usize> = events.iter().map(|&(s, _)| s).collect();

    // Pass 2: replay, snapshotting the component of each selected event.
    let mut results: Vec<Community> = Vec::with_capacity(selected.len());
    simulate(g, k, &core, &order, |seq, v, alive| {
        if selected.contains(&seq) {
            let comp = ic_graph::component_of(g, alive, v);
            results.push(community_from_vertices(wg, dir.aggregation(), comp));
        }
    });

    results.sort_by(|a, b| a.ranking_cmp(b));
    results.truncate(r);
    Ok(results)
}

fn simulate<F: FnMut(usize, u32, &BitSet)>(
    g: &ic_graph::Graph,
    k: usize,
    core: &BitSet,
    order: &[u32],
    mut on_event: F,
) {
    let n = g.num_vertices();
    let mut alive = core.clone();
    let mut deg: Vec<u32> = vec![0; n];
    for v in alive.iter() {
        deg[v] = g.degree_within(v as u32, &alive) as u32;
    }
    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut seq = 0usize;
    for &v in order {
        if !alive.contains(v as usize) {
            continue;
        }
        on_event(seq, v, &alive);
        seq += 1;
        alive.remove(v as usize);
        queue.push_back(v);
        while let Some(x) = queue.pop_front() {
            for &u in g.neighbors(x) {
                if alive.contains(u as usize) {
                    deg[u as usize] -= 1;
                    if (deg[u as usize] as usize) < k {
                        alive.remove(u as usize);
                        queue.push_back(u);
                    }
                }
            }
        }
    }
}

/// From-scratch Algorithm 1: every split re-computes internal degrees over
/// the whole community via [`PeelScratch`].
pub fn sum_naive(
    wg: &WeightedGraph,
    k: usize,
    r: usize,
    aggregation: Aggregation,
) -> Result<Vec<Community>, SearchError> {
    validate_k_r(r)?;
    require_corollary2("oracle::sum_naive", aggregation)?;

    let g = wg.graph();
    let n = g.num_vertices();

    let comps = maximal_kcore_components(g, k);
    let mut list = TopList::new(r);
    for c in components_as_communities(wg, aggregation, comps) {
        list.insert(c);
    }

    let mut scratch = PeelScratch::new(n);
    for v in 0..n as u32 {
        let mut children: Vec<Community> = Vec::new();
        for community in list.items() {
            if community.contains(v) {
                let parts = scratch.connected_kcores(g, &community.vertices, Some(v), k);
                children.extend(components_as_communities(wg, aggregation, parts));
            }
        }
        for child in children {
            list.insert(child);
        }
    }
    Ok(list.into_vec())
}

/// From-scratch Algorithm 2 (exact for `epsilon = 0`, Approx otherwise):
/// every expansion re-peels via [`PeelScratch`] and deduplicates through
/// sorted-list FNV signatures.
pub fn tic_improved(
    wg: &WeightedGraph,
    k: usize,
    r: usize,
    aggregation: Aggregation,
    epsilon: f64,
) -> Result<Vec<Community>, SearchError> {
    validate_k_r(r)?;
    require_corollary2("oracle::tic_improved", aggregation)?;
    if !(0.0..1.0).contains(&epsilon) {
        return Err(SearchError::InvalidParams(format!(
            "epsilon must be in [0, 1), got {epsilon}"
        )));
    }

    let g = wg.graph();
    let n = g.num_vertices();

    let comps = maximal_kcore_components(g, k);
    let mut candidates: Vec<Community> = comps
        .into_iter()
        .map(|c| community_from_vertices(wg, aggregation, c))
        .collect();
    candidates.sort_by(|a, b| a.ranking_cmp(b));
    candidates.truncate(r);

    let mut explored: HashSet<u64> = candidates.iter().map(|c| c.signature()).collect();
    let mut results: Vec<Community> = Vec::with_capacity(r);
    let mut in_results: HashSet<u64> = HashSet::new();
    let mut scratch = PeelScratch::new(n);

    while results.len() < r && !candidates.is_empty() {
        let lmax = candidates.remove(0);
        let sig = lmax.signature();
        if !in_results.contains(&sig) {
            in_results.insert(sig);
            results.push(lmax.clone());
            if results.len() == r {
                break;
            }
        }
        let lb = (1.0 - epsilon) * lmax.value;
        let threshold = r_th_value(&results, &candidates, r);
        let prune_with_delta = aggregation.certificates().incremental_removal;

        for &v in &lmax.vertices {
            // Line-13 pruning needs the O(1) remove-delta certificate;
            // removal-decreasing aggregations without it run unpruned
            // (matching the arena solver's gating, bit for bit).
            if prune_with_delta {
                let upper = aggregation.value_after_removal(lmax.value, wg.weight(v));
                if upper < threshold {
                    continue;
                }
            }
            let parts = scratch.connected_kcores(g, &lmax.vertices, Some(v), k);
            for part in parts {
                let child = community_from_vertices(wg, aggregation, part);
                if !explored.insert(child.signature()) {
                    continue;
                }
                if epsilon > 0.0
                    && child.value >= lb
                    && results.len() < r
                    && !in_results.contains(&child.signature())
                {
                    in_results.insert(child.signature());
                    results.push(child.clone());
                }
                let pos = candidates
                    .binary_search_by(|c| c.ranking_cmp(&child))
                    .unwrap_or_else(|p| p);
                candidates.insert(pos, child);
            }
        }
        if candidates.len() > r {
            candidates.truncate(r);
        }
    }

    results.sort_by(|a, b| a.ranking_cmp(b));
    Ok(results)
}

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

/// From-scratch Algorithm 4: every seed of the k-core, in ascending
/// order, against one top-r list; each pool's layers fully sorted and
/// every pool vertex pushed through the degree tracker.
pub fn local_search(
    wg: &WeightedGraph,
    config: &LocalSearchConfig,
    aggregation: Aggregation,
) -> Result<Vec<Community>, SearchError> {
    validate_params(config)?;
    let LocalSearchConfig { k, r, s, greedy } = *config;
    let core = kcore_mask(wg.graph(), k);
    let rows = &CoreRows::build(wg, &core);
    let mut list = TopList::new(r);
    let mut sc = LocalScratch::new(wg.graph().num_vertices());
    for seed in core.iter() {
        let mut pool = seed_pool(wg, &core, seed as VertexId, s, greedy);
        if pool.len() > k {
            if greedy {
                pool[1..].sort_by(|a, b| heavier_first(wg, a, b));
            }
            if aggregation.certificates().incremental_removal {
                sum_strategy(wg, rows, &pool, k, aggregation, &mut sc, &mut list);
            } else {
                prefix_strategy(wg, rows, &pool, k, greedy, aggregation, &mut sc, &mut list);
            }
        }
    }
    Ok(list.into_vec())
}

/// The s-nearest-neighbour pool of `seed` inside `mask`: whole BFS
/// layers, each sorted heaviest first in greedy mode, until `limit`
/// vertices are in.
pub(crate) fn seed_pool(
    wg: &WeightedGraph,
    mask: &BitSet,
    seed: VertexId,
    limit: usize,
    greedy: bool,
) -> Vec<VertexId> {
    let g = wg.graph();
    let mut pool = Vec::new();
    if limit == 0 || !mask.contains(seed as usize) {
        return pool;
    }
    let mut visited = BitSet::new(g.num_vertices());
    visited.insert(seed as usize);
    let mut layer = vec![seed];
    while !layer.is_empty() && pool.len() < limit {
        for &v in &layer {
            if pool.len() == limit {
                return pool;
            }
            pool.push(v);
        }
        let mut next = Vec::new();
        for &v in &layer {
            for &u in g.neighbors(v) {
                if mask.contains(u as usize) && !visited.contains(u as usize) {
                    visited.insert(u as usize);
                    next.push(u);
                }
            }
        }
        if greedy {
            next.sort_by(|a, b| heavier_first(wg, a, b));
        }
        layer = next;
    }
    pool
}

/// `SumStrategy`: drop the pool's last vertex until a connected k-core
/// remains.
fn sum_strategy(
    wg: &WeightedGraph,
    g: &CoreRows,
    pool: &[VertexId],
    k: usize,
    aggregation: Aggregation,
    sc: &mut LocalScratch,
    list: &mut TopList,
) {
    let mut state = AggregateState::new(aggregation, wg.total_weight());
    sc.begin_candidate(k);
    for &v in pool {
        sc.push(g, v);
        state.add(wg.weight(v));
    }
    let mut len = pool.len();
    while len > k && state.value() > list.threshold() {
        if sc.is_kcore() && sc.is_connected(g, pool[0]) {
            list.insert(community_from_vertices(
                wg,
                aggregation,
                pool[..len].to_vec(),
            ));
            return;
        }
        len -= 1;
        sc.pop(g, pool[len]);
        state.remove(wg.weight(pool[len]));
    }
}

/// `AvgStrategy` for any aggregation: test every prefix of the pool;
/// greedy takes the first that qualifies, random the best.
#[allow(clippy::too_many_arguments)]
fn prefix_strategy(
    wg: &WeightedGraph,
    g: &CoreRows,
    pool: &[VertexId],
    k: usize,
    greedy: bool,
    aggregation: Aggregation,
    sc: &mut LocalScratch,
    list: &mut TopList,
) {
    let mut state = AggregateState::new(aggregation, wg.total_weight());
    let mut best: Option<Community> = None;
    sc.begin_candidate(k);
    for (i, &v) in pool.iter().enumerate() {
        sc.push(g, v);
        state.add(wg.weight(v));
        if i + 1 > k
            && state.value() > list.threshold()
            && sc.is_kcore()
            && sc.is_connected(g, pool[0])
        {
            let community = community_from_vertices(wg, aggregation, pool[..=i].to_vec());
            if greedy {
                list.insert(community);
                return;
            }
            if best
                .as_ref()
                .is_none_or(|b| community.ranking_cmp(b).is_lt())
            {
                best = Some(community);
            }
        }
    }
    if let Some(b) = best {
        list.insert(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::{figure1, vs};

    #[test]
    fn oracle_minmax_matches_figure1() {
        let wg = figure1();
        let top = min_topr(&wg, 2, 2).unwrap();
        assert_eq!(top[0].vertices, vs(&[5, 7, 8]));
        assert_eq!(top[0].value, 12.0);
        let top = max_topr(&wg, 2, 1).unwrap();
        assert_eq!(top[0].value, 62.0);
    }

    #[test]
    fn oracle_sum_solvers_match_figure1() {
        let wg = figure1();
        let naive = sum_naive(&wg, 2, 2, Aggregation::Sum).unwrap();
        assert_eq!(naive[0].value, 203.0);
        assert_eq!(naive[1].value, 195.0);
        let imp = tic_improved(&wg, 2, 2, Aggregation::Sum, 0.0).unwrap();
        assert_eq!(naive, imp);
    }
}
