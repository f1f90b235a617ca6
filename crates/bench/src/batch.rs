//! Mapping between generated traffic ([`ic_gen::workload`]) and engine
//! queries, plus the one-query-at-a-time baseline the batched engine is
//! measured against.

use ic_core::{Aggregation, Community, SearchError};
use ic_engine::Query;
use ic_gen::workload::{MixAggregation, QuerySpec};
use ic_graph::WeightedGraph;

/// Maps a generated [`QuerySpec`] onto an engine [`Query`].
pub fn to_engine_query(spec: &QuerySpec) -> Query {
    let aggregation = match spec.aggregation {
        MixAggregation::Min => Aggregation::Min,
        MixAggregation::Max => Aggregation::Max,
        MixAggregation::Sum => Aggregation::Sum,
        MixAggregation::SumSurplus => Aggregation::SumSurplus { alpha: spec.alpha },
        MixAggregation::Average => Aggregation::Average,
        MixAggregation::TopTSum => Aggregation::TopTSum { t: spec.t },
        MixAggregation::Percentile => Aggregation::Percentile { p: spec.p },
        MixAggregation::GeometricMean => Aggregation::GeometricMean,
    };
    let mut q = Query::new(spec.k, spec.r, aggregation);
    if spec.epsilon != 0.0 {
        q = q.approx(spec.epsilon);
    }
    if let Some(s) = spec.size_bound {
        q = q.size_bound(s, spec.greedy);
    }
    q
}

/// Answers one query the pre-engine way: a direct solver call that
/// recomputes the core decomposition and builds a fresh arena, exactly
/// what a caller without the engine writes today. Routing goes
/// through [`ic_core::Query::solve`] — the unified solver layer — so
/// this crate no longer hand-dispatches per aggregation.
pub fn solve_sequential(wg: &WeightedGraph, q: &Query) -> Result<Vec<Community>, SearchError> {
    q.solve(wg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_gen::workload::{mixed_query_traffic, TrafficProfile};
    use ic_gen::GraphSeed;

    #[test]
    fn generated_traffic_maps_to_valid_engine_queries() {
        let profile = TrafficProfile::paper_defaults(&[4, 6]);
        let traffic = mixed_query_traffic(32, &profile, GraphSeed(1));
        let wg = ic_core::figure1::figure1();
        let engine = ic_engine::Engine::with_threads(wg, 1);
        let queries: Vec<Query> = traffic.iter().map(to_engine_query).collect();
        let plan = engine.plan(&queries);
        assert_eq!(plan.stats.total_queries, 32);
        // Generated traffic is always well-formed: anything not answered
        // at plan time is a planned solver run, and plan-time answers on
        // this tiny graph are k > degeneracy empties, not errors.
        for r in engine.run_batch(&queries) {
            assert!(r.is_ok());
        }
    }
}
