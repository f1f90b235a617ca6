//! Community validation against Definition 3/4 of the paper.
//!
//! Solvers use these checks in tests; applications can use them to audit
//! results from any source.

use crate::{Aggregation, Community};
use ic_graph::{BitSet, WeightedGraph};

/// Why a community failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// Community is empty.
    Empty,
    /// A member vertex id is out of graph bounds.
    OutOfBounds(u32),
    /// Some member has fewer than `k` neighbors inside the community.
    NotCohesive {
        /// Offending vertex.
        vertex: u32,
        /// Its internal degree.
        degree: usize,
    },
    /// The induced subgraph is disconnected.
    NotConnected,
    /// The stored value does not match re-evaluation.
    WrongValue {
        /// Value recomputed from the member weights.
        expected: f64,
    },
    /// The community exceeds the size bound `s`.
    TooLarge {
        /// The bound that was violated.
        bound: usize,
    },
}

/// Checks the *cohesive* and *connected* constraints (Definition 3, items
/// 1–2) plus membership sanity; does not check maximality (see
/// [`crate::algo::oracle::exact_topr`] for the exhaustive oracle used in tests).
pub fn check_structure(
    wg: &WeightedGraph,
    k: usize,
    community: &Community,
) -> Result<(), Violation> {
    let g = wg.graph();
    let n = g.num_vertices();
    if community.is_empty() {
        return Err(Violation::Empty);
    }
    let mut mask = BitSet::new(n);
    for &v in &community.vertices {
        if v as usize >= n {
            return Err(Violation::OutOfBounds(v));
        }
        mask.insert(v as usize);
    }
    for &v in &community.vertices {
        let d = g.degree_within(v, &mask);
        if d < k {
            return Err(Violation::NotCohesive {
                vertex: v,
                degree: d,
            });
        }
    }
    if !ic_graph::is_connected_within(g, &mask) {
        return Err(Violation::NotConnected);
    }
    Ok(())
}

/// Full validation: structure, optional size bound, and value consistency
/// under `aggregation` (tolerance `1e-6` relative).
pub fn check_community(
    wg: &WeightedGraph,
    k: usize,
    size_bound: Option<usize>,
    aggregation: Aggregation,
    community: &Community,
) -> Result<(), Violation> {
    check_structure(wg, k, community)?;
    if let Some(s) = size_bound {
        if community.len() > s {
            return Err(Violation::TooLarge { bound: s });
        }
    }
    let weights: Vec<f64> = community.vertices.iter().map(|&v| wg.weight(v)).collect();
    let expected = aggregation.evaluate(&weights, wg.total_weight());
    let tol = 1e-6 * expected.abs().max(1.0);
    if (expected - community.value).abs() > tol {
        return Err(Violation::WrongValue { expected });
    }
    Ok(())
}

/// Convenience: recompute a community's influence value from scratch.
pub fn evaluate_community(wg: &WeightedGraph, aggregation: Aggregation, vertices: &[u32]) -> f64 {
    let weights: Vec<f64> = vertices.iter().map(|&v| wg.weight(v)).collect();
    aggregation.evaluate(&weights, wg.total_weight())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_graph::{graph_from_edges, WeightedGraph};

    fn triangle_wg() -> WeightedGraph {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        WeightedGraph::new(g, vec![1.0, 2.0, 3.0, 4.0]).unwrap()
    }

    #[test]
    fn valid_triangle_passes() {
        let wg = triangle_wg();
        let c = Community::new(vec![0, 1, 2], 6.0);
        assert_eq!(check_community(&wg, 2, None, Aggregation::Sum, &c), Ok(()));
    }

    #[test]
    fn empty_rejected() {
        let wg = triangle_wg();
        let c = Community::new(vec![], 0.0);
        assert_eq!(check_structure(&wg, 2, &c), Err(Violation::Empty));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let wg = triangle_wg();
        let c = Community::new(vec![0, 99], 0.0);
        assert_eq!(check_structure(&wg, 0, &c), Err(Violation::OutOfBounds(99)));
    }

    #[test]
    fn low_degree_rejected() {
        let wg = triangle_wg();
        let c = Community::new(vec![0, 1, 2, 3], 10.0);
        assert_eq!(
            check_structure(&wg, 2, &c),
            Err(Violation::NotCohesive {
                vertex: 3,
                degree: 1
            })
        );
    }

    #[test]
    fn disconnected_rejected() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let wg = WeightedGraph::new(g, vec![1.0; 4]).unwrap();
        let c = Community::new(vec![0, 1, 2, 3], 4.0);
        assert_eq!(check_structure(&wg, 1, &c), Err(Violation::NotConnected));
    }

    #[test]
    fn wrong_value_rejected() {
        let wg = triangle_wg();
        let c = Community::new(vec![0, 1, 2], 7.0);
        assert!(matches!(
            check_community(&wg, 2, None, Aggregation::Sum, &c),
            Err(Violation::WrongValue { .. })
        ));
    }

    #[test]
    fn size_bound_enforced() {
        let wg = triangle_wg();
        let c = Community::new(vec![0, 1, 2], 6.0);
        assert_eq!(
            check_community(&wg, 2, Some(2), Aggregation::Sum, &c),
            Err(Violation::TooLarge { bound: 2 })
        );
        assert_eq!(
            check_community(&wg, 2, Some(3), Aggregation::Sum, &c),
            Ok(())
        );
    }

    #[test]
    fn evaluate_helper() {
        let wg = triangle_wg();
        assert_eq!(evaluate_community(&wg, Aggregation::Sum, &[0, 3]), 5.0);
        assert_eq!(evaluate_community(&wg, Aggregation::Min, &[1, 2]), 2.0);
        assert_eq!(evaluate_community(&wg, Aggregation::Average, &[1, 3]), 3.0);
    }
}
