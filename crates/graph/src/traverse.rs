use crate::{BitSet, Graph, VertexId};
use std::collections::VecDeque;

/// Reusable breadth-first-search scratch state.
///
/// Allocations are made once and reused across runs, which matters for the
/// search algorithms that perform many BFS restarts (Algorithm 1/2 recompute
/// connected k-cores after every vertex deletion).
#[derive(Clone, Debug)]
pub struct Bfs {
    visited: BitSet,
    queue: VecDeque<VertexId>,
}

impl Bfs {
    /// Creates scratch state for graphs with up to `n` vertices.
    pub fn new(n: usize) -> Self {
        Bfs {
            visited: BitSet::new(n),
            queue: VecDeque::new(),
        }
    }

    /// Runs BFS from `source` over the whole graph, invoking `visit` on each
    /// reached vertex in BFS order.
    pub fn run<F: FnMut(VertexId)>(&mut self, g: &Graph, source: VertexId, mut visit: F) {
        self.visited.clear();
        self.queue.clear();
        self.visited.insert(source as usize);
        self.queue.push_back(source);
        while let Some(u) = self.queue.pop_front() {
            visit(u);
            for &w in g.neighbors(u) {
                if !self.visited.contains(w as usize) {
                    self.visited.insert(w as usize);
                    self.queue.push_back(w);
                }
            }
        }
    }

    /// Runs BFS from `source` restricted to vertices set in `mask`.
    ///
    /// `source` must be contained in `mask`.
    pub fn run_within<F: FnMut(VertexId)>(
        &mut self,
        g: &Graph,
        mask: &BitSet,
        source: VertexId,
        mut visit: F,
    ) {
        debug_assert!(mask.contains(source as usize));
        self.visited.clear();
        self.queue.clear();
        self.visited.insert(source as usize);
        self.queue.push_back(source);
        while let Some(u) = self.queue.pop_front() {
            visit(u);
            for &w in g.neighbors(u) {
                if mask.contains(w as usize) && !self.visited.contains(w as usize) {
                    self.visited.insert(w as usize);
                    self.queue.push_back(w);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_from_edges;

    /// Path 0-1-2-3 plus isolated 4.
    fn path4() -> Graph {
        graph_from_edges(5, &[(0, 1), (1, 2), (2, 3)])
    }

    fn bfs_order(g: &Graph, source: VertexId) -> Vec<VertexId> {
        let mut order = Vec::new();
        Bfs::new(g.num_vertices()).run(g, source, |v| order.push(v));
        order
    }

    fn bfs_order_within(g: &Graph, mask: &BitSet, source: VertexId) -> Vec<VertexId> {
        let mut order = Vec::new();
        Bfs::new(g.num_vertices()).run_within(g, mask, source, |v| order.push(v));
        order
    }

    #[test]
    fn bfs_visits_component_in_order() {
        let g = path4();
        assert_eq!(bfs_order(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(bfs_order(&g, 2), vec![2, 1, 3, 0]);
        assert_eq!(bfs_order(&g, 4), vec![4]);
    }

    #[test]
    fn bfs_within_respects_mask() {
        let g = path4();
        let mut mask = BitSet::full(5);
        mask.remove(2);
        assert_eq!(bfs_order_within(&g, &mask, 0), vec![0, 1]);
        assert_eq!(bfs_order_within(&g, &mask, 3), vec![3]);
    }

    #[test]
    fn reusable_bfs_state_resets() {
        let g = path4();
        let mut bfs = Bfs::new(5);
        let mut a = Vec::new();
        bfs.run(&g, 0, |v| a.push(v));
        let mut b = Vec::new();
        bfs.run(&g, 3, |v| b.push(v));
        assert_eq!(a, vec![0, 1, 2, 3]);
        assert_eq!(b, vec![3, 2, 1, 0]);
    }
}
