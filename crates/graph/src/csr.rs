use crate::{GraphError, VertexId};
use ic_mem::SharedSlice;

/// An immutable, undirected graph in CSR (compressed sparse row) layout.
///
/// Vertices are dense ids `0..n`. Each undirected edge `{u, v}` is stored
/// twice (once per endpoint); adjacency lists are sorted and free of
/// duplicates and self-loops — [`crate::GraphBuilder`] enforces this.
///
/// The CSR arrays live in [`SharedSlice`]s, so a graph can either own
/// its arrays (built from edges) or borrow them zero-copy from a
/// memory-mapped `ic-store` file; `clone` is an `Arc` bump either way.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for vertex `v`.
    offsets: SharedSlice<usize>,
    /// Concatenated sorted adjacency lists.
    targets: SharedSlice<VertexId>,
    /// Number of undirected edges (`targets.len() / 2`).
    num_edges: usize,
}

impl Graph {
    /// Constructs a graph directly from CSR arrays.
    ///
    /// Callers outside this crate should prefer [`crate::GraphBuilder`]. The
    /// arrays must satisfy the CSR invariants (monotone offsets, sorted
    /// deduplicated loop-free adjacency, symmetric edges); violations are
    /// caught by `debug_assert`s.
    pub(crate) fn from_csr(offsets: Vec<usize>, targets: Vec<VertexId>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), targets.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(targets.len() % 2, 0);
        let num_edges = targets.len() / 2;
        Graph {
            offsets: offsets.into(),
            targets: targets.into(),
            num_edges,
        }
    }

    /// Constructs a graph from raw CSR arrays, validating every invariant.
    ///
    /// This is the deserialization entry point for persisted graphs
    /// (`ic-store`): the arrays are adopted as-is — no re-sorting, no
    /// dedup, no rebuild — after an `O(n + m)` structural check
    /// (monotone offsets, strictly increasing loop-free adjacency,
    /// in-bounds targets, symmetric edges). A violation returns a typed
    /// error instead of constructing a graph that would silently
    /// misbehave, so corrupt or hand-rolled inputs fail closed.
    pub fn from_csr_checked(
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
    ) -> Result<Self, GraphError> {
        Self::from_csr_shared(offsets.into(), targets.into())
    }

    /// [`from_csr_checked`](Self::from_csr_checked) over shared slices:
    /// the zero-copy entry point for mmap-backed stores. The slices are
    /// validated in place and adopted without copying — the graph keeps
    /// the backing storage (e.g. a file mapping) alive.
    pub fn from_csr_shared(
        offsets: SharedSlice<usize>,
        targets: SharedSlice<VertexId>,
    ) -> Result<Self, GraphError> {
        let graph = Self::from_csr_deferred(offsets, targets)?;
        graph.check_adjacency()?;
        Ok(graph)
    }

    /// Adopts shared CSR slices **without** the `O(n + m)` structural
    /// check: only what [`num_vertices`](Self::num_vertices) and
    /// [`num_edges`](Self::num_edges) rely on (a non-empty offsets
    /// array) is verified. The caller owes
    /// [`check_adjacency`](Self::check_adjacency) before the first
    /// [`neighbors`](Self::neighbors) / [`degree`](Self::degree) /
    /// [`csr_parts`](Self::csr_parts) read — until then those may index
    /// out of bounds on malformed arrays. `ic-store` uses this to open a
    /// mapped store without touching adjacency it may never read; the
    /// debt is tracked by `ic_kcore::GraphSnapshot`.
    pub fn from_csr_deferred(
        offsets: SharedSlice<usize>,
        targets: SharedSlice<VertexId>,
    ) -> Result<Self, GraphError> {
        if offsets.is_empty() {
            return Err(GraphError::MalformedBinary(
                "CSR offsets are empty (need n + 1 entries)".into(),
            ));
        }
        let num_edges = targets.len() / 2;
        Ok(Graph {
            offsets,
            targets,
            num_edges,
        })
    }

    /// The `O(n + m)` structural check that
    /// [`from_csr_checked`](Self::from_csr_checked) runs at
    /// construction: monotone offsets, strictly increasing loop-free
    /// in-bounds adjacency, symmetric edges. Always `Ok` on a graph
    /// built any other way than
    /// [`from_csr_deferred`](Self::from_csr_deferred).
    pub fn check_adjacency(&self) -> Result<(), GraphError> {
        validate_csr(&self.offsets, &self.targets)
    }

    /// Lays per-vertex adjacency rows out as CSR, sorting each row into
    /// place: row `v` lists `v`'s neighbours in any order. The rows must
    /// already describe a simple undirected graph — every edge in both
    /// endpoints' rows, no duplicates, no self-loops — which only debug
    /// builds check: [`with_rows`](Self::with_rows) with every row
    /// patched. `ic_kcore::CoreMaintainer::to_graph` lays out its whole
    /// edge set this way.
    pub fn from_rows(rows: &[Vec<VertexId>]) -> Self {
        let rows: Vec<(VertexId, &[VertexId])> = (0..)
            .zip(rows)
            .map(|(v, row)| (v, row.as_slice()))
            .collect();
        Graph::empty(rows.len()).with_rows(&rows)
    }

    /// This graph with the rows of `patched` replaced: `(v, row)` pairs
    /// in strictly ascending `v`, each row listing `v`'s neighbours in
    /// any order, sorted into place. The rows between patched vertices
    /// are copied in bulk, their offsets shifted. The result must
    /// describe a simple undirected graph — both endpoints of a changed
    /// edge patched — which only debug builds check. This is how
    /// `Engine::apply` lays out a post-update graph: a copy of the old
    /// arrays plus a sort per patched row, no per-row rebuild.
    pub fn with_rows(&self, patched: &[(VertexId, &[VertexId])]) -> Graph {
        let n = self.num_vertices();
        let (old_offsets, old_targets) = (&self.offsets, &self.targets);
        let grown: usize = patched.iter().map(|(_, row)| row.len()).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(old_targets.len() + grown);
        offsets.push(0);
        let copy =
            |upto: usize, from: usize, offsets: &mut Vec<usize>, targets: &mut Vec<VertexId>| {
                let (lo, hi) = (old_offsets[from], old_offsets[upto]);
                let base = targets.len();
                targets.extend_from_slice(&old_targets[lo..hi]);
                offsets.extend(old_offsets[from + 1..=upto].iter().map(|&o| o - lo + base));
            };
        let mut next = 0;
        for &(v, row) in patched {
            let v = v as usize;
            debug_assert!(v >= next && v < n, "patched rows ascend inside 0..n");
            copy(v, next, &mut offsets, &mut targets);
            let at = targets.len();
            targets.extend_from_slice(row);
            targets[at..].sort_unstable();
            offsets.push(targets.len());
            next = v + 1;
        }
        copy(n, next, &mut offsets, &mut targets);
        if cfg!(debug_assertions) {
            if let Err(e) = validate_csr(&offsets, &targets) {
                panic!("patched rows do not describe a simple undirected graph: {e}");
            }
        }
        Self::from_csr(offsets, targets)
    }

    /// The raw CSR arrays `(offsets, targets)` — the exact layout
    /// [`Graph::from_csr_checked`] accepts back. Used by `ic-store` to
    /// persist the graph without an edge-list rebuild on either side.
    pub fn csr_parts(&self) -> (&[usize], &[VertexId]) {
        (&self.offsets, &self.targets)
    }
}

/// The `O(n + m)` structural CSR check behind
/// [`Graph::check_adjacency`], its one caller.
fn validate_csr(offsets: &[usize], targets: &[VertexId]) -> Result<(), GraphError> {
    let malformed = |msg: String| Err(GraphError::MalformedBinary(msg));
    let Some((&last, _)) = offsets.split_last() else {
        return malformed("CSR offsets are empty (need n + 1 entries)".into());
    };
    if last != targets.len() {
        return malformed(format!(
            "CSR offsets end at {last} but there are {} adjacency entries",
            targets.len()
        ));
    }
    if !targets.len().is_multiple_of(2) {
        return malformed(format!(
            "odd adjacency count {} (undirected edges are stored twice)",
            targets.len()
        ));
    }
    if let Some(w) = offsets.windows(2).find(|w| w[0] > w[1]) {
        return malformed(format!("CSR offsets decrease: {} before {}", w[0], w[1]));
    }
    let n = offsets.len() - 1;
    // Pass 1: per-row order/bounds/loop checks; record where each
    // row's lower-than-self prefix ends (used by the mirror check).
    let mut lower_end = vec![0usize; n];
    for v in 0..n {
        let row = &targets[offsets[v]..offsets[v + 1]];
        let mut prev: Option<VertexId> = None;
        let mut lower = 0usize;
        for &u in row {
            if u as usize >= n {
                return malformed(format!(
                    "vertex {v} adjacent to out-of-bounds {u} (n = {n})"
                ));
            }
            if u as usize == v {
                return malformed(format!("self loop on vertex {v}"));
            }
            if prev.is_some_and(|p| p >= u) {
                return malformed(format!("adjacency of vertex {v} not strictly increasing"));
            }
            if (u as usize) < v {
                lower += 1;
            }
            prev = Some(u);
        }
        lower_end[v] = offsets[v] + lower;
    }
    // Pass 2: O(n + m) symmetry. Rows are strictly increasing, so
    // walking vertices in ascending order makes each row's
    // lower-than-self prefix a queue of expected mirrors: the pair
    // (u, v) with u < v must consume exactly the next unconsumed
    // entry of v's prefix, and every prefix must end fully
    // consumed. An unmatched entry in either direction trips one of
    // the two checks.
    let mut cursor: Vec<usize> = offsets[..n].to_vec();
    for u in 0..n {
        for &v in &targets[offsets[u]..offsets[u + 1]] {
            let v = v as usize;
            if v > u {
                if cursor[v] >= lower_end[v] || targets[cursor[v]] as usize != u {
                    return malformed(format!("edge ({u}, {v}) has no mirror entry"));
                }
                cursor[v] += 1;
            }
        }
    }
    if let Some(v) = (0..n).find(|&v| cursor[v] != lower_end[v]) {
        return malformed(format!(
            "vertex {v} has adjacency entries with no mirror edge"
        ));
    }
    Ok(())
}

impl Graph {
    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1].into(),
            targets: SharedSlice::empty(),
            num_edges: 0,
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The sorted neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v` in the full graph.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Whether the undirected edge `{u, v}` exists (binary search).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u as usize >= self.num_vertices() || v as usize >= self.num_vertices() {
            return false;
        }
        // Search the shorter adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterates vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterates each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree `2m / n`, or 0.0 for the empty graph.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.num_vertices() as f64
        }
    }

    /// Degree of `v` restricted to vertices set in `mask`
    /// (`d(v, G[mask])` in the paper's notation).
    pub fn degree_within(&self, v: VertexId, mask: &crate::BitSet) -> usize {
        self.neighbors(v)
            .iter()
            .filter(|&&u| mask.contains(u as usize))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitSet, GraphBuilder};

    fn triangle_plus_pendant() -> Graph {
        // 0-1, 1-2, 2-0, 2-3
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle_plus_pendant();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        let g0 = Graph::empty(0);
        assert_eq!(g0.num_vertices(), 0);
        assert_eq!(g0.avg_degree(), 0.0);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = triangle_plus_pendant();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 99));
        assert!(!g.has_edge(99, 0));
    }

    #[test]
    fn edges_iterate_once_each() {
        let g = triangle_plus_pendant();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn from_csr_checked_round_trips_and_rejects_malformed() {
        let g = triangle_plus_pendant();
        let (offsets, targets) = g.csr_parts();
        let back = Graph::from_csr_checked(offsets.to_vec(), targets.to_vec()).unwrap();
        assert_eq!(g, back);

        // Empty offsets.
        assert!(Graph::from_csr_checked(vec![], vec![]).is_err());
        // Offsets not ending at the adjacency length.
        assert!(Graph::from_csr_checked(vec![0, 1], vec![]).is_err());
        // Odd adjacency count.
        assert!(Graph::from_csr_checked(vec![0, 1], vec![0]).is_err());
        // Decreasing offsets.
        assert!(Graph::from_csr_checked(vec![0, 2, 1, 2], vec![1, 2]).is_err());
        // Out-of-bounds target.
        assert!(Graph::from_csr_checked(vec![0, 1, 2], vec![9, 0]).is_err());
        // Self loop.
        assert!(Graph::from_csr_checked(vec![0, 1, 2], vec![0, 0]).is_err());
        // Unsorted adjacency.
        assert!(Graph::from_csr_checked(vec![0, 2, 3, 4], vec![2, 1, 0, 0]).is_err());
        // Asymmetric edge: 0 -> 1 without the mirror (1 -> 2, 2 -> 1
        // keep counts even and sorted).
        assert!(Graph::from_csr_checked(vec![0, 1, 2, 3, 3], vec![1, 2, 1]).is_err());
        // The deferred form adopts the same arrays and owes the check.
        let owing = Graph::from_csr_deferred(vec![0, 1, 2, 3, 3].into(), vec![1, 2, 1].into());
        let owing = owing.expect("arity alone is checked");
        assert_eq!((owing.num_vertices(), owing.num_edges()), (4, 1));
        assert!(owing.check_adjacency().is_err());
        assert!(g.check_adjacency().is_ok());
        assert!(Graph::from_csr_deferred(Vec::new().into(), Vec::new().into()).is_err());
    }

    #[test]
    fn from_rows_equals_the_builder() {
        let rows = vec![vec![2, 1], vec![0, 2], vec![3, 1, 0], vec![2], vec![]];
        let mut b = GraphBuilder::new();
        b.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .reserve_vertices(5);
        assert_eq!(Graph::from_rows(&rows), b.build());
    }

    #[test]
    fn with_rows_equals_the_builder() {
        // Remove {0, 1}, insert {0, 3} and {3, 4}: rows 0, 1, 3 and 4
        // change, row 2 is copied.
        let mut g = GraphBuilder::new();
        g.extend_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
            .reserve_vertices(5);
        let patched = g
            .build()
            .with_rows(&[(0, &[3, 2]), (1, &[2]), (3, &[4, 2, 0]), (4, &[3])]);
        let mut b = GraphBuilder::new();
        b.extend_edges([(0, 3), (1, 2), (2, 0), (2, 3), (3, 4)]);
        assert_eq!(patched.csr_parts(), b.build().csr_parts());
        let g = triangle_plus_pendant();
        assert_eq!(g.with_rows(&[]), g, "no patch is a copy");
    }

    #[test]
    fn degree_within_mask() {
        let g = triangle_plus_pendant();
        let mut mask = BitSet::full(4);
        assert_eq!(g.degree_within(2, &mask), 3);
        mask.remove(3);
        assert_eq!(g.degree_within(2, &mask), 2);
        mask.remove(0);
        assert_eq!(g.degree_within(2, &mask), 1);
        assert_eq!(g.degree_within(1, &mask), 1);
    }
}
