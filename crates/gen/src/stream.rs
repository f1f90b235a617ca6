//! Streaming multi-million-node graph generation with bounded memory.
//!
//! The builder-based generators ([`crate::chung_lu`],
//! [`crate::barabasi_albert`]) replay the same emission once into an
//! edge *list* and hand it to `GraphBuilder`, which sorts and mirrors
//! it — fine at 10⁴–10⁵ nodes,
//! wasteful at 10⁶+: the tuple list, its mirror, and the sort scratch
//! all coexist with the final CSR.
//!
//! [`stream_graph`] instead makes **two deterministic passes** over the
//! same seeded edge emission: pass 1 counts degrees, pass 2 scatters
//! targets straight into their CSR slots; per-vertex adjacency sort +
//! in-place dedup finishes the canonical form. Peak memory is the CSR
//! itself plus an `O(n)` degree array — the `(u, v)` tuple list is
//! never held. Emission is a pure function of the [`StreamSpec`], so
//! both passes see identical edges.

use crate::{AliasTable, GraphSeed};
use ic_graph::{Graph, GraphBuilder};
use rand::{Rng, SeedableRng};

/// A deterministic edge-stream recipe: everything needed to replay the
/// same emission twice (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StreamSpec {
    /// Chung-Lu power-law graph: `target_m` endpoint-pair draws from a
    /// `gamma` power-law weight distribution (self-loops skipped at
    /// emission, duplicate pairs deduped during CSR construction), as
    /// in [`crate::chung_lu`].
    ChungLu {
        /// Vertices.
        n: usize,
        /// Edge slots drawn (realized edges land slightly below).
        target_m: usize,
        /// Power-law exponent (`> 1`; real networks: `2 < γ < 3`).
        gamma: f64,
        /// Generator seed.
        seed: GraphSeed,
    },
    /// Barabási–Albert preferential attachment with `m` edges per new
    /// vertex, as in [`crate::barabasi_albert`]. Emits no duplicate
    /// pairs by construction; the endpoint multiset it samples from is
    /// rebuilt per pass (`2·m·n` u32s — part of the generator, not an
    /// edge list).
    BarabasiAlbert {
        /// Vertices.
        n: usize,
        /// Edges attached per new vertex (`>= 1`).
        m: usize,
        /// Generator seed.
        seed: GraphSeed,
    },
    /// Erdős–Rényi G(n, m): `target_m` uniform pair draws (self-loops
    /// skipped, duplicates deduped), the streaming analog of
    /// [`crate::gnm`].
    Gnm {
        /// Vertices.
        n: usize,
        /// Edge slots drawn.
        target_m: usize,
        /// Generator seed.
        seed: GraphSeed,
    },
}

impl StreamSpec {
    /// The vertex count the emission addresses.
    pub fn num_vertices(&self) -> usize {
        match *self {
            StreamSpec::ChungLu { n, .. }
            | StreamSpec::BarabasiAlbert { n, .. }
            | StreamSpec::Gnm { n, .. } => n,
        }
    }

    /// Replays the edge emission, invoking `f(u, v)` once per emitted
    /// undirected pair (`u != v` guaranteed; duplicates possible for
    /// the collision-sampling specs). Deterministic: two calls with the
    /// same spec emit identical sequences.
    pub(crate) fn emit<F: FnMut(u32, u32)>(&self, mut f: F) {
        match *self {
            StreamSpec::ChungLu {
                n,
                target_m,
                gamma,
                seed,
            } => {
                assert!(gamma > 1.0, "gamma must exceed 1, got {gamma}");
                if n == 0 {
                    return;
                }
                let exponent = -1.0 / (gamma - 1.0);
                // Small offset avoids a degenerate first weight while
                // keeping the head of the distribution genuinely heavy.
                let i0 = 10.0;
                let weights: Vec<f64> = (0..n)
                    .map(|i| ((i as f64 + i0) / i0).powf(exponent))
                    .collect();
                let table = AliasTable::new(&weights);
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed.0);
                for _ in 0..target_m {
                    let u = table.sample(&mut rng);
                    let v = table.sample(&mut rng);
                    if u != v {
                        f(u, v);
                    }
                }
            }
            StreamSpec::BarabasiAlbert { n, m, seed } => {
                assert!(m >= 1, "m must be at least 1");
                if n == 0 {
                    return;
                }
                let seed_size = (m + 1).min(n);
                // Endpoint multiset: each vertex appears once per
                // incident edge.
                let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
                for u in 0..seed_size as u32 {
                    for v in (u + 1)..seed_size as u32 {
                        f(u, v);
                        endpoints.push(u);
                        endpoints.push(v);
                    }
                }
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed.0);
                let mut chosen: Vec<u32> = Vec::with_capacity(m);
                for v in seed_size..n {
                    chosen.clear();
                    // Sample m distinct targets preferentially by degree.
                    let mut guard = 0usize;
                    while chosen.len() < m && guard < 50 * m {
                        guard += 1;
                        let t = endpoints[rng.gen_range(0..endpoints.len())];
                        if !chosen.contains(&t) {
                            chosen.push(t);
                        }
                    }
                    for &t in &chosen {
                        f(v as u32, t);
                        endpoints.push(v as u32);
                        endpoints.push(t);
                    }
                }
            }
            StreamSpec::Gnm { n, target_m, seed } => {
                if n < 2 {
                    return;
                }
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed.0);
                for _ in 0..target_m {
                    let u = rng.gen_range(0..n as u32);
                    let v = rng.gen_range(0..n as u32);
                    if u != v {
                        f(u, v);
                    }
                }
            }
        }
    }
}

/// Builds the graph for `spec` from one emission pass collected into a
/// `GraphBuilder` sized for `edge_slots` edges: the buffered generators'
/// path, the same edges in the same order as [`stream_graph`] sees.
pub(crate) fn build_buffered(spec: &StreamSpec, edge_slots: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(edge_slots);
    b.reserve_vertices(spec.num_vertices());
    spec.emit(|u, v| {
        b.add_edge(u, v);
    });
    b.build()
}

/// Builds the graph for `spec` with two emission passes and no edge
/// list — see the module docs. The result is canonical CSR (sorted,
/// deduped, mirrored) and passes `ic-graph`'s full structural
/// validation.
pub fn stream_graph(spec: &StreamSpec) -> Graph {
    let n = spec.num_vertices();
    if n == 0 {
        return Graph::empty(0);
    }
    // Pass 1: count emitted endpoints per vertex (duplicates included —
    // they are removed after placement).
    let mut counts = vec![0usize; n];
    spec.emit(|u, v| {
        counts[u as usize] += 1;
        counts[v as usize] += 1;
    });
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &c in &counts {
        acc += c;
        offsets.push(acc);
    }
    // Pass 2: scatter both directions straight into CSR position,
    // reusing `counts` as per-vertex write cursors.
    let mut cursor = std::mem::take(&mut counts);
    cursor.copy_from_slice(&offsets[..n]);
    let mut targets: Vec<u32> = vec![0; acc];
    spec.emit(|u, v| {
        targets[cursor[u as usize]] = v;
        cursor[u as usize] += 1;
        targets[cursor[v as usize]] = u;
        cursor[v as usize] += 1;
    });
    // Canonicalize in place: per-vertex sort + dedup, compacting the
    // target array left. Duplicate pairs were scattered symmetrically,
    // so dedup preserves mirror symmetry.
    let mut write = 0usize;
    let mut new_offsets = Vec::with_capacity(n + 1);
    new_offsets.push(0);
    for v in 0..n {
        let (lo, hi) = (offsets[v], offsets[v + 1]);
        targets[lo..hi].sort_unstable();
        let mut prev = u32::MAX;
        for i in lo..hi {
            let t = targets[i];
            if t != prev {
                targets[write] = t;
                write += 1;
                prev = t;
            }
        }
        new_offsets.push(write);
    }
    targets.truncate(write);
    targets.shrink_to_fit();
    Graph::from_csr_checked(new_offsets, targets)
        .expect("streaming construction yields a canonical CSR")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chung_lu_stream_matches_builder_generator() {
        // Same seed, same sampling sequence: the streamed CSR must be
        // the builder graph exactly.
        let spec = StreamSpec::ChungLu {
            n: 2000,
            target_m: 8000,
            gamma: 2.5,
            seed: GraphSeed(11),
        };
        let streamed = stream_graph(&spec);
        let built = crate::chung_lu(2000, 8000, 2.5, GraphSeed(11));
        assert_eq!(streamed, built);
    }

    #[test]
    fn ba_stream_matches_builder_generator() {
        let spec = StreamSpec::BarabasiAlbert {
            n: 1500,
            m: 3,
            seed: GraphSeed(21),
        };
        let streamed = stream_graph(&spec);
        let built = crate::barabasi_albert(1500, 3, GraphSeed(21));
        assert_eq!(streamed, built);
    }

    #[test]
    fn gnm_stream_is_valid_and_deterministic() {
        let spec = StreamSpec::Gnm {
            n: 1000,
            target_m: 5000,
            seed: GraphSeed(7),
        };
        let a = stream_graph(&spec);
        let b = stream_graph(&spec);
        assert_eq!(a, b);
        assert_eq!(a.num_vertices(), 1000);
        assert!(a.num_edges() > 4000 && a.num_edges() <= 5000);
    }

    #[test]
    fn empty_and_tiny_specs() {
        let empty = StreamSpec::ChungLu {
            n: 0,
            target_m: 100,
            gamma: 2.5,
            seed: GraphSeed(1),
        };
        assert_eq!(stream_graph(&empty).num_vertices(), 0);
        let single = StreamSpec::Gnm {
            n: 1,
            target_m: 100,
            seed: GraphSeed(1),
        };
        let g = stream_graph(&single);
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
    }
}
