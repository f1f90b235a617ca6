//! Shard planning and per-shard `ICS1` store building.
//!
//! One logical graph becomes a directory of self-contained shard
//! stores, each a complete `ICS1` artifact (graph + decomposition +
//! levels + forests) over an *induced subgraph*, tagged with a
//! [`ShardMeta`] section and a sorted global-id map. The partition is
//! chosen so a scatter-gather merge of per-shard answers is
//! **bit-identical** to the unsharded engine:
//!
//! * Communities never span connected components (a connected k-core
//!   subgraph lives inside one component), so partitioning along
//!   component boundaries loses nothing.
//! * Small components are bin-packed into shards of at most
//!   `max_shard_vertices` vertices. Each bin is its own *group* served
//!   at every `k` (`k_lo = 1`).
//! * A component larger than the cap gets a dedicated group with a
//!   *base* shard (`k_lo = 1`, the whole component) plus, when the
//!   component's dense core fits the cap, a *k-sliced* shard over
//!   `{v : core(v) >= k_lo}` for the smallest such `k_lo`. For
//!   `k >= k_lo` the induced subgraph has exactly the same k-cores (the
//!   `core(v)`-core of the full graph is contained in the slice, so
//!   core numbers are preserved), hence identical communities.
//!
//! Exactly one shard of each group serves a given query `k` — the one
//! with the largest `k_lo <= k` — so no community is ever produced
//! twice across shards and the merge needs no dedup.
//!
//! Weight sums are kept bit-identical by storing the *global* total
//! weight in each [`ShardMeta`]; [`crate::StoreFile::graph`] re-applies
//! it so `sum` surpluses (`2·w(H) − w(V)`) evaluate against the same
//! `w(V)` bits as the unsharded engine.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ic_graph::{connected_components, Graph, VertexId, WeightedGraph};
use ic_kcore::{core_decomposition, CoreDecomposition, GraphSnapshot};

use crate::format::ShardMeta;
use crate::writer::WarmState;
use crate::StoreError;

/// Default vertex cap per shard: large enough that a million-node
/// graph lands in a handful of shards, small enough that every shard's
/// peel state stays cache-friendly.
pub const DEFAULT_MAX_SHARD_VERTICES: usize = 262_144;

/// One planned shard: which global vertices it owns and from which
/// query `k` on its group routes queries to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Routing group. All shards of a group cover the same components
    /// (at nested k-ranges); exactly one shard per group serves a query.
    pub group: u64,
    /// Smallest query `k` this shard serves within its group.
    pub k_lo: u32,
    /// Global vertex ids owned by this shard, strictly ascending.
    pub vertices: Vec<VertexId>,
}

/// Plans the component-aligned partition described in the module docs.
///
/// `cap` is the soft vertex bound per shard; components above it become
/// dedicated groups (base + optional k-slice) and keep their full size
/// in the base shard — correctness never depends on the cap.
pub fn plan_shards(g: &Graph, decomp: &CoreDecomposition, cap: usize) -> Vec<ShardSpec> {
    let cap = cap.max(1);
    let comps = connected_components(g).groups();
    let mut specs: Vec<ShardSpec> = Vec::new();
    let mut group: u64 = 0;
    let mut bin: Vec<VertexId> = Vec::new();

    let flush_bin = |bin: &mut Vec<VertexId>, group: &mut u64, specs: &mut Vec<ShardSpec>| {
        if !bin.is_empty() {
            let mut vertices = std::mem::take(bin);
            // Components interleave in id space; the id map must be
            // strictly ascending.
            vertices.sort_unstable();
            specs.push(ShardSpec {
                group: *group,
                k_lo: 1,
                vertices,
            });
            *group += 1;
        }
    };

    for comp in comps {
        if comp.len() > cap {
            flush_bin(&mut bin, &mut group, &mut specs);
            // Dedicated group: base shard over the whole component ...
            let max_core_comp = comp
                .iter()
                .map(|&v| decomp.core_numbers[v as usize])
                .max()
                .unwrap_or(0);
            // ... plus a k-slice at the smallest k where the dense part
            // fits the cap. Counting down from max_core via a histogram
            // keeps this O(|comp| + max_core).
            let mut count_ge = vec![0usize; max_core_comp as usize + 2];
            for &v in &comp {
                count_ge[decomp.core_numbers[v as usize] as usize] += 1;
            }
            for k in (0..=max_core_comp as usize).rev() {
                count_ge[k] += count_ge[k + 1];
            }
            let k_slice = (2..=max_core_comp)
                .find(|&k| count_ge[k as usize] <= cap && count_ge[k as usize] > 0);
            specs.push(ShardSpec {
                group,
                k_lo: 1,
                vertices: comp.clone(),
            });
            if let Some(k) = k_slice {
                let slice: Vec<VertexId> = comp
                    .iter()
                    .copied()
                    .filter(|&v| decomp.core_numbers[v as usize] >= k)
                    .collect();
                if !slice.is_empty() && slice.len() < comp.len() {
                    specs.push(ShardSpec {
                        group,
                        k_lo: k,
                        vertices: slice,
                    });
                }
            }
            group += 1;
        } else if !bin.is_empty() && bin.len() + comp.len() > cap {
            flush_bin(&mut bin, &mut group, &mut specs);
            bin = comp;
        } else {
            bin.extend(comp);
        }
    }
    flush_bin(&mut bin, &mut group, &mut specs);
    specs
}

/// Builds the induced subgraph on `vertices` (strictly ascending global
/// ids) directly in CSR form — no intermediate edge list, O(n + Σ deg).
///
/// Local ids are assigned in ascending global-id order, so the mapping
/// is monotone: sorted adjacency, lexicographic vertex-list order, and
/// f64 summation order are all preserved under translation.
fn induce_csr(g: &Graph, vertices: &[VertexId], local_of: &mut [u32]) -> Result<Graph, StoreError> {
    for (li, &v) in vertices.iter().enumerate() {
        local_of[v as usize] = li as u32;
    }
    let mut offsets = Vec::with_capacity(vertices.len() + 1);
    offsets.push(0usize);
    let mut targets: Vec<VertexId> = Vec::new();
    for &v in vertices {
        for &u in g.neighbors(v) {
            let lu = local_of[u as usize];
            if lu != u32::MAX {
                targets.push(lu);
            }
        }
        offsets.push(targets.len());
    }
    // Reset only the touched entries so the scratch map is reusable
    // across shards without an O(n_global) clear per shard.
    for &v in vertices {
        local_of[v as usize] = u32::MAX;
    }
    Ok(Graph::from_csr_checked(offsets, targets)?)
}

/// Builds one `ICS1` store per planned shard under `out_dir`, returning
/// the written paths in shard-index order.
///
/// Each shard store persists the induced weighted subgraph, a fresh
/// core decomposition, and a level + min/max forest for every requested
/// `k` the shard can actually serve (its group routes `k` to it and the
/// shard's k-core is non-empty). Files are named `shard-NNNN.ics1`.
pub fn build_shard_stores(
    wg: &WeightedGraph,
    ks: &[usize],
    cap: usize,
    out_dir: &Path,
) -> Result<Vec<PathBuf>, StoreError> {
    if ks.is_empty() || ks.contains(&0) {
        return Err(StoreError::corrupt(
            "shard build requires a non-empty list of positive k values",
        ));
    }
    let decomp = core_decomposition(wg.graph());
    let mut specs = plan_shards(wg.graph(), &decomp, cap);
    if specs.is_empty() {
        // n == 0: one empty shard keeps "a shards directory always has
        // at least one shard" true; building it will surface the same
        // empty-graph error a direct store build would.
        specs.push(ShardSpec {
            group: 0,
            k_lo: 1,
            vertices: Vec::new(),
        });
    }

    // Serving range of shard i within its group: [k_lo, next k_lo).
    // plan_shards pushes a group's shards in ascending k_lo order.
    let mut k_hi = vec![u32::MAX; specs.len()];
    for i in 0..specs.len().saturating_sub(1) {
        if specs[i + 1].group == specs[i].group {
            k_hi[i] = specs[i + 1].k_lo - 1;
        }
    }

    std::fs::create_dir_all(out_dir)?;
    let total = wg.total_weight();
    let global_n = wg.graph().num_vertices() as u64;
    let global_m = wg.graph().num_edges() as u64;
    let mut local_of = vec![u32::MAX; wg.graph().num_vertices()];
    let mut paths = Vec::with_capacity(specs.len());

    for (i, spec) in specs.iter().enumerate() {
        let g_local = induce_csr(wg.graph(), &spec.vertices, &mut local_of)?;
        let weights: Vec<f64> = spec
            .vertices
            .iter()
            .map(|&v| wg.weights()[v as usize])
            .collect();
        let wg_local = WeightedGraph::new(g_local, weights)?.with_total_weight(total)?;
        let decomp_local = core_decomposition(wg_local.graph());
        let max_core_local = decomp_local.max_core;
        let meta = ShardMeta {
            shard_index: i as u64,
            num_shards: specs.len() as u64,
            group: spec.group,
            k_lo: spec.k_lo as u64,
            max_core: max_core_local as u64,
            total_weight_bits: total.to_bits(),
            global_n,
            global_m,
        };

        let snap = GraphSnapshot::with_decomposition(Arc::new(wg_local), decomp_local);
        let shard_ks: Vec<usize> = ks
            .iter()
            .copied()
            .filter(|&k| {
                let k32 = u32::try_from(k).unwrap_or(u32::MAX);
                k32 >= spec.k_lo && k32 <= k_hi[i] && k32 <= max_core_local
            })
            .collect();
        let path = out_dir.join(format!("shard-{i:04}.ics1"));
        let warm = WarmState::at(&snap, &shard_ks);
        warm.builder().shard(meta, &spec.vertices).write_to(&path)?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreFile;
    use ic_core::figure1::figure1;

    #[test]
    fn plan_covers_every_vertex_exactly_once_at_k1() {
        let wg = figure1();
        let decomp = core_decomposition(wg.graph());
        for cap in [1usize, 3, 8, 1 << 20] {
            let specs = plan_shards(wg.graph(), &decomp, cap);
            let mut seen: Vec<VertexId> = specs
                .iter()
                .filter(|s| s.k_lo == 1)
                .flat_map(|s| s.vertices.iter().copied())
                .collect();
            seen.sort_unstable();
            let all: Vec<VertexId> = (0..wg.graph().num_vertices() as u32).collect();
            assert_eq!(seen, all, "cap {cap}");
            for s in &specs {
                assert!(s.vertices.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn groups_route_uniquely_per_k() {
        let wg = figure1();
        let decomp = core_decomposition(wg.graph());
        let specs = plan_shards(wg.graph(), &decomp, 4);
        let max_group = specs.iter().map(|s| s.group).max().unwrap();
        for k in 1..=decomp.max_core {
            for g in 0..=max_group {
                // The serving shard is the group's largest k_lo <= k;
                // max_by_key picks at most one, so routing is unique.
                let serving = specs
                    .iter()
                    .filter(|s| s.group == g && s.k_lo <= k)
                    .max_by_key(|s| s.k_lo);
                let eligible = specs.iter().filter(|s| s.group == g && s.k_lo <= k).count();
                assert!(eligible == 0 || serving.is_some());
            }
        }
    }

    #[test]
    fn built_shards_round_trip_with_meta_and_id_map() {
        let wg = figure1();
        let dir = crate::scratch::ScratchDir::new("shard-build");
        let paths = build_shard_stores(&wg, &[2], 4, &dir).unwrap();
        assert!(!paths.is_empty());
        let mut covered = 0usize;
        for path in &paths {
            let file = StoreFile::open(path).unwrap();
            let contents = file.load().unwrap();
            let shard = contents.shard.expect("shard sections present");
            assert_eq!(shard.meta.global_n, wg.graph().num_vertices() as u64);
            assert_eq!(shard.meta.total_weight(), wg.total_weight());
            assert_eq!(shard.id_map.len(), contents.weighted.graph().num_vertices());
            // Global total weight survives into the loaded graph.
            assert_eq!(
                contents.weighted.total_weight().to_bits(),
                wg.total_weight().to_bits()
            );
            if shard.meta.k_lo == 1 {
                covered += shard.id_map.len();
            }
        }
        assert_eq!(covered, wg.graph().num_vertices());
    }

    #[test]
    fn oversized_component_gets_base_plus_slice() {
        // figure1 is one component; cap 4 forces the dedicated-group
        // path. The slice (if any) must be a strict, non-empty subset
        // with k_lo > 1 in the same group.
        let wg = figure1();
        let decomp = core_decomposition(wg.graph());
        let specs = plan_shards(wg.graph(), &decomp, 4);
        assert_eq!(specs[0].k_lo, 1);
        assert_eq!(specs[0].vertices.len(), wg.graph().num_vertices());
        if let Some(slice) = specs.get(1) {
            assert_eq!(slice.group, specs[0].group);
            assert!(slice.k_lo > 1);
            assert!(!slice.vertices.is_empty());
            assert!(slice.vertices.len() < specs[0].vertices.len());
            for &v in &slice.vertices {
                assert!(decomp.core_numbers[v as usize] >= slice.k_lo);
            }
        }
    }
}
