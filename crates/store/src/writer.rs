//! Building and writing `ICS1` store files.
//!
//! [`StoreBuilder`] collects borrowed views of the structures to
//! persist — the weighted graph (always), the core decomposition, any
//! memoized [`CoreLevel`]s, and any extremum community forests — and
//! serializes them with bulk byte-views of the backing arrays (see
//! `cast.rs`): the writer never walks elements one by one any more than
//! the reader does.
//!
//! Interior layouts of the parameterized sections (all integers
//! little-endian, each section starting 8-aligned):
//!
//! ```text
//! Level (kind 7, keyed by k):
//!   [num_components u64][mask_words u64][vertices_total u64]
//!   mask         u64[mask_words]          # BitSet backing words
//!   comp_offsets u32[num_components + 1]  # into `vertices`
//!   vertices     u32[vertices_total]      # concatenated components
//!
//! Forest (kind 8, keyed by dir + k):
//!   [nodes u64][batch_total u64][child_total u64][num_vertices u64]
//!   values        f64[nodes]
//!   event_vertex  u32[nodes]
//!   parent        u32[nodes]
//!   size          u32[nodes]
//!   batch_offsets u32[nodes + 1]
//!   child_offsets u32[nodes + 1]
//!   ranked        u32[nodes]
//!   vertex_node   u32[num_vertices]
//!   batch_vertices u32[batch_total]
//!   child_ids     u32[child_total]
//! ```

use crate::cast::{bytes_of_f64s, bytes_of_u32s, bytes_of_u64s, AlignedBuf};
use crate::format::{
    align8, Header, Section, SectionKind, ShardMeta, ENTRY_LEN, FORMAT_VERSION, HEADER_LEN,
};
use crate::StoreError;
use ic_core::algo::{ExtremumIndex, IndexParts};
use ic_core::Extremum;
use ic_graph::WeightedGraph;
use ic_kcore::{CoreDecomposition, CoreLevel, GraphSnapshot};
use std::path::Path;
use std::sync::Arc;

/// Encoded peel direction of a forest section.
pub(crate) fn dir_code(extremum: Extremum) -> u16 {
    match extremum {
        Extremum::Min => 0,
        Extremum::Max => 1,
    }
}

/// What a store of a snapshot holds beside its graph: the core
/// decomposition, core levels and extremum forests. The one way a
/// snapshot becomes a store.
pub struct WarmState<'a> {
    snap: &'a GraphSnapshot,
    decomp: Arc<CoreDecomposition>,
    levels: Vec<Arc<CoreLevel>>,
    forests: Vec<Arc<ExtremumIndex>>,
}

impl<'a> WarmState<'a> {
    /// The level and both forests (`min`, then `max`) at each `k` of
    /// `ks`, memoized on `snap`.
    pub fn at(snap: &'a GraphSnapshot, ks: &[usize]) -> Self {
        let both = |k| [Extremum::Min, Extremum::Max].map(|d| ExtremumIndex::cached(snap, k, d));
        WarmState {
            snap,
            decomp: snap.decomposition(),
            levels: ks.iter().map(|&k| snap.level(k)).collect(),
            forests: ks.iter().flat_map(|&k| both(k)).collect(),
        }
    }

    /// Whatever `snap` has memoized: what served traffic warmed.
    pub fn memoized(snap: &'a GraphSnapshot) -> Self {
        WarmState {
            snap,
            decomp: snap.decomposition(),
            levels: snap.memoized_levels(),
            forests: ExtremumIndex::memoized(snap),
        }
    }

    /// A builder holding the graph, its weights and all of the above.
    pub fn builder(&self) -> StoreBuilder<'_> {
        let mut builder = StoreBuilder::new(self.snap.weighted());
        builder.decomposition(&self.decomp);
        for level in &self.levels {
            builder.level(level);
        }
        for forest in &self.forests {
            builder.forest(forest.parts());
        }
        builder
    }
}

/// Collects structures to persist and serializes them as one `ICS1`
/// file. See the module docs for the layout.
pub struct StoreBuilder<'a> {
    wg: &'a WeightedGraph,
    decomp: Option<&'a CoreDecomposition>,
    levels: Vec<&'a CoreLevel>,
    forests: Vec<IndexParts<'a>>,
    shard: Option<(ShardMeta, &'a [u32])>,
}

impl<'a> StoreBuilder<'a> {
    /// Starts a store for `wg`. The graph and its weights are always
    /// persisted; everything else is optional.
    pub fn new(wg: &'a WeightedGraph) -> Self {
        StoreBuilder {
            wg,
            decomp: None,
            levels: Vec::new(),
            forests: Vec::new(),
            shard: None,
        }
    }

    /// Marks this store as one shard of a larger logical graph:
    /// persists the shard identity (routing keys + the logical total
    /// weight) and the local→global vertex id map (`id_map[v]` is the
    /// logical id of local vertex `v`; must be strictly increasing and
    /// exactly `n` long).
    pub fn shard(&mut self, meta: ShardMeta, id_map: &'a [u32]) -> &mut Self {
        self.shard = Some((meta, id_map));
        self
    }

    /// Persists the core decomposition (core numbers + peel order), so
    /// the loaded snapshot never re-runs the bucket peel.
    pub fn decomposition(&mut self, decomp: &'a CoreDecomposition) -> &mut Self {
        self.decomp = Some(decomp);
        self
    }

    /// Persists one memoized core level (mask + components).
    pub fn level(&mut self, level: &'a CoreLevel) -> &mut Self {
        self.levels.push(level);
        self
    }

    /// Persists one extremum community forest
    /// (an [`ic_core::algo::ExtremumIndex`], via its
    /// [`parts`](ic_core::algo::ExtremumIndex::parts) view).
    pub fn forest(&mut self, parts: IndexParts<'a>) -> &mut Self {
        self.forests.push(parts);
        self
    }

    /// Serializes the store into an in-memory buffer.
    ///
    /// Fails when two levels share a `k`, two forests share a
    /// `(direction, k)`, or a level/forest describes a different vertex
    /// count than the graph — writing an internally inconsistent store
    /// would defeat the reader's fail-closed contract.
    pub fn to_bytes(&self) -> Result<Vec<u8>, StoreError> {
        Ok(self.to_aligned()?.as_bytes().to_vec())
    }

    /// The serialization work: lays the file out in one aligned buffer
    /// ([`write_to`](Self::write_to) streams it to disk without another
    /// whole-file copy).
    fn to_aligned(&self) -> Result<AlignedBuf, StoreError> {
        let n = self.wg.num_vertices();
        let mut payloads: Vec<(u16, u16, u32, Vec<u8>)> = Vec::new();

        // Graph sections.
        let g = self.wg.graph();
        let (offsets, targets) = g.csr_parts();
        let mut meta = Vec::with_capacity(16);
        meta.extend_from_slice(&(n as u64).to_le_bytes());
        meta.extend_from_slice(&(g.num_edges() as u64).to_le_bytes());
        payloads.push((SectionKind::GraphMeta as u16, 0, 0, meta));
        let offsets64: Vec<u64> = offsets.iter().map(|&o| o as u64).collect();
        payloads.push((
            SectionKind::GraphOffsets as u16,
            0,
            0,
            bytes_of_u64s(&offsets64).to_vec(),
        ));
        payloads.push((
            SectionKind::GraphTargets as u16,
            0,
            0,
            bytes_of_u32s(targets).to_vec(),
        ));
        payloads.push((
            SectionKind::Weights as u16,
            0,
            0,
            bytes_of_f64s(self.wg.weights()).to_vec(),
        ));

        if let Some(decomp) = self.decomp {
            if decomp.core_numbers.len() != n {
                return Err(StoreError::corrupt(
                    "decomposition describes a different vertex count than the graph",
                ));
            }
            payloads.push((
                SectionKind::CoreNumbers as u16,
                0,
                0,
                bytes_of_u32s(&decomp.core_numbers).to_vec(),
            ));
            payloads.push((
                SectionKind::PeelOrder as u16,
                0,
                0,
                bytes_of_u32s(&decomp.peel_order).to_vec(),
            ));
        }

        for level in &self.levels {
            if level.mask.capacity() != n {
                return Err(StoreError::corrupt(format!(
                    "level k={} masks a different vertex count than the graph",
                    level.k
                )));
            }
            let mut comp_offsets: Vec<u32> = Vec::with_capacity(level.components.len() + 1);
            let mut total = 0u32;
            comp_offsets.push(0);
            for c in &level.components {
                total += c.len() as u32;
                comp_offsets.push(total);
            }
            let words = level.mask.words();
            let mut body = Vec::with_capacity(24 + words.len() * 8 + comp_offsets.len() * 4);
            body.extend_from_slice(&(level.components.len() as u64).to_le_bytes());
            body.extend_from_slice(&(words.len() as u64).to_le_bytes());
            body.extend_from_slice(&(total as u64).to_le_bytes());
            body.extend_from_slice(bytes_of_u64s(words));
            body.extend_from_slice(bytes_of_u32s(&comp_offsets));
            for c in &level.components {
                body.extend_from_slice(bytes_of_u32s(c));
            }
            payloads.push((SectionKind::Level as u16, 0, level.k as u32, body));
        }

        for f in &self.forests {
            if f.num_vertices != n {
                return Err(StoreError::corrupt(format!(
                    "forest (k={}, dir={:?}) indexes a different vertex count than the graph",
                    f.k, f.extremum
                )));
            }
            let nodes = f.values.len();
            let mut body = Vec::with_capacity(32 + nodes * 32 + n * 4);
            body.extend_from_slice(&(nodes as u64).to_le_bytes());
            body.extend_from_slice(&(f.batch_vertices.len() as u64).to_le_bytes());
            body.extend_from_slice(&(f.child_ids.len() as u64).to_le_bytes());
            body.extend_from_slice(&(f.num_vertices as u64).to_le_bytes());
            body.extend_from_slice(bytes_of_f64s(f.values));
            body.extend_from_slice(bytes_of_u32s(f.event_vertex));
            body.extend_from_slice(bytes_of_u32s(f.parent));
            body.extend_from_slice(bytes_of_u32s(f.size));
            body.extend_from_slice(bytes_of_u32s(f.batch_offsets));
            body.extend_from_slice(bytes_of_u32s(f.child_offsets));
            body.extend_from_slice(bytes_of_u32s(f.ranked));
            body.extend_from_slice(bytes_of_u32s(f.vertex_node));
            body.extend_from_slice(bytes_of_u32s(f.batch_vertices));
            body.extend_from_slice(bytes_of_u32s(f.child_ids));
            payloads.push((
                SectionKind::Forest as u16,
                dir_code(f.extremum),
                f.k as u32,
                body,
            ));
        }

        if let Some((meta, id_map)) = &self.shard {
            if id_map.len() != n {
                return Err(StoreError::corrupt(
                    "shard id map length disagrees with the vertex count",
                ));
            }
            if id_map.windows(2).any(|w| w[0] >= w[1]) {
                return Err(StoreError::corrupt(
                    "shard id map is not strictly increasing",
                ));
            }
            payloads.push((
                SectionKind::ShardMeta as u16,
                0,
                0,
                bytes_of_u64s(&meta.to_words()).to_vec(),
            ));
            payloads.push((
                SectionKind::ShardIdMap as u16,
                0,
                0,
                bytes_of_u32s(id_map).to_vec(),
            ));
        }

        // Per-section integrity sums, always written last so a mapped
        // open can verify lazily (see `SectionKind::SectionSums`). The
        // payload is a placeholder here — the real hashes are filled in
        // after the final layout below, since they cover padded extents
        // and the table itself.
        let sums_words = payloads.len() + 2; // table hash + every entry incl. this one
        payloads.push((
            SectionKind::SectionSums as u16,
            0,
            0,
            vec![0u8; sums_words * 8],
        ));

        // Reject duplicate (kind, dir, k) identities up front.
        {
            let mut keys: Vec<(u16, u16, u32)> =
                payloads.iter().map(|&(k, d, kk, _)| (k, d, kk)).collect();
            keys.sort_unstable();
            if keys.windows(2).any(|w| w[0] == w[1]) {
                return Err(StoreError::corrupt(
                    "duplicate section identity (two levels or forests with the same key)",
                ));
            }
        }

        // Lay out: header | table | aligned sections.
        let table_end = HEADER_LEN + payloads.len() * ENTRY_LEN;
        let mut cursor = align8(table_end);
        let mut sections: Vec<Section> = Vec::with_capacity(payloads.len());
        for (kind, dir, k, body) in &payloads {
            sections.push(Section {
                kind: *kind,
                dir: *dir,
                k: *k,
                offset: cursor as u64,
                len: body.len() as u64,
            });
            cursor = align8(cursor + body.len());
        }
        let total_len = cursor;

        let mut buf = AlignedBuf::zeroed(total_len);
        {
            let bytes = buf.as_bytes_mut();
            let mut table = Vec::with_capacity(table_end - HEADER_LEN);
            for s in &sections {
                s.encode(&mut table);
            }
            bytes[HEADER_LEN..table_end].copy_from_slice(&table);
            for (s, (_, _, _, body)) in sections.iter().zip(&payloads) {
                let lo = s.offset as usize;
                bytes[lo..lo + body.len()].copy_from_slice(body);
            }
        }

        // Fill the sums section: hash the table, then every other
        // section's padded extent (the sums section's own slot stays
        // zero — its integrity comes from the whole-payload checksum in
        // eager mode, and any flip inside it trips a per-section
        // mismatch in lazy mode).
        let sums_index = sections.len() - 1;
        let table_hash = {
            let words = crate::cast::u64s(&buf.as_bytes()[HEADER_LEN..table_end])
                .expect("8-aligned table (48 + 24·count)");
            crate::format::checksum(words)
        };
        let mut hashes = vec![0u64; sections.len()];
        for (i, s) in sections.iter().enumerate() {
            if i == sums_index {
                continue;
            }
            let lo = s.offset as usize;
            let hi = align8(lo + s.len as usize);
            let words =
                crate::cast::u64s(&buf.as_bytes()[lo..hi]).expect("8-aligned padded extent");
            hashes[i] = crate::format::checksum(words);
        }
        {
            let sums_off = sections[sums_index].offset as usize;
            let bytes = buf.as_bytes_mut();
            bytes[sums_off..sums_off + 8].copy_from_slice(&table_hash.to_le_bytes());
            for (i, h) in hashes.iter().enumerate() {
                let lo = sums_off + 8 + i * 8;
                bytes[lo..lo + 8].copy_from_slice(&h.to_le_bytes());
            }
        }

        let payload_words = crate::cast::u64s(&buf.as_bytes()[HEADER_LEN..])
            .expect("aligned buffer, 8-aligned total length");
        let checksum = crate::format::checksum(payload_words);
        let header = Header {
            version: FORMAT_VERSION,
            total_len: total_len as u64,
            section_count: sections.len() as u32,
            flags: 0,
            checksum,
        };
        let mut head = Vec::with_capacity(HEADER_LEN);
        header.encode(&mut head);
        let bytes = buf.as_bytes_mut();
        bytes[..HEADER_LEN].copy_from_slice(&head);
        Ok(buf)
    }

    /// Serializes and writes the store to `path`, via a sibling
    /// temporary file renamed into place so a crash mid-write never
    /// leaves a half-written store behind.
    pub fn write_to<P: AsRef<Path>>(&self, path: P) -> Result<(), StoreError> {
        let path = path.as_ref();
        let buf = self.to_aligned()?;
        let tmp = path.with_extension("ics1.tmp");
        std::fs::write(&tmp, buf.as_bytes())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}
