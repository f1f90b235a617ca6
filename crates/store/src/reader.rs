//! Opening and loading `ICS1` store files.
//!
//! [`StoreFile::open`] reads the whole file into one 8-byte-aligned
//! buffer; [`StoreFile::open_with`] can instead memory-map it
//! ([`OpenOptions::map`]) so the graph arrays are *borrowed* from the
//! page cache rather than copied. Either way the envelope is
//! validated — magic, version gate, declared vs actual length,
//! reserved fields, section-table bounds — and then integrity is
//! checked by one of two policies:
//!
//! * **eager** (owned buffers, and mapped files without a
//!   [`SectionKind::SectionSums`] section): the whole-payload checksum
//!   is verified up front, exactly as before;
//! * **lazy** (mapped files carrying section sums): the table hash is
//!   verified up front — so kind/offset/len/count flips fail closed
//!   before anything is read — and each section's hash is verified the
//!   first time that section is viewed. Cold start then touches only
//!   the sections a query path actually needs. The only bytes no lazy
//!   check covers are the 8 header checksum bytes `[24..32)`, which
//!   are pure redundancy in this mode.
//!
//! The two adjacency sections get the same treatment one level up:
//! [`StoreFile::load_deferred`] materializes everything else — verified
//! as [`StoreFile::load`] verifies it — but leaves the
//! `GraphOffsets`/`GraphTargets` hashes and the `O(m)` CSR structure
//! check as a debt the snapshot carries until something is about to
//! read adjacency. `load` pays it at once.
//!
//! Sections are viewed in place as their element types — zero-parse —
//! and the graph arrays are adopted as [`SharedSlice`]s that keep the
//! backing buffer or mapping alive ([`Graph::from_csr_shared`],
//! [`WeightedGraph::from_shared`]), so [`StoreFile::load`] performs no
//! bulk copy of CSR offsets, targets, or weights. Corruption at any
//! layer returns a typed [`StoreError`]; nothing on this path panics
//! or silently degrades.

use crate::cast::{f64s, u32s, u64s, usizes, AlignedBuf};
use crate::format::{align8, Header, Section, SectionKind, ShardMeta, ENTRY_LEN, HEADER_LEN};
use crate::StoreError;
use ic_core::algo::ExtremumIndex;
use ic_core::Extremum;
use ic_graph::{BitSet, Graph, WeightedGraph};
use ic_kcore::{CoreDecomposition, CoreLevel, GraphSnapshot};
use ic_mem::{MapError, Mmap, SharedSlice};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How to open a store file: memory-map it, or copy it into an owned
/// buffer. Either way a transient I/O failure of the read is retried:
/// three tries in all, 1 ms apart and then 2 ms.
#[derive(Clone, Debug, Default)]
pub struct OpenOptions {
    /// Memory-map the file instead of reading it into an owned buffer.
    /// Falls back to the owned read when the platform cannot map (or
    /// the file is empty — which then fails header validation with the
    /// same typed error either way).
    pub map: bool,
}

impl OpenOptions {
    /// Memory-mapped backing (the default is the owned buffer).
    pub fn mapped() -> Self {
        OpenOptions { map: true }
    }
}

/// Total tries of a store read that fails with a transient I/O error.
const OPEN_ATTEMPTS: u32 = 3;

/// The pause before the second try; it doubles before each later one.
const OPEN_BACKOFF: Duration = Duration::from_millis(1);

/// The storage a validated store file serves from: an owned aligned
/// buffer or a read-only file mapping. Both are `Arc`-shared so graph
/// slices can borrow them beyond the `StoreFile`'s lifetime.
#[derive(Clone)]
enum Backing {
    Owned(Arc<AlignedBuf>),
    Mapped(Arc<Mmap>),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            Backing::Owned(buf) => buf.as_bytes(),
            Backing::Mapped(map) => map.as_bytes(),
        }
    }

    /// Projects `[lo..hi)` of the backing as a typed shared slice,
    /// re-checking alignment/divisibility through the audited cast.
    fn shared_view<T: Send + Sync + 'static>(
        &self,
        lo: usize,
        hi: usize,
        cast: fn(&[u8]) -> Option<&[T]>,
    ) -> Option<SharedSlice<T>> {
        cast(&self.bytes()[lo..hi])?;
        Some(match self {
            Backing::Owned(buf) => SharedSlice::project_arc(Arc::clone(buf), move |b| {
                cast(&b.as_bytes()[lo..hi]).expect("validated just above")
            }),
            Backing::Mapped(map) => SharedSlice::project_arc(Arc::clone(map), move |m| {
                cast(&m.as_bytes()[lo..hi]).expect("validated just above")
            }),
        })
    }
}

/// Which integrity policy the open chose (see the module docs).
/// `Arc`-shared with the `OwedAdjacency` a deferred load hands out, so a
/// section verified by either is verified for both.
enum VerifyState {
    /// Whole-payload checksum verified at open.
    Eager,
    /// Per-section sums: section `i` is verified against `hashes[i]`
    /// on first view. `sums_index` is the sums section itself (its
    /// slot is zero by construction and never compared).
    Lazy {
        hashes: Vec<u64>,
        verified: Vec<AtomicBool>,
        sums_index: usize,
        tally: Mutex<SectionTally>,
    },
}

/// How many sections a lazily verified file has hashed: kept here until
/// [`StoreFile::report_open`] names the counter that takes over, so the
/// sections an owed adjacency check verifies later are counted with the
/// ones verified during the load.
enum SectionTally {
    Unreported(u64),
    Reported(ic_obs::Counter),
}

/// A validated `ICS1` file: the envelope has been checked and sections
/// can be viewed zero-copy or materialized with [`StoreFile::load`].
pub struct StoreFile {
    backing: Backing,
    header: Header,
    sections: Vec<Section>,
    verify: Arc<VerifyState>,
    /// Transient read failures [`StoreFile::open_with`] retried past.
    retries: u32,
}

impl std::fmt::Debug for StoreFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreFile")
            .field("bytes", &self.backing.bytes().len())
            .field("backing", &self.backing_kind())
            .field("lazy", &self.is_lazy_verified())
            .field("header", &self.header)
            .field("sections", &self.sections.len())
            .finish()
    }
}

/// Everything a store file materializes into: the serving state
/// [`Engine::open`](../../ic_engine/struct.Engine.html#method.open)
/// warm-starts from.
pub struct StoreContents {
    /// The persisted weighted graph (its CSR arrays and weights borrow
    /// the store's buffer or mapping zero-copy).
    pub weighted: WeightedGraph,
    /// The persisted core decomposition, when the store carries one.
    pub decomposition: Option<CoreDecomposition>,
    /// Persisted per-`k` core levels.
    pub levels: Vec<CoreLevel>,
    /// Persisted extremum community forests.
    pub forests: Vec<ExtremumIndex>,
    /// Shard identity, when this store is one partition of a larger
    /// logical graph.
    pub shard: Option<ShardContents>,
    /// The adjacency check [`StoreFile::load_deferred`] left unpaid
    /// (`None` after [`StoreFile::load`] and for eagerly verified files).
    owed: Option<OwedAdjacency>,
}

/// What [`StoreFile::load_deferred`] did not verify about a lazily
/// verified store: the `GraphOffsets` and `GraphTargets` section hashes
/// and the graph's `O(n + m)` CSR structure check. Everything else is
/// verified before the contents exist.
struct OwedAdjacency {
    store: StoreFile,
    sections: [usize; 2],
    graph: Graph,
}

impl OwedAdjacency {
    /// Runs the owed verification: both section hashes (once per file,
    /// like any lazily verified section), then the one structural check
    /// [`Graph::check_adjacency`].
    fn discharge(&self) -> Result<(), StoreError> {
        for &i in &self.sections {
            self.store.section_bytes_at(i)?;
        }
        Ok(self.graph.check_adjacency()?)
    }
}

/// The shard-specific sections of a store, materialized.
pub struct ShardContents {
    /// Routing identity and the logical graph's totals.
    pub meta: ShardMeta,
    /// Local→global vertex id map (strictly increasing, length `n`).
    pub id_map: SharedSlice<u32>,
}

impl StoreContents {
    /// Builds a [`GraphSnapshot`] seeded with everything the store
    /// carried: decomposition, levels, and forests all land in the
    /// snapshot's memo caches, so the first query pays nothing that was
    /// precomputed. This is the cold-start entry point the engine wraps.
    ///
    /// Contents from [`StoreFile::load_deferred`] hand their unpaid
    /// adjacency check to the snapshot
    /// ([`GraphSnapshot::owing_adjacency_check`]): it runs on the first
    /// [`GraphSnapshot::ensure_adjacency`], which the engine calls before
    /// anything reads adjacency. Contents from [`StoreFile::load`] owe
    /// nothing.
    pub fn into_snapshot(self) -> GraphSnapshot {
        let wg = Arc::new(self.weighted);
        let mut snap = match self.decomposition {
            Some(decomp) => GraphSnapshot::with_decomposition(wg, decomp),
            None => GraphSnapshot::from_arc(wg),
        };
        if let Some(owed) = self.owed {
            snap = snap.owing_adjacency_check(move || owed.discharge().map_err(|e| e.to_string()));
        }
        for level in self.levels {
            snap.seed_level(level);
        }
        for forest in self.forests {
            ExtremumIndex::seed(&snap, forest);
        }
        snap
    }
}

/// I/O error kinds worth a bounded retry on the cold-start read path:
/// scheduling/network-filesystem transients that routinely succeed on a
/// second attempt. Everything else — and *any* corruption — fails
/// closed immediately: retrying a checksum mismatch cannot make the
/// bytes honest.
fn is_transient(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// Runs `once` until it succeeds, fails with anything but a transient
/// I/O error, or has been tried `OPEN_ATTEMPTS` times; returns its
/// last result and, on success, how many retries it took.
fn retrying<T>(mut once: impl FnMut() -> Result<T, StoreError>) -> Result<(T, u32), StoreError> {
    let mut attempt = 0u32;
    loop {
        match once() {
            Err(StoreError::Io(e)) if is_transient(e.kind()) && attempt + 1 < OPEN_ATTEMPTS => {
                std::thread::sleep(OPEN_BACKOFF * (1 << attempt));
                attempt += 1;
            }
            other => return other.map(|value| (value, attempt)),
        }
    }
}

impl StoreFile {
    /// Opens and validates a store file into one owned buffer, with
    /// eager checksum verification. A transient I/O failure
    /// (interrupted / would-block / timed-out) is retried up to three
    /// tries in all; persistent I/O errors and
    /// corruption are returned typed on the first observation.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<StoreFile, StoreError> {
        Self::open_with(path, &OpenOptions::default())
    }

    /// [`open`](Self::open) with an explicit backing choice.
    pub fn open_with<P: AsRef<Path>>(
        path: P,
        options: &OpenOptions,
    ) -> Result<StoreFile, StoreError> {
        let path = path.as_ref();
        let (store, retries) = retrying(|| Self::open_once(path, options.map))?;
        Ok(StoreFile { retries, ..store })
    }

    /// Publishes this open on `registry`: `store.opens`,
    /// `store.open_retries` if there were any, and for a lazily verified
    /// file `store.lazy_opens` and `store.lazy_verified_sections` — the
    /// last keeps counting there as later first views (the owed
    /// adjacency check's) verify more sections. Whoever serves from the
    /// opened state calls it once with the registry its `STATS` read:
    /// `Engine::open` with the engine's, `ShardedEngine::open_dir` with
    /// the front's.
    pub fn report_open(&self, registry: &ic_obs::Registry) {
        registry.counter("store.opens").inc();
        if self.retries > 0 {
            let retries = registry.counter("store.open_retries");
            retries.add(u64::from(self.retries));
        }
        if let VerifyState::Lazy { tally, .. } = &*self.verify {
            registry.counter("store.lazy_opens").inc();
            let sections = registry.counter("store.lazy_verified_sections");
            let mut tally = tally.lock().expect("section tally poisoned");
            if let SectionTally::Unreported(n) = *tally {
                sections.add(n);
            }
            *tally = SectionTally::Reported(sections);
        }
    }

    fn open_once(path: &Path, map: bool) -> Result<StoreFile, StoreError> {
        ic_fail::fail_point!("store::read_io", |p: String| Err(StoreError::Io(
            std::io::Error::new(std::io::ErrorKind::TimedOut, p)
        )));
        let mut file = std::fs::File::open(path)?;
        if map {
            match Mmap::map_readonly(&file) {
                Ok(mapping) => {
                    return Self::validate(Backing::Mapped(Arc::new(mapping)), true);
                }
                // Empty or unmappable files fall back to the owned
                // read below (an empty file then fails the header
                // check with the same typed error either way).
                Err(MapError::Empty) | Err(MapError::Unsupported) => {}
                Err(MapError::Io(e)) => return Err(StoreError::Io(e)),
            }
        }
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| StoreError::corrupt("file too large for this address space"))?;
        let buf = AlignedBuf::read_exact_from(&mut file, len)?;
        Self::validate(Backing::Owned(Arc::new(buf)), false)
    }

    /// Validates an in-memory store image (copies into an aligned
    /// buffer). Used by tests and network/byte-slice callers.
    pub fn from_bytes(bytes: &[u8]) -> Result<StoreFile, StoreError> {
        Self::validate(
            Backing::Owned(Arc::new(AlignedBuf::from_bytes(bytes))),
            false,
        )
    }

    fn validate(backing: Backing, lazy: bool) -> Result<StoreFile, StoreError> {
        let bytes = backing.bytes();
        let header = Header::decode(bytes)?;
        if header.total_len != bytes.len() as u64 {
            return Err(StoreError::corrupt(format!(
                "declared length {} does not match the {} bytes present (truncated or padded file)",
                header.total_len,
                bytes.len()
            )));
        }
        if !bytes.len().is_multiple_of(8) {
            return Err(StoreError::corrupt("file length is not 8-aligned"));
        }
        let count = header.section_count as usize;
        let table_end = HEADER_LEN + count * ENTRY_LEN;
        if table_end > bytes.len() {
            return Err(StoreError::corrupt(format!(
                "section table ({count} entries) exceeds the file"
            )));
        }
        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let lo = HEADER_LEN + i * ENTRY_LEN;
            let s = Section::decode(&bytes[lo..lo + ENTRY_LEN]);
            if !s.offset.is_multiple_of(8) {
                return Err(StoreError::corrupt(format!(
                    "section {i} starts at unaligned offset {}",
                    s.offset
                )));
            }
            let end = s
                .offset
                .checked_add(s.len)
                .ok_or_else(|| StoreError::corrupt("section extent overflows"))?;
            if (s.offset as usize) < table_end || end > bytes.len() as u64 {
                return Err(StoreError::corrupt(format!(
                    "section {i} [{}..{end}) lies outside the payload",
                    s.offset
                )));
            }
            sections.push(s);
        }

        let verify = match Self::lazy_state(bytes, &sections, table_end, lazy)? {
            Some(state) => state,
            None => {
                // Eager: verify the whole payload now (the mapped
                // fallback pages the entire file in once — correctness
                // over cold-start speed when sums are absent).
                let payload =
                    u64s(&bytes[HEADER_LEN..]).expect("aligned backing, aligned header length");
                let actual = crate::format::checksum(payload);
                if actual != header.checksum {
                    return Err(StoreError::corrupt(format!(
                        "checksum mismatch: header says {:#018x}, payload hashes to {actual:#018x}",
                        header.checksum
                    )));
                }
                VerifyState::Eager
            }
        };

        Ok(StoreFile {
            backing,
            header,
            sections,
            verify: Arc::new(verify),
            retries: 0,
        })
    }

    /// Another handle on the same validated file (`Arc` bumps and a copy
    /// of the small section table).
    fn share(&self) -> StoreFile {
        StoreFile {
            backing: self.backing.clone(),
            header: self.header,
            sections: self.sections.clone(),
            verify: Arc::clone(&self.verify),
            retries: self.retries,
        }
    }

    /// Builds the lazy verification state when requested and possible:
    /// requires a unique, well-formed sums section whose table hash
    /// matches the table bytes. Returns `Ok(None)` to fall back to
    /// eager verification (no sums section, or `lazy` not requested);
    /// a *malformed or mismatching* sums section is corruption.
    fn lazy_state(
        bytes: &[u8],
        sections: &[Section],
        table_end: usize,
        lazy: bool,
    ) -> Result<Option<VerifyState>, StoreError> {
        if !lazy {
            return Ok(None);
        }
        let mut sums_index = None;
        for (i, s) in sections.iter().enumerate() {
            if s.known_kind() == Some(SectionKind::SectionSums) {
                if sums_index.is_some() {
                    return Err(StoreError::corrupt("duplicate section-sums section"));
                }
                sums_index = Some(i);
            }
        }
        let Some(sums_index) = sums_index else {
            return Ok(None);
        };
        let s = &sections[sums_index];
        let expect_len = (sections.len() + 1) * 8;
        if s.len as usize != expect_len {
            return Err(StoreError::corrupt(format!(
                "section-sums holds {} bytes, expected {expect_len} for {} sections",
                s.len,
                sections.len()
            )));
        }
        let lo = s.offset as usize;
        let words = u64s(&bytes[lo..lo + expect_len]).expect("8-aligned section");
        let table_hash = {
            let table = u64s(&bytes[HEADER_LEN..table_end]).expect("8-aligned table");
            crate::format::checksum(table)
        };
        if words[0] != table_hash {
            return Err(StoreError::corrupt(
                "section table disagrees with its integrity hash",
            ));
        }
        let hashes = words[1..].to_vec();
        let verified = (0..sections.len())
            .map(|_| AtomicBool::new(false))
            .collect();
        Ok(Some(VerifyState::Lazy {
            hashes,
            verified,
            sums_index,
            tally: Mutex::new(SectionTally::Unreported(0)),
        }))
    }

    /// The validated header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The decoded section table (unknown kinds included, for
    /// `inspect`).
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> usize {
        self.backing.bytes().len()
    }

    /// `"mapped"` when serving from a file mapping, `"owned"` from a
    /// copied buffer.
    pub fn backing_kind(&self) -> &'static str {
        match self.backing {
            Backing::Owned(_) => "owned",
            Backing::Mapped(_) => "mapped",
        }
    }

    /// Whether integrity is verified lazily per section (mapped open
    /// of a store carrying section sums) rather than eagerly over the
    /// whole payload.
    pub fn is_lazy_verified(&self) -> bool {
        matches!(*self.verify, VerifyState::Lazy { .. })
    }

    /// Whether the file carries a per-section integrity sums section
    /// (written by this version's builder; enables lazy mapped opens).
    pub fn has_section_sums(&self) -> bool {
        self.sections
            .iter()
            .any(|s| s.known_kind() == Some(SectionKind::SectionSums))
    }

    /// The section's payload bytes, integrity-checked first when in
    /// lazy mode (first view verifies the section's hash; races just
    /// re-verify idempotently).
    fn section_bytes_at(&self, i: usize) -> Result<&[u8], StoreError> {
        let s = &self.sections[i];
        let bytes = self.backing.bytes();
        if let VerifyState::Lazy {
            hashes,
            verified,
            sums_index,
            tally,
        } = &*self.verify
        {
            if i != *sums_index && !verified[i].load(Ordering::Acquire) {
                let lo = s.offset as usize;
                let hi = align8(lo + s.len as usize);
                let words = u64s(&bytes[lo..hi]).expect("8-aligned padded extent");
                let actual = crate::format::checksum(words);
                if actual != hashes[i] {
                    return Err(StoreError::corrupt(format!(
                        "{} section failed its integrity hash \
                         (expected {:#018x}, got {actual:#018x})",
                        s.known_kind().map_or("unknown", |k| k.name()),
                        hashes[i]
                    )));
                }
                verified[i].store(true, Ordering::Release);
                match &mut *tally.lock().expect("section tally poisoned") {
                    SectionTally::Unreported(n) => *n += 1,
                    SectionTally::Reported(counter) => counter.inc(),
                }
            }
        }
        Ok(&bytes[s.offset as usize..(s.offset + s.len) as usize])
    }

    fn find_unique(&self, kind: SectionKind) -> Result<Option<usize>, StoreError> {
        let mut found = None;
        for (i, s) in self.sections.iter().enumerate() {
            if s.known_kind() == Some(kind) {
                if found.is_some() {
                    return Err(StoreError::corrupt(format!(
                        "duplicate {} section",
                        kind.name()
                    )));
                }
                found = Some(i);
            }
        }
        Ok(found)
    }

    fn require(&self, kind: SectionKind) -> Result<usize, StoreError> {
        self.find_unique(kind)?
            .ok_or(StoreError::Missing { what: kind.name() })
    }

    fn view_u32(&self, i: usize, what: &str) -> Result<&[u32], StoreError> {
        u32s(self.section_bytes_at(i)?)
            .ok_or_else(|| StoreError::corrupt(format!("{what} section is not a u32 array")))
    }

    /// The section viewed as a typed [`SharedSlice`] borrowing the
    /// store's backing (verified first in lazy mode).
    fn shared_section<T: Send + Sync + 'static>(
        &self,
        i: usize,
        cast: fn(&[u8]) -> Option<&[T]>,
        what: &str,
    ) -> Result<SharedSlice<T>, StoreError> {
        self.section_bytes_at(i)?;
        self.shared_section_unverified(i, cast, what)
    }

    /// [`shared_section`](Self::shared_section) without the lazy hash
    /// check: only for the adjacency sections, whose check is handed out
    /// as an `OwedAdjacency` instead.
    fn shared_section_unverified<T: Send + Sync + 'static>(
        &self,
        i: usize,
        cast: fn(&[u8]) -> Option<&[T]>,
        what: &str,
    ) -> Result<SharedSlice<T>, StoreError> {
        let s = &self.sections[i];
        let lo = s.offset as usize;
        self.backing
            .shared_view(lo, lo + s.len as usize, cast)
            .ok_or_else(|| {
                StoreError::corrupt(format!("{what} section is not a typed array of that width"))
            })
    }

    /// Declared `(n, m)` of the persisted graph.
    pub fn graph_meta(&self) -> Result<(usize, usize), StoreError> {
        let i = self.require(SectionKind::GraphMeta)?;
        let words = u64s(self.section_bytes_at(i)?)
            .filter(|w| w.len() == 2)
            .ok_or_else(|| StoreError::corrupt("graph-meta section is not two u64s"))?;
        Ok((words[0] as usize, words[1] as usize))
    }

    /// Shard identity, if this store is a shard of a logical graph.
    pub fn shard_meta(&self) -> Result<Option<ShardMeta>, StoreError> {
        let Some(i) = self.find_unique(SectionKind::ShardMeta)? else {
            return Ok(None);
        };
        let words = u64s(self.section_bytes_at(i)?)
            .filter(|w| w.len() == ShardMeta::WORDS)
            .ok_or_else(|| {
                StoreError::corrupt(format!(
                    "shard-meta section is not {} u64s",
                    ShardMeta::WORDS
                ))
            })?;
        let meta = ShardMeta::from_words(words).expect("length checked");
        if !meta.total_weight().is_finite() || meta.total_weight() < 0.0 {
            return Err(StoreError::corrupt(
                "shard-meta total weight is not a finite non-negative value",
            ));
        }
        if meta.num_shards == 0 || meta.shard_index >= meta.num_shards {
            return Err(StoreError::corrupt(format!(
                "shard-meta index {} out of range for {} shards",
                meta.shard_index, meta.num_shards
            )));
        }
        Ok(Some(meta))
    }

    /// The shard's local→global vertex id map, if present (validated
    /// strictly increasing and matching the vertex count).
    pub fn shard_id_map(&self) -> Result<Option<SharedSlice<u32>>, StoreError> {
        let Some(i) = self.find_unique(SectionKind::ShardIdMap)? else {
            return Ok(None);
        };
        let (n, _) = self.graph_meta()?;
        let map = self.shared_section::<u32>(i, u32s, "shard-id-map")?;
        if map.len() != n {
            return Err(StoreError::corrupt(format!(
                "shard-id-map has {} entries, expected n = {n}",
                map.len()
            )));
        }
        if map.windows(2).any(|w| w[0] >= w[1]) {
            return Err(StoreError::corrupt(
                "shard-id-map is not strictly increasing",
            ));
        }
        Ok(Some(map))
    }

    /// Materializes the persisted weighted graph. The CSR arrays and
    /// weights *borrow* the store's buffer or mapping ([`SharedSlice`]
    /// adoption — no bulk copy); full structural validation still runs,
    /// here and now: this is the deferred materialization behind
    /// [`load_deferred`](Self::load_deferred) with the adjacency debt
    /// paid at once. A shard store's graph reports the logical graph's
    /// total weight.
    pub fn graph(&self) -> Result<WeightedGraph, StoreError> {
        let (wg, owed) = self.graph_deferred()?;
        owed.discharge()?;
        Ok(wg)
    }

    /// The persisted weighted graph with everything verified except its
    /// adjacency: array arities (`n + 1` offsets, `2m` targets, `n`
    /// weights), the weights section hash, every weight finite and
    /// non-negative, and the total are checked now; the two adjacency
    /// section hashes and the CSR structure check come back as the debt
    /// to discharge before adjacency is read.
    fn graph_deferred(&self) -> Result<(WeightedGraph, OwedAdjacency), StoreError> {
        let (n, m) = self.graph_meta()?;
        let sections = [
            self.require(SectionKind::GraphOffsets)?,
            self.require(SectionKind::GraphTargets)?,
        ];
        let offsets =
            self.shared_section_unverified::<usize>(sections[0], usizes, "graph-offsets")?;
        if offsets.len() != n + 1 {
            return Err(StoreError::corrupt(format!(
                "graph-offsets has {} entries, expected n + 1 = {}",
                offsets.len(),
                n + 1
            )));
        }
        let targets = self.shared_section_unverified::<u32>(sections[1], u32s, "graph-targets")?;
        if targets.len() != 2 * m {
            return Err(StoreError::corrupt(format!(
                "graph-targets has {} entries, expected 2m = {}",
                targets.len(),
                2 * m
            )));
        }
        let graph = Graph::from_csr_deferred(offsets, targets)?;
        let owed = OwedAdjacency {
            store: self.share(),
            sections,
            graph: graph.clone(),
        };
        let weights =
            self.shared_section::<f64>(self.require(SectionKind::Weights)?, f64s, "weights")?;
        if weights.len() != n {
            return Err(StoreError::corrupt(format!(
                "weights section has {} entries, expected n = {n}",
                weights.len()
            )));
        }
        let wg = WeightedGraph::from_shared(graph, weights)?;
        let wg = match self.shard_meta()? {
            Some(meta) => wg.with_total_weight(meta.total_weight())?,
            None => wg,
        };
        Ok((wg, owed))
    }

    /// Materializes the persisted core decomposition, if present.
    /// `n` is the graph's vertex count (cross-checked).
    pub fn decomposition(&self, n: usize) -> Result<Option<CoreDecomposition>, StoreError> {
        let Some(cn) = self.find_unique(SectionKind::CoreNumbers)? else {
            return Ok(None);
        };
        let core_numbers = self.view_u32(cn, "core-numbers")?;
        let order = self.require(SectionKind::PeelOrder)?;
        let peel_order = self.view_u32(order, "peel-order")?;
        if core_numbers.len() != n || peel_order.len() != n {
            return Err(StoreError::corrupt(
                "decomposition arrays do not match the vertex count",
            ));
        }
        let mut seen = vec![false; n];
        for &v in peel_order {
            if v as usize >= n || std::mem::replace(&mut seen[v as usize], true) {
                return Err(StoreError::corrupt(
                    "peel order is not a permutation of the vertices",
                ));
            }
        }
        let max_core = core_numbers.iter().copied().max().unwrap_or(0);
        Ok(Some(CoreDecomposition {
            core_numbers: core_numbers.to_vec(),
            max_core,
            peel_order: peel_order.to_vec(),
        }))
    }

    /// Materializes every persisted core level. `n` is the graph's
    /// vertex count (cross-checked against each mask).
    pub fn levels(&self, n: usize) -> Result<Vec<CoreLevel>, StoreError> {
        let mut out = Vec::new();
        for (i, s) in self.sections.iter().enumerate() {
            if s.known_kind() != Some(SectionKind::Level) {
                continue;
            }
            let bytes = self.section_bytes_at(i)?;
            let head = u64s(bytes.get(..24).unwrap_or_default())
                .filter(|w| w.len() == 3)
                .ok_or_else(|| StoreError::corrupt("level section header truncated"))?;
            let (num_components, mask_words, vertices_total) =
                (head[0] as usize, head[1] as usize, head[2] as usize);
            // All three counts are file-controlled: checked arithmetic
            // only, so a crafted section fails closed instead of
            // overflowing (mirrors the forest parser below).
            let extents = (|| {
                let mask_end = 24usize.checked_add(mask_words.checked_mul(8)?)?;
                let offsets_end =
                    mask_end.checked_add(num_components.checked_add(1)?.checked_mul(4)?)?;
                let vertices_end = offsets_end.checked_add(vertices_total.checked_mul(4)?)?;
                Some((mask_end, offsets_end, vertices_end))
            })();
            let Some((mask_end, offsets_end, vertices_end)) = extents else {
                return Err(StoreError::corrupt(format!(
                    "level k={} counts overflow",
                    s.k
                )));
            };
            if bytes.len() != vertices_end {
                return Err(StoreError::corrupt(format!(
                    "level k={} section length disagrees with its counts",
                    s.k
                )));
            }
            let words = u64s(&bytes[24..mask_end]).expect("8-aligned interior");
            let mask = BitSet::from_words(words.to_vec(), n).ok_or_else(|| {
                StoreError::corrupt(format!(
                    "level k={} mask does not fit the vertex count",
                    s.k
                ))
            })?;
            let comp_offsets = u32s(&bytes[mask_end..offsets_end]).expect("4-aligned interior");
            let vertices = u32s(&bytes[offsets_end..vertices_end]).expect("4-aligned interior");
            if comp_offsets.first() != Some(&0)
                || comp_offsets.windows(2).any(|w| w[0] > w[1])
                || *comp_offsets.last().expect("num_components + 1 >= 1") as usize != vertices.len()
            {
                return Err(StoreError::corrupt(format!(
                    "level k={} component offsets are inconsistent",
                    s.k
                )));
            }
            if vertices.len() != mask.count() {
                return Err(StoreError::corrupt(format!(
                    "level k={} components do not partition its mask",
                    s.k
                )));
            }
            let mut components = Vec::with_capacity(num_components);
            for w in comp_offsets.windows(2) {
                let comp = &vertices[w[0] as usize..w[1] as usize];
                if comp.windows(2).any(|p| p[0] >= p[1])
                    || comp.iter().any(|&v| !mask.contains(v as usize))
                {
                    return Err(StoreError::corrupt(format!(
                        "level k={} has an unsorted or out-of-mask component",
                        s.k
                    )));
                }
                components.push(comp.to_vec());
            }
            out.push(CoreLevel {
                k: s.k as usize,
                mask,
                components,
            });
        }
        out.sort_by_key(|l| l.k);
        Ok(out)
    }

    /// Materializes every persisted forest (full structural validation
    /// via [`ExtremumIndex::from_parts`]). `n` is the graph's vertex
    /// count (cross-checked).
    pub fn forests(&self, n: usize) -> Result<Vec<ExtremumIndex>, StoreError> {
        let mut out = Vec::new();
        for (i, s) in self.sections.iter().enumerate() {
            if s.known_kind() != Some(SectionKind::Forest) {
                continue;
            }
            let bytes = self.section_bytes_at(i)?;
            let head = u64s(bytes.get(..32).unwrap_or_default())
                .filter(|w| w.len() == 4)
                .ok_or_else(|| StoreError::corrupt("forest section header truncated"))?;
            let (nodes, batch_total, child_total, num_vertices) = (
                head[0] as usize,
                head[1] as usize,
                head[2] as usize,
                head[3] as usize,
            );
            if num_vertices != n {
                return Err(StoreError::corrupt(format!(
                    "forest k={} indexes {num_vertices} vertices but the graph has {n}",
                    s.k
                )));
            }
            let extremum = match s.dir {
                0 => Extremum::Min,
                1 => Extremum::Max,
                other => {
                    return Err(StoreError::corrupt(format!(
                        "forest k={} has unknown peel direction {other}",
                        s.k
                    )))
                }
            };
            // Array extents, in the fixed writer order.
            let mut cursor = 32usize;
            let mut take =
                |elems: usize, width: usize| -> Result<(usize, usize), StoreError> {
                    let lo = cursor;
                    let hi =
                        lo.checked_add(elems.checked_mul(width).ok_or_else(|| {
                            StoreError::corrupt("forest section counts overflow")
                        })?)
                        .ok_or_else(|| StoreError::corrupt("forest section counts overflow"))?;
                    if hi > bytes.len() {
                        return Err(StoreError::corrupt(format!(
                            "forest k={} section shorter than its declared counts",
                            s.k
                        )));
                    }
                    cursor = hi;
                    Ok((lo, hi))
                };
            let values_r = take(nodes, 8)?;
            let event_r = take(nodes, 4)?;
            let parent_r = take(nodes, 4)?;
            let size_r = take(nodes, 4)?;
            let boff_r = take(nodes + 1, 4)?;
            let coff_r = take(nodes + 1, 4)?;
            let ranked_r = take(nodes, 4)?;
            let vnode_r = take(num_vertices, 4)?;
            let batch_r = take(batch_total, 4)?;
            let child_r = take(child_total, 4)?;
            if cursor != bytes.len() {
                return Err(StoreError::corrupt(format!(
                    "forest k={} section length disagrees with its counts",
                    s.k
                )));
            }
            let view32 = |r: (usize, usize)| -> &[u32] {
                u32s(&bytes[r.0..r.1]).expect("4-aligned interior")
            };
            let values = f64s(&bytes[values_r.0..values_r.1]).expect("8-aligned interior");
            let index = ExtremumIndex::from_parts(
                s.k as usize,
                extremum,
                num_vertices,
                values.to_vec(),
                view32(event_r).to_vec(),
                view32(parent_r).to_vec(),
                view32(size_r).to_vec(),
                view32(boff_r).to_vec(),
                view32(batch_r).to_vec(),
                view32(coff_r).to_vec(),
                view32(child_r).to_vec(),
                view32(ranked_r).to_vec(),
                view32(vnode_r).to_vec(),
            )
            .map_err(|msg| StoreError::corrupt(format!("forest k={}: {msg}", s.k)))?;
            out.push(index);
        }
        out.sort_by_key(|f| (f.k(), f.extremum() == Extremum::Max));
        Ok(out)
    }

    /// Materializes everything the store carries, every check run:
    /// [`load_deferred`](Self::load_deferred) with the adjacency debt
    /// paid at once, so the contents owe nothing. `verify_deep` and the
    /// `ic-store` CLI go through here.
    pub fn load(&self) -> Result<StoreContents, StoreError> {
        let mut contents = self.load_deferred()?;
        if let Some(owed) = contents.owed.take() {
            owed.discharge()?;
        }
        Ok(contents)
    }

    /// [`load`](Self::load) for a reader that may never touch adjacency
    /// (`Engine::open*`, `ShardedEngine::open_dir*`). On a lazily
    /// verified mapped store the `GraphOffsets`/`GraphTargets` hashes and
    /// the CSR structure check stay owed — the contents carry them into
    /// [`StoreContents::into_snapshot`] — while everything else is
    /// verified exactly as `load` verifies it. An eagerly verified file
    /// (owned buffer, or no section sums) pays at once: identical to
    /// `load`.
    pub fn load_deferred(&self) -> Result<StoreContents, StoreError> {
        let (weighted, owed) = self.graph_deferred()?;
        let owed = if self.is_lazy_verified() {
            Some(owed)
        } else {
            owed.discharge()?;
            None
        };
        let n = weighted.num_vertices();
        let shard = match (self.shard_meta()?, self.shard_id_map()?) {
            (Some(meta), Some(id_map)) => Some(ShardContents { meta, id_map }),
            (None, None) => None,
            _ => {
                return Err(StoreError::corrupt(
                    "shard-meta and shard-id-map sections must appear together",
                ))
            }
        };
        Ok(StoreContents {
            decomposition: self.decomposition(n)?,
            levels: self.levels(n)?,
            forests: self.forests(n)?,
            shard,
            weighted,
            owed,
        })
    }

    /// Defense-in-depth verification beyond the envelope checks:
    /// re-derives every persisted structure from the persisted graph and
    /// compares — the decomposition against a fresh bucket peel, each
    /// level against a fresh mask/component extraction, each forest
    /// against a fresh build. `O(n + m)` per structure; this is what
    /// `ic-store verify` runs.
    pub fn verify_deep(&self) -> Result<(), StoreError> {
        let contents = self.load()?;
        let wg = &contents.weighted;
        if let Some(decomp) = &contents.decomposition {
            let fresh = ic_kcore::core_decomposition(wg.graph());
            if fresh.core_numbers != decomp.core_numbers || fresh.max_core != decomp.max_core {
                return Err(StoreError::corrupt(
                    "persisted decomposition disagrees with a fresh bucket peel",
                ));
            }
            let mut seen: Vec<bool> = vec![false; wg.num_vertices()];
            for &v in &decomp.peel_order {
                seen[v as usize] = true;
            }
            if seen.iter().any(|&s| !s) {
                return Err(StoreError::corrupt("peel order misses vertices"));
            }
        }
        for level in &contents.levels {
            let mask = ic_kcore::kcore_mask(wg.graph(), level.k);
            if mask != level.mask {
                return Err(StoreError::corrupt(format!(
                    "persisted level k={} mask disagrees with a fresh extraction",
                    level.k
                )));
            }
            let components = ic_graph::connected_components_within(wg.graph(), &mask);
            if components != level.components {
                return Err(StoreError::corrupt(format!(
                    "persisted level k={} components disagree with a fresh extraction",
                    level.k
                )));
            }
        }
        for forest in &contents.forests {
            let fresh = ExtremumIndex::build(wg, forest.k(), forest.extremum());
            if &fresh != forest {
                return Err(StoreError::corrupt(format!(
                    "persisted forest (k={}, {:?}) disagrees with a fresh build",
                    forest.k(),
                    forest.extremum()
                )));
            }
        }
        Ok(())
    }
}

/// Convenience: persists a bare weighted graph (no derived structures)
/// — the successor of the old `ICG1` generated-graph cache, now sharing
/// one format with full serving stores.
pub fn save_graph<P: AsRef<Path>>(path: P, wg: &WeightedGraph) -> Result<(), StoreError> {
    crate::StoreBuilder::new(wg).write_to(path)
}

/// Convenience: loads the weighted graph of any store file.
pub fn load_graph<P: AsRef<Path>>(path: P) -> Result<WeightedGraph, StoreError> {
    StoreFile::open(path)?.graph()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use std::cell::Cell;

    /// How many times the retry loop reads `path`, and what it returns.
    fn tries(path: &Path) -> (u32, Result<(StoreFile, u32), StoreError>) {
        let calls = Cell::new(0);
        let result = retrying(|| {
            calls.set(calls.get() + 1);
            StoreFile::open_once(path, false)
        });
        (calls.get(), result)
    }

    /// Retries are for transient I/O only: a missing file is a hard
    /// error, read once and returned as it is.
    #[test]
    fn hard_errors_are_not_retried() {
        let dir = ScratchDir::new("store-reader");
        let missing = dir.join("definitely-absent.ics1");
        let (calls, result) = tries(&missing);
        assert_eq!(calls, 1, "a hard error was retried");
        match result {
            Err(StoreError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            Err(e) => panic!("wrong class: {e}"),
            Ok(_) => panic!("opened a nonexistent store"),
        }
        assert!(matches!(StoreFile::open(&missing), Err(StoreError::Io(_))));
    }

    /// Corruption likewise fails closed on the first read, typed.
    #[test]
    fn corruption_is_not_retried() {
        let dir = ScratchDir::new("store-reader");
        let path = dir.join("corrupt.ics1");
        crate::save_graph(&path, &ic_core::figure1::figure1()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (calls, result) = tries(&path);
        assert_eq!(calls, 1, "corruption was retried");
        assert!(matches!(result, Err(StoreError::Corrupt { .. })));
        assert!(matches!(
            StoreFile::open(&path),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
