//! Mapped-open parity: a store opened memory-mapped (lazy per-section
//! verification) materializes bit for bit the snapshot that the same
//! file opened into an owned buffer (eager whole-file checksum) does —
//! same CSR, same weight bits, same decomposition, same forest-served
//! answers — and a deferred load owes exactly the adjacency check, only
//! on the mapping. Both backings failing closed on truncations and byte
//! flips is held in `tests/store.rs`.

use ic_core::algo::ExtremumIndex;
use ic_core::Extremum;
use ic_kcore::{AdjacencyState, GraphSnapshot};
use ic_store::{OpenOptions, StoreFile, WarmState};
use proptest::prelude::*;
use scratch::ScratchDir;
use workload::{arb_workload, Shape};

#[path = "../../../tests/common/scratch.rs"]
mod scratch;
#[path = "../../../tests/common/workload.rs"]
mod workload;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mapped_open_matches_owned_open(wg in arb_workload(Shape::Families(0..3), 0..4, 20..120)) {
        let ks = [2usize, 3];
        let dir = ScratchDir::new("store-mmap-parity");
        let path = dir.join("parity.ics1");
        let snap = GraphSnapshot::new(wg.clone());
        WarmState::at(&snap, &ks).builder().write_to(&path).unwrap();

        let open = |options: &OpenOptions| StoreFile::open_with(&path, options).unwrap();
        let (mapped, owned) = (open(&OpenOptions::mapped()), open(&OpenOptions::default()));
        // The two paths must actually be different paths.
        prop_assert_eq!(mapped.backing_kind(), "mapped");
        prop_assert_eq!(owned.backing_kind(), "owned");
        let mapped = mapped.load().unwrap().into_snapshot();
        let owned = owned.load().unwrap().into_snapshot();
        prop_assert_eq!(mapped.graph(), owned.graph());
        let bits = |s: &GraphSnapshot| -> Vec<u64> {
            s.weighted().weights().iter().map(|w| w.to_bits()).collect()
        };
        prop_assert_eq!(bits(&mapped), bits(&owned));
        prop_assert_eq!(&*mapped.decomposition(), &*owned.decomposition());

        let deferred = |options: &OpenOptions| open(options).load_deferred().unwrap().into_snapshot();
        let owing = deferred(&OpenOptions::mapped());
        prop_assert_eq!(owing.adjacency_state(), AdjacencyState::Owed);
        prop_assert_eq!(deferred(&OpenOptions::default()).adjacency_state(), AdjacencyState::Verified);
        prop_assert!(owing.ensure_adjacency().is_ok());
        prop_assert_eq!(owing.adjacency_state(), AdjacencyState::Verified);
        prop_assert_eq!(owing.graph(), owned.graph());

        for k in ks {
            for dir in [Extremum::Min, Extremum::Max] {
                let read = |s: &GraphSnapshot| ExtremumIndex::cached(s, k, dir).topr(s.weighted(), 5).unwrap();
                let (a, b) = (read(&mapped), read(&owned));
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    prop_assert_eq!(&x.vertices, &y.vertices);
                    prop_assert_eq!(x.value.to_bits(), y.value.to_bits());
                }
            }
        }
    }
}
