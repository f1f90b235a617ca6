//! Property-based tests: k-core invariants on random graphs.

use ic_graph::{graph_from_edges, BitSet, Graph};
use ic_kcore::{
    core_decomposition, is_kcore_within, kcore_mask, maximal_kcore_components,
    peel_to_kcore_within, CoreMaintainer, EdgeUpdate, PeelArena, PeelScratch, Piece,
};
use proptest::prelude::*;

fn arb_graph(max_n: u32, max_m: usize) -> impl Strategy<Value = Graph> {
    (3..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m)
            .prop_map(move |edges| graph_from_edges(n as usize, &edges))
    })
}

/// Two random graphs hinged on one vertex adjacent to all the others,
/// with ids shuffled: deleting the hinge cuts its k-core into pieces of
/// comparable size, whichever holds the smallest id.
fn arb_hinged(max_n: u32, max_m: usize) -> impl Strategy<Value = Graph> {
    let halves = (arb_graph(max_n, max_m), arb_graph(max_n, max_m));
    (halves, any::<u64>()).prop_map(|((a, b), mut state)| {
        let n = a.num_vertices() + b.num_vertices() + 1;
        let mut ids: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ids.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let offset = a.num_vertices() as u32;
        let mut edges: Vec<(u32, u32)> = a
            .edges()
            .map(|(u, v)| (ids[u as usize], ids[v as usize]))
            .collect();
        edges.extend(
            b.edges()
                .map(|(u, v)| (ids[(offset + u) as usize], ids[(offset + v) as usize])),
        );
        let hinge = ids[n - 1];
        edges.extend(ids[..n - 1].iter().map(|&v| (hinge, v)));
        graph_from_edges(n, &edges)
    })
}

/// Naive reference: repeatedly remove any vertex with degree < k.
fn naive_kcore(g: &Graph, k: usize) -> BitSet {
    let n = g.num_vertices();
    let mut mask = BitSet::full(n);
    loop {
        let mut changed = false;
        for v in 0..n {
            if mask.contains(v) && g.degree_within(v as u32, &mask) < k {
                mask.remove(v);
                changed = true;
            }
        }
        if !changed {
            return mask;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decomposition_matches_naive_kcore(g in arb_graph(40, 160)) {
        for k in 0..5usize {
            let mask = kcore_mask(&g, k);
            let reference = naive_kcore(&g, k);
            prop_assert_eq!(mask.to_vec(), reference.to_vec(), "k={}", k);
        }
    }

    #[test]
    fn core_numbers_are_tight(g in arb_graph(40, 160)) {
        let cd = core_decomposition(&g);
        for v in g.vertices() {
            let c = cd.core_numbers[v as usize] as usize;
            // v is in the c-core...
            let mask = kcore_mask(&g, c);
            prop_assert!(mask.contains(v as usize));
            // ...but not in the (c+1)-core.
            let mask = kcore_mask(&g, c + 1);
            prop_assert!(!mask.contains(v as usize));
        }
    }

    #[test]
    fn kcore_components_satisfy_model(g in arb_graph(40, 160)) {
        for k in 1..4usize {
            for comp in maximal_kcore_components(&g, k) {
                let mut mask = BitSet::new(g.num_vertices());
                for &v in &comp {
                    mask.insert(v as usize);
                }
                // Cohesive.
                prop_assert!(is_kcore_within(&g, &mask, k));
                // Connected.
                prop_assert!(ic_graph::is_connected_within(&g, &mask));
            }
        }
    }

    #[test]
    fn peel_within_agrees_with_mask(g in arb_graph(40, 160)) {
        for k in 1..4usize {
            let mut mask = BitSet::full(g.num_vertices());
            peel_to_kcore_within(&g, &mut mask, k);
            prop_assert_eq!(mask.to_vec(), kcore_mask(&g, k).to_vec());
        }
    }

    #[test]
    fn maintained_cores_match_scratch_decomposition(
        n in 4u32..32,
        script in proptest::collection::vec((any::<bool>(), 0u32..32, 0u32..32), 1..120usize),
    ) {
        // Random insert/delete sequence: after every operation the
        // incrementally maintained core numbers must agree bit-for-bit
        // with a from-scratch decomposition of the materialized graph.
        let mut m = CoreMaintainer::new(n as usize);
        for (step, &(insert, a, b)) in script.iter().enumerate() {
            let (u, v) = (a % n, b % n);
            let had = m.has_edge(u, v);
            if insert {
                let changed = m.apply_recorded(EdgeUpdate::Insert { u, v }).applied;
                prop_assert_eq!(changed, u != v && !had, "insert report at step {}", step);
            } else {
                let changed = m.apply_recorded(EdgeUpdate::Remove { u, v }).applied;
                prop_assert_eq!(changed, had, "delete report at step {}", step);
            }
            let expect = core_decomposition(&m.to_graph()).core_numbers;
            prop_assert_eq!(
                m.core_numbers(),
                expect.as_slice(),
                "cores diverged at step {} ({} {} {})",
                step,
                if insert { "insert" } else { "delete" },
                u,
                v
            );
        }
    }

    #[test]
    fn maintained_cores_survive_churn_on_seeded_graph(
        g in arb_graph(28, 90),
        churn in proptest::collection::vec((any::<bool>(), 0u32..28, 0u32..28), 1..60usize),
    ) {
        // Seed from an existing graph, then churn edges; the maintainer
        // must track the oracle through every state, and deleting every
        // remaining edge must drive all cores to zero.
        let n = g.num_vertices() as u32;
        let mut m = CoreMaintainer::from_graph(&g);
        for &(insert, a, b) in &churn {
            let (u, v) = (a % n, b % n);
            if insert {
                m.apply_recorded(EdgeUpdate::Insert { u, v });
            } else {
                m.apply_recorded(EdgeUpdate::Remove { u, v });
            }
            let expect = core_decomposition(&m.to_graph()).core_numbers;
            prop_assert_eq!(m.core_numbers(), expect.as_slice());
        }
        let remaining: Vec<(u32, u32)> = m.to_graph().edges().collect();
        for (u, v) in remaining {
            prop_assert!(m.apply_recorded(EdgeUpdate::Remove { u, v }).applied);
        }
        prop_assert_eq!(m.num_edges(), 0);
        prop_assert!(m.core_numbers().iter().all(|&c| c == 0));
    }

    #[test]
    fn scratch_kcores_match_naive_on_deletion(g in arb_graph(30, 100), k in 1usize..4) {
        let comps = maximal_kcore_components(&g, k);
        let mut scratch = PeelScratch::new(g.num_vertices());
        for comp in comps {
            for &victim in &comp {
                let got = scratch.connected_kcores(&g, &comp, Some(victim), k);
                // Reference: mask-based peel of comp \ {victim}.
                let mut mask = BitSet::new(g.num_vertices());
                for &v in &comp {
                    if v != victim {
                        mask.insert(v as usize);
                    }
                }
                peel_to_kcore_within(&g, &mut mask, k);
                let expected = ic_graph::connected_components_within(&g, &mask);
                prop_assert_eq!(got, expected);
            }
        }
    }

    #[test]
    fn split_equals_scratch_in_sets_and_order(g in prop_oneof![arb_graph(40, 160), arb_hinged(20, 60)],
                                              k in 1usize..4) {
        // Every piece the split emits, the rest materialized in place,
        // is the from-scratch re-peel's component list exactly: same
        // sets, same order, each in ascending id order. The second
        // deletion stacks a journal of two cascades on one load. Each
        // component runs three ways: loaded (every split walks), loaded
        // and marked, and copied from the marked state's image (the
        // one-piece certificate settles what it can).
        let mut arena = PeelArena::for_graph(&g);
        let mut scratch = PeelScratch::new(g.num_vertices());
        for comp in maximal_kcore_components(&g, k) {
            arena.load(&g, &comp, k);
            arena.mark_articulation_points();
            let image = arena.image();
            for arm in ["loaded", "marked", "image"] {
                match arm {
                    "loaded" => arena.load(&g, &comp, k),
                    "marked" => {
                        arena.load(&g, &comp, k);
                        arena.mark_articulation_points();
                    }
                    _ => arena.load_image(&image),
                }
                for (i, &victim) in comp.iter().enumerate() {
                    arena.remove_cascade(victim);
                    let expected = scratch.connected_kcores(&g, &comp, Some(victim), k);
                    prop_assert_eq!(split_pieces(&mut arena), expected, "{} victim={}", arm, victim);
                    let second = comp[(i * 7 + 3) % comp.len()];
                    arena.remove_cascade(second);
                    let mut mask = BitSet::new(g.num_vertices());
                    for &v in &comp {
                        if v != victim && v != second {
                            mask.insert(v as usize);
                        }
                    }
                    peel_to_kcore_within(&g, &mut mask, k);
                    let expected = ic_graph::connected_components_within(&g, &mask);
                    prop_assert_eq!(
                        split_pieces(&mut arena), expected, "{} victims={},{}", arm, victim, second
                    );
                    arena.rollback();
                }
            }
        }
    }

    #[test]
    fn a_certified_split_is_one_piece(g in prop_oneof![arb_graph(40, 160), arb_hinged(20, 60)],
                                      k in 1usize..4,
                                      picks in proptest::collection::vec(0usize..1 << 16, 1..5)) {
        // Whenever the certificate answers "one piece", a walk over the
        // same removals (an unmarked load, which cannot certify) finds
        // exactly one, or none when nothing is live. Deletions stack up
        // to five cascades on one load.
        let mut marked = PeelArena::for_graph(&g);
        let mut walked = PeelArena::for_graph(&g);
        for comp in maximal_kcore_components(&g, k) {
            marked.load(&g, &comp, k);
            marked.mark_articulation_points();
            walked.load(&g, &comp, k);
            for (i, &victim) in comp.iter().enumerate() {
                let stack = std::iter::once(victim)
                    .chain(picks.iter().map(|&p| comp[p.wrapping_add(i) % comp.len()]));
                for v in stack {
                    marked.remove_cascade(v);
                    walked.remove_cascade(v);
                    let split = marked.split();
                    if split.certified {
                        prop_assert_eq!(split.walked, 0);
                        let pieces = split_pieces(&mut walked).len();
                        prop_assert_eq!(pieces, usize::from(walked.live_count() > 0), "v={}", v);
                    }
                }
                marked.rollback();
                walked.rollback();
            }
        }
    }

    #[test]
    fn an_image_load_equals_load_and_mark(g in arb_graph(40, 160), k in 1usize..4) {
        let mut loaded = PeelArena::for_graph(&g);
        let mut copied = PeelArena::for_graph(&g);
        for comp in maximal_kcore_components(&g, k) {
            loaded.load(&g, &comp, k);
            loaded.mark_articulation_points();
            let image = loaded.image();
            copied.load_image(&image);
            prop_assert_eq!(copied.image(), image);
            for v in g.vertices() {
                prop_assert_eq!(copied.is_live(v), loaded.is_live(v));
                prop_assert_eq!(copied.is_articulation(v), loaded.is_articulation(v), "v={}", v);
            }
            for &victim in &comp {
                prop_assert_eq!(copied.remove_cascade(victim), loaded.remove_cascade(victim));
                prop_assert!(copied.journaled().eq(loaded.journaled()));
                prop_assert_eq!(split_pieces(&mut copied), split_pieces(&mut loaded));
                copied.rollback();
                loaded.rollback();
            }
        }
    }
}

/// The pieces of a split in emitted order, the rest materialized.
fn split_pieces(arena: &mut PeelArena) -> Vec<Vec<u32>> {
    let split = arena.split();
    let pieces = arena.pieces(&split).map(|piece| match piece {
        Piece::Walked(members) => members.to_vec(),
        Piece::Rest(len) => {
            let mut rest = Vec::new();
            arena.rest_into(&split, &mut rest);
            assert_eq!(rest.len(), len);
            rest
        }
    });
    let pieces: Vec<Vec<u32>> = pieces.collect();
    assert!(split.walked <= arena.live_count());
    assert_eq!(
        pieces.iter().map(Vec::len).sum::<usize>(),
        arena.live_count()
    );
    pieces
}
