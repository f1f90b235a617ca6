//! The typed delta vocabulary and the canonical answer diff.

use ic_core::Community;

/// One change between two consecutive answers of a standing query.
///
/// A community's *identity* is its sorted member-vertex list; its rank
/// is its 0-based position in the answer. The `community` field always
/// carries the community's **new** state (post-update members and
/// value) so a consumer never needs the old answer to render the new
/// one — see [`replay`].
#[derive(Clone, Debug, PartialEq)]
pub enum Delta {
    /// A community absent from the old answer holds `rank` in the new.
    CommunityEntered {
        /// 0-based rank in the new answer.
        rank: usize,
        /// The entering community.
        community: Community,
    },
    /// The community ranked `rank` in the old answer left the new one.
    CommunityLeft {
        /// 0-based rank in the **old** answer.
        rank: usize,
        /// The departing community (old state).
        community: Community,
    },
    /// The same member set moved from rank `from` to rank `to`.
    RankMoved {
        /// 0-based rank in the old answer.
        from: usize,
        /// 0-based rank in the new answer.
        to: usize,
        /// The community's new state.
        community: Community,
    },
    /// The member set at `rank` kept its rank but its aggregation value
    /// changed (e.g. a `Sum` community that lost an internal edge but
    /// no member). Emitted *in addition to* [`Delta::RankMoved`] when
    /// both happened; `rank` is then the new rank.
    ValueChanged {
        /// 0-based rank in the new answer.
        rank: usize,
        /// The value in the old answer.
        old_value: f64,
        /// The community's new state.
        community: Community,
    },
}

/// Diffs two answers (rank-ordered community lists) into the canonical
/// delta sequence — **the** definition a subscription notification must
/// match, property-tested against consecutive full re-solves.
///
/// Order is deterministic: ascending new-rank order first (for each new
/// rank, `RankMoved` before `ValueChanged`, or a single
/// `CommunityEntered`), then departures in ascending old-rank order.
/// Repeated vertex lists pair up in rank order (the i-th occurrence in
/// `new` with the i-th in `old`).
/// Values compare by bit pattern (`f64::to_bits`), matching the
/// engine's bit-identical determinism contract — a delta is emitted
/// exactly when the serialized answers would differ.
pub fn diff_answers(old: &[Community], new: &[Community]) -> Vec<Delta> {
    // Old ranks by vertex list, ascending. A solver never lists one
    // vertex set twice, but an answer from elsewhere may: each new entry
    // then claims the earliest unclaimed old rank of its list, so every
    // old rank is matched at most once and identical answers diff empty.
    let mut old_ranks: std::collections::HashMap<&[u32], std::collections::VecDeque<usize>> =
        std::collections::HashMap::new();
    for (j, c) in old.iter().enumerate() {
        old_ranks
            .entry(c.vertices.as_slice())
            .or_default()
            .push_back(j);
    }
    let mut matched = vec![false; old.len()];
    let mut deltas = Vec::new();
    for (i, c) in new.iter().enumerate() {
        let claimed = old_ranks
            .get_mut(c.vertices.as_slice())
            .and_then(|ranks| ranks.pop_front());
        match claimed {
            Some(j) => {
                matched[j] = true;
                if j != i {
                    deltas.push(Delta::RankMoved {
                        from: j,
                        to: i,
                        community: c.clone(),
                    });
                }
                if old[j].value.to_bits() != c.value.to_bits() {
                    deltas.push(Delta::ValueChanged {
                        rank: i,
                        old_value: old[j].value,
                        community: c.clone(),
                    });
                }
            }
            None => deltas.push(Delta::CommunityEntered {
                rank: i,
                community: c.clone(),
            }),
        }
    }
    for (j, c) in old.iter().enumerate() {
        if !matched[j] {
            deltas.push(Delta::CommunityLeft {
                rank: j,
                community: c.clone(),
            });
        }
    }
    deltas
}

/// Reconstructs the new answer from the old answer plus its deltas —
/// the client-side application of a notification, and the proof that
/// [`diff_answers`] loses nothing: `replay(old, &diff_answers(old,
/// new)) == new` for any two answers.
pub fn replay(old: &[Community], deltas: &[Delta]) -> Vec<Community> {
    let mut removed = vec![false; old.len()];
    let (mut entered, mut left) = (0usize, 0usize);
    for d in deltas {
        match d {
            Delta::CommunityEntered { .. } => entered += 1,
            Delta::CommunityLeft { rank, .. } => {
                removed[*rank] = true;
                left += 1;
            }
            Delta::RankMoved { from, .. } => removed[*from] = true,
            Delta::ValueChanged { .. } => {}
        }
    }
    let mut out: Vec<Option<Community>> = vec![None; old.len() - left + entered];
    for d in deltas {
        let (rank, community) = match d {
            Delta::CommunityEntered { rank, community }
            | Delta::RankMoved {
                to: rank,
                community,
                ..
            }
            | Delta::ValueChanged {
                rank, community, ..
            } => (*rank, community),
            Delta::CommunityLeft { .. } => continue,
        };
        out[rank] = Some(community.clone());
    }
    // Whatever was neither removed, moved, nor re-valued kept its rank
    // and state.
    for (j, c) in old.iter().enumerate() {
        if !removed[j] && out[j].is_none() {
            out[j] = Some(c.clone());
        }
    }
    out.into_iter()
        .map(|c| c.expect("deltas cover every new rank"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(vs: &[u32], value: f64) -> Community {
        Community::new(vs.to_vec(), value)
    }

    #[test]
    fn identical_answers_diff_empty() {
        let a = vec![c(&[0, 1, 2], 9.0), c(&[3, 4, 5], 7.0)];
        assert!(diff_answers(&a, &a).is_empty());
        assert_eq!(replay(&a, &[]), a);
    }

    #[test]
    fn every_delta_kind_is_emitted_and_replays() {
        let old = vec![
            c(&[0, 1, 2], 9.0), // will move to rank 1
            c(&[3, 4, 5], 7.0), // will move to rank 0 with a new value
            c(&[6, 7, 8], 5.0), // will leave
        ];
        let new = vec![
            c(&[3, 4, 5], 12.0),
            c(&[0, 1, 2], 9.0),
            c(&[9, 10, 11], 4.0), // enters
        ];
        let deltas = diff_answers(&old, &new);
        assert_eq!(
            deltas,
            vec![
                Delta::RankMoved {
                    from: 1,
                    to: 0,
                    community: new[0].clone()
                },
                Delta::ValueChanged {
                    rank: 0,
                    old_value: 7.0,
                    community: new[0].clone()
                },
                Delta::RankMoved {
                    from: 0,
                    to: 1,
                    community: new[1].clone()
                },
                Delta::CommunityEntered {
                    rank: 2,
                    community: new[2].clone()
                },
                Delta::CommunityLeft {
                    rank: 2,
                    community: old[2].clone()
                },
            ]
        );
        assert_eq!(replay(&old, &deltas), new);
    }

    #[test]
    fn value_change_in_place_is_a_single_delta() {
        let old = vec![c(&[0, 1, 2], 9.0)];
        let new = vec![c(&[0, 1, 2], 8.5)];
        let deltas = diff_answers(&old, &new);
        assert_eq!(
            deltas,
            vec![Delta::ValueChanged {
                rank: 0,
                old_value: 9.0,
                community: new[0].clone()
            }]
        );
        assert_eq!(replay(&old, &deltas), new);
    }

    #[test]
    fn empty_to_full_and_back() {
        let a = vec![c(&[0, 1, 2], 1.0), c(&[3, 4, 5], 0.5)];
        let enter = diff_answers(&[], &a);
        assert_eq!(enter.len(), 2);
        assert_eq!(replay(&[], &enter), a);
        let leave = diff_answers(&a, &[]);
        assert_eq!(leave.len(), 2);
        assert_eq!(replay(&a, &leave), Vec::<Community>::new());
    }

    #[test]
    fn repeated_vertex_lists_round_trip_without_spurious_deltas() {
        // Regression (PR 11 defect): a size-bounded local-search answer
        // listed one vertex set twice, values an ulp apart. The diff
        // then matched both copies to one old rank: `replay` indexed out
        // of bounds or rebuilt the wrong answer, and an unchanged answer
        // diffed non-empty (a spurious NOTIFY).
        let lo = f64::from_bits(5.0f64.to_bits() - 1);
        let twice = vec![c(&[0, 1, 2], 5.0), c(&[3, 4], 5.0), c(&[0, 1, 2], lo)];
        assert!(diff_answers(&twice, &twice).is_empty());
        let once = vec![c(&[3, 4], 6.0), c(&[0, 1, 2], 5.0)];
        for (old, new) in [(&twice, &once), (&once, &twice)] {
            assert_eq!(&replay(old, &diff_answers(old, new)), new);
        }

        // Any pair of answers over a small pool of lists and values —
        // repeats included — round-trips.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for _ in 0..2000 {
            let mut draw = || -> Vec<Community> {
                (0..next(6))
                    .map(|_| {
                        let first = next(3) as u32;
                        c(&[first, first + 1], 1.0 + next(2) as f64)
                    })
                    .collect()
            };
            let (old, new) = (draw(), draw());
            let deltas = diff_answers(&old, &new);
            assert_eq!(replay(&old, &deltas), new, "{old:?} -> {new:?}");
            assert_eq!(deltas.is_empty(), old == new, "{old:?} -> {new:?}");
        }
    }
}
