//! What an apply changed, worked out once from its cascade journal.

use crate::CascadeRecord;
use ic_graph::{Graph, VertexId};

/// What an apply changed at one level `k` at or below its ceiling.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelDelta {
    /// The vertices the maximal k-core gained, ascending.
    pub entered: Vec<VertexId>,
    /// The vertices it lost, ascending.
    pub left: Vec<VertexId>,
    /// Every vertex whose level-`k` row (its neighbours in the k-core)
    /// the apply can have changed, ascending: the toggles' endpoints,
    /// `entered`, `left` and the old graph's neighbours of those two (a
    /// neighbour only the new graph has is a toggle's endpoint).
    pub reached: Vec<VertexId>,
}

/// What one apply changed: its applied toggles and a [`LevelDelta`] per
/// level up to its ceiling. Above the ceiling every maximal k-core —
/// vertex set and induced edges — is the one before the apply.
#[derive(Clone, Debug)]
pub struct ApplyDelta {
    toggles: Vec<(VertexId, VertexId)>,
    /// `levels[k]` for every `k` up to the ceiling.
    levels: Vec<LevelDelta>,
}

impl ApplyDelta {
    /// The highest level `records` can have changed: the maximum
    /// [`CascadeRecord::ceiling`], `None` when no update applied.
    pub fn ceiling_of(records: &[CascadeRecord]) -> Option<u32> {
        records.iter().filter_map(CascadeRecord::ceiling).max()
    }

    /// The delta of the apply journaled by `records`, in order, on the
    /// graph `old`; `None` when no update applied. A vertex moves from its
    /// core before the first record that moved it to its core after the last.
    pub fn new(records: &[CascadeRecord], old: &Graph) -> Option<ApplyDelta> {
        let mut levels = vec![LevelDelta::default(); Self::ceiling_of(records)? as usize + 1];
        let toggles: Vec<(VertexId, VertexId)> = records
            .iter()
            .filter(|r| r.applied)
            .map(|r| r.update.endpoints())
            .collect();
        let mut moves: Vec<(VertexId, u32, u32)> = records
            .iter()
            .flat_map(|r| r.deltas.iter().map(|d| (d.vertex, d.old_core, d.new_core)))
            .collect();
        moves.sort_by_key(|&(v, _, _)| v);
        for run in moves.chunk_by(|a, b| a.0 == b.0) {
            let (v, before, after) = (run[0].0, run[0].1, run[run.len() - 1].2);
            let (lo, hi) = (before.min(after) as usize, before.max(after) as usize);
            for level in levels.iter_mut().take(hi + 1).skip(lo + 1) {
                if after > before {
                    level.entered.push(v);
                } else {
                    level.left.push(v);
                }
                level.reached.push(v);
                level.reached.extend_from_slice(old.neighbors(v));
            }
        }
        for LevelDelta { reached, .. } in &mut levels {
            reached.extend(toggles.iter().flat_map(|&(u, v)| [u, v]));
            reached.sort_unstable();
            reached.dedup();
        }
        Some(ApplyDelta { toggles, levels })
    }

    /// The endpoints of every applied toggle, in journal order.
    pub fn toggles(&self) -> &[(VertexId, VertexId)] {
        &self.toggles
    }

    /// What the apply changed at level `k`; `None` above its ceiling,
    /// where it changed nothing.
    pub fn level(&self, k: usize) -> Option<&LevelDelta> {
        self.levels.get(k)
    }
}
