//! Interference graph over live-range nodes.

use crate::live::{point_mask, CyclicInterval, LiveRange};

/// Undirected interference graph; node indices refer to the range slice it
/// was built from. Each node's neighbours are one bitset row.
#[derive(Debug, Clone)]
pub struct InterferenceGraph {
    n: usize,
    /// `u64` words per row.
    words: usize,
    /// `rows[i * words..(i + 1) * words]`: the neighbours of node `i`.
    rows: Vec<u64>,
}

impl InterferenceGraph {
    /// Build from cyclic live ranges: two nodes interfere iff their
    /// intervals overlap. Instances of the same register DO interfere when
    /// their (longer-than-II) lifetimes overlap — that is exactly what MVE
    /// renaming is for.
    pub fn build(ranges: &[LiveRange]) -> Self {
        let intervals: Vec<CyclicInterval> = ranges.iter().map(|r| r.interval).collect();
        Self::from_intervals(&intervals)
    }

    /// [`InterferenceGraph::build`] over bare intervals. On a circle of at
    /// most 64 cycles each interval becomes a point mask and a pair test is
    /// one `and`.
    pub(crate) fn from_intervals(intervals: &[CyclicInterval]) -> Self {
        let n = intervals.len();
        let words = n.div_ceil(64);
        let mut g = InterferenceGraph {
            n,
            words,
            rows: vec![0; n * words],
        };
        let short = intervals.iter().all(|iv| iv.circle <= 64);
        let masks: Vec<u64> = if short {
            intervals.iter().map(point_mask).collect()
        } else {
            Vec::new()
        };
        for i in 0..n {
            for j in (i + 1)..n {
                let hit = if short {
                    masks[i] & masks[j] != 0
                } else {
                    intervals[i].overlaps(&intervals[j])
                };
                if hit {
                    g.rows[i * words + j / 64] |= 1 << (j % 64);
                    g.rows[j * words + i / 64] |= 1 << (i % 64);
                }
            }
        }
        g
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Node `i`'s neighbour bitset.
    pub(crate) fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.words..(i + 1) * self.words]
    }

    /// Degree of node `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.row(i).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Neighbours of node `i`, ascending.
    pub fn neighbours(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        bits(self.row(i))
    }

    /// Do `i` and `j` interfere?
    pub fn interferes(&self, i: usize, j: usize) -> bool {
        self.row(i)[j / 64] >> (j % 64) & 1 == 1
    }
}

/// The set bits of a bitset, ascending.
pub(crate) fn bits(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(k, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                k * 64 + b
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::CyclicInterval;
    use vliw_ir::VReg;

    fn mk(start: i64, len: i64) -> LiveRange {
        LiveRange {
            vreg: VReg(0),
            instance: 0,
            interval: CyclicInterval::new(start, len, 10),
            cost: 1.0,
        }
    }

    #[test]
    fn builds_expected_edges() {
        let ranges = vec![mk(0, 3), mk(2, 2), mk(5, 3), mk(8, 4)];
        let g = InterferenceGraph::build(&ranges);
        assert!(g.interferes(0, 1));
        assert!(!g.interferes(0, 2));
        // [5,8) vs the wrapping [8,12)≡{8,9,0,1}: disjoint.
        assert!(!g.interferes(2, 3));
        // [0,3) vs {8,9,0,1}: overlap at 0,1.
        assert!(g.interferes(0, 3));
    }

    #[test]
    fn wrapping_edges() {
        let ranges = vec![mk(8, 4), mk(0, 2), mk(4, 2)];
        let g = InterferenceGraph::build(&ranges);
        assert!(g.interferes(0, 1)); // wrap covers 0,1
        assert!(!g.interferes(0, 2));
        assert_eq!(g.degree(2), 0);
    }
}
