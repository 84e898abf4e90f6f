//! Chaitin-style simplify/spill colouring with Briggs' optimistic push.

use crate::interfere::{bits, InterferenceGraph};
use crate::live::LiveRange;

/// Result of colouring one (bank, class) interference graph.
#[derive(Debug, Clone)]
pub struct ColorOutcome {
    /// Colour per node; `None` = spilled.
    pub colors: Vec<Option<u32>>,
    /// Number of spilled nodes.
    pub n_spilled: usize,
    /// Number of distinct colours actually used.
    pub n_colors_used: usize,
}

impl ColorOutcome {
    /// Check the defining property: no two interfering nodes share a colour.
    pub fn is_valid(&self, g: &InterferenceGraph) -> bool {
        (0..g.n_nodes()).all(|i| {
            self.colors[i].is_none_or(|c| g.neighbours(i).all(|j| self.colors[j] != Some(c)))
        })
    }
}

/// Colour `g` with `k` colours.
///
/// Simplify: repeatedly remove a node with remaining degree `< k` (Chaitin).
/// If none exists, choose the node minimising `cost / (degree + 1)` and push
/// it anyway (Briggs' optimistic spill candidate). When popping, a node
/// takes the lowest colour unused by its already-coloured neighbours;
/// optimistic nodes that find no colour are spilled.
pub fn color_graph(g: &InterferenceGraph, ranges: &[LiveRange], k: usize) -> ColorOutcome {
    assert_eq!(ranges.len(), g.n_nodes());
    color_with_costs(g, |i| ranges[i].cost, k)
}

/// [`color_graph`] with node `i`'s spill cost given by `cost(i)`.
///
/// Simplify removes, among nodes of remaining degree `< k`, one of the
/// highest degree (the highest index among ties). The candidates sit in
/// one bitset per degree, so a pick reads the top non-empty bucket instead
/// of rescanning every node; only the spill-candidate choice scans.
pub(crate) fn color_with_costs(
    g: &InterferenceGraph,
    cost: impl Fn(usize) -> f64,
    k: usize,
) -> ColorOutcome {
    let n = g.n_nodes();
    let words = n.div_ceil(64);
    let mut degree: Vec<usize> = (0..n).map(|i| g.degree(i)).collect();
    let mut live = vec![0u64; words];
    // `low[d * words..]`: the live nodes of degree `d < k`. Degrees never
    // exceed `n - 1`, so `min(k, n)` buckets hold every candidate.
    let n_low = k.min(n);
    let mut low = vec![0u64; n_low * words];
    for (i, &d) in degree.iter().enumerate() {
        live[i / 64] |= 1 << (i % 64);
        if d < k {
            low[d * words + i / 64] |= 1 << (i % 64);
        }
    }
    let mut top = n_low;
    let mut stack: Vec<usize> = Vec::with_capacity(n);

    for _ in 0..n {
        while top > 0 && low[(top - 1) * words..top * words].iter().all(|&w| w == 0) {
            top -= 1;
        }
        let pick = if top > 0 {
            let bucket = &low[(top - 1) * words..top * words];
            let w = bucket.iter().rposition(|&w| w != 0).expect("non-empty");
            w * 64 + 63 - bucket[w].leading_zeros() as usize
        } else {
            // Spill candidate: cheapest per unit of degree relief, lowest
            // index among ties.
            let mut best: Option<(usize, f64)> = None;
            for i in bits(&live) {
                let key = cost(i) / (degree[i] + 1) as f64;
                if best.is_none_or(|(_, b)| key.partial_cmp(&b).unwrap().is_lt()) {
                    best = Some((i, key));
                }
            }
            best.expect("n iterations, one removal each").0
        };
        live[pick / 64] &= !(1 << (pick % 64));
        if degree[pick] < k {
            low[degree[pick] * words + pick / 64] &= !(1 << (pick % 64));
        }
        stack.push(pick);
        for w in 0..words {
            let mut nbs = g.row(pick)[w] & live[w];
            while nbs != 0 {
                let nb = w * 64 + nbs.trailing_zeros() as usize;
                nbs &= nbs - 1;
                let (d, bit) = (degree[nb], 1 << (nb % 64));
                degree[nb] = d - 1;
                if d < k {
                    low[d * words + w] &= !bit;
                }
                if d - 1 < k {
                    low[(d - 1) * words + w] |= bit;
                    top = top.max(d);
                }
            }
        }
    }

    let mut colors: Vec<Option<u32>> = vec![None; n];
    let mut n_spilled = 0usize;
    let k_words = k.div_ceil(64);
    let mut used = vec![0u64; k_words];
    let mut palette = vec![0u64; k_words];
    while let Some(i) = stack.pop() {
        used.fill(0);
        for nb in g.neighbours(i) {
            if let Some(c) = colors[nb] {
                used[c as usize / 64] |= 1 << (c % 64);
            }
        }
        let free = used
            .iter()
            .enumerate()
            .find(|&(_, &w)| w != u64::MAX)
            .map(|(w, &u)| w * 64 + (!u).trailing_zeros() as usize)
            .filter(|&c| c < k);
        match free {
            Some(c) => {
                colors[i] = Some(c as u32);
                palette[c / 64] |= 1 << (c % 64);
            }
            None => n_spilled += 1,
        }
    }
    ColorOutcome {
        colors,
        n_spilled,
        n_colors_used: palette.iter().map(|w| w.count_ones() as usize).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::CyclicInterval;
    use proptest::prelude::*;
    use vliw_ir::VReg;

    /// The rescanning simplify/select the bucketed one replaced: each pick
    /// scans every node, each pop allocates its used-colour table.
    fn color_graph_rescan(g: &InterferenceGraph, ranges: &[LiveRange], k: usize) -> ColorOutcome {
        let n = g.n_nodes();
        let mut removed = vec![false; n];
        let mut degree: Vec<usize> = (0..n).map(|i| g.degree(i)).collect();
        let mut stack: Vec<usize> = Vec::with_capacity(n);
        for _ in 0..n {
            let pick = (0..n)
                .filter(|&i| !removed[i] && degree[i] < k)
                .max_by_key(|&i| degree[i])
                .or_else(|| {
                    (0..n).filter(|&i| !removed[i]).min_by(|&a, &b| {
                        let ka = ranges[a].cost / (degree[a] + 1) as f64;
                        let kb = ranges[b].cost / (degree[b] + 1) as f64;
                        ka.partial_cmp(&kb).unwrap().then(a.cmp(&b))
                    })
                })
                .expect("n iterations, one removal each");
            removed[pick] = true;
            stack.push(pick);
            for nb in g.neighbours(pick) {
                if !removed[nb] {
                    degree[nb] -= 1;
                }
            }
        }
        let mut colors: Vec<Option<u32>> = vec![None; n];
        let mut n_spilled = 0usize;
        while let Some(i) = stack.pop() {
            let mut used = vec![false; k];
            for nb in g.neighbours(i) {
                if let Some(c) = colors[nb] {
                    used[c as usize] = true;
                }
            }
            match used.iter().position(|&u| !u) {
                Some(c) => colors[i] = Some(c as u32),
                None => n_spilled += 1,
            }
        }
        let mut distinct: Vec<u32> = colors.iter().flatten().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        ColorOutcome {
            colors,
            n_spilled,
            n_colors_used: distinct.len(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Bucketed simplify picks exactly the node the rescan picks, on
        /// graphs past one bitset word and with spill-bound palettes.
        #[test]
        fn bucketed_colouring_matches_the_rescan(
            iv in proptest::collection::vec((0i64..24, 1i64..=24, 1u32..6), 0..90),
            k in 0usize..12,
        ) {
            let r: Vec<LiveRange> = iv
                .iter()
                .enumerate()
                .map(|(i, &(s, l, cost))| LiveRange {
                    vreg: VReg(i as u32),
                    instance: 0,
                    interval: CyclicInterval::new(s, l, 24),
                    cost: f64::from(cost),
                })
                .collect();
            let g = InterferenceGraph::build(&r);
            let (fast, slow) = (color_graph(&g, &r, k), color_graph_rescan(&g, &r, k));
            prop_assert_eq!(fast.colors, slow.colors);
            prop_assert_eq!(fast.n_spilled, slow.n_spilled);
            prop_assert_eq!(fast.n_colors_used, slow.n_colors_used);
        }
    }

    fn ranges_from_intervals(iv: &[(i64, i64)], circle: i64) -> Vec<LiveRange> {
        iv.iter()
            .enumerate()
            .map(|(i, &(s, l))| LiveRange {
                vreg: VReg(i as u32),
                instance: 0,
                interval: CyclicInterval::new(s, l, circle),
                cost: 1.0,
            })
            .collect()
    }

    #[test]
    fn chain_colors_with_two() {
        // Three pairwise-chained intervals: 2 colours suffice.
        let r = ranges_from_intervals(&[(0, 4), (3, 4), (6, 3)], 12);
        let g = InterferenceGraph::build(&r);
        let out = color_graph(&g, &r, 2);
        assert_eq!(out.n_spilled, 0);
        assert!(out.is_valid(&g));
        assert!(out.n_colors_used <= 2);
    }

    #[test]
    fn clique_spills_when_short() {
        // Four full-circle ranges form a 4-clique; 2 colours ⇒ 2 spills.
        let r = ranges_from_intervals(&[(0, 9), (0, 9), (0, 9), (0, 9)], 8);
        let g = InterferenceGraph::build(&r);
        let out = color_graph(&g, &r, 2);
        assert_eq!(out.n_spilled, 2);
        assert!(out.is_valid(&g));
    }

    #[test]
    fn optimistic_push_beats_pessimism() {
        // A diamond: centre node has degree 4 ≥ k=2... choose a cycle:
        // 4-cycle is 2-colourable even though every node has degree 2 == k.
        let circle = 8;
        let r = ranges_from_intervals(&[(0, 3), (2, 3), (4, 3), (6, 3)], circle);
        let g = InterferenceGraph::build(&r);
        // Each interval overlaps its two neighbours in the ring.
        let out = color_graph(&g, &r, 2);
        assert_eq!(
            out.n_spilled, 0,
            "optimistic colouring must 2-colour a ring"
        );
        assert!(out.is_valid(&g));
    }

    #[test]
    fn empty_graph() {
        let r: Vec<LiveRange> = Vec::new();
        let g = InterferenceGraph::build(&r);
        let out = color_graph(&g, &r, 4);
        assert_eq!(out.n_spilled, 0);
        assert_eq!(out.n_colors_used, 0);
    }

    #[test]
    fn spill_prefers_cheap_nodes() {
        // 3-clique with one expensive node, k = 2: the cheap ones compete for
        // the spill; the expensive node must be coloured.
        let mut r = ranges_from_intervals(&[(0, 8), (0, 8), (0, 8)], 8);
        r[1].cost = 100.0;
        let g = InterferenceGraph::build(&r);
        let out = color_graph(&g, &r, 2);
        assert_eq!(out.n_spilled, 1);
        assert!(out.colors[1].is_some(), "expensive node must not spill");
        assert!(out.is_valid(&g));
    }
}
