//! Property tests for cyclic intervals and colouring.

use proptest::prelude::*;
use vliw_ir::VReg;
use vliw_regalloc::{color_graph, max_pressure, CyclicInterval, InterferenceGraph, LiveRange};

fn ranges(circle: i64) -> impl Strategy<Value = Vec<LiveRange>> {
    proptest::collection::vec((0..circle, 1..=circle), 1..24).prop_map(move |iv| {
        iv.into_iter()
            .enumerate()
            .map(|(i, (s, l))| LiveRange {
                vreg: VReg(i as u32),
                instance: 0,
                interval: CyclicInterval::new(s, l, circle),
                cost: 1.0 + (i % 5) as f64,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    #[test]
    fn overlap_is_symmetric(a in (0i64..12, 0i64..14), b in (0i64..12, 0i64..14)) {
        let x = CyclicInterval::new(a.0, a.1, 12);
        let y = CyclicInterval::new(b.0, b.1, 12);
        prop_assert_eq!(x.overlaps(&y), y.overlaps(&x));
    }

    #[test]
    fn overlap_iff_common_point(a in (0i64..10, 0i64..11), b in (0i64..10, 0i64..11)) {
        let x = CyclicInterval::new(a.0, a.1, 10);
        let y = CyclicInterval::new(b.0, b.1, 10);
        let common = (0..10).any(|p| x.covers(p) && y.covers(p));
        prop_assert_eq!(x.overlaps(&y), common);
    }

    /// Interference is interval overlap, whether the circle fits a point
    /// mask (16 and 64 cycles) or not (80).
    #[test]
    fn interference_is_overlap(a in ranges(16), b in ranges(64), c in ranges(80)) {
        for rs in [a, b, c] {
            let g = InterferenceGraph::build(&rs);
            for i in 0..rs.len() {
                for j in 0..rs.len() {
                    let overlap = i != j && rs[i].interval.overlaps(&rs[j].interval);
                    prop_assert_eq!(g.interferes(i, j), overlap);
                }
            }
        }
    }

    /// The sweep's MaxLive is the largest number of ranges covering any
    /// one point.
    #[test]
    fn pressure_is_the_densest_point(a in ranges(16), b in ranges(64), c in ranges(80)) {
        for rs in [a, b, c] {
            let circle = rs[0].interval.circle;
            let densest = (0..circle)
                .map(|p| rs.iter().filter(|r| r.interval.covers(p)).count())
                .max()
                .unwrap_or(0);
            prop_assert_eq!(max_pressure(&rs), densest);
        }
    }

    #[test]
    fn coloring_is_always_valid_whatever_k(rs in ranges(16), k in 1usize..8) {
        let g = InterferenceGraph::build(&rs);
        let out = color_graph(&g, &rs, k);
        prop_assert!(out.is_valid(&g));
        prop_assert!(out.n_colors_used <= k);
        // Spilled + coloured = all nodes.
        let colored = out.colors.iter().filter(|c| c.is_some()).count();
        prop_assert_eq!(colored + out.n_spilled, rs.len());
    }

    #[test]
    fn enough_colors_means_no_spills(rs in ranges(16)) {
        let g = InterferenceGraph::build(&rs);
        // Max degree + 1 colours always suffice (greedy bound).
        let k = (0..g.n_nodes()).map(|i| g.degree(i)).max().unwrap_or(0) + 1;
        let out = color_graph(&g, &rs, k);
        prop_assert_eq!(out.n_spilled, 0);
        prop_assert!(out.is_valid(&g));
    }
}
