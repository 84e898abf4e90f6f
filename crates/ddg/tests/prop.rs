//! Property tests for dependence analysis: RecII is the exact feasibility
//! boundary, longest paths are internally consistent, and the O(V·E)
//! Bellman–Ford kernels agree with the dense Floyd–Warshall reference on
//! arbitrary (multi-cycle and acyclic) graphs.

use proptest::prelude::*;
use vliw_ddg::{rec_ii, rec_ii_dense, Ddg, DepEdge, DepKind, NO_PATH};
use vliw_ir::OpId;

fn arbitrary_graph() -> impl Strategy<Value = Ddg> {
    (
        2usize..12,
        proptest::collection::vec((any::<u8>(), any::<u8>(), 1u8..13, 0u8..3), 1..24),
    )
        .prop_map(|(n, raw)| {
            let mut edges = Vec::new();
            for (f, t, lat, dist) in raw {
                let from = OpId((f as usize % n) as u32);
                let to = OpId((t as usize % n) as u32);
                if from == to && dist == 0 {
                    continue; // zero-distance self loop is never feasible
                }
                // Keep distance-0 edges forward so the graph matches the
                // builder invariant (program order).
                let (from, to, dist) = if dist == 0 && from.index() > to.index() {
                    (to, from, 0)
                } else {
                    (from, to, dist)
                };
                edges.push(DepEdge {
                    from,
                    to,
                    latency: lat as i64,
                    distance: dist as u32,
                    kind: DepKind::Flow,
                });
            }
            Ddg::from_edges(n, edges)
        })
}

/// A graph with only distance-0 (forward) edges — always acyclic.
fn acyclic_graph() -> impl Strategy<Value = Ddg> {
    (
        2usize..12,
        proptest::collection::vec((any::<u8>(), any::<u8>(), 1u8..13), 1..24),
    )
        .prop_map(|(n, raw)| {
            let mut edges = Vec::new();
            for (f, t, lat) in raw {
                let a = f as usize % n;
                let b = t as usize % n;
                if a == b {
                    continue;
                }
                let (from, to) = (a.min(b), a.max(b));
                edges.push(DepEdge {
                    from: OpId(from as u32),
                    to: OpId(to as u32),
                    latency: lat as i64,
                    distance: 0,
                    kind: DepKind::Flow,
                });
            }
            Ddg::from_edges(n, edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn rec_ii_is_the_feasibility_boundary(g in arbitrary_graph()) {
        let r = rec_ii(&g);
        prop_assert!(g.longest_paths(r).is_some(), "RecII itself must be feasible");
        if r > 1 {
            prop_assert!(g.longest_paths(r - 1).is_none(), "RecII-1 must be infeasible");
        }
    }

    #[test]
    fn feasibility_is_monotone(g in arbitrary_graph(), bump in 1u32..5) {
        let r = rec_ii(&g);
        prop_assert!(g.longest_paths(r + bump).is_some());
    }

    #[test]
    fn bellman_ford_feasibility_matches_floyd_warshall(
        g in arbitrary_graph(),
        ii in 1u32..32,
    ) {
        prop_assert_eq!(g.is_feasible(ii), g.longest_paths(ii).is_some());
    }

    #[test]
    fn rec_ii_matches_dense_reference(g in arbitrary_graph()) {
        prop_assert_eq!(rec_ii(&g), rec_ii_dense(&g));
    }

    #[test]
    fn rec_ii_of_acyclic_graphs_is_1_under_both_kernels(g in acyclic_graph()) {
        prop_assert_eq!(rec_ii(&g), 1);
        prop_assert_eq!(rec_ii_dense(&g), 1);
        prop_assert!(!g.has_recurrence());
        prop_assert!(g.is_feasible(1));
    }

    #[test]
    fn dfs_recurrence_matches_matrix_diagonal(g in arbitrary_graph()) {
        // The huge-II matrix has a path i→i exactly when some cycle exists —
        // the pre-refactor definition of `has_recurrence`.
        let d = g.longest_paths(1_000_000).expect("II=1e6 must be feasible");
        let dense = (0..g.n_ops()).any(|i| d.has_path(i, i));
        prop_assert_eq!(g.has_recurrence(), dense);
    }

    #[test]
    fn source_distances_match_matrix_row_maxima(g in arbitrary_graph()) {
        // Longest path from the virtual source to v = max(0, max_i d[i][v]).
        let r = rec_ii(&g);
        let dist = g.longest_from_source(r).expect("RecII is feasible");
        let d = g.longest_paths(r).unwrap();
        for (v, &dv) in dist.iter().enumerate().take(g.n_ops()) {
            let best = (0..g.n_ops())
                .filter(|&i| d.has_path(i, v))
                .map(|i| d.at(i, v))
                .max()
                .unwrap_or(0)
                .max(0);
            prop_assert_eq!(dv, best);
        }
    }

    #[test]
    fn longest_paths_satisfy_triangle_rule(g in arbitrary_graph()) {
        let r = rec_ii(&g);
        let d = g.longest_paths(r).unwrap();
        let n = d.n_ops();
        // d[i][j] ≥ d[i][k] + d[k][j] can't be violated after Floyd-Warshall.
        for i in 0..n {
            for k in 0..n {
                for j in 0..n {
                    if d[(i, k)] > NO_PATH && d[(k, j)] > NO_PATH {
                        prop_assert!(d[(i, j)] >= d[(i, k)] + d[(k, j)]);
                    }
                }
            }
        }
    }

    #[test]
    fn edge_weights_bounded_by_path_matrix(g in arbitrary_graph()) {
        let r = rec_ii(&g);
        let d = g.longest_paths(r).unwrap();
        for e in g.edges() {
            let w = e.latency - (r as i64) * (e.distance as i64);
            prop_assert!(d[(e.from.index(), e.to.index())] >= w);
        }
    }
}
