//! Lower bounds on the initiation interval: ResII, RecII, MinII.

use crate::graph::Ddg;
use vliw_ir::Loop;
use vliw_machine::MachineDesc;

/// Resource-constrained minimum II on `m` for the (unpartitioned) loop:
/// every operation needs one of the machine's general-purpose functional
/// units, so `ResII = ⌈n_ops / issue_width⌉`.
///
/// (Clustered resource bounds — per-cluster FU pressure, copy busses and
/// ports — are enforced by the modulo reservation table during scheduling,
/// not folded into this a-priori bound.)
pub fn res_ii(l: &Loop, m: &MachineDesc) -> u32 {
    let w = m.issue_width().max(1);
    l.n_ops().div_ceil(w).max(1) as u32
}

/// Recurrence-constrained minimum II: the smallest II such that the
/// dependence graph has no positive cycle under edge weights
/// `latency − II·distance`. Computed by binary search over II with the
/// O(V·E) Bellman–Ford feasibility test ([`Ddg::is_feasible_with`]);
/// monotonicity of feasibility in II makes the search exact. Total cost is
/// O(V·E·log Σlat) with a single O(V) scratch allocation — no n×n matrix
/// is ever materialised.
pub fn rec_ii(g: &Ddg) -> u32 {
    let mut scratch = Vec::new();
    // Upper bound: sum of all positive latencies is always feasible.
    let hi_bound: i64 = g.edges().iter().map(|e| e.latency.max(0)).sum::<i64>() + 1;
    let (mut lo, mut hi) = (1u32, hi_bound.max(1) as u32);
    if g.is_feasible_with(lo, &mut scratch) {
        return lo;
    }
    debug_assert!(
        g.is_feasible_with(hi, &mut scratch),
        "upper bound must be feasible"
    );
    // Invariant: lo infeasible, hi feasible.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if g.is_feasible_with(mid, &mut scratch) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Reference RecII via the dense Floyd–Warshall matrix — the original
/// O(n³·log Σlat) formulation. Kept as the oracle the property tests and
/// the perf baseline pin the fast [`rec_ii`] against; production callers
/// should never need it.
pub fn rec_ii_dense(g: &Ddg) -> u32 {
    let mut m = crate::graph::PathMatrix::new();
    let hi_bound: i64 = g.edges().iter().map(|e| e.latency.max(0)).sum::<i64>() + 1;
    let (mut lo, mut hi) = (1u32, hi_bound.max(1) as u32);
    if g.longest_paths_into(lo, &mut m) {
        return lo;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if g.longest_paths_into(mid, &mut m) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// `MinII = max(ResII, RecII)` — the starting point for iterative modulo
/// scheduling.
pub fn min_ii(l: &Loop, g: &Ddg, m: &MachineDesc) -> u32 {
    res_ii(l, m).max(rec_ii(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_ddg;
    use crate::graph::{DepEdge, DepKind};
    use vliw_ir::{LoopBuilder, OpId, RegClass};
    use vliw_machine::{LatencyTable, MachineDesc};

    fn flow(f: u32, t: u32, latency: i64, distance: u32) -> DepEdge {
        DepEdge {
            from: OpId(f),
            to: OpId(t),
            latency,
            distance,
            kind: DepKind::Flow,
        }
    }

    #[test]
    fn res_ii_rounds_up() {
        let mut b = LoopBuilder::new("r");
        for _ in 0..17 {
            b.fconst_new(1.0);
        }
        let l = b.finish(1);
        let m = MachineDesc::monolithic(16);
        assert_eq!(res_ii(&l, &m), 2);
        let m4 = MachineDesc::monolithic(4);
        assert_eq!(res_ii(&l, &m4), 5);
    }

    #[test]
    fn rec_ii_of_acyclic_graph_is_1() {
        let g = Ddg::from_edges(3, [flow(0, 1, 12, 0)]);
        assert_eq!(rec_ii(&g), 1);
    }

    #[test]
    fn rec_ii_simple_cycle() {
        // latency 7 over distance 2 ⇒ RecII = ⌈7/2⌉ = 4.
        let g = Ddg::from_edges(2, [flow(0, 1, 5, 0), flow(1, 0, 2, 2)]);
        assert_eq!(rec_ii(&g), 4);
    }

    #[test]
    fn rec_ii_takes_worst_cycle() {
        // Cycle A: 3/1 ⇒ 3. Cycle B: 10/2 ⇒ 5.
        let cycles = [(0, 1, 2, 0), (1, 0, 1, 1), (2, 3, 6, 0), (3, 2, 4, 2)];
        let g = Ddg::from_edges(4, cycles.map(|(f, t, lat, d)| flow(f, t, lat, d)));
        assert_eq!(rec_ii(&g), 5);
        assert_eq!(rec_ii_dense(&g), 5);
    }

    #[test]
    fn first_order_recurrence_rec_ii_matches_hand_computation() {
        // s = a*s + x[i]: cycle fmul(2) → fadd(2) → fmul (dist 1) ⇒ RecII 4.
        let mut b = LoopBuilder::new("rec1");
        let x = b.array("x", RegClass::Float, 32);
        let a = b.live_in_float("a");
        let s = b.live_in_float_val("s", 0.0);
        let xv = b.load(x, 0, 1);
        let t = b.fmul(a, s);
        b.fadd_into(s, t, xv);
        b.live_out(s);
        let l = b.finish(32);
        let g = build_ddg(&l, &LatencyTable::paper());
        assert_eq!(rec_ii(&g), 4);
        let m = MachineDesc::monolithic(16);
        assert_eq!(min_ii(&l, &g, &m), 4);
    }
}
