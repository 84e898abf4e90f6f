//! The objective the exact search minimises.
//!
//! A complete bank assignment is scored directly on the register component
//! graph: every *attraction* edge (positive weight — def and use in the same
//! operation, §4.1) whose endpoints land in different banks will force a
//! cross-bank copy, so it pays its weight; every *repulsion* edge (negative
//! weight — two defs in the same ideal-kernel row) whose endpoints share a
//! bank risks serialising the defining operations, so it pays its magnitude.
//! Both contributions are non-negative, which the bound exploits: an edge
//! between two registers not yet placed can still cost nothing, so it is
//! bounded by zero.
//!
//! An optional quadratic balance term (`balance_weight · Σ_b count_b²`)
//! penalises piling registers into few banks. It defaults to off — the gap
//! harness wants a pure copy-cost yardstick, and the greedy heuristic's own
//! balance penalty is a *scheduling* heuristic, not part of the objective
//! the paper's figure of merit measures.

use vliw_core::{Partition, RcgGraph};

/// Cost contributed by a single RCG edge of weight `w` whose endpoints are
/// (`same = true`) or are not (`same = false`) in the same bank.
#[inline]
pub fn edge_cost(w: f64, same: bool) -> f64 {
    if w > 0.0 && !same {
        w // cut attraction: a cross-bank copy will be inserted
    } else if w < 0.0 && same {
        -w // uncut repulsion: same-row defs compete for one cluster
    } else {
        0.0
    }
}

/// Quadratic balance penalty of the bank occupancy counts.
#[inline]
pub fn balance_cost(counts: &[usize], balance_weight: f64) -> f64 {
    if balance_weight == 0.0 {
        return 0.0;
    }
    balance_weight * counts.iter().map(|&c| (c * c) as f64).sum::<f64>()
}

/// Total objective of a complete partition of `g`'s registers.
///
/// This is the reference implementation — the search reconstructs the same
/// value incrementally, and the enumeration oracle and the property tests
/// both score candidates through this function so any drift between the
/// incremental and whole-partition forms is caught immediately.
pub fn partition_cost(g: &RcgGraph, part: &Partition, balance_weight: f64) -> f64 {
    debug_assert_eq!(g.n_nodes(), part.bank_of.len());
    let mut cost = 0.0;
    for (a, b, w) in g.edges() {
        cost += edge_cost(w, part.bank(a) == part.bank(b));
    }
    cost + balance_cost(&part.sizes(), balance_weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::VReg;
    use vliw_machine::ClusterId;

    fn part(banks: &[u32], n_banks: usize) -> Partition {
        Partition {
            bank_of: banks.iter().map(|&b| ClusterId(b)).collect(),
            n_banks,
        }
    }

    #[test]
    fn cut_attraction_pays_its_weight() {
        let mut g = RcgGraph::new(2);
        g.bump_edge(VReg(0), VReg(1), 3.0);
        assert_eq!(partition_cost(&g, &part(&[0, 0], 2), 0.0), 0.0);
        assert_eq!(partition_cost(&g, &part(&[0, 1], 2), 0.0), 3.0);
    }

    #[test]
    fn uncut_repulsion_pays_its_magnitude() {
        let mut g = RcgGraph::new(2);
        g.bump_edge(VReg(0), VReg(1), -2.5);
        assert_eq!(partition_cost(&g, &part(&[0, 0], 2), 0.0), 2.5);
        assert_eq!(partition_cost(&g, &part(&[0, 1], 2), 0.0), 0.0);
    }

    #[test]
    fn balance_term_prefers_even_spread() {
        let g = RcgGraph::new(4);
        let piled = partition_cost(&g, &part(&[0, 0, 0, 0], 2), 0.1);
        let even = partition_cost(&g, &part(&[0, 0, 1, 1], 2), 0.1);
        assert!(even < piled);
    }

    #[test]
    fn cost_is_never_negative() {
        let mut g = RcgGraph::new(3);
        g.bump_edge(VReg(0), VReg(1), 4.0);
        g.bump_edge(VReg(1), VReg(2), -1.0);
        for banks in [[0, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]] {
            assert!(partition_cost(&g, &part(&banks, 2), 0.0) >= 0.0);
        }
    }
}
