//! Brute-force enumeration oracle for testing the branch-and-bound.
//!
//! Scores *every* one of the `n_banks^n` complete assignments through the
//! reference [`partition_cost`] — no symmetry breaking, no bounds, no
//! dominance — and keeps the minimum (lexicographically smallest `bank_of`
//! on cost ties, matching the search's tie-break). Exponential on purpose:
//! it shares no optimisation, and therefore no potential bug, with the
//! search it checks. Guarded to tiny instances.

use crate::objective::partition_cost;
use vliw_core::{Partition, RcgGraph};
use vliw_machine::ClusterId;

/// Largest `n_banks^n` the oracle will enumerate (4 banks × 8 registers).
const MAX_ASSIGNMENTS: u64 = 65_536;

/// Exhaustively find a minimum-cost partition of `g` over `n_banks` banks.
///
/// Returns `(partition, cost)`. Panics if the instance would need more than
/// [`MAX_ASSIGNMENTS`] evaluations — the oracle exists for ≤8-register test
/// graphs, not as a solver.
pub fn brute_force(g: &RcgGraph, n_banks: usize, balance_weight: f64) -> (Partition, f64) {
    assert!(n_banks >= 1, "at least one bank");
    let n = g.n_nodes();
    let total = (n_banks as u64)
        .checked_pow(n as u32)
        .filter(|&t| t <= MAX_ASSIGNMENTS)
        .unwrap_or_else(|| panic!("oracle refuses {n_banks}^{n} assignments"));

    let mut banks = vec![0u32; n];
    let mut best: Option<(f64, Vec<u32>)> = None;
    for _ in 0..total {
        let part = Partition {
            bank_of: banks.iter().map(|&b| ClusterId(b)).collect(),
            n_banks,
        };
        let cost = partition_cost(g, &part, balance_weight);
        let replace = match &best {
            None => true,
            // Counting order visits lexicographically ascending vectors, so
            // on an exact cost tie the earlier (smaller) one is kept.
            Some((bc, _)) => cost < *bc,
        };
        if replace {
            best = Some((cost, banks.clone()));
        }
        // Next assignment: increment the base-n_banks counter, least
        // significant digit LAST so iteration order is lexicographic.
        for d in (0..n).rev() {
            banks[d] += 1;
            if (banks[d] as usize) < n_banks {
                break;
            }
            banks[d] = 0;
        }
    }

    let (cost, bank_of) = best.expect("at least the all-zeros assignment");
    (
        Partition {
            bank_of: bank_of.into_iter().map(ClusterId).collect(),
            n_banks,
        },
        cost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::repulsion_cliques;
    use crate::search::{dense_adjacency, solve, ExactConfig};
    use vliw_ir::VReg;

    /// Deterministic pseudo-random test graph (SplitMix64 weights in
    /// `-2.5..=2.5`, about one pair in `density_mod` left unconnected).
    fn random_graph(n: u32, seed: u64, density_mod: u64) -> RcgGraph {
        random_graph_with(n, seed, density_mod, |z| (z % 11) as f64 / 2.0 - 2.5)
    }

    /// Like [`random_graph`], but seven edges in eight repel (weights in
    /// eighths), so the clique term of the bound has cliques to price.
    fn repulsion_dense_graph(n: u32, seed: u64) -> RcgGraph {
        random_graph_with(n, seed, 7, |z| {
            let w = ((z >> 8) % 16 + 1) as f64 / 8.0;
            if z % 8 == 0 {
                w
            } else {
                -w
            }
        })
    }

    fn random_graph_with(
        n: u32,
        seed: u64,
        density_mod: u64,
        weight: impl Fn(u64) -> f64,
    ) -> RcgGraph {
        let mut g = RcgGraph::new(n as usize);
        let mut state = seed;
        for a in 0..n {
            for b in (a + 1)..n {
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                if z.is_multiple_of(density_mod) {
                    continue; // leave some pairs unconnected
                }
                let w = weight(z);
                if w != 0.0 {
                    g.bump_edge(VReg(a), VReg(b), w);
                }
            }
        }
        g
    }

    #[test]
    fn oracle_agrees_with_itself_on_empty_graph() {
        let g = RcgGraph::new(3);
        let (p, c) = brute_force(&g, 2, 0.0);
        assert_eq!(c, 0.0);
        // Lex-min tie-break: everything in bank 0.
        assert!(p.bank_of.iter().all(|b| b.index() == 0));
    }

    #[test]
    fn branch_and_bound_matches_oracle_cost() {
        // The acceptance-criterion test: over a spread of random ≤6-register
        // graphs and bank counts, B&B and enumeration agree on the optimum.
        // Repulsion-dense graphs of 5–8 registers hold cliques larger than
        // the bank count, so they exercise the bound's clique term too.
        let mut cases = Vec::new();
        for n in 2..=6u32 {
            for n_banks in [2usize, 3, 4] {
                for seed in 0..12u64 {
                    let g = random_graph(n, seed * 1_000 + n as u64, 3);
                    cases.push((format!("n={n} banks={n_banks} seed={seed}"), g, n_banks));
                }
            }
        }
        for n in 5..=8u32 {
            for n_banks in [1usize, 2, 3, 4] {
                for seed in 0..6u64 {
                    let g = repulsion_dense_graph(n, seed * 1_000 + n as u64);
                    let name = format!("repulsion-dense n={n} banks={n_banks} seed={seed}");
                    cases.push((name, g, n_banks));
                }
            }
        }
        assert_eq!(cases.len(), 5 * 3 * 12 + 4 * 4 * 6);
        let cliqued = cases
            .iter()
            .filter(|(_, g, k)| !repulsion_cliques(&dense_adjacency(g), *k).is_empty())
            .count();
        assert!(
            cliqued >= 64,
            "only {cliqued} cases price a repulsion clique"
        );
        for (name, g, n_banks) in &cases {
            let (_, oracle_cost) = brute_force(g, *n_banks, 0.0);
            let r = solve(g, *n_banks, None, &ExactConfig::default());
            assert!(r.optimal, "{name} must close");
            assert!(
                (r.cost - oracle_cost).abs() <= 1e-9,
                "{name}: b&b {} vs oracle {}",
                r.cost,
                oracle_cost
            );
            // The returned partition must actually realise the cost.
            assert!(
                (partition_cost(g, &r.partition, 0.0) - r.cost).abs() <= 1e-9,
                "{name}: reported cost must match the returned partition"
            );
        }
    }

    #[test]
    fn branch_and_bound_matches_oracle_with_balance() {
        for seed in 0..6u64 {
            let g = random_graph(5, 42 + seed, 2);
            let (_, oracle_cost) = brute_force(&g, 3, 0.4);
            let cfg = ExactConfig {
                balance_weight: 0.4,
                ..Default::default()
            };
            let r = solve(&g, 3, None, &cfg);
            assert!(r.optimal);
            assert!(
                (r.cost - oracle_cost).abs() <= 1e-9,
                "seed={seed}: b&b {} vs oracle {}",
                r.cost,
                oracle_cost
            );
        }
    }

    #[test]
    #[should_panic]
    fn oracle_refuses_oversized_instances() {
        let g = RcgGraph::new(20);
        let _ = brute_force(&g, 4, 0.0);
    }
}
