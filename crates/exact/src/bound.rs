//! The admissible lower bound that drives branch-and-bound pruning.
//!
//! Given a partial assignment, any completion pays at least:
//!
//! 1. the cost already committed by the assigned prefix (tracked
//!    incrementally by the search, not recomputed here);
//! 2. for every unassigned register, the cheapest cost of its edges *to
//!    already-assigned registers* over every bank it could still take
//!    ([`unassigned_edge_bound`]);
//! 3. a pigeonhole term over repulsion cliques ([`clique_bound`]): the
//!    repulsion edges are covered once per solve by edge-disjoint cliques
//!    of more registers than banks ([`repulsion_cliques`]). If `u` members
//!    of a clique are still unassigned, any completion puts at least
//!    [`forced_pairs`]`(u, banks)` of their pairs in one bank, and each
//!    such pair costs at least the clique's smallest `|w|`. Every other
//!    edge between two unassigned registers is bounded by zero, since an
//!    attraction can still be kept whole and a repulsion outside a clique
//!    can still be split;
//! 4. a water-filling relaxation of the balance term: the remaining
//!    registers are spread fractionally-optimally (always topping up the
//!    emptiest bank) with the per-register edge costs ignored.
//!
//! Each assigned↔unassigned edge is counted exactly once — at its unassigned
//! endpoint — and part 3 counts only edges with both endpoints unassigned,
//! each in at most one clique, so the parts never double-count and the bound
//! is admissible: it never exceeds the true cost of the best completion.

/// Sentinel for "this register has no bank yet" in the search's dense
/// assignment array (bank indices are `u8`, capped well below this).
pub const UNASSIGNED: u8 = u8::MAX;

/// Cost contributed by `v`'s edges to *already-assigned* neighbours if `v`
/// is placed in bank `b`. `adj_v` is `v`'s adjacency as
/// `(neighbour_index, weight)`; `assigned` maps register index → bank or
/// [`UNASSIGNED`].
#[inline]
pub fn assign_edge_cost(adj_v: &[(usize, f64)], assigned: &[u8], b: u8) -> f64 {
    let mut cost = 0.0;
    for &(u, w) in adj_v {
        let bu = assigned[u];
        if bu == UNASSIGNED {
            continue;
        }
        if w > 0.0 {
            if bu != b {
                cost += w;
            }
        } else if bu == b {
            cost += -w;
        }
    }
    cost
}

/// Part 2 of the bound: sum over unassigned registers of the cheapest
/// edge cost against the assigned prefix.
///
/// `used` is the number of banks the prefix occupies (always the contiguous
/// range `0..used`, maintained by symmetry breaking). A register can land in
/// an occupied bank or in *some* fresh bank — and all fresh banks price
/// identically (no assigned neighbours live there) — so scanning banks
/// `0..min(used + 1, n_banks)` covers every bank any completion could use.
pub fn unassigned_edge_bound(
    adj: &[Vec<(usize, f64)>],
    assigned: &[u8],
    used: usize,
    n_banks: usize,
) -> f64 {
    let cand = (used + 1).min(n_banks);
    let mut total = 0.0;
    for (v, adj_v) in adj.iter().enumerate() {
        if assigned[v] != UNASSIGNED {
            continue;
        }
        let mut best = f64::INFINITY;
        for b in 0..cand {
            let c = assign_edge_cost(adj_v, assigned, b as u8);
            if c < best {
                best = c;
            }
            if best == 0.0 {
                break; // cannot beat zero: every term is non-negative
            }
        }
        total += best;
    }
    total
}

/// A set of registers that pairwise repel, from [`repulsion_cliques`].
#[derive(Debug, Clone, PartialEq)]
pub struct Clique {
    /// Member register indices, ascending.
    pub members: Vec<usize>,
    /// Smallest `|w|` over the repulsion edges between members.
    pub min_weight: f64,
}

/// The fewest same-bank pairs `u` registers can form in `k` banks: spread
/// them evenly, so `r = u mod k` banks hold `q + 1` registers and the other
/// `k − r` hold `q = u div k`, giving `r·C(q+1, 2) + (k−r)·C(q, 2)`. Zero
/// while `u ≤ k`.
pub fn forced_pairs(u: usize, k: usize) -> usize {
    let (q, r) = (u / k, u % k);
    r * (q + 1) * q / 2 + (k - r) * q * q.saturating_sub(1) / 2
}

/// Cover the repulsion edges (`w < 0`) of `adj` with edge-disjoint cliques
/// of more than `n_banks` registers, the cliques part 3 of the bound
/// prices.
///
/// Greedy on bitset rows of the not-yet-covered repulsion edges: from every
/// start register, grow a clique by repeatedly adding the candidate (a
/// register repelling every member) with the most candidate neighbours,
/// ties to the lower index. Keep the largest clique over all starts, ties
/// to the earlier start, remove its edges, and repeat until no clique
/// larger than `n_banks` is found. Deterministic: the result depends only
/// on `adj` and `n_banks`.
pub fn repulsion_cliques(adj: &[Vec<(usize, f64)>], n_banks: usize) -> Vec<Clique> {
    let n = adj.len();
    let words = n.div_ceil(64);
    let mut rows = vec![0u64; n * words];
    for (v, adj_v) in adj.iter().enumerate() {
        for &(u, w) in adj_v {
            if w < 0.0 {
                rows[v * words + u / 64] |= 1 << (u % 64);
            }
        }
    }
    let mut cliques = Vec::new();
    let (mut clique, mut cand) = (Vec::with_capacity(n), vec![0u64; words]);
    loop {
        let mut best: Vec<usize> = Vec::new();
        for s in 0..n {
            // Only a clique larger than the best so far (and than
            // `n_banks`) is kept, so growth may give up as soon as it
            // cannot get there; the result is unchanged.
            let beat = best.len().max(n_banks);
            if grow_clique(&rows, s, beat, &mut clique, &mut cand) {
                best.clone_from(&clique);
            }
        }
        if best.is_empty() {
            cliques.shrink_to_fit();
            return cliques;
        }
        best.sort_unstable();
        best.shrink_to_fit();
        let mut min_weight = f64::INFINITY;
        for (i, &a) in best.iter().enumerate() {
            for &b in &best[i + 1..] {
                rows[a * words + b / 64] &= !(1 << (b % 64));
                rows[b * words + a / 64] &= !(1 << (a % 64));
            }
            for &(b, w) in &adj[a] {
                if b > a && best.binary_search(&b).is_ok() {
                    min_weight = min_weight.min(-w);
                }
            }
        }
        cliques.push(Clique {
            members: best,
            min_weight,
        });
    }
}

/// Grow the greedy clique of [`repulsion_cliques`] from `start` into
/// `clique` (scratch `cand` holds the candidates, one bitset row wide).
/// Returns whether it has more than `beat` members; gives up early once it
/// cannot.
fn grow_clique(
    rows: &[u64],
    start: usize,
    beat: usize,
    clique: &mut Vec<usize>,
    cand: &mut [u64],
) -> bool {
    let words = cand.len();
    let row = |v: usize| &rows[v * words..(v + 1) * words];
    clique.clear();
    clique.push(start);
    cand.copy_from_slice(row(start));
    loop {
        let open: usize = cand.iter().map(|x| x.count_ones() as usize).sum();
        if clique.len() + open <= beat {
            return false;
        }
        let mut pick: Option<(usize, u32)> = None;
        for (i, &word) in cand.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let c = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let links = row(c)
                    .iter()
                    .zip(cand.iter())
                    .map(|(x, y)| (x & y).count_ones())
                    .sum();
                if pick.is_none_or(|(_, best)| links > best) {
                    pick = Some((c, links));
                }
            }
        }
        let Some((c, links)) = pick else {
            return true;
        };
        // The pick has the most candidate neighbours, so the clique can
        // grow by at most `links + 1` more members.
        if clique.len() + 1 + links as usize <= beat {
            return false;
        }
        clique.push(c);
        for (x, y) in cand.iter_mut().zip(row(c)) {
            *x &= y;
        }
    }
}

/// Part 3 of the bound, from scratch: per clique, its smallest `|w|` times
/// the same-bank pairs its unassigned members are forced into.
pub fn clique_bound(cliques: &[Clique], assigned: &[u8], n_banks: usize) -> f64 {
    let mut total = 0.0;
    for c in cliques {
        let u = c
            .members
            .iter()
            .filter(|&&v| assigned[v] == UNASSIGNED)
            .count();
        total += c.min_weight * forced_pairs(u, n_banks) as f64;
    }
    total
}

/// Part 4 of the bound: the smallest possible *increase* of the quadratic
/// balance term when `remaining` more registers join banks whose current
/// occupancies are `counts`.
///
/// Relaxation: ignore which registers go where and water-fill — each of the
/// `remaining` registers is appended to the currently emptiest bank, which
/// minimises `Σ count²` over all integer distributions (adding to a bank of
/// size `c` costs `2c + 1`, so always picking the smallest `c` is exchange-
/// argument optimal).
pub fn balance_relaxation(counts: &[u32], remaining: usize, balance_weight: f64) -> f64 {
    if balance_weight == 0.0 || remaining == 0 {
        return 0.0;
    }
    let mut c: Vec<u32> = counts.to_vec();
    let mut increase = 0u64;
    for _ in 0..remaining {
        let (i, &min) = c
            .iter()
            .enumerate()
            .min_by_key(|&(_, &v)| v)
            .expect("at least one bank");
        increase += 2 * u64::from(min) + 1;
        c[i] = min + 1;
    }
    balance_weight * increase as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_cost_counts_cut_attraction_and_kept_repulsion() {
        // v has neighbours 0 (assigned bank 0, +2.0) and 1 (assigned bank 1,
        // -3.0); neighbour 2 is unassigned and must not contribute.
        let adj_v = vec![(0usize, 2.0), (1usize, -3.0), (2usize, 5.0)];
        let assigned = [0, 1, UNASSIGNED, UNASSIGNED];
        // Bank 0: attraction kept (0), repulsion split (0).
        assert_eq!(assign_edge_cost(&adj_v, &assigned, 0), 0.0);
        // Bank 1: attraction cut (+2), repulsion kept (+3).
        assert_eq!(assign_edge_cost(&adj_v, &assigned, 1), 5.0);
        // Fresh bank 2: attraction cut (+2), repulsion split (0).
        assert_eq!(assign_edge_cost(&adj_v, &assigned, 2), 2.0);
    }

    #[test]
    fn unassigned_bound_picks_cheapest_bank_per_node() {
        // Node 0 assigned to bank 0. Node 1 attracts it (+4): cheapest is to
        // join bank 0 (cost 0). Node 2 repels it (-1): cheapest is any other
        // bank (cost 0). Bound must be 0, not 4 or 1.
        let adj = vec![
            vec![(1usize, 4.0), (2usize, -1.0)],
            vec![(0usize, 4.0)],
            vec![(0usize, -1.0)],
        ];
        let assigned = [0, UNASSIGNED, UNASSIGNED];
        assert_eq!(unassigned_edge_bound(&adj, &assigned, 1, 2), 0.0);
    }

    #[test]
    fn unassigned_bound_is_forced_with_one_bank() {
        // Single bank: the repulsion below cannot be split.
        let adj = vec![vec![(1usize, -2.0)], vec![(0usize, -2.0)]];
        let assigned = [0, UNASSIGNED];
        assert_eq!(unassigned_edge_bound(&adj, &assigned, 1, 1), 2.0);
    }

    #[test]
    fn forced_pairs_spreads_evenly() {
        assert_eq!(forced_pairs(0, 4), 0);
        assert_eq!(forced_pairs(4, 4), 0, "one register per bank");
        assert_eq!(forced_pairs(5, 4), 1);
        assert_eq!(forced_pairs(8, 4), 4, "two per bank: one pair each");
        assert_eq!(forced_pairs(9, 4), 6, "3+2+2+2: three pairs, then one each");
        assert_eq!(forced_pairs(3, 1), 3, "one bank keeps every pair");
        assert_eq!(forced_pairs(7, 2), 9, "4+3: six pairs and three");
    }

    /// Adjacency of the complete graph on `n` registers with weight
    /// `w(a, b)` on each pair (pairs with weight zero left out).
    fn complete(n: usize, mut w: impl FnMut(usize, usize) -> f64) -> Vec<Vec<(usize, f64)>> {
        let mut adj = vec![Vec::new(); n];
        for a in 0..n {
            for b in (a + 1)..n {
                let x = w(a, b);
                if x != 0.0 {
                    adj[a].push((b, x));
                    adj[b].push((a, x));
                }
            }
        }
        adj
    }

    #[test]
    fn five_mutual_repulsions_in_four_banks_force_one_pair() {
        // Registers 0..5 repel pairwise (weakest edge 0.5); register 5 only
        // attracts. Four banks: one clique of five, one forced pair.
        let adj = complete(6, |a, b| match (a, b) {
            (_, 5) => 2.0,
            (1, 3) => -0.5,
            _ => -1.0 - a as f64,
        });
        let cliques = repulsion_cliques(&adj, 4);
        assert_eq!(
            cliques,
            vec![Clique {
                members: vec![0, 1, 2, 3, 4],
                min_weight: 0.5
            }]
        );
        let mut assigned = [UNASSIGNED; 6];
        assert_eq!(clique_bound(&cliques, &assigned, 4), 0.5);
        // Once one member is placed, four fit in four banks.
        assigned[2] = 0;
        assert_eq!(clique_bound(&cliques, &assigned, 4), 0.0);
        // Five banks never force a pair, so there is no clique to price.
        assert!(repulsion_cliques(&adj, 5).is_empty());
    }

    proptest::proptest! {
        /// On random graphs (up to 70 registers, so bitset rows span two
        /// words), the cover's cliques are edge-disjoint, pairwise
        /// repelling, larger than the bank count, priced at their weakest
        /// edge, and the same on every call.
        #[test]
        fn cover_is_an_edge_disjoint_repulsion_clique_cover(
            n in 2usize..71,
            n_banks in 1usize..6,
            seed in 0u64..u64::MAX,
            repel_pct in 30u64..96,
        ) {
            let mut state = seed;
            let adj = complete(n, |_, _| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (state ^ (state >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let z = z ^ (z >> 32);
                match z % 100 {
                    p if p < repel_pct => -(((z >> 8) % 16 + 1) as f64) / 8.0,
                    p if p < 98 => ((z >> 8) % 16 + 1) as f64 / 8.0,
                    _ => 0.0,
                }
            });
            let weight = |a: usize, b: usize| {
                adj[a].iter().find(|&&(x, _)| x == b).map(|&(_, w)| w)
            };
            let cliques = repulsion_cliques(&adj, n_banks);
            let mut covered = std::collections::BTreeSet::new();
            for c in &cliques {
                proptest::prop_assert!(c.members.len() > n_banks);
                proptest::prop_assert!(c.members.windows(2).all(|p| p[0] < p[1]));
                let mut min_weight = f64::INFINITY;
                for (i, &a) in c.members.iter().enumerate() {
                    for &b in &c.members[i + 1..] {
                        let w = weight(a, b);
                        proptest::prop_assert!(
                            w.is_some_and(|w| w < 0.0),
                            "{a}-{b} is not a repulsion edge"
                        );
                        min_weight = min_weight.min(-w.unwrap());
                        proptest::prop_assert!(covered.insert((a, b)), "{a}-{b} covered twice");
                    }
                }
                proptest::prop_assert_eq!(c.min_weight, min_weight);
            }
            proptest::prop_assert_eq!(repulsion_cliques(&adj, n_banks), cliques);
        }
    }

    #[test]
    fn water_fill_tops_up_emptiest_bank() {
        // counts [2, 0], 3 remaining: fill 0,0,1 into bank 1 then tie →
        // increases 1 + 3 + min(2·2+1, 2·2+1)... sequence: bank1 (c=0, +1),
        // bank1 (c=1, +3), then both banks at 2 → +5. Total 9.
        assert_eq!(balance_relaxation(&[2, 0], 3, 1.0), 9.0);
        // The relaxation never exceeds any concrete placement: putting all 3
        // in bank 0 would cost (5²−2²) = 21.
        assert!(balance_relaxation(&[2, 0], 3, 1.0) <= 21.0);
    }

    #[test]
    fn zero_weight_or_zero_remaining_is_free() {
        assert_eq!(balance_relaxation(&[1, 1], 4, 0.0), 0.0);
        assert_eq!(balance_relaxation(&[1, 1], 0, 0.5), 0.0);
    }
}
