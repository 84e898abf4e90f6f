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
//!
//! A second admissible bound, the **star bound** ([`star_bound`]), prices
//! what part 3 misses on many banks: an attraction star, a centre register
//! attracted to two or more registers that pairwise repel (the RCG of
//! `p = x·y; s += p` makes `p` one, with leaves `x`, `y` and `s` defined
//! in one instruction). Keeping the attractions whole puts the leaves in
//! one bank, where each pair pays its repulsion; splitting them cuts
//! attractions; either way the star costs something, yet on eight banks a
//! repulsion clique needs nine members before it counts. Once per solve,
//! [`attraction_stars`] covers the graph with vertex-disjoint stars and
//! [`rest_cliques`] covers the repulsion edges that are not leaf pairs of
//! a star with cliques. The star bound is the partial cost, plus part 2
//! for the registers in no star, plus one [`star_term`] per star (priced
//! jointly from its members' edges to the prefix and its own edges), plus
//! the rest cover's clique term, plus part 4. Stars share no register and
//! the rest cover no edge with a star, so nothing is counted twice; the
//! search takes the larger of the two bounds.

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

/// The repulsion edges of `adj` as bitset rows, `n.div_ceil(64)` words per
/// register.
fn repulsion_rows(adj: &[Vec<(usize, f64)>]) -> Vec<u64> {
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
    rows
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
    cover_cliques(adj, repulsion_rows(adj), n_banks)
}

/// [`repulsion_cliques`] over the repulsion edges that are not leaf pairs
/// of `stars`: the clique cover the star bound adds, which must not price
/// an edge a star term already prices.
pub fn rest_cliques(adj: &[Vec<(usize, f64)>], stars: &[Star], n_banks: usize) -> Vec<Clique> {
    let mut rows = repulsion_rows(adj);
    let words = adj.len().div_ceil(64);
    for s in stars {
        for &(a, _) in &s.leaves {
            for &(b, _) in &s.leaves {
                rows[a * words + b / 64] &= !(1 << (b % 64));
            }
        }
    }
    cover_cliques(adj, rows, n_banks)
}

/// The greedy cover of [`repulsion_cliques`] over the edges left in `rows`.
fn cover_cliques(adj: &[Vec<(usize, f64)>], mut rows: Vec<u64>, n_banks: usize) -> Vec<Clique> {
    let n = adj.len();
    let words = n.div_ceil(64);
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

/// Most leaves a star may have. A centre's star is chosen from its
/// heaviest attractions only (ties to the lower index), which bounds the
/// cover's subset search at `2^MAX_LEAVES` per centre.
pub const MAX_LEAVES: usize = 12;

/// An attraction star from [`attraction_stars`]: a centre register and at
/// least two of its attraction neighbours (the leaves) that pairwise repel.
/// Keeping every attraction whole puts the leaves in one bank, where each
/// pair pays its repulsion; splitting the leaves cuts attractions.
#[derive(Debug, Clone, PartialEq)]
pub struct Star {
    /// The centre register.
    pub centre: usize,
    /// `(leaf, w)` per leaf, ascending by register: the leaf and the weight
    /// of its attraction to the centre.
    pub leaves: Vec<(usize, f64)>,
    /// Smallest `|w|` over the repulsion edges between leaves.
    pub min_weight: f64,
}

/// A star's value with every register unassigned: `attract` holds its
/// leaves' attraction weights in descending order, `min_weight` its weakest
/// leaf–leaf `|w|`. The `j` heaviest leaves join the centre's bank and form
/// `C(j, 2)` repelled pairs; the rest are cut from the centre and form at
/// least [`forced_pairs`]`(m − j, k − 1)` pairs in the other banks.
fn root_value(attract: &[f64], min_weight: f64, n_banks: usize) -> f64 {
    let m = attract.len();
    let cut: f64 = attract.iter().sum();
    let mut best = cut + min_weight * forced_pairs(m, n_banks - 1) as f64;
    let mut kept = 0.0;
    for (j, &a) in (1..).zip(attract) {
        kept += a;
        let pairs = j * (j - 1) / 2 + forced_pairs(m - j, n_banks - 1);
        best = best.min(cut - kept + min_weight * pairs as f64);
    }
    best
}

/// Cover `adj` with vertex-disjoint attraction stars, the stars the star
/// bound prices. None with fewer than two banks.
///
/// Greedy and deterministic: every centre not yet in a star takes, from its
/// [`MAX_LEAVES`] heaviest attractions to registers not yet in a star, the
/// pairwise-repelling subset of at least two with the largest root value
/// (the star's term with every register unassigned; the first in search
/// order on ties). Keep the best star over all centres, ties to the lower
/// centre, remove its members, and repeat until no centre has one. A
/// centre's choice is recomputed only when one of its attraction
/// neighbours joins a star.
pub fn attraction_stars(adj: &[Vec<(usize, f64)>], n_banks: usize) -> Vec<Star> {
    let n = adj.len();
    if n_banks < 2 {
        return Vec::new();
    }
    let mut taken = vec![false; n];
    let mut best: Vec<Option<(f64, Star)>> = vec![None; n];
    let mut stale = vec![true; n];
    let mut stars = Vec::new();
    loop {
        let mut pick: Option<(usize, f64)> = None;
        for c in 0..n {
            if taken[c] {
                continue;
            }
            if stale[c] {
                best[c] = best_star(adj, c, &taken, n_banks);
                stale[c] = false;
            }
            if let Some((value, _)) = &best[c] {
                if pick.is_none_or(|(_, v)| *value > v) {
                    pick = Some((c, *value));
                }
            }
        }
        let Some((c, _)) = pick else {
            return stars;
        };
        let (_, star) = best[c].take().expect("picked centres have a star");
        for v in std::iter::once(c).chain(star.leaves.iter().map(|&(l, _)| l)) {
            taken[v] = true;
            for &(u, w) in &adj[v] {
                if w > 0.0 {
                    stale[u] = true;
                }
            }
        }
        stars.push(star);
    }
}

/// Centre `c`'s best star among registers not `taken`, with its root value.
fn best_star(
    adj: &[Vec<(usize, f64)>],
    c: usize,
    taken: &[bool],
    n_banks: usize,
) -> Option<(f64, Star)> {
    let mut nb: Vec<(usize, f64)> = adj[c]
        .iter()
        .filter(|&&(u, w)| w > 0.0 && !taken[u])
        .copied()
        .collect();
    nb.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
    nb.truncate(MAX_LEAVES);
    let d = nb.len();
    if d < 2 {
        return None;
    }
    // `repel[i * d + j]` is the |w| of the repulsion between candidates i
    // and j, 0 where they do not repel.
    let mut repel = vec![0.0; d * d];
    for (i, &(a, _)) in nb.iter().enumerate() {
        for &(b, w) in &adj[a] {
            if w < 0.0 {
                if let Some(j) = nb.iter().position(|&(x, _)| x == b) {
                    repel[i * d + j] = -w;
                }
            }
        }
    }
    let mut search = StarSearch {
        nb: &nb,
        repel: &repel,
        n_banks,
        chosen: Vec::with_capacity(d),
        attract: Vec::with_capacity(d),
        best: None,
    };
    search.grow(0, f64::INFINITY);
    let (value, members, min_weight) = search.best?;
    let mut leaves: Vec<(usize, f64)> = members.into_iter().map(|i| nb[i]).collect();
    leaves.sort_unstable_by_key(|&(l, _)| l);
    Some((
        value,
        Star {
            centre: c,
            leaves,
            min_weight,
        },
    ))
}

/// Depth-first search over the pairwise-repelling subsets of one centre's
/// candidate leaves (`nb`, heaviest first), keeping the best root value.
struct StarSearch<'a> {
    nb: &'a [(usize, f64)],
    repel: &'a [f64],
    n_banks: usize,
    /// Indices into `nb` of the current subset, ascending.
    chosen: Vec<usize>,
    /// Their attraction weights, in the same (descending) order.
    attract: Vec<f64>,
    /// Best `(root value, subset, weakest leaf–leaf |w|)` so far.
    best: Option<(f64, Vec<usize>, f64)>,
}

impl StarSearch<'_> {
    fn grow(&mut self, from: usize, min_weight: f64) {
        let d = self.nb.len();
        for i in from..d {
            if !self.chosen.iter().all(|&c| self.repel[c * d + i] > 0.0) {
                continue;
            }
            let w = self
                .chosen
                .iter()
                .fold(min_weight, |m, &c| m.min(self.repel[c * d + i]));
            self.chosen.push(i);
            self.attract.push(self.nb[i].1);
            if self.chosen.len() >= 2 {
                let value = root_value(&self.attract, w, self.n_banks);
                if self.best.as_ref().is_none_or(|(v, _, _)| value > *v) {
                    self.best = Some((value, self.chosen.clone(), w));
                }
            }
            self.grow(i + 1, w);
            self.chosen.pop();
            self.attract.pop();
        }
    }
}

/// One star's term, from scratch: the least that any completion pays for
/// the edges of the star's unassigned members to the assigned prefix and
/// for the star's own edges between unassigned members.
///
/// The centre's bank `B` is its bank if placed; otherwise every candidate
/// bank is tried (fresh banks price alike) and the centre's own price in
/// `B` is added. Every subset of the unassigned leaves is tried as the set
/// that joins `B`: a joiner pays its price in `B`; any other leaf pays its
/// cheapest price over the other banks, plus its attraction if the centre
/// is unplaced; `j` joiners form `C(j, 2)` repelled pairs and the other
/// `m − j` at least [`forced_pairs`]`(m − j, k − 1)`, each at the star's
/// weakest leaf–leaf `|w|`. Exponential in the leaves, as a reference
/// should be.
pub fn star_term(
    adj: &[Vec<(usize, f64)>],
    star: &Star,
    assigned: &[u8],
    used: usize,
    n_banks: usize,
) -> f64 {
    let price = |v: usize, b: usize| assign_edge_cost(&adj[v], assigned, b as u8);
    let open: Vec<(usize, f64)> = star
        .leaves
        .iter()
        .copied()
        .filter(|&(l, _)| assigned[l] == UNASSIGNED)
        .collect();
    let m = open.len();
    let free_centre = assigned[star.centre] == UNASSIGNED;
    let centre_banks = if free_centre {
        0..(used + 1).min(n_banks)
    } else {
        let b = assigned[star.centre] as usize;
        b..b + 1
    };
    let mut best = f64::INFINITY;
    for bank in centre_banks {
        let centre = if free_centre {
            price(star.centre, bank)
        } else {
            0.0
        };
        for joins in 0u32..1 << m {
            let mut cost = centre;
            for (i, &(l, a)) in open.iter().enumerate() {
                if joins & (1 << i) != 0 {
                    cost += price(l, bank);
                } else {
                    let elsewhere = (0..n_banks)
                        .filter(|&b| b != bank)
                        .map(|b| price(l, b))
                        .fold(f64::INFINITY, f64::min);
                    cost += elsewhere + if free_centre { a } else { 0.0 };
                }
            }
            let j = joins.count_ones() as usize;
            let pairs = j * j.saturating_sub(1) / 2 + forced_pairs(m - j, n_banks - 1);
            best = best.min(cost + star.min_weight * pairs as f64);
        }
    }
    best
}

/// The star bound without the partial cost and the balance term, from
/// scratch: for every unassigned register in no star, its cheapest
/// candidate bank against the prefix; one [`star_term`] per star; and the
/// [`clique_bound`] of `rest`, the clique cover of the repulsion edges no
/// star prices ([`rest_cliques`]).
///
/// Admissible by the same argument as the other parts: stars are
/// vertex-disjoint, so every unassigned register's edges to the prefix are
/// priced once; a star term prices only its own edges between unassigned
/// members, and `rest` shares no edge with any star.
pub fn star_bound(
    adj: &[Vec<(usize, f64)>],
    stars: &[Star],
    rest: &[Clique],
    assigned: &[u8],
    used: usize,
    n_banks: usize,
) -> f64 {
    let mut in_star = vec![false; adj.len()];
    for s in stars {
        in_star[s.centre] = true;
        for &(l, _) in &s.leaves {
            in_star[l] = true;
        }
    }
    let cand = (used + 1).min(n_banks);
    let mut total = 0.0;
    for (v, adj_v) in adj.iter().enumerate() {
        if assigned[v] == UNASSIGNED && !in_star[v] {
            total += (0..cand)
                .map(|b| assign_edge_cost(adj_v, assigned, b as u8))
                .fold(f64::INFINITY, f64::min);
        }
    }
    for s in stars {
        total += star_term(adj, s, assigned, used, n_banks);
    }
    total + clique_bound(rest, assigned, n_banks)
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
            let adj = random_complete(n, seed, repel_pct);
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
    fn one_bank_has_no_stars() {
        // Register 0 attracts 1, 2 and 3, which pairwise repel: a star on
        // two banks, none on one, where `forced_pairs(·, 0)` is undefined.
        let adj = complete(4, |a, _| if a == 0 { 1.0 } else { -1.0 });
        assert_eq!(
            attraction_stars(&adj, 2),
            vec![Star {
                centre: 0,
                leaves: vec![(1, 1.0), (2, 1.0), (3, 1.0)],
                min_weight: 1.0
            }]
        );
        assert!(attraction_stars(&adj, 1).is_empty());
    }

    /// Random complete graph for the cover properties: `repel_pct` percent
    /// of the pairs repel, the rest mostly attract; weights in eighths.
    fn random_complete(n: usize, seed: u64, repel_pct: u64) -> Vec<Vec<(usize, f64)>> {
        let mut state = seed;
        complete(n, |_, _| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = z ^ (z >> 32);
            match z % 100 {
                p if p < repel_pct => -(((z >> 8) % 16 + 1) as f64) / 8.0,
                p if p < 98 => ((z >> 8) % 16 + 1) as f64 / 8.0,
                _ => 0.0,
            }
        })
    }

    proptest::proptest! {
        /// On random graphs (up to 70 registers, so bitset rows span two
        /// words), the stars are vertex-disjoint, every leaf attracts its
        /// centre with the recorded weight, the leaves pairwise repel with
        /// the recorded weakest `|w|`, the rest cover is a clique cover
        /// that shares no edge with any star's leaf pairs, and both come
        /// out the same on every call.
        #[test]
        fn star_cover_is_vertex_disjoint_and_priced(
            n in 2usize..71,
            n_banks in 1usize..9,
            seed in 0u64..u64::MAX,
            repel_pct in 20u64..80,
        ) {
            let adj = random_complete(n, seed, repel_pct);
            let weight = |a: usize, b: usize| {
                adj[a].iter().find(|&&(x, _)| x == b).map(|&(_, w)| w)
            };
            let stars = attraction_stars(&adj, n_banks);
            proptest::prop_assert!(n_banks > 1 || stars.is_empty());
            let mut seen = std::collections::BTreeSet::new();
            let mut leaf_pairs = std::collections::BTreeSet::new();
            for s in &stars {
                proptest::prop_assert!((2..=MAX_LEAVES).contains(&s.leaves.len()));
                proptest::prop_assert!(s.leaves.windows(2).all(|p| p[0].0 < p[1].0));
                proptest::prop_assert!(seen.insert(s.centre), "{} in two stars", s.centre);
                let mut min_weight = f64::INFINITY;
                for (i, &(a, w)) in s.leaves.iter().enumerate() {
                    proptest::prop_assert!(seen.insert(a), "{a} in two stars");
                    proptest::prop_assert!(w > 0.0 && weight(s.centre, a) == Some(w));
                    for &(b, _) in &s.leaves[i + 1..] {
                        let w = weight(a, b);
                        proptest::prop_assert!(w.is_some_and(|w| w < 0.0), "leaves {a}, {b} do not repel");
                        min_weight = min_weight.min(-w.unwrap());
                        leaf_pairs.insert((a, b));
                    }
                }
                proptest::prop_assert_eq!(s.min_weight, min_weight);
            }
            let rest = rest_cliques(&adj, &stars, n_banks);
            let mut covered = std::collections::BTreeSet::new();
            for c in &rest {
                proptest::prop_assert!(c.members.len() > n_banks);
                for (i, &a) in c.members.iter().enumerate() {
                    for &b in &c.members[i + 1..] {
                        proptest::prop_assert!(weight(a, b).is_some_and(|w| w < 0.0));
                        proptest::prop_assert!(!leaf_pairs.contains(&(a, b)), "{a}-{b} is a leaf pair");
                        proptest::prop_assert!(covered.insert((a, b)), "{a}-{b} covered twice");
                    }
                }
            }
            proptest::prop_assert_eq!(attraction_stars(&adj, n_banks), stars.clone());
            proptest::prop_assert_eq!(rest_cliques(&adj, &stars, n_banks), rest);
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
