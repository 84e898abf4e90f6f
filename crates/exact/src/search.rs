//! The branch-and-bound search itself.
//!
//! Registers are branched in *most-constrained-first* order (decreasing sum
//! of incident |edge weight|, ties by index): the registers whose placement
//! moves the objective most are decided first, which tightens the lower
//! bound early. At each tree node:
//!
//! * **bound** — prune when the admissible bound ([`crate::bound`]) exceeds
//!   the incumbent *strictly* (`> best + EPS`). Strict pruning never
//!   discards a subtree containing a minimum-cost completion. The bound is
//!   read from a per-register, per-bank cost table that `place` updates in
//!   O(deg) and `unplace` restores bit for bit from an undo trail, so a node
//!   costs O(unassigned × candidate banks) instead of O(n·deg·banks). On
//!   top of the table, a pigeonhole term prices the repulsion cliques that
//!   [`repulsion_cliques`] finds once per solve: `place` and `unplace` keep
//!   each clique's count of unassigned members, and a clique of `u` such
//!   members in `k` banks forces at least [`forced_pairs`]`(u, k)` repelled
//!   pairs into a shared bank. Where that bound does not prune, the node
//!   tries the star bound ([`star_bound`]): the attraction stars and the
//!   second clique cover are found once per solve, each star is priced
//!   from its members' table rows, and the sum stops as soon as it passes
//!   the incumbent. A node's bound is thus the larger of the two, and
//!   neither is always the larger: stars price what eight banks hide from
//!   the cliques, while the second cover, which skips the stars' leaf
//!   pairs, is weaker on the 4-bank classes;
//! * **symmetry breaking** — a register may enter an occupied bank or open
//!   exactly one fresh bank (banks `0..used` are always the occupied ones),
//!   collapsing the `banks!` permutations of every solution to one canonical
//!   representative — equivalently, the first K distinct registers are
//!   pinned to banks `0..K`;
//! * **dominance** — a register with no *unassigned* neighbours (and no
//!   balance term) interacts with nothing decided later, so it is placed at
//!   its cheapest bank outright instead of branching; a per-register count
//!   of unassigned neighbours makes the test O(1);
//! * **anytime budget** — the solve's [`Budget`] is polled every 1024
//!   expansions; once a limit is reached the search unwinds and reports
//!   the incumbent with `optimal = false`.
//!
//! Ties between equal-cost leaves (within `EPS`) are broken toward the
//! lexicographically smallest `bank_of` vector, making the returned
//! partition — not just its cost — deterministic.

use crate::bound::{
    assign_edge_cost, attraction_stars, balance_relaxation, clique_bound, forced_pairs,
    repulsion_cliques, rest_cliques, star_bound, unassigned_edge_bound, Clique, Star, MAX_LEAVES,
    UNASSIGNED,
};
use crate::objective::partition_cost;
use std::ops::Range;
use std::time::{Duration, Instant};
use vliw_core::{Partition, RcgGraph};
use vliw_governor::Budget;
use vliw_ir::VReg;
use vliw_machine::ClusterId;

/// Cost slack under which two solutions count as "equal" for incumbent
/// updates and above which a bound must clear the incumbent to prune.
/// Guards against f64 accumulation-order noise; see the module docs.
const EPS: f64 = 1e-9;

/// Knobs for [`solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactConfig {
    /// Wall-clock budget in milliseconds; `0` means unlimited (the search
    /// runs to proven optimality, however long that takes).
    pub budget_ms: u64,
    /// Weight of the quadratic bank-occupancy term in the objective;
    /// `0.0` (the default) scores pure copy cost.
    pub balance_weight: f64,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            budget_ms: 0,
            balance_weight: 0.0,
        }
    }
}

/// Search effort counters, reported alongside every solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Tree nodes expanded (bound evaluations + leaves).
    pub nodes_expanded: u64,
    /// Subtrees discarded because the lower bound cleared the incumbent.
    pub pruned_bound: u64,
    /// Registers placed by dominance instead of branching.
    pub dominance_assigns: u64,
    /// Wall-clock time of the whole solve.
    pub elapsed: Duration,
}

/// Outcome of [`solve`].
#[derive(Debug, Clone)]
pub struct ExactResult {
    /// The best complete assignment found (provably optimal when
    /// `optimal` is true; otherwise never worse than the seed).
    pub partition: Partition,
    /// Objective value of `partition` under the configured cost model.
    pub cost: f64,
    /// Whether the search closed — i.e. `partition` is a provable minimum —
    /// rather than being cut off by the time budget.
    pub optimal: bool,
    /// Effort counters.
    pub stats: SolveStats,
}

/// The static half of a solve: dense adjacency, branch order, repulsion
/// cliques, attraction stars, cost model.
struct Problem {
    n: usize,
    n_banks: usize,
    /// `adj[v]` lists `(neighbour_index, weight)`.
    adj: Vec<Vec<(usize, f64)>>,
    /// Branch order: most-constrained first.
    order: Vec<usize>,
    /// Two covers by repulsion cliques of more than `n_banks` members, each
    /// edge-disjoint: `cliques[..split]` covers every repulsion edge, the
    /// first bound's term; `cliques[split..]` covers those that are not
    /// leaf pairs of a star, the star bound's term.
    cliques: Vec<Clique>,
    split: usize,
    /// `reg_cliques[v]` lists the indices of the cliques `v` belongs to.
    reg_cliques: Vec<Vec<usize>>,
    /// Vertex-disjoint attraction stars (none with one bank).
    stars: Vec<Star>,
    /// Whether each register belongs to a star.
    in_star: Vec<bool>,
    /// `other_pairs[u]` = [`forced_pairs`]`(u, banks − 1)` as a float, for
    /// `u` up to [`MAX_LEAVES`], so the star term's inner loop divides
    /// nothing; empty without stars.
    other_pairs: Vec<f64>,
    balance_weight: f64,
}

impl Problem {
    fn new(g: &RcgGraph, n_banks: usize, balance_weight: f64) -> Self {
        let n = g.n_nodes();
        let adj = dense_adjacency(g);
        let order = branch_order(g);
        let mut cliques = repulsion_cliques(&adj, n_banks);
        let split = cliques.len();
        let stars = attraction_stars(&adj, n_banks);
        let mut in_star = vec![false; n];
        let mut other_pairs = Vec::new();
        if !stars.is_empty() {
            cliques.extend(rest_cliques(&adj, &stars, n_banks));
            cliques.shrink_to_fit();
            for s in &stars {
                in_star[s.centre] = true;
                for &(l, _) in &s.leaves {
                    in_star[l] = true;
                }
            }
            other_pairs = (0..=MAX_LEAVES)
                .map(|u| forced_pairs(u, n_banks - 1) as f64)
                .collect();
        }
        let mut memberships = vec![0; n];
        for c in &cliques {
            for &v in &c.members {
                memberships[v] += 1;
            }
        }
        let mut reg_cliques: Vec<Vec<usize>> =
            memberships.into_iter().map(Vec::with_capacity).collect();
        for (i, c) in cliques.iter().enumerate() {
            for &v in &c.members {
                reg_cliques[v].push(i);
            }
        }
        Problem {
            n,
            n_banks,
            adj,
            order,
            cliques,
            split,
            reg_cliques,
            stars,
            in_star,
            other_pairs,
            balance_weight,
        }
    }

    /// Row width of the search's cost table: `[P, M_0, .., M_{banks-1}]`.
    fn stride(&self) -> usize {
        self.n_banks + 1
    }

    /// Adjacency entries over all registers (each edge counted at both
    /// endpoints).
    fn adj_entries(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Clique memberships over all cliques (= entries over `reg_cliques`).
    fn clique_members(&self) -> usize {
        self.cliques.iter().map(|c| c.members.len()).sum()
    }

    /// Leaves over all stars.
    fn star_leaves(&self) -> usize {
        self.stars.iter().map(|s| s.leaves.len()).sum()
    }
}

/// The RCG adjacency as dense index pairs, the shape [`crate::bound`]'s
/// functions consume: `adj[v]` lists `(neighbour_index, weight)`.
pub fn dense_adjacency(g: &RcgGraph) -> Vec<Vec<(usize, f64)>> {
    (0..g.n_nodes())
        .map(|v| {
            g.neighbours(VReg(v as u32))
                .iter()
                .map(|&(u, w)| (u.index(), w))
                .collect()
        })
        .collect()
}

/// Most-constrained-first branch order over `g`'s registers: decreasing sum
/// of incident |edge weight|, ties by index. Shared with other searches over
/// the same graph (the joint solver's bank enumeration) so their trees agree
/// with the exact partitioner's.
pub fn branch_order(g: &RcgGraph) -> Vec<usize> {
    let adj = dense_adjacency(g);
    let mut order: Vec<usize> = (0..g.n_nodes()).collect();
    let constraint: Vec<f64> = adj
        .iter()
        .map(|a| a.iter().map(|&(_, w)| w.abs()).sum())
        .collect();
    order.sort_by(|&a, &b| {
        constraint[b]
            .partial_cmp(&constraint[a])
            .expect("edge weights are finite")
            .then(a.cmp(&b))
    });
    order
}

/// A table row's cheapest price over the candidate banks `0..cand`: `P`
/// plus its smallest `M_b` (adding `P` is monotone, so this is the
/// smallest `P + M_b`).
#[inline]
fn cheapest(row: &[f64], cand: usize) -> f64 {
    row[0] + row[1..=cand].iter().fold(f64::INFINITY, |m, &x| m.min(x))
}

/// What [`Searcher::unplace`] needs to undo one [`Searcher::place`].
struct Undo {
    used: usize,
    trail: usize,
}

/// The mutable half of a solve: the DFS state over one [`Problem`].
struct Searcher<'a> {
    p: &'a Problem,
    /// Register index → bank, [`UNASSIGNED`] for the suffix.
    assigned: Vec<u8>,
    /// Bank occupancy counts.
    counts: Vec<u32>,
    /// Number of occupied banks (always the prefix `0..used`).
    used: usize,
    /// Cost committed by the assigned prefix.
    partial: f64,
    /// Per unassigned register `v`, row `v` (width [`Problem::stride`]) is
    /// `[P, M_0, .., M_{banks-1}]`: `P` sums the positive weights of edges
    /// to assigned neighbours, `M_b` sums `-w` over assigned neighbours in
    /// bank `b`. Placing `v` in bank `b` then costs `P + M_b` against the
    /// prefix, the value [`assign_edge_cost`] recomputes from scratch.
    /// Rows of assigned registers are stale and never read.
    table: Vec<f64>,
    /// Unassigned-neighbour count per unassigned register (stale for
    /// assigned ones, like `table`).
    free: Vec<u32>,
    /// Unassigned-member count per clique of [`Problem::cliques`].
    unplaced: Vec<u32>,
    /// `(table index, previous value)` for every table write, popped by
    /// `unplace` so the table comes back bit for bit. At most two entries
    /// per adjacency entry are live at once.
    trail: Vec<(usize, f64)>,
    /// Incumbent cost (starts at the seed's).
    best_cost: f64,
    /// Incumbent assignment (starts as the seed's).
    best_assign: Vec<u8>,
    /// The solve's limits, polled every 1024 expansions.
    budget: &'a Budget,
    timed_out: bool,
    stats: SolveStats,
}

impl<'a> Searcher<'a> {
    fn new(p: &'a Problem, seed_cost: f64, seed_assign: Vec<u8>, budget: &'a Budget) -> Self {
        Searcher {
            assigned: vec![UNASSIGNED; p.n],
            counts: vec![0; p.n_banks],
            used: 0,
            partial: 0.0,
            table: vec![0.0; p.n * p.stride()],
            free: p.adj.iter().map(|a| a.len() as u32).collect(),
            unplaced: p.cliques.iter().map(|c| c.members.len() as u32).collect(),
            trail: Vec::with_capacity(2 * p.adj_entries()),
            best_cost: seed_cost,
            best_assign: seed_assign,
            budget,
            timed_out: false,
            stats: SolveStats::default(),
            p,
        }
    }

    /// Cost increase of placing `v` in bank `b` against the current prefix.
    #[inline]
    fn delta(&self, v: usize, b: u8) -> f64 {
        let mut d = assign_edge_cost(&self.p.adj[v], &self.assigned, b);
        if self.p.balance_weight > 0.0 {
            d += self.p.balance_weight * (2 * u64::from(self.counts[b as usize]) + 1) as f64;
        }
        d
    }

    /// Overwrite one table entry, trailing its old value.
    #[inline]
    fn set(&mut self, i: usize, x: f64) {
        self.trail.push((i, self.table[i]));
        self.table[i] = x;
    }

    #[inline]
    fn place(&mut self, v: usize, b: u8, d: f64) -> Undo {
        let undo = Undo {
            used: self.used,
            trail: self.trail.len(),
        };
        self.assigned[v] = b;
        self.counts[b as usize] += 1;
        self.partial += d;
        if b as usize == self.used {
            self.used += 1;
        }
        let p = self.p;
        for &c in &p.reg_cliques[v] {
            self.unplaced[c] -= 1;
        }
        let stride = p.stride();
        for &(u, w) in &p.adj[v] {
            if self.assigned[u] != UNASSIGNED {
                continue;
            }
            self.free[u] -= 1;
            // An attraction is cut unless `u` joins bank `b`: `P` gains `w`
            // and `M_b` gives it back. A repulsion costs `|w|` in bank `b`.
            let row = u * stride;
            let mb = row + 1 + b as usize;
            if w > 0.0 {
                self.set(row, self.table[row] + w);
            }
            self.set(mb, self.table[mb] - w);
        }
        undo
    }

    #[inline]
    fn unplace(&mut self, v: usize, b: u8, d: f64, undo: Undo) {
        for &(i, x) in self.trail[undo.trail..].iter().rev() {
            self.table[i] = x;
        }
        self.trail.truncate(undo.trail);
        self.assigned[v] = UNASSIGNED;
        for &(u, _) in &self.p.adj[v] {
            if self.assigned[u] == UNASSIGNED {
                self.free[u] += 1;
            }
        }
        for &c in &self.p.reg_cliques[v] {
            self.unplaced[c] += 1;
        }
        self.counts[b as usize] -= 1;
        self.partial -= d;
        self.used = undo.used;
    }

    /// [`unassigned_edge_bound`] read off the cost table: per unassigned
    /// register, its [`cheapest`] candidate bank. Summed in register order,
    /// like the reference, in one pass with the same sum over the registers
    /// in no star, which the star bound reads.
    fn edge_bound(&self) -> (f64, f64) {
        let cand = (self.used + 1).min(self.p.n_banks);
        let (mut total, mut loose) = (0.0, 0.0);
        for ((row, &a), &star) in self
            .table
            .chunks_exact(self.p.stride())
            .zip(&self.assigned)
            .zip(&self.p.in_star)
        {
            if a != UNASSIGNED {
                continue;
            }
            let x = cheapest(row, cand);
            total += x;
            if !star {
                loose += x;
            }
        }
        (total, loose)
    }

    /// [`clique_bound`] over `cliques` (one of the two covers) read off the
    /// per-clique counters, summed in clique order like the reference.
    fn clique_term(&self, cliques: Range<usize>) -> f64 {
        let mut total = 0.0;
        for (c, &u) in self.p.cliques[cliques.clone()]
            .iter()
            .zip(&self.unplaced[cliques])
        {
            total += c.min_weight * forced_pairs(u as usize, self.p.n_banks) as f64;
        }
        total
    }

    /// The star bound ([`star_bound`] plus `base`, the partial cost and the
    /// balance relaxation) given `loose`, the rows of the registers in no
    /// star from [`Searcher::edge_bound`], read off the table and the
    /// counters. Stops summing stars once the total passes `cap`, so a
    /// result above `cap` may fall short of the full bound.
    fn star_bound(&self, base: f64, loose: f64, cap: f64) -> f64 {
        let p = self.p;
        let mut total = base + loose + self.clique_term(p.split..p.cliques.len());
        for s in &p.stars {
            if total > cap {
                break;
            }
            total += self.star_term(s);
        }
        total
    }

    /// [`crate::bound::star_term`] read off the table. Each unassigned
    /// leaf's cheapest price off bank `B` is its cheapest bank's, or its
    /// second cheapest's when that bank is `B`, so each leaf's row is
    /// scanned once; and the best `j` joiners are the `j` whose price in
    /// `B` exceeds their price elsewhere the least, so sorting those
    /// differences replaces the reference's subset enumeration.
    fn star_term(&self, s: &Star) -> f64 {
        let p = self.p;
        let stride = p.stride();
        let cand = (self.used + 1).min(p.n_banks);
        // Banks `0..scan` hold every distinct price: the occupied banks, the
        // first fresh bank and, if there is one, a second fresh bank that
        // stands for "another fresh bank" when `B` is fresh.
        let scan = (self.used + 2).min(p.n_banks);
        let centre = self.assigned[s.centre];
        let free_centre = centre == UNASSIGNED;
        // Per unassigned leaf: row offset, `P` plus the attraction a cut
        // costs, cheapest bank, cheapest and second cheapest `M`.
        let mut leaves = [(0usize, 0.0f64, 0usize, 0.0f64, 0.0f64); MAX_LEAVES];
        let mut m = 0;
        for &(l, a) in &s.leaves {
            if self.assigned[l] != UNASSIGNED {
                continue;
            }
            let row = l * stride;
            let (mut lo, mut lo_bank, mut next) = (f64::INFINITY, 0, f64::INFINITY);
            for (b, &x) in self.table[row + 1..row + 1 + scan].iter().enumerate() {
                if x < lo {
                    (next, lo, lo_bank) = (lo, x, b);
                } else if x < next {
                    next = x;
                }
            }
            let cut = if free_centre { a } else { 0.0 };
            leaves[m] = (row, self.table[row] + cut, lo_bank, lo, next);
            m += 1;
        }
        let banks = if free_centre {
            0..cand
        } else {
            centre as usize..centre as usize + 1
        };
        let mut best = f64::INFINITY;
        let mut gain = [0.0f64; MAX_LEAVES];
        for bank in banks {
            let mut total = if free_centre {
                let row = s.centre * stride;
                self.table[row] + self.table[row + 1 + bank]
            } else {
                0.0
            };
            for (g, &(row, base, lo_bank, lo, next)) in gain.iter_mut().zip(&leaves[..m]) {
                let elsewhere = base + if lo_bank == bank { next } else { lo };
                total += elsewhere;
                *g = self.table[row] + self.table[row + 1 + bank] - elsewhere;
            }
            let gain = &mut gain[..m];
            gain.sort_unstable_by(f64::total_cmp);
            let mut value = total + s.min_weight * p.other_pairs[m];
            for (j, &g) in (1..).zip(gain.iter()) {
                total += g;
                let pairs = (j * (j - 1) / 2) as f64 + p.other_pairs[m - j];
                value = value.min(total + s.min_weight * pairs);
            }
            best = best.min(value);
        }
        best
    }

    fn record_leaf(&mut self) {
        let cost = self.partial;
        let better = cost < self.best_cost - EPS;
        let tied_but_smaller =
            cost <= self.best_cost + EPS && self.assigned.as_slice() < self.best_assign.as_slice();
        if better || tied_but_smaller {
            self.best_cost = self.best_cost.min(cost);
            self.best_assign.copy_from_slice(&self.assigned);
        }
    }

    /// Explore every completion of the current prefix, `depth` registers of
    /// the branch order already placed.
    fn dfs(&mut self, depth: usize) {
        if self.timed_out {
            return;
        }
        self.stats.nodes_expanded += 1;
        if self.stats.nodes_expanded & 1023 == 0 && self.budget.exceeded() {
            self.timed_out = true;
            return;
        }
        if depth == self.p.n {
            self.record_leaf();
            return;
        }

        let p = self.p;
        let balance = balance_relaxation(&self.counts, p.n - depth, p.balance_weight);
        let (rows, loose) = self.edge_bound();
        let lb = self.partial + rows + self.clique_term(0..p.split) + balance;
        debug_assert!(
            {
                let reference = self.partial
                    + unassigned_edge_bound(&p.adj, &self.assigned, self.used, p.n_banks)
                    + clique_bound(&p.cliques[..p.split], &self.assigned, p.n_banks)
                    + balance;
                (lb - reference).abs() <= 1e-9 * (1.0 + lb.abs())
            },
            "incremental bound {lb} drifted from the reference bound"
        );
        let cap = self.best_cost + EPS;
        if lb > cap {
            self.stats.pruned_bound += 1;
            return;
        }
        // The node's bound is the larger of the two; the star bound is only
        // summed where the first does not prune, and only until it does.
        if !p.stars.is_empty() {
            let sb = self.star_bound(self.partial + balance, loose, cap);
            debug_assert!(
                {
                    let reference = self.partial
                        + star_bound(
                            &p.adj,
                            &p.stars,
                            &p.cliques[p.split..],
                            &self.assigned,
                            self.used,
                            p.n_banks,
                        )
                        + balance;
                    let tol = 1e-9 * (1.0 + reference.abs());
                    sb <= reference + tol && (sb > cap || reference - sb <= tol)
                },
                "incremental star bound {sb} drifted from the reference bound"
            );
            if sb > cap {
                self.stats.pruned_bound += 1;
                return;
            }
        }

        let v = p.order[depth];
        let cand = (self.used + 1).min(p.n_banks) as u8;

        // Dominance: with no balance term and no unassigned neighbour, v's
        // contribution is already fully determined — place it at its
        // cheapest bank (lowest index on ties) without branching.
        if p.balance_weight == 0.0 && self.free[v] == 0 {
            let (mut best_b, mut best_d) = (0u8, f64::INFINITY);
            for b in 0..cand {
                let d = self.delta(v, b);
                if d < best_d {
                    best_d = d;
                    best_b = b;
                }
            }
            self.stats.dominance_assigns += 1;
            let undo = self.place(v, best_b, best_d);
            self.dfs(depth + 1);
            self.unplace(v, best_b, best_d, undo);
            return;
        }

        // Branch cheapest-delta-first (ties by bank index): good incumbents
        // arrive early, which makes the bound bite sooner.
        let mut branches: Vec<(f64, u8)> = (0..cand).map(|b| (self.delta(v, b), b)).collect();
        branches.sort_by(|x, y| {
            x.0.partial_cmp(&y.0)
                .expect("deltas are finite")
                .then(x.1.cmp(&y.1))
        });
        for (d, b) in branches {
            let undo = self.place(v, b, d);
            self.dfs(depth + 1);
            self.unplace(v, b, d, undo);
            if self.timed_out {
                return;
            }
        }
    }
}

/// Score the caller's seed partition (the pipeline passes the greedy
/// result) or fall back to the worst admissible incumbent.
fn seed_incumbent(
    g: &RcgGraph,
    n_banks: usize,
    seed: Option<&Partition>,
    balance_weight: f64,
) -> (f64, Vec<u8>) {
    match seed {
        Some(part) => {
            assert_eq!(
                part.bank_of.len(),
                g.n_nodes(),
                "seed covers every register"
            );
            assert!(part.n_banks <= n_banks, "seed uses more banks than allowed");
            let assign: Vec<u8> = part.bank_of.iter().map(|c| c.index() as u8).collect();
            (partition_cost(g, part, balance_weight), assign)
        }
        // Bank 0 for everything: always feasible, deliberately poor.
        None => {
            let part = Partition::trivial(g.n_nodes().max(1));
            let part = Partition {
                bank_of: part.bank_of[..g.n_nodes()].to_vec(),
                n_banks,
            };
            (
                partition_cost(g, &part, balance_weight),
                vec![0u8; g.n_nodes()],
            )
        }
    }
}

/// Find a minimum-cost bank assignment of `g`'s registers to `n_banks`
/// banks by branch-and-bound.
///
/// `seed` primes the incumbent (the driver passes the greedy partition), so
/// even a budget-expired solve returns something no worse than the seed.
/// The result is deterministic: equal-cost optima resolve to the
/// lexicographically smallest `bank_of`.
pub fn solve(
    g: &RcgGraph,
    n_banks: usize,
    seed: Option<&Partition>,
    cfg: &ExactConfig,
) -> ExactResult {
    solve_within(g, n_banks, seed, cfg, &Budget::default())
}

/// Bytes the search working set occupies for problem `p`: the adjacency
/// mirror and branch order, the member lists of both clique covers and the
/// per-register clique lists, the star and leaf lists, the star-member
/// flags and forced-pair table, the searcher's assignment, count and
/// incumbent vectors, its cost table, unassigned-neighbour and per-clique
/// counters, the undo trail at its worst case, and one branch list per
/// depth. Charged against the server pool before the search starts.
fn working_set_bytes(p: &Problem) -> u64 {
    use std::mem::size_of;
    let adj = p.n * size_of::<Vec<(usize, f64)>>() + p.adj_entries() * size_of::<(usize, f64)>();
    let order = p.n * size_of::<usize>();
    let cliques = p.cliques.len() * (size_of::<Clique>() + size_of::<u32>())
        + p.n * size_of::<Vec<usize>>()
        + 2 * p.clique_members() * size_of::<usize>();
    let stars = p.stars.len() * size_of::<Star>()
        + p.star_leaves() * size_of::<(usize, f64)>()
        + p.n * size_of::<bool>()
        + (MAX_LEAVES + 1) * size_of::<f64>();
    let assign = 2 * p.n * size_of::<u8>() + p.n_banks * size_of::<u32>();
    let table = p.n * p.stride() * size_of::<f64>();
    let free = p.n * size_of::<u32>();
    let trail = 2 * p.adj_entries() * size_of::<(usize, f64)>();
    let branches = p.n * p.n_banks * size_of::<(f64, u8)>();
    (adj + order + cliques + stars + assign + table + free + trail + branches) as u64
}

/// [`solve`] under `budget` as well as `cfg.budget_ms`: the search
/// charges its working set against the budget's pool grant up front and
/// polls every limit through one `exceeded()`, so a request deadline or
/// pool exhaustion takes the same anytime exit as the config's own budget —
/// the incumbent comes back with `optimal = false`, never worse than the
/// seed, instead of the request overrunning or the process growing
/// unbounded.
pub fn solve_within(
    g: &RcgGraph,
    n_banks: usize,
    seed: Option<&Partition>,
    cfg: &ExactConfig,
    budget: &Budget,
) -> ExactResult {
    assert!(n_banks >= 1, "at least one bank");
    assert!(n_banks < UNASSIGNED as usize, "bank indices must fit in u8");
    let start = Instant::now();
    budget.start_clock(cfg.budget_ms);

    let p = Problem::new(g, n_banks, cfg.balance_weight);
    let (seed_cost, seed_assign) = seed_incumbent(g, n_banks, seed, cfg.balance_weight);

    if !budget.charge(working_set_bytes(&p)) {
        // The pool cannot even cover the root working set: return the
        // seed as a truncated anytime result without searching.
        return ExactResult {
            partition: Partition {
                bank_of: seed_assign
                    .into_iter()
                    .map(|b| ClusterId(u32::from(b)))
                    .collect(),
                n_banks,
            },
            cost: seed_cost,
            optimal: false,
            stats: SolveStats {
                elapsed: start.elapsed(),
                ..SolveStats::default()
            },
        };
    }

    let mut s = Searcher::new(&p, seed_cost, seed_assign, budget);
    s.dfs(0);
    s.stats.elapsed = start.elapsed();

    ExactResult {
        partition: Partition {
            bank_of: s
                .best_assign
                .into_iter()
                .map(|b| ClusterId(u32::from(b)))
                .collect(),
            n_banks,
        },
        cost: s.best_cost,
        optimal: !s.timed_out,
        stats: s.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attracted_pair_ends_up_together() {
        let mut g = RcgGraph::new(2);
        g.bump_edge(VReg(0), VReg(1), 5.0);
        let r = solve(&g, 4, None, &ExactConfig::default());
        assert!(r.optimal);
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.partition.bank(VReg(0)), r.partition.bank(VReg(1)));
    }

    #[test]
    fn repelled_pair_splits() {
        let mut g = RcgGraph::new(2);
        g.bump_edge(VReg(0), VReg(1), -5.0);
        let r = solve(&g, 2, None, &ExactConfig::default());
        assert!(r.optimal);
        assert_eq!(r.cost, 0.0);
        assert_ne!(r.partition.bank(VReg(0)), r.partition.bank(VReg(1)));
    }

    #[test]
    fn single_bank_pays_every_repulsion() {
        let mut g = RcgGraph::new(3);
        g.bump_edge(VReg(0), VReg(1), -2.0);
        g.bump_edge(VReg(1), VReg(2), -3.0);
        let r = solve(&g, 1, None, &ExactConfig::default());
        assert!(r.optimal);
        assert_eq!(r.cost, 5.0);
    }

    #[test]
    fn frustrated_triangle_pays_the_cheapest_edge() {
        // Three mutually-attracted nodes, two banks... all together is free.
        // Make the triangle frustrated instead: two attractions, one strong
        // repulsion. Best: split the repelled pair, cut the weaker
        // attraction.
        let mut g = RcgGraph::new(3);
        g.bump_edge(VReg(0), VReg(1), 1.0);
        g.bump_edge(VReg(1), VReg(2), 2.0);
        g.bump_edge(VReg(0), VReg(2), -10.0);
        let r = solve(&g, 2, None, &ExactConfig::default());
        assert!(r.optimal);
        assert!((r.cost - 1.0).abs() < 1e-12, "cost = {}", r.cost);
    }

    #[test]
    fn result_is_canonical_under_symmetry() {
        // Whatever the optimum, the returned labelling opens banks in order:
        // the first node of bank k+1 appears after the first node of bank k.
        let mut g = RcgGraph::new(4);
        g.bump_edge(VReg(0), VReg(1), -1.0);
        g.bump_edge(VReg(2), VReg(3), -1.0);
        let r = solve(&g, 4, None, &ExactConfig::default());
        assert!(r.optimal);
        let mut seen = 0u32;
        for c in &r.partition.bank_of {
            assert!(c.0 <= seen, "bank labels must open contiguously");
            seen = seen.max(c.0 + 1);
        }
    }

    #[test]
    fn seed_is_never_worsened_even_with_tiny_budget() {
        let mut g = RcgGraph::new(6);
        for a in 0..6u32 {
            for b in (a + 1)..6u32 {
                g.bump_edge(VReg(a), VReg(b), if (a + b) % 2 == 0 { 1.5 } else { -0.5 });
            }
        }
        let seed = Partition {
            bank_of: (0..6).map(|i| ClusterId(i % 2)).collect(),
            n_banks: 2,
        };
        let seed_cost = partition_cost(&g, &seed, 0.0);
        // A zero-ish budget: either it finishes (tiny graph) or it returns
        // the seed; both must satisfy cost ≤ seed_cost.
        let r = solve(
            &g,
            2,
            Some(&seed),
            &ExactConfig {
                budget_ms: 1,
                ..Default::default()
            },
        );
        assert!(r.cost <= seed_cost + 1e-12);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut g = RcgGraph::new(8);
        for a in 0..8u32 {
            for b in (a + 1)..8u32 {
                let w = ((a * 7 + b * 3) % 5) as f64 - 2.0;
                if w != 0.0 {
                    g.bump_edge(VReg(a), VReg(b), w);
                }
            }
        }
        let r1 = solve(&g, 4, None, &ExactConfig::default());
        let r2 = solve(&g, 4, None, &ExactConfig::default());
        assert!(r1.optimal && r2.optimal);
        assert_eq!(r1.partition, r2.partition);
        assert_eq!(r1.cost, r2.cost);
    }

    #[test]
    fn empty_graph_solves_trivially() {
        let g = RcgGraph::new(0);
        let r = solve(&g, 4, None, &ExactConfig::default());
        assert!(r.optimal);
        assert_eq!(r.cost, 0.0);
        assert!(r.partition.bank_of.is_empty());
    }

    #[test]
    fn balance_weight_spreads_isolated_nodes() {
        let g = RcgGraph::new(4);
        let cfg = ExactConfig {
            balance_weight: 0.25,
            ..Default::default()
        };
        let r = solve(&g, 2, None, &cfg);
        assert!(r.optimal);
        let sizes = r.partition.sizes();
        assert_eq!(sizes, vec![2, 2], "quadratic balance wants an even split");
    }

    /// Complete graph on `n` registers with pseudo-random weights in
    /// `-4..=4` (zero weights skipped), every sign represented.
    fn dense_graph(n: u32, seed: u64) -> RcgGraph {
        let mut g = RcgGraph::new(n as usize);
        let mut state = seed;
        for a in 0..n {
            for b in (a + 1)..n {
                // SplitMix64 step.
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                let w = (z % 9) as f64 - 4.0;
                if w != 0.0 {
                    g.bump_edge(VReg(a), VReg(b), w);
                }
            }
        }
        g
    }

    /// The RCG shape of `s += x·y` unrolled `u` times with every product in
    /// one instruction: per copy, the product `p` attracts `x`, `y` and `s`,
    /// and those three are defined together, so they repel. Registers come
    /// in fours `[s, x, y, p]`; the products of different copies repel too.
    fn dot_graph(u: u32) -> RcgGraph {
        let mut g = RcgGraph::new(4 * u as usize);
        for i in 0..u {
            let (s, x, y, p) = (4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3);
            for leaf in [s, x, y] {
                g.bump_edge(VReg(p), VReg(leaf), 2.0 + f64::from(leaf % 3));
            }
            g.bump_edge(VReg(s), VReg(x), -1.0);
            g.bump_edge(VReg(s), VReg(y), -1.5);
            g.bump_edge(VReg(x), VReg(y), -1.0);
            for j in 0..i {
                g.bump_edge(VReg(p), VReg(4 * j + 3), -0.5);
            }
        }
        g
    }

    #[test]
    fn dot_products_are_stars() {
        let g = dot_graph(3);
        let p = Problem::new(&g, 8, 0.0);
        let centres: Vec<usize> = p.stars.iter().map(|s| s.centre).collect();
        assert_eq!(centres, vec![3, 7, 11], "one star per product");
        let s = &p.stars[0];
        assert_eq!(s.leaves, vec![(0, 2.0), (1, 3.0), (2, 4.0)]);
        assert_eq!(s.min_weight, 1.0);
        assert!(p.in_star.iter().all(|&x| x));
        // No register is placed yet: keeping the star whole puts three
        // repelling leaves together (3·1.0), cutting the lightest leaf
        // away keeps one pair (2.0 + 1.0), and the cheapest split keeps
        // one leaf (2.0 + 3.0); the term takes the least, 3.0, per star.
        // The first bound prices none of it: no clique outgrows 8 banks.
        let budget = Budget::default();
        let s = Searcher::new(&p, f64::INFINITY, vec![0; 12], &budget);
        assert_eq!(s.star_term(&p.stars[0]), 3.0);
        assert_eq!(s.edge_bound(), (0.0, 0.0));
        assert_eq!(s.clique_term(0..p.split), 0.0);
        assert_eq!(s.star_bound(0.0, 0.0, f64::INFINITY), 9.0);
        assert_eq!(
            star_bound(&p.adj, &p.stars, &p.cliques[p.split..], &s.assigned, 0, 8),
            9.0
        );
    }

    #[test]
    fn working_set_charge_covers_allocations() {
        fn held<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        // A complete repulsion graph gives every bank count cliques to hold,
        // and the dot graph gives every count above one stars.
        let mut repulsive = RcgGraph::new(10);
        for a in 0..10u32 {
            for b in (a + 1)..10u32 {
                repulsive.bump_edge(VReg(a), VReg(b), -1.0 - f64::from((a * b) % 3));
            }
        }
        let graphs = [
            (dense_graph(10, 3), false, false),
            (repulsive, true, false),
            (dot_graph(3), false, true),
        ];
        for (g, cliqued, starred) in graphs {
            for n_banks in [1, 2, 4, 8] {
                let p = Problem::new(&g, n_banks, 0.0);
                assert!(
                    !cliqued || !p.cliques.is_empty(),
                    "{n_banks} banks: no repulsion clique to charge"
                );
                assert!(
                    !starred || n_banks == 1 || !p.stars.is_empty(),
                    "{n_banks} banks: no star to charge"
                );
                let (seed_cost, seed_assign) = seed_incumbent(&g, n_banks, None, 0.0);
                let budget = Budget::default();
                let mut s = Searcher::new(&p, seed_cost, seed_assign, &budget);
                let trail_cap = s.trail.capacity();
                s.dfs(0);
                assert!(!s.timed_out);
                assert_eq!(
                    s.trail.capacity(),
                    trail_cap,
                    "trail outgrew its worst case"
                );
                let bytes = held(&p.adj)
                    + p.adj.iter().map(held).sum::<usize>()
                    + held(&p.order)
                    + held(&p.cliques)
                    + p.cliques.iter().map(|c| held(&c.members)).sum::<usize>()
                    + held(&p.reg_cliques)
                    + p.reg_cliques.iter().map(held).sum::<usize>()
                    + held(&p.stars)
                    + p.stars.iter().map(|s| held(&s.leaves)).sum::<usize>()
                    + held(&p.in_star)
                    + held(&p.other_pairs)
                    + held(&s.unplaced)
                    + held(&s.assigned)
                    + held(&s.best_assign)
                    + held(&s.counts)
                    + held(&s.table)
                    + held(&s.free)
                    + held(&s.trail);
                assert!(
                    working_set_bytes(&p) >= bytes as u64,
                    "{n_banks} banks: charged {} < held {bytes}",
                    working_set_bytes(&p)
                );
            }
        }
    }

    /// Table bits, neighbour and clique counters, assignment, bank counts
    /// and used banks.
    type Snapshot = (Vec<u64>, Vec<u32>, Vec<u32>, Vec<u8>, Vec<u32>, usize);

    /// Everything `unplace` must restore exactly, floats as bit patterns.
    fn snapshot(s: &Searcher<'_>) -> Snapshot {
        (
            s.table.iter().map(|x| x.to_bits()).collect(),
            s.free.clone(),
            s.unplaced.clone(),
            s.assigned.clone(),
            s.counts.clone(),
            s.used,
        )
    }

    /// The cheapest completion of `assigned` over all `n_banks` banks,
    /// by enumeration.
    fn best_completion(g: &RcgGraph, assigned: &mut [u8], n_banks: usize) -> f64 {
        match assigned.iter().position(|&b| b == UNASSIGNED) {
            None => {
                let part = Partition {
                    bank_of: assigned.iter().map(|&b| ClusterId(u32::from(b))).collect(),
                    n_banks,
                };
                partition_cost(g, &part, 0.0)
            }
            Some(v) => {
                let mut best = f64::INFINITY;
                for b in 0..n_banks as u8 {
                    assigned[v] = b;
                    best = best.min(best_completion(g, assigned, n_banks));
                }
                assigned[v] = UNASSIGNED;
                best
            }
        }
    }

    proptest::proptest! {
        /// On repulsion-dense graphs, where the clique term bites, the bound
        /// at every prefix of a reachable placement sequence (each register
        /// joins an occupied bank or the next fresh one) never exceeds the
        /// cheapest completion of that prefix.
        #[test]
        fn bound_is_admissible_on_repulsion_dense_graphs(
            n in 4usize..9,
            n_banks in 1usize..5,
            weights in proptest::collection::vec(-16i32..5, 28..29),
            picks in proptest::collection::vec((0usize..8, 0u8..4), 9..10),
        ) {
            let mut g = RcgGraph::new(n);
            let mut k = 0;
            for a in 0..n {
                for b in (a + 1)..n {
                    if weights[k] != 0 {
                        g.bump_edge(VReg(a as u32), VReg(b as u32), f64::from(weights[k]) / 8.0);
                    }
                    k += 1;
                }
            }
            let p = Problem::new(&g, n_banks, 0.0);
            let budget = Budget::default();
            let mut s = Searcher::new(&p, 0.0, vec![0; n], &budget);
            for &(pick, bank) in &picks[..=n] {
                let lb = s.partial + s.edge_bound().0 + s.clique_term(0..p.split);
                let mut completion = s.assigned.clone();
                let best = best_completion(&g, &mut completion, n_banks);
                proptest::prop_assert!(
                    lb <= best + 1e-9,
                    "bound {lb} > best completion {best} at {:?}",
                    s.assigned
                );
                let open: Vec<usize> = (0..n).filter(|&v| s.assigned[v] == UNASSIGNED).collect();
                if open.is_empty() {
                    break;
                }
                let v = open[pick % open.len()];
                let b = bank % (s.used + 1).min(n_banks) as u8;
                let d = s.delta(v, b);
                s.place(v, b, d);
            }
        }

        /// After every `place`, each unassigned register's table row prices
        /// every bank as `assign_edge_cost` does, its counter matches its
        /// unassigned neighbours, and the clique counters price the clique
        /// term as `clique_bound` does; every `unplace` restores the table
        /// bit for bit and the counters exactly. Weights in eighths make every sum exact, so prices must match
        /// exactly; weights in tenths round, so they match within 1e-12, and
        /// an add-then-subtract undo would leave residue the restore check
        /// sees.
        #[test]
        fn cost_table_tracks_place_and_unplace(
            n in 1usize..12,
            n_banks in 1usize..6,
            denom in proptest::sample::select(vec![8.0, 10.0]),
            edges in proptest::collection::vec((0usize..12, 0usize..12, -16i32..17), 0..40),
            moves in proptest::collection::vec((0usize..12, 0u8..6, 0u8..3), 0..60),
        ) {
            let close = |x: f64, y: f64| {
                if denom == 8.0 {
                    x == y
                } else {
                    (x - y).abs() <= 1e-12 * (1.0 + y.abs())
                }
            };
            let mut g = RcgGraph::new(n);
            for &(a, b, k) in &edges {
                let (a, b) = (a % n, b % n);
                if a != b {
                    g.bump_edge(VReg(a as u32), VReg(b as u32), f64::from(k) / denom);
                }
            }
            let p = Problem::new(&g, n_banks, 0.0);
            let budget = Budget::default();
            let mut s = Searcher::new(&p, 0.0, vec![0; n], &budget);
            let mut stack = Vec::new();
            for &(pick, bank, op) in &moves {
                let open: Vec<usize> = (0..n).filter(|&v| s.assigned[v] == UNASSIGNED).collect();
                if op == 0 || open.is_empty() {
                    if let Some((v, b, d, undo, before)) = stack.pop() {
                        s.unplace(v, b, d, undo);
                        proptest::prop_assert_eq!(snapshot(&s), before);
                    }
                    continue;
                }
                let v = open[pick % open.len()];
                let b = bank % (s.used + 1).min(n_banks) as u8;
                let before = snapshot(&s);
                let d = s.delta(v, b);
                let undo = s.place(v, b, d);
                stack.push((v, b, d, undo, before));
                for u in (0..n).filter(|&u| s.assigned[u] == UNASSIGNED) {
                    let row = &s.table[u * p.stride()..(u + 1) * p.stride()];
                    for c in 0..n_banks {
                        let want = assign_edge_cost(&p.adj[u], &s.assigned, c as u8);
                        let got = row[0] + row[1 + c];
                        proptest::prop_assert!(close(got, want), "v{u} bank {c}: {got} vs {want}");
                    }
                    let open_nbrs = p.adj[u]
                        .iter()
                        .filter(|&&(x, _)| s.assigned[x] == UNASSIGNED)
                        .count();
                    proptest::prop_assert_eq!(s.free[u] as usize, open_nbrs);
                }
                let (got, want) = (
                    s.edge_bound().0,
                    unassigned_edge_bound(&p.adj, &s.assigned, s.used, n_banks),
                );
                proptest::prop_assert!(close(got, want), "bound {got} vs {want}");
                for (c, &u) in p.cliques.iter().zip(&s.unplaced) {
                    let open_members =
                        c.members.iter().filter(|&&x| s.assigned[x] == UNASSIGNED).count();
                    proptest::prop_assert_eq!(u as usize, open_members);
                }
                for cover in [0..p.split, p.split..p.cliques.len()] {
                    let (got, want) = (
                        s.clique_term(cover.clone()),
                        clique_bound(&p.cliques[cover], &s.assigned, n_banks),
                    );
                    proptest::prop_assert!(close(got, want), "clique term {got} vs {want}");
                }
                for star in &p.stars {
                    let (got, want) = (
                        s.star_term(star),
                        crate::bound::star_term(&p.adj, star, &s.assigned, s.used, n_banks),
                    );
                    proptest::prop_assert!(close(got, want), "star term {got} vs {want}");
                }
            }
        }
    }

    /// Cases `star_bound_is_admissible_on_attraction_dense_graphs` runs,
    /// and how many of them held a star so far.
    const STAR_CASES: u32 = 64;
    static STARRED: [std::sync::atomic::AtomicU32; 2] = [
        std::sync::atomic::AtomicU32::new(0),
        std::sync::atomic::AtomicU32::new(0),
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: STAR_CASES,
            ..Default::default()
        })]

        /// On attraction-dense graphs, where stars abound, the star bound
        /// at every prefix of a reachable placement sequence matches its
        /// reference and never exceeds the cheapest completion of that
        /// prefix; at least half the cases hold a star.
        #[test]
        fn star_bound_is_admissible_on_attraction_dense_graphs(
            n in 3usize..9,
            n_banks in 2usize..5,
            weights in proptest::collection::vec(-12i32..17, 28..29),
            picks in proptest::collection::vec((0usize..8, 0u8..4), 9..10),
        ) {
            use std::sync::atomic::Ordering::Relaxed;
            let mut g = RcgGraph::new(n);
            let mut k = 0;
            for a in 0..n {
                for b in (a + 1)..n {
                    if weights[k] != 0 {
                        g.bump_edge(VReg(a as u32), VReg(b as u32), f64::from(weights[k]) / 8.0);
                    }
                    k += 1;
                }
            }
            let p = Problem::new(&g, n_banks, 0.0);
            let budget = Budget::default();
            let mut s = Searcher::new(&p, 0.0, vec![0; n], &budget);
            for &(pick, bank) in &picks[..=n] {
                let sb = s.star_bound(s.partial, s.edge_bound().1, f64::INFINITY);
                let reference = s.partial
                    + star_bound(&p.adj, &p.stars, &p.cliques[p.split..], &s.assigned, s.used, n_banks);
                proptest::prop_assert!((sb - reference).abs() <= 1e-9, "{sb} vs reference {reference}");
                let mut completion = s.assigned.clone();
                let best = best_completion(&g, &mut completion, n_banks);
                proptest::prop_assert!(
                    sb <= best + 1e-9,
                    "star bound {sb} > best completion {best} at {:?}",
                    s.assigned
                );
                let open: Vec<usize> = (0..n).filter(|&v| s.assigned[v] == UNASSIGNED).collect();
                if open.is_empty() {
                    break;
                }
                let v = open[pick % open.len()];
                let b = bank % (s.used + 1).min(n_banks) as u8;
                let d = s.delta(v, b);
                s.place(v, b, d);
            }
            let cases = STARRED[0].fetch_add(1, Relaxed) + 1;
            let starred = STARRED[1].fetch_add(u32::from(!p.stars.is_empty()), Relaxed)
                + u32::from(!p.stars.is_empty());
            if cases == STAR_CASES {
                proptest::prop_assert!(2 * starred >= cases, "only {starred} of {cases} cases hold a star");
            }
        }
    }
}
