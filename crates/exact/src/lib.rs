//! # vliw-exact — provably optimal bank assignment by branch-and-bound
//!
//! The paper's greedy RCG heuristic (§5) is only ever compared against other
//! *heuristics* — BUG, round-robin, component packing. This crate supplies
//! the honest yardstick: a branch-and-bound search over complete bank
//! assignments that provably minimises the RCG objective (cut attraction +
//! uncut repulsion, the graph-level proxy for inserted copy cost) for loops
//! small enough to close the search, and degrades gracefully into an anytime
//! heuristic for everything else.
//!
//! The search (see [`solve`]) combines four classic ingredients:
//!
//! * an **admissible lower bound** — the cost of the partial assignment plus,
//!   for every unassigned register, the cheapest bank it could still take
//!   against the already-assigned ones, plus a pigeonhole term over
//!   repulsion cliques (a clique of `u` unassigned registers that pairwise
//!   repel must put some pairs in one of the `k` banks once `u > k`), plus a
//!   water-filling relaxation of the balance term; where that does not
//!   prune, a second bound prices attraction stars (a register attracted to
//!   registers that repel each other pays for a cut attraction or a kept
//!   repulsion in any completion) jointly from their members' rows, and the
//!   node takes the larger ([`bound`]);
//! * **bank-permutation symmetry breaking** — banks are interchangeable in
//!   the objective, so a node may only open one fresh bank: the first K
//!   distinct nodes are effectively pinned to banks `0..K` ([`search`]);
//! * **dominance pruning** — a register with no unassigned neighbours
//!   contributes independently of every later decision and is placed at its
//!   cheapest bank without branching ([`search`]);
//! * an **anytime time budget** — the incumbent starts from a caller-supplied
//!   seed (in the pipeline: the greedy partition), so interrupting the search
//!   at the deadline returns a partition never worse than the seed, flagged
//!   `optimal: false` ([`ExactResult`]).
//!
//! The bound is maintained incrementally: the search keeps, per unassigned
//! register and bank, the cost of placing it there against the assigned
//! prefix, updated when a neighbour is placed and restored from an undo
//! trail when it is unplaced, so a tree node costs O(unassigned × banks).
//! The repulsion cliques are found once per solve, and the search keeps
//! each one's count of unassigned members, so the clique term costs
//! O(cliques) per node. The stars and the second clique cover are found
//! once per solve too; a star's term reads its members' table rows, so it
//! costs O(leaves × banks) per star and node.
//!
//! The brute-force enumeration in [`oracle`] exists for tests: it checks the
//! branch-and-bound against an exhaustive scan of all `banks^registers`
//! assignments on tiny graphs.

#![warn(missing_docs)]

pub mod bound;
pub mod objective;
pub mod oracle;
pub mod search;

pub use objective::partition_cost;
pub use oracle::brute_force;
pub use search::{
    branch_order, dense_adjacency, solve, solve_governed, ExactConfig, ExactResult, SolveStats,
};
