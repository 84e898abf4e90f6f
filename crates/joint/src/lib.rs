//! # vliw-joint — joint (II, slot, bank) scheduling by constraint propagation
//!
//! The paper's pipeline — and `vliw-exact` on top of it — decides the bank
//! partition *given* a schedule: the RCG is built from the ideal schedule,
//! the partition is chosen to minimise a copy-cost proxy, and only then does
//! the modulo scheduler see the clustered loop. That ordering can lose whole
//! II cycles: a partition that looks more expensive on the RCG objective may
//! admit a schedule at a smaller initiation interval, and a schedule the
//! heuristic scheduler misses may exist for the very partition it was given.
//!
//! This crate searches the joint space. [`solve_joint`] runs an outer loop
//! over candidate IIs from a machine-independent lower bound up to the greedy
//! pipeline's achieved II (the incumbent), and for each target II runs a
//! branch-and-bound over **bank assignments** whose leaves invoke a
//! **complete fixed-II modulo scheduler** ([`schedule_fixed_ii`]). Three
//! propagators prune the bank tree:
//!
//! * **capacity** — every op pinned (by the decided banks of its operands)
//!   to a cluster occupies one of that cluster's `II·n_fus` kernel slots,
//!   and every forced cross-bank copy of a loop-variant value occupies a
//!   slot (embedded model) or a bus/port transfer (copy-unit model); any
//!   overflow kills the subtree;
//! * **recurrence** — cross-bank flow edges between decided endpoints are
//!   lengthened by the copy latency, and feasibility at the target II is
//!   maintained *incrementally* ([`vliw_ddg::IncrementalFeasibility`]):
//!   each decision re-relaxes only from the edges it adjusted, with
//!   trail-based O(changes) rollback on backtrack, instead of a full
//!   Bellman–Ford per node;
//! * **modulo resources** — at each leaf (and inside the fixed-II search
//!   itself) the modulo reservation table rejects residue assignments that
//!   oversubscribe a functional unit, bus, or port.
//!
//! Refuted decisions are **learned**: both conflict kinds carry an exact
//! `min_ii` threshold below which they stay infeasible (a positive cycle of
//! latency `L`/distance `D` up to `⌈L/D⌉`, a resource overflow up to its
//! water-fill II), so each is recorded as a `(vreg, bank)` no-good in a
//! [`NoGoodStore`] shared across the II ladder and replayed as a unit veto
//! at every later rung still under the threshold.
//!
//! Value ordering reuses `vliw-exact`'s admissible edge-cost bound
//! (cheapest-copy-first), branch ordering its most-constrained-first
//! register order, and bank-permutation symmetry is broken on homogeneous
//! machines exactly as in the exact partitioner. Two heuristics seed the
//! incumbent: the greedy pipeline's partition and a load-balance-aware
//! variant; the better II is the upper bound the ladder stops at, the
//! winning partition is probed first at every target II (the heuristic
//! scheduler may simply have missed a schedule for it), and the analytic
//! floor is sharpened by the water-fill forced-copy bound
//! ([`forced_copy_floor`]) so a seed sitting on the floor closes with zero
//! search.
//!
//! The search is **anytime**: its budget (the config's `budget_ms`, and
//! under [`solve_joint_within`] a request deadline and a pool grant) cuts
//! it off, the best incumbent is returned, and `optimal` is reported
//! `false` with the lowest *unproven* II as the honest bound — `optimal: true` is only ever claimed
//! when every II below the returned one was exhausted. The result's
//! `seed_lb` records the pre-search analytic floor, so callers can tell a
//! truncated solve whose ladder certified rungs beyond analysis
//! (`lower_bound_ii > seed_lb`) from one that exceeded its budget before
//! finishing a single rung.
//!
//! Scope: "optimal" is with respect to the pipeline's copy-insertion policy
//! (`vliw_core::insert_copies` — shared copies placed after the reaching
//! def, invariant operands hoisted). The solver proves the best II over all
//! partitions and all modulo schedules of the resulting clustered bodies.

#![warn(missing_docs)]

pub mod fixed_ii;
pub mod propagate;
pub mod solver;

pub use fixed_ii::{schedule_fixed_ii, FixedIiOutcome, FixedIiStats};
pub use propagate::{
    capacity_conflict, forced_copy_floor, recurrence_feasible, NoGood, NoGoodKind, NoGoodStore,
};
pub use solver::{solve_joint, solve_joint_within, JointConfig, JointResult, JointStats};
