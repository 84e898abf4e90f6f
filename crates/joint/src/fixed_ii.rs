//! Complete fixed-II modulo scheduling by residue branching.
//!
//! A modulo schedule at initiation interval `II` splits every issue time as
//! `t_v = q_v·II + r_v` with residue `r_v ∈ [0, II)`. The two halves are
//! separable:
//!
//! * **resources** depend only on the residues — the modulo reservation
//!   table wraps rows mod II, so two ops conflict iff their residues collide
//!   on the same functional unit / bus / port;
//! * **dependences** become a difference system over the stage counts once
//!   the residues are fixed: `t_to ≥ t_from + lat − II·dist` rewrites to
//!
//!   ```text
//!   q_to − q_from ≥ ceil((lat − II·dist + r_from − r_to) / II)
//!   ```
//!
//!   which is solvable iff the constraint graph has no positive cycle —
//!   checkable in O(V·E) by Bellman–Ford from a virtual source, whose
//!   longest-path potentials *are* a valid non-negative `q`.
//!
//! So the search branches only on residues (at most II values per op),
//! placing them in the MRT as it goes, and closes each leaf with a single
//! feasibility check; the stage counts are never enumerated. The same check
//! runs in relaxed form at every internal node: an edge with an undecided
//! endpoint contributes the weakest weight any completion could give it
//! (minimising over the free residues), so the propagation never prunes a
//! subtree containing a schedule, while decided-residue recurrence
//! conflicts cut the tree early.
//!
//! The relaxed check is maintained **incrementally**
//! ([`vliw_ddg::IncrementalFeasibility`]): deciding a residue can only
//! *raise* the relaxed weights of the edges incident to that op (a free
//! residue is minimised over), so each placement re-relaxes just those
//! edges outward from the change, and backtracking restores the potentials
//! from a trail instead of re-running Bellman–Ford over every edge. The
//! search is therefore **complete**: it returns a schedule iff one exists
//! at this II, unless its budget stops it first (reported as
//! [`FixedIiOutcome::TimedOut`], never misreported as infeasibility).

use vliw_ddg::{Ddg, IncrementalFeasibility};
use vliw_governor::Budget;
use vliw_ir::OpId;
use vliw_machine::CopyModel;
use vliw_sched::{ModuloReservationTable, OpPlacement, SchedProblem, Schedule};

/// Outcome of one fixed-II search.
#[derive(Debug, Clone)]
pub enum FixedIiOutcome {
    /// A verified-shape schedule at exactly the requested II.
    Found(Schedule),
    /// Proven: no modulo schedule of this problem exists at this II.
    Infeasible,
    /// A limit of the budget stopped the search before it closed; nothing
    /// is proven.
    TimedOut,
}

/// Effort counters for one or more fixed-II searches.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedIiStats {
    /// Residue-tree nodes expanded.
    pub nodes: u64,
    /// Stage-count feasibility propagations run (one per node).
    pub q_checks: u64,
}

/// `ceil(a / b)` for possibly-negative `a` and positive `b`.
#[inline]
fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    (a + b - 1).div_euclid(b)
}

/// Search for a modulo schedule of `problem` at exactly `ii`.
///
/// Complete within `budget`, polled every 256 nodes: `Infeasible` is a
/// proof, `Found` carries a schedule that satisfies every dependence in
/// `ddg` and every resource in the machine's reservation model. `stats`
/// accumulates across calls so an enclosing search can report total
/// effort.
pub fn schedule_fixed_ii(
    problem: &SchedProblem<'_>,
    ddg: &Ddg,
    ii: u32,
    budget: &Budget,
    stats: &mut FixedIiStats,
) -> FixedIiOutcome {
    assert_eq!(ddg.n_ops(), problem.n_ops());
    assert!(ii >= 1, "II must be positive");
    let n = problem.n_ops();
    if n == 0 {
        return FixedIiOutcome::Found(Schedule {
            ii: 1,
            times: Vec::new(),
            clusters: Vec::new(),
        });
    }
    if problem.res_ii() > ii {
        return FixedIiOutcome::Infeasible; // some resource is oversubscribed
    }
    if budget.exceeded() {
        return FixedIiOutcome::TimedOut; // nothing searched, nothing claimed
    }
    let mut estart = Vec::new();
    if !ddg.is_feasible_with(ii, &mut estart) {
        return FixedIiOutcome::Infeasible; // positive recurrence cycle
    }

    let iil = ii as i64;
    // Residue hint: the infinite-resource earliest start, wrapped. Scanning
    // each op's residues from its hint keeps dependence chains packed.
    let hint: Vec<i64> = estart.iter().map(|&t| t.rem_euclid(iil)).collect();
    let base: Vec<i64> = ddg
        .edges()
        .iter()
        .map(|e| e.latency - iil * e.distance as i64)
        .collect();
    // Incremental stage-count maintainer, seeded with the all-free
    // relaxation (both residues minimised over). Deciding an op's residue
    // only raises its incident edges.
    let incr = IncrementalFeasibility::new(
        n,
        ddg.edges().iter().enumerate().map(|(i, e)| {
            let w = div_ceil(base[i] - (iil - 1), iil);
            (e.from.index() as u32, e.to.index() as u32, w)
        }),
    );
    stats.q_checks += 1;
    if !incr.root_feasible() {
        return FixedIiOutcome::Infeasible;
    }
    let mut incident: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, e) in ddg.edges().iter().enumerate() {
        incident[e.from.index()].push(i as u32);
        if e.to != e.from {
            incident[e.to.index()].push(i as u32);
        }
    }
    let mut s = Searcher {
        problem,
        ddg,
        ii: iil,
        order: branch_order(problem, ii, &estart),
        residue: vec![-1; n],
        hint,
        base,
        mrt: ModuloReservationTable::new(problem.machine, ii, n),
        incr,
        incident,
        budget,
        timed_out: false,
        stats,
    };
    match s.dfs(0) {
        Some(sched) => FixedIiOutcome::Found(sched),
        None if s.timed_out => FixedIiOutcome::TimedOut,
        None => FixedIiOutcome::Infeasible,
    }
}

/// Most-contended-resource-first branch order: ops whose placement competes
/// for the scarcest kernel slots are decided before flexible ones, so
/// resource dead-ends surface near the root. Ties: earliest ideal start,
/// then index.
fn branch_order(problem: &SchedProblem<'_>, ii: u32, estart: &[i64]) -> Vec<usize> {
    let m = problem.machine;
    let n = problem.n_ops();
    let mut per_cluster = vec![0usize; m.n_clusters()];
    let mut copies_to = vec![0usize; m.n_clusters()];
    let (mut n_any, mut n_copy) = (0usize, 0usize);
    for p in &problem.placement {
        match *p {
            OpPlacement::AnyFu => n_any += 1,
            OpPlacement::FuIn(c) => per_cluster[c.index()] += 1,
            OpPlacement::CopyVia(c) => {
                n_copy += 1;
                copies_to[c.index()] += 1;
            }
        }
    }
    let iif = ii as f64;
    let scarcity = |p: OpPlacement| -> f64 {
        match p {
            OpPlacement::AnyFu => n_any as f64 / (iif * m.issue_width() as f64),
            OpPlacement::FuIn(c) => per_cluster[c.index()] as f64 / (iif * m.fus_in(c) as f64),
            OpPlacement::CopyVia(c) => match m.copy_model {
                CopyModel::CopyUnit {
                    busses,
                    ports_per_cluster,
                } => (n_copy as f64 / (iif * busses as f64))
                    .max(copies_to[c.index()] as f64 / (iif * ports_per_cluster as f64)),
                CopyModel::Embedded => unreachable!("embedded copies are FuIn"),
            },
        }
    };
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        scarcity(problem.placement[b])
            .partial_cmp(&scarcity(problem.placement[a]))
            .expect("scarcities are finite")
            .then(estart[a].cmp(&estart[b]))
            .then(a.cmp(&b))
    });
    order
}

struct Searcher<'p, 'a, 's> {
    problem: &'p SchedProblem<'a>,
    ddg: &'p Ddg,
    ii: i64,
    order: Vec<usize>,
    /// Residue per op; `-1` = undecided.
    residue: Vec<i64>,
    hint: Vec<i64>,
    /// Per-edge `latency − II·distance`, parallel to `ddg.edges()`.
    base: Vec<i64>,
    mrt: ModuloReservationTable,
    /// Incremental stage-count difference system: decided endpoints use
    /// their exact weight, a free residue is minimised over (it ranges
    /// `[0, II)`), so the maintained check is a sound relaxation at internal
    /// nodes and exact at leaves; its potentials are the `q` witness.
    incr: IncrementalFeasibility,
    /// Per op: DDG edge indices incident to it (its weights change only
    /// when one of its endpoints is decided).
    incident: Vec<Vec<u32>>,
    budget: &'p Budget,
    timed_out: bool,
    stats: &'s mut FixedIiStats,
}

impl Searcher<'_, '_, '_> {
    /// Relaxed stage-count weight of edge `ei` under the current residues.
    fn q_weight(&self, ei: usize) -> i64 {
        let e = &self.ddg.edges()[ei];
        let rf = self.residue[e.from.index()];
        let rt = self.residue[e.to.index()];
        let num = match (rf >= 0, rt >= 0) {
            (true, true) => self.base[ei] + rf - rt,
            (true, false) => self.base[ei] + rf - (self.ii - 1),
            (false, true) => self.base[ei] - rt,
            (false, false) => self.base[ei] - (self.ii - 1),
        };
        div_ceil(num, self.ii)
    }

    fn extract(&self) -> Schedule {
        let n = self.problem.n_ops();
        let pot = self.incr.potentials();
        let times: Vec<i64> = (0..n).map(|v| pot[v] * self.ii + self.residue[v]).collect();
        let clusters = (0..n)
            .map(|v| {
                self.mrt
                    .cluster_of(OpId(v as u32))
                    .expect("every op is placed at a leaf")
            })
            .collect();
        Schedule {
            ii: self.ii as u32,
            times,
            clusters,
        }
    }

    fn dfs(&mut self, depth: usize) -> Option<Schedule> {
        if self.timed_out {
            return None;
        }
        self.stats.nodes += 1;
        if self.stats.nodes & 255 == 0 && self.budget.exceeded() {
            self.timed_out = true;
            return None;
        }
        if depth == self.order.len() {
            // The last decision's propagation already proved the (now exact)
            // system feasible; the maintained potentials are the witness.
            return Some(self.extract());
        }
        let v = self.order[depth];
        let placement = self.problem.placement[v];
        let start = self.hint[v];
        for k in 0..self.ii {
            let r = (start + k) % self.ii;
            if self.mrt.fits(placement, r).is_none() {
                continue;
            }
            self.residue[v] = r;
            self.mrt.place(OpId(v as u32), placement, r);
            // Deciding `r` raises only v's incident edges: re-relax from
            // them; a positive cycle rolls the frame back and vetoes the
            // child before it is ever expanded.
            self.stats.q_checks += 1;
            self.incr.push_frame();
            for i in 0..self.incident[v].len() {
                let ei = self.incident[v][i] as usize;
                self.incr.set_weight(ei, self.q_weight(ei));
            }
            let found = if self.incr.propagate() {
                let f = self.dfs(depth + 1);
                self.incr.pop_frame();
                f
            } else {
                None
            };
            self.mrt.remove(OpId(v as u32));
            self.residue[v] = -1;
            if found.is_some() {
                return found;
            }
            if self.timed_out {
                return None;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ddg::build_ddg;
    use vliw_ir::{LoopBuilder, RegClass};
    use vliw_machine::MachineDesc;
    use vliw_sched::{schedule_loop, verify_schedule, ImsConfig};

    fn daxpy(unroll: usize) -> vliw_ir::Loop {
        let mut b = LoopBuilder::new("daxpy");
        let x = b.array("x", RegClass::Float, 1024);
        let y = b.array("y", RegClass::Float, 1024);
        let a = b.live_in_float("a");
        for u in 0..unroll {
            let xv = b.load(x, u as i64, unroll as i64);
            let yv = b.load(y, u as i64, unroll as i64);
            let p = b.fmul(a, xv);
            let s = b.fadd(yv, p);
            b.store(y, u as i64, unroll as i64, s);
        }
        b.finish(128)
    }

    #[test]
    fn finds_res_ii_schedule_and_verifies() {
        let l = daxpy(4); // 20 ops
        let m = MachineDesc::monolithic(4);
        let g = build_ddg(&l, &m.latencies);
        let p = SchedProblem::ideal(&l, &m);
        let mut st = FixedIiStats::default();
        // ResII = ceil(20/4) = 5 and there is no recurrence.
        match schedule_fixed_ii(&p, &g, 5, &Budget::default(), &mut st) {
            FixedIiOutcome::Found(s) => {
                assert_eq!(s.ii, 5);
                verify_schedule(&p, &g, &s).unwrap();
            }
            other => panic!("expected a schedule at II=5, got {other:?}"),
        }
        assert!(st.nodes >= 20);
    }

    #[test]
    fn below_res_ii_is_proven_infeasible() {
        let l = daxpy(4);
        let m = MachineDesc::monolithic(4);
        let g = build_ddg(&l, &m.latencies);
        let p = SchedProblem::ideal(&l, &m);
        let mut st = FixedIiStats::default();
        assert!(matches!(
            schedule_fixed_ii(&p, &g, 4, &Budget::default(), &mut st),
            FixedIiOutcome::Infeasible
        ));
    }

    #[test]
    fn recurrence_bound_is_respected() {
        // s = a*s + x[i]: RecII = 4 (fmul 3 + fadd 1 around the carried s).
        let mut b = LoopBuilder::new("rec1");
        let x = b.array("x", RegClass::Float, 64);
        let a = b.live_in_float("a");
        let s = b.live_in_float_val("s", 0.0);
        let xv = b.load(x, 0, 1);
        let t = b.fmul(a, s);
        b.fadd_into(s, t, xv);
        b.live_out(s);
        let l = b.finish(64);
        let m = MachineDesc::monolithic(16);
        let g = build_ddg(&l, &m.latencies);
        let p = SchedProblem::ideal(&l, &m);
        let mut st = FixedIiStats::default();
        assert!(matches!(
            schedule_fixed_ii(&p, &g, 3, &Budget::default(), &mut st),
            FixedIiOutcome::Infeasible
        ));
        match schedule_fixed_ii(&p, &g, 4, &Budget::default(), &mut st) {
            FixedIiOutcome::Found(s) => verify_schedule(&p, &g, &s).unwrap(),
            other => panic!("expected a schedule at RecII, got {other:?}"),
        }
    }

    #[test]
    fn matches_ims_on_clustered_problems() {
        // Wherever IMS succeeds, the complete search must too (at the same
        // II or — by trying the II directly — exactly that II).
        let l = daxpy(2);
        let m = MachineDesc::embedded(2, 2);
        let g = build_ddg(&l, &m.latencies);
        let cluster_of: Vec<_> = (0..l.n_ops())
            .map(|i| vliw_machine::ClusterId((i % 2) as u32))
            .collect();
        let p = SchedProblem::clustered(&l, &m, &cluster_of);
        let ims = schedule_loop(&p, &g, &ImsConfig::default()).unwrap();
        let mut st = FixedIiStats::default();
        match schedule_fixed_ii(&p, &g, ims.ii, &Budget::default(), &mut st) {
            FixedIiOutcome::Found(s) => {
                assert_eq!(s.ii, ims.ii);
                verify_schedule(&p, &g, &s).unwrap();
            }
            other => panic!("IMS scheduled at {} but search said {other:?}", ims.ii),
        }
    }

    #[test]
    fn expired_deadline_reports_timeout_not_infeasible() {
        let l = daxpy(8); // big enough that the search cannot close instantly
        let m = MachineDesc::monolithic(2);
        let g = build_ddg(&l, &m.latencies);
        let p = SchedProblem::ideal(&l, &m);
        let mut st = FixedIiStats::default();
        let expired = Budget::default().with_deadline(Some(std::time::Duration::ZERO));
        assert!(matches!(
            schedule_fixed_ii(&p, &g, 20, &expired, &mut st),
            FixedIiOutcome::TimedOut
        ));
    }

    #[test]
    fn tripped_pool_budget_reports_timeout_not_infeasible() {
        use vliw_governor::{Governor, Lane, Limit, ShedPolicy};
        let l = daxpy(8);
        let m = MachineDesc::monolithic(2);
        let g = build_ddg(&l, &m.latencies);
        let p = SchedProblem::ideal(&l, &m);
        let gov = Governor::new(2 << 20, 1, ShedPolicy::Never);
        let budget = gov.open_budget(Lane::Interactive).unwrap();
        assert!(!budget.charge(64 << 20), "the pool refuses the charge");
        let mut st = FixedIiStats::default();
        assert!(matches!(
            schedule_fixed_ii(&p, &g, 20, &budget, &mut st),
            FixedIiOutcome::TimedOut
        ));
        assert_eq!(budget.stopped_by(), Some(Limit::Pool));
        assert_eq!(st.nodes, 0, "nothing searched");
    }

    #[test]
    fn empty_loop_schedules_trivially() {
        let l = LoopBuilder::new("empty").finish(1);
        let m = MachineDesc::monolithic(4);
        let g = build_ddg(&l, &m.latencies);
        let p = SchedProblem::ideal(&l, &m);
        let mut st = FixedIiStats::default();
        assert!(matches!(
            schedule_fixed_ii(&p, &g, 1, &Budget::default(), &mut st),
            FixedIiOutcome::Found(_)
        ));
    }
}
