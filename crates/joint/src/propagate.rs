//! Propagation oracles, conflict (no-good) learning, and admissible
//! forced-copy bounds for the bank search.
//!
//! The bank DFS prunes a partial assignment when it can *prove* no
//! completion schedules at the target II. Each proof names a reason, and
//! every reason here is of the same shape: a set of `(vreg, bank)` literals
//! plus the smallest II at which the conflict dissolves. That uniform shape
//! is what lets conflicts learned at `II = k` replay as unit propagations at
//! `II = k + 1` (and beyond) without re-derivation:
//!
//! * **dependence conflicts** come from a positive cycle in the copy-
//!   adjusted dependence graph. A cycle with total latency `L` (copies
//!   included) and total distance `D` is violated at every `II < ceil(L/D)`
//!   — the literals are the cross-bank decisions that committed the copies,
//!   and the threshold is exact, so replay needs no re-validation;
//! * **resource conflicts** come from a kernel-slot or copy-bus capacity
//!   overflow. A constraint demanding `C` slots of a resource with `S`
//!   copies per cycle is violated at every `II < ceil(C/S)` — the
//!   re-validation the II ladder needs is folded into the recorded
//!   threshold at learning time.
//!
//! The module also hosts the non-incremental oracles ([`capacity_conflict`],
//! [`recurrence_feasible`]) shared between the searcher and the property
//! tests that audit recorded no-goods, and the water-fill lower bound
//! ([`forced_copy_floor`]) that prices the copies *any* partition must pay.

use vliw_ddg::Ddg;
use vliw_exact::bound::UNASSIGNED;
use vliw_ir::Loop;
use vliw_machine::{ClusterId, CopyModel, MachineDesc};

/// Why a recorded conflict holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoGoodKind {
    /// A copy-lengthened recurrence cycle exceeds the II.
    Dependence,
    /// Pinned ops plus forced copies overflow a kernel-slot or bus budget.
    Resource,
}

/// A learned conflict: any assignment containing all `literals` is
/// infeasible at every target `II < min_ii`.
#[derive(Debug, Clone)]
pub struct NoGood {
    /// `(vreg, bank)` decisions that jointly force the conflict, sorted by
    /// vreg index.
    pub literals: Vec<(u32, u8)>,
    /// First II at which the conflicting resource fits / cycle relaxes.
    pub min_ii: u32,
    /// What proved it.
    pub kind: NoGoodKind,
}

/// Conflicts recorded across the ascending-II ladder, indexed for unit
/// propagation: before branching `v → b`, [`NoGoodStore::forbids`] asks
/// whether that decision would complete a still-live conflict.
#[derive(Debug)]
pub struct NoGoodStore {
    items: Vec<NoGood>,
    /// Item ids containing literal `(v, b)`, at `v * n_banks + b`.
    index: Vec<Vec<u32>>,
    n_banks: usize,
    /// Current ladder target; items with `min_ii <= target` are spent.
    target: u32,
}

/// Conflicts with more literals than this are not worth indexing: they
/// almost never re-fire and bloat the store.
const MAX_LITERALS: usize = 20;

/// Hard cap on stored conflicts (droppable: no-goods are an optimisation,
/// never required for soundness).
const MAX_ITEMS: usize = 8192;

impl NoGoodStore {
    /// An empty store for a loop with `n_vregs` values on `n_banks` banks.
    pub fn new(n_vregs: usize, n_banks: usize) -> Self {
        NoGoodStore {
            items: Vec::new(),
            index: vec![Vec::new(); n_vregs * n_banks],
            n_banks,
            target: 0,
        }
    }

    /// All recorded conflicts (property tests audit these).
    pub fn items(&self) -> &[NoGood] {
        &self.items
    }

    /// Point the store at the ladder's current target. Items proved spent
    /// (`min_ii <= target`) can never fire again — the ladder only ascends —
    /// so they are dropped and the index rebuilt.
    pub fn activate(&mut self, target: u32) {
        self.target = target;
        if self.items.iter().all(|ng| ng.min_ii > target) {
            return;
        }
        self.items.retain(|ng| ng.min_ii > target);
        for slot in &mut self.index {
            slot.clear();
        }
        for (id, ng) in self.items.iter().enumerate() {
            for &(v, b) in &ng.literals {
                self.index[v as usize * self.n_banks + b as usize].push(id as u32);
            }
        }
    }

    /// Record a conflict (literals need not be sorted). Returns `true` if it
    /// was kept — dropped when trivial, oversized, the store is full, or an
    /// identical literal set is already known (keeping the larger `min_ii`).
    pub fn record(&mut self, mut literals: Vec<(u32, u8)>, min_ii: u32, kind: NoGoodKind) -> bool {
        literals.sort_unstable();
        literals.dedup();
        if literals.is_empty() || literals.len() > MAX_LITERALS {
            return false;
        }
        let (v0, b0) = literals[0];
        let slot = v0 as usize * self.n_banks + b0 as usize;
        for &id in &self.index[slot] {
            let old = &mut self.items[id as usize];
            if old.literals == literals {
                old.min_ii = old.min_ii.max(min_ii);
                return false;
            }
        }
        if self.items.len() >= MAX_ITEMS {
            return false;
        }
        let id = self.items.len() as u32;
        for &(v, b) in &literals {
            self.index[v as usize * self.n_banks + b as usize].push(id);
        }
        self.items.push(NoGood {
            literals,
            min_ii,
            kind,
        });
        true
    }

    /// Unit propagation: would deciding `v → b` on top of `assigned`
    /// complete a live conflict? (`assigned[v]` is still [`UNASSIGNED`]
    /// when asked.)
    pub fn forbids(&self, assigned: &[u8], v: usize, b: u8) -> bool {
        for &id in &self.index[v * self.n_banks + b as usize] {
            let ng = &self.items[id as usize];
            if ng.min_ii <= self.target {
                continue;
            }
            let fires = ng
                .literals
                .iter()
                .all(|&(lv, lb)| (lv as usize == v && lb == b) || assigned[lv as usize] == lb);
            if fires {
                return true;
            }
        }
        false
    }
}

/// Per op: the vreg whose bank decides the op's cluster (its def, or — for
/// stores — its first use), mirroring `vliw_core::copyins`.
pub fn deciding_vregs(body: &Loop) -> Vec<Option<usize>> {
    body.ops
        .iter()
        .map(|o| o.def.or_else(|| o.uses.first().copied()).map(|v| v.index()))
        .collect()
}

/// Per vreg: defined in the body (invariant operands hoist their copies out
/// of the kernel and cost nothing here).
pub fn variant_mask(body: &Loop) -> Vec<bool> {
    (0..body.n_vregs())
        .map(|v| !body.is_invariant(vliw_ir::VReg(v as u32)))
        .collect()
}

/// Per vreg: kernel copy latency of its register class.
pub fn copy_extras(body: &Loop, machine: &MachineDesc) -> Vec<i64> {
    (0..body.n_vregs())
        .map(|v| {
            let class = body.class_of(vliw_ir::VReg(v as u32));
            machine.latencies.of(vliw_ir::Opcode::copy_for(class)) as i64
        })
        .collect()
}

/// A violated capacity constraint, expressed as a replayable conflict.
#[derive(Debug, Clone)]
pub struct CapacityConflict {
    /// Decisions forcing the overflow (may exceed the store's literal cap,
    /// `MAX_LITERALS`; the store filters).
    pub literals: Vec<(u32, u8)>,
    /// First II with enough slots for the counted demand.
    pub min_ii: u32,
}

/// Forced-copy and slot demand of a partial assignment, shared between the
/// capacity propagator and the admissible future-copy bound.
#[derive(Debug, Default, Clone)]
pub struct CapacityCounts {
    /// Ops whose deciding vreg is assigned, per bank.
    pub pinned: Vec<usize>,
    /// Distinct forced kernel copies into each bank.
    pub copies_into: Vec<usize>,
    /// Total distinct forced kernel copies.
    pub total_copies: usize,
}

/// Count the slot demand a partial bank assignment already commits to. Only
/// *forced* consumption is counted — ops pinned by decided operands, plus
/// one shared kernel copy per decided `(variant def, consuming bank)` pair
/// that crosses banks — so every count is a lower bound on any completion.
///
/// `marks` is a caller-owned scratch of at least `n_vregs * n_banks` bools,
/// all false on entry and on return.
pub fn capacity_counts(
    body: &Loop,
    n_banks: usize,
    assigned: &[u8],
    deciding: &[Option<usize>],
    variant: &[bool],
    marks: &mut [bool],
) -> CapacityCounts {
    let op_bank = |o: usize| -> u8 {
        match deciding[o] {
            Some(v) => assigned[v],
            None => 0, // no operands at all: copyins pins to cluster 0
        }
    };
    let mut c = CapacityCounts {
        pinned: vec![0; n_banks],
        copies_into: vec![0; n_banks],
        total_copies: 0,
    };
    let mut marked: Vec<usize> = Vec::new();
    for op in &body.ops {
        let bo = op_bank(op.id.index());
        if bo == UNASSIGNED {
            continue;
        }
        c.pinned[bo as usize] += 1;
        for &u in &op.uses {
            let bu = assigned[u.index()];
            if bu == UNASSIGNED || bu == bo || !variant[u.index()] {
                continue;
            }
            let mark = u.index() * n_banks + bo as usize;
            if !marks[mark] {
                marks[mark] = true;
                marked.push(mark);
                c.copies_into[bo as usize] += 1;
                c.total_copies += 1;
            }
        }
    }
    for m in marked {
        marks[m] = false;
    }
    c
}

/// The full (non-incremental) capacity oracle: does the committed demand of
/// `assigned` fit the kernel at `target`? `None` when it fits; otherwise the
/// violated constraint as a replayable conflict (its `min_ii` is the exact
/// re-validation threshold resource conflicts need on the II ladder).
pub fn capacity_conflict(
    body: &Loop,
    machine: &MachineDesc,
    target: u32,
    assigned: &[u8],
    deciding: &[Option<usize>],
    variant: &[bool],
    marks: &mut [bool],
) -> Option<CapacityConflict> {
    let n_banks = machine.n_clusters();
    let c = capacity_counts(body, n_banks, assigned, deciding, variant, marks);
    let ii = target as usize;

    // Literals that force the copies counted into bank `b` (or all banks).
    let copy_literals = |only_bank: Option<u8>, out: &mut Vec<(u32, u8)>| {
        for op in &body.ops {
            let bo = match deciding[op.id.index()] {
                Some(v) => assigned[v],
                None => 0,
            };
            if bo == UNASSIGNED || only_bank.is_some_and(|want| bo != want) {
                continue;
            }
            for &u in &op.uses {
                let bu = assigned[u.index()];
                if bu == UNASSIGNED || bu == bo || !variant[u.index()] {
                    continue;
                }
                out.push((u.index() as u32, bu));
                if let Some(dv) = deciding[op.id.index()] {
                    out.push((dv as u32, bo));
                }
            }
        }
    };
    // Literals pinning ops to bank `b`.
    let pin_literals = |b: u8, out: &mut Vec<(u32, u8)>| {
        for op in &body.ops {
            if let Some(dv) = deciding[op.id.index()] {
                if assigned[dv] == b {
                    out.push((dv as u32, b));
                }
            }
        }
    };

    match machine.copy_model {
        CopyModel::Embedded => {
            // Copies occupy FU slots on their destination cluster.
            let width = machine.issue_width();
            if body.n_ops() + c.total_copies > ii * width {
                let mut lits = Vec::new();
                copy_literals(None, &mut lits);
                return Some(CapacityConflict {
                    literals: lits,
                    min_ii: (body.n_ops() + c.total_copies).div_ceil(width) as u32,
                });
            }
            for b in 0..n_banks {
                let demand = c.pinned[b] + c.copies_into[b];
                let fus = machine.fus_in(ClusterId(b as u32));
                if demand > ii * fus {
                    let mut lits = Vec::new();
                    pin_literals(b as u8, &mut lits);
                    copy_literals(Some(b as u8), &mut lits);
                    return Some(CapacityConflict {
                        literals: lits,
                        min_ii: demand.div_ceil(fus) as u32,
                    });
                }
            }
        }
        CopyModel::CopyUnit {
            busses,
            ports_per_cluster,
        } => {
            if c.total_copies > ii * busses {
                let mut lits = Vec::new();
                copy_literals(None, &mut lits);
                return Some(CapacityConflict {
                    literals: lits,
                    min_ii: c.total_copies.div_ceil(busses) as u32,
                });
            }
            for b in 0..n_banks {
                let fus = machine.fus_in(ClusterId(b as u32));
                if c.pinned[b] > ii * fus {
                    let mut lits = Vec::new();
                    pin_literals(b as u8, &mut lits);
                    return Some(CapacityConflict {
                        literals: lits,
                        min_ii: c.pinned[b].div_ceil(fus) as u32,
                    });
                }
                if c.copies_into[b] > ii * ports_per_cluster {
                    let mut lits = Vec::new();
                    copy_literals(Some(b as u8), &mut lits);
                    return Some(CapacityConflict {
                        literals: lits,
                        min_ii: c.copies_into[b].div_ceil(ports_per_cluster) as u32,
                    });
                }
            }
        }
    }
    None
}

/// The full (non-incremental) recurrence oracle: is the copy-adjusted
/// dependence graph of `assigned` free of positive cycles at `target`?
/// Exactly the relaxation the incremental maintainer tracks — the agreement
/// property tests pit the two against each other.
pub fn recurrence_feasible(
    body: &Loop,
    ddg: &Ddg,
    target: u32,
    assigned: &[u8],
    deciding: &[Option<usize>],
    copy_extra: &[i64],
    scratch: &mut Vec<i64>,
) -> bool {
    ddg.is_feasible_adjusted(
        target,
        |e| {
            if e.kind != vliw_ddg::DepKind::Flow {
                return 0;
            }
            let Some(v) = body.op(e.from).def else {
                return 0;
            };
            let bv = assigned[v.index()];
            if bv == UNASSIGNED {
                return 0;
            }
            let bt = match deciding[e.to.index()] {
                Some(dv) => assigned[dv],
                None => 0,
            };
            if bt == UNASSIGNED || bt == bv {
                return 0;
            }
            copy_extra[v.index()]
        },
        scratch,
    )
}

/// Admissible lower bound on copies *not yet counted* by
/// [`capacity_counts`]: an unassigned variant vreg whose decided consumers
/// already span `d` distinct banks forces at least `d − 1` copies no matter
/// which bank it picks (it can join at most one of them). Disjoint from the
/// committed-copy count, so the two add.
pub fn future_copy_bound(
    body: &Loop,
    n_banks: usize,
    assigned: &[u8],
    deciding: &[Option<usize>],
    variant: &[bool],
    marks: &mut [bool],
) -> usize {
    let mut marked: Vec<usize> = Vec::new();
    let mut spans = vec![0usize; body.n_vregs()];
    for op in &body.ops {
        let bo = match deciding[op.id.index()] {
            Some(v) => assigned[v],
            None => 0,
        };
        if bo == UNASSIGNED {
            continue;
        }
        for &u in &op.uses {
            if assigned[u.index()] != UNASSIGNED || !variant[u.index()] {
                continue;
            }
            let mark = u.index() * n_banks + bo as usize;
            if !marks[mark] {
                marks[mark] = true;
                marked.push(mark);
                spans[u.index()] += 1;
            }
        }
    }
    for &m in &marked {
        marks[m] = false;
    }
    spans.iter().map(|&d| d.saturating_sub(1)).sum()
}

/// Water-fill lower bound on the II forced by copy pressure alone.
///
/// Ops connected through variant values must either share a bank or pay
/// kernel copies: a connected value-component of `s` ops spread over `k`
/// banks forces at least `k − 1` distinct copies (hypergraph connectivity),
/// and a bank holds at most `II · fus_max` ops — so at candidate `II` the
/// component forces at least `ceil(s / (II·fus_max)) − 1` copies. Summed
/// over components and priced against the machine's total slot (embedded
/// copies) or bus (copy-unit) budget, this refutes IIs the plain
/// `max(RecII, ResII)` bound cannot see.
///
/// Returns the smallest `II in [from, cap]` the bound admits (`cap` when
/// none below it is admitted — the caller treats `cap` as already proven
/// achievable, e.g. the greedy incumbent's II).
pub fn forced_copy_floor(body: &Loop, machine: &MachineDesc, from: u32, cap: u32) -> u32 {
    if from >= cap || body.n_ops() == 0 {
        return from.min(cap);
    }
    // Union ops sharing a variant vreg (invariant operands hoist their
    // copies out of the kernel and never force kernel pressure).
    let n = body.n_ops();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut touch: Vec<Option<usize>> = vec![None; body.n_vregs()];
    for op in &body.ops {
        let o = op.id.index();
        for v in op.def.iter().chain(op.uses.iter()) {
            if body.is_invariant(*v) {
                continue;
            }
            match touch[v.index()] {
                Some(first) => {
                    let (a, b) = (find(&mut parent, first), find(&mut parent, o));
                    parent[a] = b;
                }
                None => touch[v.index()] = Some(o),
            }
        }
    }
    let mut size = vec![0usize; n];
    for o in 0..n {
        let r = find(&mut parent, o);
        size[r] += 1;
    }
    let fus_max = machine
        .clusters
        .iter()
        .map(|c| c.n_fus)
        .max()
        .unwrap_or(1)
        .max(1);
    let admits = |ii: u32| -> bool {
        let cap_per_bank = ii as usize * fus_max;
        let forced: usize = size
            .iter()
            .filter(|&&s| s > 0)
            .map(|&s| s.div_ceil(cap_per_bank).saturating_sub(1))
            .sum();
        match machine.copy_model {
            CopyModel::Embedded => body.n_ops() + forced <= ii as usize * machine.issue_width(),
            CopyModel::CopyUnit { busses, .. } => forced <= ii as usize * busses,
        }
    };
    let mut ii = from;
    while ii < cap && !admits(ii) {
        ii += 1;
    }
    ii
}
