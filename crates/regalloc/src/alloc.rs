//! Per-bank, per-class register assignment driver.

use crate::color::color_with_costs;
use crate::interfere::InterferenceGraph;
use crate::live::{kernel_live_ranges, max_pressure_of, CyclicInterval, LiveRange};
use vliw_ddg::Ddg;
use vliw_ir::{Loop, RegClass};
use vliw_machine::{ClusterId, MachineDesc};
use vliw_sched::Schedule;

/// Live ranges grouped by register file, one pass over the ranges: the
/// indices of each (bank, class) file's ranges, in range order.
pub struct RegisterFiles {
    /// `members[at[f]..at[f + 1]]` belong to file `f = bank * 2 + class`.
    at: Vec<u32>,
    members: Vec<u32>,
}

impl RegisterFiles {
    /// Group `ranges` of `body`: each range joins the file of its
    /// register's bank in `vreg_bank` and its class. A register whose bank
    /// is missing from `vreg_bank` or not below `n_banks` joins no file.
    pub fn new(
        body: &Loop,
        ranges: &[LiveRange],
        vreg_bank: &[ClusterId],
        n_banks: usize,
    ) -> RegisterFiles {
        let file = |r: &LiveRange| {
            let bank = vreg_bank.get(r.vreg.index())?.index();
            (bank < n_banks).then(|| bank * 2 + body.class_of(r.vreg).index())
        };
        let mut at = vec![0u32; 2 * n_banks + 1];
        for f in ranges.iter().filter_map(file) {
            at[f + 1] += 1;
        }
        for f in 0..2 * n_banks {
            at[f + 1] += at[f];
        }
        let mut fill = at.clone();
        let mut members = vec![0u32; at[2 * n_banks] as usize];
        for (i, r) in ranges.iter().enumerate() {
            if let Some(f) = file(r) {
                members[fill[f] as usize] = i as u32;
                fill[f] += 1;
            }
        }
        RegisterFiles { at, members }
    }

    /// Indices of the ranges in `bank`'s `class` file, ascending.
    pub(crate) fn members(&self, bank: usize, class: RegClass) -> &[u32] {
        let f = bank * 2 + class.index();
        &self.members[self.at[f] as usize..self.at[f + 1] as usize]
    }

    /// Peak simultaneous liveness in `bank`'s `class` file (its MaxLive).
    pub fn max_pressure(&self, ranges: &[LiveRange], bank: usize, class: RegClass) -> usize {
        max_pressure_of(
            self.members(bank, class)
                .iter()
                .map(|&i| ranges[i as usize].interval),
        )
    }
}

/// Colouring statistics for one (bank, class) register file.
#[derive(Debug, Clone)]
pub struct BankClassStats {
    /// The bank.
    pub bank: ClusterId,
    /// The class.
    pub class: RegClass,
    /// Live-range nodes coloured.
    pub n_ranges: usize,
    /// Peak simultaneous liveness.
    pub max_pressure: usize,
    /// Registers actually used.
    pub n_colors_used: usize,
    /// Ranges that could not be coloured.
    pub n_spilled: usize,
}

/// Complete allocation result.
#[derive(Debug, Clone)]
pub struct AllocResult {
    /// MVE kernel unroll factor.
    pub unroll: u32,
    /// Physical register per (vreg, instance): `assignment[v][k]`.
    /// `None` = spilled.
    pub assignment: Vec<Vec<Option<u32>>>,
    /// Live ranges the colourer could not colour, as `(vreg, instance)`.
    pub spilled: Vec<(vliw_ir::VReg, u32)>,
    /// Per-(bank, class) statistics.
    pub stats: Vec<BankClassStats>,
}

impl AllocResult {
    /// Total spills across all banks and classes.
    pub fn total_spills(&self) -> usize {
        self.stats.iter().map(|s| s.n_spilled).sum()
    }

    /// Peak pressure across banks for a class.
    pub fn peak_pressure(&self, class: RegClass) -> usize {
        self.stats
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.max_pressure)
            .max()
            .unwrap_or(0)
    }
}

/// Run Chaitin/Briggs per register bank and class.
///
/// `vreg_bank` gives the bank of every virtual register (from the
/// partitioner); `s` is the final clustered schedule. Register capacities
/// come from the machine description.
pub fn allocate(
    body: &Loop,
    ddg: &Ddg,
    s: &Schedule,
    vreg_bank: &[ClusterId],
    machine: &MachineDesc,
) -> AllocResult {
    assert_eq!(vreg_bank.len(), body.n_vregs());
    let (unroll, all_ranges) = kernel_live_ranges(body, ddg, s, |op| {
        machine.latencies.of(body.op(op).opcode) as i64
    });

    let mut assignment: Vec<Vec<Option<u32>>> = vec![vec![None; unroll as usize]; body.n_vregs()];
    let mut spilled = Vec::new();
    let mut stats = Vec::new();
    let files = RegisterFiles::new(body, &all_ranges, vreg_bank, machine.n_clusters());
    let mut intervals: Vec<CyclicInterval> = Vec::new();

    for bank in machine.cluster_ids() {
        for class in RegClass::ALL {
            let members = files.members(bank.index(), class);
            if members.is_empty() {
                continue;
            }
            let range = |i: usize| &all_ranges[members[i] as usize];
            let capacity = match class {
                RegClass::Int => machine.clusters[bank.index()].int_regs,
                RegClass::Float => machine.clusters[bank.index()].float_regs,
            };
            intervals.clear();
            intervals.extend((0..members.len()).map(|i| range(i).interval));
            let graph = InterferenceGraph::from_intervals(&intervals);
            let out = color_with_costs(&graph, |i| range(i).cost, capacity);
            debug_assert!(out.is_valid(&graph));
            for (i, &c) in out.colors.iter().enumerate() {
                let r = range(i);
                assignment[r.vreg.index()][r.instance as usize] = c;
                if c.is_none() {
                    spilled.push((r.vreg, r.instance));
                }
            }
            stats.push(BankClassStats {
                bank,
                class,
                n_ranges: members.len(),
                max_pressure: max_pressure_of(intervals.iter().copied()),
                n_colors_used: out.n_colors_used,
                n_spilled: out.n_spilled,
            });
        }
    }

    AllocResult {
        unroll,
        assignment,
        spilled,
        stats,
    }
}

/// Check assignment validity against the underlying live ranges: no two
/// overlapping ranges in the same (bank, class) share a physical register.
pub fn validate_allocation(
    body: &Loop,
    ddg: &Ddg,
    s: &Schedule,
    vreg_bank: &[ClusterId],
    machine: &MachineDesc,
    alloc: &AllocResult,
) -> bool {
    let (_, ranges) = kernel_live_ranges(body, ddg, s, |op| {
        machine.latencies.of(body.op(op).opcode) as i64
    });
    for (i, a) in ranges.iter().enumerate() {
        let pa = alloc.assignment[a.vreg.index()][a.instance as usize];
        let Some(pa) = pa else { continue };
        for b in &ranges[i + 1..] {
            let pb = alloc.assignment[b.vreg.index()][b.instance as usize];
            if pb != Some(pa) {
                continue;
            }
            let same_file = vreg_bank[a.vreg.index()] == vreg_bank[b.vreg.index()]
                && body.class_of(a.vreg) == body.class_of(b.vreg);
            if same_file && a.interval.overlaps(&b.interval) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ddg::build_ddg;
    use vliw_ir::{LoopBuilder, RegClass, VReg};
    use vliw_sched::{schedule_loop, ImsConfig, SchedProblem};

    fn daxpy(unroll: usize) -> Loop {
        let mut b = LoopBuilder::new("daxpy");
        let x = b.array("x", RegClass::Float, 1024);
        let y = b.array("y", RegClass::Float, 1024);
        let a = b.live_in_float("a");
        for u in 0..unroll as i64 {
            let xv = b.load(x, u, unroll as i64);
            let yv = b.load(y, u, unroll as i64);
            let p = b.fmul(a, xv);
            let s = b.fadd(yv, p);
            b.store(y, u, unroll as i64, s);
        }
        b.finish(128)
    }

    fn run(l: &Loop, m: &MachineDesc) -> (Ddg, Schedule) {
        let g = build_ddg(l, &m.latencies);
        let p = SchedProblem::ideal(l, m);
        let s = schedule_loop(&p, &g, &ImsConfig::default()).unwrap();
        (g, s)
    }

    #[test]
    fn daxpy_allocates_without_spills() {
        let l = daxpy(8);
        let m = MachineDesc::monolithic(16);
        let (g, s) = run(&l, &m);
        let banks = vec![ClusterId(0); l.n_vregs()];
        let alloc = allocate(&l, &g, &s, &banks, &m);
        assert_eq!(alloc.total_spills(), 0);
        assert!(validate_allocation(&l, &g, &s, &banks, &m, &alloc));
        assert!(alloc.unroll >= 1);
        // Every float vreg instance got a register.
        for v in 0..l.n_vregs() {
            for k in 0..alloc.unroll as usize {
                if !l.defs_of(VReg(v as u32)).is_empty() || l.is_live_in(VReg(v as u32)) {
                    assert!(alloc.assignment[v][k].is_some() || k > 0);
                }
            }
        }
    }

    #[test]
    fn tiny_bank_forces_spills() {
        let l = daxpy(8);
        let m = MachineDesc::monolithic(16).with_regs_per_bank(2, 2);
        let (g, s) = run(&l, &m);
        let banks = vec![ClusterId(0); l.n_vregs()];
        let alloc = allocate(&l, &g, &s, &banks, &m);
        assert!(alloc.total_spills() > 0);
        // Even with spills, what was coloured must be consistent.
        assert!(validate_allocation(&l, &g, &s, &banks, &m, &alloc));
    }

    #[test]
    fn split_banks_partition_pressure() {
        let l = daxpy(4);
        let m = MachineDesc::embedded(2, 8);
        let (g, s) = run(&l, &m);
        // Alternate registers between the two banks (arbitrary but legal for
        // allocation purposes — copy correctness is not at stake here).
        let banks: Vec<ClusterId> = (0..l.n_vregs())
            .map(|i| ClusterId((i % 2) as u32))
            .collect();
        let alloc = allocate(&l, &g, &s, &banks, &m);
        assert_eq!(alloc.total_spills(), 0);
        let bank_stats: Vec<_> = alloc
            .stats
            .iter()
            .filter(|st| st.class == RegClass::Float)
            .collect();
        assert_eq!(bank_stats.len(), 2);
        assert!(validate_allocation(&l, &g, &s, &banks, &m, &alloc));
    }

    #[test]
    fn pressure_reported_at_least_colors() {
        let l = daxpy(8);
        let m = MachineDesc::monolithic(16);
        let (g, s) = run(&l, &m);
        let banks = vec![ClusterId(0); l.n_vregs()];
        let alloc = allocate(&l, &g, &s, &banks, &m);
        for st in &alloc.stats {
            assert!(st.max_pressure <= st.n_ranges);
            assert!(st.n_colors_used >= st.max_pressure.min(st.n_colors_used));
            assert!(st.n_colors_used <= st.n_ranges);
        }
    }
}
