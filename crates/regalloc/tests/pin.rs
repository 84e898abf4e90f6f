//! Golden pin of the register allocator over the corpus.
//!
//! Every loop of the 211-loop corpus goes through the greedy pipeline (ideal
//! schedule, RCG, greedy bank assignment, copy insertion, clustered modulo
//! schedule) on the six paper machines, and once more on 4×4-embedded with
//! two registers per class per bank, where most loops spill. One FNV-1a
//! digest folds everything [`allocate`] returns: the MVE unroll factor,
//! every `assignment[v][k]`, the spilled `(vreg, instance)` list and the
//! per-(bank, class) statistics.
//!
//! A change to how the allocator *computes* (live ranges, interference,
//! colouring, pressure) must leave the digest untouched; a change to what
//! it *decides* (the simplify pick, the spill metric, the colour choice)
//! moves it and has to re-pin here on purpose.

use vliw_core::{assign_banks_caps, build_rcg, insert_copies, LoopContext, PartitionConfig};
use vliw_ddg::build_ddg;
use vliw_machine::MachineDesc;
use vliw_regalloc::{allocate, AllocResult};
use vliw_sched::{schedule_loop, ImsConfig, SchedProblem};

/// FNV-1a, 64-bit, over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Fold one allocation: unroll, assignment, spills, statistics.
fn fold(d: &mut Fnv, a: &AllocResult) {
    d.word(u64::from(a.unroll));
    d.word(a.assignment.len() as u64);
    for per_vreg in &a.assignment {
        d.word(per_vreg.len() as u64);
        for reg in per_vreg {
            d.word(reg.map_or(u64::MAX, u64::from));
        }
    }
    d.word(a.spilled.len() as u64);
    for &(v, k) in &a.spilled {
        d.word(u64::from(v.0));
        d.word(u64::from(k));
    }
    d.word(a.stats.len() as u64);
    for s in &a.stats {
        d.word(u64::from(s.bank.0));
        d.word(s.class as u64);
        d.word(s.n_ranges as u64);
        d.word(s.max_pressure as u64);
        d.word(s.n_colors_used as u64);
        d.word(s.n_spilled as u64);
    }
}

#[test]
fn allocations_are_pinned() {
    let mut machines = MachineDesc::paper_models(true);
    machines.extend(MachineDesc::paper_models(false));
    machines.push(MachineDesc::embedded(4, 4).with_regs_per_bank(2, 2));
    let cfg = PartitionConfig::default();
    let ims = ImsConfig::default();
    let corpus = vliw_loopgen::corpus();
    let mut d = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut allocations, mut spills) = (0usize, 0usize);
    for m in &machines {
        let caps: Vec<usize> = m.clusters.iter().map(|c| c.n_fus).collect();
        for l in &corpus {
            let ctx = LoopContext::new(l, m);
            let rcg = build_rcg(l, &ctx.ideal, &ctx.slack, &cfg);
            let partition = assign_banks_caps(&rcg, &caps, &cfg);
            let clustered = insert_copies(l, &partition);
            let cddg = build_ddg(&clustered.body, &m.latencies);
            let problem = SchedProblem::clustered(&clustered.body, m, &clustered.cluster_of);
            let sched = schedule_loop(&problem, &cddg, &ims).expect("clustered schedules");
            let a = allocate(&clustered.body, &cddg, &sched, &clustered.vreg_bank, m);
            fold(&mut d, &a);
            allocations += 1;
            spills += a.total_spills();
        }
    }
    assert_eq!(
        (allocations, spills),
        (1_477, 7_593),
        "pinned grid changed size"
    );
    assert_eq!(
        format!("{:016x}", d.0),
        "08d76f3741bd762c",
        "allocator output drifted from the pin"
    );
}
