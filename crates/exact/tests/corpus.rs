//! Corpus-wide properties of the exact solver (ISSUE satellite): on every
//! small loop the cost ordering `exact ≤ greedy ≤ round-robin` holds, and
//! the search closes with `optimal = true` without a time budget.

use vliw_core::{
    assign_banks_caps, build_rcg, round_robin_partition, LoopContext, PartitionConfig,
};
use vliw_exact::{partition_cost, solve, ExactConfig};
use vliw_ir::Loop;
use vliw_loopgen::corpus;
use vliw_machine::MachineDesc;

/// The gap experiment's small-loop ceiling.
const MAX_REGS: usize = 12;

fn small_loops(c: &[Loop]) -> impl Iterator<Item = &Loop> {
    c.iter().filter(|l| l.n_vregs() <= MAX_REGS)
}

#[test]
fn corpus_has_a_meaningful_small_loop_slice() {
    // The gap table is only an interesting yardstick if the ≤12-register
    // slice is a real fraction of the corpus, not a handful of outliers.
    let c = corpus();
    let small = small_loops(&c).count();
    assert!(
        small >= 50,
        "only {small}/{} corpus loops have <= {MAX_REGS} vregs",
        c.len()
    );
}

#[test]
fn exact_cost_ordering_holds_on_every_small_loop() {
    let c = corpus();
    let mut checked = 0usize;
    for m in [MachineDesc::embedded(4, 4), MachineDesc::embedded(2, 8)] {
        for l in small_loops(&c) {
            let cfg = PartitionConfig::default();
            let ctx = LoopContext::new(l, &m);
            let g = build_rcg(l, &ctx.ideal, &ctx.slack, &cfg);
            let caps: Vec<usize> = m.clusters.iter().map(|cl| cl.n_fus).collect();
            let greedy_part = assign_banks_caps(&g, &caps, &cfg);
            let greedy = partition_cost(&g, &greedy_part, 0.0);
            let rr = partition_cost(&g, &round_robin_partition(l.n_vregs(), m.n_clusters()), 0.0);
            let r = solve(
                &g,
                m.n_clusters(),
                Some(&greedy_part),
                &ExactConfig::default(),
            );
            assert!(r.optimal, "{} on {}: search must close", l.name, m.name);
            assert!(
                r.cost <= greedy + 1e-9,
                "{} on {}: exact {} > greedy {}",
                l.name,
                m.name,
                r.cost,
                greedy
            );
            assert!(
                greedy <= rr + 1e-9,
                "{} on {}: greedy {} > round-robin {} — the heuristic \
                 regressed below the dumbest baseline",
                l.name,
                m.name,
                greedy,
                rr
            );
            // The returned partition must actually realise the claimed cost.
            assert!(
                (partition_cost(&g, &r.partition, 0.0) - r.cost).abs() <= 1e-9,
                "{} on {}: reported cost drifts from the returned partition",
                l.name,
                m.name
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 100,
        "only {checked} (loop, machine) pairs checked"
    );
}
