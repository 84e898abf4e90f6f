//! Golden pin of the exact partitioner's search tree.
//!
//! Every solve in a fixed slice of the corpus and the pressure corpus is
//! folded into one FNV-1a digest: the returned partition, the cost's bit
//! pattern, the optimality flag and the three effort counters. A change to
//! how the search *computes* (bound bookkeeping, allocation, data layout)
//! must leave the digest untouched; a change to what it *decides* (the
//! bound, branch order, tie-breaks, `EPS`, the poll cadence) moves it and
//! has to re-pin here on purpose.

use vliw_core::{assign_banks_caps, build_rcg, LoopContext, PartitionConfig};
use vliw_exact::{solve, ExactConfig};
use vliw_ir::Loop;
use vliw_loopgen::{corpus, pressure_corpus};
use vliw_machine::MachineDesc;

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

/// The pinned slice: corpus loops with ≤16 vregs on 2×8 and 4×4 and ≤12 on
/// 8×2 (eight banks widen the tree fastest), plus pressure loops with
/// 13–20 vregs on all three machines.
fn slice() -> Vec<(MachineDesc, Loop)> {
    let c = corpus();
    let p = pressure_corpus();
    let mut out = Vec::new();
    for (banks, fus, cap) in [(2, 8, 16), (4, 4, 16), (8, 2, 12)] {
        let m = MachineDesc::embedded(banks, fus);
        for l in c.iter().filter(|l| l.n_vregs() <= cap) {
            out.push((m.clone(), l.clone()));
        }
        for l in p.iter().filter(|l| (13..=20).contains(&l.n_vregs())) {
            out.push((m.clone(), l.clone()));
        }
    }
    out
}

#[test]
fn exact_search_tree_is_pinned() {
    let cfg = PartitionConfig::default();
    let mut d = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut solves, mut nodes) = (0u64, 0u64);
    for (m, l) in slice() {
        let ctx = LoopContext::new(&l, &m);
        let g = build_rcg(&l, &ctx.ideal, &ctx.slack, &cfg);
        let caps: Vec<usize> = m.clusters.iter().map(|cl| cl.n_fus).collect();
        let seed = assign_banks_caps(&g, &caps, &cfg);
        let r = solve(&g, m.n_clusters(), Some(&seed), &ExactConfig::default());
        assert!(r.optimal, "{} on {}: search must close", l.name, m.name);
        for b in &r.partition.bank_of {
            d.word(u64::from(b.0));
        }
        d.word(r.cost.to_bits());
        d.word(u64::from(r.optimal));
        d.word(r.stats.nodes_expanded);
        d.word(r.stats.pruned_bound);
        d.word(r.stats.dominance_assigns);
        solves += 1;
        nodes += r.stats.nodes_expanded;
    }
    assert_eq!((solves, nodes), (405, 209_071), "pinned slice changed size");
    assert_eq!(
        format!("{:016x}", d.0),
        "95fb3d53bb03909e",
        "exact search tree drifted from the pin"
    );
}
