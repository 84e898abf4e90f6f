//! Golden pins of the exact partitioner over a fixed slice of the corpus
//! and the pressure corpus.
//!
//! Two FNV-1a digests fold every solve in the slice:
//!
//! * `exact_results_are_pinned` hashes only what a solve *returns*: the
//!   partition, the cost's bit pattern and the optimality flag. No change
//!   to how the search finds the optimum (a tighter admissible bound,
//!   bookkeeping, data layout) may move it.
//! * `exact_search_tree_is_pinned` also folds the three effort counters, so
//!   it pins the tree itself. A change to how the search *computes* must
//!   leave it untouched; a change to what it *explores* (the bound, branch
//!   order, tie-breaks, `EPS`, the poll cadence) moves it and has to re-pin
//!   here on purpose.

use vliw_core::{assign_banks_caps, build_rcg, LoopContext, PartitionConfig};
use vliw_exact::{solve, ExactConfig, ExactResult};
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

/// Solve every loop of the slice from its greedy seed, unbudgeted.
fn solve_slice() -> Vec<ExactResult> {
    let cfg = PartitionConfig::default();
    slice()
        .into_iter()
        .map(|(m, l)| {
            let ctx = LoopContext::new(&l, &m);
            let g = build_rcg(&l, &ctx.ideal, &ctx.slack, &cfg);
            let caps: Vec<usize> = m.clusters.iter().map(|cl| cl.n_fus).collect();
            let seed = assign_banks_caps(&g, &caps, &cfg);
            let r = solve(&g, m.n_clusters(), Some(&seed), &ExactConfig::default());
            assert!(r.optimal, "{} on {}: search must close", l.name, m.name);
            r
        })
        .collect()
}

/// Fold what a solve returns: partition, cost bits, optimality.
fn fold_result(d: &mut Fnv, r: &ExactResult) {
    for b in &r.partition.bank_of {
        d.word(u64::from(b.0));
    }
    d.word(r.cost.to_bits());
    d.word(u64::from(r.optimal));
}

#[test]
fn exact_results_are_pinned() {
    let mut d = Fnv(0xcbf2_9ce4_8422_2325);
    let all = solve_slice();
    for r in &all {
        fold_result(&mut d, r);
    }
    assert_eq!(all.len(), 405, "pinned slice changed size");
    assert_eq!(
        format!("{:016x}", d.0),
        "5c7fea7dc4858b67",
        "exact results drifted from the pin"
    );
}

#[test]
fn exact_search_tree_is_pinned() {
    let mut d = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut solves, mut nodes) = (0u64, 0u64);
    for r in solve_slice() {
        fold_result(&mut d, &r);
        d.word(r.stats.nodes_expanded);
        d.word(r.stats.pruned_bound);
        d.word(r.stats.dominance_assigns);
        solves += 1;
        nodes += r.stats.nodes_expanded;
    }
    assert_eq!((solves, nodes), (405, 91_965), "pinned slice changed size");
    assert_eq!(
        format!("{:016x}", d.0),
        "2428d4b06bcf61c0",
        "exact search tree drifted from the pin"
    );
}
