//! Golden pins of the joint solver over a fixed slice of the corpus and the
//! pressure corpus.
//!
//! Two FNV-1a digests fold every solve in the slice:
//!
//! * `joint_results_are_pinned` hashes only what a solve *returns*: the
//!   partition, the witness schedule, the four II figures and the
//!   optimality flag. No change to how the search finds the optimum
//!   (propagation bookkeeping, data layout, how the budget is polled) may
//!   move it.
//! * `joint_search_effort_is_pinned` also folds the effort counters (bank
//!   and residue nodes, propagations, both prune counters and the no-good
//!   counters), so it pins the trees themselves. A change to what the
//!   search *explores* (propagators, branch or value order, no-good
//!   learning, the poll cadence) moves it and has to re-pin here on
//!   purpose.
//!
//! The slice is every loop with 9–24 vregs on the six paper machines,
//! solved unbudgeted: most close with zero search (a seed sits on the
//! floor), and the rest search their bank and residue trees to closure.

use std::sync::OnceLock;
use vliw_core::PartitionConfig;
use vliw_joint::{solve_joint, JointConfig, JointResult};
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

/// Every solve of the slice, shared by both pins.
fn solves() -> &'static [JointResult] {
    static SOLVES: OnceLock<Vec<JointResult>> = OnceLock::new();
    SOLVES.get_or_init(|| {
        let loops: Vec<_> = corpus()
            .into_iter()
            .chain(pressure_corpus())
            .filter(|l| (9..=24).contains(&l.n_vregs()))
            .collect();
        let mut out = Vec::new();
        for (banks, fus) in [(2, 8), (4, 4), (8, 2)] {
            for m in [
                MachineDesc::embedded(banks, fus),
                MachineDesc::copy_unit(banks, fus),
            ] {
                for l in &loops {
                    let r =
                        solve_joint(l, &m, &PartitionConfig::default(), &JointConfig::default());
                    assert!(r.optimal, "{} on {}: search must close", l.name, m.name);
                    out.push(r);
                }
            }
        }
        out
    })
}

/// Fold what a solve returns: partition, schedule, II figures, optimality.
fn fold_result(d: &mut Fnv, r: &JointResult) {
    for b in &r.partition.bank_of {
        d.word(u64::from(b.0));
    }
    for (&t, c) in r.schedule.times.iter().zip(&r.schedule.clusters) {
        d.word(t as u64);
        d.word(u64::from(c.0));
    }
    for ii in [r.ii, r.greedy_ii, r.lower_bound_ii, r.seed_lb] {
        d.word(u64::from(ii));
    }
    d.word(u64::from(r.optimal));
}

#[test]
fn joint_results_are_pinned() {
    let mut d = Fnv(0xcbf2_9ce4_8422_2325);
    for r in solves() {
        fold_result(&mut d, r);
    }
    assert_eq!(solves().len(), 1134, "pinned slice changed size");
    assert_eq!(
        format!("{:016x}", d.0),
        "54613d426ac88e07",
        "joint results drifted from the pin"
    );
}

#[test]
fn joint_search_effort_is_pinned() {
    let mut d = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut searched, mut bank_nodes, mut sched_nodes) = (0u64, 0u64, 0u64);
    for r in solves() {
        fold_result(&mut d, r);
        let s = &r.stats;
        for w in [
            s.bank_nodes,
            s.sched_nodes,
            s.propagations,
            s.pruned_propagation,
            s.pruned_bound,
            s.nogood_hits,
            s.nogoods_recorded,
        ] {
            d.word(w);
        }
        searched += u64::from(s.bank_nodes + s.sched_nodes > 0);
        bank_nodes += s.bank_nodes;
        sched_nodes += s.sched_nodes;
    }
    assert_eq!(
        (searched, bank_nodes, sched_nodes),
        (176, 5_595, 3_772),
        "pinned slice changed size"
    );
    assert_eq!(
        format!("{:016x}", d.0),
        "e27a3cdca85a8a12",
        "joint search effort drifted from the pin"
    );
}
