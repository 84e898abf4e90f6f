//! Bank-assignment legality lints (`BANK001`–`BANK003`) and per-bank
//! register-pressure accounting (`PRES002`).

use crate::artifacts::Artifacts;
use crate::diag::{Diagnostic, LintCode, Report, SourceLoc, Stage};
use vliw_ir::RegClass;
use vliw_regalloc::{kernel_live_ranges, RegisterFiles};

/// Checks operand reachability and bank accounting: every bank index in
/// range (`BANK002`), every operand of the clustered body local to its
/// operation's cluster (`BANK001`), and — advisory — the bank populations
/// not grossly imbalanced when the balance penalty was on (`BANK003`).
pub struct BankPass;

impl crate::passes::LintPass for BankPass {
    fn name(&self) -> &'static str {
        "bank-legality"
    }

    fn run(&self, ctx: &Artifacts<'_>, report: &mut Report) {
        let n_banks = ctx.machine.n_clusters();

        if let Some(p) = ctx.partition {
            for (i, b) in p.bank_of.iter().enumerate() {
                if b.index() >= n_banks {
                    report.push(Diagnostic::new(
                        LintCode::Bank002,
                        Stage::Partition,
                        SourceLoc::vreg(vliw_ir::VReg(i as u32)).in_cluster(*b),
                        format!(
                            "v{i} assigned to bank {} but the machine has {} cluster(s)",
                            b.index(),
                            n_banks
                        ),
                    ));
                }
            }

            // BANK003 (warn): with the balance penalty enabled the greedy
            // assignment is supposed to "spread the symbolic registers
            // somewhat evenly"; one bank soaking up ≥85% of a non-trivial
            // register set on a multi-cluster machine means the penalty
            // did nothing.
            let sizes = p.sizes();
            let total: usize = sizes.iter().sum();
            if ctx.cfg.balance_factor > 0.0 && n_banks > 1 && total >= 8 {
                if let Some((heaviest, &count)) = sizes.iter().enumerate().max_by_key(|&(_, c)| *c)
                {
                    let frac = count as f64 / total as f64;
                    if frac >= 0.85 {
                        report.push(Diagnostic::new(
                            LintCode::Bank003,
                            Stage::Partition,
                            SourceLoc::default()
                                .in_cluster(vliw_machine::ClusterId(heaviest as u32)),
                            format!(
                                "bank {heaviest} holds {count} of {total} registers \
                                 ({:.0}%) despite balance_factor {}",
                                100.0 * frac,
                                ctx.cfg.balance_factor
                            ),
                        ));
                    }
                }
            }
        }

        if let Some(banks) = ctx.vreg_bank {
            for (i, b) in banks.iter().enumerate() {
                if b.index() >= n_banks {
                    report.push(Diagnostic::new(
                        LintCode::Bank002,
                        Stage::Copies,
                        SourceLoc::vreg(vliw_ir::VReg(i as u32)).in_cluster(*b),
                        format!(
                            "clustered v{i} assigned to bank {} but the machine has \
                             {} cluster(s)",
                            b.index(),
                            n_banks
                        ),
                    ));
                }
            }
        }

        // BANK001: after copy insertion, every operand must be local.
        let (Some(cb), Some(cluster_of), Some(banks)) =
            (ctx.clustered_body, ctx.cluster_of, ctx.vreg_bank)
        else {
            return;
        };
        for op in &cb.ops {
            let c = cluster_of[op.id.index()];
            if !op.opcode.is_copy() {
                for &u in &op.uses {
                    if banks[u.index()] != c {
                        report.push(Diagnostic::new(
                            LintCode::Bank001,
                            Stage::Copies,
                            SourceLoc::op(op.id).in_cluster(c),
                            format!(
                                "{} reads v{} from bank {} but executes on cluster \
                                 {} with no copy feeding it",
                                op.opcode.mnemonic(),
                                u.index(),
                                banks[u.index()].index(),
                                c.index()
                            ),
                        ));
                    }
                }
            }
            if let Some(d) = op.def {
                if banks[d.index()] != c {
                    report.push(Diagnostic::new(
                        LintCode::Bank001,
                        Stage::Copies,
                        SourceLoc::op(op.id).in_cluster(c),
                        format!(
                            "{} defines v{} into bank {} but executes on cluster {}",
                            op.opcode.mnemonic(),
                            d.index(),
                            banks[d.index()].index(),
                            c.index()
                        ),
                    ));
                }
            }
        }
    }
}

/// Checks per-bank, per-class MaxLive against the machine's bank capacity
/// (`PRES002`): a bank whose simultaneous live count exceeds its registers
/// cannot be coloured without spilling.
pub struct PressurePass;

impl crate::passes::LintPass for PressurePass {
    fn name(&self) -> &'static str {
        "bank-pressure"
    }

    fn run(&self, ctx: &Artifacts<'_>, report: &mut Report) {
        let (Some(cb), Some(banks), Some(cddg), Some(sched)) = (
            ctx.clustered_body,
            ctx.vreg_bank,
            ctx.cddg,
            ctx.clustered_sched,
        ) else {
            return;
        };
        if !crate::sched_lints::expandable(cb, sched) {
            return; // Live ranges divide by II; SCHED004 reports the schedule.
        }
        let lat = &ctx.machine.latencies;
        let (unroll, ranges) =
            kernel_live_ranges(cb, cddg, sched, |op| lat.of(cb.op(op).opcode) as i64);
        let files = RegisterFiles::new(cb, &ranges, banks, ctx.machine.n_clusters());
        for (bank_idx, cluster) in ctx.machine.clusters.iter().enumerate() {
            for class in [RegClass::Int, RegClass::Float] {
                let need = files.max_pressure(&ranges, bank_idx, class);
                let cap = match class {
                    RegClass::Int => cluster.int_regs,
                    RegClass::Float => cluster.float_regs,
                };
                if need > cap {
                    report.push(Diagnostic::new(
                        LintCode::Pres002,
                        Stage::Pressure,
                        SourceLoc::default().in_cluster(vliw_machine::ClusterId(bank_idx as u32)),
                        format!(
                            "bank {bank_idx} {class:?} MaxLive {need} exceeds capacity \
                             {cap} (MVE unroll {unroll}); colouring must spill"
                        ),
                    ));
                }
            }
        }
    }
}
