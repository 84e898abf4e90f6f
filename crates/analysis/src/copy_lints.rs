//! Copy-network dataflow lints (`COPY004`, `COPY005`): every kernel copy
//! must move a value between banks, feed at least one consumer, appear at
//! most once per (reaching def, destination bank), and be wired into the
//! rebuilt DDG with the machine's copy latency.

use crate::artifacts::Artifacts;
use crate::diag::{Diagnostic, LintCode, Report, SourceLoc, Stage};
use std::collections::BTreeMap;
use vliw_ddg::DepKind;
use vliw_ir::DefUseIndex;

/// Checks the copy network of the clustered body.
pub struct CopyPass;

impl crate::passes::LintPass for CopyPass {
    fn name(&self) -> &'static str {
        "copy-dataflow"
    }

    fn run(&self, ctx: &Artifacts<'_>, report: &mut Report) {
        let (Some(cb), Some(banks)) = (ctx.clustered_body, ctx.vreg_bank) else {
            return;
        };

        // Def and use positions per register, for reaching-def queries.
        let du = DefUseIndex::new(cb);

        // Duplicate detection: (reaching producer, destination bank) → copies.
        // BTreeMap so duplicate-copy findings are emitted in a stable order
        // (the report feeds serialized output and golden files).
        let mut sources: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();

        for op in &cb.ops {
            if !op.opcode.is_copy() {
                continue;
            }
            let loc = SourceLoc::op(op.id);
            let (Some(d), [src]) = (op.def, op.uses.as_slice()) else {
                report.push(Diagnostic::new(
                    LintCode::Copy004,
                    Stage::Copies,
                    loc,
                    format!(
                        "copy op{} is malformed: expected exactly one def and one \
                         use, found def {:?} and {} use(s)",
                        op.id.index(),
                        op.def,
                        op.uses.len()
                    ),
                ));
                continue;
            };
            let src = *src;

            if banks[d.index()] == banks[src.index()] {
                report.push(Diagnostic::new(
                    LintCode::Copy004,
                    Stage::Copies,
                    loc.in_cluster(banks[d.index()]),
                    format!(
                        "copy op{} moves v{} to v{} within bank {} — a copy must \
                         cross banks",
                        op.id.index(),
                        src.index(),
                        d.index(),
                        banks[d.index()].index()
                    ),
                ));
            }
            if cb.class_of(d) != cb.class_of(src) {
                report.push(Diagnostic::new(
                    LintCode::Copy004,
                    Stage::Copies,
                    loc,
                    format!(
                        "copy op{} changes register class: v{} is {:?}, v{} is {:?}",
                        op.id.index(),
                        src.index(),
                        cb.class_of(src),
                        d.index(),
                        cb.class_of(d)
                    ),
                ));
            }
            if du.uses(d).is_empty() && !cb.live_out.contains(&d) {
                report.push(Diagnostic::new(
                    LintCode::Copy004,
                    Stage::Copies,
                    loc,
                    format!(
                        "copy op{} is orphaned: its result v{} is never read and \
                         not live-out",
                        op.id.index(),
                        d.index()
                    ),
                ));
            }

            // Reaching producer of the source (textual semantics, wrapping to
            // the last def for use-before-def recurrences), mirroring copy
            // insertion's sharing key. Invariant sources should have been
            // hoisted, not copied in the kernel.
            let srcdefs = du.defs(src);
            match srcdefs
                .iter()
                .map(|p| p.index())
                .rfind(|&p| p < op.id.index())
                .or(srcdefs.last().map(|p| p.index()))
            {
                Some(producer) => {
                    sources
                        .entry((producer, banks[d.index()].index()))
                        .or_default()
                        .push(op.id.index());
                }
                None => {
                    report.push(Diagnostic::new(
                        LintCode::Copy004,
                        Stage::Copies,
                        loc,
                        format!(
                            "copy op{} reads loop-invariant v{} in the kernel — \
                             invariant copies must be hoisted out of the loop",
                            op.id.index(),
                            src.index()
                        ),
                    ));
                }
            }

            // COPY005: the rebuilt DDG must wire producer → copy → consumers,
            // and the copy's out-edges must carry the machine's copy latency.
            if let Some(cddg) = ctx.cddg {
                let has_producer_edge = cddg
                    .preds(op.id)
                    .any(|e| e.kind == DepKind::Flow && cb.op(e.from).def == Some(src));
                if !srcdefs.is_empty() && !has_producer_edge {
                    report.push(Diagnostic::new(
                        LintCode::Copy005,
                        Stage::Copies,
                        loc,
                        format!(
                            "rebuilt DDG has no flow edge from v{}'s producer into \
                             copy op{}",
                            src.index(),
                            op.id.index()
                        ),
                    ));
                }
                let copy_lat = ctx.machine.latencies.of(op.opcode) as i64;
                for e in cddg.succs(op.id) {
                    if e.kind == DepKind::Flow && e.latency != copy_lat {
                        report.push(Diagnostic::new(
                            LintCode::Copy005,
                            Stage::Copies,
                            loc,
                            format!(
                                "flow edge op{}→op{} carries latency {} but the \
                                 machine's copy latency is {copy_lat}",
                                op.id.index(),
                                e.to.index(),
                                e.latency
                            ),
                        ));
                    }
                }
            }
        }

        for ((producer, bank), copies) in sources {
            if copies.len() > 1 {
                report.push(Diagnostic::new(
                    LintCode::Copy004,
                    Stage::Copies,
                    SourceLoc::op(vliw_ir::OpId(copies[1] as u32))
                        .in_cluster(vliw_machine::ClusterId(bank as u32)),
                    format!(
                        "ops {copies:?} all copy the value defined at op{producer} \
                         into bank {bank}; copies of one value into one bank must \
                         be shared"
                    ),
                ));
            }
        }
    }
}
