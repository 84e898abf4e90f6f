//! Dynamic-oracle wiring (`SIM006`): divergences found by the
//! cycle-accurate simulator flow through the same [`Diagnostic`] currency
//! as the static lints, so one report path renders both.

use crate::artifacts::Artifacts;
use crate::diag::{Diagnostic, LintCode, Report, SourceLoc, Stage};
use vliw_sim::{equivalence_failures, EquivError};

/// Convert one equivalence failure into a diagnostic.
pub fn equiv_diagnostic(err: &EquivError) -> Diagnostic {
    let loc = match err {
        EquivError::Memory { index, .. } => SourceLoc::default().at_cycle(*index as i64),
        _ => SourceLoc::default(),
    };
    Diagnostic::new(
        LintCode::Sim006,
        Stage::Sim,
        loc,
        format!("pipelined execution diverges from the scalar reference: {err}"),
    )
}

impl From<&EquivError> for Diagnostic {
    fn from(err: &EquivError) -> Self {
        equiv_diagnostic(err)
    }
}

/// Runs the clustered schedule through the cycle-accurate simulator and
/// compares bit-for-bit against the scalar reference. Not part of the
/// default registry: its cost is proportional to the trip count, so the
/// `vliw-lint` binary and the driver's `simulate` path opt in explicitly.
pub struct DynamicOraclePass;

impl crate::passes::LintPass for DynamicOraclePass {
    fn name(&self) -> &'static str {
        "dynamic-oracle"
    }

    fn run(&self, ctx: &Artifacts<'_>, report: &mut Report) {
        let (Some(cb), Some(sched)) = (ctx.clustered_body, ctx.clustered_sched) else {
            return;
        };
        if !crate::sched_lints::expandable(cb, sched) {
            return; // Nothing to run; SCHED004 reports the schedule.
        }
        for err in equivalence_failures(cb, sched, &ctx.machine.latencies) {
            report.push(equiv_diagnostic(&err));
        }
    }
}
