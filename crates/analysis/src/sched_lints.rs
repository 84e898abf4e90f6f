//! Schedule legality (`SCHED001`–`SCHED004`) and flat-expansion shape
//! (`EXP005`) lints. These subsume `vliw_sched::verify_schedule`: every
//! [`ScheduleError`] maps onto a diagnostic, and the pass collects *all*
//! violations through [`verify_schedule_all`] rather than the first.

use crate::artifacts::Artifacts;
use crate::diag::{Diagnostic, LintCode, Report, SourceLoc, Stage};
use vliw_ir::Loop;
use vliw_machine::MachineDesc;
use vliw_sched::{expand, verify_schedule_all, FlatProgram, SchedProblem, Schedule, ScheduleError};

/// Re-verifies the ideal schedule (against a monolithic twin of the target)
/// and the clustered schedule (against the pinned problem), reporting every
/// violation as a diagnostic.
pub struct SchedPass;

impl crate::passes::LintPass for SchedPass {
    fn name(&self) -> &'static str {
        "schedule-legality"
    }

    fn run(&self, ctx: &Artifacts<'_>, report: &mut Report) {
        if let Some(ideal) = ctx.ideal {
            let twin = MachineDesc::monolithic(ctx.machine.issue_width())
                .with_latencies(ctx.machine.latencies.clone());
            let ddg = vliw_ddg::build_ddg(ctx.body, &ctx.machine.latencies);
            let problem = SchedProblem::ideal(ctx.body, &twin);
            for e in verify_schedule_all(&problem, &ddg, ideal) {
                report.push(schedule_diag(&e, ideal, "ideal"));
            }
        }
        let (Some(cb), Some(cluster_of), Some(cddg), Some(sched)) = (
            ctx.clustered_body,
            ctx.cluster_of,
            ctx.cddg,
            ctx.clustered_sched,
        ) else {
            return;
        };
        let problem = SchedProblem::clustered(cb, ctx.machine, cluster_of);
        for e in verify_schedule_all(&problem, cddg, sched) {
            report.push(schedule_diag(&e, sched, "clustered"));
        }
    }
}

/// Map one [`ScheduleError`] to its diagnostic.
pub fn schedule_diag(e: &ScheduleError, s: &Schedule, which: &str) -> Diagnostic {
    match e {
        ScheduleError::Shape => Diagnostic::new(
            LintCode::Sched004,
            Stage::Schedule,
            SourceLoc::default(),
            format!("{which} schedule shape mismatch: {e}"),
        ),
        ScheduleError::ZeroIi => Diagnostic::new(
            LintCode::Sched004,
            Stage::Schedule,
            SourceLoc::default(),
            format!("{which} schedule has II 0; a modulo schedule needs II ≥ 1"),
        ),
        ScheduleError::NegativeTime(o) => Diagnostic::new(
            LintCode::Sched004,
            Stage::Schedule,
            SourceLoc::op(*o).at_cycle(s.time(*o)),
            format!("{which} schedule issues op{} at negative time", o.index()),
        ),
        ScheduleError::Dependence {
            from,
            to,
            need,
            got,
        } => Diagnostic::new(
            LintCode::Sched001,
            Stage::Schedule,
            SourceLoc::op(*to).at_cycle(s.time(*to)),
            format!(
                "{which} schedule violates dependence op{}→op{} modulo II {}: \
                 need separation {need}, got {got}",
                from.index(),
                to.index(),
                s.ii
            ),
        ),
        ScheduleError::Resource(o) => Diagnostic::new(
            LintCode::Sched002,
            Stage::Schedule,
            SourceLoc::op(*o)
                .at_cycle(s.row(*o) as i64)
                .in_cluster(s.cluster(*o)),
            format!(
                "{which} schedule over-subscribes kernel row {} with op{}",
                s.row(*o),
                o.index()
            ),
        ),
        ScheduleError::WrongCluster(o) => Diagnostic::new(
            LintCode::Sched003,
            Stage::Schedule,
            SourceLoc::op(*o).in_cluster(s.cluster(*o)),
            format!(
                "{which} schedule places op{} on {} instead of its pinned cluster",
                o.index(),
                s.cluster(*o)
            ),
        ),
    }
}

/// Checks the prelude/kernel/postlude expansion against the schedule it was
/// expanded from (`EXP005`): stage structure, issue placement, and complete
/// single coverage of every (operation, iteration) pair.
pub struct ExpansionPass;

impl crate::passes::LintPass for ExpansionPass {
    fn name(&self) -> &'static str {
        "expansion-shape"
    }

    fn run(&self, ctx: &Artifacts<'_>, report: &mut Report) {
        let (Some(cb), Some(sched)) = (ctx.clustered_body, ctx.clustered_sched) else {
            return;
        };
        if !expandable(cb, sched) {
            return; // SCHED004 reports it; there is no expansion to check.
        }
        let owned;
        let flat = match ctx.flat {
            Some(f) => f,
            None => {
                owned = expand(cb, sched);
                &owned
            }
        };
        check_expansion(cb, sched, flat, report);
    }
}

/// True when `s` can be expanded and replayed for `body`: one time and one
/// cluster per op, II ≥ 1 and no negative issue time. The passes that
/// divide by II or index cycles by issue time stand down on any other
/// schedule, which `SchedPass` reports as SCHED004.
pub(crate) fn expandable(body: &Loop, s: &Schedule) -> bool {
    s.ii > 0
        && s.times.len() == body.n_ops()
        && s.clusters.len() == body.n_ops()
        && s.times.iter().all(|&t| t >= 0)
}

/// The `EXP005` core, shared with mutation tests that corrupt a
/// [`FlatProgram`] directly. `s` must pass the SCHED004 checks (II ≥ 1, no
/// negative issue time); the program's own layout is checked here.
pub fn check_expansion(body: &Loop, s: &Schedule, flat: &FlatProgram, report: &mut Report) {
    let push = |report: &mut Report, loc: SourceLoc, msg: String| {
        report.push(Diagnostic::new(LintCode::Exp005, Stage::Expand, loc, msg));
    };
    if flat.ii != s.ii {
        push(
            report,
            SourceLoc::default(),
            format!(
                "expansion records II {} but the schedule has II {}",
                flat.ii, s.ii
            ),
        );
        return; // Every later formula keys off II; don't cascade.
    }
    let sc = s.stage_count();
    if flat.stage_count != sc {
        push(
            report,
            SourceLoc::default(),
            format!(
                "expansion records {} pipeline stage(s) but the schedule has {}",
                flat.stage_count, sc
            ),
        );
    }
    let trip = body.trip_count;
    if trip == 0 || body.n_ops() == 0 {
        if !flat.is_empty() {
            push(
                report,
                SourceLoc::default(),
                format!("zero-trip loop expanded to {} cycle(s)", flat.len()),
            );
        }
        return;
    }
    let (want_prelude, want_reps) = if trip >= sc {
        (((sc - 1) * s.ii) as usize, trip - sc + 1)
    } else {
        (0, 0)
    };
    if flat.prelude_cycles != want_prelude {
        push(
            report,
            SourceLoc::default(),
            format!(
                "prelude is {} cycle(s); (SC−1)·II = ({sc}−1)·{} requires {want_prelude}",
                flat.prelude_cycles, s.ii
            ),
        );
    }
    if flat.kernel_reps != want_reps {
        push(
            report,
            SourceLoc::default(),
            format!(
                "{} steady-state kernel repetition(s); trip {} with {} stage(s) \
                 requires {want_reps}",
                flat.kernel_reps, trip, sc
            ),
        );
    }
    let want_issues = trip as usize * body.n_ops();
    if flat.n_issues() != want_issues {
        push(
            report,
            SourceLoc::default(),
            format!(
                "{} issue(s) in the flat program; {} iteration(s) of {} op(s) \
                 requires {want_issues}",
                flat.n_issues(),
                trip,
                body.n_ops()
            ),
        );
    }
    let max_t = s.times.iter().copied().max().unwrap_or(0);
    let want_len = ((trip as i64 - 1) * s.ii as i64 + max_t + 1) as usize;
    if flat.len() != want_len {
        push(
            report,
            SourceLoc::default(),
            format!(
                "flat program spans {} cycle(s), expected {want_len}",
                flat.len()
            ),
        );
    }
    if !flat.is_well_formed() {
        push(
            report,
            SourceLoc::default(),
            format!(
                "flat program's {} cycle offset(s) do not lay out its {} issue(s)",
                flat.starts.len(),
                flat.n_issues()
            ),
        );
        return;
    }
    // Seen (op, iteration) pairs, a dense bitmap indexed `op·trip + iter`:
    // one bit per issue a correct expansion holds.
    let mut seen = vec![0u64; want_issues.div_ceil(64)];
    for (cycle, issues) in flat.cycles().enumerate() {
        for iss in issues {
            if iss.op.index() >= body.n_ops() || iss.iter >= trip {
                push(
                    report,
                    SourceLoc::op(iss.op).at_cycle(cycle as i64),
                    format!(
                        "issue (op{}, iteration {}) is outside the loop's domain",
                        iss.op.index(),
                        iss.iter
                    ),
                );
                continue;
            }
            let want_cycle = iss.iter as i64 * s.ii as i64 + s.time(iss.op);
            if cycle as i64 != want_cycle {
                push(
                    report,
                    SourceLoc::op(iss.op).at_cycle(cycle as i64),
                    format!(
                        "op{} of iteration {} issued at cycle {cycle}; the schedule \
                         places it at {want_cycle}",
                        iss.op.index(),
                        iss.iter
                    ),
                );
            }
            let bit = iss.op.index() * trip as usize + iss.iter as usize;
            let (word, mask) = (bit / 64, 1u64 << (bit % 64));
            if seen[word] & mask != 0 {
                push(
                    report,
                    SourceLoc::op(iss.op).at_cycle(cycle as i64),
                    format!(
                        "op{} of iteration {} issued more than once",
                        iss.op.index(),
                        iss.iter
                    ),
                );
            }
            seen[word] |= mask;
        }
    }
}
