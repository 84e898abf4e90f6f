//! `run_loop` rebuilt from the public layer calls, one span per call.
//!
//! The traced mode cannot see inside `vliw_pipeline::run_loop`, so it
//! replays the driver's steps itself — `LoopContext::with_scheduler`,
//! `build_rcg`/`assign_banks_caps`, `vliw_exact::solve`,
//! `vliw_joint::solve_joint`, `insert_copies`, `build_ddg`/`schedule_with`,
//! `allocate` and the two `Analyzer` gates — and wraps each in a span. The
//! rebuilt result must equal `run_loop`'s field for field; the runner checks
//! that on every op, so a driver change that this file does not follow
//! fails the run instead of skewing the layer split.
//!
//! The rebuild covers the configurations the workloads use: the greedy,
//! exact and joint partitioners, lint gates on, allocation on, simulation
//! off (the runner simulates the returned artifacts itself).

use crate::trace::span;
use vliw_analysis::{Analyzer, Artifacts, LintPass, Report};
use vliw_core::{build_rcg, insert_copies, LoopContext, Partition, RcgGraph};
use vliw_ddg::build_ddg;
use vliw_ir::Loop;
use vliw_machine::{CopyModel, MachineDesc};
use vliw_pipeline::{
    schedule_with, schedule_with_ctx, ExactOutcome, JointOutcome, LintMode, LoopResult,
    PartitionerKind, PipelineConfig,
};
use vliw_sched::{verify_schedule, SchedProblem, Schedule};

/// The rebuilt result plus what the output checks and counters need.
pub struct Rebuilt {
    pub result: LoopResult,
    /// The final clustered body (after copies and any spill code).
    pub body: Loop,
    /// Its schedule.
    pub sched: Schedule,
    pub exact: Option<vliw_exact::SolveStats>,
    /// RCG cost of the greedy seed the exact search started from.
    pub greedy_cost: Option<f64>,
    pub joint: Option<vliw_joint::JointStats>,
    /// Modulo-scheduler invocations (ideal, clustered, spill reschedules).
    pub sched_calls: u64,
}

/// A default lint pass under its own span.
struct TimedPass {
    span: &'static str,
    pass: Box<dyn LintPass>,
}

impl LintPass for TimedPass {
    fn name(&self) -> &'static str {
        self.pass.name()
    }
    fn run(&self, ctx: &Artifacts<'_>, report: &mut Report) {
        span(self.span, || self.pass.run(ctx, report));
    }
}

/// Span names of the default passes, in registry order.
pub const PASS_SPANS: [&str; 9] = [
    "analysis.ir",
    "analysis.normal",
    "analysis.rcg",
    "analysis.bank",
    "analysis.pressure",
    "analysis.copy",
    "analysis.sched",
    "analysis.expansion",
    "analysis.joint",
];

/// The default registry with one timing wrapper per pass. Panics if the
/// program's default registry no longer matches, so the per-pass split
/// never silently misses a pass.
pub fn timed_analyzer() -> Analyzer {
    use vliw_analysis::{bank_lints, copy_lints, ir_lints, joint_lints, normal_lints};
    use vliw_analysis::{rcg_lints, sched_lints};
    let passes: [Box<dyn LintPass>; 9] = [
        Box::new(ir_lints::IrPass),
        Box::new(normal_lints::NormalFormPass),
        Box::new(rcg_lints::RcgPass),
        Box::new(bank_lints::BankPass),
        Box::new(bank_lints::PressurePass),
        Box::new(copy_lints::CopyPass),
        Box::new(sched_lints::SchedPass),
        Box::new(sched_lints::ExpansionPass),
        Box::new(joint_lints::JointPass),
    ];
    let mut a = Analyzer::empty();
    for (span, pass) in PASS_SPANS.into_iter().zip(passes) {
        a.register(Box::new(TimedPass { span, pass }));
    }
    assert_eq!(
        a.pass_names(),
        Analyzer::with_default_passes().pass_names(),
        "the default lint registry changed; update the timed analyzer"
    );
    a
}

/// The driver's `run_loop`, step by step, under spans.
pub fn run_loop_traced(
    body: &Loop,
    machine: &MachineDesc,
    cfg: &PipelineConfig,
    analyzer: &Analyzer,
) -> Rebuilt {
    assert!(
        cfg.lint != LintMode::Off && cfg.allocate && !cfg.simulate && !cfg.simulate_physical,
        "the rebuild covers lint-gated, allocating, unsimulated configs"
    );
    let ctx = span("ddg.front_end", || {
        LoopContext::with_scheduler(body, machine, |p, g, sctx| {
            span("sched.ideal", || schedule_with_ctx(cfg, p, g, sctx))
        })
    });
    let (slack, ideal) = (&ctx.slack, &ctx.ideal);
    let caps: Vec<usize> = machine.clusters.iter().map(|c| c.n_fus).collect();

    let n_banks = machine.n_clusters();
    let mut rcg: Option<RcgGraph> = None;
    let mut joint: Option<vliw_joint::JointResult> = None;
    let mut exact: Option<(ExactOutcome, vliw_exact::SolveStats)> = None;
    let mut greedy_cost = None;
    let partition: Partition = match cfg.partitioner {
        PartitionerKind::Greedy => {
            let g = rcg.insert(span("core.rcg", || {
                build_rcg(body, ideal, slack, &cfg.partition)
            }));
            span("core.assign", || {
                vliw_core::assign_banks_caps(g, &caps, &cfg.partition)
            })
        }
        PartitionerKind::Exact { budget_ms } => {
            let g = rcg.insert(span("core.rcg", || {
                build_rcg(body, ideal, slack, &cfg.partition)
            }));
            let seed = span("core.assign", || {
                vliw_core::assign_banks_caps(g, &caps, &cfg.partition)
            });
            let exact_cfg = vliw_exact::ExactConfig {
                budget_ms,
                ..Default::default()
            };
            let r = span("exact.solve", || {
                vliw_exact::solve(g, n_banks, Some(&seed), &exact_cfg)
            });
            greedy_cost = Some(vliw_exact::partition_cost(
                g,
                &seed,
                exact_cfg.balance_weight,
            ));
            exact = Some((
                ExactOutcome {
                    cost: r.cost,
                    optimal: r.optimal,
                },
                r.stats,
            ));
            r.partition
        }
        PartitionerKind::Joint { budget_ms } => {
            rcg = Some(span("core.rcg", || {
                build_rcg(body, ideal, slack, &cfg.partition)
            }));
            let r = span("joint.solve", || {
                vliw_joint::solve_joint(
                    body,
                    machine,
                    &cfg.partition,
                    &vliw_joint::JointConfig { budget_ms },
                )
            });
            let part = r.partition.clone();
            joint = Some(r);
            part
        }
        other => panic!("the rebuild does not cover partitioner {other:?}"),
    };

    let mut diagnostics = span("analysis.gate", || {
        let mut actx = Artifacts::new(body, machine, &cfg.partition)
            .with_ideal(ideal, slack)
            .with_partition(&partition);
        if let Some(g) = &rcg {
            actx = actx.with_rcg(g);
        }
        analyzer.analyze(&actx)
    });

    let clustered = span("core.copies", || insert_copies(body, &partition));
    let mut work_body = clustered.body.clone();
    let mut work_cluster = clustered.cluster_of.clone();
    let mut work_banks = clustered.vreg_bank.clone();
    let mut cddg = span("ddg.clustered", || {
        build_ddg(&work_body, &machine.latencies)
    });
    let mut sched_calls = 1;
    let mut sched = span("sched.clustered", || {
        let problem = SchedProblem::clustered(&work_body, machine, &work_cluster);
        let witness = joint.as_ref().and_then(|j| {
            (j.schedule.times.len() == work_body.n_ops()
                && verify_schedule(&problem, &cddg, &j.schedule).is_ok())
            .then(|| j.schedule.clone())
        });
        witness.unwrap_or_else(|| {
            sched_calls += 1;
            schedule_with(cfg, &problem, &cddg)
        })
    });

    let mut rounds = 0usize;
    let spill_temp_floor = work_body.n_vregs();
    let mut already_spilled: Vec<vliw_ir::VReg> = Vec::new();
    let (spills, mve_unroll, peak_float_pressure, spill_rounds) = loop {
        let alloc = span("regalloc.allocate", || {
            vliw_regalloc::allocate(&work_body, &cddg, &sched, &work_banks, machine)
        });
        let summary = (
            alloc.total_spills(),
            alloc.unroll,
            alloc.peak_pressure(vliw_ir::RegClass::Float),
            rounds,
        );
        if alloc.total_spills() == 0 || rounds >= 8 {
            break summary;
        }
        let spilled = span("regalloc.spill", || {
            let mut victims: Vec<vliw_ir::VReg> = alloc
                .spilled
                .iter()
                .map(|&(v, _)| v)
                .filter(|&v| {
                    v.index() < spill_temp_floor
                        && !already_spilled.contains(&v)
                        && vliw_regalloc::spillable(&work_body, v)
                })
                .collect();
            victims.sort_unstable();
            victims.dedup();
            vliw_regalloc::insert_spill_code(&work_body, &work_cluster, &work_banks, &victims)
        });
        let Some(out) = spilled else {
            break summary;
        };
        already_spilled.extend(out.spilled.iter().copied());
        work_body = out.body;
        work_cluster = out.cluster_of;
        work_banks = out.vreg_bank;
        cddg = span("ddg.clustered", || {
            build_ddg(&work_body, &machine.latencies)
        });
        sched = span("sched.clustered", || {
            let problem = SchedProblem::clustered(&work_body, machine, &work_cluster);
            schedule_with(cfg, &problem, &cddg)
        });
        sched_calls += 1;
        rounds += 1;
    };

    let found = span("analysis.gate", || {
        let mut actx = Artifacts::new(body, machine, &cfg.partition)
            .with_clustered(&work_body, &work_cluster, &work_banks)
            .with_cddg(&cddg)
            .with_schedule(&sched);
        if let (Some(j), 0) = (&joint, spill_rounds) {
            actx = actx.with_joint(vliw_analysis::JointClaim {
                schedule: &j.schedule,
                claimed_ii: j.ii,
                greedy_ii: j.greedy_ii,
                lower_bound_ii: j.lower_bound_ii,
                optimal: j.optimal,
            });
        }
        let mut found = analyzer.analyze(&actx);
        if spills > 0 {
            for d in found.diags.iter_mut() {
                if d.code == vliw_analysis::LintCode::Pres002 {
                    d.severity = vliw_analysis::Severity::Warn;
                }
            }
        }
        found
    });
    diagnostics.merge(found);

    let n_ops = body.n_ops();
    let counted = match machine.copy_model {
        CopyModel::Embedded => n_ops + clustered.n_kernel_copies,
        CopyModel::CopyUnit { .. } => n_ops,
    };
    let result = LoopResult {
        name: body.name.clone(),
        n_ops,
        ideal_ii: ideal.ii,
        clustered_ii: sched.ii,
        n_copies: clustered.n_kernel_copies,
        n_hoisted: clustered.n_hoisted_copies,
        ideal_ipc: n_ops as f64 / ideal.ii as f64,
        clustered_ipc: counted as f64 / sched.ii as f64,
        normalized: 100.0 * sched.ii as f64 / ideal.ii as f64,
        spills,
        mve_unroll,
        peak_float_pressure,
        spill_rounds,
        sim_ok: None,
        diagnostics: diagnostics.diags,
        joint: joint.as_ref().map(|j| JointOutcome {
            ii: j.ii,
            greedy_ii: j.greedy_ii,
            lower_bound_ii: j.lower_bound_ii,
            optimal: j.optimal,
        }),
        exact: exact.map(|(o, _)| o),
    };
    Rebuilt {
        result,
        body: work_body,
        sched,
        exact: exact.map(|(_, s)| s),
        greedy_cost,
        joint: joint.map(|j| j.stats),
        sched_calls,
    }
}
