//! Mutation tests: corrupt a known-good pipeline artifact in one targeted
//! way and assert the analyzer catches it with the *expected* stable lint
//! code. Each code the sanitizer advertises is proven to fire here, not
//! just to exist.

use vliw_analysis::{analyze, Artifacts, LintCode};
use vliw_core::{
    assign_banks_caps, build_rcg, insert_copies, round_robin_partition, PartitionConfig,
};
use vliw_ddg::{build_ddg, compute_slack, Ddg};
use vliw_ir::{Loop, OpId, VReg};
use vliw_loopgen::Family;
use vliw_machine::ClusterId;
use vliw_machine::MachineDesc;
use vliw_sched::expand::Issue;
use vliw_sched::{expand, schedule_loop, ImsConfig, SchedProblem, Schedule};

/// Everything the full §4 pipeline produces for one loop on one machine,
/// owned so each test can corrupt its own copy.
struct Good {
    body: Loop,
    machine: MachineDesc,
    cfg: PartitionConfig,
    ideal: Schedule,
    slack: vliw_ddg::SlackInfo,
    rcg: vliw_core::RcgGraph,
    partition: vliw_core::Partition,
    clustered_body: Loop,
    cluster_of: Vec<ClusterId>,
    vreg_bank: Vec<ClusterId>,
    cddg: Ddg,
    sched: Schedule,
}

fn pipeline(body: Loop, machine: MachineDesc, round_robin: bool) -> Good {
    let cfg = PartitionConfig::default();
    let ims = ImsConfig::default();
    let ideal_machine =
        MachineDesc::monolithic(machine.issue_width()).with_latencies(machine.latencies.clone());
    let ddg = build_ddg(&body, &machine.latencies);
    let ideal_problem = SchedProblem::ideal(&body, &ideal_machine);
    let ideal = schedule_loop(&ideal_problem, &ddg, &ims).expect("ideal schedules");
    let slack = compute_slack(&ddg, |op| machine.latencies.of(body.op(op).opcode) as i64);
    let rcg = build_rcg(&body, &ideal, &slack, &cfg);
    let partition = if round_robin {
        round_robin_partition(body.n_vregs(), machine.n_clusters())
    } else {
        let caps: Vec<usize> = machine.clusters.iter().map(|c| c.n_fus).collect();
        assign_banks_caps(&rcg, &caps, &cfg)
    };
    let clustered = insert_copies(&body, &partition);
    assert!(clustered.all_operands_local());
    let cddg = build_ddg(&clustered.body, &machine.latencies);
    let problem = SchedProblem::clustered(&clustered.body, &machine, &clustered.cluster_of);
    let sched = schedule_loop(&problem, &cddg, &ims).expect("clustered schedules");
    Good {
        body,
        machine,
        cfg,
        ideal,
        slack,
        rcg,
        partition,
        clustered_body: clustered.body,
        cluster_of: clustered.cluster_of,
        vreg_bank: clustered.vreg_bank,
        cddg,
        sched,
    }
}

fn daxpy() -> Good {
    pipeline(
        Family::Daxpy.build(0, 4, 48),
        MachineDesc::embedded(4, 4),
        false,
    )
}

impl Good {
    /// Artifacts view over the front half (ideal schedule, RCG, partition).
    fn front(&self) -> Artifacts<'_> {
        Artifacts::new(&self.body, &self.machine, &self.cfg)
            .with_ideal(&self.ideal, &self.slack)
            .with_rcg(&self.rcg)
            .with_partition(&self.partition)
    }

    /// Artifacts view over the back half (clustered body and schedule).
    fn back(&self) -> Artifacts<'_> {
        Artifacts::new(&self.body, &self.machine, &self.cfg)
            .with_clustered(&self.clustered_body, &self.cluster_of, &self.vreg_bank)
            .with_cddg(&self.cddg)
            .with_schedule(&self.sched)
    }
}

#[test]
fn known_good_pipeline_is_clean() {
    let g = daxpy();
    let report = analyze(&g.front());
    assert!(
        !report.has_errors(),
        "front half:\n{}",
        report.render_text()
    );
    let report = analyze(&g.back());
    assert!(!report.has_errors(), "back half:\n{}", report.render_text());
}

/// Moving a value's bank out from under its consumers models a missing
/// copy: the operand turns foreign and BANK001 must fire.
#[test]
fn def_moved_across_banks_fires_bank001() {
    let mut g = daxpy();
    // A vreg used by a real (non-copy) op, so the foreign read is direct.
    let (op_idx, v) = g
        .clustered_body
        .ops
        .iter()
        .enumerate()
        .find_map(|(i, op)| (!op.opcode.is_copy() && !op.uses.is_empty()).then(|| (i, op.uses[0])))
        .expect("an op with operands");
    let home = g.cluster_of[op_idx];
    let foreign = ClusterId((home.0 + 1) % g.machine.n_clusters() as u32);
    g.vreg_bank[v.index()] = foreign;
    let report = analyze(&g.back());
    assert!(
        report.has_code(LintCode::Bank001),
        "expected BANK001:\n{}",
        report.render_text()
    );
}

/// Rewiring a consumer to read the copy's *source* instead of its result
/// is what "somebody dropped the copy" looks like in the dataflow.
#[test]
fn bypassed_copy_fires_bank001() {
    // Round-robin partitioning guarantees cross-bank flows, hence copies.
    let mut g = pipeline(
        Family::Daxpy.build(0, 4, 48),
        MachineDesc::embedded(4, 4),
        true,
    );
    let (copy_src, copy_dst) = g
        .clustered_body
        .ops
        .iter()
        .find_map(|op| {
            (op.opcode.is_copy() && op.def.is_some()).then(|| (op.uses[0], op.def.unwrap()))
        })
        .expect("round-robin induces at least one copy");
    let mut rewired = false;
    for op in &mut g.clustered_body.ops {
        if !op.opcode.is_copy() {
            for u in &mut op.uses {
                if *u == copy_dst {
                    *u = copy_src;
                    rewired = true;
                }
            }
        }
    }
    assert!(rewired, "copy result must have a consumer");
    let report = analyze(&g.back());
    assert!(
        report.has_code(LintCode::Bank001),
        "expected BANK001:\n{}",
        report.render_text()
    );
}

/// Shrinking the banks under a fixed schedule must trip the MaxLive
/// capacity lint.
#[test]
fn shrunken_banks_fire_pres002() {
    let mut g = daxpy();
    g.machine = g.machine.clone().with_regs_per_bank(2, 2);
    let report = analyze(&g.back());
    assert!(
        report.has_code(LintCode::Pres002),
        "expected PRES002:\n{}",
        report.render_text()
    );
}

/// Zeroing out a repulsion edge between two same-row definitions breaks
/// the §4.1 construction rule RCG003 guards.
#[test]
fn deleted_repulsion_edge_fires_rcg003() {
    let mut g = daxpy();
    let (a, b, w) = g
        .rcg
        .edges()
        .find(|&(_, _, w)| w < 0.0)
        .expect("unrolled daxpy has same-row defs, hence repulsion");
    g.rcg.bump_edge(a, b, -w); // cancel it exactly
    let report = analyze(&g.front());
    assert!(
        report.has_code(LintCode::Rcg003),
        "expected RCG003:\n{}",
        report.render_text()
    );
}

/// An edge between registers that never interact is construction noise;
/// the spurious-edge lint must flag it.
#[test]
fn spurious_edge_fires_rcg004() {
    let mut g = daxpy();
    let n = g.body.n_vregs();
    let pair = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (VReg(i as u32), VReg(j as u32))))
        .find(|&(a, b)| {
            g.rcg.edge_weight(a, b) == 0.0
                && !g.body.ops.iter().any(|op| {
                    let touches = |v: VReg| op.def == Some(v) || op.uses.contains(&v);
                    touches(a) && touches(b)
                })
        })
        .expect("some disjoint register pair");
    g.rcg.bump_edge(pair.0, pair.1, 5.0);
    let report = analyze(&g.front());
    assert!(
        report.has_code(LintCode::Rcg004),
        "expected RCG004:\n{}",
        report.render_text()
    );
}

/// Turning a copy into a self-copy severs the cross-bank dataflow it was
/// inserted to carry.
#[test]
fn self_copy_fires_copy004() {
    let mut g = pipeline(
        Family::Daxpy.build(0, 4, 48),
        MachineDesc::embedded(4, 4),
        true,
    );
    let idx = g
        .clustered_body
        .ops
        .iter()
        .position(|op| op.opcode.is_copy() && op.def.is_some())
        .expect("round-robin induces at least one copy");
    let d = g.clustered_body.ops[idx].def.unwrap();
    g.clustered_body.ops[idx].uses[0] = d;
    let report = analyze(&g.back());
    assert!(
        report.has_code(LintCode::Copy004),
        "expected COPY004:\n{}",
        report.render_text()
    );
}

/// Over-subscribing an MRT row — more same-row ops on a cluster than it
/// has functional units — must fail the resource replay.
#[test]
fn oversubscribed_mrt_row_fires_sched002() {
    let mut g = daxpy();
    for t in &mut g.sched.times {
        *t = 0;
    }
    let report = analyze(&g.back());
    assert!(
        report.has_code(LintCode::Sched002),
        "expected SCHED002:\n{}",
        report.render_text()
    );
}

/// Corrupting the flat expansion (wrong iteration tag on one issue) must
/// break the `cycle = iter·II + time(op)` identity EXP005 checks.
#[test]
fn corrupted_expansion_fires_exp005() {
    let g = daxpy();
    let mut flat = expand(&g.clustered_body, &g.sched);
    let issue = flat
        .cycles
        .iter_mut()
        .flat_map(|c| c.iter_mut())
        .next()
        .expect("flat program has issues");
    issue.iter += 1;
    let mut report = vliw_analysis::Report::new();
    vliw_analysis::check_expansion(&g.clustered_body, &g.sched, &flat, &mut report);
    assert!(
        report.has_code(LintCode::Exp005),
        "expected EXP005:\n{}",
        report.render_text()
    );

    // And the untouched expansion is clean.
    let flat = expand(&g.clustered_body, &g.sched);
    let mut report = vliw_analysis::Report::new();
    vliw_analysis::check_expansion(&g.clustered_body, &g.sched, &flat, &mut report);
    assert!(!report.has_errors(), "{}", report.render_text());
}

/// A duplicated issue fires EXP005's "issued more than once", and an issue
/// outside the loop's (op, iteration) domain is reported, not indexed:
/// exactly these findings, in scan order, after the issue-count mismatch
/// the two extra issues cause.
#[test]
fn duplicated_and_out_of_domain_issues_fire_exp005() {
    let g = daxpy();
    let body = &g.clustered_body;
    let mut flat = expand(body, &g.sched);
    let (cycle, dup) = flat
        .cycles
        .iter()
        .enumerate()
        .find_map(|(c, issues)| issues.first().map(|&i| (c, i)))
        .expect("flat program has issues");
    flat.cycles[cycle].push(dup);
    let stray = Issue {
        op: OpId(body.n_ops() as u32 + 3),
        iter: body.trip_count + 5,
    };
    flat.cycles.last_mut().expect("non-empty").push(stray);
    let mut report = vliw_analysis::Report::new();
    vliw_analysis::check_expansion(body, &g.sched, &flat, &mut report);
    let found: Vec<&str> = report
        .with_code(LintCode::Exp005)
        .iter()
        .map(|d| d.message.as_str())
        .collect();
    let want_issues = body.trip_count as usize * body.n_ops();
    assert_eq!(
        found,
        [
            format!(
                "{} issue(s) in the flat program; {} iteration(s) of {} op(s) requires {want_issues}",
                want_issues + 2,
                body.trip_count,
                body.n_ops()
            ),
            format!(
                "op{} of iteration {} issued more than once",
                dup.op.index(),
                dup.iter
            ),
            format!(
                "issue (op{}, iteration {}) is outside the loop's domain",
                stray.op.index(),
                stray.iter
            ),
        ],
        "{}",
        report.render_text()
    );
    assert_eq!(found.len(), report.diags.len(), "{}", report.render_text());
}

/// A dangling operand (register index past the register file) is the
/// baseline IR corruption every stage gate must catch.
#[test]
fn out_of_range_operand_fires_ir007() {
    let mut g = daxpy();
    let n = g.body.n_vregs();
    let op = g
        .body
        .ops
        .iter_mut()
        .find(|op| !op.uses.is_empty())
        .expect("ops with operands");
    op.uses[0] = VReg(n as u32 + 7);
    let report = analyze(&g.front());
    assert!(
        report.has_code(LintCode::Ir007),
        "expected IR007:\n{}",
        report.render_text()
    );
}
