//! Mutation tests: corrupt a known-good pipeline artifact in one targeted
//! way and assert the analyzer catches it with the *expected* stable lint
//! code. Each code the sanitizer advertises is proven to fire here, not
//! just to exist.
//!
//! Every report is also compared with its full rendered text (code,
//! location, message and order of every finding), so a faster lint kernel
//! cannot reword, relocate or reorder a finding: RCG003's kernel row and
//! PRES002's MaxLive are part of the text.

use vliw_analysis::{analyze, Artifacts, LintCode, Report};
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

/// Assert that `report` carries `code` and renders exactly `want`.
fn assert_renders(report: &Report, code: LintCode, want: &str) {
    assert!(
        report.has_code(code),
        "expected {}:\n{}",
        code.code(),
        report.render_text()
    );
    assert_eq!(report.render_text(), want, "the report's text drifted");
}

/// The summary line of a report with no findings.
const CLEAN: &str = "0 error(s), 0 warning(s), 0 note(s)\n";

#[test]
fn known_good_pipeline_is_clean() {
    let g = daxpy();
    assert_eq!(analyze(&g.front()).render_text(), CLEAN, "front half");
    assert_eq!(analyze(&g.back()).render_text(), CLEAN, "back half");
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
    assert_renders(&report, LintCode::Bank001, DEF_MOVED);
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
    assert_renders(&report, LintCode::Bank001, BYPASSED_COPY);
}

/// Shrinking the banks under a fixed schedule must trip the MaxLive
/// capacity lint.
#[test]
fn shrunken_banks_fire_pres002() {
    let mut g = daxpy();
    g.machine = g.machine.clone().with_regs_per_bank(2, 2);
    let report = analyze(&g.back());
    assert_renders(&report, LintCode::Pres002, SHRUNKEN_BANKS);
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
    assert_renders(&report, LintCode::Rcg003, DELETED_REPULSION);
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
    assert_renders(&report, LintCode::Rcg004, SPURIOUS_EDGE);
}

/// Lowering a pure attraction edge (a def/use pair with no same-row
/// repulsion: one end is a loop invariant, defined nowhere) leaves the pair
/// short of the weight §4.1 gives it, which RCG001 guards.
#[test]
fn lowered_attraction_edge_fires_rcg001() {
    let mut g = daxpy();
    let (a, b, w) = g
        .rcg
        .edges()
        .find(|&(a, b, w)| {
            w > 0.0 && (g.body.defs_of(a).is_empty() || g.body.defs_of(b).is_empty())
        })
        .expect("daxpy's invariant scale factor attracts its products");
    g.rcg.bump_edge(a, b, -w / 2.0);
    let report = analyze(&g.front());
    assert_renders(&report, LintCode::Rcg001, LOWERED_ATTRACTION);
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
    assert_renders(&report, LintCode::Copy004, SELF_COPY);
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
    assert_renders(&report, LintCode::Sched002, OVERSUBSCRIBED_ROW);
}

/// Corrupting the flat expansion (wrong iteration tag on one issue) must
/// break the `cycle = iter·II + time(op)` identity EXP005 checks.
#[test]
fn corrupted_expansion_fires_exp005() {
    let g = daxpy();
    let mut flat = expand(&g.clustered_body, &g.sched);
    let issue = flat.issues.first_mut().expect("flat program has issues");
    issue.iter += 1;
    let mut report = vliw_analysis::Report::new();
    vliw_analysis::check_expansion(&g.clustered_body, &g.sched, &flat, &mut report);
    assert_renders(&report, LintCode::Exp005, CORRUPTED_EXPANSION);

    // And the untouched expansion is clean.
    let flat = expand(&g.clustered_body, &g.sched);
    let mut report = vliw_analysis::Report::new();
    vliw_analysis::check_expansion(&g.clustered_body, &g.sched, &flat, &mut report);
    assert_eq!(report.render_text(), CLEAN);
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
        .cycles()
        .enumerate()
        .find_map(|(c, issues)| issues.first().map(|&i| (c, i)))
        .expect("flat program has issues");
    // Append to a cycle through the flat layout: insert at the cycle's end
    // and shift every later cycle's offset.
    flat.issues.insert(flat.starts[cycle + 1] as usize, dup);
    for start in &mut flat.starts[cycle + 1..] {
        *start += 1;
    }
    let stray = Issue {
        op: OpId(body.n_ops() as u32 + 3),
        iter: body.trip_count + 5,
    };
    flat.issues.push(stray);
    *flat.starts.last_mut().expect("non-empty") += 1;
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
    assert_eq!(
        report.render_text(),
        DUPLICATED_ISSUES,
        "the report's text drifted"
    );
}

/// Cycle offsets that do not lay out the issue list are reported, not
/// sliced.
#[test]
fn malformed_cycle_offsets_fire_exp005() {
    let g = daxpy();
    let mut flat = expand(&g.clustered_body, &g.sched);
    flat.starts[1] = flat.starts[2] + 1;
    let mut report = vliw_analysis::Report::new();
    vliw_analysis::check_expansion(&g.clustered_body, &g.sched, &flat, &mut report);
    assert_renders(&report, LintCode::Exp005, MALFORMED_OFFSETS);
}

/// One negative issue time is SCHED004; the passes that index cycles by
/// issue time (pressure, expansion) stand down instead of panicking.
#[test]
fn negative_issue_time_fires_sched004() {
    let mut g = daxpy();
    g.sched.times[5] = -1;
    let report = analyze(&g.back());
    assert_renders(&report, LintCode::Sched004, NEGATIVE_TIME);
}

/// II 0 is SCHED004; the passes that divide by II (pressure, the resource
/// replay, expansion) stand down instead of panicking.
#[test]
fn zero_ii_fires_sched004() {
    let mut g = daxpy();
    g.sched.ii = 0;
    let report = analyze(&g.back());
    assert_renders(&report, LintCode::Sched004, ZERO_II);
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
    assert_renders(&report, LintCode::Ir007, OUT_OF_RANGE_OPERAND);
}

// The rendered reports the mutations above must produce, finding for
// finding. A lint change that moves one of these on purpose re-captures it
// here in the same change.

const DEF_MOVED: &str = "\
error[BANK001 foreign-bank-operand-without-copy] @ op3, c0 (copies): fmul reads v0 from bank 1 but executes on cluster 0 with no copy feeding it
error[BANK001 foreign-bank-operand-without-copy] @ op9, c0 (copies): fmul reads v0 from bank 1 but executes on cluster 0 with no copy feeding it
2 error(s), 0 warning(s), 0 note(s)
";

const BYPASSED_COPY: &str = "\
error[BANK001 foreign-bank-operand-without-copy] @ op4, c3 (copies): fmul reads v1 from bank 1 but executes on cluster 3 with no copy feeding it
error[COPY004 copy-dataflow-break] @ op1 (copies): copy op1 is orphaned: its result v18 is never read and not live-out
2 error(s), 0 warning(s), 0 note(s)
";

const SHRUNKEN_BANKS: &str = "\
error[PRES002 maxlive-exceeds-bank-capacity] @ c0 (pressure): bank 0 Float MaxLive 10 exceeds capacity 2 (MVE unroll 4); colouring must spill
error[PRES002 maxlive-exceeds-bank-capacity] @ c1 (pressure): bank 1 Float MaxLive 4 exceeds capacity 2 (MVE unroll 4); colouring must spill
error[PRES002 maxlive-exceeds-bank-capacity] @ c2 (pressure): bank 2 Float MaxLive 14 exceeds capacity 2 (MVE unroll 4); colouring must spill
error[PRES002 maxlive-exceeds-bank-capacity] @ c3 (pressure): bank 3 Float MaxLive 7 exceeds capacity 2 (MVE unroll 4); colouring must spill
4 error(s), 0 warning(s), 0 note(s)
";

const DELETED_REPULSION: &str = "\
error[RCG003 missing-repulsion-edge-for-same-cycle-defs] @ v1, cycle 0 (rcg): v1 and v2 are defined in the same ideal kernel row but the repulsion contribution is missing: expected weight -1.6667, found 0.0000
1 error(s), 0 warning(s), 0 note(s)
";

const SPURIOUS_EDGE: &str = "\
error[RCG004 spurious-rcg-edge] @ v0 (rcg): edge v0—v2 (weight 5.0000) has no def/use or same-row justification
1 error(s), 0 warning(s), 0 note(s)
";

const SELF_COPY: &str = "\
error[COPY004 copy-dataflow-break] @ op1, c3 (copies): copy op1 moves v18 to v18 within bank 3 — a copy must cross banks
error[COPY005 copy-latency-edge-missing] @ op1 (copies): rebuilt DDG has no flow edge from v18's producer into copy op1
2 error(s), 0 warning(s), 0 note(s)
";

const OVERSUBSCRIBED_ROW: &str = "\
error[SCHED001 dependence-violated-modulo-ii] @ op1, cycle 0 (schedule): clustered schedule violates dependence op0→op1 modulo II 3: need separation 2, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op4, cycle 0 (schedule): clustered schedule violates dependence op2→op4 modulo II 3: need separation 2, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op4, cycle 0 (schedule): clustered schedule violates dependence op3→op4 modulo II 3: need separation 2, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op5, cycle 0 (schedule): clustered schedule violates dependence op4→op5 modulo II 3: need separation 2, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op7, cycle 0 (schedule): clustered schedule violates dependence op6→op7 modulo II 3: need separation 2, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op11, cycle 0 (schedule): clustered schedule violates dependence op8→op11 modulo II 3: need separation 2, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op10, cycle 0 (schedule): clustered schedule violates dependence op9→op10 modulo II 3: need separation 2, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op12, cycle 0 (schedule): clustered schedule violates dependence op11→op12 modulo II 3: need separation 2, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op15, cycle 0 (schedule): clustered schedule violates dependence op13→op15 modulo II 3: need separation 2, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op17, cycle 0 (schedule): clustered schedule violates dependence op14→op17 modulo II 3: need separation 2, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op16, cycle 0 (schedule): clustered schedule violates dependence op15→op16 modulo II 3: need separation 2, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op18, cycle 0 (schedule): clustered schedule violates dependence op17→op18 modulo II 3: need separation 2, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op21, cycle 0 (schedule): clustered schedule violates dependence op19→op21 modulo II 3: need separation 2, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op22, cycle 0 (schedule): clustered schedule violates dependence op20→op22 modulo II 3: need separation 2, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op22, cycle 0 (schedule): clustered schedule violates dependence op21→op22 modulo II 3: need separation 2, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op23, cycle 0 (schedule): clustered schedule violates dependence op22→op23 modulo II 3: need separation 2, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op3, cycle 0 (schedule): clustered schedule violates dependence op1→op3 modulo II 3: need separation 3, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op9, cycle 0 (schedule): clustered schedule violates dependence op7→op9 modulo II 3: need separation 3, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op11, cycle 0 (schedule): clustered schedule violates dependence op10→op11 modulo II 3: need separation 3, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op17, cycle 0 (schedule): clustered schedule violates dependence op16→op17 modulo II 3: need separation 3, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op5, cycle 0 (schedule): clustered schedule violates dependence op2→op5 modulo II 3: need separation 1, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op12, cycle 0 (schedule): clustered schedule violates dependence op8→op12 modulo II 3: need separation 1, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op18, cycle 0 (schedule): clustered schedule violates dependence op14→op18 modulo II 3: need separation 1, got 0
error[SCHED001 dependence-violated-modulo-ii] @ op23, cycle 0 (schedule): clustered schedule violates dependence op20→op23 modulo II 3: need separation 1, got 0
error[SCHED002 resource-row-over-subscribed] @ op5, cycle 0, c0 (schedule): clustered schedule over-subscribes kernel row 0 with op5
error[SCHED002 resource-row-over-subscribed] @ op7, cycle 0, c0 (schedule): clustered schedule over-subscribes kernel row 0 with op7
error[SCHED002 resource-row-over-subscribed] @ op9, cycle 0, c0 (schedule): clustered schedule over-subscribes kernel row 0 with op9
error[SCHED002 resource-row-over-subscribed] @ op18, cycle 0, c3 (schedule): clustered schedule over-subscribes kernel row 0 with op18
error[SCHED002 resource-row-over-subscribed] @ op19, cycle 0, c2 (schedule): clustered schedule over-subscribes kernel row 0 with op19
error[SCHED002 resource-row-over-subscribed] @ op20, cycle 0, c2 (schedule): clustered schedule over-subscribes kernel row 0 with op20
error[SCHED002 resource-row-over-subscribed] @ op21, cycle 0, c2 (schedule): clustered schedule over-subscribes kernel row 0 with op21
error[SCHED002 resource-row-over-subscribed] @ op22, cycle 0, c2 (schedule): clustered schedule over-subscribes kernel row 0 with op22
error[SCHED002 resource-row-over-subscribed] @ op23, cycle 0, c2 (schedule): clustered schedule over-subscribes kernel row 0 with op23
33 error(s), 0 warning(s), 0 note(s)
";

const CORRUPTED_EXPANSION: &str = "\
error[EXP005 prelude-kernel-postlude-stage-mismatch] @ op0, cycle 0 (expand): op0 of iteration 1 issued at cycle 0; the schedule places it at 3
error[EXP005 prelude-kernel-postlude-stage-mismatch] @ op0, cycle 3 (expand): op0 of iteration 1 issued more than once
2 error(s), 0 warning(s), 0 note(s)
";

const OUT_OF_RANGE_OPERAND: &str = "\
error[IR007 ir-verification-failure] (ir): original body fails IR verification: op 2 mentions unknown register v24
error[RCG004 spurious-rcg-edge] @ v0 (rcg): edge v0—v3 (weight 40.0000) has no def/use or same-row justification
error[RCG001 missing-attraction-edge-for-def-use-pair] @ v3 (rcg): def/use pair v3—v24 lacks its attraction weight: expected 40.0000, found 0.0000
3 error(s), 0 warning(s), 0 note(s)
";

const DUPLICATED_ISSUES: &str = "\
error[EXP005 prelude-kernel-postlude-stage-mismatch] (expand): 1154 issue(s) in the flat program; 48 iteration(s) of 24 op(s) requires 1152
error[EXP005 prelude-kernel-postlude-stage-mismatch] @ op0, cycle 0 (expand): op0 of iteration 0 issued more than once
error[EXP005 prelude-kernel-postlude-stage-mismatch] @ op27, cycle 153 (expand): issue (op27, iteration 53) is outside the loop's domain
3 error(s), 0 warning(s), 0 note(s)
";

const LOWERED_ATTRACTION: &str = "\
error[RCG001 missing-attraction-edge-for-def-use-pair] @ v0 (rcg): def/use pair v0—v3 lacks its attraction weight: expected 40.0000, found 20.0000
1 error(s), 0 warning(s), 0 note(s)
";

const MALFORMED_OFFSETS: &str = "\
error[EXP005 prelude-kernel-postlude-stage-mismatch] (expand): flat program's 155 cycle offset(s) do not lay out its 1152 issue(s)
1 error(s), 0 warning(s), 0 note(s)
";

const NEGATIVE_TIME: &str = "\
error[SCHED004 schedule-shape-error] @ op5, cycle -1 (schedule): clustered schedule issues op5 at negative time
error[SCHED001 dependence-violated-modulo-ii] @ op5, cycle -1 (schedule): clustered schedule violates dependence op4→op5 modulo II 3: need separation 2, got -8
error[SCHED001 dependence-violated-modulo-ii] @ op5, cycle -1 (schedule): clustered schedule violates dependence op2→op5 modulo II 3: need separation 1, got -1
3 error(s), 0 warning(s), 0 note(s)
";

const ZERO_II: &str = "\
error[SCHED004 schedule-shape-error] (schedule): clustered schedule has II 0; a modulo schedule needs II ≥ 1
1 error(s), 0 warning(s), 0 note(s)
";
