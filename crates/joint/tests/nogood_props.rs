//! Property tests for conflict (no-good) learning and the incremental
//! recurrence maintainer.
//!
//! Two contracts keep the ladder honest:
//!
//! * every recorded no-good, replayed at any II below its threshold (in
//!   particular at rungs *above* the one it was learned on), must still be
//!   refuted by the full, non-incremental oracle of its kind;
//! * the incremental copy-adjusted feasibility the bank search maintains
//!   must agree with `Ddg::is_feasible_adjusted` on arbitrary
//!   decision/rollback traces, and its potentials must match the scratch
//!   solve exactly.

use vliw_ddg::{build_ddg, DepKind, IncrementalFeasibility};
use vliw_exact::bound::UNASSIGNED;
use vliw_governor::Budget;
use vliw_ir::{Loop, LoopBuilder, RegClass};
use vliw_joint::propagate::{
    capacity_conflict, copy_extras, deciding_vregs, recurrence_feasible, variant_mask,
};
use vliw_joint::{solve_joint_within, JointConfig, NoGoodKind};
use vliw_machine::MachineDesc;

fn daxpy(unroll: usize) -> Loop {
    let mut b = LoopBuilder::new("daxpy");
    let x = b.array("x", RegClass::Float, 1024);
    let y = b.array("y", RegClass::Float, 1024);
    let a = b.live_in_float("a");
    for u in 0..unroll {
        let xv = b.load(x, u as i64, unroll as i64);
        let yv = b.load(y, u as i64, unroll as i64);
        let p = b.fmul(a, xv);
        let s = b.fadd(yv, p);
        b.store(y, u as i64, unroll as i64, s);
    }
    b.finish(128)
}

/// A recurrence-dense pressured loop: `unroll` independent accumulator
/// chains plus a daxpy body, enough vregs to force real bank search.
fn pressured(unroll: usize) -> Loop {
    let mut b = LoopBuilder::new("pressured");
    let x = b.array("x", RegClass::Float, 1024);
    let a = b.live_in_float("a");
    for u in 0..unroll {
        let s = b.live_in_float_val("s", 0.0);
        let xv = b.load(x, u as i64, unroll as i64);
        let t = b.fmul(a, s);
        b.fadd_into(s, t, xv);
        b.live_out(s);
    }
    b.finish(64)
}

fn test_corpus() -> Vec<Loop> {
    let mut loops = vec![daxpy(4), daxpy(6), pressured(3), pressured(5)];
    loops.extend(
        vliw_loopgen::corpus()
            .into_iter()
            .filter(|l| (10..=20).contains(&l.n_vregs()))
            .take(6),
    );
    loops
}

#[test]
fn recorded_nogoods_replay_infeasible_under_full_oracle() {
    let machines = [MachineDesc::embedded(4, 4), MachineDesc::copy_unit(4, 4)];
    let mut total = 0usize;
    for l in test_corpus() {
        let deciding = deciding_vregs(&l);
        let variant = variant_mask(&l);
        for m in &machines {
            let copy_extra = copy_extras(&l, m);
            let ddg = build_ddg(&l, &m.latencies);
            let n_banks = m.n_clusters();
            let (_, store) = solve_joint_within(
                &l,
                m,
                &vliw_core::PartitionConfig::default(),
                &JointConfig { budget_ms: 300 },
                &Budget::default(),
            );
            let mut marks = vec![false; l.n_vregs() * n_banks];
            let mut scratch = Vec::new();
            for ng in store.items() {
                total += 1;
                // Apply exactly the literals, nothing else.
                let mut assigned = vec![UNASSIGNED; l.n_vregs()];
                for &(v, b) in &ng.literals {
                    assigned[v as usize] = b;
                }
                // The claim: infeasible at every II below the threshold.
                // Sample the range (it can be wide) including both ends.
                let lo = 1u32;
                let hi = ng.min_ii - 1;
                let probes = [lo, (lo + hi) / 2, hi, hi.saturating_sub(1).max(lo)];
                for &ii in &probes {
                    match ng.kind {
                        NoGoodKind::Resource => {
                            assert!(
                                capacity_conflict(
                                    &l, m, ii, &assigned, &deciding, &variant, &mut marks
                                )
                                .is_some(),
                                "resource no-good {:?} not refuted at II={} on {} ({})",
                                ng,
                                ii,
                                m.name,
                                l.name
                            );
                        }
                        NoGoodKind::Dependence => {
                            assert!(
                                !recurrence_feasible(
                                    &l,
                                    &ddg,
                                    ii,
                                    &assigned,
                                    &deciding,
                                    &copy_extra,
                                    &mut scratch
                                ),
                                "dependence no-good {:?} not refuted at II={} on {} ({})",
                                ng,
                                ii,
                                m.name,
                                l.name
                            );
                        }
                    }
                }
            }
        }
    }
    assert!(
        total > 0,
        "no conflicts recorded: the property test is vacuous"
    );
}

#[test]
fn incremental_recurrence_agrees_with_full_oracle_on_random_traces() {
    let mut state = 0xC0FF_EE11_u64;
    let mut next = move |m: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % m.max(1)
    };
    let machines = [MachineDesc::embedded(4, 4), MachineDesc::copy_unit(2, 8)];
    for l in test_corpus() {
        if l.n_vregs() == 0 {
            continue;
        }
        let deciding = deciding_vregs(&l);
        let copy_extra_by_machine: Vec<Vec<i64>> =
            machines.iter().map(|m| copy_extras(&l, m)).collect();
        for (mi, m) in machines.iter().enumerate() {
            let copy_extra = &copy_extra_by_machine[mi];
            let ddg = build_ddg(&l, &m.latencies);
            let n_banks = m.n_clusters() as u8;
            // Smallest feasible II of the unadjusted graph.
            let mut scratch = Vec::new();
            let mut target = 1u32;
            while !ddg.is_feasible_with(target, &mut scratch) {
                target += 1;
            }
            target += next(3) as u32; // also probe slacker IIs
                                      // The solver's affected-edge lists.
            let mut affected: Vec<Vec<u32>> = vec![Vec::new(); l.n_vregs()];
            for (i, e) in ddg.edges().iter().enumerate() {
                if e.kind != DepKind::Flow {
                    continue;
                }
                let Some(d) = l.op(e.from).def else { continue };
                affected[d.index()].push(i as u32);
                if let Some(t) = deciding[e.to.index()] {
                    if t != d.index() {
                        affected[t].push(i as u32);
                    }
                }
            }
            let edge_extra = |assigned: &[u8], ei: usize| -> i64 {
                let e = &ddg.edges()[ei];
                let Some(v) = l.op(e.from).def else { return 0 };
                let bv = assigned[v.index()];
                if bv == UNASSIGNED {
                    return 0;
                }
                let bt = match deciding[e.to.index()] {
                    Some(dv) => assigned[dv],
                    None => 0,
                };
                if bt == UNASSIGNED || bt == bv {
                    return 0;
                }
                copy_extra[v.index()]
            };

            let mut incr = IncrementalFeasibility::for_ddg(&ddg, target, |_| 0);
            assert!(incr.root_feasible(), "root must be feasible at {target}");
            let mut assigned = vec![UNASSIGNED; l.n_vregs()];
            let mut decided: Vec<usize> = Vec::new();
            for _step in 0..3 * l.n_vregs() {
                let undo = !decided.is_empty() && next(4) == 0;
                if undo {
                    // Random rollback of the most recent decision.
                    let v = decided.pop().expect("nonempty");
                    assigned[v] = UNASSIGNED;
                    incr.pop_frame();
                    continue;
                }
                let v = next(l.n_vregs() as u64) as usize;
                if assigned[v] != UNASSIGNED {
                    continue;
                }
                let b = next(n_banks as u64) as u8;
                assigned[v] = b;
                incr.push_frame();
                for &ei in &affected[v] {
                    let extra = edge_extra(&assigned, ei as usize);
                    if extra > 0 {
                        let e = &ddg.edges()[ei as usize];
                        let w = e.latency + extra - target as i64 * e.distance as i64;
                        incr.set_weight(ei as usize, w);
                    }
                }
                let got = incr.propagate();
                let want = recurrence_feasible(
                    &l,
                    &ddg,
                    target,
                    &assigned,
                    &deciding,
                    copy_extra,
                    &mut scratch,
                );
                assert_eq!(
                    got, want,
                    "incremental/oracle disagreement on {} ({}) at II={target}",
                    l.name, m.name
                );
                if got {
                    // Potentials must equal the scratch solve (both compute
                    // the least fixpoint of the same system).
                    assert_eq!(
                        incr.potentials(),
                        &scratch[..],
                        "potentials diverged on {} ({})",
                        l.name,
                        m.name
                    );
                    decided.push(v);
                } else {
                    // Frame was rolled back by the failed propagate.
                    assigned[v] = UNASSIGNED;
                }
            }
        }
    }
}
