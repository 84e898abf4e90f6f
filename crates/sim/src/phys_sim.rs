//! Physical-register simulation: execute the final code.
//!
//! [`crate::machine_sim`] validates the *schedule* by tracking values per
//! (virtual register, iteration). This module goes one level lower and
//! validates the *register assignment* too: every value lives in the
//! physical register Chaitin/Briggs gave its MVE instance, in the bank the
//! partitioner chose — exactly the state a real clustered VLIW would hold.
//! A mis-colouring (two overlapping lifetimes sharing a register) silently
//! corrupts a value here and is caught by the bit-exact comparison against
//! the scalar reference.
//!
//! Operation `o` of iteration `i` reads/writes instance `i mod K` of each
//! register (instance `(i−1) mod K` for operands that carry across the
//! backedge), where `K` is the modulo-variable-expansion unroll factor —
//! the renaming a post-pass would bake into the unrolled kernel text.

use crate::machine_sim::{reads_prev_table, SimError};
use crate::memory::init_memory;
use crate::reference::run_reference;
use crate::value::{eval_op, Value};
use std::collections::HashMap;
use vliw_ir::{Loop, Opcode, RegClass, VReg};
use vliw_machine::{ClusterId, LatencyTable};
use vliw_regalloc::AllocResult;
use vliw_sched::{expand, Schedule};

/// A physical register name: bank × class × number.
pub type PhysReg = (ClusterId, RegClass, u32);

/// Failure modes specific to physical simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysSimError {
    /// The allocation spilled; there is no physical code to run.
    Spilled,
    /// A timing/undefined-read fault (as in the virtual simulator).
    Sim(SimError),
    /// The physical execution produced different memory than the reference.
    MemoryMismatch {
        /// Array index.
        array: usize,
        /// Element index.
        index: usize,
    },
    /// A live-out register differs from the reference.
    LiveOutMismatch {
        /// Position in `body.live_out`.
        position: usize,
    },
}

impl std::fmt::Display for PhysSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhysSimError::Spilled => write!(f, "allocation spilled; no physical code"),
            PhysSimError::Sim(e) => write!(f, "fault: {e}"),
            PhysSimError::MemoryMismatch { array, index } => {
                write!(f, "memory mismatch at array {array}[{index}]")
            }
            PhysSimError::LiveOutMismatch { position } => {
                write!(f, "live-out #{position} mismatch")
            }
        }
    }
}

impl std::error::Error for PhysSimError {}

/// Execute `sched` on physical registers per `alloc`/`vreg_bank` and compare
/// bit-for-bit with the scalar reference.
pub fn check_physical_equivalence(
    body: &Loop,
    sched: &Schedule,
    lat: &LatencyTable,
    vreg_bank: &[ClusterId],
    alloc: &AllocResult,
) -> Result<(), PhysSimError> {
    if alloc.total_spills() > 0 {
        return Err(PhysSimError::Spilled);
    }
    let k = alloc.unroll.max(1) as i64;
    let phys = |v: VReg, iter: i64| -> PhysReg {
        let inst = iter.rem_euclid(k) as usize;
        let row = &alloc.assignment[v.index()];
        // Invariants have a single full-circle range (instance 0 only);
        // spills were rejected above, so a missing instance means exactly
        // that case.
        let n = row[inst].or(row[0]).expect("no spills checked above");
        (vreg_bank[v.index()], body.class_of(v), n)
    };

    let mut memory = init_memory(body);
    let reads_prev = reads_prev_table(body);
    // Register files: physical register → (ready cycle, value).
    let mut regs: HashMap<PhysReg, (i64, Value)> = HashMap::new();
    // Live-in materialisation. Invariants own a single full-circle range
    // (instance 0): preload before cycle 0. A recurrence seed is read by
    // iteration 0's carried use through instance (−1 mod K), whose cyclic
    // range only begins at `t_def − II` — before that the register may
    // legitimately hold a different value (valid colourings share registers
    // between cyclically disjoint ranges). Real prelude code copies each
    // seed in just before its range opens; we model that with a timed seed
    // write at `max(0, t_def − II)`.
    let mut seed_writes: Vec<(i64, PhysReg, Value)> = Vec::new();
    for (&v, &init) in body.live_in.iter().zip(&body.live_in_vals) {
        let val = Value::from(init);
        match body.defs_of(v).first() {
            None => {
                regs.insert(phys(v, 0), (i64::MIN, val));
            }
            Some(&d) => {
                let at = (sched.time(d) - sched.ii as i64).max(0);
                seed_writes.push((at, phys(v, -1), val));
            }
        }
    }
    seed_writes.sort_by_key(|&(c, ..)| c);
    let mut next_seed = 0usize;

    let mut pending_stores: Vec<(i64, usize, usize, Value)> = Vec::new();
    // Live-out capture: in steady state a value's register is recycled as
    // soon as its cyclic range closes, so the FINAL iteration's value may be
    // legitimately overwritten before the loop ends. Real postlude code
    // copies each live-out to a stable home the moment it is produced; we
    // model that by capturing the final iteration's write.
    let last_iter = body.trip_count as i64 - 1;
    let mut live_out_capture: HashMap<VReg, Value> = HashMap::new();
    let program = expand(body, sched);

    for (cycle, issues) in program.cycles().enumerate() {
        let cycle = cycle as i64;
        // Prelude seed moves scheduled for this cycle.
        while next_seed < seed_writes.len() && seed_writes[next_seed].0 <= cycle {
            let (at, r, val) = seed_writes[next_seed];
            regs.insert(r, (at, val));
            next_seed += 1;
        }
        pending_stores.retain(|&(commit, arr, idx, val)| {
            if commit <= cycle {
                memory[arr][idx] = val;
                false
            } else {
                true
            }
        });

        let mut writes: Vec<(PhysReg, i64, Value)> = Vec::new();
        for iss in issues {
            let op = body.op(iss.op);
            let i = iss.iter as i64;
            let op_lat = lat.of(op.opcode) as i64;
            let read = |regs: &HashMap<PhysReg, (i64, Value)>,
                        u: VReg,
                        slot: usize|
             -> Result<Value, PhysSimError> {
                let src_iter = if reads_prev[iss.op.index()][slot] {
                    i - 1
                } else {
                    i
                };
                let r = phys(u, src_iter);
                match regs.get(&r) {
                    Some(&(ready, val)) if cycle >= ready => Ok(val),
                    Some(&(ready, _)) => Err(PhysSimError::Sim(SimError::NotReady {
                        vreg: u,
                        iter: src_iter,
                        cycle,
                        ready,
                    })),
                    None => Err(PhysSimError::Sim(SimError::UndefinedRead {
                        vreg: u,
                        iter: src_iter,
                    })),
                }
            };
            match op.opcode {
                Opcode::Load => {
                    let m = op.mem.unwrap();
                    let idx = (m.offset + i * m.stride) as usize;
                    let v = memory[m.array.index()][idx];
                    let d = op.def.unwrap();
                    writes.push((phys(d, i), cycle + op_lat, v));
                }
                Opcode::Store => {
                    let m = op.mem.unwrap();
                    let idx = (m.offset + i * m.stride) as usize;
                    let val = read(&regs, op.uses[0], 0)?;
                    pending_stores.push((cycle + op_lat, m.array.index(), idx, val));
                }
                _ => {
                    let mut operands = Vec::with_capacity(op.uses.len());
                    for (slot, &u) in op.uses.iter().enumerate() {
                        operands.push(read(&regs, u, slot)?);
                    }
                    let v = eval_op(op, &operands);
                    if let Some(d) = op.def {
                        writes.push((phys(d, i), cycle + op_lat, v));
                        if i == last_iter && body.live_out.contains(&d) {
                            live_out_capture.insert(d, v);
                        }
                    }
                }
            }
            // Loads of live-outs in the final iteration are captured too.
            if let (Opcode::Load, Some(d)) = (op.opcode, op.def) {
                if i == last_iter && body.live_out.contains(&d) {
                    let m = op.mem.unwrap();
                    let idx = (m.offset + i * m.stride) as usize;
                    live_out_capture.insert(d, memory[m.array.index()][idx]);
                }
            }
        }
        for (r, ready, v) in writes {
            regs.insert(r, (ready, v));
        }
    }

    pending_stores.sort_by_key(|&(c, ..)| c);
    for (_, arr, idx, val) in pending_stores {
        memory[arr][idx] = val;
    }

    // Compare against the scalar reference.
    let reference = run_reference(body);
    for (a, (ma, mr)) in memory.iter().zip(&reference.memory).enumerate() {
        for (i, (va, vr)) in ma.iter().zip(mr).enumerate() {
            if !va.bits_eq(*vr) {
                return Err(PhysSimError::MemoryMismatch { array: a, index: i });
            }
        }
    }
    for (p, &v) in body.live_out.iter().enumerate() {
        let expected = reference.live_out[p];
        let got = if body.defs_of(v).is_empty() || last_iter < 0 {
            regs.get(&phys(v, 0)).map(|&(_, val)| val)
        } else {
            live_out_capture.get(&v).copied()
        };
        match got {
            Some(val) if val.bits_eq(expected) => {}
            _ => return Err(PhysSimError::LiveOutMismatch { position: p }),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_core::{assign_banks_caps, build_rcg, insert_copies, PartitionConfig};
    use vliw_ddg::{build_ddg, compute_slack};
    use vliw_ir::{LoopBuilder, RegClass};
    use vliw_machine::MachineDesc;
    use vliw_regalloc::allocate;
    use vliw_sched::{schedule_loop, ImsConfig, SchedProblem};

    /// Full pipeline down to physical registers, then execute.
    fn phys_check(machine: &MachineDesc, body: &Loop) {
        let cfg = PartitionConfig::default();
        let ideal_m = MachineDesc::monolithic(machine.issue_width());
        let ddg = build_ddg(body, &machine.latencies);
        let ideal = schedule_loop(
            &SchedProblem::ideal(body, &ideal_m),
            &ddg,
            &ImsConfig::default(),
        )
        .unwrap();
        let slack = compute_slack(&ddg, |op| machine.latencies.of(body.op(op).opcode) as i64);
        let rcg = build_rcg(body, &ideal, &slack, &cfg);
        let caps: Vec<usize> = machine.clusters.iter().map(|c| c.n_fus).collect();
        let part = assign_banks_caps(&rcg, &caps, &cfg);
        let clustered = insert_copies(body, &part);
        let cddg = build_ddg(&clustered.body, &machine.latencies);
        let problem = SchedProblem::clustered(&clustered.body, machine, &clustered.cluster_of);
        let sched = schedule_loop(&problem, &cddg, &ImsConfig::default()).unwrap();
        let alloc = allocate(
            &clustered.body,
            &cddg,
            &sched,
            &clustered.vreg_bank,
            machine,
        );
        check_physical_equivalence(
            &clustered.body,
            &sched,
            &machine.latencies,
            &clustered.vreg_bank,
            &alloc,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", body.name));
    }

    fn daxpy(u: usize) -> Loop {
        let mut b = LoopBuilder::new("daxpy");
        let x = b.array("x", RegClass::Float, 1024);
        let y = b.array("y", RegClass::Float, 1024);
        let a = b.live_in_float_val("a", 1.5);
        for j in 0..u as i64 {
            let xv = b.load(x, j, u as i64);
            let yv = b.load(y, j, u as i64);
            let p = b.fmul(a, xv);
            let s = b.fadd(yv, p);
            b.store(y, j, u as i64, s);
        }
        b.finish(96)
    }

    #[test]
    fn physical_daxpy_on_clustered_machines() {
        for m in [
            MachineDesc::monolithic(16),
            MachineDesc::embedded(2, 8),
            MachineDesc::embedded(4, 4),
            MachineDesc::copy_unit(4, 4),
            MachineDesc::embedded(8, 2),
        ] {
            phys_check(&m, &daxpy(8));
        }
    }

    #[test]
    fn physical_recurrence_seed_survives_renaming() {
        let mut b = LoopBuilder::new("rec");
        let x = b.array("x", RegClass::Float, 128);
        let a = b.live_in_float_val("a", 0.5);
        let s = b.live_in_float_val("s", 3.0);
        let xv = b.load(x, 0, 1);
        let t = b.fmul(a, s);
        b.fadd_into(s, t, xv);
        b.live_out(s);
        let l = b.finish(64);
        phys_check(&MachineDesc::embedded(4, 4), &l);
        phys_check(&MachineDesc::copy_unit(2, 8), &l);
    }

    #[test]
    fn corrupted_allocation_is_caught() {
        // Take a valid allocation, then force two live MVE instances of
        // different registers onto one physical register — physical
        // execution must diverge from the reference.
        let body = daxpy(8);
        let m = MachineDesc::monolithic(16);
        let cfg = PartitionConfig::default();
        let ddg = build_ddg(&body, &m.latencies);
        let ideal =
            schedule_loop(&SchedProblem::ideal(&body, &m), &ddg, &ImsConfig::default()).unwrap();
        let slack = compute_slack(&ddg, |op| m.latencies.of(body.op(op).opcode) as i64);
        let rcg = build_rcg(&body, &ideal, &slack, &cfg);
        let part = assign_banks_caps(&rcg, &[16], &cfg);
        let clustered = insert_copies(&body, &part);
        let cddg = build_ddg(&clustered.body, &m.latencies);
        let problem = SchedProblem::clustered(&clustered.body, &m, &clustered.cluster_of);
        let sched = schedule_loop(&problem, &cddg, &ImsConfig::default()).unwrap();
        let mut alloc = allocate(&clustered.body, &cddg, &sched, &clustered.vreg_bank, &m);
        // Clobber: alias the two loads of lane 0 (both float, same bank).
        let v1 = vliw_ir::VReg(1); // first load's dest
        let v2 = vliw_ir::VReg(2); // second load's dest
        for inst in 0..alloc.unroll as usize {
            alloc.assignment[v2.index()][inst] = alloc.assignment[v1.index()][inst];
        }
        let r = check_physical_equivalence(
            &clustered.body,
            &sched,
            &m.latencies,
            &clustered.vreg_bank,
            &alloc,
        );
        assert!(r.is_err(), "aliased registers must corrupt the result");
    }

    #[test]
    fn spilled_allocation_is_rejected() {
        let body = daxpy(8);
        let m = MachineDesc::monolithic(16).with_regs_per_bank(2, 2);
        let ddg = build_ddg(&body, &m.latencies);
        let sched =
            schedule_loop(&SchedProblem::ideal(&body, &m), &ddg, &ImsConfig::default()).unwrap();
        let banks = vec![ClusterId(0); body.n_vregs()];
        let alloc = allocate(&body, &ddg, &sched, &banks, &m);
        assert!(alloc.total_spills() > 0);
        let r = check_physical_equivalence(&body, &sched, &m.latencies, &banks, &alloc);
        assert_eq!(r, Err(PhysSimError::Spilled));
    }
}
