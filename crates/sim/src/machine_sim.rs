//! Cycle-accurate execution of an expanded modulo schedule.
//!
//! Iterations overlap exactly as the schedule dictates; every register read
//! is checked against the producing write's ready time, so an illegal
//! schedule faults instead of silently computing the right answer.

use crate::memory::init_memory;
use crate::value::{eval_op, Value};
use std::collections::HashMap;
use vliw_ir::{Loop, Opcode, VReg};
use vliw_machine::LatencyTable;
use vliw_sched::{expand, FlatProgram, Schedule};

/// A simulation fault.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An operation read register `vreg` (iteration `iter`) at `cycle`, but
    /// the producing write is only ready at `ready`.
    NotReady {
        /// Register read too early.
        vreg: VReg,
        /// Producing iteration.
        iter: i64,
        /// Cycle of the offending read.
        cycle: i64,
        /// Cycle the value becomes readable.
        ready: i64,
    },
    /// An operation read a register instance that is never written and is
    /// not live-in (schedule or rewrite bug).
    UndefinedRead {
        /// The register.
        vreg: VReg,
        /// The iteration whose value was requested.
        iter: i64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NotReady {
                vreg,
                iter,
                cycle,
                ready,
            } => write!(
                f,
                "{vreg} (iter {iter}) read at cycle {cycle} but ready at {ready}"
            ),
            SimError::UndefinedRead { vreg, iter } => {
                write!(f, "{vreg} (iter {iter}) read but never written")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a machine simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutput {
    /// Final contents of every array.
    pub memory: Vec<Vec<Value>>,
    /// Final values of the live-out registers, in `body.live_out` order.
    pub live_out: Vec<Value>,
    /// Total cycles executed.
    pub cycles: usize,
}

/// Execute `sched` for `body` on latencies `lat`, checking timing.
pub fn simulate(body: &Loop, sched: &Schedule, lat: &LatencyTable) -> Result<SimOutput, SimError> {
    let program: FlatProgram = expand(body, sched);
    simulate_flat(body, sched, &program, lat)
}

/// Which operand slots of each op read the *previous* iteration's value
/// (textual use-before-def of a loop-variant register).
pub(crate) fn reads_prev_table(body: &Loop) -> Vec<Vec<bool>> {
    let mut first_def: Vec<Option<usize>> = vec![None; body.n_vregs()];
    for op in &body.ops {
        if let Some(d) = op.def {
            first_def[d.index()].get_or_insert(op.id.index());
        }
    }
    body.ops
        .iter()
        .map(|op| {
            op.uses
                .iter()
                .map(|u| match first_def[u.index()] {
                    Some(fd) => fd >= op.id.index(),
                    None => false, // invariant: read the live-in value
                })
                .collect()
        })
        .collect()
}

fn live_in_value(body: &Loop, v: VReg) -> Option<Value> {
    body.live_in
        .iter()
        .position(|&x| x == v)
        .map(|p| Value::from(body.live_in_vals[p]))
}

fn simulate_flat(
    body: &Loop,
    sched: &Schedule,
    program: &FlatProgram,
    lat: &LatencyTable,
) -> Result<SimOutput, SimError> {
    let mut memory = init_memory(body);
    let reads_prev = reads_prev_table(body);
    // Committed register writes: (vreg, iteration) → (ready cycle, value).
    let mut writes: HashMap<(VReg, i64), (i64, Value)> = HashMap::new();
    // Pending stores: (commit cycle, array, index, value).
    let mut pending_stores: Vec<(i64, usize, usize, Value)> = Vec::new();

    let read = |writes: &HashMap<(VReg, i64), (i64, Value)>,
                v: VReg,
                iter: i64,
                cycle: i64|
     -> Result<Value, SimError> {
        // Variant register: find the requested iteration's write; fall back
        // through earlier iterations to the live-in seed.
        match writes.get(&(v, iter)) {
            Some(&(ready, val)) => {
                if cycle < ready {
                    Err(SimError::NotReady {
                        vreg: v,
                        iter,
                        cycle,
                        ready,
                    })
                } else {
                    Ok(val)
                }
            }
            None => {
                if iter < 0 || body.defs_of(v).is_empty() {
                    live_in_value(body, v).ok_or(SimError::UndefinedRead { vreg: v, iter })
                } else {
                    Err(SimError::UndefinedRead { vreg: v, iter })
                }
            }
        }
    };

    for (cycle, issues) in program.cycles().enumerate() {
        let cycle = cycle as i64;
        // Commit stores whose latency has elapsed.
        pending_stores.retain(|&(commit, arr, idx, val)| {
            if commit <= cycle {
                memory[arr][idx] = val;
                false
            } else {
                true
            }
        });

        // Phase 1: evaluate all reads of this cycle.
        let mut results: Vec<(VReg, i64, i64, Value)> = Vec::new(); // (reg, iter, ready, value)
        for iss in issues {
            let op = body.op(iss.op);
            let i = iss.iter as i64;
            let op_lat = lat.of(op.opcode) as i64;
            match op.opcode {
                Opcode::Load => {
                    let m = op.mem.unwrap();
                    let idx = (m.offset + i * m.stride) as usize;
                    let v = memory[m.array.index()][idx];
                    results.push((op.def.unwrap(), i, cycle + op_lat, v));
                }
                Opcode::Store => {
                    let m = op.mem.unwrap();
                    let idx = (m.offset + i * m.stride) as usize;
                    let src_iter = if reads_prev[iss.op.index()][0] {
                        i - 1
                    } else {
                        i
                    };
                    let val = read(&writes, op.uses[0], src_iter, cycle)?;
                    pending_stores.push((cycle + op_lat, m.array.index(), idx, val));
                }
                _ => {
                    let mut operands = Vec::with_capacity(op.uses.len());
                    for (slot, &u) in op.uses.iter().enumerate() {
                        let src_iter = if reads_prev[iss.op.index()][slot] {
                            i - 1
                        } else {
                            i
                        };
                        operands.push(read(&writes, u, src_iter, cycle)?);
                    }
                    let v = eval_op(op, &operands);
                    if let Some(d) = op.def {
                        results.push((d, i, cycle + op_lat, v));
                    }
                }
            }
        }
        // Phase 2: register the writes (visible from `ready` onwards).
        for (d, i, ready, v) in results {
            writes.insert((d, i), (ready, v));
        }
    }

    // Drain remaining stores.
    pending_stores.sort_by_key(|&(c, ..)| c);
    for (_, arr, idx, val) in pending_stores {
        memory[arr][idx] = val;
    }

    // Live-out values: last iteration's write (or live-in seed for a
    // zero-trip loop / pure invariant).
    let last_iter = body.trip_count as i64 - 1;
    let mut live_out = Vec::with_capacity(body.live_out.len());
    let horizon = i64::MAX / 2;
    for &v in &body.live_out {
        let val = if body.defs_of(v).is_empty() || last_iter < 0 {
            live_in_value(body, v).ok_or(SimError::UndefinedRead { vreg: v, iter: -1 })?
        } else {
            read(&writes, v, last_iter, horizon)?
        };
        live_out.push(val);
    }

    let _ = sched;
    Ok(SimOutput {
        memory,
        live_out,
        cycles: program.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ddg::build_ddg;
    use vliw_ir::{LoopBuilder, RegClass};
    use vliw_machine::{ClusterId, MachineDesc};
    use vliw_sched::{schedule_loop, ImsConfig, SchedProblem};

    fn sched_ideal(l: &Loop, m: &MachineDesc) -> Schedule {
        let g = build_ddg(l, &m.latencies);
        let p = SchedProblem::ideal(l, m);
        schedule_loop(&p, &g, &ImsConfig::default()).unwrap()
    }

    #[test]
    fn daxpy_pipeline_matches_reference() {
        let mut b = LoopBuilder::new("daxpy");
        let x = b.array("x", RegClass::Float, 64);
        let y = b.array("y", RegClass::Float, 64);
        let a = b.live_in_float_val("a", 3.0);
        let xv = b.load(x, 0, 1);
        let yv = b.load(y, 0, 1);
        let p = b.fmul(a, xv);
        let s = b.fadd(yv, p);
        b.store(y, 0, 1, s);
        let l = b.finish(64);
        let m = MachineDesc::monolithic(16);
        let sched = sched_ideal(&l, &m);
        let out = simulate(&l, &sched, &m.latencies).unwrap();
        let expected = crate::reference::run_reference(&l);
        assert_eq!(out.memory, expected.memory);
    }

    #[test]
    fn illegal_schedule_faults() {
        let mut b = LoopBuilder::new("bad");
        let x = b.array("x", RegClass::Float, 8);
        let v = b.load(x, 0, 1);
        let w = b.fmul(v, v);
        b.store(x, 0, 1, w);
        let l = b.finish(8);
        let m = MachineDesc::monolithic(4);
        // fmul at cycle 1 but load latency is 2 ⇒ NotReady.
        let sched = Schedule {
            ii: 8,
            times: vec![0, 1, 6],
            clusters: vec![ClusterId(0); 3],
        };
        let err = simulate(&l, &sched, &m.latencies).unwrap_err();
        assert!(matches!(err, SimError::NotReady { .. }));
    }

    #[test]
    fn reduction_pipeline_matches_reference() {
        let mut b = LoopBuilder::new("dot");
        let x = b.array("x", RegClass::Float, 32);
        let y = b.array("y", RegClass::Float, 32);
        let s = b.live_in_float_val("s", 0.0);
        let xv = b.load(x, 0, 1);
        let yv = b.load(y, 0, 1);
        let p = b.fmul(xv, yv);
        b.fadd_into(s, s, p);
        b.live_out(s);
        let l = b.finish(32);
        let m = MachineDesc::monolithic(16);
        let sched = sched_ideal(&l, &m);
        let out = simulate(&l, &sched, &m.latencies).unwrap();
        let expected = crate::reference::run_reference(&l);
        assert_eq!(out.live_out.len(), 1);
        assert!(out.live_out[0].bits_eq(expected.live_out[0]));
    }

    #[test]
    fn stencil_with_carried_memory_dep() {
        // y[i+2] = 0.5 * y[i]: store feeds a load two iterations later.
        let mut b = LoopBuilder::new("st");
        let y = b.array("y", RegClass::Float, 70);
        let v = b.load(y, 0, 1);
        let c = b.fconst_new(0.5);
        let w = b.fmul(v, c);
        b.store(y, 2, 1, w);
        let l = b.finish(64);
        let m = MachineDesc::monolithic(16);
        let sched = sched_ideal(&l, &m);
        let out = simulate(&l, &sched, &m.latencies).unwrap();
        let expected = crate::reference::run_reference(&l);
        assert_eq!(out.memory, expected.memory);
    }

    #[test]
    fn zero_trip_is_a_noop() {
        let mut b = LoopBuilder::new("z");
        let x = b.array("x", RegClass::Float, 8);
        let v = b.load(x, 0, 1);
        b.store(x, 1, 1, v);
        let l = b.finish(0);
        let m = MachineDesc::monolithic(4);
        let sched = sched_ideal(&l, &m);
        let out = simulate(&l, &sched, &m.latencies).unwrap();
        assert_eq!(out.memory, init_memory(&l));
        assert_eq!(out.cycles, 0);
    }
}
