//! The scalar reference interpreter: ground-truth loop semantics.

use crate::memory::init_memory;
use crate::value::{eval_op, Value};
use vliw_ir::{Loop, Opcode, RegClass, VReg};

/// Result of a reference run.
#[derive(Debug, Clone, PartialEq)]
pub struct RefOutput {
    /// Final contents of every array.
    pub memory: Vec<Vec<Value>>,
    /// Final values of the live-out registers, in `body.live_out` order.
    pub live_out: Vec<Value>,
}

fn init_regs(body: &Loop) -> Vec<Value> {
    let mut regs: Vec<Value> = body
        .vreg_classes
        .iter()
        .map(|c| match c {
            RegClass::Int => Value::I(0),
            RegClass::Float => Value::F(0.0),
        })
        .collect();
    for (&v, &init) in body.live_in.iter().zip(&body.live_in_vals) {
        regs[v.index()] = Value::from(init);
    }
    regs
}

/// Execute `body` sequentially for its trip count and return the final
/// memory and live-out state.
pub fn run_reference(body: &Loop) -> RefOutput {
    let mut memory = init_memory(body);
    let mut regs = init_regs(body);

    for i in 0..body.trip_count as i64 {
        for op in &body.ops {
            match op.opcode {
                Opcode::Load => {
                    let m = op.mem.expect("load has mem");
                    let idx = (m.offset + i * m.stride) as usize;
                    let v = memory[m.array.index()][idx];
                    regs[op.def.unwrap().index()] = v;
                }
                Opcode::Store => {
                    let m = op.mem.expect("store has mem");
                    let idx = (m.offset + i * m.stride) as usize;
                    memory[m.array.index()][idx] = regs[op.uses[0].index()];
                }
                _ => {
                    let operands: Vec<Value> = op.uses.iter().map(|u| regs[u.index()]).collect();
                    let v = eval_op(op, &operands);
                    if let Some(d) = op.def {
                        regs[d.index()] = v;
                    }
                }
            }
        }
    }

    let live_out = body
        .live_out
        .iter()
        .map(|v: &VReg| regs[v.index()])
        .collect();
    RefOutput { memory, live_out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{LoopBuilder, RegClass};

    #[test]
    fn dot_product_matches_hand_computation() {
        let mut b = LoopBuilder::new("dot");
        let x = b.array("x", RegClass::Float, 8);
        let y = b.array("y", RegClass::Float, 8);
        let s = b.live_in_float_val("s", 0.0);
        let xv = b.load(x, 0, 1);
        let yv = b.load(y, 0, 1);
        let p = b.fmul(xv, yv);
        b.fadd_into(s, s, p);
        b.live_out(s);
        let l = b.finish(8);

        let out = run_reference(&l);
        let mem = init_memory(&l);
        let expected: f64 = (0..8).map(|i| mem[0][i].as_f() * mem[1][i].as_f()).sum();
        assert!(out.live_out[0].bits_eq(Value::F(expected)));
    }

    #[test]
    fn store_updates_memory() {
        let mut b = LoopBuilder::new("scale");
        let x = b.array("x", RegClass::Float, 4);
        let c = b.fconst_new(2.0);
        let v = b.load(x, 0, 1);
        let m = b.fmul(v, c);
        b.store(x, 0, 1, m);
        let l = b.finish(4);
        let out = run_reference(&l);
        let init = init_memory(&l);
        for (o, i) in out.memory[0].iter().zip(&init[0]).take(4) {
            assert!(o.bits_eq(Value::F(i.as_f() * 2.0)));
        }
    }

    #[test]
    fn use_before_def_reads_previous_iteration() {
        // t = s (prev); s = t + 1  ⇒ after n trips, s = s0 + n.
        let mut b = LoopBuilder::new("ubd");
        let s = b.live_in_float_val("s", 10.0);
        let one = b.fconst_new(1.0);
        let t = b.fmul(s, one); // reads previous s (t defined after? no: t fresh)
        b.fadd_into(s, t, one);
        b.live_out(s);
        let l = b.finish(5);
        let out = run_reference(&l);
        assert!(out.live_out[0].bits_eq(Value::F(15.0)));
    }

    #[test]
    fn first_order_recurrence() {
        // s = 0.5*s + 1.0, s0 = 0 ⇒ s_n = 2(1 − 0.5^n).
        let mut b = LoopBuilder::new("rec");
        let s = b.live_in_float_val("s", 0.0);
        let half = b.fconst_new(0.5);
        let one = b.fconst_new(1.0);
        let t = b.fmul(half, s);
        b.fadd_into(s, t, one);
        b.live_out(s);
        let l = b.finish(3);
        let out = run_reference(&l);
        // 0 → 1 → 1.5 → 1.75
        assert!(out.live_out[0].bits_eq(Value::F(1.75)));
    }

    #[test]
    fn zero_trip_leaves_state_initial() {
        let mut b = LoopBuilder::new("z");
        let x = b.array("x", RegClass::Float, 4);
        let v = b.load(x, 0, 1);
        b.store(x, 1, 1, v);
        let l = b.finish(0);
        let out = run_reference(&l);
        assert_eq!(out.memory, init_memory(&l));
    }
}
