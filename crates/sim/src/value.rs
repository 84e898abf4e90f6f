//! Runtime values and deterministic operation semantics shared by the
//! reference interpreter and the machine simulator.
//!
//! Both interpreters MUST evaluate an operation identically, so the
//! semantics live here once: integer arithmetic wraps, division by zero
//! yields zero (totalised so property tests cannot crash either side), and
//! floating point is ordinary IEEE f64.

use vliw_ir::{AluKind, InitVal, Operation};

/// A runtime value: integer or floating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer.
    I(i64),
    /// Floating point.
    F(f64),
}

impl From<InitVal> for Value {
    /// A live-in register's initial value.
    fn from(init: InitVal) -> Value {
        match init {
            InitVal::Int(i) => Value::I(i),
            InitVal::Float(b) => Value::F(f64::from_bits(b)),
        }
    }
}

impl Value {
    /// As integer (floats truncate).
    pub fn as_i(self) -> i64 {
        match self {
            Value::I(i) => i,
            Value::F(f) => f as i64,
        }
    }

    /// As float (ints convert).
    pub fn as_f(self) -> f64 {
        match self {
            Value::I(i) => i as f64,
            Value::F(f) => f,
        }
    }

    /// Bitwise equality (distinguishes float payloads exactly; used by the
    /// equivalence checker).
    pub fn bits_eq(self, other: Value) -> bool {
        match (self, other) {
            (Value::I(a), Value::I(b)) => a == b,
            (Value::F(a), Value::F(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

/// Evaluate a non-memory operation over its operand values.
///
/// `operands` are the values of `op.uses` in order. Loads/stores are handled
/// by the interpreters (they need memory); passing them here panics.
pub fn eval_op(op: &Operation, operands: &[Value]) -> Value {
    use vliw_ir::Opcode::*;
    match op.opcode {
        IntAlu => {
            let a = operands[0].as_i();
            let b = match operands.get(1) {
                Some(v) => v.as_i(),
                None => op.imm.unwrap_or(0),
            };
            Value::I(match op.alu {
                AluKind::Add => a.wrapping_add(b),
                AluKind::Sub => a.wrapping_sub(b),
                AluKind::Mul => a.wrapping_mul(b),
                AluKind::Div => safe_idiv(a, b),
            })
        }
        IntMul => Value::I(operands[0].as_i().wrapping_mul(operands[1].as_i())),
        IntDiv => Value::I(safe_idiv(operands[0].as_i(), operands[1].as_i())),
        FAlu => {
            let (a, b) = (operands[0].as_f(), operands[1].as_f());
            Value::F(match op.alu {
                AluKind::Add => a + b,
                AluKind::Sub => a - b,
                AluKind::Mul => a * b,
                AluKind::Div => safe_fdiv(a, b),
            })
        }
        FMul => Value::F(operands[0].as_f() * operands[1].as_f()),
        FDiv => Value::F(safe_fdiv(operands[0].as_f(), operands[1].as_f())),
        LoadImmInt => Value::I(op.imm.unwrap_or(0)),
        LoadImmFloat => Value::F(op.fimm().unwrap_or(0.0)),
        CopyInt | CopyFloat => operands[0],
        Load | Store => panic!("memory ops are interpreted by the simulators"),
    }
}

/// Totalised integer division: `x / 0 = 0`, `i64::MIN / -1` wraps.
pub fn safe_idiv(a: i64, b: i64) -> i64 {
    if b == 0 {
        0
    } else {
        a.wrapping_div(b)
    }
}

/// Totalised float division: `x / 0.0 = 0.0` (keeps NaN/Inf out of the
/// corpus so bitwise comparison stays meaningful).
pub fn safe_fdiv(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{OpId, Opcode, VReg};

    fn op(opcode: Opcode, alu: AluKind, n_uses: usize, imm: Option<i64>) -> Operation {
        Operation {
            id: OpId(0),
            opcode,
            alu,
            def: Some(VReg(9)),
            uses: (0..n_uses as u32).map(VReg).collect(),
            imm,
            fimm_bits: None,
            mem: None,
        }
    }

    #[test]
    fn int_arith_wraps() {
        let o = op(Opcode::IntAlu, AluKind::Add, 2, None);
        let r = eval_op(&o, &[Value::I(i64::MAX), Value::I(1)]);
        assert_eq!(r, Value::I(i64::MIN));
    }

    #[test]
    fn int_alu_with_immediate() {
        let o = op(Opcode::IntAlu, AluKind::Add, 1, Some(5));
        assert_eq!(eval_op(&o, &[Value::I(10)]), Value::I(15));
    }

    #[test]
    fn division_is_total() {
        assert_eq!(safe_idiv(5, 0), 0);
        assert_eq!(safe_fdiv(5.0, 0.0), 0.0);
        let o = op(Opcode::IntDiv, AluKind::Div, 2, None);
        assert_eq!(eval_op(&o, &[Value::I(7), Value::I(0)]), Value::I(0));
        assert_eq!(eval_op(&o, &[Value::I(7), Value::I(2)]), Value::I(3));
    }

    #[test]
    fn copies_are_identity() {
        let o = op(Opcode::CopyFloat, AluKind::Add, 1, None);
        let v = Value::F(3.25);
        assert!(eval_op(&o, &[v]).bits_eq(v));
    }

    #[test]
    fn float_ops() {
        let m = op(Opcode::FMul, AluKind::Mul, 2, None);
        assert_eq!(eval_op(&m, &[Value::F(2.0), Value::F(3.5)]), Value::F(7.0));
        let s = op(Opcode::FAlu, AluKind::Sub, 2, None);
        assert_eq!(eval_op(&s, &[Value::F(2.0), Value::F(3.5)]), Value::F(-1.5));
    }

    #[test]
    fn bits_eq_discriminates() {
        assert!(Value::I(3).bits_eq(Value::I(3)));
        assert!(!Value::I(3).bits_eq(Value::F(3.0)));
        assert!(!Value::F(0.0).bits_eq(Value::F(-0.0)));
    }
}
