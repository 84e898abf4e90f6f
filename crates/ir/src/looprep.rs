//! The loop representation: a single-block innermost loop body.

use crate::op::{OpId, Operation};
use crate::reg::{RegClass, VReg};

/// Identifier of an array (a named region of memory the loop accesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

impl ArrayId {
    /// Dense index of this array in the loop's array table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Simulation metadata for one array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayInfo {
    /// Human-readable name (`x`, `y`, …).
    pub name: String,
    /// Element class (loads/stores of this array move values of this class).
    pub class: RegClass,
    /// Number of elements the simulator materialises. Must cover every
    /// address the loop touches over its trip count.
    pub len: usize,
}

/// Initial value of a live-in register, used by the simulator and the scalar
/// reference oracle. Floats are stored as bits so `Loop` can derive `Eq`-like
/// semantics through `PartialEq` deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitVal {
    /// Integer initial value.
    Int(i64),
    /// Floating-point initial value (IEEE-754 bits).
    Float(u64),
}

impl InitVal {
    /// Construct a float initial value.
    pub fn float(v: f64) -> Self {
        InitVal::Float(v.to_bits())
    }

    /// Decode as f64 (ints are converted).
    pub fn as_f64(self) -> f64 {
        match self {
            InitVal::Int(i) => i as f64,
            InitVal::Float(b) => f64::from_bits(b),
        }
    }

    /// Decode as i64 (floats are truncated).
    pub fn as_i64(self) -> i64 {
        match self {
            InitVal::Int(i) => i,
            InitVal::Float(b) => f64::from_bits(b) as i64,
        }
    }
}

/// A single-block innermost loop, the unit of software pipelining.
///
/// Semantics: the body executes `trip_count` times in program order. A use of
/// a virtual register before any def of it in the body reads the previous
/// iteration's value (live-in value on iteration 0) — this encodes
/// loop-carried recurrences without SSA phi nodes, matching the three-address
/// code the paper's Rocket compiler hands to its backend.
#[derive(Debug, Clone, PartialEq)]
pub struct Loop {
    /// Name for reports (e.g. `daxpy_u4_017`).
    pub name: String,
    /// Body operations in program order. `ops[i].id == OpId(i)`.
    pub ops: Vec<Operation>,
    /// Register class of every virtual register; `vreg_classes[v.index()]`.
    pub vreg_classes: Vec<RegClass>,
    /// Registers holding values on loop entry (invariants and recurrence
    /// seeds).
    pub live_in: Vec<VReg>,
    /// Initial values of the live-in registers, parallel to `live_in`.
    pub live_in_vals: Vec<InitVal>,
    /// Registers whose final values are observed after the loop.
    pub live_out: Vec<VReg>,
    /// Arrays the loop touches.
    pub arrays: Vec<ArrayInfo>,
    /// Iterations to execute when simulated.
    pub trip_count: u32,
    /// Nesting depth of the enclosing block (1 = innermost, as in the whole
    /// experimental corpus; the RCG weighting uses this).
    pub nesting_depth: u32,
}

impl Loop {
    /// Number of operations in the body.
    #[inline]
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of virtual registers.
    #[inline]
    pub fn n_vregs(&self) -> usize {
        self.vreg_classes.len()
    }

    /// Class of a virtual register.
    #[inline]
    pub fn class_of(&self, v: VReg) -> RegClass {
        self.vreg_classes[v.index()]
    }

    /// The operation with the given id.
    #[inline]
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.index()]
    }

    /// Is `v` live into the loop?
    pub fn is_live_in(&self, v: VReg) -> bool {
        self.live_in.contains(&v)
    }

    /// Is `v` a loop invariant: live-in and never defined in the body?
    pub fn is_invariant(&self, v: VReg) -> bool {
        self.is_live_in(v) && !self.ops.iter().any(|o| o.defines(v))
    }

    /// Program-order positions of every def of `v`.
    pub fn defs_of(&self, v: VReg) -> Vec<OpId> {
        self.ops
            .iter()
            .filter(|o| o.defines(v))
            .map(|o| o.id)
            .collect()
    }

    /// Program-order positions of every use of `v`.
    pub fn uses_of(&self, v: VReg) -> Vec<OpId> {
        self.ops
            .iter()
            .filter(|o| o.uses_reg(v))
            .map(|o| o.id)
            .collect()
    }

    /// Registers that carry a value across iterations: defined in the body
    /// and either used before their first def (recurrence) or live-out.
    pub fn carried_regs(&self) -> Vec<VReg> {
        let mut out = Vec::new();
        for v in (0..self.n_vregs() as u32).map(VReg) {
            let defs = self.defs_of(v);
            if defs.is_empty() {
                continue;
            }
            let first_def = defs[0];
            let used_before_def = self
                .ops
                .iter()
                .take(first_def.index())
                .any(|o| o.uses_reg(v));
            if used_before_def || self.live_out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// Count of operations per opcode predicate (helper for stats).
    pub fn count_ops(&self, pred: impl Fn(&Operation) -> bool) -> usize {
        self.ops.iter().filter(|o| pred(o)).count()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::LoopBuilder;
    use crate::op::Opcode;

    #[test]
    fn invariants_and_carried_regs() {
        // s = s + a * x  (a invariant, s recurrence)
        let mut b = LoopBuilder::new("rec");
        let a = b.live_in_float("a");
        let s = b.live_in_float("s");
        let x = b.new_float();
        // x is defined (constant) then used, s is used-then-defined.
        b.fconst(x, 1.0);
        let t = b.fmul(a, x);
        let s2 = b.falu_into(s, crate::op::AluKind::Add, s, t);
        assert_eq!(s2, s);
        b.live_out(s);
        let l = b.finish(8);

        assert!(l.is_invariant(a));
        assert!(!l.is_invariant(s));
        assert!(l.is_live_in(s));
        let carried = l.carried_regs();
        assert!(carried.contains(&s));
        assert!(!carried.contains(&a));
        assert_eq!(l.count_ops(|o| o.opcode == Opcode::FMul), 1);
    }
}
