//! Operations: opcodes, def/use sets, and memory-reference metadata.

use crate::looprep::ArrayId;
use crate::reg::{RegClass, VReg};
use std::fmt;

/// Identifier of an operation within a [`crate::Loop`] body (its position in
/// program order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

impl OpId {
    /// Dense index of this operation in the loop body.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// The opcode set.
///
/// This is the minimal opcode vocabulary needed to express the paper's loop
/// corpus (Fortran innermost loops: array loads/stores, int/fp arithmetic,
/// address arithmetic) plus the two explicit inter-bank copy operations the
/// partitioner inserts. Latencies live in `vliw-machine`, not here — the IR
/// is machine-independent, exactly as the paper's retargetability argument
/// requires (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Integer add/subtract/logical — "other integer instructions" (1 cycle).
    IntAlu,
    /// Integer multiply (5 cycles).
    IntMul,
    /// Integer divide (12 cycles).
    IntDiv,
    /// Floating-point add/subtract — "other floating point" (2 cycles).
    FAlu,
    /// Floating-point multiply (2 cycles).
    FMul,
    /// Floating-point divide (2 cycles, per the paper's table).
    FDiv,
    /// Load from memory (2 cycles). Carries a [`MemRef`].
    Load,
    /// Store to memory (4 cycles). Carries a [`MemRef`].
    Store,
    /// Materialise an integer constant (1 cycle).
    LoadImmInt,
    /// Materialise a floating-point constant (1 cycle).
    LoadImmFloat,
    /// Inter-bank copy of an integer value (2 cycles).
    CopyInt,
    /// Inter-bank copy of a floating-point value (3 cycles).
    CopyFloat,
}

impl Opcode {
    /// Is this one of the two inter-bank copy opcodes?
    #[inline]
    pub fn is_copy(self) -> bool {
        matches!(self, Opcode::CopyInt | Opcode::CopyFloat)
    }

    /// Does this opcode access memory?
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, Opcode::Load | Opcode::Store)
    }

    /// The register class of the value this opcode produces (or stores).
    pub fn result_class(self) -> RegClass {
        match self {
            Opcode::IntAlu
            | Opcode::IntMul
            | Opcode::IntDiv
            | Opcode::LoadImmInt
            | Opcode::CopyInt => RegClass::Int,
            Opcode::FAlu
            | Opcode::FMul
            | Opcode::FDiv
            | Opcode::LoadImmFloat
            | Opcode::CopyFloat => RegClass::Float,
            // Loads and stores are typed by the array they touch; the builder
            // fixes the actual class. `Float` is the common case in the
            // Fortran corpus.
            Opcode::Load | Opcode::Store => RegClass::Float,
        }
    }

    /// The copy opcode appropriate for copying a value of class `class`.
    pub fn copy_for(class: RegClass) -> Opcode {
        match class {
            RegClass::Int => Opcode::CopyInt,
            RegClass::Float => Opcode::CopyFloat,
        }
    }

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::IntAlu => "ialu",
            Opcode::IntMul => "imul",
            Opcode::IntDiv => "idiv",
            Opcode::FAlu => "falu",
            Opcode::FMul => "fmul",
            Opcode::FDiv => "fdiv",
            Opcode::Load => "load",
            Opcode::Store => "store",
            Opcode::LoadImmInt => "ldi",
            Opcode::LoadImmFloat => "ldf",
            Opcode::CopyInt => "icpy",
            Opcode::CopyFloat => "fcpy",
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Affine memory-reference metadata for a load or store.
///
/// The address of the access in iteration `i` is
/// `base(array) + offset + i * stride` (in elements). The loop generator
/// guarantees that this metadata agrees with the explicit address arithmetic
/// in the loop body, so dependence analysis (which uses this metadata) and
/// simulation (which uses the register-held address) agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// The array being accessed.
    pub array: ArrayId,
    /// Constant element offset from the array base at iteration 0.
    pub offset: i64,
    /// Elements advanced per loop iteration.
    pub stride: i64,
}

/// Arithmetic interpretation of an [`Opcode::IntAlu`] / [`Opcode::FAlu`] op,
/// used by the simulator. Scheduling and partitioning never inspect this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluKind {
    /// `dst = a + b` (or `a + imm`).
    Add,
    /// `dst = a - b`.
    Sub,
    /// Generic multiply (for `IntMul`/`FMul`) — kept for symmetry.
    Mul,
    /// Generic divide.
    Div,
}

/// A three-address operation.
///
/// At most one def; zero, one or two uses. Copies inserted by the partitioner
/// are ordinary operations with [`Opcode::is_copy`] true, so the clustered
/// rescheduling pass (§4, step 4) treats them uniformly.
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    /// Identifier (== position in the loop body).
    pub id: OpId,
    /// The opcode.
    pub opcode: Opcode,
    /// Arithmetic interpretation for the simulator.
    pub alu: AluKind,
    /// Defined register, if any (stores define nothing).
    pub def: Option<VReg>,
    /// Used registers, in operand order. For `Store`, `uses[0]` is the stored
    /// value and `uses[1]` the address; for `Load`, `uses[0]` is the address.
    pub uses: Vec<VReg>,
    /// Immediate operand (constant for `LoadImm*`, addend for address
    /// arithmetic with one register operand).
    pub imm: Option<i64>,
    /// Floating-point immediate for `LoadImmFloat`, stored as bits for `Eq`.
    pub fimm_bits: Option<u64>,
    /// Memory metadata for loads/stores.
    pub mem: Option<MemRef>,
}

impl Operation {
    /// Floating-point immediate, decoded.
    pub fn fimm(&self) -> Option<f64> {
        self.fimm_bits.map(f64::from_bits)
    }

    /// Iterate over every register the operation mentions (def first).
    pub fn regs(&self) -> impl Iterator<Item = VReg> + '_ {
        self.def.into_iter().chain(self.uses.iter().copied())
    }

    /// Each distinct register the operation reads, in operand order (a
    /// register read twice, as in `fmul v, v`, appears once).
    pub fn distinct_uses(&self) -> impl Iterator<Item = VReg> + '_ {
        self.uses
            .iter()
            .enumerate()
            .filter(|&(s, u)| !self.uses[..s].contains(u))
            .map(|(_, &u)| u)
    }

    /// True if `v` is used by this operation.
    pub fn uses_reg(&self, v: VReg) -> bool {
        self.uses.contains(&v)
    }

    /// True if `v` is defined by this operation.
    pub fn defines(&self, v: VReg) -> bool {
        self.def == Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_op() -> Operation {
        Operation {
            id: OpId(0),
            opcode: Opcode::FMul,
            alu: AluKind::Mul,
            def: Some(VReg(2)),
            uses: vec![VReg(0), VReg(1)],
            imm: None,
            fimm_bits: None,
            mem: None,
        }
    }

    #[test]
    fn copy_opcodes_classified() {
        assert!(Opcode::CopyInt.is_copy());
        assert!(Opcode::CopyFloat.is_copy());
        assert!(!Opcode::FMul.is_copy());
        assert_eq!(Opcode::copy_for(RegClass::Int), Opcode::CopyInt);
        assert_eq!(Opcode::copy_for(RegClass::Float), Opcode::CopyFloat);
    }

    #[test]
    fn mem_opcodes_classified() {
        assert!(Opcode::Load.is_mem());
        assert!(Opcode::Store.is_mem());
        assert!(!Opcode::IntAlu.is_mem());
    }

    #[test]
    fn result_classes() {
        assert_eq!(Opcode::IntMul.result_class(), RegClass::Int);
        assert_eq!(Opcode::FDiv.result_class(), RegClass::Float);
        assert_eq!(Opcode::CopyInt.result_class(), RegClass::Int);
    }

    #[test]
    fn regs_iterates_def_then_uses() {
        let op = sample_op();
        let regs: Vec<_> = op.regs().collect();
        assert_eq!(regs, vec![VReg(2), VReg(0), VReg(1)]);
        assert!(op.defines(VReg(2)));
        assert!(op.uses_reg(VReg(0)));
        assert!(!op.uses_reg(VReg(2)));
    }

    #[test]
    fn fimm_roundtrip() {
        let mut op = sample_op();
        op.fimm_bits = Some(2.5f64.to_bits());
        assert_eq!(op.fimm(), Some(2.5));
    }

    #[test]
    fn every_opcode_has_distinct_mnemonic() {
        let all = [
            Opcode::IntAlu,
            Opcode::IntMul,
            Opcode::IntDiv,
            Opcode::FAlu,
            Opcode::FMul,
            Opcode::FDiv,
            Opcode::Load,
            Opcode::Store,
            Opcode::LoadImmInt,
            Opcode::LoadImmFloat,
            Opcode::CopyInt,
            Opcode::CopyFloat,
        ];
        let mut names: Vec<_> = all.iter().map(|o| o.mnemonic()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
