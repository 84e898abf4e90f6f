//! Virtual registers and register classes.

use std::fmt;

/// The register class of a value.
///
/// The paper's machine models distinguish integer and floating-point values
/// only through latencies (integer copies take 2 cycles, floating-point
/// copies 3; §6.1). Register banks in this reproduction hold both classes,
/// with independently configurable capacities per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegClass {
    /// Integer (and address) values.
    Int,
    /// Floating-point values.
    Float,
}

impl RegClass {
    /// All register classes, in a stable order.
    pub const ALL: [RegClass; 2] = [RegClass::Int, RegClass::Float];

    /// A stable dense index for per-class tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            RegClass::Int => 0,
            RegClass::Float => 1,
        }
    }

    /// Single-letter prefix used by the printer (`r` for int, `f` for float).
    #[inline]
    pub fn prefix(self) -> char {
        match self {
            RegClass::Int => 'r',
            RegClass::Float => 'f',
        }
    }
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Int => write!(f, "int"),
            RegClass::Float => write!(f, "float"),
        }
    }
}

/// A virtual (symbolic) register.
///
/// Virtual registers are dense indices into the owning [`crate::Loop`]'s
/// register table; the class of a register is recorded there. The RCG
/// partitioner in `vliw-core` operates on these indices directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u32);

impl VReg {
    /// The dense index of this register.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_dense_and_distinct() {
        let mut seen = [false; 2];
        for c in RegClass::ALL {
            assert!(!seen[c.index()], "duplicate index for {c}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn vreg_display_and_index() {
        let v = VReg(7);
        assert_eq!(v.to_string(), "v7");
        assert_eq!(v.index(), 7);
    }

    #[test]
    fn class_prefixes_differ() {
        assert_ne!(RegClass::Int.prefix(), RegClass::Float.prefix());
    }
}
