//! Operation latencies (§6.1 of the paper).

use vliw_ir::Opcode;

/// Cycle latencies per opcode. `latency` cycles elapse between issuing an
/// operation and its result being readable; an operation issued at cycle `c`
/// produces a value readable at cycle `c + latency`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyTable {
    /// Integer inter-bank copy.
    pub copy_int: u32,
    /// Floating-point inter-bank copy.
    pub copy_float: u32,
    /// Memory load.
    pub load: u32,
    /// Integer multiply.
    pub int_mul: u32,
    /// Integer divide.
    pub int_div: u32,
    /// Other integer operations (including immediates).
    pub int_other: u32,
    /// Floating-point multiply.
    pub fp_mul: u32,
    /// Floating-point divide.
    pub fp_div: u32,
    /// Other floating-point operations.
    pub fp_other: u32,
    /// Memory store (cycles until the stored value is visible to loads).
    pub store: u32,
}

impl LatencyTable {
    /// The paper's latency table (§6.1), used by both machine models.
    pub fn paper() -> Self {
        LatencyTable {
            copy_int: 2,
            copy_float: 3,
            load: 2,
            int_mul: 5,
            int_div: 12,
            int_other: 1,
            fp_mul: 2,
            fp_div: 2,
            fp_other: 2,
            store: 4,
        }
    }

    /// Unit latencies for every operation — the assumption of the paper's
    /// worked example (§4.2, Figures 1–3).
    pub fn unit() -> Self {
        LatencyTable {
            copy_int: 1,
            copy_float: 1,
            load: 1,
            int_mul: 1,
            int_div: 1,
            int_other: 1,
            fp_mul: 1,
            fp_div: 1,
            fp_other: 1,
            store: 1,
        }
    }

    /// The paper's table with 1-cycle copies — the Nystrom/Eichenberger and
    /// Ozer et al. assumption, used by the copy-latency ablation (§6.3).
    pub fn paper_fast_copies() -> Self {
        LatencyTable {
            copy_int: 1,
            copy_float: 1,
            ..LatencyTable::paper()
        }
    }

    /// Latency of `op`.
    pub fn of(&self, op: Opcode) -> u32 {
        match op {
            Opcode::IntAlu | Opcode::LoadImmInt => self.int_other,
            Opcode::IntMul => self.int_mul,
            Opcode::IntDiv => self.int_div,
            Opcode::FAlu | Opcode::LoadImmFloat => self.fp_other,
            Opcode::FMul => self.fp_mul,
            Opcode::FDiv => self.fp_div,
            Opcode::Load => self.load,
            Opcode::Store => self.store,
            Opcode::CopyInt => self.copy_int,
            Opcode::CopyFloat => self.copy_float,
        }
    }

    /// The largest latency in the table (bounds schedule-length estimates).
    pub fn max_latency(&self) -> u32 {
        [
            self.copy_int,
            self.copy_float,
            self.load,
            self.int_mul,
            self.int_div,
            self.int_other,
            self.fp_mul,
            self.fp_div,
            self.fp_other,
            self.store,
        ]
        .into_iter()
        .max()
        .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_matches_section_6_1() {
        let t = LatencyTable::paper();
        assert_eq!(t.of(Opcode::CopyInt), 2);
        assert_eq!(t.of(Opcode::CopyFloat), 3);
        assert_eq!(t.of(Opcode::Load), 2);
        assert_eq!(t.of(Opcode::IntMul), 5);
        assert_eq!(t.of(Opcode::IntDiv), 12);
        assert_eq!(t.of(Opcode::IntAlu), 1);
        assert_eq!(t.of(Opcode::FMul), 2);
        assert_eq!(t.of(Opcode::FDiv), 2);
        assert_eq!(t.of(Opcode::FAlu), 2);
        assert_eq!(t.of(Opcode::Store), 4);
        assert_eq!(t.max_latency(), 12);
    }

    #[test]
    fn unit_table_is_all_ones() {
        let t = LatencyTable::unit();
        for op in [
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
        ] {
            assert_eq!(t.of(op), 1, "{op}");
        }
    }

    #[test]
    fn fast_copy_table_only_changes_copies() {
        let fast = LatencyTable::paper_fast_copies();
        let paper = LatencyTable::paper();
        assert_eq!(fast.of(Opcode::CopyInt), 1);
        assert_eq!(fast.of(Opcode::CopyFloat), 1);
        assert_eq!(fast.of(Opcode::IntDiv), paper.of(Opcode::IntDiv));
        assert_eq!(fast.of(Opcode::Store), paper.of(Opcode::Store));
    }
}
